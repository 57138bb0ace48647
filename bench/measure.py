"""Measurement: timed passes over a workload, traced passes, the size sweep.

Imports the library, so `run.py` imports this module only after putting
./src on the path.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import shapes
import workloads
from gridmatter import algorithms, cli, particles, scheduler
from gridmatter.grid import GridKind
from tracer import Tracer, direct

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3
# Lower quartile of HostSpeed's loop times, in seconds, on the 2-vCPU
# x86-64 host in its fast spells: the speed end-to-end times are scaled to.
REFERENCE_LOOP_S = 0.0037
SWEEP_SIDES = (10, 20, 40, 80)  # square rectangles of n = 100 .. 6400
PHASES = algorithms.PIPELINE_FULL
# The end-to-end metrics of the result line, as listed in BENCHMARK.json.
# op_s_p90 is printed only: just batch-small has the hundred ops a 90th
# percentile needs, and on the others it falls between ops of different
# sizes and moves by 30% between runs of identical inputs.
REPORTED_END_TO_END = ("setup_s", "wall_s", "op_s_p50", "activations_per_s",
                       "peak_rss_mb")

# Set-up as a fresh process pays it: import the library and fill its lazy
# caches.  Prints the seconds taken.
SETUP_CODE = """
from time import perf_counter
start = perf_counter()
from gridmatter import algorithms, cli, coloring, particles, scheduler
from gridmatter.grid import GridKind
for grid in ("square", "triangular", "king"):
    particles.contractibility_table(GridKind(grid))
for grid, k in {pairs!r}:
    coloring.pattern(GridKind(grid), k)
print(perf_counter() - start)
"""


class HostSpeed:
    """How fast the shared host runs during a run, from a fixed loop.

    The host shares its cores with other machines.  Over seconds to
    minutes it runs all code up to 2x slower, a slowdown the guest does
    not see as steal time, so two sets of runs minutes apart differed by
    a quarter in median.  The loop is timed between ops, once per 0.1 s
    gone since it last ran and at most ten times in a row; end-to-end
    times are scaled by REFERENCE_LOOP_S over the lower quartile of its
    times in the run.
    """

    def __init__(self):
        self.loop_s = []
        self.last = float("-inf")

    def sample(self) -> None:
        for _ in range(int(min(10, (perf_counter() - self.last) / 0.1))):
            start = perf_counter()
            counts = {}
            # integers only: the loop creates nothing the collector tracks,
            # so it never triggers a collection that walks an op's output
            for i in range(20000):
                key = i % 97 * 89 + i % 89
                counts[key] = counts.get(key ^ 1, 0) + 1
            self.last = perf_counter()
            self.loop_s.append(self.last - start)

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REFERENCE_LOOP_S / statistics.quantiles(self.loop_s, n=4)[0]


def measure_setup(workload, seed, host):
    """Median cold import-and-warm time, median input-building time, inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    code = SETUP_CODE.format(pairs=workload.pairs)
    import_s, build_s = [], []
    for _ in range(SETUP_REPEATS):
        host.sample()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        import_s.append(float(out.stdout.split()[-1]))
    for _ in range(SETUP_REPEATS):
        host.sample()
        start = perf_counter()
        inputs = workload.build(seed)
        build_s.append(perf_counter() - start)
    return statistics.median(import_s), statistics.median(build_s), inputs


def run_pass(workload, inputs, call=direct, tracer=None, label=None,
             host=None):
    """One pass over the op set: per-op seconds and the pass's tally."""
    tally = workloads.Tally()
    op_s = []
    if tracer is not None:
        tracer.pass_index = label
    # The benchmark's own objects (inputs, tracer) are frozen out of the
    # collector, so an op's collections scan about the heap a `gridmatter`
    # process would have, and the collection before each op is cheap.
    gc.collect()
    gc.freeze()
    for index, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = index
        # each op starts from an empty young generation, so the collections
        # it triggers do not depend on the ops before it
        gc.collect()
        if host is not None:
            host.sample()
        start = perf_counter()
        out = error = None
        try:
            out = call("op", workload.op, inp, call)
        except Exception as exc:  # the op's failure is counted, the run goes on
            error = exc
        op_s.append(perf_counter() - start)
        tally.attempted += 1
        if error is not None:
            tally.fail(f"op {index} raised {type(error).__name__}: {error}")
            continue
        workload.check(inp, out, tally, call)
        del out
    gc.unfreeze()
    return op_s, tally


def pass_count(workload, seconds) -> int:
    """Passes of a run: as many as fit in `seconds` at the workload's
    nominal pass time, at least MIN_PASSES.

    The count depends on `seconds` alone, not on how fast the code runs,
    so every commit gets the same number of samples per op and the least
    of them is not biased towards the faster commit.
    """
    return max(MIN_PASSES, round(seconds / workload.pass_s))


def run_passes(count, run_one) -> list:
    return [run_one(i) for i in range(count)]


def same_statistics(passes) -> list:
    first = passes[0][1].statistics()
    return [
        f"pass {i} statistics differ from pass 0"
        for i, (_, tally) in enumerate(passes[1:], start=1)
        if tally.statistics() != first
    ]


def end_to_end(workload, inputs, seconds, setup_s, host):
    """Untraced passes; metric name -> (value, unit, samples).

    An op's time is the least of its times over a fixed number of passes
    (`pass_count`).  The host shares its cores, and contention only adds
    time, in spells that slow the same op by up to 2x; the least time is
    closest to what the code costs.  Times are at the reference host
    speed (`HostSpeed`).
    """
    passes = run_passes(pass_count(workload, seconds),
                        lambda i: run_pass(workload, inputs, host=host))
    scale = host.scale()
    setup_s *= scale
    best = [scale * min(op_s[i] for op_s, _ in passes)
            for i in range(len(inputs))]
    wall = sum(best)
    tally = passes[0][1]
    # generate runs no engine; its unit of work is a generated particle
    work = tally.activations or tally.particles
    p90 = best[0]
    if len(best) > 1:
        p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
    samples = f"{len(best)}x{len(passes)}"
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "wall_s": (wall, "s", samples),
        "op_s_p50": (statistics.median(best), "s", samples),
        "op_s_p90": (p90, "s", samples),
        "activations_per_s": (work / wall, "1/s", samples),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "host_scale": (scale, "ratio", len(host.loop_s)),
    }
    return metrics, passes, same_statistics(passes)


def layer_metrics(workload, inputs, seconds, seed, tracer):
    """Traced passes and the sweep; metric name -> (value, unit, samples)."""
    with tracer.protocols(algorithms):
        traced = run_passes(
            pass_count(workload, seconds),
            lambda i: run_pass(workload, inputs, tracer.call, tracer, i))
    # A pass with layer spans only (a few per op) times the layers without
    # the protocol wrapper; it is the base of the tracing overhead.
    plain = Tracer()
    base = run_pass(workload, inputs, plain.call, plain, "base")
    problems = same_statistics([base] + traced)
    out = {}

    def put(name, values, unit):
        out[name] = (statistics.median(values), unit, len(values))

    per_pass = [tracer.totals(i) for i in range(len(traced))]
    for name in sorted(per_pass[0]):
        if name.endswith("_s") and not name.startswith("op"):
            put(name, [totals.get(name, 0.0) for totals in per_pass], "s")
    tally = traced[0][1]
    for phase in PHASES:
        calls = per_pass[0].get(f"algorithms.{phase}.step_calls", 0)
        changes = per_pass[0].get(f"algorithms.{phase}.changes", 0)
        out[f"algorithms.{phase}.step_calls"] = (calls, "count", 1)
        out[f"algorithms.{phase}.changes"] = (changes, "count", 1)
        out[f"algorithms.{phase}.useful_ratio"] = (
            changes / calls if calls else 0.0, "ratio", 1)
        out[f"algorithms.{phase}.rounds"] = (tally.rounds[phase], "count", 1)
        out[f"algorithms.{phase}.sends"] = (tally.sends[phase], "count", 1)
        out[f"algorithms.{phase}.messages"] = (tally.messages[phase], "count", 1)
    out["algorithms.elect.stalls"] = (sum(tally.stalls.values()), "count", 1)
    out["scheduler.trace_events"] = (tally.trace_events, "count", 1)
    put("trace.overhead", [sum(op_s) / sum(base[0]) for op_s, _ in traced],
        "ratio")
    if workload.records:
        out["scheduler.record_s"] = (
            plain.totals("base")["scheduler.run_s"] - unrecorded_run_seconds(inputs),
            "s", 1)
    out["coloring.pattern_s"] = (workloads.cold_pattern_seconds(), "s", 1)
    problems += sweep(seed, tracer, out)
    return out, traced, problems


def unrecorded_run_seconds(inputs) -> float:
    """`scheduler.run` with record=False over the inputs of one pass."""
    total = 0.0
    for inp in inputs:
        config = cli.parse_config_text(inp.text).config
        start = perf_counter()
        scheduler.run(config, PHASES, inp.schedule, k=inp.k, record=False)
        total += perf_counter() - start
    return total


def sweep(seed, tracer, out) -> list:
    """Per-call `scheduler.run` and `cli.verify_run` on square rectangles."""
    rng = random.Random(f"sweep/{seed}")
    problems = []
    for side in SWEEP_SIDES:
        label = f"n{side * side}"
        cells = shapes.rect(side, side)
        config = particles.make_config(
            GridKind.SQUARE, cells, shapes.frame_offsets("square", cells, rng))
        schedule = scheduler.Schedule(scheduler.POLICY_RANDOM,
                                      seed=rng.randrange(2**31))
        tracer.pass_index = label
        tracer.op = label
        with tracer.protocols(algorithms):
            result = tracer.call("scheduler.run", scheduler.run, config, PHASES,
                                 schedule, k=2, record=False)
        violations = tracer.call("cli.verify_run", cli.verify_run, config, 2,
                                 result.states)
        wrong = violations or oracle.check_run("square", 2, result.states)
        if wrong:
            problems.append(f"sweep {label}: {wrong[:3]}")
        totals = tracer.totals(label)
        for name in ("scheduler.run_s", "scheduler.run.self_s", "cli.verify_run_s"):
            out[f"{name}.{label}"] = (totals[name], "s", 1)
        for phase in PHASES:
            for key in ("step_s", "setup_s"):
                name = f"algorithms.{phase}.{key}"
                out[f"{name}.{label}"] = (totals[name], "s", 1)
    return problems


def reported_layers() -> list:
    """The per-layer metrics of the result line, as listed in BENCHMARK.json.

    Only metrics that every workload measures: layer times a workload does
    not exercise would read 0 there, so they are printed but not reported.
    """
    names = [f"algorithms.{phase}.{key}" for phase in PHASES
             for key in ("step_calls", "changes", "useful_ratio", "rounds")]
    # the elect phase sends no messages
    names += [f"algorithms.{phase}.{key}" for phase in PHASES[1:]
              for key in ("sends", "messages")]
    names += ["algorithms.elect.stalls", "scheduler.trace_events",
              "trace.overhead", "coloring.pattern_s"]
    for side in SWEEP_SIDES:
        label = f"n{side * side}"
        names += [f"scheduler.run_s.{label}", f"scheduler.run.self_s.{label}",
                  f"cli.verify_run_s.{label}"]
        names += [f"algorithms.{phase}.{key}.{label}" for phase in PHASES
                  for key in ("step_s", "setup_s")]
    return names

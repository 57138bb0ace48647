"""The three workloads: seeded inputs, the timed op, and its checks.

An op is a sequence of calls into public library functions, each made
through `call(name, fn, *args)` so the traced run can record a span per
layer.  `check` runs after the op, outside its timing: it applies the
oracle, classifies failures and folds the op's simulated statistics and
outputs into the tally.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter

import oracle
import shapes
from gridmatter import algorithms, cli, coloring, particles, scheduler
from gridmatter.grid import GridKind

PHASES = algorithms.PIPELINE_FULL


@dataclass
class Tally:
    """What a pass did, apart from timing; equal across passes of one seed."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # ops whose output fails the oracle
    stalls: dict = field(default_factory=lambda: dict.fromkeys(shapes.GRIDS, 0))
    activations: int = 0
    particles: int = 0
    trace_events: int = 0
    rounds: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0))
    sends: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0))
    messages: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0))
    digest: object = field(default_factory=hashlib.sha256)
    problems: list = field(default_factory=list)

    def fail(self, what: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 5:
            self.problems.append(what)

    def statistics(self) -> dict:
        return {
            "ops": self.attempted,
            "failed": self.failed,
            "stalls": self.stalls,
            "activations": self.activations,
            "particles": self.particles,
            "trace_events": self.trace_events,
            "rounds": self.rounds,
            "sends": self.sends,
            "messages": self.messages,
            "sha256": self.digest.hexdigest(),
        }


@dataclass
class RunInput:
    grid: str
    k: int
    schedule: scheduler.Schedule
    text: str = ""  # config text, for ops that start by parsing
    config: object = None  # a built ParticleConfig, for ops that do not
    label: str = ""


def _report_lines(result, leader) -> list:
    """The `gridmatter run` report, before its invariants line."""
    reports = {r.name: r for r in result.reports}
    if leader is None:
        residual = sum(
            s.status == algorithms.STATUS_CANDIDATE for s in result.states.values()
        )
        return [
            ("leader", "none"),
            ("residual", residual),
            ("rounds_elect", reports[algorithms.ELECT].rounds_active),
            ("msgs_elect", reports[algorithms.ELECT].messages),
            ("invariants", "stalled-by-holes"),
        ]
    lines = [("leader", f"{leader[0]},{leader[1]}")]
    lines += [(f"rounds_{name}", reports[name].rounds_active) for name in PHASES]
    lines += [(f"msgs_{name}", reports[name].messages) for name in PHASES]
    return lines


def _check_run(inp, out, tally, call) -> None:
    """Shared checks of an engine op; `out` is (result, violations, report)."""
    result, violations, report = out
    tally.activations += result.trace.activations
    tally.trace_events += len(result.trace.events)
    for r in result.reports:
        tally.rounds[r.name] += r.rounds_total
        tally.sends[r.name] += r.sends
        tally.messages[r.name] += r.messages
    tally.digest.update(call("scheduler.to_text", result.trace.to_text).encode())
    tally.digest.update(report.encode())
    if violations is None:
        # every input is hole-free, so a stall is a failure
        tally.stalls[inp.grid] += 1
        tally.fail(f"{inp.label}: stalled")
        return
    if violations:
        tally.fail(f"{inp.label}: verify_run {violations[:3]}")
        return
    problems = oracle.check_run(inp.grid, inp.k, result.states)
    if problems:
        tally.fail(f"{inp.label}: oracle {problems[:3]}", wrong=True)


class RunLarge:
    """`gridmatter run` through public functions, trace recorded, k=2."""

    name = "run-large"
    pairs = (("square", 2), ("triangular", 2))
    records = True
    # seconds of one untraced pass, checks included, on a shared 2-vCPU
    # x86-64 host; sets how many passes a run makes (measure.pass_count)
    pass_s = 6.0

    def build(self, seed: int) -> list:
        rng = random.Random(f"run-large/{seed}")
        out = []
        for grid, k in self.pairs:
            for shape, cells in (
                ("rect40x40", shapes.rect(40, 40)),
                ("blob1600", shapes.blob(grid, 1600, rng)),
            ):
                offsets = shapes.frame_offsets(grid, cells, rng)
                out.append(RunInput(
                    grid=grid,
                    k=k,
                    schedule=scheduler.Schedule(
                        scheduler.POLICY_RANDOM, seed=rng.randrange(2**31)
                    ),
                    text=shapes.config_text(grid, k, seed, offsets),
                    label=f"{grid}/{shape}",
                ))
        return out

    def op(self, inp, call):
        doc = call("cli.parse_config_text", cli.parse_config_text, inp.text)
        problems = call("particles.validate_config", particles.validate_config,
                        doc.config)
        if problems:
            raise ValueError(f"invalid config: {problems}")
        result = call("scheduler.run", scheduler.run, doc.config, PHASES,
                      inp.schedule, k=inp.k, record=True)
        leader = algorithms.leader_of(result.states)
        lines = _report_lines(result, leader)
        violations = None
        if leader is not None:
            violations = call("cli.verify_run", cli.verify_run, doc.config, inp.k,
                              result.states)
            verdict = "pass" if not violations else "fail:" + ";".join(violations)
            hist = algorithms.id_histogram(result.states)
            lines += [("invariants", verdict),
                      ("hist", ",".join(f"{c}:{n}" for c, n in hist.items()))]
        report = call("cli.format_report", cli.format_report, lines)
        return result, violations, report

    def check(self, inp, out, tally, call) -> None:
        _check_run(inp, out, tally, call)


class BatchSmall:
    """Hundreds of short unrecorded runs, three schedule policies each."""

    name = "batch-small"
    blobs_per_grid = 40
    pairs = tuple((grid, 1) for grid in shapes.GRIDS)
    records = False
    pass_s = 5.0

    def build(self, seed: int) -> list:
        rng = random.Random(f"batch-small/{seed}")
        out = []
        for grid in shapes.GRIDS:
            for index in range(self.blobs_per_grid):
                # n is uniform in [1, 200], one draw per stratum of 5, so the
                # size mix, which sets the op times, hardly varies by seed
                cells = shapes.blob(grid, rng.randint(5 * index + 1, 5 * index + 5),
                                    rng)
                offsets = shapes.frame_offsets(grid, cells, rng)
                config = particles.make_config(GridKind(grid), cells, offsets)
                orders = []
                for _ in range(2):
                    order = list(cells)
                    rng.shuffle(order)
                    orders.append(tuple(order))
                for schedule in (
                    scheduler.Schedule(scheduler.POLICY_ROUND_ROBIN),
                    scheduler.Schedule(scheduler.POLICY_RANDOM,
                                       seed=rng.randrange(2**31)),
                    scheduler.Schedule(scheduler.POLICY_EXPLICIT,
                                       orders=tuple(orders)),
                ):
                    out.append(RunInput(
                        grid=grid, k=1, schedule=schedule, config=config,
                        label=f"{grid}/blob{len(cells)}#{index}/{schedule.policy}",
                    ))
        return out

    def op(self, inp, call):
        result = call("scheduler.run", scheduler.run, inp.config, PHASES,
                      inp.schedule, k=inp.k, record=False)
        leader = algorithms.leader_of(result.states)
        violations = None
        if leader is not None:
            violations = call("cli.verify_run", cli.verify_run, inp.config, inp.k,
                              result.states)
        return result, violations, leader

    def check(self, inp, out, tally, call) -> None:
        result, violations, leader = out
        report = cli.format_report(_report_lines(result, leader))
        _check_run(inp, (result, violations, report), tally, call)


@dataclass
class ShapeInput:
    grid: str
    n: int
    seed: int


class Generate:
    """`gridmatter generate blob N` followed by `gridmatter verify`."""

    name = "generate"
    sizes = ((1600, 3), (6400, 1))  # (N, shapes per grid and pass)
    pairs = ()
    records = False
    pass_s = 5.0

    def build(self, seed: int) -> list:
        # Fixed shape seeds: the generator's time varies several-fold with
        # its seed at one N, so seed-drawn shapes would swamp the host noise.
        rng = random.Random("generate")
        return [
            ShapeInput(grid, n, rng.randrange(2**31))
            for grid in shapes.GRIDS
            for n, count in self.sizes
            for _ in range(count)
        ]

    def op(self, inp, call):
        config = call("cli.generate_shape", cli.generate_shape, GridKind(inp.grid),
                      ["blob", str(inp.n)], inp.seed)
        text = call("cli.serialize_config", cli.serialize_config,
                    cli.ConfigDoc(config=config, k=1, seed=inp.seed))
        doc = call("cli.parse_config_text", cli.parse_config_text, text)
        problems = call("particles.validate_config", particles.validate_config,
                        doc.config)
        holes = call("particles.find_holes", particles.find_holes, doc.config)
        edge = call("particles.border", particles.border, doc.config)
        return config, text, doc, problems, holes, edge

    def check(self, inp, out, tally, call) -> None:
        config, text, doc, problems, holes, edge = out
        tally.particles += config.n
        tally.digest.update(text.encode())
        tally.digest.update(f"holes={holes.count} border={len(edge)}\n".encode())
        label = f"{inp.grid}/blob{inp.n}/seed{inp.seed}"
        cells = set(config.occupied)
        if problems:
            tally.fail(f"{label}: validate_config {problems[:3]}")
        elif holes.count:
            tally.fail(f"{label}: generated with {holes.count} holes")
        elif len(cells) != inp.n:
            tally.fail(f"{label}: {len(cells)} particles", wrong=True)
        elif doc.config.occupied != config.occupied or any(
            doc.config.offset(p) != config.offset(p) for p in cells
        ):
            tally.fail(f"{label}: config does not round-trip", wrong=True)
        elif shape_problems := oracle.check_shape(inp.grid, cells):
            tally.fail(f"{label}: oracle {shape_problems}", wrong=True)
        elif border_problems := oracle.check_border(inp.grid, cells, edge):
            tally.fail(f"{label}: oracle {border_problems}", wrong=True)


WORKLOADS = {w.name: w for w in (RunLarge(), BatchSmall(), Generate())}


def cold_pattern_seconds() -> float:
    """Uncached construction of the k=1 and k=2 patterns of every grid."""
    start = perf_counter()
    for grid in shapes.GRIDS:
        for k in (1, 2):
            coloring.pattern.__wrapped__(GridKind(grid), k)
    return perf_counter() - start


def warm(pairs) -> None:
    """Fill the library's lazy caches: coloring patterns and decision tables."""
    for grid in shapes.GRIDS:
        particles.contractibility_table(GridKind(grid))
    for grid, k in pairs:
        coloring.pattern(GridKind(grid), k)

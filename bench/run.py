"""Benchmark of the gridmatter simulator: one workload, one seed per run.

    python3 bench/run.py --workload run-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload run-large --seed 1 --seconds 20 --trace 1

Run it from the repository root; the library is imported from ./src.
With --trace 0 it times a fixed number of passes over the workload's op
set, as many as fit in --seconds at the workload's nominal pass time,
and reports the end-to-end metrics.  With --trace 1 it reports the
per-layer metrics instead, from as many passes with spans around every
library call and timed protocols, plus a size sweep of `scheduler.run`
and `cli.verify_run`; the spans go to bench_out/.  The full report of a
workload is the two runs together.  Human-readable lines come first; the
last line of stdout is the JSON result.  See bench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("run-large", "batch-small", "generate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def environment(args) -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    src = hashlib.sha256()
    for path in sorted((SRC / "gridmatter").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def show(kind, metrics) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{kind:<10} {name:<34} {value:>14.6g} {unit:<6} samples={samples}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "gridmatter" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'gridmatter'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridmatter

    if not Path(gridmatter.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported gridmatter from {gridmatter.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS, warm

    env = environment(args)
    print("env " + json.dumps(env))
    workload = WORKLOADS[args.workload]
    warm(workload.pairs)
    host = measure.HostSpeed()
    cold_s, build_s, inputs = measure.measure_setup(workload, args.seed, host)
    print(f"setup      import+warm {cold_s:.4f} s, inputs {build_s:.4f} s "
          f"(medians of {measure.SETUP_REPEATS}, as measured); {len(inputs)} ops "
          "per pass")

    if args.trace:
        tracer = measure.Tracer()
        metrics, passes, problems = measure.layer_metrics(
            workload, inputs, args.seconds, args.seed, tracer)
        show("per_layer", metrics)
        out_dir = ROOT / "bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans, env)
        print(f"spans      {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
        reported = measure.reported_layers()
    else:
        metrics, passes, problems = measure.end_to_end(
            workload, inputs, args.seconds, cold_s + build_s, host)
        show("end_to_end", metrics)
        reported = measure.REPORTED_END_TO_END

    tally = passes[0][1]
    print(f"fail_frac  {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops per pass; stalls by grid "
          f"{tally.stalls})")
    for what in tally.problems:
        print(f"failure    {what}")
    print("stats      " + json.dumps(tally.statistics()))
    for what in problems:
        print(f"mismatch   {what}")
    result = {
        "correct": tally.wrong == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

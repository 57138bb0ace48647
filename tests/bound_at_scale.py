"""The election's active rounds against the paper's round bound, at scale.

Runs the elect phase on `gen_blob` shapes of 1,600 particles, seeds 0
and 1 on every grid, under round-robin, seeded-random (the shape's seed)
and an explicit schedule whose first round is reverse-sorted.  Each line
gives the run's `rounds_active`, the shape's
`oracles.round_bound_certificate` (a lower bound on b_G(r, mtree)) and
the slack between them.  Exits 1 if a run elects no single leader or
goes over its certificate; a run over the certificate may still be
within b_G, whose exact value is out of reach at this size.

Not collected by pytest.  Run from the repository root:

    PYTHONPATH=src python tests/bound_at_scale.py
"""

import random
import sys
import time

import oracles
from gridmatter.algorithms import ELECT, leader_cells
from gridmatter.grid import GridKind
from gridmatter.particles import make_config
from gridmatter.scheduler import (
    POLICY_EXPLICIT,
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    Schedule,
    run,
)
from gridmatter.shapes import gen_blob

N = 1600
SEEDS = (0, 1)


def schedules(cells, seed):
    first_round = tuple(sorted(cells, reverse=True))
    return (
        ("round_robin", Schedule(POLICY_ROUND_ROBIN)),
        ("random", Schedule(POLICY_RANDOM, seed=seed)),
        ("reverse_first", Schedule(POLICY_EXPLICIT, orders=(first_round,))),
    )


def main() -> int:
    bad = 0
    print("grid\tseed\tschedule\trounds_active\tcertificate\tslack\tseconds")
    for kind in GridKind:
        for seed in SEEDS:
            cells = sorted(gen_blob(kind, N, random.Random(seed)))
            certificate = oracles.round_bound_certificate(kind, cells)
            cfg = make_config(kind, cells)
            for name, sched in schedules(cells, seed):
                t0 = time.perf_counter()
                res = run(cfg, (ELECT,), sched, k=1, record=False)
                seconds = time.perf_counter() - t0
                rounds = res.reports[0].rounds_active
                slack = certificate - rounds
                leaders = len(leader_cells(res.states))
                bad += slack < 0 or leaders != 1
                note = "" if leaders == 1 else f"\tleaders={leaders}"
                print(f"{kind.value}\t{seed}\t{name}\t{rounds}\t{certificate}\t"
                      f"{slack}\t{seconds:.2f}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: ten verdicts, one printed line per criterion.

Each test prints ``CRITERION <n> PASS`` or ``... FAIL`` from a finally
block, so the verdict line appears even when its assertions trip (run
pytest with ``-s`` to see the lines).  All comparisons are exact; the
only tolerances are the stated batch sizes and seed streams, which are
fixed below.

The election batch audits every Alg. 1 trace transition by transition
against definition-level checks that do not share code with the engine:
plain-set BFS for connectivity, complement flooding for holes, and the
extended-neighborhood contractibility predicate from the oracle module.
"""

import math
import random
import time
from collections import deque
from functools import lru_cache, partial
from itertools import combinations, product

import pytest
from click.testing import CliRunner

from gridmatter import cli as climod
from gridmatter.algorithms import (
    PIPELINE_FULL,
    STATUS_CANDIDATE,
    STATUS_NON_CANDIDATE,
    leader_of,
    start_states,
    tree_height,
    update_id_after_move,
)
from gridmatter.coloring import (
    ColoringPattern,
    color_at,
    color_count,
    color_table_text,
    pattern,
    short_vector,
)
from gridmatter.grid import GridKind, degree
from gridmatter.particles import (
    contractibility_table,
    find_holes,
    make_config,
)
from gridmatter.scheduler import (
    POLICY_EXPLICIT,
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    AlgorithmReport,
    RunResult,
    RunTrace,
    Schedule,
    TraceRound,
    run,
)
from gridmatter.shapes import gen_blob, random_offsets, serialize_config
from gridmatter.verify import verify_run

import oracles

KINDS = [GridKind.SQUARE, GridKind.TRIANGULAR, GridKind.KING]


def _verdict(num, ok):
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}")


def _connected(kind, cells):
    return not cells or oracles.connected(kind, cells)


def _still_connected(kind, cells, p):
    """Whether `cells` is connected, given that it was with p in it.

    Then a path in `cells` between any two members can be rerouted
    around p through p's neighbours, so it is enough that those
    neighbours reach each other; the BFS stops once they all have.
    """
    dirs = oracles.DIRS[oracles.kind_name(kind)]
    left = {(p[0] + di, p[1] + dj) for di, dj in dirs} & cells
    if not left:
        return not cells  # p was the last one
    start = left.pop()
    seen = {start}
    queue = deque([start])
    while queue and left:
        i, j = queue.popleft()
        for di, dj in dirs:
            w = (i + di, j + dj)
            if w in cells and w not in seen:
                seen.add(w)
                left.discard(w)
                queue.append(w)
    return not left


def _creates_pocket(kind, cells, freed, lo, hi, exterior):
    """Flood the complement from a freshly freed cell.

    The complement of the shrinking candidate set only ever grows by the
    freed cell, so any new finite pocket must contain it; escaping the
    bounding frame identifies the exterior.  For the same reason a cell
    once reached from the exterior stays in it: `exterior` keeps every
    cell of an escaping flood, and a flood that meets one has escaped.
    """
    dirs = oracles.DIRS[oracles.kind_name(kind)]
    seen = {freed}
    queue = deque([freed])
    while queue:
        i, j = queue.popleft()
        if not (lo[0] <= i <= hi[0] and lo[1] <= j <= hi[1]) or (i, j) in exterior:
            exterior |= seen
            return False
        for di, dj in dirs:
            w = (i + di, j + dj)
            if w not in cells and w not in seen:
                seen.add(w)
                queue.append(w)
    return True


def _three_schedules(cells, index):
    first_round = tuple(sorted(cells, reverse=True))
    return (
        Schedule(POLICY_ROUND_ROBIN),
        Schedule(POLICY_RANDOM, seed=index),
        Schedule(POLICY_EXPLICIT, orders=(first_round,)),
    )


COUNTERS = (
    "runs",
    "gen_bad",
    "stalls",
    "shape_bad",
    "elected",
    "legal_bad",
    "conn_bad",
    "hole_bad",
    "exist_bad",
    "rounds2n_bad",
    "bound_bad",
    "msg_bad",
    "phase_round_bad",
    "verify_bad",
)


@lru_cache(maxsize=1)
def _certificate(kind, cells):
    """`oracles.round_bound_certificate`, once for a shape's three runs."""
    return oracles.round_bound_certificate(kind, cells)


def _audit_run(kind, cfg, cells, res, stats):
    """Stream one pipeline result into the shared counters.

    On the king grid a retiree must be (8,4)-simple, and the freed cell is
    flooded under 4-adjacency: the 8-connected candidate set is read
    against a 4-connected background, whose pockets stall the election.
    """
    n = len(cells)
    states = res.states
    leader = leader_of(states)
    stalled = leader is None

    # replay the election trace against definition-level checks; the
    # retiree's own contractibility check also witnesses existence for
    # the whole interval before it, since C only changes at transitions
    if kind == GridKind.KING:
        legal, pocket_kind = oracles.king_simple, GridKind.SQUARE
    else:
        legal, pocket_kind = partial(oracles.def1_contractible, kind), kind
    C = set(cells)
    lo = (min(c[0] for c in cells) - 1, min(c[1] for c in cells) - 1)
    hi = (max(c[0] for c in cells) + 1, max(c[1] for c in cells) + 1)
    # the local check holds only while C is connected; while it is split,
    # every retirement is checked over the whole set
    split = not _connected(kind, C)
    exterior = set()
    # elect runs first, so its rounds lead the log; the replay stops at
    # the first round of another phase, before its order is drawn
    orders = res.trace.orders()
    for r in res.trace.log:
        if r.algorithm != "elect":
            break
        order = next(orders)
        for pos, (transition, _) in r.changes.items():
            p = order[pos]
            if transition == "C->N":
                if not legal(C, p):
                    stats["legal_bad"] += 1
                C.discard(p)
                if split or not _still_connected(kind, C, p):
                    split = not _connected(kind, C)
                    if split:
                        stats["conn_bad"] += 1
                if _creates_pocket(pocket_kind, C, p, lo, hi, exterior):
                    stats["hole_bad"] += 1
            elif transition == "C->L":
                if C != {p}:
                    stats["legal_bad"] += 1
    if len(C) > 1:
        if any(legal(C, p) for p in C):
            stats["legal_bad"] += 1  # quiesced while progress was possible
        else:
            stats["exist_bad"] += 1  # stuck with no contractible candidate

    reports = {r.name: r for r in res.reports}
    rounds = reports["elect"].rounds_active
    if rounds >= 2 * n:
        stats["rounds2n_bad"] += 1
    # the paper's bound b_G(r, mtree), certified from two geodesics; a run
    # above the certificate gets the exact bound while that is cheap, and
    # otherwise is named, since it may still be within b_G
    if rounds > _certificate(kind, tuple(cells)):
        if n <= 18:
            r = oracles.radius_to_border(kind, cells)
            mt = oracles.max_tree_height(kind, cells)
            stats["bound_bad"] += rounds > oracles.round_bound(kind, r, mt)
        else:
            stats["bound_bad"] += 1
            stats.setdefault("uncertified", []).append((n, rounds, sorted(cells)))

    if stalled:
        stats["stalls"] += 1
        return
    others = [p for p in cells if p != leader]
    if any(states[p].status != STATUS_NON_CANDIDATE for p in others):
        stats["shape_bad"] += 1
    stats["elected"] += 1

    height = tree_height(kind, states)
    for name in ("tree", "renumber", "ids"):
        if reports[name].messages != n - 1:
            stats["msg_bad"] += 1
    for name in ("renumber", "ids"):  # each particle sends once per child
        if reports[name].sends != n - 1:
            stats["msg_bad"] += 1
    for name in ("renumber", "ids"):
        if reports[name].rounds_active > height:
            stats["phase_round_bad"] += 1
    if verify_run(cfg, 1, states):
        stats["verify_bad"] += 1


@pytest.fixture(scope="session")
def batch():
    """Criterion 1's shared run set: per kind, 200 seeded hole-free blobs
    with n in [1, 200], each under three schedule policies, full
    pipeline, traces recorded and audited on the fly."""
    stats = {kind: dict.fromkeys(COUNTERS, 0) for kind in KINDS}
    t0 = time.time()
    for kind in KINDS:
        rng = random.Random(1000 + len(kind.value))
        for i in range(200):
            n = rng.randint(1, 200)
            cells = sorted(gen_blob(kind, n, rng))
            offsets = random_offsets(kind, cells, rng)
            cfg = make_config(kind, cells, offsets)
            if find_holes(cfg).count or not _connected(kind, set(cells)):
                stats[kind]["gen_bad"] += 1
                continue
            for sched in _three_schedules(cells, i):
                res = run(cfg, PIPELINE_FULL, sched, k=1)
                stats[kind]["runs"] += 1
                _audit_run(kind, cfg, cells, res, stats[kind])
    elapsed = time.time() - t0
    print(f"\n[criterion 1-3 batch: 1800 runs audited in {elapsed:.1f}s]")
    return stats


def _planted_run(kind, cells, retirements):
    """An elect-only result whose log makes one transition per round.

    The states stay initial, so the run counts as a stall and the audit
    stops after the replay and the round check."""
    cfg = make_config(kind, cells)
    order = tuple(sorted(cells))
    log = [
        TraceRound("elect", order, {order.index(p): (transition, 0)})
        for p, transition in retirements
    ]
    trace = RunTrace(log=log, rounds=len(log) + 1)
    report = AlgorithmReport(
        "elect", rounds_active=len(log), rounds_total=len(log) + 1, messages=0,
        sends=0,
    )
    states = {p: start_states(kind)[0] for p in order}
    return cfg, RunResult(states=states, trace=trace, reports=[report])


def test_audit_flags_planted_faults():
    line = [(0, 0), (1, 0), (2, 0)]
    square = [(i, j) for i in range(3) for j in range(3)]
    peel = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1)]
    cases = [
        # retiring the middle of a line splits it; the ends then go legally
        (
            line,
            [((1, 0), "C->N"), ((0, 0), "C->N"), ((2, 0), "C->L")],
            dict(legal_bad=1, conn_bad=1),
        ),
        # retiring the centre of a 3x3 square rings a hole; no ring cell
        # is removable, so cutting the ring at (1,0) is illegal too, and
        # the path that is left peels legally from (0,0)
        (
            square,
            [((1, 1), "C->N"), ((1, 0), "C->N")]
            + [(p, "C->N") for p in peel]
            + [((2, 0), "C->L")],
            dict(legal_bad=2, hole_bad=1),
        ),
        # a leader while another candidate remains
        (line[:2], [((0, 0), "C->L"), ((1, 0), "C->N")], dict(legal_bad=1)),
    ]
    plus = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]
    king_cases = [
        # the centre of a plus passes Definition 1 on the king grid, since
        # its four arms touch diagonally, but it leaves the diamond that
        # rings a pocket of the 4-adjacent background; no arm of the
        # diamond can go after it
        (plus, [((1, 1), "C->N")], dict(legal_bad=1, hole_bad=1, exist_bad=1)),
        # the plus peeled arm by arm is legal, but one retirement per
        # round takes 5 rounds, above b_G(1, 1) = 3
        (
            plus,
            [((0, 1), "C->N"), ((1, 0), "C->N"), ((1, 2), "C->N"),
             ((2, 1), "C->N"), ((1, 1), "C->L")],
            dict(bound_bad=1),
        ),
    ]
    for kind, group in ((GridKind.SQUARE, cases), (GridKind.KING, king_cases)):
        for cells, retirements, flagged in group:
            cfg, res = _planted_run(kind, cells, retirements)
            stats = dict.fromkeys(COUNTERS, 0)
            _audit_run(kind, cfg, cells, res, stats)
            want = dict.fromkeys(COUNTERS, 0) | dict(stalls=1) | flagged
            assert stats == want, (kind, retirements, stats)


def test_criterion_1_leader_uniqueness(batch):
    ok = False
    try:
        for kind in KINDS:
            s = batch[kind]
            assert s["gen_bad"] == 0, f"{kind.value}: generator postcondition"
            assert s["runs"] == 600, f"{kind.value}: batch size"
        summary = {
            kind.value: f"{batch[kind]['stalls']}/{batch[kind]['runs']} stalled"
            for kind in KINDS
        }
        for kind in KINDS:
            s = batch[kind]
            assert s["stalls"] == 0 and s["shape_bad"] == 0, (
                f"leader not unique everywhere: {summary}; stalled king runs "
                "quiesce on diagonal crowns that are hole-free yet have no "
                "contractible candidate"
            )
        ok = True
    finally:
        _verdict(1, ok)


def test_criterion_2_round_bounds(batch):
    ok = False
    try:
        for kind in KINDS:
            s = batch[kind]
            assert s["rounds2n_bad"] == 0, f"{kind.value}: rounds >= 2n"
            assert s["bound_bad"] == 0, (
                f"{kind.value}: {s['bound_bad']} runs above b_G(r, mtree) or, "
                "for n > 18, above its certificate; uncertified (n, rounds, "
                f"shape): {s.get('uncertified', [])}"
            )
        rows = []
        for kind in KINDS:
            rng = random.Random(2000 + len(kind.value))
            for i in range(60):
                n = rng.randint(1, 14)
                cells = sorted(gen_blob(kind, n, rng))
                cfg = make_config(kind, cells, random_offsets(kind, cells, rng))
                r = oracles.radius_to_border(kind, cells)
                mt = oracles.max_tree_height(kind, cells)
                bound = oracles.round_bound(kind, r, mt)
                for sched in _three_schedules(cells, i):
                    res = run(cfg, ("elect",), sched, record=False)
                    rows.append((kind.value, i, res.reports[0].rounds_active, bound))
        # the worked 14-particle example is part of the family
        walk = [
            (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
            (2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (5, 2), (0, 3),
        ]
        r = oracles.radius_to_border("triangular", walk)
        mt = oracles.max_tree_height("triangular", walk)
        res = run(
            make_config("triangular", walk), ("elect",), Schedule(POLICY_ROUND_ROBIN),
            record=False,
        )
        bound = oracles.round_bound("triangular", r, mt)
        rows.append(("triangular", "worked", res.reports[0].rounds_active, bound))
        bad = [row for row in rows if row[2] > row[3]]
        assert not bad, f"round bound exceeded: {bad[:5]}"
        ok = True
    finally:
        _verdict(2, ok)


def test_criterion_3_step_invariants(batch):
    ok = False
    try:
        for kind in KINDS:
            s = batch[kind]
            assert s["legal_bad"] == 0, f"{kind.value}: illegal transition"
            assert s["conn_bad"] == 0, f"{kind.value}: candidate set disconnected"
            assert s["hole_bad"] == 0, f"{kind.value}: contraction opened a hole"
            assert s["exist_bad"] == 0, (
                f"{kind.value}: {s['exist_bad']} runs reached a candidate set "
                "with |C|>1 and no contractible member (hole-free diagonal "
                "crowns; a removable candidate is not guaranteed on this grid)"
            )
        ok = True
    finally:
        _verdict(3, ok)


def test_criterion_4_local_detection_exhaustive():
    ok = False
    try:
        origin = (0, 0)
        for kind in KINDS:
            d = degree(kind)
            table = contractibility_table(kind)
            corner_opts = (
                list(product((False, True), repeat=4))
                if kind == GridKind.SQUARE
                else [None]
            )
            checked = 0
            for mask in range(1 << d):
                ports = frozenset(a for a in range(d) if mask >> a & 1)
                for corners in corner_opts:
                    s = {origin}
                    for a in ports:
                        di, dj = oracles.DIRS[kind.value][a]
                        s.add((di, dj))
                    slots = mask
                    if corners is not None:
                        for c, on in enumerate(corners):
                            if on:
                                s.add(oracles.CORNERS[c])
                                slots |= 1 << (4 + c)
                    want = oracles.def1_contractible(kind, s, origin)
                    got = table[slots]
                    assert got == want, (kind.value, sorted(ports), corners)
                    checked += 1
            assert checked == (1 << d) * len(corner_opts)
        ok = True
    finally:
        _verdict(4, ok)


def test_criterion_5_hole_stall():
    ok = False
    try:
        for kind in KINDS:
            rng = random.Random(3000 + len(kind.value))
            configs = []
            attempts = 0
            while len(configs) < 50 and attempts < 4000:
                attempts += 1
                n = rng.randint(8, 60)
                cells = gen_blob(kind, n, rng, allow_holes=True)
                cfg = make_config(kind, sorted(cells), random_offsets(kind, cells, rng))
                if find_holes(cfg).count >= 1:
                    configs.append(cfg)
            assert len(configs) == 50, f"{kind.value}: holey sampling starved"
            singles_checked = 0
            for cfg in configs:
                res = run(cfg, ("elect",), Schedule(POLICY_ROUND_ROBIN), record=False)
                C = {p for p, s in res.states.items() if s.status == STATUS_CANDIDATE}
                assert leader_of(res.states) is None
                assert len(C) > 1
                assert _connected(kind, C)
                if kind == GridKind.TRIANGULAR and find_holes(cfg).count == 1:
                    singles_checked += 1
                    for p in C:
                        deg = sum(
                            1 for q in oracles.neighborhood(kind, p) if q in C
                        )
                        assert deg == 2, f"residual not a plain cycle at {p}"
            if kind == GridKind.TRIANGULAR:
                assert singles_checked >= 10
        ok = True
    finally:
        _verdict(5, ok)


def test_criterion_6_message_laws(batch):
    ok = False
    try:
        for kind in KINDS:
            s = batch[kind]
            assert s["elected"] > 0, f"{kind.value}: no completed runs to audit"
            assert s["msg_bad"] == 0, f"{kind.value}: phase messages or sends != n-1"
            assert s["phase_round_bad"] == 0, (
                f"{kind.value}: renumber/ids exceeded tree-height rounds"
            )
        ok = True
    finally:
        _verdict(6, ok)


def test_criterion_7_frame_convergence(batch):
    ok = False
    try:
        for kind in KINDS:
            s = batch[kind]
            assert s["elected"] > 0, f"{kind.value}: no completed runs to audit"
            assert s["verify_bad"] == 0, (
                f"{kind.value}: post-run verification flagged offsets or "
                "port reciprocity"
            )
        ok = True
    finally:
        _verdict(7, ok)


def test_criterion_8_identifier_soundness():
    ok = False
    try:
        for kind in KINDS:
            rng = random.Random(4000 + len(kind.value))
            configs = []
            for _ in range(50):
                n = rng.randint(20, 80)
                cells = gen_blob(kind, n, rng)
                configs.append(make_config(kind, cells, random_offsets(kind, cells, rng)))
            for k in range(1, 7):
                limit = color_count(kind, k)
                for cfg in configs:
                    res = run(
                        cfg, PIPELINE_FULL, Schedule(POLICY_ROUND_ROBIN), k=k,
                        record=False,
                    )
                    # leader_of raises on two leaders, so this is exactly one
                    assert leader_of(res.states) is not None, (kind.value, k, cfg.n)
                    groups = {}
                    for p, s in res.states.items():
                        assert s.local_id is not None and 0 <= s.local_id < limit
                        groups.setdefault(s.local_id, []).append(p)
                    for members in groups.values():
                        for a, b in combinations(members, 2):
                            gap = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                            if gap > k:
                                continue  # a step moves each axis by <= 1
                            assert oracles.bfs_distance(kind, a, b) > k, (
                                kind.value, k, a, b,
                            )
        # movement: composed updates equal recomputation at the endpoint
        for kind in KINDS:
            rng = random.Random(4500 + len(kind.value))
            d = degree(kind)
            for _ in range(1000):
                k = rng.randint(1, 6)
                pat = pattern(kind, k)
                offset = rng.randrange(d)
                state = start_states(kind)[offset]._replace(local_id=color_at(pat, 0, 0))
                pos = (0, 0)
                for _ in range(rng.randrange(1, 21)):
                    port = rng.randrange(d)
                    state = update_id_after_move(kind, k, state, port)
                    di, dj = oracles.DIRS[kind.value][(port + offset) % d]
                    pos = (pos[0] + di, pos[1] + dj)
                assert state.local_id == color_at(pat, *pos)
        ok = True
    finally:
        _verdict(8, ok)


def test_criterion_9_coloring_optimality():
    ok = False
    try:
        tops = {GridKind.SQUARE: 12, GridKind.TRIANGULAR: 8, GridKind.KING: 12}

        def chi(kind, k):
            if kind == GridKind.SQUARE:
                return -(-(k + 1) ** 2 // 2)
            if kind == GridKind.KING:
                return (k + 1) ** 2
            return -(-3 * (k + 1) ** 2 // 4)

        for kind, top in tops.items():
            for k in range(1, top + 1):
                pat = pattern(kind, k)
                m = color_count(kind, k)
                assert m == chi(kind, k)
                assert pat.color_count == m
                # a proof from the oracles alone: the basis is spread, the
                # colors of one period are constant along both basis
                # vectors, and the p*q coset representatives get p*q
                # distinct colors, so the pattern is the lattice's coset
                # coloring
                p, q, s = pat.p, pat.q, pat.s
                assert oracles.lattice_spread(kind, p, q, s, k), (kind.value, k)
                used = set()
                for i in range(p):
                    for j in range(q * p // math.gcd(s, p)):
                        c = color_at(pat, i, j)
                        assert color_at(pat, i + p, j) == c == color_at(pat, i + s, j + q)
                        used.add(c)
                reps = {color_at(pat, i, j) for i in range(p) for j in range(q)}
                assert len(reps) == len(used) == m, (kind.value, k)
                # m cells pairwise within k: no coloring uses fewer colors
                assert oracles.clique_lower_bound(kind, k) == m, (kind.value, k)

        # the uncorrected square k=4 multiplier, (i + 4j) mod 13, collides
        # at offset (1,3)
        assert short_vector(GridKind.SQUARE, 4, 13, 1, 9) == (1, 3)
        assert not oracles.lattice_spread(GridKind.SQUARE, 13, 1, 9, 4)
        bad = ColoringPattern(GridKind.SQUARE, 4, p=13, q=1, s=9)
        assert color_at(bad, 0, 0) == color_at(bad, 1, 3)

        assert color_table_text(pattern(GridKind.SQUARE, 3), 4, 8) == (
            "0 1 2 3 4 5 6 7\n"
            "3 4 5 6 7 0 1 2\n"
            "6 7 0 1 2 3 4 5\n"
            "1 2 3 4 5 6 7 0\n"
        )
        assert color_table_text(pattern(GridKind.SQUARE, 4), 2, 13) == (
            "0 1 2 3 4 5 6 7 8 9 10 11 12\n"
            "5 6 7 8 9 10 11 12 0 1 2 3 4\n"
        )

        assert oracles.min_colors_bruteforce(GridKind.KING, 1, (2, 2)) == 4
        assert oracles.min_colors_bruteforce(GridKind.KING, 2, (3, 3)) == 9
        assert oracles.min_colors_bruteforce(GridKind.SQUARE, 1, (3, 3)) == 2
        assert oracles.min_colors_bruteforce(GridKind.TRIANGULAR, 1, (2, 2)) == 3
        ok = True
    finally:
        _verdict(9, ok)


def test_criterion_10_determinism(tmp_path):
    ok = False
    try:
        for kind in KINDS:
            rng = random.Random(17)
            cells = sorted(gen_blob(kind, 24, rng))
            offsets = random_offsets(kind, cells, rng)
            cfg = make_config(kind, cells, offsets)
            twice = [
                run(cfg, PIPELINE_FULL, Schedule(POLICY_RANDOM, seed=3), k=2)
                for _ in range(2)
            ]
            assert twice[0].trace.to_text() == twice[1].trace.to_text()
            assert twice[0].reports == twice[1].reports
            assert twice[0].states == twice[1].states

            path = tmp_path / f"{kind.value}.cfg"
            path.write_text(
                serialize_config(climod.ConfigDoc(config=cfg, k=2, seed=3))
            )
            runner = CliRunner()
            outs = [
                runner.invoke(
                    climod.cli,
                    ["run", str(path), "--schedule", "random", "--seed", "3"],
                )
                for _ in range(2)
            ]
            assert outs[0].output == outs[1].output
            assert outs[0].exit_code == outs[1].exit_code
        ok = True
    finally:
        _verdict(10, ok)

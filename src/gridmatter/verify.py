"""Checks on a finished run: the post-pipeline invariants and the label
of a stalled election."""

from __future__ import annotations

from . import algorithms
from .coloring import color_at, pattern
from .grid import distance
from .particles import ParticleConfig, find_holes


def verify_run(config: ParticleConfig, k: int, states: dict) -> list:
    """Post-pipeline invariants; returns violation strings."""
    violations = []
    kind = config.kind
    leaders = algorithms.leader_cells(states)
    if len(leaders) != 1:
        violations.append(f"leaders={len(leaders)}")
        return violations
    leader = leaders[0]
    stragglers = [
        p
        for p, s in states.items()
        if p != leader and s.status != algorithms.STATUS_NON_CANDIDATE
    ]
    if stragglers:
        violations.append(f"non-retired={len(stragglers)}")

    # tree shape and reciprocity, from each particle's parent cell q and
    # the child port of q that faces it, if q lists one; `back` is the
    # canonical port by which q reaches it.  Then from the other end: each
    # child port that leads to a particle leads to one whose parent is p
    steps = algorithms.port_steps(kind)
    d = len(steps)
    opposite = [r for _, _, r in steps[0]]  # opposite_port, in frame 0
    parent = {}
    for p, s in states.items():
        if s.parent_port is None:
            continue
        di, dj, back = steps[s.frame_offset][s.parent_port]
        q = (p[0] + di, p[1] + dj)
        a = None
        if q in states:
            a = (back - states[q].frame_offset) % d
            if a not in states[q].child_ports:
                a = None
        parent[p] = q, a
    if len(parent) != config.n - 1 or leader in parent:
        violations.append("tree-parent-count")
    try:
        algorithms.tree_height(kind, states)
    except ValueError as exc:
        violations.append(f"tree-span: {exc}")
    for p, (q, a) in parent.items():
        if q not in config.occupied:
            violations.append(f"tree-parent-off-system: {p}")
        elif a is None:
            violations.append(f"tree-reciprocity: {p}<->{q}")
    for p, s in states.items():
        hop = steps[s.frame_offset]
        for a in s.child_ports:
            di, dj, _ = hop[a]
            q = (p[0] + di, p[1] + dj)
            if q in states and parent.get(q, (None,))[0] != p:
                violations.append(f"tree-child: {p}->{q}")

    # frame agreement: every particle took part, offsets are equal, and
    # labels across every tree edge are half-turn images of each other
    want = states[leader].frame_offset
    for p, s in states.items():
        if not s.renumber_done:
            violations.append(f"renumber-missing: {p}")
        if s.frame_offset != want:
            violations.append(f"frame-offset: {p}")
    for p, (q, a) in parent.items():
        if q in states and a != opposite[states[p].parent_port]:
            violations.append(f"port-reciprocity: {p}<->{q}")

    # identifier soundness: each id is the pattern color of the cell's
    # displacement from the leader
    pat = pattern(kind, k)
    ids = {}
    for p, s in states.items():
        if s.local_id is None:
            violations.append(f"unassigned: {p}")
            continue
        ids[p] = s.local_id
        if not 0 <= s.local_id < pat.color_count:
            violations.append(f"id-range: {p}")
        if s.local_id != color_at(pat, p[0] - leader[0], p[1] - leader[1]):
            violations.append(f"id-position: {p}")
    # a pair within distance k is within k on each axis, and q > p holds
    # exactly for the offsets after (0, 0), so each pair is found once,
    # from its least member p; the distance depends on the offset alone
    half = [
        (di, dj)
        for di in range(k + 1)
        for dj in range(-k, k + 1)
        if (di, dj) > (0, 0) and distance(kind, (0, 0), (di, dj)) <= k
    ]
    collisions = []
    for p, mine in ids.items():
        i, j = p
        for di, dj in half:
            q = (i + di, j + dj)
            if ids.get(q) == mine:
                collisions.append((p, q))
    violations += [f"id-collision: {p} {q}" for p, q in sorted(collisions)]
    return violations


def stall_label(config: ParticleConfig) -> str:
    """The report's label for a stalled election: `stalled-by-holes` when
    `find_holes` finds a hole (on the king grid, a pocket of the
    4-adjacent background), else `stalled`."""
    return "stalled-by-holes" if find_holes(config).count else "stalled"

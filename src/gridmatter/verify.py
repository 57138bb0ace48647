"""Checks on a finished run: the post-pipeline invariants, which read
each particle's state once, and the label of a stalled election."""

from __future__ import annotations

from . import algorithms
from .coloring import color_at, pattern
from .grid import distance
from .particles import ParticleConfig, find_holes


def verify_run(config: ParticleConfig, k: int, states: dict) -> list:
    """Post-pipeline invariants; returns violation strings, grouped by
    check, each group in the order of `states`."""
    kind = config.kind
    leaders = algorithms.leader_cells(states)
    if len(leaders) != 1:
        return [f"leaders={len(leaders)}"]
    leader = leaders[0]
    li, lj = leader
    want = states[leader].frame_offset
    steps = algorithms.port_steps(kind)
    d = len(steps)
    opposite = [r for _, _, r in steps[0]]  # opposite_port, in frame 0
    pat = pattern(kind, k)

    # one walk that unpacks each state once; each check appends to its
    # group's list, and the groups are joined in a fixed order after it
    stragglers = links = 0
    parents, children, frames, ports, idents = [], [], [], [], []
    ids = {}
    for p, state in states.items():
        status, parent_port, child_ports, local_id, frame_offset, _, renumber_done = state
        i, j = p
        hop = steps[frame_offset]
        if status != algorithms.STATUS_NON_CANDIDATE and p != leader:
            stragglers += 1
        # tree and port reciprocity: the parent cell q lists as a child
        # port the canonical port `back` by which it reaches p, in q's
        # frame, and that is the half-turn image of p's parent port
        if parent_port is not None:
            links += 1
            di, dj, back = hop[parent_port]
            q = (i + di, j + dj)
            t = states.get(q)
            if t is None:
                parents.append(f"tree-parent-off-system: {p}")
            else:
                a = (back - t.frame_offset) % d
                if a not in t.child_ports:
                    parents.append(f"tree-reciprocity: {p}<->{q}")
                    ports.append(f"port-reciprocity: {p}<->{q}")
                elif a != opposite[parent_port]:
                    ports.append(f"port-reciprocity: {p}<->{q}")
        # each child port that leads to a particle leads to one whose
        # parent port faces p
        for a in child_ports:
            di, dj, back = hop[a]
            q = (i + di, j + dj)
            t = states.get(q)
            if t is not None and t.parent_direction(d) != back:
                children.append(f"tree-child: {p}->{q}")
        # frame agreement: every particle took part, offsets are equal
        if not renumber_done:
            frames.append(f"renumber-missing: {p}")
        if frame_offset != want:
            frames.append(f"frame-offset: {p}")
        # identifier soundness: each id is the pattern color of the
        # cell's displacement from the leader
        if local_id is None:
            idents.append(f"unassigned: {p}")
            continue
        ids[p] = local_id
        if not 0 <= local_id < pat.color_count:
            idents.append(f"id-range: {p}")
        if local_id != color_at(pat, i - li, j - lj):
            idents.append(f"id-position: {p}")

    violations = [f"non-retired={stragglers}"] if stragglers else []
    if links != config.n - 1 or states[leader].parent_port is not None:
        violations.append("tree-parent-count")
    # only a walk from the root finds a cycle of reciprocal parent links
    try:
        algorithms.tree_height(kind, states)
    except ValueError as exc:
        violations.append(f"tree-span: {exc}")
    violations += parents + children + frames + ports + idents

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

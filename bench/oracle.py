"""Output checks for the benchmark, sharing no code with the library.

Run results are read only through the attributes `status`,
`frame_offset` and `local_id` of each particle's final state, and
configurations only as sets of cells, so the checks hold whatever the
library's internals look like.  Distances, floods and borders come from
the test suite's reference oracles (`tests/oracles.py`).  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

from functools import lru_cache

import shapes  # noqa: F401  (puts tests/ on the path)
from oracles import bfs_distance, border_cells, connected, holes

LEADER = "L"


@lru_cache(maxsize=None)
def _ball(grid: str, k: int) -> tuple:
    """Offsets at grid distance 1..k from the origin.  A grid step moves
    each coordinate by at most one, so they lie in the (2k+1)^2 window."""
    window = range(-k, k + 1)
    return tuple(
        (di, dj) for di in window for dj in window
        if (di, dj) != (0, 0) and bfs_distance(grid, (0, 0), (di, dj)) <= k
    )


def check_run(grid: str, k: int, states: dict) -> list:
    """One leader, one frame, and distinct ids within distance k."""
    problems = []
    leaders = [p for p, s in states.items() if s.status == LEADER]
    if len(leaders) != 1:
        return [f"leaders={len(leaders)}"]
    frame = states[leaders[0]].frame_offset
    ids = {}
    for p, s in states.items():
        if s.frame_offset != frame:
            problems.append(f"frame-offset {p}")
        if s.local_id is None:
            problems.append(f"no-id {p}")
        else:
            ids[p] = s.local_id
    near = _ball(grid, k)
    for (i, j), own in ids.items():
        for di, dj in near:
            q = (i + di, j + dj)
            if ids.get(q) == own and (i, j) < q:
                problems.append(f"id-collision {(i, j)} {q}")
    return problems


def check_shape(grid: str, cells) -> list:
    """Connected and free of holes under the grid's own adjacency."""
    problems = []
    if not connected(grid, cells):
        problems.append("not-connected")
    enclosed = sum(len(pocket) for pocket in holes(grid, cells))
    if enclosed:
        problems.append(f"pocket-cells={enclosed}")
    return problems


def check_border(grid: str, cells, edge) -> list:
    """`edge` is the set of cells with a free neighbour outside every pocket."""
    return [] if set(edge) == border_cells(grid, cells) else ["border-differs"]

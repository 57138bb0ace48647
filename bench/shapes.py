"""Seeded input shapes, built without library code.

The benchmark builds every input itself, so a change to the library's
generators or floods cannot change what is measured.  Adjacency and the
pocket flood come from the test suite's reference oracles
(`tests/oracles.py`), which share no code with the library either.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import DIRS, holes  # noqa: E402

GRIDS = ("square", "triangular", "king")

# The grid whose adjacency the background has when pockets of generated
# inputs are filled.  An 8-connected foreground pairs with a 4-connected
# background (Rosenfeld, JACM 1970), so on the king grid pockets of the
# 4-adjacent background are filled: king inputs are then hole-free under
# the 8-adjacent and the 4-adjacent definition alike, and a stall on them
# is a failure.
FILL_GRID = {"square": "square", "triangular": "triangular", "king": "square"}


def pocket_cells(grid: str, cells) -> set:
    """Free cells enclosed by `cells` under the adjacency of `grid`."""
    return set().union(*holes(grid, cells))


def rect(width: int, height: int) -> list:
    return [(i, j) for i in range(width) for j in range(height)]


def blob(grid: str, n: int, rng: random.Random) -> list:
    """Random growth to n cells, then every pocket filled.

    Each step picks a grown cell and one of its grid directions at random.
    Filling can add a few cells, so the result has at least n.
    """
    steps = DIRS[grid]
    cells = [(0, 0)]
    occupied = {(0, 0)}
    while len(cells) < n:
        i, j = cells[rng.randrange(len(cells))]
        di, dj = steps[rng.randrange(len(steps))]
        q = (i + di, j + dj)
        if q not in occupied:
            occupied.add(q)
            cells.append(q)
    occupied |= pocket_cells(FILL_GRID[grid], occupied)
    return sorted(occupied)


def frame_offsets(grid: str, cells, rng: random.Random) -> dict:
    d = len(DIRS[grid])
    return {p: rng.randrange(d) for p in sorted(cells)}


def config_text(grid: str, k: int, seed: int, offsets: dict) -> str:
    lines = [f"grid {grid}", f"k {k}", f"seed {seed}"]
    lines += [f"particle {i} {j} {w}" for (i, j), w in sorted(offsets.items())]
    return "\n".join(lines) + "\n"


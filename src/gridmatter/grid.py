"""Geometry of the three infinite grids.

Vertices are integer pairs (i, j) for all three grids.  The square grid
has the four orthogonal edges, the triangular grid adds one diagonal
family ((i+1, j-1) and (i-1, j+1)), and the king grid adds both.  Every
vertex therefore has degree 4, 6 or 8, and each incident edge is a
numbered port.  Port numbers follow one shared cyclic order; individual
particles may rotate it (their frame offset), which is handled by the
particle layer, not here.

Distances have closed forms: Manhattan on the square grid, Chebyshev on
the king grid, and on the triangular grid Chebyshev when the offsets
have opposite signs (the diagonal helps) and Manhattan when they have
the same sign (it does not).
"""

from __future__ import annotations

from enum import Enum

Coord = tuple[int, int]


class GridKind(str, Enum):
    SQUARE = "square"
    TRIANGULAR = "triangular"
    KING = "king"


# Canonical direction of each port, in cyclic port order.  The tables are
# pinned down by two constraints: ports step through the incident edge
# directions consecutively, and the opposite port of a must point exactly
# backwards (dir(r(a)) = -dir(a)), which makes coordinate bookkeeping
# invertible edge by edge.
_DIRECTIONS: dict[GridKind, tuple[Coord, ...]] = {
    GridKind.SQUARE: ((-1, 0), (0, -1), (1, 0), (0, 1)),
    GridKind.TRIANGULAR: ((-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)),
    GridKind.KING: (
        (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1),
    ),
}


def directions(kind: GridKind) -> tuple[Coord, ...]:
    """Canonical lattice offset of every port, in port order."""
    return _DIRECTIONS[kind]


def degree(kind: GridKind) -> int:
    """Number of ports (incident edges) of every vertex of the grid."""
    return len(_DIRECTIONS[kind])


def neighbors(kind: GridKind, at: Coord) -> list[Coord]:
    """All grid neighbors of `at`, listed in cyclic port order."""
    i, j = at
    return [(i + di, j + dj) for di, dj in _DIRECTIONS[kind]]


def distance(kind: GridKind, a: Coord, b: Coord) -> int:
    """Shortest-path length between two vertices of the infinite grid."""
    di = abs(a[0] - b[0])
    dj = abs(a[1] - b[1])
    if kind == GridKind.SQUARE:
        return di + dj
    if kind == GridKind.KING:
        return max(di, dj)
    # Triangular: the diagonal only connects offsets of opposite signs.
    si = a[0] - b[0]
    sj = a[1] - b[1]
    if si * sj <= 0:
        return max(di, dj)
    return di + dj


def opposite_port(kind: GridKind, a: int) -> int:
    """r_G(a), the port of the reverse edge: a half turn of the port cycle.

    Half the degree is the only shift that negates every entry of the
    direction tables, so r is (a+2) mod 4, (a+3) mod 6 and (a+4) mod 8
    for the square, triangular and king grids respectively.
    """
    d = degree(kind)
    if not 0 <= a < d:
        raise ValueError(f"port {a} out of range for {GridKind(kind).value} grid")
    return (a + d // 2) % d


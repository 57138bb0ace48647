"""Optimal colorings of the k-th powers of the grids.

A k-local identifier scheme is exactly a coloring of the k-th graph
power: vertices sharing a color must be at grid distance greater than k.
The optimal color counts are ceil((k+1)^2/2) for the square grid,
ceil(3(k+1)^2/4) for the triangular grid and (k+1)^2 for the king grid.

Every pattern is the coset coloring of one integer lattice, spanned by
(p, 0) and (s, q): two cells share a color exactly when their difference
is a lattice vector, so a lattice with no nonzero vector within
distance k is a valid coloring with p*q colors.  Each (grid, k) takes
its basis from a closed form (see `pattern`).  The square one is the
(i + t*j) mod m coloring with t = k for odd k and t = k+1 for even k
(Fertin, Godard & Raspaud, IPL 87, 2003; t = k fails for even k, e.g.
the offset (1,3) collides at k=4).  The king one is the (k+1)x(k+1)
blocks.  The triangular ones are the k=1 lattice scaled by (k+1)/2 for
odd k and a linear (i + t*j) mod m form for even k.

A pattern is held as one period of its color table, which `color_at`,
`verify_coloring` and `color_table_text` read.  Each returned pattern is
certified at construction time by `verify_coloring`, a brute-force scan
of one period against every offset within distance k.

Since each coset has one color, a cell's color fixes the color of each
of its neighbours; `color_steps` tabulates that, so a particle can take
its id from a neighbour's without knowing where it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import eq
from typing import Optional

from .grid import Coord, GridKind, directions, distance


def color_count(kind: GridKind, k: int) -> int:
    """Chromatic number of the k-th power of the grid."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if kind == GridKind.SQUARE:
        return math.ceil((k + 1) ** 2 / 2)
    if kind == GridKind.TRIANGULAR:
        return math.ceil(3 * (k + 1) ** 2 / 4)
    return (k + 1) ** 2


@dataclass(frozen=True)
class ColoringPattern:
    """Coset coloring of the lattice spanned by (p, 0) and (s, q).

    The color of (i, j) is ir + p*jr: subtracting (j div q) times the
    lattice vector (s, q) moves (i, j) to row jr = j mod q, and ir is
    the column it lands on, mod p.  So there are p*q colors, and the
    pattern repeats every p along i and every q*p/gcd(s, p) along j.
    `rows[j][i]` holds one such period; every color is read from it.
    """

    kind: GridKind
    k: int
    p: int
    q: int
    s: int
    color_count: int = field(init=False)
    period_i: int = field(init=False)
    period_j: int = field(init=False)
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, q, s = self.p, self.q, self.s
        period_j = q * p // math.gcd(s, p)
        put = object.__setattr__
        put(self, "color_count", p * q)
        put(self, "period_i", p)
        put(self, "period_j", period_j)
        put(self, "rows", tuple(
            tuple((i - j // q * s) % p + p * (j % q) for i in range(p))
            for j in range(period_j)
        ))


def color_at(pattern: ColoringPattern, i: int, j: int) -> int:
    return pattern.rows[j % pattern.period_j][i % pattern.period_i]


@lru_cache(maxsize=None)
def color_steps(kind: GridKind, k: int) -> tuple[tuple[int, ...], ...]:
    """Per color c, per canonical direction a: the color of the cell one
    step along a from any cell of color c.

    Well defined because the colors are the cosets of a lattice, and the
    step is a translation; (c mod p, c div p) is a cell of color c.
    """
    pat = pattern(kind, k)
    dirs = directions(kind)
    return tuple(
        tuple(color_at(pat, c % pat.p + di, c // pat.p + dj) for di, dj in dirs)
        for c in range(pat.color_count)
    )


# ---------------------------------------------------------------------------
# Pattern construction


def _basis(kind: GridKind, k: int) -> tuple[int, int, int]:
    """(p, q, s) of the lattice whose cosets color the k-th power."""
    m = color_count(kind, k)
    if kind == GridKind.SQUARE:
        t = k if k % 2 else k + 1
        return m, 1, -t % m
    if kind == GridKind.KING:
        return k + 1, k + 1, 0
    if k % 2:
        h = (k + 1) // 2
        return 3 * h, h, h
    return m, 1, (3 * k // 2 + 1) % m


# Certified construction ranges; the verification scan grows like k^4
# beyond these, so larger k is refused rather than left to crawl.
SUPPORTED_K = {
    GridKind.SQUARE: 12,
    GridKind.TRIANGULAR: 8,
    GridKind.KING: 12,
}


@lru_cache(maxsize=None)
def pattern(kind: GridKind, k: int) -> ColoringPattern:
    """The optimal pattern for (kind, k), certified by `verify_coloring`.

    The lattice basis (p, q, s) is closed-form, with m = color_count:
    - square: (m, 1, -t mod m), t = k for odd k and k+1 for even k,
      which is (i + t*j) mod m;
    - king: (k+1, k+1, 0), the (k+1)x(k+1) blocks;
    - triangular, odd k: (3h, h, h) with h = (k+1)/2, the k=1 lattice
      scaled by h;
    - triangular, even k: (m, 1, (3k/2 + 1) mod m).
    A pattern that fails the scan is refused with LookupError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    kind = GridKind(kind)
    if k > SUPPORTED_K[kind]:
        raise LookupError(
            f"no certified pattern for {kind.value} k={k} "
            f"(supported up to {SUPPORTED_K[kind]})"
        )
    cand = ColoringPattern(kind, k, *_basis(kind, k))
    if verify_coloring(cand) is not None:
        raise LookupError(f"no oracle-valid optimal pattern for {kind.value} k={k}")
    return cand


def verify_coloring(
    p: ColoringPattern,
) -> Optional[tuple[tuple[Coord, Coord], int]]:
    """Brute-force validity scan of one period against every offset.

    Returns None when no cell (x, y) of one period shares its color with
    a distinct cell (x + di, y + dj) at distance <= k, which by
    periodicity covers every pair; otherwise one offending pair and its
    color: the first found scanning offsets (di, dj) in lexicographic
    order, then cells (x, y) in lexicographic order.  This is the oracle
    every constructed pattern must pass.
    """
    k, pi, pj = p.k, p.period_i, p.period_j
    # column x twice over, so (x, y + dj) for 0 <= y < pj is the slice
    # from dj mod pj; map and zip stop at that slice's end
    cols = [[row[x] for row in p.rows] * 2 for x in range(pi)]
    for di in range(0, k + 1):
        for dj in range(-k, k + 1):
            if di == 0 and dj <= 0:
                continue
            if distance(p.kind, (0, 0), (di, dj)) > k:
                continue
            lo = dj % pj
            for x in range(pi):
                a = cols[x]
                b = cols[(x + di) % pi][lo:lo + pj]
                if not any(map(eq, a, b)):
                    continue
                y = next(y for y, (c1, c2) in enumerate(zip(a, b)) if c1 == c2)
                return ((x, y), (x + di, y + dj)), a[y]
    return None


def color_table_text(p: ColoringPattern, rows: int, cols: int) -> str:
    """Rows of space-separated colors, row j first, column i across."""
    lines = []
    for j in range(rows):
        lines.append(" ".join(str(color_at(p, i, j)) for i in range(cols)))
    return "\n".join(lines) + "\n"

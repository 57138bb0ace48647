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

A pattern is its basis: `color_at` computes a cell's coset from
(p, q, s) in one line of arithmetic.  Each returned pattern is certified
at construction time by `short_vector`: no nonzero lattice vector lies
within distance k, checked over the few candidates per row.

Since each coset has one color, a cell's color fixes the color of each
of its neighbours; `color_steps` tabulates that, so a particle can take
its id from a neighbour's without knowing where it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    """

    kind: GridKind
    k: int
    p: int
    q: int
    s: int

    @property
    def color_count(self) -> int:
        return self.p * self.q


def color_at(pattern: ColoringPattern, i: int, j: int) -> int:
    p, q = pattern.p, pattern.q
    return (i - j // q * pattern.s) % p + p * (j % q)


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


# The k the CLI accepts per grid: tier-1 pins every pattern up to here
# (`GOLDEN_PATTERNS` and acceptance criterion 9), none beyond.
SUPPORTED_K = {
    GridKind.SQUARE: 12,
    GridKind.TRIANGULAR: 8,
    GridKind.KING: 12,
}


def short_vector(kind: GridKind, k: int, p: int, q: int, s: int) -> Optional[Coord]:
    """The first nonzero vector a*(p, 0) + b*(s, q) within distance k, or None.

    None certifies the lattice's cosets as a coloring of the k-th power:
    two cells share a coset exactly when their difference is a lattice
    vector.  Of v and -v only the one in rows b = 0 .. k div q is tried,
    with i > 0 on row 0; in row b the candidates are the i in [-k, k]
    congruent to b*s mod p.
    """
    for b in range(k // q + 1):
        for i in range(-k + (b * s + k) % p, k + 1, p):
            if (b or i > 0) and distance(kind, (0, 0), (i, b * q)) <= k:
                return i, b * q
    return None


@lru_cache(maxsize=None)
def pattern(kind: GridKind, k: int) -> ColoringPattern:
    """The optimal pattern for (kind, k), certified by `short_vector`.

    The lattice basis (p, q, s) is closed-form, with m = color_count:
    - square: (m, 1, -t mod m), t = k for odd k and k+1 for even k,
      which is (i + t*j) mod m;
    - king: (k+1, k+1, 0), the (k+1)x(k+1) blocks;
    - triangular, odd k: (3h, h, h) with h = (k+1)/2, the k=1 lattice
      scaled by h;
    - triangular, even k: (m, 1, (3k/2 + 1) mod m).
    A basis with a short vector is refused with LookupError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    kind = GridKind(kind)
    cand = ColoringPattern(kind, k, *_basis(kind, k))
    if short_vector(kind, k, cand.p, cand.q, cand.s) is not None:
        raise LookupError(f"no oracle-valid optimal pattern for {kind.value} k={k}")
    return cand


def color_table_text(p: ColoringPattern, rows: int, cols: int) -> str:
    """Rows of space-separated colors, row j first, column i across."""
    lines = []
    for j in range(rows):
        lines.append(" ".join(str(color_at(p, i, j)) for i in range(cols)))
    return "\n".join(lines) + "\n"

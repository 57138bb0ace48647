"""Optimal colorings of the k-th powers of the grids.

A k-local identifier scheme is exactly a coloring of the k-th graph
power: vertices sharing a color must be at grid distance greater than k.
The optimal color counts are ceil((k+1)^2/2) for the square grid,
ceil(3(k+1)^2/4) for the triangular grid and (k+1)^2 for the king grid.

Every pattern is doubly periodic and is held as its period table:
its scheme (linear, stacked strips or lattice cosets) fills one period
once, and `color_at`, `verify_coloring` and `color_table_text` read only
that table.  Each returned pattern is certified at construction time by
`verify_coloring`, a brute-force scan of one period against every
offset within distance k.  The square family is linear, (i + t*j) mod m
with t = k for odd k and t = k+1 for even k (the t = k choice fails for
even k, e.g. the offset (1,3) collides at k=4, while t = k+1 passes the
scan for every supported k).  The king pattern tiles (k+1)x(k+1)
blocks, the cosets of the lattice spanned by (k+1, 0) and (0, k+1).
Triangular patterns are found by a deterministic search: the stacked-strip form for
odd k and the linear form for even k, each also tried with the j axis
mirrored, and finally cosets of integer sublattices of determinant
m'_k whose nonzero vectors all have triangular norm above k.  The
mirrored and lattice fallbacks matter because the plain forms collide
across the (i+1, j-1) diagonal for most k.

Coordinates that feed a pattern never need to be exact: reducing them
modulo the tracking modulus (m_k, m'_k, or k+1 per grid) preserves the
color, since each modulus is a multiple of both pattern periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import eq
from typing import Optional, Union

from .grid import Coord, GridKind, distance, port_direction


def color_count(kind: GridKind, k: int) -> int:
    """Chromatic number of the k-th power of the grid."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if kind == GridKind.SQUARE:
        return math.ceil((k + 1) ** 2 / 2)
    if kind == GridKind.TRIANGULAR:
        return math.ceil(3 * (k + 1) ** 2 / 4)
    return (k + 1) ** 2


def tracking_modulus(kind: GridKind, k: int) -> int:
    """Modulus at which particles track their pattern coordinates."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if kind == GridKind.KING:
        return k + 1
    return color_count(kind, k)


@dataclass(frozen=True)
class LinearScheme:
    """(i + multiplier*j) mod modulus."""

    multiplier: int
    modulus: int

    def color(self, i: int, j: int) -> int:
        return (i + self.multiplier * j) % self.modulus


@dataclass(frozen=True)
class BlockScheme:
    """Odd-k triangular stacked strips, optionally with the j axis mirrored."""

    k: int
    mirrored: bool = False

    def color(self, i: int, j: int) -> int:
        k = self.k
        if self.mirrored:
            j = -j
        strip = 3 * (k + 1) // 2
        m = color_count(GridKind.TRIANGULAR, k)
        return (i % strip + j * strip + (2 * j // (k + 1)) * ((k + 1) // 2)) % m


@dataclass(frozen=True)
class CosetScheme:
    """Index of (i, j) among the cosets of the lattice spanned by (p,0), (s,q)."""

    p: int
    q: int
    s: int

    def color(self, i: int, j: int) -> int:
        jr = j % self.q
        ir = (i - ((j - jr) // self.q) * self.s) % self.p
        return ir + self.p * jr


Scheme = Union[LinearScheme, BlockScheme, CosetScheme]


@dataclass(frozen=True)
class ColoringPattern:
    """A doubly periodic coloring and its period table.

    The scheme only fills `rows[j][i]` for one period, 0 <= i < period_i
    and 0 <= j < period_j; every color is read from that table.
    """

    kind: GridKind
    k: int
    color_count: int
    scheme: Scheme
    period_i: int
    period_j: int
    label: str
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        color = self.scheme.color
        rows = tuple(
            tuple(color(i, j) for i in range(self.period_i))
            for j in range(self.period_j)
        )
        object.__setattr__(self, "rows", rows)


def color_at(pattern: ColoringPattern, i: int, j: int) -> int:
    return pattern.rows[j % pattern.period_j][i % pattern.period_i]


def coord_update_receive(
    kind: GridKind, k: int, coords: Coord, a: int
) -> Coord:
    """Receiver's tracked coordinates, given the sender's and the port of receipt.

    The receiving port a points back at the sender, so the receiver sits
    one step against that direction; both axes reduce modulo the
    tracking modulus.
    """
    di, dj = port_direction(kind, a)
    m = tracking_modulus(kind, k)
    i, j = coords
    return (i - di) % m, (j - dj) % m


# ---------------------------------------------------------------------------
# Pattern construction


def _lattice_is_spread(p: int, q: int, s: int, k: int) -> bool:
    """No nonzero lattice vector a(p,0) + b(s,q) has triangular norm <= k."""
    for b in range(0, k // q + 1):
        j = b * q
        base = b * s % p
        lo = -((k + base) // p)
        hi = (k - base) // p
        for t in range(lo, hi + 1):
            i = base + t * p
            if b == 0 and i <= 0:
                continue
            if distance(GridKind.TRIANGULAR, (0, 0), (i, j)) <= k:
                return False
    return True


def _candidate_patterns(kind: GridKind, k: int):
    m = color_count(kind, k)
    if kind == GridKind.SQUARE:
        t = k if k % 2 else k + 1
        yield ColoringPattern(
            kind, k, m, LinearScheme(t % m, m), m, m, f"linear t={t % m} mod {m}"
        )
        return
    if kind == GridKind.KING:
        side = k + 1
        yield ColoringPattern(
            kind, k, m, CosetScheme(side, side, 0), side, side, f"{side}x{side} blocks"
        )
        return
    # Triangular: plain form, mirrored form, then lattice cosets.
    if k % 2:
        strip = 3 * (k + 1) // 2
        for mirrored in (False, True):
            name = "stacked strips" + (", mirrored" if mirrored else "")
            yield ColoringPattern(
                kind, k, m, BlockScheme(k, mirrored), strip, m, name
            )
    else:
        t = 3 * k // 2 + 1
        for mult in (t % m, -t % m):
            yield ColoringPattern(
                kind, k, m, LinearScheme(mult, m), m, m, f"linear t={mult} mod {m}"
            )
    for q in range(1, m + 1):
        if m % q:
            continue
        p = m // q
        for s in range(p):
            if _lattice_is_spread(p, q, s, k):
                period_j = q * (p // math.gcd(s, p)) if s else q
                yield ColoringPattern(
                    kind, k, m, CosetScheme(p, q, s), p, period_j,
                    f"coset table p={p} q={q} s={s}",
                )


# Certified construction ranges; the verification scan grows like k^4
# beyond these, so larger k is refused rather than left to crawl.
SUPPORTED_K = {
    GridKind.SQUARE: 12,
    GridKind.TRIANGULAR: 8,
    GridKind.KING: 12,
}


@lru_cache(maxsize=None)
def pattern(kind: GridKind, k: int) -> ColoringPattern:
    """First oracle-valid pattern with exactly color_count colors.

    The candidate order is deterministic, so the same (kind, k) always
    yields the same pattern.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    kind = GridKind(kind)
    if k > SUPPORTED_K[kind]:
        raise LookupError(
            f"no certified pattern for {kind.value} k={k} "
            f"(supported up to {SUPPORTED_K[kind]})"
        )
    m = color_count(kind, k)
    for cand in _candidate_patterns(kind, k):
        if _colors_used(cand) != m:
            continue
        if verify_coloring(cand) is None:
            return cand
    raise LookupError(
        f"no oracle-valid optimal pattern found for {kind.value} k={k}"
    )


def _colors_used(p: ColoringPattern) -> int:
    return len({c for row in p.rows for c in row})


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


def min_colors_bruteforce(kind: GridKind, k: int, window: tuple[int, int]) -> int:
    """Exact chromatic number of the k-th power restricted to a window.

    Exhaustive search, so the window is capped at 5x5 cells and k at 2.
    Useful only as a desk-scale lower-bound check on color_count.
    """
    wi, wj = window
    if wi < 1 or wj < 1 or wi * wj > 25 or k > 2 or k < 1:
        raise ValueError("brute force limited to windows up to 5x5 and k <= 2")
    cells = [(i, j) for i in range(wi) for j in range(wj)]
    n = len(cells)
    adj = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if distance(kind, cells[x], cells[y]) <= k:
                adj[x].add(y)
                adj[y].add(x)
    # color vertices in decreasing-degree order so dense spots fail fast
    order = sorted(range(n), key=lambda v: -len(adj[v]))

    def colorable(limit: int) -> bool:
        assigned: dict[int, int] = {}

        def place(idx: int) -> bool:
            if idx == n:
                return True
            v = order[idx]
            used = {assigned[u] for u in adj[v] if u in assigned}
            # symmetry break: allow at most one brand-new color
            fresh = min(set(range(limit)) - set(assigned.values()), default=None)
            for c in range(limit):
                if c in used:
                    continue
                if fresh is not None and c > fresh:
                    break
                assigned[v] = c
                if place(idx + 1):
                    return True
                del assigned[v]
            return False

        return place(0)

    for limit in range(1, n + 1):
        if colorable(limit):
            return limit
    raise AssertionError("unreachable")


def color_table_text(p: ColoringPattern, rows: int, cols: int) -> str:
    """Rows of space-separated colors, row j first, column i across."""
    lines = []
    for j in range(rows):
        lines.append(" ".join(str(color_at(p, i, j)) for i in range(cols)))
    return "\n".join(lines) + "\n"

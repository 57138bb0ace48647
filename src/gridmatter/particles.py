"""The particle graph: occupancy, holes, borders and contractibility.

A configuration is a finite connected set of occupied vertices of one
grid, together with a port-frame rotation per particle.  This module is
purely structural; protocol state lives in `algorithms`.

The central predicate is S-contractibility (for S a subset of the
particles): p is S-contractible when the extended neighborhood of p
restricted to S induces a connected subgraph and p still has a free
neighbor slot.  Removing such a particle from S keeps S connected and
hole-free, which is what the election algorithm leans on.  Its port-local
form is one table: `contractibility_table` applies the definition-level
test to every slot mask, which says which neighbor (and, on the square
grid, corner) slots are in S.  The election and the blob generator use
`removal_table`: on every grid a particle may leave when Definition 1
holds and its removal opens no hole by `find_holes`, which on the king
grid also refuses a particle whose four orthogonal neighbors all stay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional

from .grid import Coord, GridKind, degree, directions, neighbors

# Corner a of a square-grid particle sits between ports a and a+1.
CORNER_DIRECTIONS: tuple[Coord, ...] = ((-1, -1), (1, -1), (1, 1), (-1, 1))


@dataclass(frozen=True)
class ParticleConfig:
    """A particle graph: grid kind, occupied vertices, frame rotations.

    frame_offsets maps each occupied vertex to the rotation of its local
    port labels against the canonical frame: local port a points in
    canonical direction (a + offset) mod degree.
    """

    kind: GridKind
    occupied: frozenset[Coord]
    frame_offsets: Mapping[Coord, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.occupied)

    def particles(self) -> list[Coord]:
        """Occupied vertices in a fixed deterministic order."""
        return sorted(self.occupied)

    def offset(self, p: Coord) -> int:
        return self.frame_offsets.get(p, 0)

    @cached_property
    def key_width(self) -> int:
        """`key_width` of the occupied vertices, computed once: the width
        of the int cell keys the engine and the protocols share."""
        return key_width(self.occupied)


def make_config(
    kind: GridKind,
    occupied: Iterable[Coord],
    frame_offsets: Optional[Mapping[Coord, int]] = None,
) -> ParticleConfig:
    occ = frozenset((int(i), int(j)) for i, j in occupied)
    offsets = {p: 0 for p in occ}
    if frame_offsets:
        for p, w in frame_offsets.items():
            offsets[(int(p[0]), int(p[1]))] = int(w)
    return ParticleConfig(kind=GridKind(kind), occupied=occ, frame_offsets=offsets)


def validate_config(config: ParticleConfig) -> list[str]:
    """Check the configuration invariants; an empty list means valid."""
    problems: list[str] = []
    occ = config.occupied
    if not occ:
        return ["configuration has no particles"]
    extra = config.frame_offsets.keys() - occ
    if extra:
        problems.append(f"frame offsets given for unoccupied vertices: {sorted(extra)}")
    # a particle without an offset reads 0, which is in range, so only
    # the listed offsets are checked, and only the offenders sorted
    d = degree(config.kind)
    bad = [
        (p, w) for p, w in config.frame_offsets.items() if not 0 <= w < d and p in occ
    ]
    for p, w in sorted(bad):
        problems.append(f"frame offset {w} at {p} outside [0,{d})")
    if not _is_connected(config.kind, occ):
        problems.append("occupied set is not connected")
    return problems


def key_width(cells: Iterable[Coord]) -> int:
    """w for the int cell keys i * w + j: two more than the span of the
    cells' j values, so a step (di, dj) adds di * w + dj.  Two cells
    within one step of `cells` share a key only at j one below the least
    and one above the greatest, neither of them in `cells`: so a key
    read at p + di * w + dj finds a cell of `cells` only at (di, dj)."""
    js = [j for _, j in cells]
    return max(js) - min(js) + 2


def _is_connected(kind: GridKind, cells: frozenset[Coord] | set[Coord]) -> bool:
    """A search over the int keys of the cells (`key_width`), never
    empty.  It pops the keys it reaches from a set of them: memory
    O(len(cells)) however far apart the cells lie."""
    w = key_width(cells)
    todo = {i * w + j for i, j in cells}
    offsets = [di * w + dj for di, dj in directions(kind)]
    stack = [todo.pop()]
    while stack and todo:
        u = stack.pop()
        for o in offsets:
            v = u + o
            if v in todo:
                todo.remove(v)
                stack.append(v)
    return not todo


# ---------------------------------------------------------------------------
# Holes and border


@dataclass(frozen=True)
class HoleReport:
    """Finite unoccupied pockets of a configuration, by least cell.  On
    the king grid an 8-connected set bounds a 4-connected background
    (Rosenfeld 1970): a hole is a pocket under the orthogonal steps."""

    holes: tuple[frozenset[Coord], ...]

    @property
    def count(self) -> int:
        return len(self.holes)


_WALL, _EXTERIOR, _HOLE = 2, 3, 4  # raster marks; 0 is free, 1 occupied


def _flood(config: ParticleConfig, with_border: bool) -> tuple[HoleReport, set[Coord]]:
    """One flood of the free cells of the bounding box grown by one.

    The cells are the bytes of a row-major raster of the box grown by
    two, whose outer ring is a wall: cell (i, j) at key (i - i0) * w +
    j - j0, a step (di, dj) adds di * w + dj.  The walk from the box's
    least cell, on the free ring around the particles, marks the
    exterior, on the king grid by orthogonal steps alone.  The cells
    left free are the holes, and `bytearray.find` meets each first at
    its least cell, so they come out sorted by it.  The border, if asked
    for, is the particles with an exterior neighbour.
    """
    occ = config.occupied
    is_ = [p[0] for p in occ]
    js = [p[1] for p in occ]
    i0, j0 = min(is_) - 2, min(js) - 2
    w = max(js) - j0 + 3
    h = max(is_) - i0 + 3
    grid = bytearray(h * w)
    grid[:w] = grid[-w:] = bytes([_WALL]) * w
    grid[::w] = grid[w - 1 :: w] = bytes([_WALL]) * h
    keys = [(i - i0) * w + j - j0 for i, j in occ]
    for k in keys:
        grid[k] = 1
    offsets = [di * w + dj for di, dj in directions(config.kind)]
    steps = offsets[::2] if config.kind == GridKind.KING else offsets

    def fill(start: int, mark: int):
        """Mark the free component of `start`, yielding its cells; only
        the frontier is held, however large the exterior."""
        grid[start] = mark
        queue = deque([start])
        while queue:
            u = queue.popleft()
            yield u
            for o in steps:
                v = u + o
                if not grid[v]:
                    grid[v] = mark
                    queue.append(v)

    deque(fill(w + 1, _EXTERIOR), maxlen=0)  # walked to its end, kept nowhere
    holes = []
    at = grid.find(0)
    while at >= 0:
        holes.append(frozenset((k // w + i0, k % w + j0) for k in fill(at, _HOLE)))
        at = grid.find(0, at)
    edge = set()
    if with_border:
        for p, k in zip(occ, keys):
            for o in offsets:
                if grid[k + o] == _EXTERIOR:
                    edge.add(p)
                    break
    return HoleReport(holes=tuple(holes)), edge


def find_holes(config: ParticleConfig) -> HoleReport:
    return _flood(config, with_border=False)[0]


def border(config: ParticleConfig) -> set[Coord]:
    """Particles with at least one unoccupied neighbor on the exterior.

    A particle whose only free neighbors lie inside holes does not
    qualify; it is interior as far as the outside world can tell.  On
    the king grid all eight neighbors count (`HoleReport`).
    """
    return _flood(config, with_border=True)[1]


def holes_and_border(config: ParticleConfig) -> tuple[HoleReport, set[Coord]]:
    """`find_holes` and `border` from one flood of the exterior."""
    return _flood(config, with_border=True)


# ---------------------------------------------------------------------------
# S-contractibility


def _window_contractible(kind: GridKind, p: Coord, s_set: set[Coord]) -> bool:
    """Definition 1 at p: G[M(p) ∩ S] connected, and a free neighbor slot left."""
    if all(c in s_set for c in neighbors(kind, p)):
        return False
    cells = {c for _, c in slot_cells(kind, p) if c in s_set}
    return not cells or _is_connected(kind, cells)


def slot_cells(kind: GridKind, p: Coord) -> list[tuple[int, Coord]]:
    """The cell behind each bit of p's slot mask, as (bit, cell) pairs.

    Bit a is port a and, on the square grid, bit 4+a is corner a: the
    indexing of `contractibility_table` and `removal_table`.
    """
    i, j = p
    cells = [(1 << a, (i + di, j + dj)) for a, (di, dj) in enumerate(directions(kind))]
    if kind == GridKind.SQUARE:
        cells += [
            (1 << (4 + a), (i + di, j + dj))
            for a, (di, dj) in enumerate(CORNER_DIRECTIONS)
        ]
    return cells


@lru_cache(maxsize=None)
def contractibility_table(kind: GridKind) -> tuple[bool, ...]:
    """Definition 1 over every slot bitmask, for the election's hot path.

    Entry `mask` is `_window_contractible` at the origin for S the origin
    plus the slot cells whose bits are set in `mask`.
    """
    slots = slot_cells(kind, (0, 0))
    return tuple(
        _window_contractible(kind, (0, 0), {c for bit, c in slots if mask & bit})
        for mask in range(1 << len(slots))
    )


@lru_cache(maxsize=None)
def removal_table(kind: GridKind) -> tuple[bool, ...]:
    """Which slot bitmasks let a particle leave the set without changing its topology.

    Indexed like `contractibility_table`: Definition 1 holds, and the
    slot cells left behind enclose no hole by `find_holes`.  Definition 1
    implies the second test on the square and triangular grids; on the
    king grid, where a hole is a pocket of the 4-adjacent background, it
    refuses exactly a particle whose four orthogonal neighbors all stay.
    The move is its own reverse: on every grid a free cell whose mask
    reads True joins the set without changing its topology, which is how
    `gen_blob` grows.
    """
    slots = slot_cells(kind, (0, 0))

    def opens_no_hole(mask: int) -> bool:
        cells = frozenset(c for bit, c in slots if mask & bit)
        return not cells or not find_holes(ParticleConfig(kind, cells)).count

    table = contractibility_table(kind)
    return tuple(ok and opens_no_hole(mask) for mask, ok in enumerate(table))


# ---------------------------------------------------------------------------
# Structural metrics of the round bound


def _distances_within(config: ParticleConfig, source: Coord) -> dict[Coord, int]:
    occ = config.occupied
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbors(config.kind, u):
            if v in occ and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def radius(config: ParticleConfig) -> int:
    """r(P): min over particles of the max intra-P distance to the border."""
    report, b = holes_and_border(config)
    if report.count:
        raise ValueError("radius is defined for hole-free configurations")
    dists = (_distances_within(config, u) for u in config.particles())
    return min(max(dist[v] for v in b) for dist in dists)


def mtree(config: ParticleConfig, limit: int = 18) -> int:
    """Maximum height over induced subgraphs of P that are trees.

    It is ceil(L/2) for L the length of the longest induced path of P.  A
    tree's best-root height is ceil(diameter/2) (Jordan's centre theorem),
    and its diameter path is an induced path of P, since an induced tree
    has no chords; and an induced path of length L is itself an induced
    tree of height ceil(L/2).

    The search extends induced paths depth-first, with an explicit stack:
    a path grows by a cell q only when q's single neighbour on the path is
    its last cell.  It is exponential in the worst case, so only for small
    instances; this is a proof-side quantity used to check the round
    bound, not anything a particle computes.
    """
    cells = config.particles()
    n = len(cells)
    if n > limit:
        raise ValueError(f"mtree is exhaustive; {n} particles exceeds limit {limit}")
    index = {c: i for i, c in enumerate(cells)}
    adj = [[index[v] for v in neighbors(config.kind, c) if v in index] for c in cells]
    adj_mask = [sum(1 << v for v in vs) for vs in adj]

    longest = 0
    for start in range(n):
        # (last cell, cells on the path as a bitmask, edges)
        stack = [(start, 1 << start, 0)]
        while stack:
            last, path, length = stack.pop()
            longest = max(longest, length)
            for q in adj[last]:
                if adj_mask[q] & path == 1 << last and not path >> q & 1:
                    stack.append((q, path | 1 << q, length + 1))
    return (longest + 1) // 2


def round_bound(kind: GridKind, r: int, mt: int) -> int:
    """b_G: upper bound on election rounds for a hole-free configuration
    of radius r = `radius` and mtree mt = `mtree`."""
    if kind == GridKind.SQUARE:
        return 2 * (r + mt) + 2
    return r + mt + 1

import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmatter.grid import GridKind, degree, neighbors
from gridmatter.particles import (
    CORNER_DIRECTIONS,
    ParticleConfig,
    border,
    contractibility_table,
    find_holes,
    holes_and_border,
    make_config,
    mtree,
    radius,
    removal_table,
    round_bound,
    slot_cells,
    validate_config,
)
from gridmatter.shapes import gen_blob

import oracles

KINDS = [GridKind.SQUARE, GridKind.TRIANGULAR, GridKind.KING]

RING = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
BLOCK3 = [(i, j) for i in range(3) for j in range(3)]
FIG_HOLE_TRI = [
    (1, 1), (0, 2), (0, 3), (1, 3), (2, 0), (3, 0), (3, 1),
    (3, 2), (2, 3), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3),
]
PINCH = [(i, j) for i in range(4) for j in range(4) if (i, j) not in {(1, 1), (2, 2)}]
ANTI_PINCH = [(i, j) for i in range(4) for j in range(4) if (i, j) not in {(1, 2), (2, 1)}]
DIAMOND = [(0, 1), (1, 0), (1, 2), (2, 1)]


def grown_blob(kind, n, seed):
    """Seeded random connected blob used as a generic test subject."""
    rng = random.Random(seed)
    occ = {(0, 0)}
    while len(occ) < n:
        p = rng.choice(sorted(occ))
        q = rng.choice(neighbors(kind, p))
        occ.add(q)
    return sorted(occ)


def test_make_config_normalizes_kind_and_offsets():
    c = make_config("square", [(0, 0), (1, 0)])
    assert c.kind is GridKind.SQUARE
    assert c.n == 2
    assert c.particles() == [(0, 0), (1, 0)]
    assert c.offset((0, 0)) == 0
    c2 = make_config(GridKind.KING, [(0, 0)], {(0, 0): 5})
    assert c2.offset((0, 0)) == 5


def test_validate_config_accepts_connected_sets():
    assert validate_config(make_config("square", RING)) == []
    assert validate_config(make_config("triangular", [(0, 0), (1, -1)])) == []
    assert validate_config(make_config("king", [(0, 0), (1, 1)])) == []


def test_validate_config_reports_problems():
    assert validate_config(make_config("square", [(0, 0), (2, 0)]))
    assert validate_config(make_config("square", [(0, 0), (1, 1)]))
    assert validate_config(make_config("square", []))
    bad = make_config("square", [(0, 0)], {(0, 0): 9})
    assert any("offset" in v for v in validate_config(bad))
    stray = make_config("square", [(0, 0)], {(3, 3): 1})
    assert any("unoccupied" in v or "stray" in v or "not occupied" in v
               for v in validate_config(stray))


def test_validate_config_lists_bad_offsets_in_cell_order():
    # offsets given out of cell order, (0, 2) without one (read as 0), and
    # one for an unoccupied cell, which is listed as such, not range-checked
    square = ParticleConfig(
        kind=GridKind.SQUARE,
        occupied=frozenset([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (5, 5)]),
        frame_offsets={(5, 5): 2, (2, 0): 4, (1, 0): 3, (0, 1): -1, (0, 0): 9,
                       (9, 9): 7},
    )
    assert validate_config(square) == [
        "frame offsets given for unoccupied vertices: [(9, 9)]",
        "frame offset 9 at (0, 0) outside [0,4)",
        "frame offset -1 at (0, 1) outside [0,4)",
        "frame offset 4 at (2, 0) outside [0,4)",
        "occupied set is not connected",
    ]
    triangular = ParticleConfig(
        kind=GridKind.TRIANGULAR,
        occupied=frozenset([(-1, 0), (0, 0), (1, 0)]),
        frame_offsets={(1, 0): 5, (0, 0): 6, (-1, 0): 8},
    )
    assert validate_config(triangular) == [
        "frame offset 8 at (-1, 0) outside [0,6)",
        "frame offset 6 at (0, 0) outside [0,6)",
    ]


def test_find_holes_counts():
    assert find_holes(make_config("square", RING)).count == 1
    assert find_holes(make_config("square", RING)).holes[0] == frozenset({(1, 1)})
    assert find_holes(make_config("square", BLOCK3)).count == 0
    r = find_holes(make_config("triangular", FIG_HOLE_TRI))
    assert r.count == 1
    assert r.holes[0] == frozenset({(1, 2), (2, 1), (2, 2)})
    assert find_holes(make_config("square", PINCH)).count == 2


def test_hole_adjacency_follows_the_grid():
    # same cells, different kinds: two free cells that touch diagonally
    # make one hole exactly when the background has that diagonal.  The
    # triangular background has (+1,-1); the king background is
    # 4-connected, as an 8-connected set's is (Rosenfeld 1970), so there
    # the pockets of either pinch stay apart (`oracles.grid_holes`)
    assert find_holes(make_config("king", PINCH)).count == 2
    assert find_holes(make_config("triangular", PINCH)).count == 2
    assert find_holes(make_config("king", ANTI_PINCH)).count == 2
    assert find_holes(make_config("triangular", ANTI_PINCH)).count == 1


def test_king_diamond_has_one_hole():
    # its middle cell escapes only between diagonal links, which the
    # 4-connected background cannot cross
    report, edge = holes_and_border(make_config("king", DIAMOND))
    assert report.holes == (frozenset({(1, 1)}),)
    assert edge == set(DIAMOND)


def test_open_pocket_is_not_a_hole():
    u_shape = [p for p in BLOCK3 if p not in {(1, 1), (1, 0)}]
    assert find_holes(make_config("square", u_shape)).count == 0


@pytest.mark.parametrize("kind", KINDS)
def test_find_holes_matches_oracle_on_blobs(kind):
    # the holes come in the oracle's order, sorted by their least cells
    blobs = [grown_blob(kind, 18 + seed, seed) for seed in range(12)]
    blobs += [gen_blob(kind, 300, random.Random(seed), allow_holes=True)
              for seed in range(8)]
    counts = []
    for cells in blobs:
        got = list(find_holes(make_config(kind, cells)).holes)
        assert got == oracles.grid_holes(kind, cells)
        counts.append(len(got))
    assert max(counts) >= 3


def test_border_examples():
    assert border(make_config("square", RING)) == set(RING)
    assert border(make_config("square", BLOCK3)) == set(BLOCK3) - {(1, 1)}
    # (3,2) touches empty space only through the hole, so it is interior
    fig = make_config("triangular", FIG_HOLE_TRI)
    b = border(fig)
    assert (3, 2) not in b
    assert (1, 1) in b and (3, 0) in b


@pytest.mark.parametrize("kind", KINDS)
def test_border_matches_oracle_on_blobs(kind):
    for seed in range(10):
        cells = grown_blob(kind, 15 + 2 * seed, 100 + seed)
        got = border(make_config(kind, cells))
        assert got == oracles.grid_border(kind, cells)


# arbitrary sets of up to 36 cells in a 6x6 window placed anywhere
# around the origin, negative coordinates included
SMALL_SETS = st.builds(
    lambda i0, j0, cells: {(i0 + i, j0 + j) for i, j in cells},
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=36),
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), cells=SMALL_SETS)
@example(kind=GridKind.KING, cells={(-3, -7)})
@example(kind=GridKind.SQUARE, cells={(-2, j) for j in range(-3, 4)})
@example(kind=GridKind.TRIANGULAR, cells={(i, -5) for i in range(-4, 2)})
# holes next to the box's edge rows
@example(kind=GridKind.SQUARE, cells={(i - 5, j - 1) for i, j in RING})
@example(kind=GridKind.TRIANGULAR, cells={(i, j - 4) for i, j in FIG_HOLE_TRI})
# a king diamond: one hole of the 4-adjacent background; and the same
# cells on the square grid, disconnected there around that hole
@example(kind=GridKind.KING, cells=set(DIAMOND))
@example(kind=GridKind.SQUARE, cells=set(DIAMOND))
# two free cells joined only by a diagonal: two king holes
@example(kind=GridKind.KING, cells=set(PINCH))
def test_floods_match_oracles_on_small_sets(kind, cells):
    config = make_config(kind, cells)
    holes = oracles.grid_holes(kind, cells)
    edge = oracles.grid_border(kind, cells)
    assert list(find_holes(config).holes) == holes
    assert border(config) == edge
    report, got_edge = holes_and_border(config)
    assert list(report.holes) == holes
    assert got_edge == edge
    split = "occupied set is not connected" in validate_config(config)
    assert split == (not oracles.connected(kind, cells))


def table_contractible(kind, s, p):
    """`contractibility_table` at p's slot mask in s: the election's lookup."""
    mask = sum(bit for bit, c in slot_cells(kind, p) if c in s)
    return contractibility_table(kind)[mask]


def test_contractibility_known_cases():
    square = GridKind.SQUARE
    two = frozenset([(0, 0), (0, 1), (1, 0), (1, 1)])
    for p in two:
        assert table_contractible(square, two, p)
    line = frozenset([(0, 0), (1, 0), (2, 0)])
    assert table_contractible(square, line, (0, 0))
    assert table_contractible(square, line, (2, 0))
    assert not table_contractible(square, line, (1, 0))
    for p in RING:
        # removing any ring particle opens the hole into the exterior;
        # the neighborhood splits around the pocket
        assert not table_contractible(square, RING, p)


def test_contractibility_square_corner_membership_matters():
    # (1,0) and (0,1) only connect around (1,1) through the corner (0,0),
    # and what counts is the corner's membership in S, not mere occupancy
    square = GridKind.SQUARE
    assert table_contractible(square, {(0, 0), (1, 0), (0, 1), (1, 1)}, (1, 1))
    assert not table_contractible(square, {(1, 0), (0, 1), (1, 1)}, (1, 1))


@pytest.mark.parametrize("kind", [GridKind.TRIANGULAR, GridKind.KING])
def test_local_contractibility_matches_definition_exhaustively(kind):
    d = degree(kind)
    dirs = [oracles.DIRS[kind.value][a] for a in range(d)]
    for bits in range(1 << d):
        ports = {a for a in range(d) if bits >> a & 1}
        s = {(0, 0)} | {dirs[a] for a in ports}
        want = oracles.def1_contractible(kind, s, (0, 0))
        assert contractibility_table(kind)[bits] == want, bits


def test_local_contractibility_matches_definition_square():
    dirs = oracles.DIRS["square"]
    for pbits, cbits in itertools.product(range(16), range(16)):
        ports = {a for a in range(4) if pbits >> a & 1}
        corners = tuple(bool(cbits >> a & 1) for a in range(4))
        s = {(0, 0)}
        s |= {dirs[a] for a in ports}
        s |= {CORNER_DIRECTIONS[a] for a in range(4) if corners[a]}
        want = oracles.def1_contractible("square", s, (0, 0))
        got = contractibility_table(GridKind.SQUARE)[pbits | cbits << 4]
        assert got == want, (pbits, cbits)


def test_king_removal_table_matches_simple_point_definition():
    # the king election retires only (8,4)-simple candidates: Definition 1,
    # plus no pocket of the 4-adjacent background opened by the removal
    dirs = oracles.DIRS["king"]
    table = removal_table(GridKind.KING)
    assert len(table) == 256
    for bits in range(256):
        s = {(0, 0)} | {dirs[a] for a in range(8) if bits >> a & 1}
        assert table[bits] == oracles.king_simple(s, (0, 0)), bits
    # all four orthogonal neighbors present: Definition 1 may allow it,
    # the table never does
    solid_cross = 0b01010101
    for diag in range(16):
        bits = solid_cross | sum(1 << (2 * a + 1) for a in range(4) if diag >> a & 1)
        assert not table[bits], bits
    for kind in (GridKind.SQUARE, GridKind.TRIANGULAR):
        assert removal_table(kind) == contractibility_table(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_removal_table_is_definition_1_plus_no_hole_left(kind):
    # one rule on every grid: p may leave S when Definition 1 holds and
    # S without p has no hole; an empty remainder has none
    slots = slot_cells(kind, (0, 0))
    table = removal_table(kind)
    assert len(table) == 1 << len(slots)
    for mask, allowed in enumerate(table):
        rest = {c for bit, c in slots if mask & bit}
        s = rest | {(0, 0)}
        opens_hole = bool(rest) and bool(oracles.grid_holes(kind, rest))
        want = oracles.def1_contractible(kind, s, (0, 0)) and not opens_hole
        assert allowed == want, mask


# r, mtree, and the derived round bound, pinned against the exhaustive
# oracle.  The square bound doubles and pads; the other grids add one.
BOUND_CASES = [
    ("square", [(0, 0), (0, 1), (1, 0), (1, 1)], 2, 1, 8),
    ("square", BLOCK3, 2, 3, 12),
    ("square", [(i, 0) for i in range(5)], 2, 2, 10),
    ("triangular", [(0, 0), (1, 0), (0, 1)], 1, 1, 3),
    ("king", [(i, j) for i in range(2) for j in range(3)], 1, 1, 3),
    ("triangular", [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)], 1, 2, 4),
]


@pytest.mark.parametrize("kind,cells,r,m,b", BOUND_CASES)
def test_radius_mtree_bound_values(kind, cells, r, m, b):
    c = make_config(kind, cells)
    assert radius(c) == r == oracles.radius_to_border(kind, cells)
    assert mtree(c) == m == oracles.max_tree_height(kind, cells)
    assert round_bound(c.kind, radius(c), mtree(c)) == b


def test_single_particle_bound():
    c = make_config("triangular", [(4, -2)])
    assert radius(c) == 0
    assert mtree(c) == 0
    assert round_bound(c.kind, radius(c), mtree(c)) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_mtree_matches_the_oracle_on_blobs(kind):
    # hole-free blobs of 1-14 cells, then 14-cell blobs that may keep holes
    shapes = [gen_blob(kind, 1 + seed % 14, random.Random(seed)) for seed in range(28)]
    shapes += [
        gen_blob(kind, 14, random.Random(seed), allow_holes=True) for seed in range(200)
    ]
    configs = [make_config(kind, cells) for cells in shapes]
    assert any(find_holes(c).count for c in configs)
    for c, cells in zip(configs, shapes):
        assert mtree(c) == oracles.max_tree_height(kind, cells)


def test_mtree_searches_paths_longer_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    line = make_config("square", [(i, 0) for i in range(n)])
    assert mtree(line, limit=n) == -(-(n - 1) // 2)


def test_radius_rejects_holes_and_mtree_rejects_large():
    with pytest.raises(ValueError):
        radius(make_config("square", RING))
    big = make_config("square", [(i, 0) for i in range(19)])
    with pytest.raises(ValueError):
        mtree(big)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 10_000), n=st.integers(2, 26))
def test_contraction_progress_and_preservation(kind, seed, n):
    # progress guarantee behind the election: a hole-free system
    # always has a contractible particle, and contracting it keeps the
    # rest connected and hole-free.
    #
    # Both claims hold on the square and triangular grids.  On the king
    # grid only preservation survives: a cycle of purely diagonal
    # adjacencies (see the diamond tests in test_algorithms) is
    # hole-free with no contractible member, and the related "every
    # border non-cut particle is contractible" fails too, because two
    # diagonal neighbors of p can be locally disconnected around p yet
    # joined through the far side.
    cells = grown_blob(kind, n, seed)
    c = make_config(kind, cells)
    if find_holes(c).count:
        return
    s = c.occupied
    removable = [p for p in s if table_contractible(kind, s, p)]
    if kind != "king":
        assert removable
    for p in removable:
        rest = set(s) - {p}
        assert oracles.connected(kind, rest)
        assert not oracles.holes(kind, rest)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmatter.grid import (
    GridKind,
    degree,
    directions,
    distance,
    neighbors,
    opposite_port,
)

import oracles

KINDS = [GridKind.SQUARE, GridKind.TRIANGULAR, GridKind.KING]

# The canonical tables, spelled out once more so a silent edit to the
# library constant cannot pass unnoticed.
EXPECTED_DIRS = {
    GridKind.SQUARE: [(-1, 0), (0, -1), (1, 0), (0, 1)],
    GridKind.TRIANGULAR: [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)],
    GridKind.KING: [
        (-1, 0),
        (-1, -1),
        (0, -1),
        (1, -1),
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 1),
    ],
}


def test_degree_values():
    assert degree(GridKind.SQUARE) == 4
    assert degree(GridKind.TRIANGULAR) == 6
    assert degree(GridKind.KING) == 8


def test_kind_accepts_plain_strings():
    assert GridKind("king") is GridKind.KING
    assert GridKind.SQUARE == "square"
    with pytest.raises(ValueError):
        GridKind("hex")


@pytest.mark.parametrize("kind", KINDS)
def test_port_direction_table(kind):
    got = list(directions(kind))
    assert got == EXPECTED_DIRS[kind]
    assert len(set(got)) == degree(kind)


@pytest.mark.parametrize("kind", ["square", "triangular", "king"])
def test_opposite_port_rejects_out_of_range(kind):
    # a plain-string kind, as `neighbors` and `degree` accept
    for port in (-1, degree(kind)):
        with pytest.raises(ValueError, match=f"^port {port} out of range for {kind} grid$"):
            opposite_port(kind, port)


@pytest.mark.parametrize("kind", KINDS)
def test_opposite_port_is_a_half_turn(kind):
    d = degree(kind)
    for a in range(d):
        b = opposite_port(kind, a)
        assert b == (a + d // 2) % d
        assert opposite_port(kind, b) == a
        di, dj = directions(kind)[a]
        assert directions(kind)[b] == (-di, -dj)


@pytest.mark.parametrize("kind", KINDS)
def test_neighbors_follow_ports(kind):
    p = (3, -2)
    ns = neighbors(kind, p)
    assert len(ns) == degree(kind)
    for a, q in enumerate(ns):
        di, dj = directions(kind)[a]
        assert q == (p[0] + di, p[1] + dj)


def test_distance_known_values():
    assert distance(GridKind.SQUARE, (0, 0), (2, 3)) == 5
    assert distance(GridKind.KING, (0, 0), (2, 3)) == 3
    assert distance(GridKind.TRIANGULAR, (0, 0), (2, 1)) == 3
    assert distance(GridKind.TRIANGULAR, (0, 0), (2, -1)) == 2
    assert distance(GridKind.TRIANGULAR, (0, 0), (-1, -2)) == 3
    assert distance(GridKind.TRIANGULAR, (0, 0), (-3, 2)) == 3


@pytest.mark.parametrize("kind", KINDS)
def test_distance_matches_bfs_in_window(kind):
    for di in range(-4, 5):
        for dj in range(-4, 5):
            want = oracles.bfs_distance(kind, (0, 0), (di, dj)) if (di, dj) != (0, 0) else 0
            assert distance(kind, (0, 0), (di, dj)) == want, (kind, di, dj)


coords = st.tuples(st.integers(-7, 7), st.integers(-7, 7))


@settings(max_examples=150)
@given(kind=st.sampled_from(KINDS), a=coords, b=coords, c=coords)
def test_distance_is_a_metric(kind, a, b, c):
    assert distance(kind, a, b) == distance(kind, b, a)
    assert (distance(kind, a, b) == 0) == (a == b)
    assert distance(kind, a, c) <= distance(kind, a, b) + distance(kind, b, c)


@settings(max_examples=100)
@given(
    kind=st.sampled_from(KINDS),
    a=coords,
    b=coords,
    shift=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
)
def test_distance_is_translation_invariant(kind, a, b, shift):
    a2 = (a[0] + shift[0], a[1] + shift[1])
    b2 = (b[0] + shift[0], b[1] + shift[1])
    assert distance(kind, a, b) == distance(kind, a2, b2)


@settings(max_examples=100)
@given(kind=st.sampled_from(KINDS), a=coords, b=coords)
def test_distance_dominates_coordinate_gap(kind, a, b):
    # one step never moves either coordinate by more than one
    assert distance(kind, a, b) >= max(abs(a[0] - b[0]), abs(a[1] - b[1]))


"""The benchmark's output oracle flags planted faults.

    python3 -m pytest bench/test_oracle.py
"""

from collections import namedtuple

import oracle
import shapes

State = namedtuple("State", "status frame_offset local_id")


def _elected(cells):
    """A correct final state: one leader, one frame, every id distinct."""
    states = {p: State("N", 3, n) for n, p in enumerate(sorted(cells))}
    first = min(cells)
    states[first] = states[first]._replace(status="L")
    return states


def test_correct_run_passes():
    for grid in shapes.GRIDS:
        states = _elected(shapes.rect(5, 5))
        assert oracle.check_run(grid, 2, states) == []


def test_flags_second_leader():
    states = _elected(shapes.rect(4, 4))
    states[(3, 3)] = states[(3, 3)]._replace(status="L")
    assert oracle.check_run("square", 1, states) == ["leaders=2"]


def test_flags_id_collision():
    states = _elected(shapes.rect(4, 4))
    # (1, 0) and (0, 1) are triangular neighbours through the diagonal
    states[(0, 1)] = states[(0, 1)]._replace(local_id=states[(1, 0)].local_id)
    assert oracle.check_run("triangular", 1, states) == ["id-collision (0, 1) (1, 0)"]
    # on the square grid the same pair is two steps apart
    assert oracle.check_run("square", 1, states) == []


def test_flags_frame_disagreement():
    states = _elected(shapes.rect(3, 3))
    states[(2, 2)] = states[(2, 2)]._replace(frame_offset=0)
    assert oracle.check_run("king", 1, states) == ["frame-offset (2, 2)"]


def test_flags_pocket():
    ring = set(shapes.rect(3, 3)) - {(1, 1)}
    for grid in shapes.GRIDS:
        assert oracle.check_shape(grid, ring) == ["pocket-cells=1"]
    assert oracle.check_shape("square", shapes.rect(3, 3)) == []


def test_king_diagonal_gap_is_not_a_pocket_but_is_filled():
    # a diamond of four cells: the centre reaches the outside only between
    # diagonal neighbours, so it is no king hole, yet a 4-adjacent pocket
    diamond = {(1, 0), (0, 1), (2, 1), (1, 2)}
    assert oracle.check_shape("king", diamond) == []
    assert shapes.pocket_cells(shapes.FILL_GRID["king"], diamond) == {(1, 1)}


def test_flags_disconnected_shape():
    assert oracle.check_shape("square", {(0, 0), (1, 1)}) == ["not-connected"]
    assert oracle.check_shape("king", {(0, 0), (1, 1)}) == []


def test_flags_border_mismatch():
    block = set(shapes.rect(5, 5)) - {(2, 2)}
    edge = {p for p in block if 0 in p or 4 in p}
    assert oracle.check_border("square", block, edge) == []
    assert oracle.check_border("square", block, edge | {(2, 1)}) == ["border-differs"]


def test_blob_inputs_are_hole_free_and_seeded():
    import random

    for grid in shapes.GRIDS:
        cells = shapes.blob(grid, 300, random.Random(7))
        assert cells == shapes.blob(grid, 300, random.Random(7))
        assert len(cells) >= 300
        assert oracle.check_shape(grid, cells) == []
        assert not shapes.pocket_cells(shapes.FILL_GRID[grid], cells)

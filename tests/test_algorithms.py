import random
from itertools import combinations

import pytest

from gridmatter.algorithms import (
    ELECT,
    PIPELINE_FULL,
    STATUS_CANDIDATE,
    STATUS_LEADER,
    STATUS_NON_CANDIDATE,
    ElectProtocol,
    ParticleState,
    TreeProtocol,
    bit_sets,
    id_histogram,
    leader_of,
    port_sets,
    port_steps,
    start_states,
    tree_height,
    tree_parent,
    update_id_after_move,
)
from gridmatter.coloring import color_at, color_count, pattern
from gridmatter.grid import GridKind, degree, neighbors, opposite_port
from gridmatter.particles import contractibility_table, find_holes, make_config, slot_cells
from gridmatter.scheduler import (
    POLICY_EXPLICIT,
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    Schedule,
    run,
)

import oracles

KINDS = [GridKind.SQUARE, GridKind.TRIANGULAR, GridKind.KING]

# 14-particle triangular system whose election transcript is pinned
# round by round below.
WALK = [
    (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0),
    (2, 1), (3, 1), (4, 1), (5, 1), (1, 2), (5, 2), (0, 3),
]
WALK_ORDERS = (
    ((1, 0), (2, 0), (2, 1), (1, 2), (5, 1), (0, 0), (3, 0), (4, 0),
     (5, 0), (6, 0), (5, 2), (0, 3), (3, 1), (4, 1)),
    ((2, 0), (4, 1), (2, 1), (3, 1), (1, 0), (5, 1), (1, 2), (0, 0),
     (3, 0), (4, 0), (5, 0), (6, 0), (5, 2), (0, 3)),
    ((2, 0), (2, 1), (4, 1), (3, 1), (0, 0), (1, 0), (3, 0), (4, 0),
     (5, 0), (6, 0), (5, 1), (5, 2), (1, 2), (0, 3)),
)
WALK_RETIRED = {
    1: {(0, 0), (3, 0), (4, 0), (5, 0), (6, 0), (5, 2), (0, 3)},
    2: {(1, 0), (1, 2), (5, 1)},
    3: {(2, 0), (2, 1), (4, 1)},
}

FIG_HOLE_TRI = [
    (1, 1), (0, 2), (0, 3), (1, 3), (2, 0), (3, 0), (3, 1),
    (3, 2), (2, 3), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3),
]
RING = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]


def grown_blob(kind, n, seed):
    rng = random.Random(seed)
    occ = {(0, 0)}
    while len(occ) < n:
        p = rng.choice(sorted(occ))
        occ.add(rng.choice(neighbors(kind, p)))
    return sorted(occ)


def hole_free_blob(kind, n, seed):
    cells = set(grown_blob(kind, n, seed))
    while True:
        report = find_holes(make_config(kind, sorted(cells)))
        if not report.count:
            return sorted(cells)
        for pocket in report.holes:
            cells |= pocket


# ---------------------------------------------------------------------------
# election


def test_single_particle_elects_itself():
    cfg = make_config("king", [(7, -3)])
    state = start_states(cfg.kind)[cfg.offset((7, -3))]
    assert state.status == STATUS_CANDIDATE
    p = 7 * 2 - 3  # the int key i * w + j, w = 2 for a single column
    new, _, woken = ElectProtocol(cfg).step(p, state, [], {p: state})
    assert new.status == STATUS_LEADER and not woken


def test_election_walkthrough_round_by_round():
    cfg = make_config("triangular", WALK)
    sched = Schedule(POLICY_EXPLICIT, orders=WALK_ORDERS)
    res = run(cfg, ("elect",), sched)

    by_round = {}
    for number, r in enumerate(res.trace.log, 1):
        for p, (transition, _) in r.changes:
            if transition != "-":
                by_round.setdefault(number, set()).add((p, transition))
    assert by_round[1] == {(p, "C->N") for p in WALK_RETIRED[1]}
    assert by_round[2] == {(p, "C->N") for p in WALK_RETIRED[2]}
    assert by_round[3] == (
        {(p, "C->N") for p in WALK_RETIRED[3]} | {((3, 1), "C->L")}
    )
    assert set(by_round) == {1, 2, 3}

    assert leader_of(res.states) == (3, 1)
    assert sum(s.status == STATUS_NON_CANDIDATE for s in res.states.values()) == 13
    assert res.trace.rounds == 4
    assert res.reports[0].rounds_active == 3
    assert res.reports[0].rounds_total == 4


def test_walkthrough_intermediate_candidate_set():
    cfg = make_config("triangular", WALK)
    after_one = frozenset(WALK) - WALK_RETIRED[1]
    table = contractibility_table(cfg.kind)
    contractible = {
        p
        for p in after_one
        if table[sum(bit for bit, c in slot_cells(cfg.kind, p) if c in after_one)]
    }
    assert contractible == {(1, 0), (1, 2), (5, 1)}


@pytest.mark.parametrize("kind", KINDS)
def test_election_transitions_preserve_candidate_invariants(kind):
    # replay a run and audit every retirement against the definition
    cfg = make_config(kind, hole_free_blob(kind, 24, len(kind.value)))
    res = run(cfg, ("elect",), Schedule(POLICY_RANDOM, seed=5))
    cset = set(cfg.particles())
    for r in res.trace.log:
        assert r.algorithm == "elect"
        for p, (transition, _) in r.changes:
            if transition == "C->N":
                assert oracles.def1_contractible(cfg.kind, cset, p)
                cset.discard(p)
                assert oracles.connected(cfg.kind, cset)
                assert not oracles.grid_holes(cfg.kind, cset)
    assert cset == {leader_of(res.states)}


def residual_candidates(config):
    """Particles the election never eliminated, under round robin."""
    res = run(config, (ELECT,), Schedule(), record=False)
    return frozenset(
        p for p, s in res.states.items() if s.status != STATUS_NON_CANDIDATE
    )


def test_residual_candidates_on_hole_free_systems():
    cfg = make_config("square", [(0, 0), (1, 0), (2, 0)])
    assert len(residual_candidates(cfg)) == 1


def test_residual_candidates_surround_holes():
    ring = make_config("square", RING)
    res = residual_candidates(ring)
    assert res == frozenset(RING)
    fig = make_config("triangular", FIG_HOLE_TRI)
    res = residual_candidates(fig)
    # the far corner peels away ((3,2) can contract: its free slots all
    # face the hole and its occupied arc stays connected), leaving the
    # tight 11-cycle pinned around the pocket
    assert res == frozenset(FIG_HOLE_TRI) - {(3, 2), (3, 4), (4, 3)}
    assert oracles.connected("triangular", res)
    # one hole on the triangular grid strands a plain cycle: every
    # survivor touches exactly two survivors
    for p in res:
        assert sum(1 for q in neighbors("triangular", p) if q in res) == 2


DIAMOND = [(0, 1), (1, 0), (1, 2), (2, 1)]


@pytest.mark.parametrize("policy", [POLICY_RANDOM, POLICY_ROUND_ROBIN])
def test_king_diamond_stalls_under_every_schedule(policy):
    # Four particles pairwise linked only by diagonals, surrounding an
    # empty cell that escapes only between the diagonal edges: a hole of
    # the 4-connected background an 8-connected set bounds.  So the
    # election stalls here as around any hole: no particle is
    # contractible, since each sees its two occupied slots two ports
    # apart, and its occupied neighbourhood is disconnected.  Election
    # quiesces with the full diamond stuck in C.
    cfg = make_config("king", DIAMOND)
    assert find_holes(cfg).holes == (frozenset({(1, 1)}),)
    assert oracles.grid_holes("king", DIAMOND) == [frozenset({(1, 1)})]
    assert not any(oracles.def1_contractible("king", DIAMOND, p) for p in DIAMOND)
    res = run(cfg, ("elect",), Schedule(policy, seed=13))
    assert leader_of(res.states) is None
    survivors = {p for p, s in res.states.items() if s.status == STATUS_CANDIDATE}
    assert survivors == set(DIAMOND)


def test_king_blob_stall_depends_on_activation_order():
    # Retiring every Definition-1 contractible candidate would, under
    # random seed 8, erode this system into a crown of four mutually
    # diagonal cells and stop, while round robin elects: the stall would
    # depend on the order.  The king election retires only (8,4)-simple
    # candidates, which never enclose a 4-adjacent pocket, so both orders
    # elect one leader.
    cells = hole_free_blob("king", 18, 41)
    cfg = make_config("king", cells)
    for sched in (Schedule(POLICY_RANDOM, seed=8), Schedule(POLICY_ROUND_ROBIN)):
        res = run(cfg, ("elect",), sched)
        leaders = [p for p, s in res.states.items() if s.status == STATUS_LEADER]
        assert len(leaders) == 1
        assert all(
            s.status == STATUS_NON_CANDIDATE
            for p, s in res.states.items()
            if p != leaders[0]
        )
    # That crown, as a static witness: connected, no pocket of the
    # king-adjacent background, no Definition-1 contractible member, and
    # its middle cell is a hole: a pocket of the 4-adjacent background.
    crown = {(-2, -1), (-1, -2), (-1, 0), (0, -1)}
    assert oracles.connected("king", crown)
    assert not oracles.holes("king", crown)
    assert not any(oracles.def1_contractible("king", crown, p) for p in crown)
    assert oracles.grid_holes("king", crown) == [frozenset({(-1, -1)})]


@pytest.mark.parametrize("side", [4, 5, 10, 20])
def test_king_solid_squares_elect_under_every_schedule(side):
    cfg = make_config("king", [(i, j) for i in range(side) for j in range(side)])
    schedules = [Schedule(POLICY_ROUND_ROBIN)]
    schedules += [Schedule(POLICY_RANDOM, seed=seed) for seed in range(30)]
    for sched in schedules:
        res = run(cfg, ("elect",), sched, record=False)
        leaders = [p for p, s in res.states.items() if s.status == STATUS_LEADER]
        assert len(leaders) == 1, (side, sched)


# ---------------------------------------------------------------------------
# spanning tree


def _full_run(kind, cells, k=1, seed=0, offsets=None, policy=POLICY_RANDOM):
    cfg = make_config(kind, cells, offsets)
    return cfg, run(cfg, PIPELINE_FULL, Schedule(policy, seed=seed), k=k)


def tree_edges(kind, states):
    return {
        frozenset((p, tree_parent(kind, states, p)))
        for p in states
        if states[p].parent_port is not None
    }


def tree_children(kind, states, p):
    s = states[p]
    hop = port_steps(kind)[s.frame_offset]
    return [(p[0] + hop[a][0], p[1] + hop[a][1]) for a in sorted(s.child_ports)]


def test_tree_spans_with_reciprocal_pointers():
    cfg, res = _full_run("square", [(i, 0) for i in range(5)])
    states = res.states
    root = leader_of(states)
    edges = tree_edges(cfg.kind, states)
    assert len(edges) == 4
    assert edges == {frozenset(((i, 0), (i + 1, 0))) for i in range(4)}
    for p in cfg.particles():
        if p == root:
            assert states[p].parent_port is None
            continue
        parent = tree_parent(cfg.kind, states, p)
        assert parent in cfg.occupied
        assert p in tree_children(cfg.kind, states, parent)
    # a path always yields the path itself; levels count from wherever
    # the leader ended up
    assert tree_height(cfg.kind, states) == max(root[0], 4 - root[0]) + 1


def test_tree_on_cycle_drops_one_edge():
    cfg, res = _full_run("square", [(0, 0), (0, 1), (1, 0), (1, 1)])
    states = res.states
    edges = tree_edges(cfg.kind, states)
    assert len(edges) == 3
    for p in cfg.particles():
        for child in tree_children(cfg.kind, states, p):
            assert tree_parent(cfg.kind, states, child) == p
    by_name = {r.name: r for r in res.reports}
    assert by_name["tree"].messages == 3


def test_tree_helpers_reject_disconnected_pointers():
    cfg, res = _full_run("triangular", WALK)
    states = dict(res.states)
    # cut one leaf loose from its parent's child list; the tree no
    # longer spans and the level count refuses to answer
    leaf = next(
        p for p in cfg.particles()
        if states[p].parent_port is not None and not states[p].child_ports
    )
    parent = tree_parent(cfg.kind, states, leaf)
    back = opposite_port(cfg.kind, states[leaf].parent_port)
    assert back in states[parent].child_ports
    states[parent] = states[parent]._replace(
        child_ports=tuple(a for a in states[parent].child_ports if a != back),
    )
    with pytest.raises(ValueError) as err:
        tree_height(cfg.kind, states)
    assert str(err.value) == "tree does not span the system"
    # with no leader there is no root to count levels from
    root = leader_of(states)
    states[root] = states[root]._replace(status=STATUS_NON_CANDIDATE)
    with pytest.raises(ValueError) as err:
        tree_height(cfg.kind, states)
    assert str(err.value) == "no leader"


@pytest.mark.parametrize("kind", KINDS)
def test_tree_describe_formats_every_child_port_subset(kind):
    d = degree(kind)
    proto = TreeProtocol(make_config(kind, [(0, 0)]))
    unjoined, unjoined_root = ParticleState(), ParticleState(status=STATUS_LEADER)
    for mask in range(1 << d):
        ports = tuple(a for a in range(d) if mask >> a & 1)
        kids = ",".join(str(a) for a in ports) or "-"
        joined = ParticleState(
            status=STATUS_NON_CANDIDATE, tree_joined=True, parent_port=mask % d,
            child_ports=ports,
        )
        root = ParticleState(status=STATUS_LEADER, tree_joined=True, child_ports=ports)
        full = ParticleState(tree_joined=True, child_ports=tuple(range(d)))
        assert proto.describe(unjoined, joined) == (
            f"join parent={mask % d} children={kids}"
        )
        assert proto.describe(unjoined_root, root) == f"root children={kids}"
        assert proto.describe(full, joined) == f"prune children={kids}"
        assert proto.describe(full, root) == f"prune children={kids}"


@pytest.mark.parametrize("kind", KINDS)
def test_port_set_tables_equal_what_the_steps_built_per_call(kind):
    d = degree(kind)
    turned, relays, joins = port_sets(kind)
    subsets = sorted(c for n in range(d + 1) for c in combinations(range(d), n))
    assert len(turned) == d
    for table in (*turned, relays, joins):
        assert sorted(table) == subsets
        assert all(type(entry) is tuple for entry in table.values())
    for c in subsets:
        for s in range(d):
            assert turned[s][c] == tuple(sorted((a + s) % d for a in c))
        assert list(relays[c]) == [(a, a) for a in c]
        assert list(joins[c]) == [(a, None) for a in c]
    # built from the masks: a turned set is the one tuple of its ports
    assert {id(t) for table in turned for t in table.values()} == set(map(id, relays))
    slots = slot_cells(kind, (0, 0))
    bits = bit_sets(len(slots))
    assert len(bits) == len(contractibility_table(kind))  # every slot mask
    for mask, ids in enumerate(bits):
        assert type(ids) is tuple
        assert ids == tuple(i for i, (bit, _) in enumerate(slots) if mask & bit)


@pytest.mark.parametrize("kind", KINDS)
def test_a_tree_join_mails_none_to_each_child_and_wakes_the_other_senders(kind):
    d = degree(kind)
    cells = [(0, 0), *neighbors(kind, (0, 0))]
    cfg = make_config(kind, cells)
    w = cfg.key_width
    key = [i * w + j for i, j in cells]  # the centre, then port a's cell at a + 1
    states = dict.fromkeys(key, ParticleState())
    proto = TreeProtocol(cfg)
    root, outbox, woken = proto.step(0, ParticleState(status=STATUS_LEADER), [], states)
    assert root.child_ports == tuple(range(d)) and not woken
    assert outbox == tuple((a, None) for a in range(d))
    # mail through ports 0 and 1: the parent is port 0, the sender
    # behind port 1 is woken, and the rest are children
    joined, outbox, woken = proto.step(0, ParticleState(), [(0, None), (1, None)], states)
    assert (joined.parent_port, joined.child_ports) == (0, tuple(range(2, d)))
    assert outbox == tuple((a, None) for a in range(2, d))
    assert list(woken) == [key[2]]


# ---------------------------------------------------------------------------
# renumbering


def test_renumber_aligns_every_frame_with_the_root():
    rng = random.Random(11)
    cells = hole_free_blob("triangular", 20, 77)
    offsets = {p: rng.randrange(6) for p in cells}
    cfg, res = _full_run("triangular", cells, offsets=offsets)
    states = res.states
    root = leader_of(states)
    want = cfg.offset(root)
    assert states[root].frame_offset == want
    assert all(s.frame_offset == want for s in states.values())


def test_renumber_makes_tree_ports_reciprocal_locally():
    cells = hole_free_blob("king", 16, 3)
    offsets = {p: random.Random(101 * p[0] + p[1]).randrange(8) for p in cells}
    cfg, res = _full_run("king", cells, offsets=offsets)
    states = res.states
    d = degree(cfg.kind)
    for p in cfg.particles():
        s = states[p]
        if s.parent_port is None:
            continue
        parent = tree_parent(cfg.kind, states, p)
        back = opposite_port(cfg.kind, s.parent_port)
        # frames agree after renumbering, so the reciprocal label is
        # literally the parent's child port
        assert back in states[parent].child_ports
        canon = (s.parent_port + s.frame_offset) % d
        di, dj = oracles.DIRS[cfg.kind.value][canon]
        assert (p[0] + di, p[1] + dj) == parent


# ---------------------------------------------------------------------------
# identifiers


@pytest.mark.parametrize("kind", KINDS)
def test_ids_equal_displacement_mod_tracking(kind):
    k = 2
    cells = hole_free_blob(kind, 18, 41)
    # round robin; random seed 8 elects on this blob too, on the king grid
    # as well since its election retires only (8,4)-simple candidates
    # (see test_king_blob_stall_depends_on_activation_order)
    cfg, res = _full_run(kind, cells, k=k, seed=8, policy=POLICY_ROUND_ROBIN)
    states = res.states
    root = leader_of(states)
    pat = pattern(kind, k)
    for p in cfg.particles():
        s = states[p]
        assert s.local_id == color_at(pat, p[0] - root[0], p[1] - root[1])
        assert 0 <= s.local_id < color_count(kind, k)
        assert s.local_id is not None


def test_id_histogram_counts():
    cfg, res = _full_run("square", [(i, 0) for i in range(4)], k=1)
    hist = id_histogram(res.states)
    assert sum(hist.values()) == 4
    assert set(hist) <= {0, 1}
    assert hist[0] == 2 and hist[1] == 2


@pytest.mark.parametrize("kind", KINDS)
def test_update_id_after_move_tracks_absolute_position(kind):
    rng = random.Random(kind.value)
    k = rng.choice([1, 2, 3])
    pat = pattern(kind, k)
    d = degree(kind)
    for trial in range(60):
        offset = rng.randrange(d)
        state = start_states(kind)[offset]
        state = state._replace(local_id=color_at(pat, 0, 0))
        pos = (0, 0)
        for _ in range(rng.randrange(1, 20)):
            port = rng.randrange(d)
            moved = update_id_after_move(kind, k, state, port)
            # a move writes only the id
            written = {f for f, a, b in zip(ParticleState._fields, state, moved) if a != b}
            assert written == {"local_id"}, written
            state = moved
            di, dj = oracles.DIRS[kind.value][(port + offset) % d]
            pos = (pos[0] + di, pos[1] + dj)
        assert state.local_id == color_at(pat, *pos)


def test_update_id_requires_assigned_coordinates():
    state = start_states(GridKind.SQUARE)[0]
    with pytest.raises(ValueError):
        update_id_after_move(GridKind.SQUARE, 1, state, 0)


@pytest.mark.parametrize("kind", KINDS)
def test_update_id_rejects_ports_out_of_range(kind):
    # at offset 1 the port plus the offset, reduced mod d, is always a
    # port; the move must still reject a port the particle does not have
    d = degree(kind)
    state = start_states(kind)[1]._replace(local_id=0)
    for port in (9, -1, d):
        with pytest.raises(ValueError):
            update_id_after_move(kind, 1, state, port)

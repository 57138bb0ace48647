import hashlib
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmatter import algorithms
from gridmatter.algorithms import PIPELINE_FULL, STATUS_LEADER, ParticleState, leader_of
from gridmatter.particles import ParticleConfig, key_width, make_config
from gridmatter.scheduler import (
    POLICY_EXPLICIT,
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    AlgorithmReport,
    Schedule,
    SimulationError,
    _shuffled,
    run,
)
from gridmatter.grid import GridKind, directions
from gridmatter.shapes import gen_blob, gen_rect, random_offsets

TWO = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_round_robin_activates_in_sorted_order():
    cfg = make_config("square", TWO)
    res = run(cfg, ("elect",), Schedule(POLICY_ROUND_ROBIN))
    first_round = next(res.trace.orders())
    assert list(first_round) == sorted(TWO)


def test_random_policy_is_fair_and_seeded():
    cfg = make_config("square", TWO)
    a = run(cfg, ("elect",), Schedule(POLICY_RANDOM, seed=9))
    b = run(cfg, ("elect",), Schedule(POLICY_RANDOM, seed=9))
    assert a.trace.to_text() == b.trace.to_text()
    orders = list(a.trace.orders())
    assert len(orders) == len(a.trace.log) == a.trace.rounds
    for batch in orders:
        assert sorted(batch) == sorted(TWO)
        assert len(batch) == len(TWO)


def test_different_seeds_may_change_orders_but_not_the_leader():
    cfg = make_config("square", TWO)
    leaders = set()
    for seed in range(6):
        res = run(cfg, ("elect",), Schedule(POLICY_RANDOM, seed=seed))
        leaders.add(leader_of(res.states))
    # 2x2 block: who wins depends on activation order, but uniqueness holds
    assert leaders <= set(TWO)


def test_explicit_orders_must_cover_every_particle():
    cfg = make_config("square", TWO)
    # one particle skipped; every particle named, and a cell with none;
    # (1, 0) skipped for the empty cell (0, 3), whose int key is (1, 0)'s
    # (w = 3), so the order's keys are exactly the particles' keys
    bad = ((0, 0), (0, 1), (0, 3), (1, 1))
    for order in (((0, 0), (0, 1), (1, 0)), (*TWO, (9, 9)), bad):
        with pytest.raises(SimulationError) as err:
            run(cfg, ("elect",), Schedule(POLICY_EXPLICIT, orders=(order,)))
    assert str(err.value) == (
        "explicit order for round 0 skips [(1, 0)], names empty cells [(0, 3)]"
    )
    # cells that are not (i, j) tuples: unhashable lists, and an int that
    # would not sort with the tuples
    malformed = (([[0, 0], [0, 1]], "[0, 0]"), (((0, 0), (0, 1), 5, (9, 9)), "5"))
    for order, cell in malformed:
        with pytest.raises(SimulationError) as err:
            run(cfg, ("elect",), Schedule(POLICY_EXPLICIT, orders=(order,)))
        assert str(err.value) == (
            f"explicit order for round 0 names {cell}, not an (i, j) cell"
        )
    # an order that is no sequence at all
    with pytest.raises(SimulationError) as err:
        run(cfg, ("elect",), Schedule(POLICY_EXPLICIT, orders=(5,)))
    assert str(err.value) == "explicit order for round 0 is 5, not a sequence of cells"
    # orders that are no sequence of orders at all
    with pytest.raises(SimulationError) as err:
        run(cfg, ("elect",), Schedule(POLICY_EXPLICIT, orders=5))
    assert str(err.value) == "explicit orders are 5, not a sequence of orders"


def test_every_explicit_order_is_checked_before_the_first_phase():
    cfg = make_config("square", TWO)
    ok, bad = tuple(TWO), ((0, 0), (0, 1), (1, 0))
    # elect ends in 2 rounds, so no phase reaches round 20
    assert run(cfg, ("elect",), Schedule()).trace.rounds == 2
    with pytest.raises(SimulationError) as err:
        run(cfg, ("elect",), Schedule(POLICY_EXPLICIT, orders=(ok,) * 20 + (bad,)))
    assert str(err.value) == (
        "explicit order for round 20 skips [(1, 1)], names empty cells []"
    )


def test_unknown_policy_raises_even_with_an_empty_pipeline():
    cfg = make_config("square", TWO)
    with pytest.raises(SimulationError) as err:
        run(cfg, (), Schedule(policy="bogus"))
    assert str(err.value) == "unknown schedule policy 'bogus'"


@pytest.mark.parametrize("record", [True, False])
def test_a_random_schedule_without_a_seed_raises_before_the_first_phase(record):
    # a trace replays its shuffled rounds from the seed, so OS entropy
    # would give a run whose trace cannot be expanded
    cfg = make_config("square", TWO)
    with pytest.raises(SimulationError) as err:
        run(cfg, PIPELINE_FULL, Schedule(POLICY_RANDOM, seed=None), record=record)
    assert str(err.value) == "a random schedule needs a seed, not None"


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("policy", [POLICY_ROUND_ROBIN, POLICY_RANDOM, POLICY_EXPLICIT])
def test_a_config_without_particles_is_refused(policy, record):
    # in validate_config's words, before the schedule or the key width
    cfg = make_config("square", [])
    with pytest.raises(SimulationError) as err:
        run(cfg, PIPELINE_FULL, Schedule(policy), record=record)
    assert str(err.value) == "configuration has no particles"


def test_explicit_orders_fall_back_to_sorted_when_exhausted():
    cfg = make_config("square", TWO)
    first = tuple(sorted(TWO, reverse=True))
    res = run(cfg, ("elect",), Schedule(POLICY_EXPLICIT, orders=(first,)))
    r1, r2 = list(res.trace.orders())[:2]
    assert list(r1) == list(first)
    assert list(r2) == sorted(TWO)


def test_a_send_toward_an_empty_cell_raises(monkeypatch):
    # (6, 3) leads; (5, 3) forwards its renumber mail through every port,
    # in its new frame (offset 2), whose local port 0 faces (6, 3)
    cfg = make_config("square", [(5, 2), (5, 3), (6, 3)], {(5, 2): 3, (5, 3): 1, (6, 3): 2})
    step = algorithms.RenumberProtocol.step

    def sends_everywhere(self, p, s, inbox, states):
        new, outbox, woken = step(self, p, s, inbox, states)
        if outbox and s.status != STATUS_LEADER:
            outbox = [(a, a) for a in range(4)]
        return new, outbox, woken

    monkeypatch.setattr(algorithms.RenumberProtocol, "step", sends_everywhere)
    with pytest.raises(SimulationError) as err:
        run(cfg, PIPELINE_FULL, Schedule())
    assert str(err.value) == (
        "renumber: (5, 3) sends through local port 1 toward empty cell (5, 4)"
    )


def test_activation_cap_raises():
    cfg = make_config("square", TWO)
    with pytest.raises(SimulationError):
        run(cfg, PIPELINE_FULL, Schedule(), max_activations=3)
    # a cap of exactly the activations a finished run made lets it finish
    done = run(cfg, PIPELINE_FULL, Schedule())
    cap = done.trace.activations
    assert run(cfg, PIPELINE_FULL, Schedule(), max_activations=cap).states == done.states
    with pytest.raises(SimulationError) as err:
        run(cfg, PIPELINE_FULL, Schedule(), max_activations=cap - 1)
    assert str(err.value) == f"activation cap {cap - 1} exceeded during ids"


@pytest.mark.parametrize("cells,cap", [(TWO[:2], 1024), (TWO, 2048)])
def test_a_never_quiescing_phase_hits_the_default_cap(monkeypatch, cells, cap):
    # every step makes a new state and wakes its own particle, so elect
    # never quiesces; the default cap is 64 * n * max(2n, 8), and at n = 4
    # both arguments of max are 8, so a change to either constant shows
    def restless(self, p, s, inbox, states):
        return s._replace(), (), (p,)

    monkeypatch.setattr(algorithms.ElectProtocol, "step", restless)
    with pytest.raises(SimulationError) as err:
        run(make_config("square", cells), PIPELINE_FULL, Schedule())
    assert str(err.value) == f"activation cap {cap} exceeded during elect"


def test_an_unknown_algorithm_is_refused():
    cfg = make_config("square", TWO)
    with pytest.raises(ValueError) as err:
        run(cfg, ("elekt",), Schedule())
    assert str(err.value) == "unknown algorithm 'elekt'"
    with pytest.raises(ValueError) as err:
        algorithms.read_offsets("elekt", cfg.kind)
    assert str(err.value) == "unknown algorithm 'elekt'"


@pytest.mark.parametrize("kind", list(GridKind))
def test_a_config_without_frame_offsets_runs_at_offset_zero(kind):
    cells = gen_blob(kind, 20, random.Random(3))
    bare = run(ParticleConfig(kind, frozenset(cells)), PIPELINE_FULL, Schedule(), k=2)
    zeros = run(make_config(kind, cells), PIPELINE_FULL, Schedule(), k=2)
    assert bare.states == zeros.states
    assert bare.trace.to_text() == zeros.trace.to_text()


def test_run_quiesces_with_a_silent_confirm_round():
    cfg = make_config("square", TWO)
    res = run(cfg, ("elect",), Schedule())
    last = res.trace.rounds
    assert len(res.trace.log) == last
    # the confirm round still activates everyone, each a no-op
    assert sorted(list(res.trace.orders())[-1]) == sorted(TWO)
    assert res.trace.log[-1].changes == {}
    report = res.reports[0]
    assert report.rounds_total == last
    assert report.rounds_active == last - 1


def test_single_particle_trace_text():
    cfg = make_config("square", [(0, 0)])
    res = run(cfg, ("elect",), Schedule())
    assert leader_of(res.states) == (0, 0)
    assert res.trace.to_text() == "1\t0,0\telect\tC->L\t0\n2\t0,0\telect\t-\t0\n"


def test_trace_is_identical_on_replay():
    cfg = make_config("triangular", [(0, 0), (1, 0), (0, 1), (1, 1)])
    sched = Schedule(POLICY_RANDOM, seed=3)
    a = run(cfg, PIPELINE_FULL, sched, k=2)
    b = run(cfg, PIPELINE_FULL, sched, k=2)
    assert a.trace.to_text() == b.trace.to_text()
    assert a.reports == b.reports


def test_message_accounting_separates_sends_from_receipts():
    cfg = make_config("square", TWO)
    res = run(cfg, PIPELINE_FULL, Schedule())
    by_name = {r.name: r for r in res.reports}
    # the 2x2 cycle makes the root's two branches meet: one emission is
    # received but refused as a duplicate parent offer
    assert by_name["tree"].messages == 3
    assert by_name["tree"].sends == 4
    assert by_name["renumber"].messages == 3
    assert by_name["ids"].messages == 3


def test_record_false_keeps_counters_only():
    cfg = make_config("square", TWO)
    res = run(cfg, ("elect",), Schedule(), record=False)
    assert res.trace.log == []
    assert len(res.trace.events) == 0
    assert res.trace.rounds >= 2
    assert leader_of(res.states) in TWO


# ---------------------------------------------------------------------------
# Golden traces: sha256 digests of to_text(), reports and final states,
# frozen from the engine that recorded one event object per activation.  A
# change to how runs are stored or replayed must keep every byte.


def _golden_shapes(kind):
    return {
        "rect5x4": gen_rect(5, 4),
        "blob30": gen_blob(kind, 30, random.Random(11)),
        "blob60": gen_blob(kind, 60, random.Random(12)),
    }


def _golden_schedules(cells):
    order = sorted(cells)
    # an explicit order may activate a particle twice in one round
    first = tuple(order + order[:1])
    second = tuple(reversed(order[:3] + order))
    return (
        Schedule(POLICY_ROUND_ROBIN),
        Schedule(POLICY_RANDOM, seed=7),
        Schedule(POLICY_EXPLICIT, orders=(first, second)),
    )


def _states_text(states):
    # the last column says whether ids are done, as GOLDEN's digests pin
    return repr([
        (p, s.status, s.parent_port, sorted(s.child_ports),
         s.local_id, s.frame_offset, s.tree_joined,
         s.renumber_done, s.local_id is not None)
        for p, s in sorted(states.items())
    ])


def _reports_text(reports):
    return repr([(r.name, r.rounds_active, r.rounds_total, r.messages, r.sends)
                 for r in reports])


def _golden_runs(kind, shape):
    cells = _golden_shapes(kind)[shape]
    cfg = make_config(kind, cells, random_offsets(kind, cells, random.Random(5)))
    for k in (1, 2):
        for sched in _golden_schedules(cells):
            yield cfg, k, sched, run(cfg, PIPELINE_FULL, sched, k=k)


GOLDEN = {
    ("square", "rect5x4"): (
        "7cca6022d975fca310abfb8e1ebee2b2f85ae44f266cb6f16b237aa9c8b52de5",
        "5bc0d4cc285a0b92fbab3dfe7654442b92695864534279d3e0a80010737d2276",
        "ef41506e3dabe34fae8a5c51be1d47e0c566abbcb8f0fd481ae0f5cd08992521",
    ),
    ("square", "blob30"): (
        "c672cdd35214d40e004a379f2df1f96d2dd3e2ec766515c58b12e976c9797f10",
        "39789241d082520272bbdd63fddf2d743d89564bb9894d5e8d02aa973de3316b",
        "88206c4b93a4404bac51ecb1cef658849156799cc22a96efa3f95cd5e75703bc",
    ),
    ("square", "blob60"): (
        "c5e2ffe1d50f25d395bf34b11a2da6a0a86af599f6574b5494024d555975beed",
        "c44d5a6eebfbb66aef1be5b59d8d7cd245954e3da3e1e70ecf4795bb3aa5d21b",
        "930d86c8836715873bfb3104147dce9bf5070631180ba1d89c83b9137cb05abc",
    ),
    ("triangular", "rect5x4"): (
        "1e3ebdaa1bc66504bb979be645e25976c3e384c5f15780608d6c6b00bdb18c6f",
        "5fb3df75579302ae7ce9132ea20e7900cc189f266a62eb452b2c9497eb767636",
        "af2b97d7067ed7475b06ab8571dde341ef7312f17a77464c5a7d9bbd44e93a52",
    ),
    ("triangular", "blob30"): (
        "1789a39fc9d944aba74ce7b7bdf3f1e2a31573400553e645aad38bbf3f66f974",
        "35dee4f8194e6d05c364762c096bb98142f92c8bbfaddf84d216274865e8a219",
        "93ac277fc7c17bab766d4aa0336417ea22089a661d80244f0472b776a0056462",
    ),
    ("triangular", "blob60"): (
        "b0200b3751a9d3583a16d18bf7fba303c7d9238710c54eb43a565c615342b1b8",
        "5a2e145631c3fa951173d8be4065569d8762a8cc4035e7bfd91b8e77c2f08606",
        "8292120d2bcf0e4ba30dee88ee344efa1c0d7b24d92adcc76324dd44ee62f43e",
    ),
    ("king", "rect5x4"): (
        "e4557c3b272ecf2bb3f39c7f714a76116ceae9ded7458b65b3551e99c9706b81",
        "032127fe5777421ac1b264db9ea8068fa9440830310e9c34bb01054804a7da9f",
        "d2f40a7da02f116b7f9f8c8ef392098fc9170384781ca7e3424edc5fd8f3cbc7",
    ),
    ("king", "blob30"): (
        "b61c2ea5fa566e0617221f12271b244a41f276d1ae67f5dbb009b99ff3f99c72",
        "5828e002b43fa5c40d5f5691bc237b46381b1a27ac188c82614488a75d97450a",
        "f0162882276901913243ff0146018ff5444741dc0ee69f1b93985f1d6bd2cb26",
    ),
    ("king", "blob60"): (
        "4146810b4772073df17de4854a01c0e767cd1cd08474008a448f794e93333b92",
        "6acbf1db1da8b3dc61fdc135a57f0e3fe3033d2a76d5f3fbb4578ffe58f07473",
        "ff1c213171ee26e4dc700154c9357416d24ffe500fd5cead2a4393ad29d0e2df",
    ),
}


@pytest.mark.parametrize("kind,shape", sorted(GOLDEN))
def test_golden_trace_digests(kind, shape):
    text, reports, states = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for cfg, k, sched, res in _golden_runs(GridKind(kind), shape):
        out = res.trace.to_text()
        assert out.count("\n") == res.trace.activations
        text.update(out.encode())
        reports.update(_reports_text(res.reports).encode())
        states.update(_states_text(res.states).encode())
        quiet = run(cfg, PIPELINE_FULL, sched, k=k, record=False)
        assert quiet.trace.log == []
        assert quiet.trace.to_text() == ""
        assert _reports_text(quiet.reports) == _reports_text(res.reports)
        assert _states_text(quiet.states) == _states_text(res.states)
    got = (text.hexdigest(), reports.hexdigest(), states.hexdigest())
    assert got == GOLDEN[(kind, shape)]


# The work of the golden runs, summed per grid over their shapes, k and
# schedules: per phase, the step calls the engine makes and how many of
# them return a new state, then the reports' active rounds, total rounds,
# sends and accepted messages.  Equal counts and equal digests show that
# a change to the engine or the steps did the same work.
WORK = {
    "square": {
        "elect": (896, 660, 54, 72, 0, 0),
        "tree": (982, 982, 118, 136, 978, 642),
        "renumber": (660, 660, 114, 132, 642, 642),
        "ids": (660, 660, 114, 132, 642, 642),
    },
    "triangular": {
        "elect": (794, 660, 42, 60, 0, 0),
        "tree": (1234, 1234, 104, 122, 1470, 642),
        "renumber": (660, 660, 98, 116, 642, 642),
        "ids": (660, 660, 100, 118, 642, 642),
    },
    "king": {
        "elect": (828, 660, 54, 72, 0, 0),
        "tree": (1250, 1250, 84, 102, 1818, 642),
        "renumber": (660, 660, 76, 94, 642, 642),
        "ids": (660, 660, 78, 96, 642, 642),
    },
}


@pytest.mark.parametrize("kind", sorted(WORK))
def test_golden_runs_do_the_pinned_work(kind, monkeypatch):
    make_protocol = algorithms.make_protocol
    work = {name: [0] * 6 for name in PIPELINE_FULL}

    def counted_protocol(name, config, k=1):
        proto = make_protocol(name, config, k)
        tally = work[name]

        def step(p, state, inbox, states):
            out = proto.step(p, state, inbox, states)
            tally[0] += 1
            tally[1] += out[0] is not state
            return out

        # only step and describe, as a wrapping benchmark tracer exposes
        return SimpleNamespace(step=step, describe=proto.describe)

    monkeypatch.setattr(algorithms, "make_protocol", counted_protocol)
    for shape in ("rect5x4", "blob30", "blob60"):
        for _, _, _, res in _golden_runs(GridKind(kind), shape):
            for r in res.reports:
                tally = work[r.name]
                tally[2] += r.rounds_active
                tally[3] += r.rounds_total
                tally[4] += r.sends
                tally[5] += r.messages
    assert {name: tuple(tally) for name, tally in work.items()} == WORK[kind]


# ---------------------------------------------------------------------------
# The engine steps only awake particles.  That is exact only while every
# step reads nothing but its own state, its inbox and its algorithm's
# `read_offsets` cells, only `CAN_ACT` states act on an empty inbox,
# steps are idempotent, and a change wakes every reader it can make act;
# the audit below checks all four on every particle at every step call,
# which fields a step reads of another cell's state, and which fields of
# its own state a change writes.

# Per algorithm, the fields of other cells' states that its steps read.
NEIGHBOUR_FIELDS = {
    "elect": {"status"},
    "tree": {"tree_joined", "parent_direction"},
    "renumber": set(),
    "ids": set(),
}

# Per algorithm, the fields of its own state that its changes write: a
# step builds its successor positionally, so a value put in the wrong
# field shows here.
OWN_FIELDS = {
    "elect": {"status"},
    "tree": {"tree_joined", "parent_port", "child_ports"},
    "renumber": {"renumber_done", "frame_offset", "parent_port", "child_ports"},
    "ids": {"local_id"},
}


class FieldLog:
    """A read-only view of a state that records the fields read through it."""

    __slots__ = ("_state", "_fields")

    def __init__(self, state, fields):
        self._state = state
        self._fields = fields

    def __getattr__(self, field):
        self._fields.add(field)
        return getattr(self._state, field)


class ReadLog:
    """A view of the engine's states dict for one step call of `me`: it
    records the keys read into `reads`, and the fields read of every
    cell but `me` into `fields`."""

    def __init__(self, states, me):
        self.states = states
        self.me = me
        self.reads = set()
        self.fields = set()

    def _view(self, key, state):
        if key == self.me or state is None:
            return state
        return FieldLog(state, self.fields)

    def __getitem__(self, key):
        self.reads.add(key)
        return self._view(key, self.states[key])

    def get(self, key, default=None):
        self.reads.add(key)
        return self._view(key, self.states.get(key, default))

    def __contains__(self, key):
        self.reads.add(key)
        return key in self.states


def _whole(name):
    def method(self, *args):
        self.reads.add(name)  # not a cell, so never an allowed read
        return getattr(self.states, name)(*args)
    return method


for _name in ("__iter__", "__len__", "keys", "values", "items", "copy"):
    setattr(ReadLog, _name, _whole(_name))


def _no_op(out, state):
    return out[0] is state and not out[1]


def _audited_step(name, kind, w, step, counts):
    offsets = [di * w + dj for di, dj in algorithms.read_offsets(name, kind)]
    hops = algorithms.port_keys(kind, w)
    can_act = algorithms.CAN_ACT[name]

    def checked(p, state, inbox, states):
        view = ReadLog(states, p)
        out = step(p, state, inbox, view)
        allowed = {p} | {p + o for o in offsets}
        assert view.reads <= allowed, (name, p, sorted(map(str, view.reads - allowed)))
        assert view.fields <= NEIGHBOUR_FIELDS[name], (name, p, view.fields)
        counts["fields"][name] |= view.fields
        if not inbox and not can_act(state):
            counts["dormant"][name] += 1
            assert _no_op(out, state), (name, p)
        # idempotent: again on an empty inbox, with the read cells as
        # they are, the step changes nothing and sends nothing
        again = step(p, out[0], [], states)
        assert again[0] is out[0] and not again[1], (name, p)
        woken = set(out[2])
        if out[0] is state:
            assert not woken, (name, p, woken)
            return out
        assert type(out[0]) is ParticleState, (name, p, type(out[0]))
        written = {
            f for f, old, new in zip(ParticleState._fields, state, out[0]) if old != new
        }
        assert written <= OWN_FIELDS[name], (name, p, written)
        counts["written"][name] |= written
        assert woken <= states.keys(), (name, p, woken)
        # a particle that reads p and is neither woken nor mailed must
        # not go from a no-op on an empty inbox to acting, by p's change
        hop = hops[out[0].frame_offset]
        mailed = {p + hop[a][0] for a, _ in out[1]}
        after = {**states, p: out[0]}
        readers = {p + o for o in offsets} & states.keys()
        for q in readers - woken - mailed:
            if _no_op(step(q, states[q], [], states), states[q]):
                counts["unwoken"][name] += 1
                assert _no_op(step(q, states[q], [], after), states[q]), (name, p, q)
        return out

    def audited(p, state, inbox, states):
        # every particle as it stands, on an empty inbox, then the call
        # the engine asked for
        for q in list(states):
            checked(q, states[q], [], states)
        if not inbox and not can_act(state):
            counts["idle"][name] += 1  # a call the engine could have skipped
        out = checked(p, state, inbox, states)
        if _no_op(out, state):
            counts["no-op"][name] += 1
        return out

    return audited


@pytest.mark.parametrize("kind", list(GridKind))
def test_steps_read_only_declared_cells_and_only_can_act_states_act(
    kind, monkeypatch
):
    make_protocol = algorithms.make_protocol
    counts = {
        key: dict.fromkeys(PIPELINE_FULL, 0)
        for key in ("dormant", "idle", "no-op", "unwoken")
    }
    counts["fields"] = {name: set() for name in PIPELINE_FULL}
    counts["written"] = {name: set() for name in PIPELINE_FULL}

    def audited_protocol(name, config, k=1):
        proto = make_protocol(name, config, k)
        w = config.key_width
        # only step and describe, as a wrapping benchmark tracer exposes
        return SimpleNamespace(
            step=_audited_step(name, config.kind, w, proto.step, counts),
            describe=proto.describe,
        )

    cases = []
    for n, seed in ((12, 3), (30, 4)):
        cells = gen_blob(kind, n, random.Random(seed))
        cfg = make_config(kind, cells, random_offsets(kind, cells, random.Random(seed)))
        for sched in _golden_schedules(cells):
            cases.append((cfg, sched, run(cfg, PIPELINE_FULL, sched, k=2)))
    monkeypatch.setattr(algorithms, "make_protocol", audited_protocol)
    for cfg, sched, plain in cases:
        res = run(cfg, PIPELINE_FULL, sched, k=2)
        assert res.trace.to_text() == plain.trace.to_text()
        assert _states_text(res.states) == _states_text(plain.states)
    assert all(counts["dormant"].values()), counts["dormant"]
    # the wake check saw readers of a change in both phases that read cells
    assert counts["unwoken"]["elect"] and counts["unwoken"]["tree"], counts["unwoken"]
    assert counts["fields"] == NEIGHBOUR_FIELDS
    assert counts["written"] == OWN_FIELDS
    # the engine never steps a particle that cannot act and has no mail,
    # and outside the election every step it makes changes or sends
    assert not any(counts["idle"].values()), counts["idle"]
    assert counts["no-op"]["elect"] and not any(
        counts["no-op"][name] for name in ("tree", "renumber", "ids")
    ), counts["no-op"]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 17, 1024, 1025, 1600])
def test_random_order_is_random_shuffle_of_sorted_particles(n):
    # the engine inlines random.shuffle's draws; a Python release that
    # changes random.shuffle or _randbelow breaks this test first.  The
    # draws come in blocks of equal bit length, whose edges lie at powers
    # of two
    particles = sorted((i % 40, i // 40) for i in range(n))
    before = list(particles)
    for seed in (0, 1, 7, 2**31 - 1):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = list(particles)
            ref.shuffle(expected)
            assert _shuffled(particles, ours) == expected
            assert ours.getstate() == ref.getstate()
    assert particles == before


# ---------------------------------------------------------------------------
# A reference engine that calls every activation's step, with no awake
# set: the engine's skipped calls must be exactly the no-op ones.


def _reference_run(config, pipeline, schedule, k):
    """(to_text, reports, states) of `pipeline`, stepping every activation.

    Also asserts what the engine and the tree step take from sequential,
    immediate delivery: every phase starts with empty inboxes, and no
    mail reaches a particle after it has joined the tree.  Draws its own
    orders: `random.shuffle` of the sorted particles, the explicit order
    while there is one, the sorted particles otherwise.
    """
    particles = sorted(config.occupied)
    explicit = schedule.orders or ()
    rng = random.Random(schedule.seed)
    w = key_width(particles)
    key = {p: p[0] * w + p[1] for p in particles}
    start = algorithms.start_states(config.kind)
    states = {key[p]: start[config.offset(p)] for p in particles}
    inboxes = {key[p]: [] for p in particles}
    dirs = directions(config.kind)
    d = len(dirs)
    lines, reports, rounds = [], [], 0
    for name in pipeline:
        proto = algorithms.make_protocol(name, config, k)
        assert not any(inboxes.values()), name
        phase_round = active = messages = sends = 0
        while True:
            if schedule.policy == POLICY_RANDOM:
                order = list(particles)
                rng.shuffle(order)
            elif phase_round < len(explicit):
                order = explicit[phase_round]
            else:
                order = particles
            phase_round += 1
            rounds += 1
            changed_any, round_sends = False, 0
            for p in order:
                at = key[p]
                inbox, inboxes[at] = inboxes[at], []
                state = states[at]
                assert not (name == "tree" and inbox and state.tree_joined), p
                new, outbox, _ = proto.step(at, state, inbox, states)
                states[at] = new
                changed = new != state
                changed_any |= changed
                messages += changed and bool(inbox)
                for port, payload in outbox:
                    canon = (port + new.frame_offset) % d
                    q = key[p[0] + dirs[canon][0], p[1] + dirs[canon][1]]
                    via = (canon + d // 2 - states[q].frame_offset) % d
                    inboxes[q].append((via, payload))
                round_sends += len(outbox)
                transition = proto.describe(state, new) if changed else "-"
                lines.append(
                    f"{rounds}\t{p[0]},{p[1]}\t{name}\t{transition}\t{len(outbox)}\n"
                )
            sends += round_sends
            active += changed_any
            if not (changed_any or round_sends):
                break
        reports.append(AlgorithmReport(name, active, phase_round, messages, sends))
    return "".join(lines), reports, {p: states[key[p]] for p in particles}


def _explicit_orders(particles, rng):
    # each round is a shuffle of every particle plus a few repeated ones
    orders = []
    for _ in range(rng.randint(1, 12)):
        order = list(particles)
        rng.shuffle(order)
        for _ in range(rng.randint(0, len(order))):
            order.insert(rng.randint(0, len(order)), rng.choice(particles))
        orders.append(tuple(order))
    return tuple(orders)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(GridKind)),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**31 - 1),
    k=st.sampled_from([1, 2]),
    policy=st.sampled_from([POLICY_ROUND_ROBIN, POLICY_RANDOM, POLICY_EXPLICIT]),
)
def test_run_equals_a_reference_engine_that_steps_every_activation(
    kind, n, seed, k, policy
):
    rng = random.Random(seed)
    cells = gen_blob(kind, n, rng)
    cfg = make_config(kind, cells, random_offsets(kind, cells, rng))
    orders = _explicit_orders(sorted(cells), rng) if policy == POLICY_EXPLICIT else None
    sched = Schedule(policy, seed=seed, orders=orders)
    text, reports, states = _reference_run(cfg, PIPELINE_FULL, sched, k)
    for _ in range(2):
        res = run(cfg, PIPELINE_FULL, sched, k=k)
        assert res.trace.to_text() == text
        assert res.reports == reports
        assert res.states == states
    # describe, the ids outbox and tree_height read child ports in order
    for s in states.values():
        ports = s.child_ports
        assert type(ports) is tuple and all(a < b for a, b in zip(ports, ports[1:]))


def test_a_repeated_particle_records_its_change_at_the_slot_that_made_it():
    # (0, 1) comes up twice in round 1: first a no-op, as its retirement
    # would split (0, 0) from (0, 2); then, after (0, 0) retires and wakes
    # it, it retires too
    cfg = make_config("square", [(0, 0), (0, 1), (0, 2)])
    sched = Schedule(POLICY_EXPLICIT, orders=(((0, 1), (0, 0), (0, 1), (0, 2)),))
    res = run(cfg, PIPELINE_FULL, sched)
    text = res.trace.to_text()
    assert text.startswith(
        "1\t0,1\telect\t-\t0\n"
        "1\t0,0\telect\tC->N\t0\n"
        "1\t0,1\telect\tC->N\t0\n"
        "1\t0,2\telect\tC->L\t0\n"
    )
    ref_text, reports, states = _reference_run(cfg, PIPELINE_FULL, sched, 1)
    assert text == ref_text
    assert res.reports == reports and res.states == states
    quiet = run(cfg, PIPELINE_FULL, sched, record=False)
    assert quiet.reports == reports and quiet.states == states


@pytest.mark.parametrize("policy", [POLICY_RANDOM, POLICY_EXPLICIT])
@pytest.mark.parametrize("kind", list(GridKind))
def test_run_equals_the_reference_engine_on_a_200_particle_blob(kind, policy):
    rng = random.Random(200)
    cells = gen_blob(kind, 200, rng)
    cfg = make_config(kind, cells, random_offsets(kind, cells, rng))
    orders = _explicit_orders(sorted(cells), rng) if policy == POLICY_EXPLICIT else None
    if orders:
        assert any(len(order) > len(cells) for order in orders)  # repeats
    sched = Schedule(policy, seed=17, orders=orders)
    text, reports, states = _reference_run(cfg, PIPELINE_FULL, sched, 2)
    res = run(cfg, PIPELINE_FULL, sched, k=2)
    assert leader_of(res.states) is not None
    assert res.trace.to_text() == text
    assert res.reports == reports
    assert res.states == states


# ---------------------------------------------------------------------------
# `to_text()` expands the log in memory proportional to its output, and
# counting the activations allocates nothing per activation.


def _square30():
    cells = gen_rect(30, 30)
    offsets = random_offsets(GridKind.SQUARE, cells, random.Random(1))
    return make_config("square", cells, offsets)


@pytest.fixture(scope="module")
def square30_trace():
    return run(_square30(), PIPELINE_FULL, Schedule(POLICY_RANDOM, seed=1), k=2).trace


def _traced_peak(fn):
    """fn's result and the peak bytes it held, by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_retained(fn):
    """fn's result and the bytes it still holds once it returns, by
    tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_recorded_random_run_holds_memory_per_change_not_per_activation():
    # a shuffled round keeps no order, so recording holds the rounds and
    # their changes, not the 30 x 30 run's activations
    cfg, sched = _square30(), Schedule(POLICY_RANDOM, seed=1)
    run(cfg, PIPELINE_FULL, sched, k=2, record=False)  # fills the cached tables
    _, plain = _traced_retained(lambda: run(cfg, PIPELINE_FULL, sched, k=2, record=False))
    res, recorded = _traced_retained(lambda: run(cfg, PIPELINE_FULL, sched, k=2))
    log = res.trace.log
    changes = sum(len(r.changes) for r in log)
    assert res.trace.activations > 10 * changes > 0
    assert recorded - plain < 100 * changes + 2048 * len(log), (
        recorded - plain, changes, len(log)
    )
    # equal (transition, messages) entries of a run are one object
    entries = [e for r in log for e in r.changes.values()]
    assert len({id(e) for e in entries}) == len(set(entries))


def test_to_text_peaks_under_three_times_its_output(square30_trace):
    text, peak = _traced_peak(square30_trace.to_text)
    assert peak <= 3 * len(text), (peak, len(text))


def test_len_of_events_allocates_no_events(square30_trace):
    count, peak = _traced_peak(lambda: len(square30_trace.events))
    assert count == square30_trace.activations
    assert peak < 64 * 1024, peak

"""Deterministic activation engine.

Execution is a sequence of atomic particle activations.  A round is the
shortest trace segment in which every particle was activated at least
once; all schedule policies produce fair rounds by construction.  An
activation consumes the particle's inbox, reads a snapshot of the
current neighborhood, and may change the particle's state and emit
messages.  Messages land in the receiver's inbox immediately and are
consumed at its next activation.  Since activations never overlap, the
model's requirement that no two computations at distance two or less run
simultaneously holds trivially.

Each algorithm of a pipeline runs to quiescence (one full round with no
state change and no message traffic) before the next starts.  Identical
inputs give bit-identical traces.

Only awake particles are stepped; a sleeping particle's activation is a
no-op without the call, and a round stops being scanned once none is
awake.  Every particle sleeps after its step, since steps are
idempotent (see `algorithms`).  A delivery wakes the receiver, and a
change wakes the particles its step returns.  At the start of a phase
the particles in a `CAN_ACT` state are awake.  None has mail: the last
phase ended on a round with no sends, which stepped every particle with
mail.  A round is scanned by particle, without positions: a recorded
activation, one that changed state or sent, names its particle, and
only `RunTrace.to_text()` places it in the order.

Inside a run every cell is the int key of `particles.key_width`; the
states, the trace and every error leave the engine in (i, j)
coordinates, converted once per run.  A recorded shuffled round keeps no
order: the trace replays it from the seed.  The policy is checked, and
every explicit order read once, checked and keyed, before the first
phase; a recorded explicit round holds a tuple of the run's own
particles, never the caller's order or cells.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

from . import algorithms
from .grid import Coord
from .particles import ParticleConfig

POLICY_ROUND_ROBIN = "round_robin"
POLICY_RANDOM = "seeded_random_permutation_per_round"
POLICY_EXPLICIT = "explicit"


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Activation policy: fixed order, seeded shuffles, or explicit orders.

    Explicit orders are given per round, each naming every particle and
    no other cell (a particle may repeat); rounds past the provided list
    fall back to the sorted round-robin order, so quiescence confirmation
    does not need to be spelled out.  Any iterable of iterables serves:
    `run` reads each order once, before the first phase, and checks it,
    also an order no phase reaches, with the policy and a random
    schedule's seed (None is refused: the trace replays the shuffles
    from it).  The run keeps none of these objects.
    """

    policy: str = POLICY_ROUND_ROBIN
    seed: int = 0
    orders: Optional[Iterable[Iterable[Coord]]] = None


@dataclass(frozen=True)
class TraceRound:
    """One recorded round; its number is its position in `log`, from 1.
    `order` is None for a shuffled round, whose order `RunTrace.orders()`
    replays; else it holds the run's own particles, as a tuple built
    when an explicit round ran, so the caller's orders may change later.
    `changes` lists `(cell, (transition, messages))` for each activation
    that changed state or sent, in activation order; the rest were
    no-ops.  A particle an explicit order repeats may be listed twice.
    Each cell is one of `RunTrace.particles`, and equal entries of one
    run are one object."""

    algorithm: str
    order: Optional[Sequence[Coord]]
    changes: list[tuple[Coord, tuple[str, int]]]


@dataclass
class RunTrace:
    """A run's totals and, when recorded, its rounds, whose equal
    `(transition, messages)` entries share one object; `to_text()`
    expands them on each call, in memory proportional to its output.
    `particles` are the run's sorted particles and `seed` its shuffle
    seed, None unless the schedule shuffles."""

    log: list[TraceRound] = field(default_factory=list)
    rounds: int = 0
    activations: int = 0
    particles: Sequence[Coord] = ()
    seed: Optional[int] = None

    def orders(self) -> Iterator[Sequence[Coord]]:
        """Each logged round's activation order, in log order.  A fixed
        order is the one the round holds; a shuffled round is redrawn
        here, one at a time, from the seed's rng in the engine's sequence
        (a shuffle's permutation depends only on the length)."""
        rng = random.Random(self.seed) if self.seed is not None else None
        for r in self.log:
            yield _shuffled(self.particles, rng) if r.order is None else r.order

    @property
    def events(self) -> range:
        """The recorded activations, as a count: all of them on a
        recorded run, none on an unrecorded one."""
        return range(self.activations if self.log else 0)

    def to_text(self) -> str:
        # one string per round, so only one round's lines are live at once
        rounds = []
        name = quiet = None
        for number, (r, order) in enumerate(zip(self.log, self.orders()), 1):
            if r.algorithm != name:
                # a phase's rounds are logged together: its no-op lines,
                # keyed by particle
                name = r.algorithm
                quiet = {p: f"{p[0]},{p[1]}\t{name}\t-\t0\n" for p in self.particles}
            # every line as a no-op's, then the few that changed or sent
            lines = list(map(quiet.__getitem__, order))
            last = -1  # the round's last placed position
            for p, (transition, messages) in r.changes:
                # every activation since `last` changed nothing and sent
                # nothing, so it woke and mailed nobody: had p come up
                # among them, it would have slept since.  So p's first
                # place after `last` is this change's activation, also in
                # an explicit order that repeats p
                last = order.index(p, last + 1)
                lines[last] = f"{p[0]},{p[1]}\t{name}\t{transition}\t{messages}\n"
            head = f"{number}\t"
            rounds.append(head + head.join(lines))
        return "".join(rounds)


@dataclass(frozen=True)
class AlgorithmReport:
    name: str
    rounds_active: int  # rounds containing at least one state change
    rounds_total: int  # includes the final confirming round
    messages: int  # taken in: steps with mail that changed state
    sends: int  # emitted


@dataclass
class RunResult:
    states: dict
    trace: RunTrace
    reports: list[AlgorithmReport]


def _shuffled(items: Sequence, rng: random.Random) -> list:
    """`rng.shuffle` of a copy of `items`: the same getrandbits draws, so
    the same permutation and rng state, inlined to save the method call
    per draw.  Position i draws j below i + 1 from (i + 1).bit_length()
    bits, so the bit count is fixed over each block of positions
    [2**(bits - 1) - 1, 2**bits - 2]."""
    order = list(items)
    getrandbits = rng.getrandbits
    top = len(order) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = (1 << (bits - 1)) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        top = low - 1
    return order


def _keyed_orders(
    schedule: Schedule, particles: list[Coord], keys: list[int]
) -> list[list[int]]:
    """The int keys of each explicit order of `schedule`, `keys[i]` being
    `particles[i]`'s; none for the other policies, a random one checked
    for a seed.  Each order is read once, into a list, and each cell
    keyed by the particle it equals: the order is accepted when every
    cell is a particle and every particle is named.  Otherwise the same
    list names a cell that is no (i, j) tuple, or it skips particles or
    names empty cells.  The run never reads `schedule.orders` again."""
    if schedule.policy == POLICY_RANDOM and schedule.seed is None:
        raise SimulationError("a random schedule needs a seed, not None")
    if schedule.policy in (POLICY_ROUND_ROBIN, POLICY_RANDOM):
        return []
    if schedule.policy != POLICY_EXPLICIT:
        raise SimulationError(f"unknown schedule policy {schedule.policy!r}")
    key_of = dict(zip(particles, keys)).get
    n = len(particles)
    keyed_orders = []
    try:
        rounds = enumerate(schedule.orders or ())
    except TypeError:
        raise SimulationError(
            f"explicit orders are {schedule.orders!r}, not a sequence of orders"
        ) from None
    for round_index, order in rounds:
        try:
            listed = list(order)
        except TypeError:
            raise SimulationError(
                f"explicit order for round {round_index} is {order!r}, "
                "not a sequence of cells"
            ) from None
        try:
            keyed = list(map(key_of, listed))
        except TypeError:  # an unhashable cell
            keyed = [None]
        found = set(keyed)  # None for a cell that is no particle
        if None in found or len(found) != n:
            for cell in listed:  # particles are (int, int) tuples
                if type(cell) is not tuple or list(map(type, cell)) != [int, int]:
                    raise SimulationError(
                        f"explicit order for round {round_index} names {cell!r}, "
                        "not an (i, j) cell"
                    )
            members, named = set(particles), set(listed)
            raise SimulationError(
                f"explicit order for round {round_index} skips "
                f"{sorted(members - named)}, names empty cells "
                f"{sorted(named - members)}"
            )
        keyed_orders.append(keyed)
    return keyed_orders


def run(
    config: ParticleConfig,
    pipeline: Sequence[str],
    schedule: Schedule,
    k: int = 1,
    max_activations: Optional[int] = None,
    record: bool = True,
) -> RunResult:
    """Run each named algorithm to quiescence, in order.

    `k` only matters for the identifier phase.  `record=False` keeps the
    totals but leaves `trace.log` empty, for bulk runs.
    """
    if not config.occupied:
        raise SimulationError("configuration has no particles")
    particles = config.particles()
    n = len(particles)
    cap = max_activations if max_activations is not None else 64 * n * max(2 * n, 8)
    shuffles = schedule.policy == POLICY_RANDOM
    rng = random.Random(schedule.seed) if shuffles else None

    w = config.key_width
    keys = [i * w + j for i, j in particles]
    orders = _keyed_orders(schedule, particles, keys)
    # the start state per frame offset; a miss is an offset out of range
    start = dict(enumerate(algorithms.start_states(config.kind)))
    offset = config.frame_offsets.get
    try:
        states = {q: start[offset(p, 0)] for p, q in zip(particles, keys)}
    except KeyError:
        p = next(p for p in particles if offset(p, 0) not in start)
        raise SimulationError(
            f"frame offset {offset(p)} at {p} outside [0,{len(start)})"
        ) from None
    # mail as (receiver's local port of arrival, payload) pairs
    inboxes: dict[int, list[tuple[int, tuple]]] = {q: [] for q in keys}
    trace = RunTrace(particles=particles, seed=schedule.seed if shuffles else None)
    cells = dict(zip(keys, particles)) if record else {}
    entries: dict[tuple[str, int], tuple[str, int]] = {}  # one object per distinct entry
    reports: list[AlgorithmReport] = []
    steps = algorithms.port_keys(config.kind, w)
    d = len(steps)

    for name in pipeline:
        proto = algorithms.make_protocol(name, config, k)
        step = proto.step
        can_act = algorithms.CAN_ACT[name]
        awake = {q for q, s in states.items() if can_act(s)}
        phase_round = 0
        rounds_active = 0
        phase_msgs = 0
        phase_sends = 0
        while True:
            if shuffles:
                # recorded as None: `RunTrace.orders()` shuffles the
                # particles, which come in the keys' order, from the seed
                order, shown = _shuffled(keys, rng), None
            elif phase_round < len(orders):
                order = orders[phase_round]
                shown = tuple(map(cells.__getitem__, order)) if record else None
            else:
                order, shown = keys, particles
            if trace.activations + len(order) > cap:
                raise SimulationError(f"activation cap {cap} exceeded during {name}")
            trace.activations += len(order)
            round_changed = False
            round_sends = 0
            changes: list[tuple[Coord, tuple[str, int]]] = []
            if record:
                trace.log.append(TraceRound(name, shown, changes))
            # only a step wakes a particle, so once none is awake the rest
            # of the round is no-ops: it is drawn, recorded and counted only
            for p in order if awake else ():
                if p not in awake:
                    continue
                inbox = inboxes[p]
                if inbox:
                    inboxes[p] = []
                state = states[p]
                new_state, outbox, woken = step(p, state, inbox, states)
                awake.discard(p)
                changed = new_state is not state
                if changed:
                    states[p] = new_state
                    round_changed = True
                    awake.update(woken)
                    if inbox:
                        phase_msgs += 1
                if outbox:
                    hop = steps[new_state.frame_offset]
                    for local_port, payload in outbox:
                        o, back = hop[local_port]
                        target = p + o
                        try:
                            receiver = states[target]
                        except KeyError:
                            i, j = particles[keys.index(p)]
                            ports = algorithms.port_steps(config.kind)
                            di, dj, _ = ports[new_state.frame_offset][local_port]
                            raise SimulationError(
                                f"{name}: {(i, j)} sends through local port "
                                f"{local_port} toward empty cell {(i + di, j + dj)}"
                            ) from None
                        # the receiver's local label of the reverse edge
                        via = (back - receiver.frame_offset) % d
                        inboxes[target].append((via, payload))
                        awake.add(target)
                    round_sends += len(outbox)
                if record and (changed or outbox):
                    entry = (
                        proto.describe(state, new_state) if changed else "-",
                        len(outbox),
                    )
                    changes.append((cells[p], entries.setdefault(entry, entry)))
                if not awake:
                    break
            phase_sends += round_sends
            trace.rounds += 1
            phase_round += 1
            if round_changed:
                rounds_active += 1
            if not round_changed and not round_sends:
                break
        reports.append(
            AlgorithmReport(
                name=name,
                rounds_active=rounds_active,
                rounds_total=phase_round,
                messages=phase_msgs,
                sends=phase_sends,
            )
        )
    states_at = {p: states[q] for p, q in zip(particles, keys)}
    return RunResult(states=states_at, trace=trace, reports=reports)

"""Local algorithms: leader election, spanning tree, frame agreement, ids.

Every algorithm is written as a protocol object with a pure step
function `step(p, state, inbox, states)`.  The engine keys every cell by
the int i * w + j of `particles.key_width`, so p is such a key, `states`
maps the particles' keys to their states, and the cell (di, dj) away
from p is the key p + di * w + dj.  Given the particle's state and
inbox, a list of (via_port, payload) pairs, a step returns the next
state, the messages to emit as (local port, payload) pairs, and the
keys of the particles its change wakes.  Port numbers held in particle
state (parent_port, and child_ports, a tuple in increasing order) are
always in the particle's own frame; the engine translates to the
receiver's frame on delivery.  A payload is None (tree), the sender's
port label (renumber) or its color (ids).  An outbox is a sequence of
such pairs, and may be one tuple that every step sending the same mail
shares (`port_sets`): the engine and every other reader of an outbox
only read it.  Each protocol builds its per-grid tables once, at
construction.

A particle's state is a `ParticleState`, an immutable tuple of seven
fields, and a step builds a changed one in a single tuple build.  A step
must return the identical state object when nothing changed; quiescence
detection relies on it.  A step reads nothing but p, its own
state, its inbox and the cells at its algorithm's `read_offsets` from p
(elect: its slot cells, so the ports plus the corners on the square
grid; tree: its ports; renumber and ids: none).  On an empty inbox only
a state for which its algorithm's `CAN_ACT` predicate holds may change
or send.  Steps are idempotent: stepped again on an empty inbox with its
read cells unchanged, a particle changes nothing and sends nothing.

The engine relies on these contracts to step a particle only when it
has mail or a change may have given it something to do.  A step that
changes nothing wakes nobody; a change of p wakes:
- elect: the candidates in p's slot cells, which its mask has just read;
- tree: on a join of p, the neighbours whose mail p took, except its
  parent: those are all its joined neighbours (see below), and each
  holds p as a child.  On a prune, nobody.  Of a neighbour, a tree step
  reads only whether it has joined and, through
  `ParticleState.parent_direction`, whether its parent port faces the
  reader, and only a join changes that;
- renumber and ids: nobody, as their steps read no other cell.

The tree phase relies on the engine's sequential, immediate delivery.
A joiner's children, its occupied ports minus those its mail came
through, are exactly its unjoined neighbours: each neighbour that
joined before it found it unjoined and sent to it at once.  So no mail
reaches a joined particle, and the leader, which joins first, is
nobody's child.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import NamedTuple, Optional

from .coloring import color_steps
from .grid import (
    Coord,
    GridKind,
    degree,
    directions,
    opposite_port,
)
from .particles import (
    ParticleConfig,
    removal_table,
    slot_cells,
)

STATUS_CANDIDATE = "C"
STATUS_NON_CANDIDATE = "N"
STATUS_LEADER = "L"

ELECT = "elect"
TREE = "tree"
RENUMBER = "renumber"
IDS = "ids"
PIPELINE_FULL = (ELECT, TREE, RENUMBER, IDS)


class ParticleState(NamedTuple):
    """A particle's O(1) memory: an immutable tuple of seven fields.

    Immutability matters because states are shared: every particle at
    one frame offset starts from the same `start_states` object, in
    every run, and a step that changes nothing returns the very object
    it got, so identity means "unchanged".  A step unpacks its own state
    by field name and builds its successor with `_successor`, one tuple
    build, because the generated constructor and `_replace` parse their
    arguments on every call.  Of another particle's state a step reads
    attributes only.
    """

    status: str = STATUS_CANDIDATE
    parent_port: Optional[int] = None
    child_ports: tuple = ()  # increasing
    local_id: Optional[int] = None
    frame_offset: int = 0
    tree_joined: bool = False
    renumber_done: bool = False

    def parent_direction(self, d: int) -> Optional[int]:
        """The canonical direction (of `d`) the parent port faces, or None:
        a register a neighbour reads across the shared edge ("does your
        parent port face me?"), which tells it nothing of this frame."""
        if self.parent_port is None:
            return None
        return (self.parent_port + self.frame_offset) % d


# A ParticleState from a tuple of its seven fields in order, unchecked.
_successor = partial(tuple.__new__, ParticleState)


@lru_cache(maxsize=None)
def port_steps(kind: GridKind) -> tuple:
    """Per frame offset f, per local port a: (di, dj, r), the lattice step
    through a, and r, the canonical port by which the neighbour there
    reaches back (`opposite_port`).  The one direction table of
    `port_keys` (so of the engine and the tree step), the ids step,
    `tree_height` and `verify_run`."""
    dirs = directions(kind)
    d = len(dirs)
    return tuple(
        tuple((*dirs[(a + f) % d], opposite_port(kind, (a + f) % d)) for a in range(d))
        for f in range(d)
    )


@lru_cache(maxsize=64)
def port_keys(kind: GridKind, w: int) -> tuple:
    """`port_steps` on int cell keys of width `w`: per frame offset, per
    local port, (di * w + dj, r)."""
    return tuple(
        tuple((di * w + dj, back) for di, dj, back in hop) for hop in port_steps(kind)
    )


@lru_cache(maxsize=None)
def bit_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """Per mask below 2**n, the indices of its set bits as an increasing
    tuple: one shared tuple per set of ports or slots.  The masks with top
    bit b are the masks below 2**b plus b, so each set is built by one
    tuple concatenation."""
    sets = [()]
    for b in range(n):
        sets += [c + (b,) for c in sets]
    return tuple(sets)


@lru_cache(maxsize=None)
def port_sets(kind: GridKind) -> tuple[tuple[dict, ...], dict, dict]:
    """The port sets the steps send and turn, as lookups keyed by the
    increasing tuple of the ports (`bit_sets` of the degree), each value a
    tuple shared by every run: (turned, relays, joins).  `turned[s]` maps
    the ports to the ports turned by s, increasing again (renumber's
    relabel); `relays` maps them to the (a, a) outbox of renumber and
    `joins` to the (a, None) outbox of a tree join."""
    d = degree(kind)
    sets = bit_sets(d)
    full = len(sets) - 1
    turned = tuple(
        dict(zip(sets, [
            sets[(m << s | m >> (d - s)) & full] for m in range(len(sets))
        ]))
        for s in range(d)
    )
    # built in `bit_sets`'s order, so entry m holds the ports of mask m
    relays, joins = [()], [()]
    for a in range(d):
        relays += [r + ((a, a),) for r in relays]
        joins += [r + ((a, None),) for r in joins]
    return turned, dict(zip(sets, relays)), dict(zip(sets, joins))


@lru_cache(maxsize=None)
def start_states(kind: GridKind) -> tuple[ParticleState, ...]:
    """The initial state per frame offset: immutable, so every particle
    with that offset shares it, in every run."""
    return tuple(ParticleState(frame_offset=f) for f in range(degree(kind)))


def read_offsets(name: str, kind: GridKind) -> tuple[Coord, ...]:
    """The cells, as offsets from p, whose states a step of `name` reads."""
    if name == ELECT:
        return tuple(c for _, c in slot_cells(kind, (0, 0)))
    if name == TREE:
        return directions(kind)
    if name in (RENUMBER, IDS):
        return ()
    raise ValueError(f"unknown algorithm {name!r}")


# Per algorithm, the states that can change or send on an empty inbox;
# any other state's step on an empty inbox returns it and sends nothing.
CAN_ACT = {
    ELECT: lambda s: s.status == STATUS_CANDIDATE,
    TREE: lambda s: bool(s.child_ports) if s.tree_joined else s.status == STATUS_LEADER,
    RENUMBER: lambda s: s.status == STATUS_LEADER and not s.renumber_done,
    IDS: lambda s: s.status == STATUS_LEADER and s.local_id is None,
}


class ElectProtocol:
    """Candidate elimination by local contraction tests.

    A candidate whose candidate neighborhood would stay connected after
    its removal retires; it becomes the leader instead when it is the
    last candidate in sight.  On every grid the retirement must also open
    no hole by `find_holes` (see `removal_table`), which on the king grid
    refuses a candidate whose four orthogonal neighbors all stay; without
    that, erosion builds diagonal crowns that no port-local rule can take
    apart.  Reads neighbor statuses only, sends nothing.
    """

    def __init__(self, config: ParticleConfig):
        self.table = removal_table(config.kind)
        w = config.key_width
        self.slots = tuple(
            (bit, di * w + dj) for bit, (di, dj) in slot_cells(config.kind, (0, 0))
        )
        # slot i is bit 1 << i of the mask
        self.offs = tuple(o for _, o in self.slots)
        self.bits = bit_sets(len(self.slots))

    def step(self, p, state, inbox, states):
        if state.status != STATUS_CANDIDATE:
            return state, (), ()
        get = states.get
        mask = 0
        for bit, o in self.slots:
            qs = get(p + o)  # None on an empty cell
            if qs is not None and qs.status == STATUS_CANDIDATE:
                mask |= bit
        if not self.table[mask]:
            return state, (), ()
        # the candidates stay connected: one in a corner slot means one behind a port
        status = STATUS_NON_CANDIDATE if mask else STATUS_LEADER
        offs = self.offs
        woken = [p + offs[i] for i in self.bits[mask]]
        _, parent_port, child_ports, local_id, frame_offset, tree_joined, renumber_done = state
        new = _successor((
            status, parent_port, child_ports, local_id, frame_offset, tree_joined, renumber_done
        ))
        return new, (), woken

    def describe(self, old, new):
        return f"{old.status}->{new.status}"


class TreeProtocol:
    """Spanning tree by flooding from the leader.

    A particle joins on its first delivery, the leader on its first step
    with none: parent is the first delivering port, children are the
    occupied ports minus every port mail came through, so exactly its
    unjoined neighbours (see the module docstring).  A joined particle
    then drops each child that, read from the snapshot, has joined under
    another parent.
    """

    def __init__(self, config: ParticleConfig):
        self.ports = port_keys(config.kind, config.key_width)
        self.d = len(self.ports)
        self.joins = port_sets(config.kind)[2]

    def step(self, p, state, inbox, states):
        if not state.tree_joined and not inbox and state.status != STATUS_LEADER:
            return state, (), ()
        hop = self.ports[state.frame_offset]
        if not state.tree_joined:
            got = 0  # the ports mail came through, as bits
            for via, _ in inbox:
                got |= 1 << via
            kids = tuple([
                a
                for a, (o, _) in enumerate(hop)
                if not got >> a & 1 and p + o in states
            ])
            status, _, _, local_id, frame_offset, _, renumber_done = state
            new = _successor((
                status,
                inbox[0][0] if inbox else None,
                kids,
                local_id,
                frame_offset,
                True,
                renumber_done,
            ))
            # every sender but the parent now finds p joined under a
            # parent port that does not face it
            woken = [p + hop[via][0] for via, _ in inbox[1:]] if len(inbox) > 1 else ()
            return new, self.joins[kids], woken
        # joined, so its inbox is empty: keep each child unless it has
        # joined under a parent port that does not face p
        d = self.d
        kept = []
        for a in state.child_ports:
            o, back = hop[a]
            qs = states[p + o]
            if not qs.tree_joined or qs.parent_direction(d) == back:
                kept.append(a)
        if len(kept) == len(state.child_ports):
            return state, (), ()
        status, parent_port, _, local_id, frame_offset, tree_joined, renumber_done = state
        new = _successor((
            status, parent_port, tuple(kept), local_id, frame_offset, tree_joined, renumber_done
        ))
        return new, (), ()

    def describe(self, old, new):
        kids = ",".join(map(str, new.child_ports)) or "-"
        if not old.tree_joined and new.tree_joined:
            if new.status == STATUS_LEADER:
                return f"root children={kids}"
            return f"join parent={new.parent_port} children={kids}"
        return f"prune children={kids}"


class RenumberProtocol:
    """Port relabeling along the tree until every frame matches the root.

    The payload is the sender's label of the port it sends through.  A
    receiver learning label b through its own port a rotates all its
    labels by (opposite(b) - a): afterwards its label of a port equals
    the label its parent would use for the same direction, hence, by
    induction, the leader's.
    """

    def __init__(self, config: ParticleConfig):
        self.d = degree(config.kind)
        # at frame offset 0 a local port is the canonical one
        self.opposite = tuple(back for _, _, back in port_steps(config.kind)[0])
        self.turned, self.relays, _ = port_sets(config.kind)

    def step(self, p, state, inbox, states):
        if state.status == STATUS_LEADER:
            if state.renumber_done:
                return state, (), ()
            status, parent_port, child_ports, local_id, frame_offset, tree_joined, _ = state
            new = _successor((
                status, parent_port, child_ports, local_id, frame_offset, tree_joined, True
            ))
            return new, self.relays[child_ports], ()
        if state.renumber_done or not inbox:
            return state, (), ()
        d = self.d
        via, b = inbox[0]
        shift = (self.opposite[b] - via) % d
        status, parent_port, child_ports, local_id, frame_offset, tree_joined, _ = state
        child_ports = self.turned[shift][child_ports]
        new = _successor((
            status,
            (parent_port + shift) % d,
            child_ports,
            local_id,
            (frame_offset - shift) % d,
            tree_joined,
            True,
        ))
        return new, self.relays[child_ports], ()

    def describe(self, old, new):
        if new.status == STATUS_LEADER:
            return "renumber send"
        return f"renumber offset={old.frame_offset}->{new.frame_offset}"


class IdsProtocol:
    """Identifier assignment by coloring the tree from the root.

    Runs after frame agreement.  The payload is the sender's color, its
    id; the receiver's cell is one step from the sender's along the
    direction by which the sender reaches it, so `color_steps` gives its
    color.  The root takes color 0, the color of its own cell (0, 0).
    """

    def __init__(self, config: ParticleConfig, k: int):
        self.steps = port_steps(config.kind)
        self.colors = color_steps(config.kind, k)

    def step(self, p, state, inbox, states):
        if state.local_id is not None or not (inbox or state.status == STATUS_LEADER):
            return state, (), ()
        if inbox:
            via, got = inbox[0]
            c = self.colors[got][self.steps[state.frame_offset][via][2]]
        else:  # the leader, which no mail reaches
            c = 0
        status, parent_port, child_ports, _, frame_offset, tree_joined, renumber_done = state
        new = _successor((
            status, parent_port, child_ports, c, frame_offset, tree_joined, renumber_done
        ))
        return new, [(a, c) for a in child_ports], ()

    def describe(self, old, new):
        return f"id={new.local_id}"


def make_protocol(name: str, config: ParticleConfig, k: int):
    if name == ELECT:
        return ElectProtocol(config)
    if name == TREE:
        return TreeProtocol(config)
    if name == RENUMBER:
        return RenumberProtocol(config)
    if name == IDS:
        return IdsProtocol(config, k)
    raise ValueError(f"unknown algorithm {name!r}")


def update_id_after_move(
    kind: GridKind, k: int, state: ParticleState, port: int
) -> ParticleState:
    """Refresh the id after moving through a local port.

    The move is one step along the port's canonical direction, so the
    new id is the color one step on from the old one; the frame offset
    is unaffected because a move translates the particle without turning
    it.
    """
    if state.local_id is None:
        raise ValueError("particle has no id")
    d = degree(kind)
    if not 0 <= port < d:
        raise ValueError(f"port {port} out of range for {GridKind(kind).value} grid")
    return state._replace(
        local_id=color_steps(kind, k)[state.local_id][(port + state.frame_offset) % d]
    )


# Inspection helpers over a finished run's states.


def leader_cells(states: dict) -> list:
    """Every leader's cell, sorted."""
    return sorted(p for p, s in states.items() if s.status == STATUS_LEADER)


def leader_of(states: dict) -> Optional[Coord]:
    found = leader_cells(states)
    if len(found) > 1:
        raise ValueError(f"multiple leaders {found}")
    return found[0] if found else None


def tree_parent(kind: GridKind, states: dict, p: Coord) -> Optional[Coord]:
    dirs = directions(kind)
    c = states[p].parent_direction(len(dirs))
    if c is None:
        return None
    return (p[0] + dirs[c][0], p[1] + dirs[c][1])


def tree_height(kind: GridKind, states: dict) -> int:
    """Levels of the tree: a lone root counts 1."""
    root = leader_of(states)
    if root is None:
        raise ValueError("no leader")
    steps = port_steps(kind)
    depth = {root: 1}
    queue = [root]
    while queue:
        p = queue.pop()
        s = states[p]
        hop = steps[s.frame_offset]
        level = depth[p] + 1
        for a in s.child_ports:
            di, dj, _ = hop[a]
            q = (p[0] + di, p[1] + dj)
            if q not in states:
                raise ValueError(f"child {q} of {p} is not a particle")
            if q not in depth:
                depth[q] = level
                queue.append(q)
    if len(depth) != len(states):
        raise ValueError("tree does not span the system")
    return max(depth.values())


def id_histogram(states: dict) -> dict:
    hist: dict = {}
    for s in states.values():
        if s.local_id is not None:
            hist[s.local_id] = hist.get(s.local_id, 0) + 1
    return dict(sorted(hist.items()))

"""Local algorithms: leader election, spanning tree, frame agreement, ids.

Every algorithm is written as a protocol object with a pure step
function: given the particle's state and inbox it returns the next state
and the messages to emit.  Port numbers held in particle state
(parent_port, child_ports) are always in the particle's own frame; the
engine translates to the receiver's frame on delivery.

A step must return the identical state object when nothing changed;
quiescence detection relies on it.  A step reads nothing but p, its own
state, its inbox and the cells at its algorithm's `read_offsets` from p
(elect: its slot cells, so the ports plus the corners on the square
grid; tree: its ports; renumber and ids: none).  On an empty inbox only
a state for which its algorithm's `CAN_ACT` predicate holds may change
or send.  Steps are idempotent: stepped again on an empty inbox with its
read cells unchanged, a particle changes nothing and sends nothing.

The engine relies on these contracts to step a particle only when it
has mail or a change may have given it something to do.  Each
algorithm's `wake_rule` names whom a change of p wakes:
- elect: the candidates in p's slot cells;
- tree: on a join of p, the joined neighbours except the one p's parent
  port faces; on a prune, nobody.  Of a neighbour, a tree step reads
  only whether it has joined and, through
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

from dataclasses import dataclass
from typing import Optional

from .coloring import color_at, coord_update_receive, pattern, tracking_modulus
from .grid import (
    Coord,
    GridKind,
    degree,
    directions,
    next_occupied_port,
    opposite_port,
    port_direction,
)
from .particles import (
    ParticleConfig,
    occupied_ports,
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


@dataclass(frozen=True)
class ParticleState:
    status: str = STATUS_CANDIDATE
    parent_port: Optional[int] = None
    child_ports: frozenset = frozenset()
    coord_i: Optional[int] = None
    coord_j: Optional[int] = None
    local_id: Optional[int] = None
    frame_offset: int = 0
    tree_joined: bool = False
    renumber_done: bool = False
    ids_done: bool = False

    def parent_direction(self, d: int) -> Optional[int]:
        """The canonical direction (of `d`) the parent port faces, or None:
        a register a neighbour reads across the shared edge ("does your
        parent port face me?"), which tells it nothing of this frame."""
        if self.parent_port is None:
            return None
        return (self.parent_port + self.frame_offset) % d


def _evolve(state: ParticleState, **changes) -> ParticleState:
    """`dataclasses.replace` without its per-call field introspection,
    which dominated step time; ParticleState has no __post_init__."""
    new = object.__new__(ParticleState)
    new.__dict__.update(state.__dict__, **changes)
    return new


def initial_states(config: ParticleConfig) -> dict:
    # states are immutable, so particles with equal offsets share one
    by_offset = [ParticleState(frame_offset=f) for f in range(degree(config.kind))]
    return {p: by_offset[config.offset(p)] for p in config.particles()}


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
    IDS: lambda s: s.status == STATUS_LEADER and not s.ids_done,
}


def _wake_none(p, old, new, states):
    return ()


def wake_rule(name: str, kind: GridKind):
    """`wakes(p, old, new, states)`: the particles that p's change from
    `old` to `new` can make act on an empty inbox, read from `states`
    after the change.  Every other particle's next step on an empty
    inbox would change nothing and send nothing."""
    if name == ELECT:
        slots = read_offsets(ELECT, kind)

        def wakes(p, old, new, states):
            i, j = p
            out = []
            for di, dj in slots:
                q = (i + di, j + dj)
                qs = states.get(q)
                if qs is not None and qs.status == STATUS_CANDIDATE:
                    out.append(q)
            return out

        return wakes
    if name == TREE:
        dirs = directions(kind)
        d = len(dirs)

        def wakes(p, old, new, states):
            if old.tree_joined:
                return ()  # a prune: no neighbour reads child ports
            # every joined neighbour holds p as a child (see the module
            # docstring); the root has no parent port, so it skips none
            parent = new.parent_direction(d)
            i, j = p
            out = []
            for c, (di, dj) in enumerate(dirs):
                if c == parent:
                    continue
                q = (i + di, j + dj)
                qs = states.get(q)
                if qs is not None and qs.tree_joined:
                    out.append(q)
            return out

        return wakes
    if name in (RENUMBER, IDS):
        return _wake_none
    raise ValueError(f"unknown algorithm {name!r}")


class ElectProtocol:
    """Candidate elimination by local contraction tests.

    A candidate whose candidate neighborhood would stay connected after
    its removal retires; it becomes the leader instead when it is the
    last candidate in sight.  On the king grid it must in addition be
    (8,4)-simple (see `removal_table`), so the retirement opens no pocket
    of the 4-adjacent background; without that, erosion builds diagonal
    crowns that no port-local rule can take apart.  Reads neighbor
    statuses only, sends nothing.
    """

    name = ELECT

    def __init__(self, config: ParticleConfig):
        self.kind = config.kind
        self.table = removal_table(config.kind)
        self.slots = slot_cells(config.kind, (0, 0))
        self.port_bits = (1 << degree(config.kind)) - 1

    def step(self, p, state, inbox, states):
        if state.status != STATUS_CANDIDATE:
            return state, (), 0
        i, j = p
        mask = 0
        for bit, (di, dj) in self.slots:
            qs = states.get((i + di, j + dj))  # None on an empty cell
            if qs is not None and qs.status == STATUS_CANDIDATE:
                mask |= bit
        if not self.table[mask]:
            return state, (), 0
        # a candidate neighbor through a port (not a corner) means others remain
        status = STATUS_NON_CANDIDATE if mask & self.port_bits else STATUS_LEADER
        return _evolve(state, status=status), (), 0

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

    name = TREE
    payload = (TREE,)

    def __init__(self, config: ParticleConfig):
        self.kind = config.kind
        dirs = directions(config.kind)
        d = self.d = len(dirs)
        # per frame offset, per local port: (the canonical direction from
        # that neighbour back to p, di, dj)
        self.ports = tuple(
            tuple(((a + f + d // 2) % d, *dirs[(a + f) % d]) for a in range(d))
            for f in range(d)
        )

    def _child_gone(self, p, local_port, state, states):
        # true when the neighbor through local_port has joined under a
        # parent port that does not face p
        back, di, dj = self.ports[state.frame_offset][local_port]
        qs = states[(p[0] + di, p[1] + dj)]
        return qs.tree_joined and qs.parent_direction(self.d) != back

    def step(self, p, state, inbox, states):
        if not state.tree_joined:
            if not inbox and state.status != STATUS_LEADER:
                return state, (), 0
            receipts = {m.via_port for m in inbox}
            i, j = p
            children = frozenset(
                a
                for a, (_, di, dj) in enumerate(self.ports[state.frame_offset])
                if (i + di, j + dj) in states and a not in receipts
            )
            outbox = [(a, self.payload) for a in sorted(children)]
            new = _evolve(
                state,
                tree_joined=True,
                parent_port=inbox[0].via_port if inbox else None,
                child_ports=children,
            )
            return new, outbox, 1 if inbox else 0
        # joined, so its inbox is empty
        gone = {a for a in state.child_ports if self._child_gone(p, a, state, states)}
        if gone:
            return _evolve(state, child_ports=state.child_ports - gone), (), 0
        return state, (), 0

    def describe(self, old, new):
        kids = ",".join(str(a) for a in sorted(new.child_ports)) or "-"
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

    name = RENUMBER

    def __init__(self, config: ParticleConfig):
        self.kind = config.kind
        self.d = degree(config.kind)

    def _send_children(self, state):
        return [(a, (RENUMBER, a)) for a in sorted(state.child_ports)]

    def step(self, p, state, inbox, states):
        if state.status == STATUS_LEADER:
            if state.renumber_done:
                return state, (), 0
            return _evolve(state, renumber_done=True), self._send_children(state), 0
        if state.renumber_done or not inbox:
            return state, (), 0
        m = inbox[0]
        b = m.payload[1]
        shift = (opposite_port(self.kind, b) - m.via_port) % self.d
        new = _evolve(
            state,
            renumber_done=True,
            frame_offset=(state.frame_offset - shift) % self.d,
            parent_port=(state.parent_port + shift) % self.d,
            child_ports=frozenset((a + shift) % self.d for a in state.child_ports),
        )
        return new, self._send_children(new), 1

    def describe(self, old, new):
        if new.status == STATUS_LEADER:
            return "renumber send"
        return f"renumber offset={old.frame_offset}->{new.frame_offset}"


class IdsProtocol:
    """Identifier assignment from tracked displacements.

    Runs after frame agreement.  The payload is the sender's tracked
    coordinate pair; the receiver subtracts the arrival direction,
    working modulo the tracking modulus, and takes its identifier from
    the coloring pattern.  The root tracks (0, 0).
    """

    name = IDS

    def __init__(self, config: ParticleConfig, k: int):
        self.kind = config.kind
        self.k = k
        self.d = degree(config.kind)
        self.pattern = pattern(config.kind, k)

    def _assign(self, state, i, j):
        return _evolve(
            state,
            ids_done=True,
            coord_i=i,
            coord_j=j,
            local_id=color_at(self.pattern, i, j),
        )

    def step(self, p, state, inbox, states):
        if state.status == STATUS_LEADER:
            if state.ids_done:
                return state, (), 0
            new = self._assign(state, 0, 0)
            outbox = [(a, (IDS, 0, 0)) for a in sorted(state.child_ports)]
            return new, outbox, 0
        if state.ids_done or not inbox:
            return state, (), 0
        m = inbox[0]
        canon = (m.via_port + state.frame_offset) % self.d
        i, j = coord_update_receive(
            self.kind, self.k, (m.payload[1], m.payload[2]), canon
        )
        new = self._assign(state, i, j)
        outbox = [(a, (IDS, i, j)) for a in sorted(state.child_ports)]
        return new, outbox, 1

    def describe(self, old, new):
        return f"coords=({new.coord_i},{new.coord_j}) id={new.local_id}"


def make_protocol(name: str, config: ParticleConfig, k: int = 1):
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
    """Refresh tracked coordinates and id after moving through a local port.

    Moving through the port adds its direction to the particle's
    displacement from the root; the frame offset is unaffected because a
    move translates the particle without turning it.
    """
    if state.coord_i is None or state.coord_j is None:
        raise ValueError("particle has no tracked coordinates")
    canon = (port + state.frame_offset) % degree(kind)
    di, dj = port_direction(kind, canon)
    m = tracking_modulus(kind, k)
    i = (state.coord_i + di) % m
    j = (state.coord_j + dj) % m
    return _evolve(state, coord_i=i, coord_j=j, local_id=color_at(pattern(kind, k), i, j))


def classify_boundary(
    config: ParticleConfig, start: Coord, start_port: int
) -> tuple[str, int]:
    """Walk a boundary cycle and classify which side it hugs.

    The walk state is (particle, canonical arrival port); the next hop
    leaves through the first occupied port clockwise after the arrival
    port.  Summed turning over the closed cycle is one full turn: minus
    the grid degree when the unoccupied side is the outer face, plus the
    degree around a hole.  Returns the classification and the cycle
    length in hops; a lone particle is the degenerate outer cycle of
    length zero.
    """
    if start not in config.occupied:
        raise ValueError(f"start {start} is not occupied")
    if config.n == 1:
        return "outer", 0
    d = degree(config.kind)
    occ = {p: occupied_ports(config, p) for p in config.particles()}
    if start_port not in occ[start]:
        raise ValueError(f"start port {start_port} has no occupied neighbor")
    cur, inp = start, start_port
    turning = 0
    length = 0
    hugged_unoccupied = False
    while True:
        ports = occ[cur]
        out = next_occupied_port(config.kind, inp, ports)
        skipped = (out - inp - 1) % d  # ports faced while sweeping to out
        if skipped:
            hugged_unoccupied = True
        # straight through (out opposite inp) turns 0; a tighter exit is a
        # positive turn, a wider sweep negative, a full U-turn -d/2
        turning += d // 2 - 1 - skipped
        di, dj = port_direction(config.kind, out)
        cur = (cur[0] + di, cur[1] + dj)
        inp = opposite_port(config.kind, out)
        length += 1
        if (cur, inp) == (start, start_port):
            break
    if not hugged_unoccupied:
        raise ValueError("walk never faces an empty cell; not a boundary state")
    if turning not in (-d, d):
        raise AssertionError(f"boundary walk turned {turning}, expected +-{d}")
    return ("outer" if turning < 0 else "hole"), length


# Inspection helpers over a finished run's states.


def leader_of(states: dict) -> Optional[Coord]:
    found = [p for p, s in states.items() if s.status == STATUS_LEADER]
    if len(found) > 1:
        raise ValueError(f"multiple leaders {sorted(found)}")
    return found[0] if found else None


def tree_parent(kind: GridKind, states: dict, p: Coord) -> Optional[Coord]:
    dirs = directions(kind)
    c = states[p].parent_direction(len(dirs))
    if c is None:
        return None
    return (p[0] + dirs[c][0], p[1] + dirs[c][1])


def tree_children(kind: GridKind, states: dict, p: Coord) -> list:
    s = states[p]
    dirs = directions(kind)
    out = []
    for a in sorted(s.child_ports):
        di, dj = dirs[(a + s.frame_offset) % len(dirs)]
        out.append((p[0] + di, p[1] + dj))
    return out


def tree_edges(kind: GridKind, states: dict) -> set:
    return {
        frozenset((p, tree_parent(kind, states, p)))
        for p in states
        if states[p].parent_port is not None
    }


def tree_height(kind: GridKind, states: dict) -> int:
    """Levels of the tree: a lone root counts 1."""
    root = leader_of(states)
    if root is None:
        raise ValueError("no leader")
    depth = {root: 1}
    queue = [root]
    while queue:
        p = queue.pop()
        for q in tree_children(kind, states, p):
            if q not in states:
                raise ValueError(f"child {q} of {p} is not a particle")
            if q not in depth:
                depth[q] = depth[p] + 1
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

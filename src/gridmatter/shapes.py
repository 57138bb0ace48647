"""Config text and shape generators.

Config files are line-based: `grid <kind>`, `k <int>`, `seed <int>`,
`particle <i> <j> <offset>`, with `#` starting a comment.  The grid
line must precede particle lines so offsets can be range-checked, and
each of the grid, k and seed lines may appear once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .grid import GridKind, degree, directions
from .particles import ParticleConfig, removal_table, slot_cells


@dataclass(frozen=True)
class ConfigDoc:
    config: ParticleConfig
    k: int = 1
    seed: int = 0


def parse_config_text(text: str) -> ConfigDoc:
    kind: Optional[GridKind] = None
    d = 0
    k = 1
    seed = 0
    offsets = {}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        word = fields[0]
        try:
            # most lines are particle lines, and `seen` never holds one
            if word == "particle":
                if kind is None:
                    raise ValueError("grid line must come before particle lines")
                if len(fields) == 3:
                    i, j, w = int(fields[1]), int(fields[2]), 0
                elif len(fields) == 4:
                    i, j, w = int(fields[1]), int(fields[2]), int(fields[3])
                else:
                    raise ValueError("expected: particle i j [offset]")
                if not 0 <= w < d:
                    raise ValueError(f"offset {w} out of range for {kind.value}")
                if (i, j) in offsets:
                    raise ValueError(f"duplicate particle {i} {j}")
                offsets[(i, j)] = w
                continue
            args = fields[1:]
            if word in seen:
                raise ValueError(f"duplicate {word} line")
            seen.add(word)
            if word == "grid":
                if len(args) != 1:
                    raise ValueError("expected one grid kind")
                kind = GridKind(args[0])
                d = degree(kind)
            elif word == "k":
                (k,) = args
                k = int(k)
                if k < 1:
                    raise ValueError("k must be >= 1")
            elif word == "seed":
                (seed,) = args
                seed = int(seed)
            else:
                raise ValueError(f"unknown directive {word!r}")
        except (ValueError, TypeError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if kind is None:
        raise ValueError("missing grid line")
    if not offsets:
        raise ValueError("no particle lines")
    # the keys are int pairs and the offsets are range-checked above
    config = ParticleConfig(kind=kind, occupied=frozenset(offsets), frame_offsets=offsets)
    return ConfigDoc(config=config, k=k, seed=seed)


def serialize_config(doc: ConfigDoc) -> str:
    lines = [
        f"grid {doc.config.kind.value}",
        f"k {doc.k}",
        f"seed {doc.seed}",
    ]
    for p in doc.config.particles():
        lines.append(f"particle {p[0]} {p[1]} {doc.config.offset(p)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Shape generators


def gen_rect(w: int, h: int) -> list:
    if w < 1 or h < 1:
        raise ValueError("rect sides must be positive")
    return [(i, j) for i in range(w) for j in range(h)]


def gen_line(n: int) -> list:
    if n < 1:
        raise ValueError("line length must be positive")
    return [(i, 0) for i in range(n)]


def gen_ring(outer: int, inner: int) -> list:
    if inner >= outer:
        raise ValueError("ring inner size must be smaller than outer")
    if inner < 0:
        raise ValueError("ring inner size must be non-negative")
    hole = range((outer - inner) // 2, (outer - inner) // 2 + inner)
    return [(i, j) for i in range(outer) for j in range(outer) if i not in hole or j not in hole]


def gen_blob(kind: GridKind, n: int, rng: random.Random, allow_holes: bool = False) -> list:
    """Random connected growth of n cells, drawn from a frontier.

    `front` holds one entry per (grown cell, direction) pair whose target
    was free when that cell grew, starting with the origin's neighbours.
    Each step draws an entry uniformly.  An entry whose target has grown
    since is stale: it is swap-popped and the draw repeats.  Without
    --allow-holes a target is added only when it could leave again: when
    its slot mask, the occupancy of its 3x3 window, reads True in
    `removal_table`.  A refused entry stays, since its mask may change,
    and the draw repeats.  An added target's entry is swap-popped and
    the new cell's free neighbours are appended in `directions` order.

    Adding such a cell keeps the set's topology (Kong & Rosenfeld,
    "Digital topology", CVGIP 1989), so the set stays connected and
    hole-free as it grows.  The law is Eden growth's: the live entries
    are exactly the (cell, direction) pairs with a free target, each
    held once, so conditioned on acceptance the next cell is a uniform
    draw over the pairs whose target is free and addable, as when a
    grown cell and a direction are drawn and retried until they hit one.
    Growth never runs out of addable cells: the cell one step past a
    particle with the greatest i is free, so its entry is live; it sees
    occupied slots only behind it, one of them the port straight back,
    and every such mask is addable.

    Every draw is `rng.randrange(len(front))`'s, inlined to save a
    method call per draw: on CPython (3.10-3.12) it draws below m with
    `getrandbits(m.bit_length())`, redrawn while the result is >= m.
    `test_generator_draws_are_randrange_draws` pins this.

    The growth runs on int keys (i + b) * w + (j + b) with b = n + 2 and
    w = 2 * b, so a step (di, dj) adds di * w + dj.  Every cell grown or
    tested lies within n of the origin, so 0 < i + b, j + b < w: the
    keys are distinct and sort in (i, j) order, the returned list's order.
    """
    if n < 1:
        raise ValueError("blob size must be positive")
    kind = GridKind(kind)
    b = n + 2
    w = 2 * b
    dirs = [di * w + dj for di, dj in directions(kind)]
    table = removal_table(kind)
    window = [(bit, di * w + dj) for bit, (di, dj) in slot_cells(kind, (0, 0))]

    def addable(q: int) -> bool:
        mask = 0
        for bit, o in window:
            if q + o in occ:
                mask |= bit
        return table[mask]

    getrandbits = rng.getrandbits
    origin = b * w + b
    occ = {origin}
    front = [origin + o for o in dirs]
    size = 1
    while size < n:
        # rng.randrange(len(front))
        m = len(front)
        bits = m.bit_length()
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        q = front[r]
        if q in occ:
            front[r] = front[-1]
            front.pop()
            continue
        if not (allow_holes or addable(q)):
            continue
        occ.add(q)
        size += 1
        front[r] = front[-1]
        front.pop()
        front += [q + o for o in dirs if q + o not in occ]
    return [(k // w - b, k % w - b) for k in sorted(occ)]


def random_offsets(kind: GridKind, cells, rng: random.Random) -> dict:
    """`rng.randrange(degree)` per cell in sorted order, inlined as in
    `gen_blob`."""
    d = degree(GridKind(kind))
    bits = d.bit_length()
    getrandbits = rng.getrandbits
    offsets = {}
    for p in sorted(cells):
        w = getrandbits(bits)
        while w >= d:
            w = getrandbits(bits)
        offsets[p] = w
    return offsets


def generate_shape(
    kind: GridKind, tokens: list, seed: int, allow_holes: bool = False
) -> ParticleConfig:
    """tokens: shape name plus its parameters, e.g. ["rect", "3x3"]."""
    if not tokens:
        raise ValueError("missing shape")
    kind = GridKind(kind)
    shape, args = tokens[0], tokens[1:]
    rng = random.Random(seed)
    if shape == "rect":
        if len(args) != 1 or "x" not in args[0]:
            raise ValueError("rect takes WxH, e.g. rect 3x3")
        w, h = args[0].split("x", 1)
        cells = gen_rect(int(w), int(h))
    elif shape == "line":
        if len(args) != 1:
            raise ValueError("line takes a length")
        cells = gen_line(int(args[0]))
    elif shape == "ring":
        if len(args) != 2:
            raise ValueError("ring takes outer and inner sizes")
        cells = gen_ring(int(args[0]), int(args[1]))
    elif shape == "blob":
        if len(args) != 1:
            raise ValueError("blob takes a size")
        cells = gen_blob(kind, int(args[0]), rng, allow_holes=allow_holes)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    # each generator returns distinct int pairs as a sorted list, so
    # random_offsets' sort is linear; frozenset sizes its table once from
    # a dict, but regrows it from a list, up to twice as large
    offsets = random_offsets(kind, cells, rng)
    return ParticleConfig(kind=kind, occupied=frozenset(offsets), frame_offsets=offsets)

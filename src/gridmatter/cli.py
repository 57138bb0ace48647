"""Command line front end.

Subcommands: generate (shape families to config files), run (the
election / tree / renumber / ids pipeline with verification and
reports), verify (config file diagnostics), color-table, bound.

Exit codes: 0 success, 2 invariant failure, 3 stalled by holes,
4 input error.

Config files are line-based: `grid <kind>`, `k <int>`, `seed <int>`,
`particle <i> <j> <offset>`, with `#` starting a comment.  The grid
line must precede particle lines so offsets can be range-checked.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import click

from . import algorithms
from .coloring import (
    SUPPORTED_K,
    color_count,
    color_table_text,
    pattern,
    tracking_modulus,
)
from .grid import (
    Coord,
    GridKind,
    degree,
    directions,
    distance,
    opposite_port,
)
from .particles import (
    ParticleConfig,
    _bound_from,
    find_holes,
    holes_and_border,
    make_config,
    mtree,
    radius,
    removal_table,
    slot_cells,
    validate_config,
)
from .scheduler import (
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    Schedule,
    SimulationError,
    run as run_pipeline,
)

EXIT_INVARIANT = 2
EXIT_STALLED = 3
EXIT_INPUT = 4

SCHEDULE_FLAGS = {
    "roundrobin": POLICY_ROUND_ROBIN,
    "random": POLICY_RANDOM,
}


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        word, args = fields[0], fields[1:]
        try:
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
            elif word == "particle":
                if kind is None:
                    raise ValueError("grid line must come before particle lines")
                if len(args) == 2:
                    i, j = int(args[0]), int(args[1])
                    w = 0
                elif len(args) == 3:
                    i, j, w = int(args[0]), int(args[1]), int(args[2])
                else:
                    raise ValueError("expected: particle i j [offset]")
                if not 0 <= w < d:
                    raise ValueError(f"offset {w} out of range for {kind.value}")
                if (i, j) in offsets:
                    raise ValueError(f"duplicate particle {i} {j}")
                offsets[(i, j)] = w
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


def gen_rect(w: int, h: int) -> set:
    if w < 1 or h < 1:
        raise ValueError("rect sides must be positive")
    return {(i, j) for i in range(w) for j in range(h)}


def gen_line(n: int) -> set:
    if n < 1:
        raise ValueError("line length must be positive")
    return {(i, 0) for i in range(n)}


def gen_ring(outer: int, inner: int) -> set:
    if inner >= outer:
        raise ValueError("ring inner size must be smaller than outer")
    if inner < 0:
        raise ValueError("ring inner size must be non-negative")
    lo = (outer - inner) // 2
    carved = {(i, j) for i in range(lo, lo + inner) for j in range(lo, lo + inner)}
    return {(i, j) for i in range(outer) for j in range(outer)} - carved


def gen_blob(kind: GridKind, n: int, rng: random.Random, allow_holes: bool = False) -> set:
    """Random connected growth of n cells.

    Without --allow-holes the result is hole-free.  On the square and
    triangular grids pockets are filled and removable cells are then
    peeled back to the requested size, one drawn at random from the
    sorted list of removable cells per step.  On the king grid a cell is
    added only when it could leave again, so the set stays free of
    pockets of the 4-adjacent background as it grows, which is what the
    king election needs to elect.

    A cell is removable when it can leave the set (or, when free, join
    it) without changing the set's topology: the set stays connected and
    gains no hole, and on the king grid no pocket of the 4-adjacent
    background either.  That is a lookup of the cell's slot mask, the
    occupancy of its 3x3 window, in `removal_table`.  So removing a cell
    changes the removability only of the cells whose window holds it
    (Kong & Rosenfeld, "Digital topology", CVGIP 1989), and the peel
    keeps the sorted list up to date by re-testing just those cells: the
    list, and so every draw, is the one a full rescan would give.

    Every draw is `rng.choice`'s or `rng.randrange`'s, inlined to save a
    method call per draw: on CPython (3.10-3.12) both draw below m with
    `getrandbits(m.bit_length())`, redrawn while the result is >= m.
    `test_generator_draws_are_choice_and_randrange_draws` pins this.
    """
    if n < 1:
        raise ValueError("blob size must be positive")
    kind = GridKind(kind)
    dirs = directions(kind)
    table = removal_table(kind)
    window = [(bit, di, dj) for bit, (di, dj) in slot_cells(kind, (0, 0))]

    def removable(p: Coord) -> bool:
        i, j = p
        mask = 0
        for bit, di, dj in window:
            if (i + di, j + dj) in occ:
                mask |= bit
        return table[mask]

    grow_simple = kind == GridKind.KING and not allow_holes
    getrandbits = rng.getrandbits
    ndirs = len(dirs)
    dir_bits = ndirs.bit_length()
    occ = {(0, 0)}
    cells = [(0, 0)]
    size, size_bits = 1, 1
    while size < n:
        # rng.choice(cells), then rng.choice(dirs)
        r = getrandbits(size_bits)
        while r >= size:
            r = getrandbits(size_bits)
        i, j = cells[r]
        r = getrandbits(dir_bits)
        while r >= ndirs:
            r = getrandbits(dir_bits)
        di, dj = dirs[r]
        q = (i + di, j + dj)
        if q in occ or (grow_simple and not removable(q)):
            continue
        occ.add(q)
        cells.append(q)
        size += 1
        size_bits = size.bit_length()
    if allow_holes or grow_simple:
        return occ
    report = find_holes(ParticleConfig(kind=kind, occupied=frozenset(occ)))
    for hole in report.holes:
        occ.update(hole)
    peelable = sorted(p for p in occ if removable(p))
    while len(occ) > n:
        # rng.randrange(len(peelable)), which raises on an empty range
        m = len(peelable)
        if not m:
            raise ValueError("blob peel found no removable cell")
        bits = m.bit_length()
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        i, j = peelable.pop(r)
        occ.discard((i, j))
        # the cells whose window holds (i, j)
        for _, di, dj in window:
            q = (i - di, j - dj)
            if q not in occ:
                continue
            at = bisect_left(peelable, q)
            listed = at < len(peelable) and peelable[at] == q
            if removable(q) != listed:
                if listed:
                    del peelable[at]
                else:
                    peelable.insert(at, q)
    return occ


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
    # the generators make int pairs, and random_offsets gives each an offset
    offsets = random_offsets(kind, cells, rng)
    return ParticleConfig(kind=kind, occupied=frozenset(cells), frame_offsets=offsets)


# ---------------------------------------------------------------------------
# Run verification and reporting


def verify_run(config: ParticleConfig, k: int, states: dict) -> list:
    """Post-pipeline invariants; returns violation strings."""
    violations = []
    kind = config.kind
    leaders = [p for p, s in states.items() if s.status == algorithms.STATUS_LEADER]
    if len(leaders) != 1:
        violations.append(f"leaders={len(leaders)}")
        return violations
    leader = leaders[0]
    stragglers = [
        p
        for p, s in states.items()
        if p != leader and s.status != algorithms.STATUS_NON_CANDIDATE
    ]
    if stragglers:
        violations.append(f"non-retired={len(stragglers)}")

    # tree shape and reciprocity, from each particle's parent cell and
    # the cell behind each of its child ports
    dirs = directions(kind)
    d = len(dirs)

    def cell(p, s, port):
        di, dj = dirs[(port + s.frame_offset) % d]
        return (p[0] + di, p[1] + dj)

    parent = {
        p: cell(p, s, s.parent_port)
        for p, s in states.items()
        if s.parent_port is not None
    }
    child_port = {
        p: {cell(p, s, a): a for a in s.child_ports} for p, s in states.items()
    }
    if len(parent) != config.n - 1 or leader in parent:
        violations.append("tree-parent-count")
    try:
        algorithms.tree_height(kind, states)
    except ValueError as exc:
        violations.append(f"tree-span: {exc}")
    for p, q in parent.items():
        if q not in config.occupied:
            violations.append(f"tree-parent-off-system: {p}")
        elif p not in child_port[q]:
            violations.append(f"tree-reciprocity: {p}<->{q}")

    # frame agreement: equal offsets, and labels across every tree edge
    # are half-turn images of each other
    want = states[leader].frame_offset
    for p, s in states.items():
        if s.frame_offset != want:
            violations.append(f"frame-offset: {p}")
    for p, q in parent.items():
        if q in child_port and child_port[q].get(p) != opposite_port(
            kind, states[p].parent_port
        ):
            violations.append(f"port-reciprocity: {p}<->{q}")

    # identifier soundness
    m = tracking_modulus(kind, k)
    limit = color_count(kind, k)
    ids = {}
    for p, s in states.items():
        if s.local_id is None or s.coord_i is None:
            violations.append(f"unassigned: {p}")
            continue
        ids[p] = s.local_id
        if not 0 <= s.local_id < limit:
            violations.append(f"id-range: {p}")
        if s.coord_i != (p[0] - leader[0]) % m or s.coord_j != (p[1] - leader[1]) % m:
            violations.append(f"coords: {p}")
    # a pair within distance k is within k on each axis; offsets taken in
    # lexicographic order list each p's partners q > p in sorted order
    box = [(di, dj) for di in range(-k, k + 1) for dj in range(-k, k + 1)]
    for p in sorted(ids):
        for di, dj in box:
            q = (p[0] + di, p[1] + dj)
            if q > p and ids.get(q) == ids[p] and distance(kind, p, q) <= k:
                violations.append(f"id-collision: {p} {q}")
    return violations


def format_report(lines: list) -> str:
    return "\n".join(f"{key}={value}" for key, value in lines) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering

_STATUS_FILL = {
    algorithms.STATUS_CANDIDATE: "#e9a23b",
    algorithms.STATUS_NON_CANDIDATE: "#b9c4cc",
    algorithms.STATUS_LEADER: "#d23d3d",
}


def _svg_position(kind: GridKind, p: Coord) -> tuple:
    if kind == GridKind.TRIANGULAR:
        return (p[0] + p[1] * 0.5, p[1] * 0.8660254)
    return (float(p[0]), float(p[1]))


def render_svg(
    config: ParticleConfig, states: dict, show_ids: bool, show_tree: bool
) -> str:
    scale = 28.0
    pos = {p: _svg_position(config.kind, p) for p in config.particles()}
    xs = [xy[0] for xy in pos.values()]
    ys = [xy[1] for xy in pos.values()]
    ox, oy = min(xs) - 1, min(ys) - 1
    w = (max(xs) - ox + 2) * scale
    h = (max(ys) - oy + 2) * scale

    def at(p):
        x, y = pos[p]
        return (x - ox) * scale, h - (y - oy) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">'
    ]
    for p in config.particles():
        q = algorithms.tree_parent(config.kind, states, p) if show_tree else None
        if q is not None:
            x1, y1 = at(p)
            x2, y2 = at(q)
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                'stroke="#444444" stroke-width="2"/>'
            )
    for p in config.particles():
        x, y = at(p)
        s = states[p]
        fill = _STATUS_FILL.get(s.status, "#ffffff")
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{scale * 0.38:.1f}" '
            f'fill="{fill}" stroke="#222222"/>'
        )
        if show_ids and s.local_id is not None:
            parts.append(
                f'<text x="{x:.1f}" y="{y + 4:.1f}" font-size="11" '
                f'text-anchor="middle" font-family="monospace">{s.local_id}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands


@click.group()
def cli():
    """Particle-system simulator: election, tree, renumbering, ids."""


@cli.command()
@click.argument("shape", nargs=-1)
@click.option("--grid", "kind", type=click.Choice([k.value for k in GridKind]), default="square")
@click.option("--seed", type=int, default=0)
@click.option("--k", "k", type=int, default=1)
@click.option("--allow-holes", is_flag=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def generate(shape, kind, seed, k, allow_holes, output):
    """Emit a config file: rect WxH | line N | ring OUTER INNER | blob N."""
    if k < 1:
        click.echo("error: k must be >= 1", err=True)
        sys.exit(EXIT_INPUT)
    try:
        config = generate_shape(GridKind(kind), list(shape), seed, allow_holes)
    except (ValueError, TypeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    text = serialize_config(ConfigDoc(config=config, k=k, seed=seed))
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


def _load_doc(path: str) -> ConfigDoc:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    try:
        doc = parse_config_text(text)
    except ValueError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    problems = validate_config(doc.config)
    if problems:
        for msg in problems:
            click.echo(f"error: {path}: {msg}", err=True)
        sys.exit(EXIT_INPUT)
    return doc


def _stall_label(config: ParticleConfig) -> str:
    """The report's label for a stalled election.

    On the king grid a config with no hole can still enclose a pocket of
    the 4-adjacent background, around which the election stalls as well.
    """
    if find_holes(config).count:
        return "stalled-by-holes"
    if config.kind == GridKind.KING and find_holes(
        make_config(GridKind.SQUARE, config.occupied)
    ).count:
        return "stalled-by-4-pockets"
    return "stalled"


@cli.command("run")
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--k", type=int, default=None, help="override the config's k")
@click.option("--schedule", type=click.Choice(sorted(SCHEDULE_FLAGS)), default="roundrobin")
@click.option("--seed", type=int, default=None, help="override the config's seed")
@click.option("--svg", "svg_dir", type=click.Path(file_okay=False), default=None)
@click.option("--max-activations", type=int, default=None)
def run_cmd(config_path, k, schedule, seed, svg_dir, max_activations):
    """Run the full pipeline on a config file and report."""
    doc = _load_doc(config_path)
    config = doc.config
    k = doc.k if k is None else k
    seed = doc.seed if seed is None else seed
    if k < 1:
        click.echo("error: k must be >= 1", err=True)
        sys.exit(EXIT_INPUT)
    if k > SUPPORTED_K[config.kind]:
        click.echo(
            f"error: k={k} exceeds the certified range for "
            f"{config.kind.value} (max {SUPPORTED_K[config.kind]})",
            err=True,
        )
        sys.exit(EXIT_INPUT)
    sched = Schedule(policy=SCHEDULE_FLAGS[schedule], seed=seed)
    try:
        # the report needs no trace
        result = run_pipeline(config, algorithms.PIPELINE_FULL, sched, k=k,
                              max_activations=max_activations, record=False)
    except SimulationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    reports = {r.name: r for r in result.reports}
    leader = algorithms.leader_of(result.states)

    if svg_dir:
        # Each file shows the states as its phase left them.  Later phases
        # change no status and no parent cell (renumber turns parent_port
        # and frame_offset together), so the final states draw every phase
        # once the tree and the ids are hidden where not yet built.
        out = Path(svg_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in algorithms.PIPELINE_FULL:
            (out / f"{name}.svg").write_text(
                render_svg(
                    config,
                    result.states,
                    show_ids=name == algorithms.IDS,
                    show_tree=name != algorithms.ELECT,
                )
            )

    if leader is None:
        residual = [
            p
            for p, s in result.states.items()
            if s.status == algorithms.STATUS_CANDIDATE
        ]
        lines = [
            ("leader", "none"),
            ("residual", len(residual)),
            ("rounds_elect", reports[algorithms.ELECT].rounds_active),
            ("msgs_elect", reports[algorithms.ELECT].messages),
            ("invariants", _stall_label(config)),
        ]
        click.echo(format_report(lines), nl=False)
        sys.exit(EXIT_STALLED)

    violations = verify_run(config, k, result.states)
    lines = [("leader", f"{leader[0]},{leader[1]}")]
    for name in algorithms.PIPELINE_FULL:
        lines.append((f"rounds_{name}", reports[name].rounds_active))
    for name in algorithms.PIPELINE_FULL:
        lines.append((f"msgs_{name}", reports[name].messages))
    lines.append(
        ("invariants", "pass" if not violations else "fail:" + ";".join(violations))
    )
    hist = algorithms.id_histogram(result.states)
    lines.append(("hist", ",".join(f"{c}:{n}" for c, n in hist.items())))
    click.echo(format_report(lines), nl=False)
    sys.exit(EXIT_INVARIANT if violations else 0)


@cli.command()
@click.argument("config_path", type=click.Path(exists=False))
def verify(config_path):
    """Validate a config file and describe it."""
    doc = _load_doc(config_path)
    holes, edge = holes_and_border(doc.config)
    lines = [
        ("grid", doc.config.kind.value),
        ("particles", doc.config.n),
        ("holes", holes.count),
        ("border", len(edge)),
        ("k", doc.k),
        ("seed", doc.seed),
    ]
    click.echo(format_report(lines), nl=False)


@cli.command("color-table")
@click.argument("kind", type=click.Choice([k.value for k in GridKind]))
@click.argument("k", type=int)
@click.option("--rows", type=int, default=4)
@click.option("--cols", type=int, default=8)
def color_table(kind, k, rows, cols):
    """Print rows x cols of the distance-k coloring pattern."""
    if k < 1 or rows < 1 or cols < 1:
        click.echo("error: k, rows, cols must be >= 1", err=True)
        sys.exit(EXIT_INPUT)
    try:
        pat = pattern(GridKind(kind), k)
    except LookupError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT)
    click.echo(color_table_text(pat, rows, cols), nl=False)


@cli.command()
@click.argument("config_path", type=click.Path(exists=False))
@click.option("--limit", type=int, default=18, help="largest tree size searched")
def bound(config_path, limit):
    """Print r, mtree, and the election round bound for a small config."""
    doc = _load_doc(config_path)
    if find_holes(doc.config).count:
        click.echo("error: round bound is defined for hole-free configs", err=True)
        sys.exit(EXIT_INPUT)
    if doc.config.n > limit:
        click.echo(f"error: config larger than tree search limit {limit}", err=True)
        sys.exit(EXIT_INPUT)
    r = radius(doc.config)
    mt = mtree(doc.config, limit=limit)
    lines = [("r", r), ("mtree", mt), ("bound", _bound_from(doc.config.kind, r, mt))]
    click.echo(format_report(lines), nl=False)


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_INPUT)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_INPUT)
    except click.Abort:
        sys.exit(130)


if __name__ == "__main__":
    main()

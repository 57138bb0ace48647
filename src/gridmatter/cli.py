"""Command line front end.

Subcommands: generate (shape families to config files), run (the
election / tree / renumber / ids pipeline with verification and
reports), verify (config file diagnostics), color-table, bound.

Exit codes: 0 success, 2 invariant failure, 3 stalled by holes,
4 input error.  The config file format is described in `shapes`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NoReturn

import click

from . import algorithms
from .coloring import SUPPORTED_K, color_table_text, pattern
from .grid import Coord, GridKind
from .particles import (
    ParticleConfig,
    find_holes,
    holes_and_border,
    mtree,
    radius,
    round_bound,
    validate_config,
)
from .scheduler import (
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    Schedule,
    SimulationError,
    run as run_pipeline,
)
from .shapes import ConfigDoc, generate_shape, parse_config_text, serialize_config
from .verify import stall_label, verify_run

EXIT_INVARIANT = 2
EXIT_STALLED = 3
EXIT_INPUT = 4

SCHEDULE_FLAGS = {
    "roundrobin": POLICY_ROUND_ROBIN,
    "random": POLICY_RANDOM,
}


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


def _input_error(*messages) -> NoReturn:
    """Print each message as an `error:` line on stderr, then exit 4."""
    for msg in messages:
        click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_INPUT)


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
    _check_k(GridKind(kind), k)
    try:
        config = generate_shape(GridKind(kind), list(shape), seed, allow_holes)
    except (ValueError, TypeError) as exc:
        _input_error(exc)
    text = serialize_config(ConfigDoc(config=config, k=k, seed=seed))
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            _input_error(exc)
    else:
        click.echo(text, nl=False)


def _load_doc(path: str) -> ConfigDoc:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _input_error(exc)
    except UnicodeDecodeError as exc:
        _input_error(f"{path}: {exc}")
    try:
        doc = parse_config_text(text)
    except ValueError as exc:
        _input_error(f"{path}: {exc}")
    problems = validate_config(doc.config)
    if problems:
        _input_error(*(f"{path}: {msg}" for msg in problems))
    return doc


def _check_k(kind: GridKind, k: int) -> None:
    """Exit 4 unless the pipeline supports k on this grid."""
    if k < 1:
        _input_error("k must be >= 1")
    if k > SUPPORTED_K[kind]:
        _input_error(f"k={k} exceeds the certified range for "
                     f"{kind.value} (max {SUPPORTED_K[kind]})")


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
    _check_k(config.kind, k)
    sched = Schedule(policy=SCHEDULE_FLAGS[schedule], seed=seed)
    try:
        # the report needs no trace
        result = run_pipeline(config, algorithms.PIPELINE_FULL, sched, k=k,
                              max_activations=max_activations, record=False)
    except SimulationError as exc:
        _input_error(exc)
    reports = {r.name: r for r in result.reports}
    leaders = algorithms.leader_cells(result.states)

    if svg_dir:
        # Each file shows the states as its phase left them.  Later phases
        # change no status and no parent cell (renumber turns parent_port
        # and frame_offset together), so the final states draw every phase
        # once the tree and the ids are hidden where not yet built.
        out = Path(svg_dir)
        try:
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
        except OSError as exc:
            _input_error(exc)

    if not leaders:
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
            ("invariants", stall_label(config)),
        ]
        click.echo(format_report(lines), nl=False)
        sys.exit(EXIT_STALLED)

    violations = verify_run(config, k, result.states)
    # more than one leader fails verify_run as leaders=N
    lines = [("leader", ";".join(f"{i},{j}" for i, j in leaders))]
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
    _check_k(doc.config.kind, doc.k)
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
    kind = GridKind(kind)
    _check_k(kind, k)
    if rows < 1 or cols < 1:
        _input_error("rows, cols must be >= 1")
    click.echo(color_table_text(pattern(kind, k), rows, cols), nl=False)


@cli.command()
@click.argument("config_path", type=click.Path(exists=False))
@click.option(
    "--limit",
    type=int,
    default=18,
    help="largest config searched; the search is exponential on solid shapes "
    "(a 7x7 block takes 30-45 s)",
)
def bound(config_path, limit):
    """Print r, mtree, and the election round bound for a small config."""
    doc = _load_doc(config_path)
    if find_holes(doc.config).count:
        _input_error("round bound is defined for hole-free configs")
    if doc.config.n > limit:
        _input_error(f"config larger than tree search limit {limit}")
    r = radius(doc.config)
    mt = mtree(doc.config, limit=limit)
    lines = [("r", r), ("mtree", mt), ("bound", round_bound(doc.config.kind, r, mt))]
    click.echo(format_report(lines), nl=False)


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as exc:
        _input_error(exc.format_message())
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_INPUT)
    except click.Abort:
        sys.exit(130)


if __name__ == "__main__":
    main()

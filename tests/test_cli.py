"""End-to-end command line tests.

Most cases drive `python -m gridmatter.cli` through a real subprocess,
with the repository's `src` directory first on its PYTHONPATH, so exit
codes, stdout bytes, and stderr diagnostics are tested exactly as an
operator sees them.  The forced invariant-failure case monkeypatches the
verifier in process instead, since a correct engine never produces one,
and the mutated-config property test runs in process through click's
test runner, which keeps its hundreds of examples fast.
"""

import ast
import hashlib
import os
import random
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmatter import algorithms
from gridmatter import cli as climod
from gridmatter.algorithms import (
    PIPELINE_FULL,
    STATUS_CANDIDATE,
    STATUS_LEADER,
    leader_of,
    tree_parent,
)
from gridmatter.coloring import pattern
from gridmatter.grid import GridKind, degree, directions
from gridmatter.particles import find_holes, make_config, removal_table, slot_cells
from gridmatter.scheduler import Schedule, SimulationError, run
from gridmatter.shapes import (
    ConfigDoc,
    gen_blob,
    gen_line,
    gen_rect,
    gen_ring,
    generate_shape,
    parse_config_text,
    random_offsets,
    serialize_config,
)

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _env():
    # An absolute src entry lets the child import the package from any
    # cwd; a relative PYTHONPATH would resolve against cwd instead.  The
    # inherited entries follow, so the child finds click as the parent did.
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + inherited if inherited else ""))


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "gridmatter.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_env(),
    )


@pytest.fixture(scope="module")
def rect_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "rect.cfg"
    proc = cli("generate", "rect", "3x3", "--seed", "1", "--k", "2", "-o", str(path))
    assert proc.returncode == 0
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_rect_is_hole_free_and_roundtrips():
    proc = cli("generate", "rect", "3x3", "--seed", "1", "--k", "2")
    assert proc.returncode == 0
    doc = parse_config_text(proc.stdout)
    assert doc.config.kind.value == "square"
    assert doc.config.n == 9
    assert doc.k == 2 and doc.seed == 1
    assert find_holes(doc.config).count == 0
    # parse(emit) is the identity on the text form
    assert serialize_config(doc) == proc.stdout
    again = parse_config_text(serialize_config(doc))
    assert again.config.particles() == doc.config.particles()
    assert all(
        again.config.offset(p) == doc.config.offset(p) for p in doc.config.particles()
    )


def test_generate_ring_has_one_hole():
    proc = cli("generate", "ring", "3", "1")
    doc = parse_config_text(proc.stdout)
    assert doc.config.n == 8
    assert find_holes(doc.config).count == 1


def test_generate_blob_meets_postcondition():
    proc = cli("generate", "blob", "50", "--grid", "triangular", "--seed", "7")
    doc = parse_config_text(proc.stdout)
    cells = set(doc.config.particles())
    assert len(cells) == 50
    assert oracles.connected("triangular", cells)
    assert not oracles.holes("triangular", cells)
    assert find_holes(doc.config).count == 0


def test_generate_is_deterministic():
    a = cli("generate", "blob", "30", "--grid", "king", "--seed", "9")
    b = cli("generate", "blob", "30", "--grid", "king", "--seed", "9")
    assert a.stdout == b.stdout


def test_generate_allow_holes_keeps_raw_growth():
    proc = cli("generate", "blob", "40", "--seed", "3", "--allow-holes")
    doc = parse_config_text(proc.stdout)
    assert doc.config.n == 40
    assert oracles.connected("square", set(doc.config.particles()))


# The blob generator's output and the state it leaves its rng in, frozen
# by digests: the acceptance and golden-trace inputs come from gen_blob
# calls, some of them sharing one rng, so neither may drift.
BLOB_SIZES = (1, 2, 30, 200, 1600)
BLOB_SEEDS = (0, 1, 7, 42)

GOLDEN_BLOBS = {
    ("square", False): {
        1: "b5fa79e63e93998bdd7de4343a8d7f461a7e23ef367029a2d38dbca03f617d40",
        2: "9f6b81332f334ac97b7b6a0258cfd0c13d8a0c2ea1094ad0b09e3d6a1a1e90e8",
        30: "47eaf91c54a1ea84aedd5bdd8b2348bffb5a5e17d0cdda4f80557e847f40d15b",
        200: "44755d294cafe91d0d5869dca61e6a344893356bd1b5e688b2179d02c1b95fca",
        1600: "ba791695dda59946a288fd5d70ea3db09d14a0db0fbac976c7b8e7b19644de98",
    },
    ("square", True): {
        1: "b5fa79e63e93998bdd7de4343a8d7f461a7e23ef367029a2d38dbca03f617d40",
        2: "9f6b81332f334ac97b7b6a0258cfd0c13d8a0c2ea1094ad0b09e3d6a1a1e90e8",
        30: "d1ede509087c3f42df6aef869b9a1a5432c68d21a007a946c5e65e14d3c15a62",
        200: "a8f6f8bf2bf4a5a6141414532609eb8342ae00478eaeb17ae32973505455da3b",
        1600: "30693aaed635ef1d855b68e3946da46b4338e2c4f7b88bc1a47d8931a577f764",
    },
    ("triangular", False): {
        1: "b5fa79e63e93998bdd7de4343a8d7f461a7e23ef367029a2d38dbca03f617d40",
        2: "24ba8f90a1080679507d3f69336223fbccd4a64b21ecfa0d30477face1409b17",
        30: "fb8e8412e1e0c5e522927c973d48798c3a3897b0a1010feab8af1c5c84720542",
        200: "90facb0ae28fdd064d2325b4ccdf3d7928aad02af4a7958184492282088c9389",
        1600: "0ced59af3ef41cff5540f24ac76336a872ee41988f654dc698143a2cccecd35b",
    },
    ("triangular", True): {
        1: "b5fa79e63e93998bdd7de4343a8d7f461a7e23ef367029a2d38dbca03f617d40",
        2: "24ba8f90a1080679507d3f69336223fbccd4a64b21ecfa0d30477face1409b17",
        30: "d8149b7eae01acafd343739dcefbf6af703a41b3393c73bd0e432363bb9b00f4",
        200: "4c8f11d77164b631c5d4f66b1b17698a48103451bfb76cef9d02b5f7604e0c5d",
        1600: "e992b6cd548f9abb5349cb33a1ce1933388c0692aa9a678bdeed02201cb2f1b6",
    },
    ("king", False): {
        1: "b5fa79e63e93998bdd7de4343a8d7f461a7e23ef367029a2d38dbca03f617d40",
        2: "0427e9081ec411bdd1ac37f719358e1bcc74d6c3be802bf63deb24fd78934b18",
        30: "47efc78971ace1751637abab026c6efd227aea5665ecd5626e84c5edf825bef7",
        200: "d4ec9618fa2583410acdabfd1b93eab3a1184f688ba18c35343722a50688a2b3",
        1600: "1f33708203b184285f5b4b0ef045b2b47c673daac186032ec3ca3d14a6263b64",
    },
    ("king", True): {
        1: "b5fa79e63e93998bdd7de4343a8d7f461a7e23ef367029a2d38dbca03f617d40",
        2: "0427e9081ec411bdd1ac37f719358e1bcc74d6c3be802bf63deb24fd78934b18",
        30: "a6ae8db94188bf28e10a998ad2ad54f61418f1f31f1012c314bbec8f105d1122",
        200: "76bfe129e6dadabaee5ddbf4280703c99cfc884fdcf8ccef94b9e1d1b04ef40d",
        1600: "3bef76441d75dc5b602e0c619428036046adc738bbb26fe24c4db5234b624208",
    },
}

GOLDEN_CONFIG_TEXT = {
    "square": "fffe8b81c49b14b5fcabfaba147304965303d552e72b515a70225ef25daa19cb",
    "triangular": "1c26225273990c0682ae20aa3979cbe62d94408a4e0e0fb2c3f9207319726860",
    "king": "be958abe2b6d94649a7b0e475a1a5ff0d5b2b564534b739dfd08733d92443a4c",
}


def _blob_digest(kind, n, allow_holes):
    h = hashlib.sha256()
    for seed in BLOB_SEEDS:
        rng = random.Random(seed)
        cells = sorted(gen_blob(kind, n, rng, allow_holes=allow_holes))
        h.update(repr((cells, rng.random())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("allow_holes", [False, True])
@pytest.mark.parametrize("kind", [k.value for k in GridKind])
def test_gen_blob_golden_digests(kind, allow_holes):
    got = {n: _blob_digest(GridKind(kind), n, allow_holes) for n in BLOB_SIZES}
    assert got == GOLDEN_BLOBS[(kind, allow_holes)]


@pytest.mark.parametrize("kind", [k.value for k in GridKind])
def test_generate_shape_config_text_golden(kind):
    config = generate_shape(GridKind(kind), ["blob", "300"], seed=4)
    text = serialize_config(ConfigDoc(config=config, k=2, seed=4))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CONFIG_TEXT[kind]


def _reference_gen_blob(kind, n, rng, allow_holes):
    """gen_blob's frontier growth with draws made by rng.randrange, on
    pair cells."""
    dirs = directions(kind)
    table = removal_table(kind)
    window = [(bit, di, dj) for bit, (di, dj) in slot_cells(kind, (0, 0))]

    def addable(p):
        mask = 0
        for bit, di, dj in window:
            if (p[0] + di, p[1] + dj) in occ:
                mask |= bit
        return table[mask]

    def swap_pop(r):
        front[r] = front[-1]
        front.pop()

    occ = {(0, 0)}
    front = list(dirs)
    while len(occ) < n:
        r = rng.randrange(len(front))
        q = front[r]
        if q in occ:
            swap_pop(r)
        elif allow_holes or addable(q):
            occ.add(q)
            swap_pop(r)
            steps = [(q[0] + di, q[1] + dj) for di, dj in dirs]
            front += [c for c in steps if c not in occ]
    return occ


@pytest.mark.parametrize("allow_holes", [False, True])
@pytest.mark.parametrize("kind", list(GridKind))
def test_generator_draws_are_randrange_draws(kind, allow_holes):
    # gen_blob and random_offsets inline random.randrange's draws; a
    # Python release that changes randrange or _randbelow breaks this
    # test first
    d = degree(kind)
    for n in (1, 2, 3, 30, 200, 1600):
        for seed in (0, 1, 7, 2**31 - 1):
            ours, ref = random.Random(seed), random.Random(seed)
            cells = gen_blob(kind, n, ours, allow_holes=allow_holes)
            assert set(cells) == _reference_gen_blob(kind, n, ref, allow_holes)
            assert cells == sorted(set(cells))
            assert ours.getstate() == ref.getstate()
            offsets = random_offsets(kind, cells, ours)
            assert offsets == {p: ref.randrange(d) for p in sorted(cells)}
            assert list(offsets) == cells
            assert ours.getstate() == ref.getstate()


def test_fixed_shapes_are_sorted_lists_of_their_cells():
    # like gen_blob, the fixed generators return their cells sorted, with
    # no repeats, so random_offsets' sort runs in linear time
    square = {(i, j) for i in range(5) for j in range(5)}
    shapes = [
        (gen_rect(3, 2), {(i, j) for i in range(3) for j in range(2)}),
        (gen_line(4), {(0, 0), (1, 0), (2, 0), (3, 0)}),
        (gen_ring(5, 3), square - {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}),
        (gen_ring(5, 1), square - {(2, 2)}),
        (gen_ring(5, 0), square),
    ]
    for cells, want in shapes:
        assert cells == sorted(want)


@pytest.mark.parametrize("kind", list(GridKind))
def test_growth_always_has_an_addable_cell(kind):
    # Why gen_blob's growth terminates: take a particle (i, j) with the
    # greatest i.  The cell (i+1, j) is one draw away (every grid has
    # direction (1, 0)), and its occupied slots all lie at di = -1 and
    # include the port (-1, 0).  Every such mask must be addable.
    slots = slot_cells(kind, (0, 0))
    behind = [bit for bit, (di, _) in slots if di == -1]
    back = next(bit for bit, c in slots if c == (-1, 0))
    table = removal_table(kind)
    for bits in range(1 << len(behind)):
        mask = sum(bit for a, bit in enumerate(behind) if bits >> a & 1)
        if mask & back:
            assert table[mask], (kind, bin(mask))


def _growth_law(kind, n):
    """The exact law of gen_blob's fixed shapes of n cells, from the
    oracles alone.  From S a free cell q is drawn with weight the number
    of (c in S, direction) pairs that land on q, among the q at which
    Definition 1 holds in S + {q} and whose window cells in S have no
    hole.  Shapes are translated so that their least i and least j are 0.
    """
    name = oracles.kind_name(kind)
    corners = oracles.CORNERS if name == "square" else []

    def fixed(s):
        mi = min(i for i, _ in s)
        mj = min(j for _, j in s)
        return frozenset((i - mi, j - mj) for i, j in s)

    law = {frozenset({(0, 0)}): 1.0}
    for _ in range(n - 1):
        grown = {}
        for s, prob in law.items():
            weights = {}
            for c in s:
                for q in oracles.neighborhood(name, c):
                    if q not in s:
                        weights[q] = weights.get(q, 0) + 1
            ok = {}
            for q, weight in weights.items():
                window = oracles.neighborhood(name, q) + [
                    (q[0] + di, q[1] + dj) for di, dj in corners
                ]
                rest = {c for c in window if c in s}
                if oracles.def1_contractible(name, s | {q}, q) and not oracles.grid_holes(
                    name, rest
                ):
                    ok[q] = weight
            total = sum(ok.values())
            for q, weight in ok.items():
                t = fixed(s | {q})
                grown[t] = grown.get(t, 0.0) + prob * weight / total
        law = grown
    return law, fixed


@pytest.mark.parametrize("kind", list(GridKind))
def test_gen_blob_follows_the_growth_law(kind):
    # Eden growth restricted to addable cells: the next cell is uniform
    # over the (grown cell, direction) pairs whose target is free and
    # addable.  A frontier that held each free cell once would skew the
    # law; a chi-square over 6,000 fixed shapes of 4 cells reads it.
    law, fixed = _growth_law(kind, 4)
    seeds = 6000
    counts = dict.fromkeys(law, 0)
    for seed in range(seeds):
        shape = fixed(gen_blob(kind, 4, random.Random(seed)))
        assert shape in law, sorted(shape)
        counts[shape] += 1
    chi2 = sum((counts[s] - seeds * p) ** 2 / (seeds * p) for s, p in law.items())
    dof = len(law) - 1
    z = (chi2 - dof) / (2 * dof) ** 0.5
    assert z < 5, (kind, len(law), chi2)


class _CountingRandom(random.Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("kind", list(GridKind))
def test_gen_blob_draws_few_bits_per_cell(kind):
    # drawing from the frontier of free slots costs a few draws per grown
    # cell; drawing a grown cell and a direction until they hit a free,
    # addable target cost 34-53 here, most of them on interior cells
    n = 1600
    for seed in range(4):
        rng = _CountingRandom(seed)
        gen_blob(kind, n, rng)
        assert rng.calls <= 8 * (n - 1), (kind, seed, rng.calls / (n - 1))


# The blob generator's postconditions, checked against the oracles.
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([k.value for k in GridKind]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
    allow_holes=st.booleans(),
)
def test_gen_blob_properties(kind, n, seed, allow_holes):
    cells = gen_blob(GridKind(kind), n, random.Random(seed), allow_holes=allow_holes)
    assert len(cells) == n
    assert oracles.connected(kind, cells)
    if not allow_holes:
        assert not oracles.grid_holes(kind, cells)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from([k.value for k in GridKind]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(1, 12),
)
def test_config_text_roundtrips(kind, n, seed, k):
    config = generate_shape(GridKind(kind), ["blob", str(n)], seed)
    doc = ConfigDoc(config=config, k=k, seed=seed)
    again = parse_config_text(serialize_config(doc))
    assert again.config.kind == config.kind
    assert again.config.occupied == config.occupied
    assert again.config.frame_offsets == config.frame_offsets
    assert (again.k, again.seed) == (k, seed)


@pytest.mark.parametrize("allow_holes", [False, True])
@pytest.mark.parametrize("kind", [k.value for k in GridKind])
def test_parse_of_serialized_config_equals_the_generated_config(kind, allow_holes):
    shapes = (["blob", "1"], ["blob", "250"], ["rect", "4x3"], ["ring", "5", "1"],
              ["line", "6"])
    for shape in shapes:
        config = generate_shape(GridKind(kind), shape, seed=11, allow_holes=allow_holes)
        doc = ConfigDoc(config=config, k=3, seed=11)
        again = parse_config_text(serialize_config(doc))
        assert again.config == config
        assert dict(again.config.frame_offsets) == dict(config.frame_offsets)


# ---------------------------------------------------------------------------
# run


def test_run_rect_report_golden(rect_cfg):
    proc = cli("run", str(rect_cfg))
    assert proc.returncode == 0
    assert proc.stdout == (
        "leader=2,2\n"
        "rounds_elect=1\n"
        "rounds_tree=5\n"
        "rounds_renumber=5\n"
        "rounds_ids=5\n"
        "msgs_elect=0\n"
        "msgs_tree=8\n"
        "msgs_renumber=8\n"
        "msgs_ids=8\n"
        "invariants=pass\n"
        "hist=0:2,1:1,2:2,3:2,4:2\n"
    )


def test_run_single_particle(tmp_path):
    path = tmp_path / "one.cfg"
    cli("generate", "line", "1", "-o", str(path))
    proc = cli("run", str(path))
    assert proc.returncode == 0
    lines = dict(l.split("=", 1) for l in proc.stdout.splitlines())
    assert lines["leader"] == "0,0"
    for name in ("elect", "tree", "renumber", "ids"):
        assert lines[f"rounds_{name}"] == "1"
        assert lines[f"msgs_{name}"] == "0"
    assert lines["invariants"] == "pass"
    assert lines["hist"] == "0:1"


def test_run_ring_stalls_with_exit_3(tmp_path):
    path = tmp_path / "ring.cfg"
    cli("generate", "ring", "3", "1", "-o", str(path))
    proc = cli("run", str(path))
    assert proc.returncode == 3
    lines = dict(l.split("=", 1) for l in proc.stdout.splitlines())
    assert lines["leader"] == "none"
    assert lines["residual"] == "8"
    assert lines["invariants"] == "stalled-by-holes"
    assert "rounds_tree" not in lines


def test_run_king_diamond_stalls_by_holes(tmp_path):
    # the middle cell escapes only between the diagonal links: a pocket
    # of the 4-adjacent background, which is a king hole, so verify,
    # bound and run agree that the config has one
    path = tmp_path / "diamond.cfg"
    path.write_text(
        "grid king\nparticle 0 1\nparticle 1 0\nparticle 1 2\nparticle 2 1\n"
    )
    assert "holes=1\n" in cli("verify", str(path)).stdout
    bound = cli("bound", str(path))
    assert bound.returncode == 4
    assert "hole-free" in bound.stderr
    proc = cli("run", str(path))
    assert proc.returncode == 3
    lines = dict(l.split("=", 1) for l in proc.stdout.splitlines())
    assert lines["leader"] == "none"
    assert lines["residual"] == "4"
    assert lines["invariants"] == "stalled-by-holes"


def test_run_k_override(rect_cfg):
    proc = cli("run", str(rect_cfg), "--k", "1")
    assert proc.returncode == 0
    lines = dict(l.split("=", 1) for l in proc.stdout.splitlines())
    assert lines["invariants"] == "pass"
    # square k=1 uses 2 colors; a 3x3 block holds 5 of one and 4 of the other
    assert sorted(lines["hist"].split(",")) == ["0:5", "1:4"]


def test_run_report_bytes_are_reproducible(rect_cfg):
    a = cli("run", str(rect_cfg), "--schedule", "random", "--seed", "5")
    b = cli("run", str(rect_cfg), "--schedule", "random", "--seed", "5")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_run_over_its_activation_cap_exits_4(rect_cfg):
    # the 3x3 block's first elect round alone takes 9 activations
    proc = cli("run", str(rect_cfg), "--max-activations", "5")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: activation cap 5 exceeded during elect\n"


def test_run_invariant_failure_exits_2(rect_cfg, monkeypatch):
    monkeypatch.setattr(climod, "verify_run", lambda *a, **k: ["forced"])
    result = CliRunner().invoke(climod.cli, ["run", str(rect_cfg)])
    assert result.exit_code == 2
    assert "invariants=fail:forced" in result.output


def test_run_with_two_leaders_exits_2(rect_cfg, monkeypatch):
    # a second leader planted in the finished states is an invariant
    # failure, reported with both cells, not a traceback
    def two_leaders(*args, **kwargs):
        res = run(*args, **kwargs)
        _plant(res.states, (0, 0), status=STATUS_LEADER)
        return res

    monkeypatch.setattr(climod, "run_pipeline", two_leaders)
    result = CliRunner().invoke(climod.cli, ["run", str(rect_cfg)])
    assert result.exit_code == 2, result.exception
    assert result.output.startswith("leader=0,0;2,2\n")
    assert "\ninvariants=fail:leaders=2\n" in result.output


def _finished_states(kind, cells, k=1):
    cfg = make_config(kind, cells, random_offsets(kind, cells, random.Random(2)))
    res = run(cfg, PIPELINE_FULL, Schedule(), k=k, record=False)
    assert climod.verify_run(cfg, k, res.states) == []
    return cfg, dict(res.states)


def _plant(states, p, **changes):
    states[p] = states[p]._replace(**changes)


def test_verify_run_reports_an_off_system_parent():
    # the line's leader is (2, 0); (0, 0) now points its parent port
    # out of the system, at (-1, 0), while (1, 0) still lists it a child
    cfg, states = _finished_states(GridKind.SQUARE, {(0, 0), (1, 0), (2, 0)})
    _plant(states, (0, 0), parent_port=(0 - states[(0, 0)].frame_offset) % 4)
    assert climod.verify_run(cfg, 1, states) == [
        "tree-parent-off-system: (0, 0)",
        "tree-child: (1, 0)->(0, 0)",
    ]


def test_verify_run_reports_planted_violations():
    # on the 3x3 block the leader is (2, 2); (0, 0) is a leaf under
    # (0, 1), and ids alternate 0/1 like a checkerboard
    cfg, clean = _finished_states(GridKind.SQUARE, gen_rect(3, 3))
    assert leader_of(clean) == (2, 2)
    assert tree_parent(cfg.kind, clean, (0, 0)) == (0, 1)

    states = dict(clean)
    _plant(states, (0, 0), status=STATUS_LEADER)
    assert climod.verify_run(cfg, 1, states) == ["leaders=2"]
    with pytest.raises(ValueError) as exc:
        leader_of(states)
    assert str(exc.value) == "multiple leaders [(0, 0), (2, 2)]"

    states = dict(clean)
    # a candidate left next to the leader: the rest of the run is clean
    _plant(states, (2, 1), status=STATUS_CANDIDATE)
    assert climod.verify_run(cfg, 1, states) == ["non-retired=1"]

    states = dict(clean)
    # a non-leader without a parent: 7 parent links for 9 particles, and
    # (0, 1) still lists (0, 0) as its child
    _plant(states, (0, 0), parent_port=None)
    assert climod.verify_run(cfg, 1, states) == [
        "tree-parent-count",
        "tree-child: (0, 1)->(0, 0)",
    ]

    states = dict(clean)
    _plant(states, (0, 1), child_ports=())
    assert climod.verify_run(cfg, 1, states) == [
        "tree-span: tree does not span the system",
        "tree-reciprocity: (0, 0)<->(0, 1)",
        "port-reciprocity: (0, 0)<->(0, 1)",
    ]

    states = dict(clean)
    s = states[(0, 0)]
    # a child port toward the empty cell (-1, 0)
    _plant(states, (0, 0), child_ports=((0 - s.frame_offset) % 4,))
    assert climod.verify_run(cfg, 1, states) == [
        "tree-span: child (-1, 0) of (0, 0) is not a particle",
    ]

    states = dict(clean)
    # the leaf's parent port listed as a child port too
    _plant(states, (0, 0), child_ports=(s.parent_port,))
    assert climod.verify_run(cfg, 1, states) == ["tree-child: (0, 0)->(0, 1)"]

    states = dict(clean)
    # the same cells behind every port, labelled one port further on
    _plant(
        states,
        (0, 0),
        frame_offset=(s.frame_offset + 1) % 4,
        parent_port=(s.parent_port - 1) % 4,
    )
    assert climod.verify_run(cfg, 1, states) == [
        "frame-offset: (0, 0)",
        "port-reciprocity: (0, 0)<->(0, 1)",
    ]

    states = dict(clean)
    _plant(states, (0, 0), local_id=pattern(cfg.kind, 1).color_count)
    assert climod.verify_run(cfg, 1, states) == [
        "id-range: (0, 0)",
        "id-position: (0, 0)",
    ]

    states = dict(clean)
    _plant(states, (1, 1), local_id=1)
    assert climod.verify_run(cfg, 1, states) == [
        "id-position: (1, 1)",
        "id-collision: (0, 1) (1, 1)",
        "id-collision: (1, 0) (1, 1)",
        "id-collision: (1, 1) (1, 2)",
        "id-collision: (1, 1) (2, 1)",
    ]

    states = dict(clean)
    _plant(states, (0, 0), renumber_done=False)
    assert climod.verify_run(cfg, 1, states) == ["renumber-missing: (0, 0)"]

    states = dict(clean)
    _plant(states, (0, 0), local_id=None)
    assert climod.verify_run(cfg, 1, states) == ["unassigned: (0, 0)"]

    # faults in every group at once: each group's lines stay together,
    # in the order the groups are listed, each in the order of the cells
    states = dict(clean)
    _plant(states, (2, 1), status=STATUS_CANDIDATE)
    _plant(states, (0, 1), child_ports=())
    _plant(states, (1, 0), renumber_done=False)
    _plant(states, (1, 1), local_id=None)
    _plant(states, (1, 2), local_id=0)
    _plant(states, (2, 0), frame_offset=(states[(2, 0)].frame_offset + 1) % 4)
    assert climod.verify_run(cfg, 1, states) == [
        "non-retired=1",
        "tree-span: tree does not span the system",
        "tree-reciprocity: (0, 0)<->(0, 1)",
        "tree-reciprocity: (2, 0)<->(1, 0)",
        "tree-child: (2, 1)->(2, 0)",
        "renumber-missing: (1, 0)",
        "frame-offset: (2, 0)",
        "port-reciprocity: (0, 0)<->(0, 1)",
        "port-reciprocity: (2, 0)<->(1, 0)",
        "unassigned: (1, 1)",
        "id-position: (1, 2)",
        "id-collision: (0, 2) (1, 2)",
        "id-collision: (1, 2) (2, 2)",
    ]


# Single faults for `verify_run` to find, each planted by monkeypatch as
# (owner, attribute, make), where `make` turns the original attribute
# into the faulty one.


def _never_prunes(step):
    def faulty(self, p, s, inbox, states):
        return (s, (), ()) if s.tree_joined else step(self, p, s, inbox, states)
    return faulty


def _parent_port_as_child(step):
    def faulty(self, p, s, inbox, states):
        new, sends, woken = step(self, p, s, inbox, states)
        if inbox and not s.tree_joined:
            kids = tuple(sorted((*new.child_ports, new.parent_port)))
            new = new._replace(child_ports=kids)
        return new, sends, woken
    return faulty


def _child_ports_unrotated(step):
    def faulty(self, p, s, inbox, states):
        new, sends, woken = step(self, p, s, inbox, states)
        if new is not s:
            new = new._replace(child_ports=s.child_ports)
        return new, sends, woken
    return faulty


def _non_leaders_forward_nothing(step):
    def faulty(self, p, s, inbox, states):
        new, sends, woken = step(self, p, s, inbox, states)
        return new, sends if s.status == STATUS_LEADER else (), woken
    return faulty


def _next_direction_colors(color_steps):
    return lambda kind, k: tuple(row[1:] + row[:1] for row in color_steps(kind, k))


def _last_mail_first(step):
    return lambda self, p, s, inbox, states: step(self, p, s, inbox[::-1], states)


PLANTED_FAULTS = [
    (algorithms.TreeProtocol, "step", _never_prunes),
    (algorithms.TreeProtocol, "step", _parent_port_as_child),
    (algorithms.RenumberProtocol, "step", _child_ports_unrotated),
    (algorithms.RenumberProtocol, "step", _non_leaders_forward_nothing),
    (algorithms, "color_steps", _next_direction_colors),
]
EQUIVALENT_FAULTS = [
    # a join under its last sender: every sender has joined and the
    # others are woken to prune, so the tree is as valid as the first's
    (algorithms.TreeProtocol, "step", _last_mail_first),
    # an id from the last mail: the parent's is the only mail that comes
    (algorithms.IdsProtocol, "step", _last_mail_first),
]


def test_verify_run_flags_planted_faults(monkeypatch):
    rng = random.Random(27)
    configs = []
    for kind in GridKind:
        for n in (3, 6, 10, 16, 25, 40):
            cells = gen_blob(kind, n, rng)
            configs.append(make_config(kind, cells, random_offsets(kind, cells, rng)))

    def finish(cfg):
        return run(cfg, PIPELINE_FULL, Schedule(), k=2, record=False).states

    clean = [finish(cfg) for cfg in configs]
    assert all(climod.verify_run(c, 2, s) == [] for c, s in zip(configs, clean))
    for owner, attr, make in PLANTED_FAULTS + EQUIVALENT_FAULTS:
        equivalent = (owner, attr, make) in EQUIVALENT_FAULTS
        changed = 0
        with monkeypatch.context() as m:
            m.setattr(owner, attr, make(getattr(owner, attr)))
            for cfg, want in zip(configs, clean):
                try:
                    states = finish(cfg)
                except SimulationError:  # a send toward an empty cell stops the engine
                    assert not equivalent, (make.__name__, cfg.kind, cfg.n)
                    continue
                violations = climod.verify_run(cfg, 2, states)
                changed += states != want
                if equivalent or states == want:
                    assert violations == [], (make.__name__, cfg.kind, cfg.n)
                else:
                    assert violations, (make.__name__, cfg.kind, cfg.n)
        # each fault changes the final states of some run that finishes
        assert changed or equivalent, make.__name__


def test_run_svg_emission(rect_cfg, tmp_path):
    out = tmp_path / "svgs"
    proc = cli("run", str(rect_cfg), "--svg", str(out))
    assert proc.returncode == 0
    want = {
        # circles, tree edges, id labels per phase snapshot
        "elect.svg": (9, 0, 0),
        "tree.svg": (9, 8, 0),
        "renumber.svg": (9, 8, 0),
        "ids.svg": (9, 8, 9),
    }
    for name, (ncirc, nline, ntext) in want.items():
        root = ET.parse(out / name).getroot()
        tags = [e.tag.rsplit("}", 1)[-1] for e in root.iter()]
        assert tags.count("circle") == ncirc, name
        assert tags.count("line") == nline, name
        assert tags.count("text") == ntext, name


@pytest.mark.parametrize(
    "kind,shape,schedule",
    [
        ("square", ["blob", "40"], "random"),
        ("triangular", ["blob", "40"], "roundrobin"),
        ("king", ["blob", "40"], "random"),
        ("square", ["ring", "4", "2"], "random"),
    ],
)
def test_run_svg_files_match_phase_prefix_runs(kind, shape, schedule, tmp_path):
    # each file is what the states left by its phase, run on their own
    # up to that phase, draw; the last case stalls
    path = tmp_path / "in.cfg"
    cli("generate", *shape, "--grid", kind, "--seed", "3", "--k", "2", "-o", str(path))
    proc = cli("run", str(path), "--schedule", schedule, "--svg", str(tmp_path / "svg"))
    assert proc.returncode == (3 if shape[0] == "ring" else 0)
    doc = parse_config_text(path.read_text())
    sched = Schedule(climod.SCHEDULE_FLAGS[schedule], seed=doc.seed)
    for idx, name in enumerate(PIPELINE_FULL):
        states = run(doc.config, PIPELINE_FULL[: idx + 1], sched, k=2).states
        want = climod.render_svg(
            doc.config, states, show_ids=name == "ids", show_tree=True
        )
        assert (tmp_path / "svg" / f"{name}.svg").read_text() == want, name


# ---------------------------------------------------------------------------
# verify and bound


def test_verify_describes_config(rect_cfg):
    proc = cli("verify", str(rect_cfg))
    assert proc.returncode == 0
    assert proc.stdout == (
        "grid=square\nparticles=9\nholes=0\nborder=8\nk=2\nseed=1\n"
    )


def test_verify_diagnostic_names_the_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid square\nparticle 0 0 9\n")
    proc = cli("verify", str(path))
    assert proc.returncode == 4
    assert "line 2" in proc.stderr
    assert "offset 9 out of range" in proc.stderr


def test_bound_golden(tmp_path):
    path = tmp_path / "sq22.cfg"
    cli("generate", "rect", "2x2", "-o", str(path))
    proc = cli("bound", str(path))
    assert proc.returncode == 0
    assert proc.stdout == "r=2\nmtree=1\nbound=8\n"


def test_bound_rejects_holes_and_oversize(tmp_path):
    ring = tmp_path / "ring.cfg"
    cli("generate", "ring", "3", "1", "-o", str(ring))
    proc = cli("bound", str(ring))
    assert proc.returncode == 4
    assert "hole-free" in proc.stderr
    big = tmp_path / "big.cfg"
    cli("generate", "rect", "5x4", "-o", str(big))
    proc = cli("bound", str(big))
    assert proc.returncode == 4
    assert "limit" in proc.stderr


# ---------------------------------------------------------------------------
# color-table


def test_color_table_square_k3_golden():
    proc = cli("color-table", "square", "3")
    assert proc.returncode == 0
    assert proc.stdout == (
        "0 1 2 3 4 5 6 7\n"
        "3 4 5 6 7 0 1 2\n"
        "6 7 0 1 2 3 4 5\n"
        "1 2 3 4 5 6 7 0\n"
    )


def test_color_table_square_k4_row_step():
    proc = cli("color-table", "square", "4", "--rows", "2", "--cols", "13")
    assert proc.stdout == (
        "0 1 2 3 4 5 6 7 8 9 10 11 12\n"
        "5 6 7 8 9 10 11 12 0 1 2 3 4\n"
    )


def test_color_table_king_k2_blocks():
    proc = cli("color-table", "king", "2", "--rows", "3", "--cols", "3")
    assert proc.stdout == "0 1 2\n3 4 5\n6 7 8\n"


# ---------------------------------------------------------------------------
# input errors (exit 4)


@pytest.mark.parametrize(
    "args, needle",
    [
        (("run", "nosuch.cfg"), "No such file"),
        (("generate", "ring", "2", "5"), "smaller than outer"),
        (("generate",), "missing shape"),
        (("frobnicate",), "No such command"),
        (("color-table", "square", "99"), "certified range"),
        (("color-table", "square", "0"), ">= 1"),
        (("generate", "--k", "0", "rect", "2x2"), "k must be >= 1"),
        (("generate", "--k", "99", "rect", "2x2"), "certified range"),
    ],
)
def test_input_errors_exit_4(args, needle, tmp_path):
    proc = cli(*args, cwd=str(tmp_path))
    assert proc.returncode == 4
    assert needle in proc.stderr


@pytest.mark.parametrize("kind, top", [("triangular", 8), ("square", 12)])
def test_color_table_k_range_boundary(kind, top):
    assert cli("color-table", kind, str(top)).returncode == 0
    proc = cli("color-table", kind, str(top + 1))
    assert proc.returncode == 4
    assert proc.stderr == (
        f"error: k={top + 1} exceeds the certified range for {kind} (max {top})\n"
    )


def test_unwritable_output_paths_exit_4(rect_cfg, tmp_path):
    proc = cli("generate", "rect", "3x3", "-o", str(tmp_path / "missing" / "x.cfg"))
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ") and "No such file" in proc.stderr
    plain = tmp_path / "plain"
    plain.write_text("")
    proc = cli("run", str(rect_cfg), "--svg", str(plain / "svgs"))
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ") and "Not a directory" in proc.stderr


def test_run_k_out_of_range_exits_4(rect_cfg):
    proc = cli("run", str(rect_cfg), "--k", "0")
    assert proc.returncode == 4
    proc = cli("run", str(rect_cfg), "--k", "20")
    assert proc.returncode == 4
    assert "certified range" in proc.stderr


def test_config_k_out_of_range_exits_4_for_run_and_verify(tmp_path):
    path = tmp_path / "k99.cfg"
    path.write_text("grid square\nk 99\nparticle 0 0\n")
    want = "error: k=99 exceeds the certified range for square (max 12)\n"
    for command in ("run", "verify"):
        proc = cli(command, str(path))
        assert proc.returncode == 4, command
        assert proc.stdout == "" and proc.stderr == want, command


def test_config_that_is_not_utf8_exits_4(tmp_path):
    path = tmp_path / "bytes.cfg"
    path.write_bytes(b"grid square\nparticle 0 0\n\xff\xfe\n")
    for command in ("run", "verify"):
        proc = cli(command, str(path))
        assert proc.returncode == 4, command
        assert proc.stderr.startswith(f"error: {path}: "), proc.stderr
        assert "can't decode byte 0xff" in proc.stderr
        assert "Traceback" not in proc.stderr


_INVALID_UTF8 = (b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")


def _mutate(text: bytes, data) -> bytes:
    """Garble a byte, drop or repeat a token, or insert invalid UTF-8."""
    op = data.draw(st.sampled_from(("garble", "drop", "repeat", "invalid")))
    if op in ("drop", "repeat"):
        tokens = re.split(rb"(\s+)", text)
        words = [i for i, t in enumerate(tokens) if t and not t.isspace()]
        if words:
            i = data.draw(st.sampled_from(words))
            tokens[i] = b"" if op == "drop" else tokens[i] + b" " + tokens[i]
        return b"".join(tokens)
    at = data.draw(st.integers(0, len(text)))
    if op == "garble":
        return text[:at] + bytes([data.draw(st.integers(0, 255))]) + text[at + 1:]
    return text[:at] + data.draw(st.sampled_from(_INVALID_UTF8)) + text[at:]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(GridKind)), data=st.data())
def test_mutated_config_text_exits_0_3_or_4_without_a_traceback(
    kind, data, tmp_path_factory
):
    cells = gen_rect(3, 3)
    config = make_config(kind, cells, random_offsets(kind, cells, random.Random(1)))
    text = serialize_config(ConfigDoc(config=config, k=2, seed=1)).encode()
    for _ in range(data.draw(st.integers(1, 4))):
        text = _mutate(text, data)
    path = tmp_path_factory.mktemp("mutant") / "mutant.cfg"
    path.write_bytes(text)
    for command in ("run", "verify"):
        result = CliRunner().invoke(climod.cli, [command, str(path)])
        # an uncaught exception would be a traceback and exit 1
        assert result.exception is None or isinstance(
            result.exception, SystemExit
        ), (command, text, result.exception)
        assert result.exit_code in (0, 3, 4), (command, text, result.output)
        assert "Traceback" not in result.output
        if result.exit_code == 4:
            assert result.stderr.startswith("error:"), (command, text, result.stderr)


def test_run_bad_schedule_flag_exits_4(rect_cfg):
    proc = cli("run", str(rect_cfg), "--schedule", "bogus")
    assert proc.returncode == 4
    assert "Invalid value" in proc.stderr


def test_disconnected_config_rejected(tmp_path):
    path = tmp_path / "split.cfg"
    path.write_text("grid square\nparticle 0 0\nparticle 2 2\n")
    proc = cli("run", str(path))
    assert proc.returncode == 4
    assert "not connected" in proc.stderr


def test_far_apart_particles_are_rejected_without_a_box_sized_allocation(tmp_path):
    # the connectivity test keeps O(n) memory: a raster of the bounding
    # box would need 10**12 cells here
    path = tmp_path / "far.cfg"
    path.write_text("grid square\nparticle 0 0\nparticle 1000000 1000000\n")
    for command in ("verify", "run"):
        start = time.perf_counter()
        result = CliRunner().invoke(climod.cli, [command, str(path)])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 4, (command, result.exception)
        assert result.stderr == f"error: {path}: occupied set is not connected\n"
        assert elapsed < 1.0, (command, elapsed)


def test_duplicate_particle_line_exits_4(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("grid square\nparticle 0 0 1\nparticle 0 0 2\n")
    proc = cli("verify", str(path))
    assert proc.returncode == 4
    assert "line 3: duplicate particle 0 0" in proc.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        # the offsets were range-checked against the first grid
        ("grid square\nparticle 0 0 3\nparticle 0 1 0\ngrid triangular\n",
         "line 4: duplicate grid line"),
        ("grid square\nk 2\nk 3\nparticle 0 0\n", "line 3: duplicate k line"),
        ("seed 1\ngrid king\n# a comment\nseed 2\nparticle 0 0\n",
         "line 4: duplicate seed line"),
    ],
    ids=["grid", "k", "seed"],
)
def test_repeated_grid_k_or_seed_line_exits_4(tmp_path, text, message):
    path = tmp_path / "dup.cfg"
    path.write_text(text)
    proc = cli("verify", str(path))
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path}: {message}\n"


# ---------------------------------------------------------------------------
# config text corners


def test_parse_comments_blank_lines_and_default_offsets():
    text = (
        "# harness fixture\n"
        "grid triangular\n"
        "\n"
        "k 2   # identifier radius\n"
        "particle 0 0\n"
        "particle 1 0 5\n"
    )
    doc = parse_config_text(text)
    assert doc.config.kind.value == "triangular"
    assert doc.k == 2 and doc.seed == 0
    assert doc.config.offset((0, 0)) == 0
    assert doc.config.offset((1, 0)) == 5


def test_parse_requires_grid_before_particles():
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("particle 0 0\n")
    with pytest.raises(ValueError, match="missing grid"):
        parse_config_text("# empty\n")
    with pytest.raises(ValueError, match="no particle"):
        parse_config_text("grid square\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("grid square\nwibble 3\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("particle 0 0\n", "line 1: grid line must come before particle lines"),
        ("grid square\nparticle 1\n", "line 2: expected: particle i j [offset]"),
        ("grid square\nparticle 1 2 3 4\n", "line 2: expected: particle i j [offset]"),
        ("grid square\nparticle x 0\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("grid square\nparticle 0 0 4\n", "line 2: offset 4 out of range for square"),
        ("grid\n", "line 1: expected one grid kind"),
        ("grid hex\n", "line 1: 'hex' is not a valid GridKind"),
        ("grid square\nk 0\n", "line 2: k must be >= 1"),
        ("grid square\nk 1 2\n", "line 2: too many values to unpack (expected 1)"),
        ("grid square\nwibble 3\n", "line 2: unknown directive 'wibble'"),
        ("grid square\nparticle 0 0 # c\nparticle 0 0\n", "line 3: duplicate particle 0 0"),
        ("grid square\nk 2\nk 2\n", "line 3: duplicate k line"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError) as exc:
        parse_config_text(text)
    assert str(exc.value) == message


def test_parse_takes_tabs_crlf_and_comment_only_lines():
    text = "grid\tking\r\nparticle\t1\t2\t3 # note\r\n#x\n   \nparticle -1 0\n"
    doc = parse_config_text(text)
    assert doc.config.kind is GridKind.KING
    assert doc.config.frame_offsets == {(-1, 0): 0, (1, 2): 3}


def test_importing_the_cli_loads_no_numpy():
    code = (
        "import sys, gridmatter, gridmatter.cli; "
        "sys.exit('numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env())
    assert proc.returncode == 0


def test_only_the_cli_imports_click():
    # a None entry in sys.modules makes `import click` raise ImportError;
    # the package imports no submodule, so each is imported by name
    modules = sorted(
        f"gridmatter.{f.stem}"
        for f in (ROOT / "src" / "gridmatter").glob("*.py")
        if f.stem not in ("__init__", "cli")
    )
    code = "import sys; sys.modules['click'] = None; import " + ", ".join(modules)
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_public_module_name_is_used_outside_the_tests():
    # each public top-level name of a library module must appear as a word
    # in src/, bench/ or README, other than on the line that defines it: a
    # name only the tests use does not belong in src/.  The package binds
    # no name, so each has one import path, its module's
    pkg = ROOT / "src" / "gridmatter"
    init = ast.parse((pkg / "__init__.py").read_text())
    assert [type(node) for node in init.body] == [ast.Expr]  # the docstring
    registered = {"run_cmd", "color_table"}  # click commands, by decorator
    defs = set()  # (name, file, line number) of each top-level definition
    for f in pkg.glob("*.py"):
        for node in ast.parse(f.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            defs |= {(name, f, node.lineno) for name in targets}
    names = {name for name, _, _ in defs}
    assert registered <= names
    names = {n for n in names if not n.startswith("_")} - registered
    files = [*pkg.glob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]
    lines = [
        (f, number, line)
        for f in files
        for number, line in enumerate(f.read_text().splitlines(), 1)
    ]
    unused = sorted(
        name for name in names
        if not any(re.search(rf"\b{name}\b", line) and (name, f, number) not in defs
                   for f, number, line in lines)
    )
    assert names and unused == []


def test_importing_the_oracles_loads_no_networkx():
    tests_dir = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path.insert(0, {tests_dir!r}); "
        "import oracles, gridmatter; "
        "sys.exit('networkx' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env())
    assert proc.returncode == 0


def test_the_oracles_run_without_the_library():
    # a None entry in sys.modules makes `import gridmatter` raise ImportError
    tests_dir = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path.insert(0, {tests_dir!r}); "
        "sys.modules['gridmatter'] = None; import oracles; "
        "assert oracles.min_colors_bruteforce('square', 1, (3, 3)) == 2; "
        "assert oracles.clique_lower_bound('triangular', 3) == 12"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

import hashlib
import math

import pytest

from gridmatter import coloring
from gridmatter.coloring import (
    SUPPORTED_K,
    ColoringPattern,
    color_at,
    color_count,
    color_table_text,
    pattern,
    short_vector,
)
from gridmatter.grid import GridKind

import oracles

KINDS = [GridKind.SQUARE, GridKind.TRIANGULAR, GridKind.KING]

# Ranges over which optimal patterns are required to exist.
RANGES = {
    GridKind.SQUARE: range(1, 13),
    GridKind.TRIANGULAR: range(1, 9),
    GridKind.KING: range(1, 13),
}


def periods(pat):
    """The pattern's periods along i and j, from its basis."""
    return pat.p, pat.q * pat.p // math.gcd(pat.s, pat.p)


def test_color_count_formulas():
    for k in range(1, 13):
        assert color_count(GridKind.SQUARE, k) == math.ceil((k + 1) ** 2 / 2)
        assert color_count(GridKind.TRIANGULAR, k) == math.ceil(3 * (k + 1) ** 2 / 4)
        assert color_count(GridKind.KING, k) == (k + 1) ** 2
    assert [color_count(GridKind.SQUARE, k) for k in (1, 2, 3, 4)] == [2, 5, 8, 13]
    assert [color_count(GridKind.TRIANGULAR, k) for k in (1, 2, 3)] == [3, 7, 12]
    assert [color_count(GridKind.KING, k) for k in (1, 2, 3)] == [4, 9, 16]
    with pytest.raises(ValueError):
        color_count(GridKind.SQUARE, 0)


@pytest.mark.parametrize("kind", KINDS)
def test_patterns_are_valid_and_optimal(kind):
    for k in RANGES[kind]:
        p = pattern(kind, k)
        assert p.color_count == color_count(kind, k)
        pi, pj = periods(p)
        used = {color_at(p, i, j) for i in range(pi) for j in range(pj)}
        assert used == set(range(p.color_count))
        assert color_at(p, 0, 0) == 0


def test_pattern_construction_is_deterministic():
    a = pattern(GridKind.TRIANGULAR, 3)
    b = pattern(GridKind.TRIANGULAR, 3)
    assert a == b
    assert (a.p, a.q, a.s) == (6, 2, 2)


def test_known_pattern_labels():
    def basis(kind, k):
        p = pattern(kind, k)
        return p.p, p.q, p.s

    assert basis(GridKind.SQUARE, 3) == (8, 1, 5)
    assert basis(GridKind.SQUARE, 4) == (13, 1, 8)
    assert basis(GridKind.TRIANGULAR, 2) == (7, 1, 4)
    assert basis(GridKind.TRIANGULAR, 5) == (9, 3, 3)
    assert basis(GridKind.KING, 5) == (6, 6, 0)


def test_triangular_k1_closed_form():
    p = pattern(GridKind.TRIANGULAR, 1)
    for i in range(-6, 7):
        for j in range(-6, 7):
            assert color_at(p, i, j) == (i + 2 * j) % 3


def test_king_blocks_closed_form():
    for k in (1, 2, 3):
        p = pattern(GridKind.KING, k)
        for i in range(-5, 9):
            for j in range(-5, 9):
                assert color_at(p, i, j) == (i % (k + 1)) + (k + 1) * (j % (k + 1))


@pytest.mark.parametrize("kind", KINDS)
def test_small_patterns_against_brute_oracle(kind):
    for k in (1, 2):
        p = pattern(kind, k)
        span = max(periods(p)) + k + 1
        assert oracles.coloring_valid(lambda i, j: color_at(p, i, j), kind, k, span=min(span, 11))


@pytest.mark.parametrize("kind", KINDS)
def test_every_pattern_is_a_spread_lattice_coloring(kind):
    # with no library code: the basis is spread, the colors are constant
    # along both basis vectors and the p*q coset representatives get p*q
    # distinct colors, so the pattern is that lattice's coset coloring
    for k in RANGES[kind]:
        pat = pattern(kind, k)
        p, q, s = pat.p, pat.q, pat.s
        assert oracles.lattice_spread(kind, p, q, s, k), k
        pi, pj = periods(pat)
        for i in range(pi):
            for j in range(pj):
                c = color_at(pat, i, j)
                assert color_at(pat, i + p, j) == c == color_at(pat, i + s, j + q)
        reps = {color_at(pat, i, j) for i in range(p) for j in range(q)}
        assert len(reps) == p * q == pat.color_count


@pytest.mark.parametrize("kind", KINDS)
def test_short_vector_agrees_with_lattice_spread(kind):
    # every basis with p*q <= 24 and 0 <= s < p, refused ones included
    refused = 0
    for k in (1, 2, 3):
        for p in range(1, 25):
            for q in range(1, 24 // p + 1):
                for s in range(p):
                    spread = oracles.lattice_spread(kind, p, q, s, k)
                    assert (short_vector(kind, k, p, q, s) is None) == spread, (k, p, q, s)
                    refused += not spread
    assert refused > 0


def test_pattern_refuses_a_basis_that_fails_the_scan(monkeypatch):
    monkeypatch.setattr(coloring, "short_vector", lambda *basis: (1, 0))
    with pytest.raises(LookupError, match="no oracle-valid"):
        pattern.__wrapped__(GridKind.SQUARE, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_pattern_refuses_k_below_one(kind):
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        pattern(kind, 0)


def test_square_k4_linear_t4_has_the_known_collision():
    # the t=k multiplier family breaks down at k=4: colors repeat at
    # displacement (1,3), which is distance 4; s = -4 mod 13 makes the
    # lattice's cosets (i + 4j) mod 13
    assert short_vector(GridKind.SQUARE, 4, 13, 1, 9) == (1, 3)
    assert not oracles.lattice_spread(GridKind.SQUARE, 13, 1, 9, 4)
    bad = ColoringPattern(GridKind.SQUARE, 4, p=13, q=1, s=9)
    assert color_at(bad, 0, 0) == color_at(bad, 1, 3)


def test_color_table_text_square_k3():
    want = (
        "0 1 2 3 4 5 6 7\n"
        "3 4 5 6 7 0 1 2\n"
        "6 7 0 1 2 3 4 5\n"
        "1 2 3 4 5 6 7 0\n"
    )
    assert color_table_text(pattern(GridKind.SQUARE, 3), 4, 8) == want


def test_color_table_text_square_k4():
    want = (
        "0 1 2 3 4 5 6 7 8 9 10 11 12\n"
        "5 6 7 8 9 10 11 12 0 1 2 3 4\n"
    )
    assert color_table_text(pattern(GridKind.SQUARE, 4), 2, 13) == want


def test_color_table_text_king_k2():
    want = "0 1 2 0 1 2\n3 4 5 3 4 5\n6 7 8 6 7 8\n"
    assert color_table_text(pattern(GridKind.KING, 2), 3, 6) == want


def test_min_colors_bruteforce_values():
    assert oracles.min_colors_bruteforce(GridKind.KING, 1, (2, 2)) == 4
    assert oracles.min_colors_bruteforce(GridKind.KING, 2, (3, 3)) == 9
    assert oracles.min_colors_bruteforce(GridKind.SQUARE, 1, (3, 3)) == 2
    assert oracles.min_colors_bruteforce(GridKind.TRIANGULAR, 1, (2, 2)) == 3
    with pytest.raises(ValueError):
        oracles.min_colors_bruteforce(GridKind.SQUARE, 1, (6, 6))
    with pytest.raises(ValueError):
        oracles.min_colors_bruteforce(GridKind.SQUARE, 3, (2, 2))


def test_color_steps_match_color_at():
    # every cell of one period, every direction, every supported (grid, k)
    for kind in KINDS:
        dirs = oracles.DIRS[kind.value]
        for k in RANGES[kind]:
            pat = pattern(kind, k)
            steps = coloring.color_steps(kind, k)
            assert len(steps) == pat.color_count
            pi, pj = periods(pat)
            for i in range(pi):
                for j in range(pj):
                    row = steps[color_at(pat, i, j)]
                    assert row == tuple(color_at(pat, i + di, j + dj) for di, dj in dirs)


# The pattern chosen for every supported (grid, k), frozen by its lattice
# basis (p, q, s), its periods and a digest of one period of its color
# table, so a change to how patterns are represented, built or certified
# keeps every id.
GOLDEN_PATTERNS = {
    "square": {
        1: ((2, 1, 1), 2, 2, "19d8e8cf6b93224d3388548d5f8bdee4cd4e033d416d8631b8c44db208da788d"),
        2: ((5, 1, 2), 5, 5, "78b9747c9c1d52cc736217bc1425220809d05fc9bbc234cb814a589026c509f3"),
        3: ((8, 1, 5), 8, 8, "3136364ff060b9176118d8aa3f82fcd417abd91b22e5272332e804f1ff7f7c3b"),
        4: ((13, 1, 8), 13, 13, "d21f21ee9ca6c0bc1f13db74da20a696003d2917d35581422bb350499f208d5e"),
        5: ((18, 1, 13), 18, 18, "b309dac1a554c9cf885c939a1c0c8cf2f7c45dfe0889eda0e70a7488de1a738b"),
        6: ((25, 1, 18), 25, 25, "92072b8e9304d6c9b67a1ccd27cb9c2ddf6a0e97dcb3d031d49c0f94f1b4f4b3"),
        7: ((32, 1, 25), 32, 32, "674c83c65e0154baf8daf9433ffd32c01d006b9d2133528dc48d95bfdc343f15"),
        8: ((41, 1, 32), 41, 41, "424f1f79eea891d0add900cc16f37227255ca0c7a5b66278b195d6ce433e14df"),
        9: ((50, 1, 41), 50, 50, "b78ce58dbd9b1369494d519042ce8fd81edd132db34f46db558ab13ee7c86f21"),
        10: ((61, 1, 50), 61, 61, "81a90cb126f9a0367336dd7e3918b5e4d17de6fd1e3d48ffbc759dadb956fb1c"),
        11: ((72, 1, 61), 72, 72, "443f296fe57b639450439c51806e2e4698da2b9049ad0a11f7f3535002f52c53"),
        12: ((85, 1, 72), 85, 85, "2b7bb450c581104035707268a2d1058fa589a45d9b5c7cfc665dba6cbcf64264"),
    },
    "triangular": {
        1: ((3, 1, 1), 3, 3, "e103fb45ed641a3b1fa0106086bccc5c11b1a3e6c66911604b0fda6b93c73bfe"),
        2: ((7, 1, 4), 7, 7, "be26e2e00711c7dfe8c9312e2f0294a9c42e58b1150308218315f8bc1c538f18"),
        3: ((6, 2, 2), 6, 6, "27ad795584c602ab9ed25456a7aa586f4d5624bcf8e029ce2ca649f170fa9d16"),
        4: ((19, 1, 7), 19, 19, "7c8df301e7530fbdd648a8cc52086c8538e0f6830ba55425beba7636ec65dc17"),
        5: ((9, 3, 3), 9, 9, "2e6a86919dd274b3db98999c9c7619d1efae1e428ebc455ac0a1797525d51ae1"),
        6: ((37, 1, 10), 37, 37, "752ed3b79486d7afde9429d67b70f92dad2140239410984a6bb4437e2178e64f"),
        7: ((12, 4, 4), 12, 12, "24891ecb1f5aad90608719e8c7bca72d6087468968cb4c5548d00e94a7a27997"),
        8: ((61, 1, 13), 61, 61, "fa1b5c959aa3c29e9141532c41ebffc68462eea2d895efb4ce4c426f2ebb7c88"),
    },
    "king": {
        1: ((2, 2, 0), 2, 2, "95042aecd776dc472f0303e647ba8edb1c9659d7503247a8414a280d7c63516b"),
        2: ((3, 3, 0), 3, 3, "25636bfb3c4329ba24aa08e2971c92950563226fe384b93f003f45c226a0baad"),
        3: ((4, 4, 0), 4, 4, "7e5d2536548e642c9359fa0b49e5dcbf75ab80e689d009f865548564ceafe127"),
        4: ((5, 5, 0), 5, 5, "389dcd50fb73bf8478b343bafd88b5146c4b4658f3e206564696657e9eb80b07"),
        5: ((6, 6, 0), 6, 6, "7edb452f5399a60c6aed73ce7e6344f21150153822ce46c41388fa2c01a4b3a2"),
        6: ((7, 7, 0), 7, 7, "7661b5134b390b12070693ed130b78526900d34a516667e7d5c5c2497b62f53c"),
        7: ((8, 8, 0), 8, 8, "60b0c4abdcd60aee99ebf445acf192672740dd5fba1b1b68df1d836f3433f9de"),
        8: ((9, 9, 0), 9, 9, "60fadeeb18661b8320b1169eb3fb6d8c89784228ab52b62195dabc1cc71325ef"),
        9: ((10, 10, 0), 10, 10, "745eea656023530b6f0134fc85480e0b8493a3a9e5e4ea684cec1195de58b9bd"),
        10: ((11, 11, 0), 11, 11, "7f4efed5dc82ce19fc5953bc676eee6bc7915bf46fceb3243db9f2f87ac05354"),
        11: ((12, 12, 0), 12, 12, "46aa745a4fa586ca7b1f80982db44c4df37aafe9ed168d67ecfb5328791a1a2a"),
        12: ((13, 13, 0), 13, 13, "6eee6327ce579d4b848f00819766bf0e56494840f6f69130ac7655d16eb37b2f"),
    },
}


def test_pattern_golden_digests():
    got = {}
    for kind in KINDS:
        got[kind.value] = {}
        for k in range(1, SUPPORTED_K[kind] + 1):
            p = pattern(kind, k)
            pi, pj = periods(p)
            text = color_table_text(p, pj, pi)
            got[kind.value][k] = (
                (p.p, p.q, p.s),
                pi,
                pj,
                hashlib.sha256(text.encode()).hexdigest(),
            )
    assert got == GOLDEN_PATTERNS

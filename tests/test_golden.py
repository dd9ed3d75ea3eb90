"""Byte identity of scan, single-query and branch output on polynomial
corpus problems.

The scan hashes are of to_csv, to_json and to_svg of 400-column scans, the
query hashes of the abscissae of one b, the branch hashes of the output of
the branch walker.  These problems use only
+ - * / and ^ with integer exponents, so the output does not depend on the
platform's libm.  A change that alters answers on purpose must update the
hashes and say so.
"""

import hashlib
import math

import numpy as np
import pytest

import mvabscissa as mva
from mvabscissa import classify, cli, continuation, mvt, scanner, solver

from conftest import (CORPUS_COEFFS, CUBIC, PARABOLA, QUARTIC_INFLECTION,
                      QUINTIC_SAME_SIGN, SEXTIC_OPPOSITE, check_poly_abscissae)

COLUMNS = 400

# (text, a0, b0, b_min, b_max) -> sha256 of (csv, json, svg)
GOLDEN = {
    (PARABOLA, 0.0, 2.0, 0.01, 4.0): (
        "7b75df1e5bc3239a93552d9a16b33111bccbb76a98850c41be84d3c092e10c82",
        "bdf9fce40dd0a0e21af68a1b75391dd43b071240af22ca08027eedf65e589855",
        "ef05100a538e4f5cc9ac2ce4ebeca0d2ed632fa6cc335b9759c1c9dd2be274ae",
    ),
    (CUBIC, 0.0, 3.0, 0.1, 3.5): (
        "d562291be89bbb455c8d59da06b3c2b77c55930b12b51157758a784d387c7fe6",
        "a06a6e45ed67d2881de489904a6ba6550648017d6a2bdd5e8df58aefb3986bdf",
        "52728a31d99c114f30a920a2a004ed562e925e778893913fbfe1bb69cc8ebb7f",
    ),
    (QUARTIC_INFLECTION, 0.0, 3.0, 0.1, 3.5): (
        "a48eac75e0d00c391e16cb182b91b1bc457d3c1a31d7551dcd36ef87b6b1f174",
        "76b668aa6f57e07bcc4728aa4aa78b50eb6fd6f63c3d24a8c9630274ff1c314e",
        "4fca1db30dda29a8365eac5c9e213ee2e4fd7ff0fd31e7781a389e3ea0893454",
    ),
    (QUINTIC_SAME_SIGN, 0.0, 3.0, 0.1, 3.5): (
        "bfb8fc5f659d2e6bad37403aae6b052745f4bd60ed8f85b73fa79d5d65c6ac51",
        "b2e9dc309848eb913303613c00c7767ae0bcea00b5bf3c1343e8985e2e235fc0",
        "db9d8afa7a9eabc35eeb1644c2689c140d582a78254aa0c850251ada73e2622f",
    ),
    (SEXTIC_OPPOSITE, 0.0, 3.0, 0.1, 3.5): (
        "571a4648fccbc2045128ddddd8faf16f7b91aeac6e3ed3c45146975cdc82f28c",
        "5bd51c316a6df14b30bd2e9db7dae968fbccc9747d6d74f6e5a90eb9c2e6d2cc",
        "02cb28027837e6099bf2e2f8a9af8a81ea9b4d05565a6dac6d2ecfd816a86afd",
    ),
    ("x^4", -1.0, 1.0, -0.9, 2.0): (
        "97fa7206938afa5bef726664aeddc40f18eb1611b91e00d0ad2ecd4c70d3ea29",
        "6422d060f197fa556c1066a8c00ba34d5a3bce6a7e52b180f2d8414ae81fbf20",
        "f4e0e230d3ce39b4a063983c738c88f50b1367a990efd2f832843f754cd9671a",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=[c[0] for c in GOLDEN])
def test_scan_answers_match_numpy_roots(case):
    # the check behind the hashes: every column against numpy.roots
    text, a0, b0, b_min, b_max = case
    res = scanner.scan(mva.Problem(mva.parse(text), a0, b0), b_min, b_max, COLUMNS)
    by_column = {}
    for q, k in zip(res.points, res.columns):
        by_column.setdefault(k, []).append(q.c)
    for k, b in enumerate(np.linspace(b_min, b_max, COLUMNS).tolist()):
        check_poly_abscissae(by_column.get(k, []), CORPUS_COEFFS[text], a0, b)


@pytest.mark.parametrize("case", list(GOLDEN), ids=[c[0] for c in GOLDEN])
def test_scan_output_is_byte_identical(case):
    text, a0, b0, b_min, b_max = case
    res = scanner.scan(mva.Problem(mva.parse(text), a0, b0), b_min, b_max, COLUMNS)
    digests = tuple(hashlib.sha256(out(res).encode()).hexdigest()
                    for out in (scanner.to_csv, scanner.to_json, scanner.to_svg))
    assert digests == GOLDEN[case]


# (text, a0, b0, b) -> sha256 of the abscissae as float.hex, joined by spaces:
# the corpus queries, x^4 at a b whose root brackets end on adjacent floats,
# and x^3 on [0, s] at b = s for s = 1e-3 ... 1e6
QUERIES = {
    (CUBIC, 0.0, 3.0, 2.5):
        "408c252b1f12c58a9109050a22cb910e0e899fa34fdf42782c899276d0e755ef",
    (PARABOLA, 0.0, 2.0, 2.0):
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    (QUINTIC_SAME_SIGN, 0.0, 3.0, 3.0):
        "f65d7137f7ede86987f650c95d6f181e34631d15865dad0db32b13a555a5c583",
    ("x^4", -1.0, 1.0, -0.8927318295739348):
        "b7140cd091203ce240b5fe3dacac6682da6acb95db9f30ca4c9c296058212388",
    ("x^3", 0.0, 1e-3, 1e-3):
        "635d930d5e7e58c74f25bc6ac3c734bdc6bfebbb8ea0f70949be3f556a6a3323",
    ("x^3", 0.0, 1e-2, 1e-2):
        "ed950f36c7c06db830eff9aaf128445ac05e33297357243f470abc2e2f96ad08",
    ("x^3", 0.0, 1e-1, 1e-1):
        "03d7057d03a8aa5988d65dc02777330a6b52dfc043678c77e46d9a03d815ac5f",
    ("x^3", 0.0, 1.0, 1.0):
        "64bb0c3c69a4ff67719c50513fba884f9809fce40e0fec15bb3e0641bd60a556",
    ("x^3", 0.0, 1e1, 1e1):
        "2e5c01066cba8eb6151732db11399acb5ce75c43043e1cac78da6005739efaab",
    ("x^3", 0.0, 1e2, 1e2):
        "e6b7bad9005546165410056d751a7f8fdfab09054330c97db826c7814f3c83a8",
    ("x^3", 0.0, 1e3, 1e3):
        "7391e53a41227c823019bdd0717aa20266ebb15041105ade92bcb0cbde48846e",
    ("x^3", 0.0, 1e4, 1e4):
        "5322d4f23964ba22f8a3653ad5dc71d21dac3b3f28185db83b77fd818c0554c2",
    ("x^3", 0.0, 1e5, 1e5):
        "4b7606cdd8a33fe4d5c92382948af4173d47141cbf0923b2ff458871378fd4af",
    ("x^3", 0.0, 1e6, 1e6):
        "779f357d36abfd33e4f5ccea3e664b6d33d1514dac47796d873795c8cc90ca0f",
}


@pytest.mark.parametrize("case", list(QUERIES), ids=[f"{c[0]} b={c[3]!r}" for c in QUERIES])
def test_abscissae_match_numpy_roots(case):
    # the check behind the hashes
    text, a0, b0, b = case
    coeffs = CORPUS_COEFFS.get(text, [0.0, 0.0, 0.0, 1.0])  # x^3 otherwise
    check_poly_abscissae(mvt.abscissae(mva.Problem(mva.parse(text), a0, b0), b), coeffs, a0, b)


@pytest.mark.parametrize("case", list(QUERIES), ids=[f"{c[0]} b={c[3]!r}" for c in QUERIES])
def test_abscissae_are_bit_identical(case):
    text, a0, b0, b = case
    cs = mvt.abscissae(mva.Problem(mva.parse(text), a0, b0), b)
    assert hashlib.sha256(" ".join(c.hex() for c in cs).encode()).hexdigest() == QUERIES[case]


def _readme_trace(tmp_path):
    out = tmp_path / "branch.csv"
    assert cli.run(["trace", "-f", "-x^2+2*x", "-a", "0", "-b", "2", "-c", "1",
                    "--b-min", "0.5", "--b-max", "3.5", "--step", "0.01", "-o", str(out)]) == 0
    return out.read_text()


def _b_of_c_quartic(tmp_path):
    p = mva.Problem(mva.parse(QUARTIC_INFLECTION), 0.0, 3.0)
    return scanner.to_json(continuation.trace_b_of_c(p, 3.0, 1.0, (0.9, 1.1), step=0.002))


def _guaranteed_x4(tmp_path):
    c0, branch = classify.guaranteed_branch(mva.Problem(mva.parse("x^4"), -1.0, 1.0),
                                            b_range=(0.8, 1.2))
    return f"{c0!r}\n{scanner.to_json(branch)}"


def _quintic_seeds(tmp_path):
    # the two branches past the quintic's TWO_BRANCHES point (3, 1)
    p = mva.Problem(mva.parse(QUINTIC_SAME_SIGN), 0.0, 3.0)
    report = classify.classify_point(p, 3.0, 1.0)
    pair = continuation.branch_seeds_after_degeneracy(p, 3.0, 1.0, report, step0=0.002)
    return "".join(scanner.to_json(continuation.trace_c_of_b(p, b, c, (b, b + 0.15), step=0.002))
                   for b, c in pair)


# the walker's answers, by the chord corrector (the README's trace, the
# quintic), the bisection corrector (x^4, a UNIQUE_ODD seed) and b = B(c):
# sha256 of the README trace CSV and of the branches' JSON
WALKS = {
    _readme_trace:
        "70d5524d30289356486062059b94046a3c19d9d831782d7ce4bd357bd28c5596",
    _b_of_c_quartic:
        "d206ff964e436559daa0ab5d8c4fdd99af4aa877e7ea3289be0c250aff047f50",
    _guaranteed_x4:
        "233e3a3db651f4fd1507524ee2abafb2674469f4d2acbc826ecc37e08f578850",
    _quintic_seeds:
        "2d4e05a3d9a181c304de80f76d5bb4e7b30d573845268bb7b99fb6845ad3500d",
}


@pytest.mark.parametrize("walk", list(WALKS), ids=[w.__name__[1:] for w in WALKS])
def test_branch_output_is_byte_identical(walk, tmp_path):
    assert hashlib.sha256(walk(tmp_path).encode()).hexdigest() == WALKS[walk]


def _cubic_upper(b):
    # the upper abscissa of CUBIC on [0, 3] in closed form, as perfbench writes it
    return 1 + math.sqrt(1 + (b * b - 3 * b) / 3)


def test_implicit_solver_answers_are_bit_identical(capsys):
    # perfbench's implicit_solve on the cubic, from (2.5, upper abscissa) to b = 3
    p = mva.Problem(mva.parse(CUBIC), 0.0, 3.0)
    F = mvt.mean_value_implicit(p)
    assert solver.implicit_solve(F, 2.5, _cubic_upper(2.5), 3.0).hex() == "0x1.ffffffffffff1p+0"

    # the README's y^3 + y - x = 0 from its zero (0, 0)
    def G(x, y):
        return y ** 3 + y - x, -1.0, 3.0 * y ** 2 + 1.0

    assert solver.implicit_solve(G, 0.0, 0.0, 1.0).hex() == "0x1.5d5a11e52f978p-1"

    # the README's fixed-point command
    assert cli.run(["fixed-point", "--f1", "x", "--f2", "x^2", "--x0", "1", "--y0", "1",
                    "--x", "1.2"]) == 0
    assert capsys.readouterr().out == "1.0954451150103\n"

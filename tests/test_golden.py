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

import pytest

import mvabscissa as mva
from mvabscissa import classify, cli, continuation, mvt, scanner, solver

from conftest import (CUBIC, PARABOLA, QUARTIC_INFLECTION, QUINTIC_SAME_SIGN,
                      SEXTIC_OPPOSITE)

COLUMNS = 400

# (text, a0, b0, b_min, b_max) -> sha256 of (csv, json, svg)
GOLDEN = {
    (PARABOLA, 0.0, 2.0, 0.01, 4.0): (
        "452eeeb9827325c173525858e451207c0ecb89ce9f18c0578d23955a1727b437",
        "4a22be833f123ec98df932d8673cc1def5d20347fc95a8ad22ca6dce7351a469",
        "ef05100a538e4f5cc9ac2ce4ebeca0d2ed632fa6cc335b9759c1c9dd2be274ae",
    ),
    (CUBIC, 0.0, 3.0, 0.1, 3.5): (
        "8d2900b664bca9db5b72e9f201bbda0685278b3ee1878147c4b83898e9653bb9",
        "ca4d520e59ffae6f4d13f10592ffddfacb250b197b075550a6b5ffc71245255a",
        "4fb8e6e26fe7bc6b30fda1077e65c7009aa5e32d33c0367e688eef0ffd79b6da",
    ),
    (QUARTIC_INFLECTION, 0.0, 3.0, 0.1, 3.5): (
        "cc3ce7ddcb0ef5c6f00e8dd8ddc3b052060b4d5c372a306228e838666aaaceb9",
        "01aa95f19f15d99db0c3144d5bbd7ea25ce0e5b2b0a6ef9104c6f16b25c807ce",
        "4fca1db30dda29a8365eac5c9e213ee2e4fd7ff0fd31e7781a389e3ea0893454",
    ),
    (QUINTIC_SAME_SIGN, 0.0, 3.0, 0.1, 3.5): (
        "67b29ddfa8b20642f35f74f89d268f7226ec47902ff54c0d2485678d569db674",
        "12935b4605f7085c415f126af6a57d5eb6775baf6f52faad7756635a3d3a3036",
        "db9d8afa7a9eabc35eeb1644c2689c140d582a78254aa0c850251ada73e2622f",
    ),
    (SEXTIC_OPPOSITE, 0.0, 3.0, 0.1, 3.5): (
        "acd6b7f8a3924132979f04ce745531ee7f19d5b08673d1af28d8f890eea4fba9",
        "28846230de36e3b4d7c5834fb55ece8af93a85a7cacbf63b9a5a62b1c3044db5",
        "02cb28027837e6099bf2e2f8a9af8a81ea9b4d05565a6dac6d2ecfd816a86afd",
    ),
    ("x^4", -1.0, 1.0, -0.9, 2.0): (
        "01a2848c3201e378e21b856bb4cf985951cbdbc158493afaa525e98e974f5b13",
        "42b4f678ac973c1c41bc57e766f4e2fcc958e55d8908d6160ddfae9c3b239ebf",
        "f4e0e230d3ce39b4a063983c738c88f50b1367a990efd2f832843f754cd9671a",
    ),
}


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
        "aecd03357c1df6aa87a0cc4c8e122803e1428665f1f11f1decc93e5c9f8ffc73",
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
        "1bd73f17474728dbaa0e607bacef41dc41f60576c0ec5d582c386a629c7e6b98",
    _quintic_seeds:
        "8c44746e91060eda062ba7fadcf3e487f3067b018f63f09f37d81e503d448967",
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

"""Byte identity of scan, single-query and branch output on polynomial
corpus problems.

The scan hashes are of to_csv, to_json and to_svg of 400-column scans, the
query hashes of the abscissae of one b, the branch hashes of the output of
branch tracing.  These problems use only
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
        "ffbd8b2cd54cedd58aacc3782bafc7b294bfee109fbd88ba642a3d498c589f91",
        "694e7a6dae727e057a57f74111fe00d201936ac62ad57e799703c906db74c053",
        "ef05100a538e4f5cc9ac2ce4ebeca0d2ed632fa6cc335b9759c1c9dd2be274ae",
    ),
    (CUBIC, 0.0, 3.0, 0.1, 3.5): (
        "d463fa214317962cb97a55230060654b8c17603955242c7db457276edf745a5b",
        "e2c5a6ff7eb5eb58a339732fdb1014ed24431e3afb4441493da9d2203e285070",
        "52728a31d99c114f30a920a2a004ed562e925e778893913fbfe1bb69cc8ebb7f",
    ),
    (QUARTIC_INFLECTION, 0.0, 3.0, 0.1, 3.5): (
        "62b8600a2c9a9f76fafdd1516dd9058b99bc32f9a4206f052d109ad2b366884a",
        "d794034891c6744267174cb794b7b3be0dcb394d1c459512b559a31cb5c05c44",
        "4fca1db30dda29a8365eac5c9e213ee2e4fd7ff0fd31e7781a389e3ea0893454",
    ),
    (QUINTIC_SAME_SIGN, 0.0, 3.0, 0.1, 3.5): (
        "8d0d12f8fbf72928a86cd396efa5f139f5e9b0bee52b580c9c8f89609fea64d9",
        "a3a88c650569ac9ee8165ed8357ae090dcc6201a24a33c6895eebf0933736f00",
        "db9d8afa7a9eabc35eeb1644c2689c140d582a78254aa0c850251ada73e2622f",
    ),
    (SEXTIC_OPPOSITE, 0.0, 3.0, 0.1, 3.5): (
        "5216d885d2aca5e14bdee8c2603199969cf116c2dec893e90e1a471fa8ba91e9",
        "023c88619bddf53c5a26f4997c7b5dce8209689456cf7f33b17e3e42a941b0d2",
        "02cb28027837e6099bf2e2f8a9af8a81ea9b4d05565a6dac6d2ecfd816a86afd",
    ),
    ("x^4", -1.0, 1.0, -0.9, 2.0): (
        "f343ac2cd78539cb08c5c7822968b2f5bd280ae3a5e09b31ae9ca150414ff3ec",
        "22da58302df0f2c7c90ae61cfc05fb88c1941e1f307ae9285462fcad78c7e826",
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
        "410efa96b9453c31af7f71bf5150e1af6bde78b51ba3c75d9bb8efe930d5882f",
    (PARABOLA, 0.0, 2.0, 2.0):
        "fd60998e44d3feb9c4bea3e46e5e9f0e12495076a26964274424f2afcab23a1c",
    (QUINTIC_SAME_SIGN, 0.0, 3.0, 3.0):
        "bd038715bf440b1b23ec81cf6c5f3756c51f57396db3c8cc171dc6425251a2e1",
    ("x^4", -1.0, 1.0, -0.8927318295739348):
        "6e0d737742539bf6c179eb73db460302832f9486301d47e5eb356c1ae328099e",
    ("x^3", 0.0, 1e-3, 1e-3):
        "94284530ffab95c1461af16639f8502e742dfdf4e47da6acdc9df1aa108a6c40",
    ("x^3", 0.0, 1e-2, 1e-2):
        "d035aca49e2f85f8d18156ee1860d3e4141d78f4f13d72d6fac6ec4584cfc31e",
    ("x^3", 0.0, 1e-1, 1e-1):
        "1cb19ef4b33ec6cedd1a4fd518325aed80ab71d5f2c00d433ff9ca95d7a4b358",
    ("x^3", 0.0, 1.0, 1.0):
        "adfdc58c567e6f20c4f72b6a9af3648946d521266205c815bea8d0653da5122d",
    ("x^3", 0.0, 1e1, 1e1):
        "b39d8dbcad6ec5acc4a2820f2a41261c33d8f9414dec55aa30d9624754953d3a",
    ("x^3", 0.0, 1e2, 1e2):
        "e6b7bad9005546165410056d751a7f8fdfab09054330c97db826c7814f3c83a8",
    ("x^3", 0.0, 1e3, 1e3):
        "a05131b5c5b444b4c979e6bb48852505d0de69c36992f3916000e5c5137177a3",
    ("x^3", 0.0, 1e4, 1e4):
        "5322d4f23964ba22f8a3653ad5dc71d21dac3b3f28185db83b77fd818c0554c2",
    ("x^3", 0.0, 1e5, 1e5):
        "cff9687dc9daec7ec8317cab6a9b330e2f5c1760120bf69e741a919575acbb7d",
    ("x^3", 0.0, 1e6, 1e6):
        "2992f24c2c6d4033c333f7e4ba2880b99217b57b6a2a4f034a6d926ea9ab57b4",
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


# branches of c = C(b) (the README's trace, the quintic past its crossing,
# x^4 from a UNIQUE_ODD seed) and of b = B(c): sha256 of the README trace CSV
# and of the branches' JSON
WALKS = {
    _readme_trace:
        "66d8ea713d9320cb0bbd03927b79596173e1d72e8432c44ee180a540fe1f027a",
    _b_of_c_quartic:
        "7da12024e051589cb23079cfcf8a415ee86a7678f7bc8c32eefd0589200fa4f4",
    _guaranteed_x4:
        "bb5151e6494eff87b86bb157ee56bed261b13001e7c282f6913edaa30c831705",
    _quintic_seeds:
        "a0fedfe65e22d5adea1072f3a1cc5c9cdb6eeccf1e35bb725d9c0e32134d5be4",
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

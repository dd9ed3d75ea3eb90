"""Byte identity of scan output on the six polynomial corpus problems.

The hashes are of to_csv, to_json and to_svg of 400-column scans.  These
problems use only + - * / and ^ with integer exponents, so the output does
not depend on the platform's libm.  A change that alters answers on purpose
must update the hashes and say so.
"""

import hashlib

import pytest

import mvabscissa as mva
from mvabscissa import scanner

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

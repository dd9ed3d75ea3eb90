"""Independent oracles for the benchmark's outputs.

Nothing here imports mvabscissa.  Polynomials are checked against
``numpy.roots``, the parabola, the cubic, x^4 and x^3 against closed forms,
and the transcendental functions against derivatives written out by hand, a
dense sign-change grid and mpmath refinement.

A check raises ``Mismatch`` when an answer is wrong, and ``NoAnswer`` (a
kind of Mismatch) when the program raised an error or returned nothing
where the oracle has an answer; the benchmark counts the second kind as a
failed operation.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from numpy.polynomial import polynomial as npp

GRID_N = 2048        # the library's default c-grid; one cell is the matching radius
DENSE = 4            # the sign-change oracle grid is this many times finer
RESIDUAL_REL = 1e-9  # |slope - f'(c)| <= RESIDUAL_REL * (1 + |slope| + |f'(c)|)
CLOSE_REL = 1e-9     # closed forms and mpmath roots: |c - r| <= CLOSE_REL * max(1, |r|)
DOUBLE_REL = 2e-7    # the same for a double root, about sqrt(2^-52)


class Mismatch(Exception):
    """An answer disagrees with its oracle."""


class NoAnswer(Mismatch):
    """The program raised or returned nothing where the oracle has an answer."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def close(x, r, rel=CLOSE_REL):
    return abs(x - r) <= rel * max(1.0, abs(r))


# ---------------------------------------------------------------------------
# functions: f, f', f'' in numpy, and for the transcendental ones f, f' in mpmath
# ---------------------------------------------------------------------------

class Poly:
    """sum coeffs[j] * x^j, with coefficients listed from the constant up."""

    def __init__(self, coeffs):
        self.c = np.array(coeffs, dtype=float)
        self.d1 = npp.polyder(self.c)
        self.d2 = npp.polyder(self.c, 2)

    def f(self, x):
        return npp.polyval(x, self.c)

    def df(self, x):
        return npp.polyval(x, self.d1)

    def d2f(self, x):
        return npp.polyval(x, self.d2)

    def taylor(self, x0, order):
        """t_j = f^(j)(x0) / j! for j = 0..order (zero past the degree)."""
        out, d = [], self.c
        for j in range(order + 1):
            out.append(float(npp.polyval(x0, d)) / math.factorial(j) if d.size else 0.0)
            d = npp.polyder(d) if d.size > 1 else np.zeros(0)
        return out

    def roots_of_df(self, slope):
        """Roots of f'(c) - slope, as complex numbers."""
        q = self.d1.copy()
        q[0] -= slope
        q = np.trim_zeros(q, "b")
        return np.roots(q[::-1]) if q.size > 1 else np.zeros(0, complex)


class Transcendental:
    """A function given by hand-written numpy and mpmath derivatives."""

    def __init__(self, f, df, d2f, mp_f, mp_df):
        self.f, self.df, self.d2f = f, df, d2f
        self.mp_f, self.mp_df = mp_f, mp_df


class _LazyMpmath:
    """mpmath, imported on first use so that it stays out of the memory the
    benchmark measures."""

    def __getattr__(self, name):
        import mpmath
        return getattr(mpmath, name)


def _transcendentals():
    mp = _LazyMpmath()
    e, s, c = np.exp, np.sin, np.cos
    return {
        "sin(x) + x^2/4": Transcendental(
            lambda x: s(x) + x * x / 4, lambda x: c(x) + x / 2,
            lambda x: 0.5 - s(x),
            lambda x: mp.sin(x) + x * x / 4, lambda x: mp.cos(x) + x / 2),
        "exp(x) - 2*x": Transcendental(
            lambda x: e(x) - 2 * x, lambda x: e(x) - 2.0, lambda x: e(x),
            lambda x: mp.exp(x) - 2 * x, lambda x: mp.exp(x) - 2),
        "sin(10*x)": Transcendental(
            lambda x: s(10 * x), lambda x: 10 * c(10 * x),
            lambda x: -100 * s(10 * x),
            lambda x: mp.sin(10 * x), lambda x: 10 * mp.cos(10 * x)),
        # f' = e^(-x^2) (-2x cos 5x - 5 sin 5x)
        # f'' = e^(-x^2) ((4x^2 - 27) cos 5x + 20x sin 5x)
        "exp(-x^2)*cos(5*x)": Transcendental(
            lambda x: e(-x * x) * c(5 * x),
            lambda x: e(-x * x) * (-2 * x * c(5 * x) - 5 * s(5 * x)),
            lambda x: e(-x * x) * ((4 * x * x - 27) * c(5 * x) + 20 * x * s(5 * x)),
            lambda x: mp.exp(-x * x) * mp.cos(5 * x),
            lambda x: mp.exp(-x * x) * (-2 * x * mp.cos(5 * x) - 5 * mp.sin(5 * x))),
    }


TRANSCENDENTAL = _transcendentals()

POLYS = {
    "-x^2 + 2*x": [0, 2, -1],
    "x^3 - 3*x^2 + 2*x": [0, 2, -3, 1],
    "x^4 - (17/3)*x^3 + 11*x^2 - 9*x": [0, -9, 11, -17 / 3, 1],
    "x^5/5 - 1.6*x^4 + (14/3)*x^3 - 6.4*x^2 + 4.2*x": [0, 4.2, -6.4, 14 / 3, -1.6, 0.2],
    "x^6/6 - 1.9*x^5 + 8.2*x^4 - 17*x^3 + 18.3*x^2 - 9.9*x":
        [0, -9.9, 18.3, -17, 8.2, -1.9, 1 / 6],
    "x^4": [0, 0, 0, 0, 1],
    "x^3": [0, 0, 0, 1],
}


def poly_text(coeffs):
    """Expression text of sum coeffs[j] * x^j."""
    parts = [repr(float(coeffs[0]))]
    parts += [f"({float(a)!r})*x^{j}" for j, a in enumerate(coeffs[1:], start=1)]
    return " + ".join(parts)


def function(text):
    """The oracle for an expression text of the corpus or of poly_text."""
    if text in TRANSCENDENTAL:
        return TRANSCENDENTAL[text]
    if text in POLYS:
        return Poly(POLYS[text])
    first, *terms = text.split(" + ")
    coeffs = [float(first)]
    for j, term in enumerate(terms, start=1):
        a, power = term.split(")*x^")
        expect(a[0] == "(" and int(power) == j, f"not a poly_text term: {term!r}")
        coeffs.append(float(a[1:]))
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_form(text, a0, b):
    """Abscissae of the closed-form corpus functions on [a0, b], else None."""
    if text == "-x^2 + 2*x" and a0 == 0:
        return [b / 2]
    if text == "x^3 - 3*x^2 + 2*x" and a0 == 0:
        r = math.sqrt(1 + (b * b - 3 * b) / 3)
        return [c for c in (1 - r, 1 + r) if a0 < c < b]
    if text == "x^4" and a0 == -1:
        t = (b ** 4 - 1) / (4 * (b + 1))
        return [math.copysign(abs(t) ** (1 / 3), t)]
    if text == "x^3" and a0 == 0:
        return [b / math.sqrt(3)]
    if text.startswith("x^5/5") and a0 == 0 and b == 3:
        # f' = (x-1)^2 (x-3) (x-1.4) and f(3) = f(0): c = 1 (double) and 1.4
        return [1.0, 1.4]
    return None


# ---------------------------------------------------------------------------
# abscissae oracles
# ---------------------------------------------------------------------------

def slope(fn, a0, b):
    return (float(fn.f(b)) - float(fn.f(a0))) / (b - a0)


def oracle_roots(fn, a0, b, refine=False):
    """Abscissae on (a0, b) as (roots, simple) with simple[i] true for a
    root where F(b, .) changes sign.  refine: polish with mpmath."""
    s = slope(fn, a0, b)
    if isinstance(fn, Poly):
        z = fn.roots_of_df(s)
        scale = np.maximum(1.0, np.abs(z.real))
        real = np.abs(z.imag) <= 1e-6 * scale  # a double root may come out complex
        r, simple = z.real[real], (np.abs(z.imag) <= 1e-12 * scale)[real]
        keep = (a0 < r) & (r < b)
        order = np.argsort(r[keep])
        return r[keep][order], simple[keep][order]
    lo, hi = sign_brackets(fn, a0, b, s)
    if not refine:
        return bisect(fn, s, lo, hi), np.ones(lo.size, bool)
    import mpmath as mp
    with mp.workdps(30):
        ms = (fn.mp_f(mp.mpf(b)) - fn.mp_f(mp.mpf(a0))) / (mp.mpf(b) - a0)
        roots = [float(mp.findroot(lambda c: ms - fn.mp_df(c), (mp.mpf(l), mp.mpf(h)),
                                   solver="anderson"))
                 for l, h in zip(lo.tolist(), hi.tolist())]
    return np.array(roots), np.ones(lo.size, bool)


def sign_brackets(fn, a0, b, s):
    cs = np.linspace(a0, b, DENSE * GRID_N + 1)[1:-1]
    fv = s - fn.df(cs)
    i = np.nonzero(fv[:-1] * fv[1:] < 0)[0]
    return cs[i], cs[i + 1]


def bisect(fn, s, lo, hi, iters=60):
    lo, hi = lo.copy(), hi.copy()
    flo = s - fn.df(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = s - fn.df(mid)
        same = np.sign(fm) == np.sign(flo)
        lo, flo = np.where(same, mid, lo), np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def check_abscissae(fn, a0, b, got, oracle, simple, rel=None, what=""):
    """got: the program's abscissae at b.  Every returned root must be
    interior and have a small residual.  Every simple oracle root at least
    one grid cell from the ends and two cells from any other root must be
    matched within one cell, or within rel * max(1, |r|) when rel is given.
    Roots closer than that lie below the grid's resolution (ROADMAP item 4b)
    and are not required."""
    cell = (b - a0) / GRID_N
    s = slope(fn, a0, b)
    got = np.asarray(got, dtype=float)
    if got.size:
        expect(bool(np.all((a0 < got) & (got < b))), f"{what}: abscissa outside ({a0}, {b})")
        fp = fn.df(got)
        res = np.abs(s - fp)
        bad = res > RESIDUAL_REL * (1 + abs(s) + np.abs(fp))
        expect(not bad.any(), f"{what}: residual {res[bad][:1]} at c = {got[bad][:1]}")
    oracle = np.asarray(oracle, dtype=float)
    if oracle.size == 0:
        return
    gap = np.diff(oracle)
    isolated = np.ones(oracle.size, bool)
    isolated[1:] &= gap > 2 * cell
    isolated[:-1] &= gap > 2 * cell
    need = oracle[isolated & np.asarray(simple) & (oracle - a0 > cell) & (b - oracle > cell)]
    if need.size and not got.size:
        raise NoAnswer(f"{what}: no abscissa returned; the oracle has {need.size}, "
                       f"e.g. {need[0]!r}")
    for r in need.tolist():
        d = float(np.min(np.abs(got - r)))
        if rel is None:
            tol = cell
        elif abs(fn.d2f(r)) <= 1e-6 * (1 + abs(s)):
            # a double root moves by sqrt(rounding error of F): c = 1 of
            # the quintic at b = 3 comes back as 1 - 8.4e-8
            tol = DOUBLE_REL * max(1.0, abs(r))
        else:
            tol = rel * max(1.0, abs(r))
        expect(d <= tol, f"{what}: oracle root {r!r} unmatched (nearest at {d:.3g})")


def check_point_query(text, a0, b, got, refine=False):
    fn = function(text)
    what = f"abscissae({text}, {b})"
    cf = closed_form(text, a0, b)
    if cf is not None:
        check_abscissae(fn, a0, b, got, cf, [True] * len(cf), rel=CLOSE_REL, what=what)
        expect(len(got) == len(cf), f"{what}: {len(got)} abscissae, closed form has {len(cf)}")
        return
    roots, simple = oracle_roots(fn, a0, b, refine=refine)
    rel = CLOSE_REL if refine else None
    check_abscissae(fn, a0, b, got, roots, simple, rel=rel, what=what)


def check_error_free(answer, what):
    if isinstance(answer, tuple) and answer[:1] == ("error",):
        raise NoAnswer(f"{what}: raised {answer[1]}: {answer[2]}")


# ---------------------------------------------------------------------------
# scans: CSV, JSON and SVG of one result
# ---------------------------------------------------------------------------

def parse_csv(text):
    lines = text.split("\n")
    expect(lines[0] == "b,c,residual,column", f"bad CSV header {lines[0]!r}")
    expect(lines[-1] == "" and all(lines[1:-1]), "CSV must end in one newline")
    rows = [line.split(",") for line in lines[1:-1]]
    return [(float(b), float(c), float(r), int(k)) for b, c, r, k in rows]


def parse_svg(text):
    root = ET.fromstring(text)
    expect(root.tag == "{http://www.w3.org/2000/svg}svg", f"SVG root is {root.tag}")
    return root


def check_scan(text, a0, b_min, b_max, columns, answer):
    """answer: the CSV, JSON and SVG of one scan.  They agree, and every
    column's abscissae pass check_abscissae."""
    check_error_free(answer, f"scan({text})")
    csv_text, json_text, svg_text = answer
    fn = function(text)
    rows = parse_csv(csv_text)
    doc = json.loads(json_text)
    expect([(q["b"], q["c"], q["residual"], q["column"]) for q in doc["points"]] == rows,
           "JSON and CSV points differ")
    expect(doc["degenerate_columns"] == [], "F(b, .) is not identically zero on any column")
    circles = parse_svg(svg_text).findall("{http://www.w3.org/2000/svg}circle")
    expect(len(circles) == len(rows), f"SVG has {len(circles)} markers for {len(rows)} points")
    bs = np.linspace(b_min, b_max, columns)
    by_col = {}
    for b, c, _r, k in rows:
        expect(0 <= k < columns and b == bs[k], f"point b = {b!r} is not column {k}")
        by_col.setdefault(k, []).append(c)
    for k, b in enumerate(bs.tolist()):
        got = by_col.get(k, [])
        expect(got == sorted(got), "points of a column must be sorted by c")
        cf = closed_form(text, a0, b)
        if cf is not None:
            check_abscissae(fn, a0, b, got, cf, [True] * len(cf), rel=CLOSE_REL,
                            what=f"scan({text}) column {k}")
        else:
            roots, simple = oracle_roots(fn, a0, b)
            check_abscissae(fn, a0, b, got, roots, simple, what=f"scan({text}) column {k}")


def closed_form_count(text, a0, b_min, b_max, columns):
    """(required, total): the closed-form abscissae of a scan, and those of
    them at least one grid cell from both ends, which the scan must find."""
    required = total = 0
    for b in np.linspace(b_min, b_max, columns).tolist():
        cf = closed_form(text, a0, b)
        cell = (b - a0) / GRID_N
        total += len(cf)
        required += sum(c - a0 > cell and b - c > cell for c in cf)
    return required, total


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

def check_branch(text, a0, points, parameter="b", close_rel=1e-8, what="branch"):
    """points: (b, c) pairs.  Interior, small residual, strictly monotone in
    the parameter, and on a closed form or an oracle root where there is one."""
    fn = function(text)
    expect(len(points) >= 2, f"{what}: {len(points)} points")
    pts = np.array(points, dtype=float)
    b, c = pts[:, 0], pts[:, 1]
    expect(bool(np.all((a0 < c) & (c < b))), f"{what}: point outside a0 < c < b")
    s = (fn.f(b) - fn.f(a0)) / (b - a0)
    fp = fn.df(c)
    res = np.abs(s - fp)
    expect(bool(np.all(res <= RESIDUAL_REL * (1 + np.abs(s) + np.abs(fp)))),
           f"{what}: residual {res.max():.3g}")
    t = b if parameter == "b" else c
    expect(bool(np.all(np.diff(t) > 0)), f"{what}: not strictly monotone in {parameter}")
    for bb, cc in points:
        cf = closed_form(text, a0, bb)
        if cf is not None:
            expect(min(abs(cc - r) for r in cf) <= close_rel * max(1.0, abs(cc)),
                   f"{what}: ({bb!r}, {cc!r}) is off the closed form")
        elif isinstance(fn, Poly) and parameter == "b":
            z = fn.roots_of_df(slope(fn, a0, bb))
            expect(float(np.min(np.abs(z - cc))) <= 1e-8 * max(1.0, abs(cc)),
                   f"{what}: c = {cc!r} is not a root of F({bb!r}, .)")
        elif isinstance(fn, Poly):
            # b = B(c): a root of f(b) - f(a0) - (b - a0) f'(c) in b
            q = fn.c.copy()
            q[0] -= float(fn.f(a0)) - a0 * float(fn.df(cc))
            q[1] -= float(fn.df(cc))
            z = np.roots(np.trim_zeros(q, "b")[::-1])
            expect(float(np.min(np.abs(z - bb))) <= 1e-8 * max(1.0, abs(bb)),
                   f"{what}: b = {bb!r} is not a root of F(., {cc!r})")


def check_covers(points, lo, hi, parameter="b", slack=1e-9, what="branch"):
    i = 0 if parameter == "b" else 1
    expect(points[0][i] <= lo + slack and points[-1][i] >= hi - slack,
           f"{what}: covers [{points[0][i]!r}, {points[-1][i]!r}], not [{lo}, {hi}]")


def extremal_abscissa(text, a0, b0):
    """Interior global extremum of g = f - secant on [a0, b0], by mpmath."""
    import mpmath as mp
    fn = function(text)
    s = slope(fn, a0, b0)
    xs = np.linspace(a0, b0, 64 * GRID_N + 1)
    g = fn.f(xs) - fn.f(a0) - s * (xs - a0)
    i = int(np.argmax(np.abs(g[1:-1]))) + 1
    with mp.workdps(30):
        ms = (fn.mp_f(mp.mpf(b0)) - fn.mp_f(mp.mpf(a0))) / (mp.mpf(b0) - a0)
        return float(mp.findroot(lambda c: fn.mp_df(c) - ms,
                                 (mp.mpf(xs[i - 1]), mp.mpf(xs[i + 1])), solver="anderson"))


# ---------------------------------------------------------------------------
# classification and the normal form u^l = +/- v^k
# ---------------------------------------------------------------------------

NONZERO_REL = 1e-9  # the normal form's relative threshold for a nonzero coefficient


def split_series(text, a0, b0, c0, order):
    """Taylor coefficients of g1(x) = slope(b0 + x) - f'(c0) and
    g2(y) = f'(c0 + y) - f'(c0), for a polynomial f."""
    fn = function(text)
    fp0 = float(fn.df(c0))
    n = fn.taylor(b0, order)
    n[0] -= float(fn.f(a0))
    d0 = b0 - a0
    q, prev = [], 0.0
    for k in range(order + 1):  # (n_0 + n_1 x + ...) / (d0 + x)
        prev = (n[k] - prev) / d0
        q.append(prev)
    q[0] -= fp0
    t = fn.taylor(c0, order + 1)
    g2 = [0.0] + [(j + 1) * t[j + 1] for j in range(1, order + 1)]
    return q, g2


def _order(series):
    scale = max(1.0, max(abs(a) for a in series))
    return next((j for j in range(1, len(series)) if abs(series[j]) > NONZERO_REL * scale), None)


def normal_form(text, a0, b0, c0, kmax=16):
    """(case, k, l, alpha0, beta0, sigma1, sigma2) from the orders of
    vanishing of g1 and g2 and the signs of their leading coefficients."""
    s1, s2 = split_series(text, a0, b0, c0, kmax)
    l, k = _order(s1), _order(s2)
    alpha0 = s1[l] if l else 0.0
    beta0 = s2[k] if k else 0.0
    sg1, sg2 = int(np.sign(alpha0)), int(np.sign(beta0))
    if k == 1:
        case = "REGULAR_C"
    elif k is None or l is None:
        case = "DEGENERATE"
    elif k % 2:
        case = "UNIQUE_ODD"
    elif l == 1:
        case = "REGULAR_B_ONLY"
    elif l % 2 == 0:
        case = "TWO_BRANCHES" if sg1 * sg2 > 0 else "ISOLATED"
    else:
        case = "ONE_SIDED"
    return case, k or 0, l or 0, alpha0, beta0, sg1, sg2


def check_report(text, a0, b0, c0, report, what="classify"):
    """report: (case, k, l, alpha0, beta0, sigma1, sigma2)."""
    want = normal_form(text, a0, b0, c0)
    expect(tuple(report[:3]) == want[:3] and tuple(report[5:7]) == want[5:7],
           f"{what}: {report} but the normal form gives {want}")
    expect(close(report[3], want[3]) and close(report[4], want[4]),
           f"{what}: leading coefficients {report[3:5]} vs {want[3:5]}")


def g1_minus_g2(text, a0, b0, c0, x, y):
    fn = function(text)
    bb = b0 + x
    g1 = (fn.f(bb) - fn.f(a0)) / (bb - a0) - fn.df(c0)
    g2 = fn.df(c0 + y) - fn.df(c0)
    return g1 - g2


def check_chart(text, a0, b0, c0, report, u_of, v_of, window_x, window_y, x, x_back,
                what="morse"):
    """x_of_u(u(x)) gives back x, and sigma1 u^l - sigma2 v^k = g1 - g2."""
    expect(abs(x_back - x) <= 1e-9 * window_x, f"{what}: x_of_u(u({x!r})) = {x_back!r}")
    case, k, l, _a, _b, sg1, sg2 = report
    xs = np.linspace(-0.5 * window_x, 0.5 * window_x, 21)
    ys = np.linspace(-0.5 * window_y, 0.5 * window_y, 21)
    X, Y = np.meshgrid(xs, ys)
    lhs = sg1 * np.asarray(u_of(X)) ** l - sg2 * np.asarray(v_of(Y)) ** k
    rhs = g1_minus_g2(text, a0, b0, c0, X, Y)
    err = float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(rhs))))
    expect(err <= 1e-10, f"{what}: normal-form identity error {err:.3g}")

"""Shared corpus problems and independent oracles for the test suite.

Expected values are produced by oracles that do not share code with the
library: closed forms, the quadratic formula, plain bisection, brute-force
grids, and finite differences.
"""

import math

import numpy as np
import pytest

import mvabscissa as mva

# f(x) = -x^2 + 2x on [0, 2]: the unique abscissa is c = b/2.
PARABOLA = "-x^2 + 2*x"

# f(x) = x^3 - 3x^2 + 2x, a0 = 0: abscissae solve 3c^2 - 6c = b^2 - 3b,
# i.e. c = 1 +/- sqrt(1 + (b^2 - 3b)/3).
CUBIC = "x^3 - 3*x^2 + 2*x"

# Quartic with an inflection abscissa on [0, 3]: at the seed (3, 1) the
# second derivative vanishes but f'(3) != f'(1).
QUARTIC_INFLECTION = "x^4 - (17/3)*x^3 + 11*x^2 - 9*x"

# Quintic with f' = (x-1)^2 (x-3) (x-1.4) on [0, 3]: seed (3, 1) has
# k = 2, l = 2 with matching leading signs (crossing branch pair).
QUINTIC_SAME_SIGN = "x^5/5 - 1.6*x^4 + (14/3)*x^3 - 6.4*x^2 + 4.2*x"

# Sextic with f' = (x-1)^2 (x-3) (x^2 - 4.5x + 3.3) on [0, 3]: seed (3, 1)
# has k = 2, l = 2 with opposite leading signs (isolated solution).
SEXTIC_OPPOSITE = "x^6/6 - 1.9*x^5 + 8.2*x^4 - 17*x^3 + 18.3*x^2 - 9.9*x"


@pytest.fixture
def parabola():
    return mva.Problem(mva.parse(PARABOLA), 0.0, 2.0)


@pytest.fixture
def cubic():
    return mva.Problem(mva.parse(CUBIC), 0.0, 3.0)


@pytest.fixture
def quartic_inflection():
    return mva.Problem(mva.parse(QUARTIC_INFLECTION), 0.0, 3.0)


@pytest.fixture
def quintic_same_sign():
    return mva.Problem(mva.parse(QUINTIC_SAME_SIGN), 0.0, 3.0)


@pytest.fixture
def sextic_opposite():
    return mva.Problem(mva.parse(SEXTIC_OPPOSITE), 0.0, 3.0)


@pytest.fixture
def x_fourth():
    return mva.Problem(mva.parse("x^4"), -1.0, 1.0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def cubic_lower(b):
    return 1.0 - math.sqrt(1.0 + (b * b - 3.0 * b) / 3.0)


def cubic_upper(b):
    return 1.0 + math.sqrt(1.0 + (b * b - 3.0 * b) / 3.0)


def x_fourth_branch(b):
    """Abscissa branch for f = x^4 on [-1, b]: solve 4c^3 = secant slope."""
    t = (b ** 4 - 1.0) / (4.0 * (b + 1.0))
    return math.copysign(abs(t) ** (1.0 / 3.0), t)


def bisect_root(fn, lo, hi, iters=200):
    """Plain bisection; assumes fn(lo) and fn(hi) have opposite signs."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def poly_text(coeffs):
    """Expression text for sum coeffs[j] * x^j (coeffs[0] is the constant)."""
    parts = [repr(float(coeffs[0]))]
    for j, a in enumerate(coeffs[1:], start=1):
        parts.append(f"({float(a)!r})*x^{j}")
    return " + ".join(parts)


def poly_derivative(coeffs, order):
    """Coefficient list of the order-th derivative (exact integer factors)."""
    out = list(coeffs)
    for _ in range(order):
        out = [j * out[j] for j in range(1, len(out))]
        if not out:
            out = [0.0]
    return out


def poly_value(coeffs, x):
    acc = 0.0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def grid_sign_change_roots(fn, lo, hi, n):
    """Brute-force root bracketing on a uniform n-point grid."""
    xs = np.linspace(lo, hi, n)
    fv = np.asarray(fn(xs), dtype=float)
    idx = np.nonzero(fv[:-1] * fv[1:] < 0)[0]
    return [bisect_root(lambda t: float(fn(t)), float(xs[i]), float(xs[i + 1]))
            for i in idx]


def read_csv(text):
    """The rows (b, c, residual, column) of a scan or branch CSV, parsed by
    plain string handling: the header, LF line ends and one trailing LF."""
    lines = text.split("\n")
    assert lines[0] == "b,c,residual,column" and lines[-1] == "" and all(lines[1:-1])
    return [(float(b), float(c), float(r), int(k))
            for b, c, r, k in (line.split(",") for line in lines[1:-1])]


# ---------------------------------------------------------------------------
# polynomial oracles by numpy.roots
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)

# the corpus polynomials as coefficient lists, constant first
CORPUS_COEFFS = {
    PARABOLA: [0.0, 2.0, -1.0],
    CUBIC: [0.0, 2.0, -3.0, 1.0],
    QUARTIC_INFLECTION: [0.0, -9.0, 11.0, -17.0 / 3.0, 1.0],
    QUINTIC_SAME_SIGN: [0.0, 4.2, -6.4, 14.0 / 3.0, -1.6, 1.0 / 5.0],
    SEXTIC_OPPOSITE: [0.0, -9.9, 18.3, -17.0, 8.2, -1.9, 1.0 / 6.0],
    "x^4": [0.0, 0.0, 0.0, 0.0, 1.0],
}


def _terms(coeffs, x):
    """sum |coeffs[j] x^j|: the size of the terms a float evaluation adds."""
    return poly_value([abs(a) for a in coeffs], abs(x))


def _real_roots(coeffs, lo, hi):
    """The real roots of sum coeffs[j] x^j in (lo, hi) by numpy.roots,
    sorted.  Its eigenvalues can lie some ulps further from a root than the
    bounds below allow, so each root takes up to two Newton steps by
    Horner's rule, each kept only where it lowers |p| and stays in (lo, hi):
    a double root, where p's rounding stalls them, stays as numpy gives it."""
    z = np.roots(list(reversed(coeffs)))
    real = np.abs(z.imag) <= 1e-6 * np.maximum(1.0, np.abs(z.real))
    r, d1 = z.real[real], poly_derivative(coeffs, 1)
    out = []
    for x in r[(lo < r) & (r < hi)].tolist():
        for _ in range(2):
            slope = poly_value(d1, x)
            t = x - poly_value(coeffs, x) / slope if slope else x
            if not (lo < t < hi and abs(poly_value(coeffs, t)) < abs(poly_value(coeffs, x))):
                break
            x = t
        out.append(x)
    return np.sort(np.array(out, dtype=float))


def poly_abscissae(coeffs, a0, b):
    """The abscissae of f = sum coeffs[j] x^j on [a0, b] by numpy.roots: the
    real roots of f' - S in (a0, b), S the secant slope by Horner's rule.

    Returns the roots and, for each, the most a bisected root may differ
    from it: the bisection width 1e-15 (b - a0) and the first-order effect
    of rounding F, 16 eps (the terms of S and of f') / |f''|.  The bound is
    infinite at a double root, where f'' vanishes.
    """
    fa, fb = poly_value(coeffs, a0), poly_value(coeffs, b)
    s = (fb - fa) / (b - a0)
    d1, d2 = poly_derivative(coeffs, 1), poly_derivative(coeffs, 2)
    roots = _real_roots([d1[0] - s] + d1[1:], a0, b)
    rounding = [abs(s) + (_terms(coeffs, a0) + _terms(coeffs, b)) / (b - a0) + _terms(d1, r)
                for r in roots]
    slopes = [abs(poly_value(d2, r)) for r in roots]
    bounds = [1e-15 * (b - a0) + (16 * EPS * t / d if d else math.inf)
              for t, d in zip(rounding, slopes)]
    return roots, np.array(bounds)


def poly_critical_points(coeffs, lo, hi):
    """The critical points of f' in (lo, hi), the real roots of f'' by
    numpy.roots, each with the first-order effect of rounding f'' on a
    bisected zero of it, 16 eps (the terms of f'') / |f'''|."""
    d2, d3 = poly_derivative(coeffs, 2), poly_derivative(coeffs, 3)
    roots = _real_roots(d2, lo, hi)
    slopes = [abs(poly_value(d3, r)) for r in roots]
    return roots, np.array([16 * EPS * _terms(d2, r) / d if d else math.inf
                            for r, d in zip(roots, slopes)])


def check_poly_abscissae(got, coeffs, a0, b, scale=1.0, shift=0.0):
    """got, the abscissae of f(x) = q((x - shift) / scale) on [a0, b], with
    q = sum coeffs[j] u^j, against numpy.roots on q.  Every root of f' - S
    whose bound is below 1e-9 (b - a0), a simple root, is matched within its
    bound.  Every returned root is within the rounding of f'' of a critical
    point c* of f' where f'(c*) = S, a touching root, or else within its
    bound of a root.  Returns the touching roots."""
    u0, u1 = (a0 - shift) / scale, (b - shift) / scale
    roots, bounds = poly_abscissae(coeffs, u0, u1)
    roots, bounds = shift + scale * roots, scale * bounds
    crit, crit_bounds = poly_critical_points(coeffs, u0, u1)
    s = (poly_value(coeffs, u1) - poly_value(coeffs, u0)) / (u1 - u0)
    d1 = poly_derivative(coeffs, 1)
    touch = [(shift + scale * c, scale * e) for c, e in zip(crit, crit_bounds)
             if abs(poly_value(d1, c) - s) <= 1e-9 * (1.0 + abs(s))]
    got = np.asarray(got, dtype=float)
    for r, e in zip(roots, bounds):
        if e <= 1e-9 * (b - a0):
            assert got.size and np.min(np.abs(got - r)) <= e, f"missed {r!r} at b = {b!r}"
    touching = []
    for c in got.tolist():
        if any(abs(c - t) <= e for t, e in touch):
            touching.append(c)
        else:
            assert np.any(np.abs(roots - c) <= bounds), f"{c!r} is no root at b = {b!r}"
    return touching

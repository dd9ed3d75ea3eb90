"""Local classification of solution points of the mean value condition.

A point is regular when f''(c0) != 0 (unique local branch c = C(b)).
Otherwise the orders of vanishing k, l of the split G = g1 - g2 reduce the
local zero set to the normal form u^l = +/- v^k, whose parity/sign case
analysis determines the branch structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from . import expr, mvt
from .errors import DegenerateProblem, DomainError, OutsideNeighborhood

NONZERO_REL_TOL = 1e-9
DEFAULT_KMAX = 16
SOLUTION_TOL = 1e-8
_EXTREMUM_GRID = 4096
_EPS = float(np.finfo(float).eps)


class Case(str, Enum):
    REGULAR_C = "REGULAR_C"
    REGULAR_B_ONLY = "REGULAR_B_ONLY"
    TWO_BRANCHES = "TWO_BRANCHES"
    ISOLATED = "ISOLATED"
    ONE_SIDED = "ONE_SIDED"
    UNIQUE_ODD = "UNIQUE_ODD"
    DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class DegeneracyReport:
    k: int            # order of vanishing of g2 at 0 (0 when none found)
    l: int            # order of vanishing of g1 at 0 (0 when none found)
    alpha0: float     # leading g1 coefficient
    beta0: float      # leading g2 coefficient
    sigma1: int
    sigma2: int
    case: Case
    f_pp_c0: float    # raw f''(c0), kept for auditing borderline calls
    f_b: float        # raw F_b(b0, c0)
    value: float      # raw F(b0, c0)
    b_branch_exists: bool  # f'(b0) != f'(c0), so a local branch b = B(c) exists
    # g1's and g2's Taylor coefficients at 0 to order kmax, which the Morse
    # chart reads; not a result, so left out of ==, repr and to_dict
    series: tuple = field(repr=False, compare=False)

    def to_dict(self):
        keys = ("k", "l", "alpha0", "beta0", "sigma1", "sigma2")
        return {**{key: getattr(self, key) for key in keys}, "case": self.case.value}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def vanishing_order(coeffs):
    """The first index from 1 whose coefficient is above NONZERO_REL_TOL times
    max(1, the largest coefficient), else None."""
    scale = max(1.0, max(abs(float(c)) for c in coeffs))
    for j in range(1, len(coeffs)):
        if abs(float(coeffs[j])) > NONZERO_REL_TOL * scale:
            return j
    return None


def _check_kmax(kmax):
    # a series of order kmax of f' needs f's jet of order kmax + 1
    if not 1 <= kmax < expr.MAX_JET_ORDER:
        raise ValueError(f"kmax must be in 1..{expr.MAX_JET_ORDER - 1}, got {kmax!r}")


def classify_point(p: mvt.Problem, b0: float, c0: float,
                   kmax: int = DEFAULT_KMAX) -> DegeneracyReport:
    """Classify the solution point (b0, c0) of F(b, c) = 0, which must pass
    mvt._residual_ok with SOLUTION_TOL, or NotASolution is raised.  The
    orders of vanishing are sought from 1 to kmax, which must lie in
    1..MAX_JET_ORDER - 1."""
    _check_kmax(kmax)
    if not (np.isfinite(b0) and np.isfinite(c0)):
        raise ValueError(f"need a finite point, got ({b0!r}, {c0!r})")
    value, f_b, f_c = mvt._seed_terms(p, b0, c0, SOLUTION_TOL)

    g1, g2 = mvt.g1_g2(p, b0, c0)
    s1 = g1.series(kmax)
    s2 = g2.series(kmax)
    l = vanishing_order(s1)
    k = vanishing_order(s2)
    alpha0 = float(s1[l]) if l is not None else 0.0
    beta0 = float(s2[k]) if k is not None else 0.0
    sigma1 = int(np.sign(alpha0))
    sigma2 = int(np.sign(beta0))

    if k == 1:
        case = Case.REGULAR_C
    elif k is None or l is None:
        case = Case.DEGENERATE
    elif k % 2 == 1:
        case = Case.UNIQUE_ODD
    elif l == 1:
        case = Case.REGULAR_B_ONLY
    elif l % 2 == 0:
        case = Case.TWO_BRANCHES if sigma1 * sigma2 > 0 else Case.ISOLATED
    else:
        case = Case.ONE_SIDED

    return DegeneracyReport(
        k=k or 0, l=l or 0, alpha0=alpha0, beta0=beta0,
        sigma1=sigma1, sigma2=sigma2, case=case,
        f_pp_c0=-f_c, f_b=f_b, value=value, b_branch_exists=l == 1, series=(s1, s2))


class MorseChart:
    """Coordinates (u, v) in which g1(x) - g2(y) = sigma1*u^l - sigma2*v^k.

    u(x) = x * (sigma1 * g1(x) / x^l)^(1/l) and analogously v(y); valid on
    the window where the radicands stay positive and u (v) increases.
    Each coordinate is computed with its slope, and x_of_u and y_of_v
    invert it on that window by mvt._bisect_one's safeguarded Newton steps.
    The Horner tails read g1's and g2's series from the report where it
    kept them to the orders needed.
    """

    _SERIES_CUTOFF = 1e-4

    def __init__(self, p, b0, c0, report):
        if report.case in (Case.REGULAR_C, Case.DEGENERATE):
            raise ValueError(f"no normal-form chart for case {report.case.value}")
        self.report = report
        self.g1, self.g2 = mvt.g1_g2(p, b0, c0)

        def series(kept, g, order):
            # 8 orders past the leading term, for the Horner tails: the
            # report's where it kept that many; g2's series of order n reads
            # f's jet of order n + 1
            n = min(expr.MAX_JET_ORDER - 1, order + 8)
            return tuple(map(float, kept[:n + 1] if len(kept) > n else g.series(n)))

        s1, s2 = report.series
        self._s1, self._s2 = series(s1, self.g1, report.l), series(s2, self.g2, report.k)
        b_terms, c_terms = mvt._b_terms(p), mvt._c_terms(p)
        fpc0 = float(mvt._fprime(p)(c0))

        def g1_terms(x):  # g1 = S(b0 + x) - f'(c0) and g1' = S'(b0 + x)
            s, ds = b_terms(b0 + x)
            return s - fpc0, ds

        def g2_terms(y):  # g2 = f'(c0 + y) - f'(c0) and g2' = f''(c0 + y)
            t, f_c = c_terms(c0 + y)
            return -t - fpc0, -f_c

        self._u = partial(self._coordinate, series=self._s1, n=report.l,
                          sign=report.sigma1, g=self.g1, terms=g1_terms)
        self._v = partial(self._coordinate, series=self._s2, n=report.k,
                          sign=report.sigma2, g=self.g2, terms=g2_terms)
        wx0 = 0.5 * min(b0 - p.a0, p.domain[1] - b0 if p.domain[1] > b0 else b0 - p.a0)
        wy0 = 0.5 * min(c0 - p.a0, b0 - c0)
        self.window_x = self._find_window(self.u, wx0)
        self.window_y = self._find_window(self.v, wy0)

    def _coordinate(self, t, slope, series, n, sign, g, terms):
        """The chart coordinate t * q^(1/n), q = sign * g(t) / t^n, at a
        float or an array t, and its slope where asked for, else None.

        q and q' come from the Horner tail of g's series and its derivative
        where |t| is below the cutoff and the quotient would cancel, and
        elsewhere from g and g', by terms, or from g alone where no slope is
        asked for or terms finds f not finite.  A float runs in Python
        arithmetic, as each step of an inversion does.
        """

        def tail(t):
            h, dh = 0.0, 0.0 if slope else math.nan
            for coef in reversed(series[n:]):
                if slope:
                    dh = dh * t + h
                h = h * t + coef
            return sign * h, sign * dh

        def quotient(t):
            if not slope:
                return sign * (g(t) / t ** n), math.nan
            try:
                gt, dg = terms(t)
            except DomainError:  # as mvt._solve: a step without a slope bisects
                gt, dg = g(t), math.nan
            tn = t ** n
            return sign * (gt / tn), sign * (dg - n * gt / t) / tn

        if isinstance(t, float):
            q, dq = tail(t) if abs(t) < self._SERIES_CUTOFF else quotient(t)
            outside = q <= 0
        else:
            t = np.asarray(t, dtype=float)
            small = np.abs(t) < self._SERIES_CUTOFF
            q, dq = np.empty_like(t), np.empty_like(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                for part, fn in ((small, tail), (~small, quotient)):
                    q[part], dq[part] = fn(t[part])
            outside = np.any(q <= 0)
        if outside:
            raise OutsideNeighborhood(f"sigma * g(t)/t^{n} is not positive here")
        r = q ** (1.0 / n)
        return t * r, r + t * r * dq / (n * q) if slope else None

    def _find_window(self, fwd, w0):
        """Halve w0 until the chart coordinate fwd is defined and strictly
        increasing on 257 points of [-w, w]."""
        w = w0
        ts = np.linspace(-1.0, 1.0, 257)
        for _ in range(60):
            try:
                if np.all(np.diff(fwd(ts * w)) > 0):
                    return w
            except OutsideNeighborhood:
                pass
            w *= 0.5
        raise OutsideNeighborhood("no window with positive radicand and monotone chart found")

    def u(self, x):
        return self._u(x, False)[0]

    def v(self, y):
        return self._v(y, False)[0]

    def _invert(self, coordinate, window, target):
        # the ends with their slopes: at a float, terms give the value at
        # less cost than g alone
        ends = coordinate(-window, True)[0], coordinate(window, True)[0]
        if not ends[0] <= target <= ends[1]:
            raise OutsideNeighborhood(f"target {target!r} outside the chart window")
        if target in ends:  # an end exactly, which the steps would reach only to a rounding
            return window if target == ends[1] else -window

        def excess(x):  # and its slope; the coordinate increases, so it is negative below x
            value, slope = coordinate(x, True)
            return value - target, slope

        # a width of 8 roundings of the window's ends: at a narrower one,
        # Newton can reach the coordinate's rounding floor from one side,
        # fail the rtsafe test there and bisect from the bracket's far end
        return mvt._bisect_one(excess, -window, window, -1.0, 8 * _EPS * window)

    def x_of_u(self, u):
        return self._invert(self._u, self.window_x, float(u))

    def y_of_v(self, v):
        return self._invert(self._v, self.window_y, float(v))


def morse_coordinates(p: mvt.Problem, b0: float, c0: float,
                      report: DegeneracyReport) -> MorseChart:
    """Build the normal-form coordinate chart at a degenerate solution point."""
    return MorseChart(p, b0, c0, report)


def find_extremal_abscissa(p: mvt.Problem, kmax: int = DEFAULT_KMAX):
    """Interior global extremum c0 of the Rolle function g = f - L, L the
    secant through (a0, f(a0)) and (b0, f(b0)), with the odd order k of
    vanishing of g' = f' - S(b0) at c0; g and g' as mvt.normalize(p)'s tape
    gives them.  c0 is the sign change of g' between the grid neighbours of
    the inner node of _EXTREMUM_GRID cells where |g| is largest, the first
    on a tie.  Where g' does not change sign there, because the grid is too
    coarse for f or g is only rounding noise, raises DegenerateProblem."""
    _check_kmax(kmax)
    fprime = mvt._fprime(p)
    fa = float(p.fa)
    s = (float(expr.evaluate(p.tape, p.b0)) - fa) / (p.b0 - p.a0)
    xs = np.linspace(p.a0, p.b0, _EXTREMUM_GRID + 1)
    gv = np.abs(expr.evaluate(p.tape, xs) - (s * (xs - p.a0) + fa))
    i0 = 1 + int(np.argmax(gv[1:-1]))
    if gv[i0] == 0.0:
        raise DegenerateProblem("g vanishes identically on the grid")

    def gp(c):
        return fprime(c) - s

    lo, hi = float(xs[i0 - 1]), float(xs[i0 + 1])
    glo = gp(lo)
    # by the signs of g' at the two ends: their product may overflow
    if not np.sign(glo) * np.sign(gp(hi)) < 0:
        raise DegenerateProblem(
            f"f' does not change sign across the grid extremum {float(xs[i0])!r}: a grid "
            f"of {_EXTREMUM_GRID} cells is too coarse for f, or f is affine up to rounding")
    c0 = mvt._bisect_one(gp, lo, hi, glo)

    k = vanishing_order(mvt.g1_g2(p, p.b0, c0)[1].series(kmax))
    if k is None:
        raise DegenerateProblem(f"f' vanishes to order > {kmax} at {c0!r}")
    return c0, k


def guaranteed_branch(p: mvt.Problem, b_range=None, step=None,
                      kmax: int = DEFAULT_KMAX, tol: float = mvt.DEFAULT_TOL):
    """The always-available continuous branch through an extremal abscissa.

    Traces c = C(b) through (b0, c0), c0 the interior global extremum of the
    Rolle function (find_extremal_abscissa), on p itself: F does not change
    when a linear function is added to f.  Returns c0 and the branch.
    """
    c0, _, branch = _guaranteed_branch(p, b_range, step, kmax, tol)
    return c0, branch


def _guaranteed_branch(p, b_range, step, kmax, tol):
    """guaranteed_branch, which also returns the order k of f' at c0."""
    from . import continuation

    c0, k = find_extremal_abscissa(p, kmax=kmax)
    w = p.b0 - p.a0
    if b_range is None:
        b_range = (max(p.a0 + 0.05 * w, p.b0 - 0.2 * w), p.b0 + 0.2 * w)
    branch = continuation.trace_c_of_b(p, p.b0, c0, b_range, step=step, tol=tol, kmax=kmax)
    return c0, k, branch

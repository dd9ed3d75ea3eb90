"""Local classification of solution points of the mean value condition.

A point is regular when f''(c0) != 0 (unique local branch c = C(b)).
Otherwise the orders of vanishing k, l of the split G = g1 - g2 reduce the
local zero set to the normal form u^l = +/- v^k, whose parity/sign case
analysis determines the branch structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import expr, mvt
from .errors import DegenerateProblem, OutsideNeighborhood

NONZERO_REL_TOL = 1e-9
DEFAULT_KMAX = 16
SOLUTION_TOL = 1e-8
_EXTREMUM_GRID = 4096


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
        f_pp_c0=-f_c, f_b=f_b, value=value, b_branch_exists=l == 1)


class MorseChart:
    """Coordinates (u, v) in which g1(x) - g2(y) = sigma1*u^l - sigma2*v^k.

    u(x) = x * (sigma1 * g1(x) / x^l)^(1/l) and analogously v(y); valid on
    the window where the radicands stay positive and u (v) increases.
    Inverses are computed by bisection on that window.
    """

    _SERIES_CUTOFF = 1e-4

    def __init__(self, p, b0, c0, report):
        if report.case in (Case.REGULAR_C, Case.DEGENERATE):
            raise ValueError(f"no normal-form chart for case {report.case.value}")
        self.report = report
        self.g1, self.g2 = mvt.g1_g2(p, b0, c0)
        # 8 orders past the leading term, for the Horner tails; g2's series
        # of order n reads f's jet of order n + 1
        self._s1 = self.g1.series(min(expr.MAX_JET_ORDER - 1, report.l + 8))
        self._s2 = self.g2.series(min(expr.MAX_JET_ORDER - 1, report.k + 8))
        wx0 = 0.5 * min(b0 - p.a0, p.domain[1] - b0 if p.domain[1] > b0 else b0 - p.a0)
        wy0 = 0.5 * min(c0 - p.a0, b0 - c0)
        self.window_x = self._find_window(self.u, wx0)
        self.window_y = self._find_window(self.v, wy0)

    def _ratio(self, series, order, t):
        """g(t) / t^order: by Horner on the shifted series where |t| is below
        the cutoff and the quotient would cancel, and directly elsewhere."""
        t = np.asarray(t, dtype=float)
        small = np.abs(t) < self._SERIES_CUTOFF
        if t.ndim == 0:
            return self._tail(series, order, t) if small else self._direct(series, order, t)
        out = np.empty_like(t)
        out[small] = self._tail(series, order, t[small])
        out[~small] = self._direct(series, order, t[~small])
        return out

    @staticmethod
    def _tail(series, order, t):
        tail = np.zeros_like(t)
        for coef in reversed(series[order:]):
            tail = tail * t + float(coef)
        return tail

    def _direct(self, series, order, t):
        g = self.g1(t) if series is self._s1 else self.g2(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(g, dtype=float) / t ** order

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
        r = self.report.sigma1 * self._ratio(self._s1, self.report.l, x)
        if np.any(r <= 0):
            raise OutsideNeighborhood("sigma1 * g1(x)/x^l is not positive here")
        return np.asarray(x, dtype=float) * r ** (1.0 / self.report.l)

    def v(self, y):
        r = self.report.sigma2 * self._ratio(self._s2, self.report.k, y)
        if np.any(r <= 0):
            raise OutsideNeighborhood("sigma2 * g2(y)/y^k is not positive here")
        return np.asarray(y, dtype=float) * r ** (1.0 / self.report.k)

    def _invert(self, fwd, window, target):
        if not float(fwd(-window)) <= target <= float(fwd(window)):
            raise OutsideNeighborhood(f"target {target!r} outside the chart window")
        # fwd increases on the window, so fwd - target is negative below x
        return mvt._bisect_one(lambda x: fwd(x) - target, -window, window, -1.0)

    def x_of_u(self, u):
        return self._invert(self.u, self.window_x, float(u))

    def y_of_v(self, v):
        return self._invert(self.v, self.window_y, float(v))


def morse_coordinates(p: mvt.Problem, b0: float, c0: float,
                      report: DegeneracyReport) -> MorseChart:
    """Build the normal-form coordinate chart at a degenerate solution point."""
    return MorseChart(p, b0, c0, report)


def find_extremal_abscissa(p: mvt.Problem, kmax: int = DEFAULT_KMAX):
    """Interior global extremum c0 of a normalized problem, with the odd
    order of vanishing k of f' at c0.

    Requires g(a0) = g(b0) = 0 (apply mvt.normalize first).  c0 is the sign
    change of f' between the grid neighbours of the grid's extremum of
    _EXTREMUM_GRID cells.  Where f' does not change sign there, because the
    grid is too coarse for f or because g is only rounding noise, raises
    DegenerateProblem.
    """
    _check_kmax(kmax)
    xs = np.linspace(p.a0, p.b0, _EXTREMUM_GRID + 1)
    gv = np.asarray(expr.evaluate(p.tape, xs), dtype=float)
    scale = float(np.max(np.abs(gv)))
    if abs(gv[0]) > 1e-9 * scale or abs(gv[-1]) > 1e-9 * scale:
        raise ValueError("problem is not normalized: g(a0) or g(b0) is nonzero")
    if scale == 0.0:
        raise DegenerateProblem("g vanishes identically on the grid")

    i_max = int(np.argmax(gv))
    i_min = int(np.argmin(gv))
    # global extremum = the larger of |max|, |min|; ties keep the smaller c0
    candidates = sorted([i_max, i_min], key=lambda i: (-abs(float(gv[i])), xs[i]))
    i0 = candidates[0]
    if i0 in (0, _EXTREMUM_GRID):
        i0 = candidates[1]
    if i0 in (0, _EXTREMUM_GRID):
        raise DegenerateProblem("no interior global extremum found")

    gp = mvt._fprime(p)
    lo, hi = float(xs[max(0, i0 - 1)]), float(xs[min(_EXTREMUM_GRID, i0 + 1)])
    glo = gp(lo)
    if not glo * gp(hi) < 0:
        raise DegenerateProblem(
            f"f' does not change sign across the grid extremum {float(xs[i0])!r}: a grid "
            f"of {_EXTREMUM_GRID} cells is too coarse for f, or f is affine up to rounding")
    c0 = mvt._bisect_one(gp, lo, hi, glo)

    k = vanishing_order(mvt._fprime_series(p, c0, kmax))
    if k is None:
        raise DegenerateProblem(f"f' vanishes to order > {kmax} at {c0!r}")
    return c0, k


def guaranteed_branch(p: mvt.Problem, b_range=None, step=None,
                      kmax: int = DEFAULT_KMAX, tol: float = mvt.DEFAULT_TOL):
    """The always-available continuous branch through an extremal abscissa.

    Normalizes the problem, picks the interior global extremum (odd order of
    vanishing of f'), and traces c = C(b) through (b0, c0).  Returns c0 and
    the branch.
    """
    c0, _, branch = _guaranteed_branch(p, b_range, step, kmax, tol)
    return c0, branch


def _guaranteed_branch(p, b_range, step, kmax, tol):
    """guaranteed_branch, which also returns the order k of f' at c0."""
    from . import continuation

    pn = mvt.normalize(p)
    c0, k = find_extremal_abscissa(pn, kmax=kmax)
    w = p.b0 - p.a0
    if b_range is None:
        b_range = (max(p.a0 + 0.05 * w, p.b0 - 0.2 * w), p.b0 + 0.2 * w)
    pn = pn.covering(min(b_range[0], pn.domain[0]), max(b_range[1], pn.domain[1]))
    branch = continuation.trace_c_of_b(pn, p.b0, c0, b_range, step=step, tol=tol, kmax=kmax)
    return c0, k, branch

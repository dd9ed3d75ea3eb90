"""The mean value condition as an implicit equation F(b, c) = 0.

F(b, c) = (f(b) - f(a0)) / (b - a0) - f'(c).  A zero of F is a pair of a
right endpoint b and a mean value abscissa c for f on [a0, b].  F is
separable, S(b) + T(c) with the secant slope S and T = -f', and each term
with its derivative comes from one function of its own variable, with f's
jet of its width bound once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Optional

import numpy as np

from . import expr
from .errors import (DegenerateProblem, DomainError, EndpointCollision, MvaError,
                     NotASolution)

DEFAULT_TOL = 1e-10
DEFAULT_GRID_N = 2048
# the most brackets _bisect steps one at a time on floats: an array step costs
# about as much for 1 bracket as for 10.  On sin(100*x), 8 brackets took 1.38 ms
# as arrays, 1.22 ms as floats; 16 took 1.40 and 2.19 ms (2-core x86-64).
_FLOAT_BRACKETS = 8


def _check_domain(tape, lo, hi):
    """Raise DomainError unless f evaluates, to finite values, on 65 points
    of [lo, hi]."""
    with np.errstate(all="ignore"):
        values = expr.evaluate(tape, np.linspace(lo, hi, 65))
    if not np.isfinite(values).all():
        raise DomainError(f"f is not finite on the domain [{lo!r}, {hi!r}]")


def _padded_domain(tape, a0, b0):
    """[a0, b0] padded by its width on each side, with the padding halved,
    down to none, while f does not evaluate on the domain."""
    w = b0 - a0
    for pad in [w * 0.5 ** k for k in range(10)] + [0.0]:
        try:
            _check_domain(tape, a0 - pad, b0 + pad)
            return a0 - pad, b0 + pad
        except DomainError:
            if pad == 0.0:
                raise


@dataclass(frozen=True)
class Problem:
    """A function together with fixed endpoints and an evaluation domain.

    The problem lowers f to a jet tape when it is built, and evaluates f(a0)
    on it once, when first needed.
    """

    f: expr.ExprNode
    a0: float
    b0: float
    domain: Optional[tuple] = None

    def __post_init__(self):
        for end in ("a0", "b0"):  # floats, as the compiled runs of the tape take
            object.__setattr__(self, end, float(getattr(self, end)))
        if not (np.isfinite(self.a0) and np.isfinite(self.b0) and self.a0 < self.b0):
            raise ValueError("need finite endpoints with a0 < b0")
        padded = self.domain is None
        if padded:
            object.__setattr__(self, "domain", _padded_domain(self.tape, self.a0, self.b0))
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= self.a0 and hi >= self.b0):
            raise ValueError("domain must be a finite interval containing [a0, b0]")
        if not padded:
            # fail early if f is not evaluable on the domain
            _check_domain(self.tape, lo, hi)

    @cached_property
    def tape(self) -> expr.Tape:
        """f lowered for expr.evaluate and expr.jet_eval."""
        return expr.lower(self.f)

    @cached_property
    def fa(self):
        """f(a0)."""
        return expr.evaluate(self.tape, self.a0)

    @property
    def expression(self) -> str:
        return expr.to_string(self.f)

    def covering(self, lo, hi) -> "Problem":
        """A copy whose domain is extended to cover [lo, hi] (re-validated)."""
        dlo, dhi = self.domain
        if lo >= dlo and hi <= dhi:
            return self
        return replace(self, domain=(min(lo, dlo), max(hi, dhi)))


@dataclass(frozen=True)
class SolutionPoint:
    b: float
    c: float
    residual: float


def _residual_ok(value, slope, fpc, tol):
    """The one test of whether (b, c) solves F = slope - f'(c) = value = 0:
    |F| <= tol * max(1, |slope| + |f'(c)|), on floats or arrays.  The
    rounding error of F grows with the two terms it cancels.  Raises
    ValueError unless tol is positive and finite."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    # tol * max(1, s) as an or of its two cases, which floats take without numpy
    return (abs(value) <= tol) | (abs(value) <= tol * (abs(slope) + abs(fpc)))


def solution_point(p: Problem, b, c) -> SolutionPoint:
    """A validated solution point: a0 < c < b and F passes _residual_ok
    with DEFAULT_TOL."""
    b, c = float(b), float(c)
    if not (p.a0 < c < b):
        raise ValueError(f"abscissa c={c!r} is not interior to ({p.a0!r}, {b!r})")
    slope, fpc = float(_b_terms(p)(b)[0]), float(_fprime(p)(c))
    r = abs(slope - fpc)
    if not _residual_ok(r, slope, fpc, DEFAULT_TOL):
        raise ValueError(f"residual {r!r} exceeds tolerance {DEFAULT_TOL!r} at its scale")
    return SolutionPoint(b, c, r)


def _endpoint_guard(p, b):
    # scaled per element, so an array of b values raises exactly when one of
    # its entries would raise on its own; a float b is tested without numpy
    if isinstance(b, float):
        collides = abs(b - p.a0) < 1e-12 * max(1.0, abs(p.a0), abs(b))
    else:
        b = np.asarray(b, dtype=float)
        scale = np.maximum(max(1.0, abs(p.a0)), np.abs(b))
        collides = np.any(np.abs(b - p.a0) < 1e-12 * scale)
    if collides:
        raise EndpointCollision(f"b collides with a0 = {p.a0!r}")


def _b_terms(p):
    """The terms of F that need only b, as a function of b: the secant
    slope S(b) = (f(b) - f(a0)) / (b - a0) and F_b = S'(b)."""
    jet = p.tape.jet(2)

    def terms(b):
        _endpoint_guard(p, b)
        jb = jet(b)
        d, rise = b - p.a0, jb[0] - p.fa
        return rise / d, (jb[1] * d - rise) / (d * d)

    return terms


def _c_terms(p):
    """The terms of F that need only c, as a function of c: T(c) = -f'(c),
    so that F(b, c) = S(b) + T(c), and F_c = T'(c) = -f''(c)."""
    jet = p.tape.jet(3)

    def terms(c):
        jc = jet(c)
        return -jc[1], -2.0 * jc[2]

    return terms


def _fprime(p):
    """f' as a function of c, from an order-1 jet: F(b, c) is
    S(b) - f'(c) at a fixed b."""
    jet = p.tape.jet(2)
    return lambda c: jet(c)[1]


def _fprime_series(p, c, order):
    """The Taylor coefficients of f' at c up to order, from f's jet."""
    t = expr.jet_eval(p.tape, c, order + 1)
    return [(j + 1) * t[j + 1] for j in range(order + 1)]


def _seed_terms(p, b, c, tol):
    """F, F_b and F_c at a seed (b, c), which must pass _residual_ok with
    tol, or NotASolution is raised."""
    (slope, f_b), (t, f_c) = _b_terms(p)(b), _c_terms(p)(c)
    value = slope + t
    if not _residual_ok(value, slope, t, tol):
        raise NotASolution(f"|F({b!r}, {c!r})| = {float(abs(value))!r} exceeds tolerance")
    return value, f_b, f_c


def big_f(p: Problem, b, c):
    """F, F_b, F_c at (b, c), scalars or arrays; where both raise, c's terms do."""
    (t, f_c), (slope, f_b) = _c_terms(p)(c), _b_terms(p)(b)
    return slope + t, f_b, f_c


def mean_value_implicit(p: Problem):
    """F(b, c) for the implicit solver (x = b, y = c): the function
    (b, c) -> big_f(p, b, c), looking big_f up at each call."""
    return lambda b, c: big_f(p, b, c)


def normalize(p: Problem) -> Problem:
    """Subtract the secant line so g(a0) = g(b0) = 0; solutions are unchanged."""
    fa = float(p.fa)
    fb = float(expr.evaluate(p.tape, p.b0))
    s = (fb - fa) / (p.b0 - p.a0)
    secant = expr.Binary(
        "+",
        expr.Binary("*", expr.Const(s),
                    expr.Binary("-", expr.Var(), expr.Const(p.a0))),
        expr.Const(fa))
    return replace(p, f=expr.Binary("-", p.f, secant))


def abscissae(p: Problem, b, tol=DEFAULT_TOL, grid_n=DEFAULT_GRID_N):
    """All mean value abscissae for f on [a0, b], sorted: solve_columns on
    the one column b, whose grid is then grid_n + 2 nodes of [a0, b]."""
    (points,) = solve_columns(p, [b], tol, grid_n)
    if points is None:
        raise DegenerateProblem("F(b, .) vanishes identically on the grid")
    return [q.c for q in points]


def solve_columns(p: Problem, bs, tol=DEFAULT_TOL, grid_n=DEFAULT_GRID_N):
    """The abscissae of every b in bs, as lists of SolutionPoint sorted by c,
    or None for a column on which F(b, .) vanishes identically.  F(b, c) =
    S(b) - f'(c) is separable: f' is evaluated once, on grid_n + 2 nodes of
    [a0, max(bs)] and at each b, and the brackets of _grid and
    _critical_points are bisected together; a column keeps the roots that
    pass _residual_ok.  Where this raises, each column is redone alone, so
    that the first column to fail raises its own error."""
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    bs = [float(b) for b in bs]
    try:
        return _solve(p, np.array(bs), tol, grid_n) if bs else []
    except (ValueError, MvaError):
        for b in bs if len(bs) > 1 else ():
            _solve(p, np.array([b]), tol, grid_n)
        raise


def _solve(p, b, tol, grid_n):
    bad = ~((p.a0 < b) & (b <= p.domain[1]))
    if bad.any():
        raise ValueError(f"b = {float(b[bad][0])!r} outside (a0, domain max]")
    _endpoint_guard(p, b)
    # the value, not the order-1 jet of _b_terms: its F_b overflows at large b
    slope = (p.tape.jet(1)(b)[0] - p.fa) / (b - p.a0)
    fprime = _fprime(p)
    live, cells, grid = _grid(p, fprime, b, slope, grid_n)
    touch, sides = _critical_points(p, fprime, b, slope, live, tol, *grid)
    col, lo, hi, flo = map(np.concatenate, zip(*cells, *sides))
    del cells, sides  # frees the sets, which the concatenations copy
    roots = _bisect(lambda s, c: s - fprime(c), lo, hi, flo,
                    1e-15 * (b - p.a0)[col], slope[col])
    inside = (p.a0 < roots) & (roots < b[col])
    roots, col = roots[inside], col[inside]
    fp = fprime(roots)
    residual = np.abs(slope[col] - fp)
    kept = _residual_ok(residual, slope[col], fp, tol)
    roots, col, residual = roots[kept], col[kept], residual[kept]
    for j, c, r, lo, hi in touch:  # a touching root takes the roots of its window
        kept = (col != j) | (roots < lo) | (roots > hi)
        roots, col = np.append(roots[kept], c), np.append(col[kept], j)
        residual = np.append(residual[kept], r)
    out, bs = [[] if ok else None for ok in live.tolist()], b.tolist()
    order = np.lexsort((roots, col))
    for k, c, r in zip(col[order].tolist(), roots[order].tolist(), residual[order].tolist()):
        out[k].append(SolutionPoint(bs[k], c, r))
    return out


def _grid(p, fprime, b, slope, grid_n):
    """f', by the function fprime, on the grid cs of grid_n + 2 nodes of
    [a0, max(b)], v, and at each b, fb, with m each b's last node below it.
    Returns whether each column is live; its brackets, as sets (column, lo,
    hi, F(lo)): the cells below b and the last cell [c_m, b] where F changes
    sign, one at a0 or b only where F there is neither zero up to rounding
    nor NaN, and the nodes where F is 0, as [c, c]; and (cs, v, fb, m)."""
    a0 = p.a0
    x = np.concatenate([np.linspace(a0, b.max(), grid_n + 2), b])
    cs = x[:grid_n + 2]
    try:
        fp = np.broadcast_to(fprime(x), x.shape)
    except (ValueError, MvaError):  # f' at a0, max(b) and each b, then the others
        ends = [_fprime_or_nan(fprime, c) for c in [a0, cs[-1]] + b.tolist()]
        fp = np.concatenate([ends[:1], np.broadcast_to(fprime(cs[1:-1]), (grid_n,)), ends[1:]])
    v, fb, m = fp[:grid_n + 2], fp[grid_n + 2:], np.searchsorted(cs, b) - 1
    # S strictly between the ranks of f' at the ends of cell r among the
    # sorted slopes, or at node r + 1 - grid_n
    order = np.argsort(slope)
    below, upto = (slope[order].searchsorted(v[:-1], side) for side in ("left", "right"))
    first = np.concatenate([np.minimum(upto[:-1], upto[1:]), below[1:]])
    last = np.concatenate([np.maximum(below[:-1], below[1:]), upto[1:]])
    r = np.flatnonzero(last > first)
    counts = last[r] - first[r]
    r = np.repeat(r, counts)  # then each rank in first[r]:last[r]
    col = order[np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts) + first[r]]
    lo = r - (r >= grid_n) * (grid_n - 1)
    hi = lo + (r < grid_n)
    # the range of f' on a column's nodes and b bounds F's terms, with
    # f(b) / (b - a0) and f(a0) / (b - a0); fmax and fmin pass over a NaN
    top = np.fmax(np.fmax.accumulate(v[:-1])[m], fb)
    bottom = np.fmin(np.fmin.accumulate(v[:-1])[m], fb)
    zero = 1e-12 * np.fmax(np.abs(slope) + abs(p.fa) / (b - a0),
                           np.fmax(np.abs(top), np.abs(bottom)))
    live = np.fmax(np.abs(slope - top), np.abs(slope - bottom)) > zero
    clear_a, clear_b = np.abs(slope - v[0]) > zero, np.abs(slope - fb) > zero
    kept = live[col] & (hi <= m[col]) & ((lo > 0) | clear_a[col])
    col, lo, hi = col[kept], lo[kept], hi[kept]
    f_last = slope - v[m]
    j = np.flatnonzero(live & clear_b & ((m > 0) | clear_a) & (f_last * (slope - fb) < 0))
    cells = [(col, cs[lo], cs[hi], slope[col] - v[lo]), (j, cs[m[j]], b[j], f_last[j])]
    return live, cells, (cs, v, fb, m)


def _critical_points(p, fprime, b, slope, live, tol, cs, v, fb, m):
    """The critical points c* of f', by the function fprime, in the windows
    of _grid's nodes, the two cells around a node where the differences of
    f' change sign.  c* is bisected once, if a live column's S lies past f'
    at the column's nodes of the window, or passes _residual_ok against it;
    a window that reaches past b ends at b for that column, and counts c*
    only below b.  Returns the columns whose S passes _residual_ok against
    f'(c*), as touching roots (column, c*, |F|, window lo, hi); and, for S
    strictly between f' at the column's nodes and f'(c*), the brackets on
    either side of c*."""
    up, down = v[1:] > v[:-1], v[1:] < v[:-1]  # a NaN is neither
    k = np.flatnonzero(up | down)
    t = np.flatnonzero(up[k[1:]] != up[k[:-1]])
    w_lo, w_hi, peak = k[t], k[t + 1] + 1, up[k[t]]
    # f' at the extreme of each column's nodes in each window, b among them
    e, clip, pk = v[np.minimum(w_lo[:, None] + 1, m)], w_hi[:, None] > m, peak[:, None]
    e = np.where(clip, np.where(pk, np.fmax(e, fb), np.fmin(e, fb)), e)
    near = np.where(pk, slope >= e, slope <= e) | _residual_ok(slope - e, slope, e, tol)
    w, j = np.nonzero(near & (w_lo[:, None] <= m) & live)
    if not w.size:
        return [], []
    need, at = np.unique(w, return_inverse=True)
    # F_c = -f'' is negative before a peak of f', positive before a trough
    c_terms = _c_terms(p)
    c = _bisect(lambda c: c_terms(c)[1], cs[w_lo[need]], cs[w_hi[need]],
                np.where(peak[need], -1.0, 1.0), np.zeros(need.size))
    c, fc = c[at], np.broadcast_to(fprime(c), c.shape)[at]
    s, e, clip, w_lo, w_hi = slope[j], e[w, j], clip[w, j], w_lo[w], w_hi[w]
    lo, hi = cs[w_lo], np.where(clip, b[j], cs[w_hi])
    f_hi = s - np.where(clip, fb[j], v[w_hi])
    touching = (c < b[j]) & _residual_ok(s - fc, s, fc, tol)
    split = (c < b[j]) & ~touching & np.where(peak[w], s > e, s < e) & (f_hi * (s - fc) < 0)
    sides = [(j[split], lo[split], c[split], (s - v[w_lo])[split]),
             (j[split], c[split], hi[split], (s - fc)[split])]
    return list(zip(*(a[touching].tolist() for a in (j, c, np.abs(s - fc), lo, hi)))), sides


def _fprime_or_nan(fprime, c):
    """f'(c), by the function fprime, at the float c, or NaN where it does
    not evaluate."""
    try:
        return fprime(c)
    except (ValueError, MvaError):
        return np.nan


def _bisect(fn, lo, hi, flo, width_tol, *params):
    """Bisection of sign-change brackets; fn(*params, c) is F at c, given
    the params (arrays, an entry a bracket) of the brackets c lies in.

    Only the sign of flo = F(lo) is used: a midpoint where F is positive
    exactly when F(lo) is becomes the new lo.  A bracket stops when it is no
    wider than its width_tol or when a step leaves it unchanged (that step
    would repeat forever, e.g. on two adjacent floats).  Returns the
    midpoints.  Up to _FLOAT_BRACKETS brackets step one at a time, on floats
    in _bisect_one, which is cheaper for a few; more step all at once.
    """
    if lo.size <= _FLOAT_BRACKETS:
        rows = zip(*(a.tolist() for a in (lo, hi, flo, width_tol, *params)))
        return np.array([_bisect_one(partial(fn, *q), l, h, f, w) for l, h, f, w, *q in rows])
    up = flo > 0
    lo, hi = lo.copy(), hi.copy()
    active = np.nonzero(hi - lo > width_tol)[0]
    while active.size:
        l, h = lo[active], hi[active]
        mid = 0.5 * (l + h)
        fm = fn(*(q[active] for q in params), mid)
        zero = fm == 0.0
        same = (fm > 0) == up[active]
        lo[active] = nl = np.where(same | zero, mid, l)
        hi[active] = nh = np.where(same & ~zero, h, mid)
        active = active[((nl != l) | (nh != h)) & (nh - nl > width_tol[active])]
    return 0.5 * (lo + hi)


def _bisect_one(fn, lo, hi, flo, width_tol=None):
    """_bisect on the one bracket [lo, hi], where fn(c) is F at the float c
    and F(lo) = flo.  The bracket stops at width_tol, by default the width
    1e-16 * max(1, |lo|, |hi|) of its start, or when a step leaves it unchanged.

    It runs on Python floats rather than as _bisect's loop on one-element
    arrays: the same midpoints, exact-zero and sign rule and stops, so the
    same result bit for bit, at a fraction of the cost of a step.
    """
    lo, hi = float(lo), float(hi)
    if width_tol is None:
        width_tol = 1e-16 * max(1.0, abs(lo), abs(hi))
    up = float(flo) > 0
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        zero = fm == 0.0
        same = (fm > 0) == up
        nl = mid if same or zero else lo
        nh = hi if same and not zero else mid
        if nl == lo and nh == hi:
            break
        lo, hi = nl, nh
    return 0.5 * (lo + hi)


def _root_near(fn, c, w, lo, hi):
    """The root of fn in [lo, hi] nearest c, or None; fn takes floats and
    arrays.

    fn is sampled on 65 points of [max(lo, c - w), min(hi, c + w)], with w
    doubled, up to 60 times, until the window holds a sign change or is
    [lo, hi].  Of its sign changes, the one whose cell midpoint is nearest c
    is bisected.
    """
    for _ in range(60):
        l, h = max(lo, c - w), min(hi, c + w)
        if h <= l:
            break
        grid = np.linspace(l, h, 65)
        fv = np.asarray(fn(grid), dtype=float)
        sc = np.nonzero(fv[:-1] * fv[1:] <= 0)[0]
        if sc.size:
            mids = 0.5 * (grid[sc] + grid[sc + 1])
            i = int(sc[np.argmin(np.abs(mids - c))])
            return _bisect_one(fn, grid[i], grid[i + 1], fv[i])
        if l == lo and h == hi:
            break
        w *= 2.0
    return None


def g1_g2(p: Problem, b0: float, c0: float):
    """Split G(x, y) = F(b0+x, c0+y) as g1(x) - g2(y), both zero at 0.

    g1(x) = (f(b0+x) - f(a0)) / ((b0+x) - a0) - f'(c0)
    g2(y) = f'(c0+y) - f'(c0)

    Each takes floats or arrays, and its series(order) gives its Taylor
    coefficients at 0 up to that order.
    """
    fa = float(p.fa)
    fprime = _fprime(p)
    fpc0 = float(fprime(c0))

    def g1_value(x):
        bb = b0 + np.asarray(x, dtype=float)
        _endpoint_guard(p, bb)
        return (expr.evaluate(p.tape, bb) - fa) / (bb - p.a0) - fpc0

    def g1_series(order):
        num = list(expr.jet_eval(p.tape, b0, order))
        num[0] = num[0] - fa
        den = [b0 - p.a0, 1.0] + [0.0] * (order - 1) if order >= 1 else [b0 - p.a0]
        q = expr._div(num, den)
        q[0] = q[0] - fpc0
        return tuple(q)

    def g2_value(y):
        cc = c0 + np.asarray(y, dtype=float)
        return fprime(cc) - fpc0

    def g2_series(order):
        d = _fprime_series(p, c0, order)
        d[0] = 0.0  # d[0] == fpc0 by construction
        return tuple(d)

    g1_value.series, g2_value.series = g1_series, g2_series
    return g1_value, g2_value

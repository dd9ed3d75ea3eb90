"""The mean value condition as an implicit equation F(b, c) = 0.

F(b, c) = (f(b) - f(a0)) / (b - a0) - f'(c).  A zero of F is a pair of a
right endpoint b and a mean value abscissa c for f on [a0, b].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby
from typing import Optional

import numpy as np

from . import expr
from .errors import DegenerateProblem, DomainError, EndpointCollision, MvaError
from .solver import Implicit2D

DEFAULT_TOL = 1e-10
DEFAULT_GRID_N = 2048
# the most grid points in one block of columns, 8 columns of the default grid,
# so 128 KB a temporary.  With glibc's default malloc, blocks of 16 columns
# ran a scan 10-15 % slower; with its mmap and trim thresholds raised, both
# sizes ran alike, so the gap is the allocator's, not the cache's.
_BLOCK_POINTS = 2 ** 14


def _padded_domain(tape, a0, b0):
    """[a0, b0] padded by its width on each side, with the padding halved,
    down to none, while f does not evaluate on 65 points of the domain."""
    w = b0 - a0
    for pad in [w * 0.5 ** k for k in range(10)] + [0.0]:
        try:
            expr.evaluate(tape, np.linspace(a0 - pad, b0 + pad, 65))
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
            expr.evaluate(self.tape, np.linspace(lo, hi, 65))

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


def solution_point(p: Problem, b, c, tol=DEFAULT_TOL) -> SolutionPoint:
    """Construct a validated solution point: interior c and residual <= tol."""
    b, c = float(b), float(c)
    if not (p.a0 < c < b):
        raise ValueError(f"abscissa c={c!r} is not interior to ({p.a0!r}, {b!r})")
    r = abs(float(big_f(p, b, c)[0]))
    if r > tol:
        raise ValueError(f"residual {r!r} exceeds tolerance {tol!r}")
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


def _b_terms(p, b):
    """The terms of F that need only b: the secant slope
    (f(b) - f(a0)) / (b - a0) and F_b."""
    _endpoint_guard(p, b)
    jb = expr.jet_eval(p.tape, b, 1).coeffs
    d, rise = b - p.a0, jb[0] - p.fa
    return rise / d, (jb[1] * d - rise) / (d * d)


def _c_terms(p, c):
    """The terms of F that need only c: f'(c) and F_c = -f''(c)."""
    jc = expr.jet_eval(p.tape, c, 2).coeffs
    return jc[1], -2.0 * jc[2]


def _fprime(p, c):
    """f'(c), from an order-1 jet: F(b, c) is slope - f'(c) at a fixed b."""
    return expr.jet_eval(p.tape, c, 1).coeffs[1]


def _f(b_terms, c_terms):
    """F, F_b, F_c from the terms that need only b and those that need only c."""
    (slope, f_b), (fpc, f_c) = b_terms, c_terms
    return slope - fpc, f_b, f_c


def big_f(p: Problem, b, c):
    """F, F_b, F_c at (b, c); b and c may be scalars or numpy arrays."""
    return _f(_b_terms(p, b), _c_terms(p, c))


def mean_value_implicit(p: Problem) -> Implicit2D:
    """F(b, c) packaged for the implicit solver (x = b, y = c)."""

    def value(b, c):
        return big_f(p, b, c)[0]

    def dx(b, c):
        return big_f(p, b, c)[1]

    def dy(b, c):
        return _c_terms(p, c)[1] + 0.0 * np.asarray(b, dtype=float)

    return Implicit2D(value=value, dx=dx, dy=dy)


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
    """All mean value abscissae for f on [a0, b], sorted and deduplicated.

    Sign changes of F(b, .) on a uniform grid are refined by bisection;
    zero-touching double roots are recovered from local minima of |F|.
    """
    (points,) = solve_columns(p, [b], tol, grid_n)
    if points is None:
        raise DegenerateProblem("F(b, .) vanishes identically on the grid")
    return [q.c for q in points]


def solve_columns(p: Problem, bs, tol=DEFAULT_TOL, grid_n=DEFAULT_GRID_N):
    """The abscissae of every b in bs, as lists of SolutionPoint sorted by c.

    The columns are gridded in blocks of up to _BLOCK_POINTS grid points, one
    array evaluation of f' per block.  Then the brackets of all columns are
    refined together with one array evaluation of F per step, and each
    column's roots are residual-filtered and deduplicated.  A column on which
    F(b, .) vanishes identically gives None instead of a list.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    bs = [float(b) for b in bs]
    if not bs:
        return []
    slope, live, col, lo, hi, flo, touch = _grid_columns(p, bs, tol, grid_n)

    def F(k, c):
        return slope[k] - _fprime(p, c)

    b_arr = np.array(bs)
    width_tol = 1e-15 * (b_arr - p.a0)
    roots = np.empty(col.size)
    bi, ti = np.nonzero(~touch)[0], np.nonzero(touch)[0]
    roots[bi] = _bisect(lambda i, c: F(col[bi[i]], c),
                        lo[bi], hi[bi], flo[bi], width_tol[col[bi]])
    roots[ti] = _ternary_min(lambda i, c: np.abs(F(col[ti[i]], c)),
                             lo[ti], hi[ti], width_tol[col[ti]])

    inside = (p.a0 < roots) & (roots < b_arr[col])
    roots, col = roots[inside], col[inside]
    residual = np.abs(F(col, roots))

    # residual filter and dedup (radius (b-a0)/grid_n, smaller c wins)
    out = [[] if ok else None for ok in live]
    rows = zip(col.tolist(), roots.tolist(), residual.tolist())
    for k, column in groupby(rows, key=lambda row: row[0]):
        points = out[k]
        for _, c, r in sorted(column):
            if r > tol:
                continue
            if points and c - points[-1].c < (bs[k] - p.a0) / grid_n:
                continue
            points.append(SolutionPoint(bs[k], c, r))
    return out


def _grid_columns(p, bs, tol, grid_n):
    """Grid the columns block by block and gather what the blocks found.

    The secant slopes of all columns are evaluated in one array call.  A
    block that raises is redone one column at a time, so that the first
    column to fail raises what it raises on its own.  Returns the slope of
    every column, whether it is live (not degenerate), and for all brackets
    in column order: their column, lo, hi, F(lo), and whether they are
    touching-root windows.
    """
    b = np.array(bs)
    try:
        slope = _slope(p, b)
    except (ValueError, MvaError):
        slope = None  # each block takes its own slopes
    per_block = max(1, _BLOCK_POINTS // grid_n)
    parts = []
    for k in range(0, b.size, per_block):
        block = slice(k, k + per_block)
        try:
            found = _grid_block(p, b[block], None if slope is None else slope[block],
                                tol, grid_n)
        except (ValueError, MvaError):
            for j in range(k, min(k + per_block, b.size)):
                _grid_block(p, b[j:j + 1], None, tol, grid_n)
            raise
        block_slope, block_live, row, *brackets = found
        parts.append((block_slope, block_live, row + k, *brackets))
    slope, live, col, lo, hi, flo, touch = map(np.concatenate, zip(*parts))
    return slope, live.tolist(), col, lo, hi, flo, touch


def _slope(p, b):
    """The secant slopes of F at the array b, each in (a0, domain max]."""
    bad = ~((p.a0 < b) & (b <= p.domain[1]))
    if bad.any():
        raise ValueError(f"b = {float(b[bad][0])!r} outside (a0, domain max]")
    return _b_terms(p, b)[0]


def _grid_block(p, b, slope, tol, grid_n):
    """F(b, .) on grid_n interior points of each column of the block b, and
    the brackets it yields.

    The grid of the block is one C-contiguous array with a row per column,
    and F(b, c) = slope - f'(c) is evaluated on it as in big_f, with the
    secant slopes given, or computed here if they are None.  Returns the
    slopes, whether each column is live (F does not vanish identically on its
    grid), and, in column order, the brackets to refine in live columns as
    (row, lo, hi, F(lo), touch): the sign changes (touch False), each exact
    grid zero c as (c, c, 0, False), and the three-point windows around local
    minima of |F| that are already below tol (touch True), where a touching
    root may lie.
    """
    if slope is None:
        slope = _slope(p, b)
    cs = np.linspace(p.a0, b, grid_n + 2, axis=1)[:, 1:-1].copy()
    fprime = np.broadcast_to(_fprime(p, cs), cs.shape)
    fv = slope[:, None] - fprime
    av = np.abs(fv)
    fprime_scale = np.maximum(1.0, np.abs(fprime[:, :: max(1, grid_n // 64)]).max(axis=1))
    live = av.max(axis=1) > 1e-12 * fprime_scale

    mid = av[:, 1:-1]
    found = [np.nonzero(fv[:, :-1] * fv[:, 1:] < 0),
             np.nonzero(fv == 0.0),
             np.nonzero((mid <= av[:, :-2]) & (mid <= av[:, 2:]) & (mid <= tol)
                        & (fv[:, :-2] * fv[:, 2:] > 0))]
    row = np.concatenate([r for r, _ in found])
    lo = np.concatenate([i for _, i in found])
    width = np.concatenate([np.full(i.size, w) for (_, i), w in zip(found, (1, 0, 2))])
    order = np.argsort(row, kind="stable")
    order = order[live[row[order]]]
    row, lo, hi = row[order], lo[order], (lo + width)[order]
    return slope, live, row, cs[row, lo], cs[row, hi], fv[row, lo], width[order] == 2


def _shrink(step, lo, hi, width_tol):
    """Shrink every bracket [lo, hi] at once and return the midpoints.

    step(idx, l, h) gives the next ends of the brackets idx.  A bracket stops
    when it is no wider than its width_tol or when a step leaves it unchanged
    (that step would repeat forever, e.g. on two adjacent floats).
    """
    lo, hi = lo.copy(), hi.copy()
    active = np.nonzero(hi - lo > width_tol)[0]
    while active.size:
        l, h = lo[active], hi[active]
        lo[active], hi[active] = nl, nh = step(active, l, h)
        active = active[((nl != l) | (nh != h)) & (nh - nl > width_tol[active])]
    return 0.5 * (lo + hi)


def _bisect(fn, lo, hi, flo, width_tol):
    """Bisection of sign-change brackets; fn(idx, c) is F at c for brackets idx.

    Only the sign of flo = F(lo) is used: a midpoint where F is positive
    exactly when F(lo) is becomes the new lo.
    """
    up = flo > 0

    def step(idx, l, h):
        mid = 0.5 * (l + h)
        fm = fn(idx, mid)
        zero = fm == 0.0
        same = (fm > 0) == up[idx]
        return np.where(same | zero, mid, l), np.where(same & ~zero, h, mid)

    return _shrink(step, lo, hi, width_tol)


def _bisect_one(fn, lo, hi, flo):
    """_bisect on the one bracket [lo, hi], where fn(c) is F at the float c
    and F(lo) = flo.  The bracket stops at the width 1e-16 * max(1, |lo|, |hi|)
    of its start."""
    ends = np.array([[lo], [hi], [flo], [1e-16 * max(1.0, abs(lo), abs(hi))]], dtype=float)
    return float(_bisect(lambda _, c: fn(float(c[0])), *ends)[0])


def _ternary_min(fn, lo, hi, width_tol):
    """Ternary search for the minimum of fn on each bracket; fn as in _bisect."""

    def step(idx, l, h):
        m1 = l + (h - l) / 3.0
        m2 = h - (h - l) / 3.0
        fv = fn(np.concatenate([idx, idx]), np.concatenate([m1, m2]))
        left = fv[:idx.size] <= fv[idx.size:]
        return np.where(left, l, m1), np.where(left, m2, h)

    return _shrink(step, lo, hi, width_tol)


class LocalSeries:
    """A single-variable function of a local coordinate t, centered at t = 0.

    Callable for values (scalars or arrays) and exposes Taylor coefficients
    at 0 to any order up to the jet maximum.
    """

    def __init__(self, value_fn, series_fn):
        self._value = value_fn
        self._series = series_fn

    def __call__(self, t):
        return self._value(t)

    def series(self, order: int):
        return self._series(order)


def g1_g2(p: Problem, b0: float, c0: float):
    """Split G(x, y) = F(b0+x, c0+y) as g1(x) - g2(y), both zero at 0.

    g1(x) = (f(b0+x) - f(a0)) / ((b0+x) - a0) - f'(c0)
    g2(y) = f'(c0+y) - f'(c0)
    """
    fa = float(p.fa)
    fpc0 = float(_fprime(p, c0))

    def g1_value(x):
        bb = b0 + np.asarray(x, dtype=float)
        _endpoint_guard(p, bb)
        return (expr.evaluate(p.tape, bb) - fa) / (bb - p.a0) - fpc0

    def g1_series(order):
        num = list(expr.jet_eval(p.tape, b0, order).coeffs)
        num[0] = num[0] - fa
        den = [b0 - p.a0, 1.0] + [0.0] * (order - 1) if order >= 1 else [b0 - p.a0]
        q = expr._div(num, den)
        q[0] = q[0] - fpc0
        return tuple(q)

    def g2_value(y):
        cc = c0 + np.asarray(y, dtype=float)
        return _fprime(p, cc) - fpc0

    def g2_series(order):
        t = expr.jet_eval(p.tape, c0, order + 1).coeffs
        d = [(j + 1) * t[j + 1] for j in range(order + 1)]
        d[0] = 0.0  # d[0] == fpc0 by construction
        return tuple(d)

    return LocalSeries(g1_value, g1_series), LocalSeries(g2_value, g2_series)

"""The mean value condition as an implicit equation F(b, c) = 0.

F(b, c) = (f(b) - f(a0)) / (b - a0) - f'(c).  A zero of F is a pair of a
right endpoint b and a mean value abscissa c for f on [a0, b].
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
# the most grid points in one block of columns, 8 columns of the default grid,
# so 128 KB a temporary.  With glibc's default malloc, blocks of 16 columns
# ran a scan 10-15 % slower; with its mmap and trim thresholds raised, both
# sizes ran alike, so the gap is the allocator's, not the cache's.
_BLOCK_POINTS = 2 ** 14
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


def solution_point(p: Problem, b, c, tol=DEFAULT_TOL) -> SolutionPoint:
    """A validated solution point: a0 < c < b and F passes _residual_ok."""
    b, c = float(b), float(c)
    if not (p.a0 < c < b):
        raise ValueError(f"abscissa c={c!r} is not interior to ({p.a0!r}, {b!r})")
    slope, fpc = float(_b_terms(p, b)[0]), float(_fprime(p, c))
    r = abs(slope - fpc)
    if not _residual_ok(r, slope, fpc, tol):
        raise ValueError(f"residual {r!r} exceeds tolerance {tol!r} at its scale")
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
    jb = p.tape.checked_run(b, 2)
    d, rise = b - p.a0, jb[0] - p.fa
    return rise / d, (jb[1] * d - rise) / (d * d)


def _c_terms(p, c):
    """The terms of F that need only c: f'(c) and F_c = -f''(c)."""
    jc = p.tape.checked_run(c, 3)
    return jc[1], -2.0 * jc[2]


def _fprime(p, c):
    """f'(c), from an order-1 jet: F(b, c) is slope - f'(c) at a fixed b."""
    return p.tape.checked_run(c, 2)[1]


def _fprime_series(p, c, order):
    """The Taylor coefficients of f' at c up to order, from f's jet."""
    t = expr.jet_eval(p.tape, c, order + 1)
    return [(j + 1) * t[j + 1] for j in range(order + 1)]


def _seed_terms(p, b, c, tol):
    """F, F_b and F_c at a seed (b, c), which must pass _residual_ok with
    tol, or NotASolution is raised."""
    (slope, f_b), (fpc, f_c) = _b_terms(p, b), _c_terms(p, c)
    value = slope - fpc
    if not _residual_ok(value, slope, fpc, tol):
        raise NotASolution(f"|F({b!r}, {c!r})| = {float(abs(value))!r} exceeds tolerance")
    return value, f_b, f_c


def big_f(p: Problem, b, c):
    """F, F_b, F_c at (b, c), scalars or arrays; where both raise, c's terms do."""
    (fpc, f_c), (slope, f_b) = _c_terms(p, c), _b_terms(p, b)
    return slope - fpc, f_b, f_c


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
    """All mean value abscissae for f on [a0, b], sorted and deduplicated.

    Sign changes of F(b, .) on a uniform grid are refined by bisection.  A
    root where F(b, .) touches zero is a zero of F_c = -f'', so it is found
    by bisecting F_c across the grid window where |F| has a small local
    minimum.  A few brackets, the usual case, step on Python floats, a
    fraction of the cost of array steps; many step as arrays (see _bisect).
    """
    (points,) = solve_columns(p, [b], tol, grid_n)
    if points is None:
        raise DegenerateProblem("F(b, .) vanishes identically on the grid")
    return [q.c for q in points]


def solve_columns(p: Problem, bs, tol=DEFAULT_TOL, grid_n=DEFAULT_GRID_N):
    """The abscissae of every b in bs, as lists of SolutionPoint sorted by c.

    The secant slopes of all columns are evaluated in one array call, and the
    columns are gridded in blocks of up to _BLOCK_POINTS grid points, one
    array evaluation of f' per block.  A block that raises is redone one
    column at a time, so that the first column to fail raises what it raises
    on its own.  Then the brackets of all columns are bisected together, each
    set once: the sign changes of F with one array evaluation of F per step,
    and the touching-root windows, at whose ends F has one sign, as sign
    changes of F_c with one of F_c per step; a set of at most _FLOAT_BRACKETS
    steps faster, and to the same roots, on floats.  Each column keeps the
    roots that pass _residual_ok, |F| <= tol * max(1, |slope| + |f'(c)|),
    and deduplicates them.  A column on which F(b, .) vanishes identically
    gives None instead of a list.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    bs = [float(b) for b in bs]
    if not bs:
        return []
    b = np.array(bs)
    try:
        slope = _slope(p, b)
    except (ValueError, MvaError):
        slope = None  # each block takes its own slopes
    per_block = max(1, _BLOCK_POINTS // grid_n)
    blocks = []
    for k in range(0, b.size, per_block):
        block = slice(k, k + per_block)
        try:
            s, live, (row, *brackets), (trow, *windows) = _grid_block(
                p, b[block], None if slope is None else slope[block], tol, grid_n)
        except (ValueError, MvaError):
            for j in range(k, min(k + per_block, b.size)):
                _grid_block(p, b[j:j + 1], None, tol, grid_n)
            raise
        blocks.append((s, live, row + k, *brackets, trow + k, *windows))
    slope, live, col, lo, hi, flo, tcol, tlo, thi = map(np.concatenate, zip(*blocks))
    del blocks  # frees the per-block arrays, which the concatenations copy

    width_tol = 1e-15 * (b - p.a0)
    roots = _bisect(lambda s, c: s - _fprime(p, c), lo, hi, flo, width_tol[col], slope[col])
    if tcol.size:
        roots = np.concatenate([roots, _bisect(lambda c: _c_terms(p, c)[1], tlo, thi,
                                               _c_terms(p, tlo)[1], width_tol[tcol])])
        col = np.concatenate([col, tcol])

    inside = (p.a0 < roots) & (roots < b[col])
    roots, col = roots[inside], col[inside]
    fprime = _fprime(p, roots)
    residual = np.abs(slope[col] - fprime)
    kept = _residual_ok(residual, slope[col], fprime, tol)
    roots, col, residual = roots[kept], col[kept], residual[kept]

    # dedup in each column by c, then residual (radius (b-a0)/grid_n, smaller c wins)
    out = [[] if ok else None for ok in live.tolist()]
    order = np.lexsort((residual, roots, col))
    for k, c, r in zip(col[order].tolist(), roots[order].tolist(), residual[order].tolist()):
        points = out[k]
        if points and c - points[-1].c < (bs[k] - p.a0) / grid_n:
            continue
        points.append(SolutionPoint(bs[k], c, r))
    return out


def _slope(p, b):
    """The secant slopes of F at the array b, each in (a0, domain max]."""
    bad = ~((p.a0 < b) & (b <= p.domain[1]))
    if bad.any():
        raise ValueError(f"b = {float(b[bad][0])!r} outside (a0, domain max]")
    _endpoint_guard(p, b)
    # the value, not the order-1 jet of _b_terms: its F_b overflows at large b
    return (p.tape.checked_run(b, 1)[0] - p.fa) / (b - p.a0)


def _grid_block(p, b, slope, tol, grid_n):
    """F(b, .) on grid_n interior points of each column of the block b, and
    the brackets it yields.

    The grid of the block is one C-contiguous array with a row per column,
    and F(b, c) = slope - f'(c) is evaluated on it as in big_f, with the
    secant slopes given, or computed here if they are None.  Returns the
    slopes, whether each column is live (F does not vanish identically on its
    grid), and the brackets to refine in live columns, in two sets: the sign
    changes, with each exact grid zero c as the bracket [c, c], as (row, lo,
    hi, F(lo)); and the three-point windows around local minima of |F| that
    pass _residual_ok between values of one sign, where a touching root may
    lie, as (row, lo, hi).
    """
    if slope is None:
        slope = _slope(p, b)
    cs = np.linspace(p.a0, b, grid_n + 2, axis=1)[:, 1:-1].copy()
    fprime = np.broadcast_to(_fprime(p, cs), cs.shape)
    fv = slope[:, None] - fprime
    av = np.abs(fv)
    # F's terms: f(b) / (b - a0) and f(a0) / (b - a0), bounded by these, and f'
    scale = np.maximum(np.abs(slope) + abs(p.fa) / (b - p.a0),
                       np.abs(fprime[:, :: max(1, grid_n // 64)]).max(axis=1))
    live = av.max(axis=1) > 1e-12 * scale

    mid = av[:, 1:-1]
    r, i = np.nonzero((mid <= av[:, :-2]) & (mid <= av[:, 2:])
                      & (fv[:, :-2] * fv[:, 2:] > 0))
    near = _residual_ok(mid[r, i], slope[r], fprime[r, i + 1], tol) & live[r]
    r, i = r[near], i[near]
    (sr, si), (zr, zi) = np.nonzero(fv[:, :-1] * fv[:, 1:] < 0), np.nonzero(fv == 0.0)
    row, lo, hi = np.concatenate([sr, zr]), np.concatenate([si, zi]), np.concatenate([si + 1, zi])
    kept = live[row]
    row, lo, hi = row[kept], lo[kept], hi[kept]
    return slope, live, (row, cs[row, lo], cs[row, hi], fv[row, lo]), (r, cs[r, i], cs[r, i + 2])


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
    fpc0 = float(_fprime(p, c0))

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
        return _fprime(p, cc) - fpc0

    def g2_series(order):
        d = _fprime_series(p, c0, order)
        d[0] = 0.0  # d[0] == fpc0 by construction
        return tuple(d)

    g1_value.series, g2_value.series = g1_series, g2_series
    return g1_value, g2_value

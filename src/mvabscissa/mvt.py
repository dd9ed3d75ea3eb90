"""The mean value condition as an implicit equation F(b, c) = 0.

F(b, c) = (f(b) - f(a0)) / (b - a0) - f'(c).  A zero of F is a pair of a
right endpoint b and a mean value abscissa c for f on [a0, b].  F is
separable, S(b) + T(c) with the secant slope S and T = -f', and each term
with its derivative comes from one function of its own variable, with f's
jet of its width bound once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from itertools import chain
from typing import Optional

import numpy as np

from . import expr
from .errors import (DegenerateProblem, DomainError, EndpointCollision, MvaError,
                     NotASolution)

DEFAULT_TOL = 1e-10
DEFAULT_GRID_N = 2048
MAX_GRID_N = 2 ** 20  # the largest grid_n: its nodes take 8 MB, its cells' ranks more
# the most brackets _bisect steps one at a time on floats: an array step costs
# about as much for 1 bracket as for 10.  On the 32 brackets of sin(100*x) at
# b = 1, bisection of 8 took 1.04 ms as arrays, 0.84 ms as floats, of 12 1.05
# and 1.23 ms; Newton steps on 8 took 0.18 and 0.07 ms, on 32 0.17 and 0.21 ms
# (2-core x86-64).
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
        value = partial(expr.evaluate, self.tape)
        with np.errstate(all="ignore"):  # the domain's samples may miss a pole at an end
            for end in ("a0", "b0"):
                if not np.isfinite(_or_nan(value, getattr(self, end))):
                    raise DomainError(f"f has no finite value at {end} = {getattr(self, end)!r}")
        if self.domain is None:
            object.__setattr__(self, "domain", _padded_domain(self.tape, self.a0, self.b0))
        else:
            lo, hi = self.domain
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= self.a0 and hi >= self.b0):
                raise ValueError("domain must be a finite interval containing [a0, b0]")
            _check_domain(self.tape, lo, hi)  # fail early if f is not evaluable on the domain

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


@dataclass(frozen=True, eq=False)
class Points:
    """Solution points (b, c) and their residuals |F| as read-only 1-D
    arrays of one length, the base of a scan's and a branch's result.  Each
    array is a copy of what it is built from, which must cast safely to its
    type (None does not).  A result equals only itself: == over arrays has
    no one truth value."""

    b: np.ndarray
    c: np.ndarray
    residual: np.ndarray

    _ARRAYS = dict.fromkeys(("b", "c", "residual"), np.float64)

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name)) for name in self._ARRAYS]
        if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 1:
            raise ValueError(f"{type(self).__name__} needs 1-D arrays of one length, got "
                             + ", ".join(f"{k} {a.shape}" for k, a in zip(self._ARRAYS, arrays)))
        for (name, dtype), a in zip(self._ARRAYS.items(), arrays):
            if a.size and not np.can_cast(a.dtype, dtype):
                raise TypeError(f"{name} must hold {np.dtype(dtype)} values, got {a.dtype}")
            object.__setattr__(self, name, a.astype(dtype))
            getattr(self, name).flags.writeable = False

    def __reduce__(self):
        """Copies and pickles are built anew, read-only and unformatted."""
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def points(self):
        """The points as a list of SolutionPoint, built when read."""
        return list(map(SolutionPoint, *(a.tolist() for a in (self.b, self.c, self.residual))))

    @property
    def columns(self):
        """The column each point is written with, as a list: its own index."""
        return list(range(self.b.size))

    def to_dict(self):
        """_head()'s fields, then the points, each a dict of its arrays' values."""
        rows = zip(*(getattr(self, k).tolist() for k in self._ARRAYS))
        return {**self._head(), "points": [dict(zip(self._ARRAYS, row)) for row in rows]}

    @cached_property
    def _texts(self):
        """The fields of the points' CSV rows, flattened: repr of each b, c
        and residual, and its column.  b is formatted once per run of points
        whose b has the same bits (-0.0 == 0.0, but their reprs differ), as
        a scan's column is."""
        bits = self.b.view(np.int64)
        new = np.concatenate([[True], bits[1:] != bits[:-1]])[:bits.size]
        bs = list(map(repr, self.b[new].tolist()))
        bs = map(bs.__getitem__, (np.cumsum(new) - 1).tolist())
        return tuple(chain.from_iterable(zip(bs, map(repr, self.c.tolist()),
                                             map(repr, self.residual.tolist()), self.columns)))


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
    """Subtract the secant line so g(a0) = g(b0) = 0.  F is unchanged in
    exact arithmetic, but not the scale |S| + |f'(c)| that _residual_ok and
    _solve's liveness rule read: 1e8*sin(x) on [0, 3] then fails the residual
    test, and the rounding noise of exp(log(x+2)) reads as live."""
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
    (live,), _, c, _ = solve_columns(p, [b], tol, grid_n)
    if not live:
        raise DegenerateProblem("F(b, .) vanishes identically on the grid")
    return c.tolist()


def solve_columns(p: Problem, bs, tol=DEFAULT_TOL, grid_n=DEFAULT_GRID_N):
    """The abscissae of every b in bs, as flat arrays sorted by (column, c):
    whether each column is live, false where F(b, .) vanishes identically;
    then for each root its column, an index into bs, its c and its
    residual |F|.  F(b, c) = S(b) - f'(c) is separable: f' is evaluated
    once, on grid_n + 2 nodes of [a0, max(bs)], at each b and at the turns
    of f' that some S reaches, which become nodes (_with_turns).  The cells
    where F changes sign are refined together by _bisect's Newton steps on
    f'', and a column keeps the roots that pass _residual_ok.  Where this
    raises, each column is redone alone, so that the first column to fail
    raises its own error."""
    if not 64 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must be >= 64 and <= {MAX_GRID_N}, got {grid_n!r}")
    bs = [float(b) for b in bs]
    if not bs:
        return np.zeros(0, bool), np.zeros(0, np.intp), np.zeros(0), np.zeros(0)
    try:
        return _solve(p, np.array(bs), tol, grid_n)
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
    fprime, c_terms = _fprime(p), _c_terms(p)
    cs, v, (w_lo, w_hi, peak) = _sample(fprime, p.a0, b.max(), grid_n)
    fb, m = _or_nan(fprime, b), np.searchsorted(cs, b) - 1  # m: each b's last node below it
    # the range of f' on a column's nodes and b bounds F's terms, with
    # f(b) / (b - a0) and f(a0) / (b - a0); fmax and fmin pass over a NaN
    top = np.fmax(np.fmax.accumulate(v[:-1])[m], fb)
    bottom = np.fmin(np.fmin.accumulate(v[:-1])[m], fb)
    zero = 1e-12 * np.fmax(np.abs(slope) + abs(p.fa) / (b - p.a0),
                           np.fmax(np.abs(top), np.abs(bottom)))
    live = np.fmax(np.abs(slope - top), np.abs(slope - bottom)) > zero
    # the critical point c* of f' in a window of _sample is bisected if a live
    # column's S lies past f' at the column's nodes of the window, or passes
    # _residual_ok against it; a window that reaches past b ends at b for
    # that column, and counts c* only below b
    e, clip, pk = v[np.minimum(w_lo[:, None] + 1, m)], w_hi[:, None] > m, peak[:, None]
    e = np.where(clip, np.where(pk, np.fmax(e, fb), np.fmin(e, fb)), e)  # b among the nodes
    near = np.where(pk, slope >= e, slope <= e) | _residual_ok(slope - e, slope, e, tol)
    w, j = np.nonzero(near & (w_lo[:, None] <= m) & live)
    touch = []
    if w.size:
        need, at = np.unique(w, return_inverse=True)
        c, fc, cs_t, v = _with_turns(cs, v, (w_lo[need], w_hi[need], peak[need]),
                                     lambda c: -c_terms(c)[1], fprime)
        # where S passes _residual_ok against f'(c*), c* is a touching root,
        # which takes the column's roots of the window: all lie below b
        c, fc, s = c[at], fc[at], slope[j]
        touching = (c < b[j]) & _residual_ok(s - fc, s, fc, tol)
        lo, hi = cs[w_lo[w]], cs[w_hi[w]]
        touch = zip(*(a[touching].tolist() for a in (j, c, np.abs(s - fc), lo, hi)))
        cs, m = cs_t, np.searchsorted(cs_t, b) - 1
    # the brackets: S strictly between the ranks of f' at the ends of cell r
    # among the sorted slopes, or at node r + 1 - n, as [c, c]
    order, n = np.argsort(slope), cs.size - 2
    below, upto = (slope[order].searchsorted(v[:-1], side) for side in ("left", "right"))
    first = np.concatenate([np.minimum(upto[:-1], upto[1:]), below[1:]])
    last = np.concatenate([np.maximum(below[:-1], below[1:]), upto[1:]])
    r = np.flatnonzero(last > first)
    counts = last[r] - first[r]
    r = np.repeat(r, counts)  # then each rank in first[r]:last[r]
    col = order[np.arange(r.size) - np.repeat(np.cumsum(counts) - counts, counts) + first[r]]
    lo = r - (r >= n) * (n - 1)
    hi = lo + (r < n)
    # and the last cell [c_m, b] where F changes sign; a cell at a0 or b only
    # where F there is neither zero up to rounding nor NaN
    clear_a, clear_b = np.abs(slope - v[0]) > zero, np.abs(slope - fb) > zero
    kept = live[col] & (hi <= m[col]) & ((lo > 0) | clear_a[col])
    col, lo, hi = col[kept], lo[kept], hi[kept]
    f_last = slope - v[m]
    # F changes sign by the signs of its values: their product may overflow
    opposite = np.sign(f_last) * np.sign(slope - fb) < 0
    j = np.flatnonzero(live & clear_b & ((m > 0) | clear_a) & opposite)
    col, lo, hi, flo = map(np.concatenate, zip((col, cs[lo], cs[hi], slope[col] - v[lo]),
                                               (j, cs[m[j]], b[j], f_last[j])))
    with np.errstate(all="ignore"):  # f'' may overflow where f' does not
        roots = _bisect(partial(_shifted, c_terms, lambda c: -fprime(c)), lo, hi, flo,
                        1e-15 * (b - p.a0)[col], slope[col])
    # f' at every root: one at a0 or b ends a bracket clear there, where f' has a value
    fp = fprime(roots)
    residual = np.abs(slope[col] - fp)
    kept = (p.a0 < roots) & (roots < b[col]) & _residual_ok(residual, slope[col], fp, tol)
    roots, col, residual = roots[kept], col[kept], residual[kept]
    for j, c, r, lo, hi in touch:
        kept = (col != j) | (roots < lo) | (roots > hi)
        roots, col = np.append(roots[kept], c), np.append(col[kept], j)
        residual = np.append(residual[kept], r)
    order = np.lexsort((roots, col))
    return live, col[order], roots[order], residual[order]


def _sample(value, lo, hi, n, parts=1):
    """The n + 2 nodes of [lo, hi], V = value at them, NaN at an end where V
    has no value, and the windows (lo, hi) of nodes where V turns, as its
    differences change sign, with whether it peaks.  V is elementwise, so
    inner nodes in parts calls take a share of the temporaries of one."""
    cs, size = np.linspace(lo, hi, n + 2), -(-n // parts)  # inner nodes a call
    ends = [_or_nan(value, x) for x in (lo, cs[-1])]
    v = [np.broadcast_to(value(x), x.shape)
         for x in (cs[1:-1][i:i + size] for i in range(0, n, size))]
    v = np.concatenate([ends[:1], *v, ends[1:]])
    up, down = v[1:] > v[:-1], v[1:] < v[:-1]  # a NaN is neither
    k = np.flatnonzero(up | down)
    t = np.flatnonzero(up[k[1:]] != up[k[:-1]])
    return cs, v, (k[t], k[t + 1] + 1, up[k[t]])


def _with_turns(cs, v, windows, slope, value):
    """The turns of V in windows (lo, hi, peak) of _sample, the zeros of V'
    = slope, positive before a peak, bisected together to adjacent floats;
    V = value at them; and the nodes cs and values v with each turn a node,
    a second one where it is a node, which scan and piece read as one."""
    w_lo, w_hi, peak = windows
    c = _bisect(slope, cs[w_lo], cs[w_hi], np.where(peak, 1.0, -1.0), np.zeros(w_lo.size))
    vc = _or_nan(value, c)
    at = np.searchsorted(cs, c)
    return c, vc, np.insert(cs, at, c), np.insert(v, at, vc)


def _piece(p, value, slope, t, hi, at_turn=False):
    """The piece of [a0, hi] around t on which V = value, with V' = slope,
    is monotone.  Its ends are the turns of V nearest t, from the windows
    around t of a grid of DEFAULT_GRID_N + 2 nodes, but not the one holding
    t where at_turn says t is a turn, as nodes (_with_turns); or else the
    grid's ends.  An end where V reads NaN gives way to the next node.
    Returns the piece's nodes, V at them, and whether each end is a turn."""
    # in two parts, so that a branch's grid takes half the memory
    cs, v, (w_lo, w_hi, peak) = _sample(value, p.a0, hi, DEFAULT_GRID_N, 2)
    # the windows before below lie below t, those from above on above it
    below, above = np.searchsorted(cs[w_hi], t), np.searchsorted(cs[w_lo], t, "right")
    near = [i for i in ((below - 1, above) if at_turn else range(below - 1, above + 1))
            if 0 <= i < w_lo.size]
    turns = []
    if near:  # where V' has no value it reads as NaN, and bisects as if negative
        turns, _, cs, v = _with_turns(cs, v, (w_lo[near], w_hi[near], peak[near]),
                                      partial(_or_nan, slope), value)
        turns = turns.tolist()
    lo = max([c for c in turns if c < t], default=cs[0])
    hi = min([c for c in turns if c > t], default=cs[-1])
    # a turn on a node is a second node there, which the piece leaves out
    i, j = np.searchsorted(cs, lo, "right") - 1, np.searchsorted(cs, hi)
    i, j = i + int(np.isnan(v[i])), j - int(np.isnan(v[j]))
    return cs[i:j + 1], v[i:j + 1], (lo in turns, hi in turns)


def _shifted(terms, value, s, x):
    """F = s + V(x) and F_c = V'(x), from terms(x) = (V, V').  Where V' has
    no value, V alone gives F, as on the grid, and F_c reads NaN, so that
    the step bisects."""
    try:
        v, slope = terms(x)
    except DomainError:
        return s + value(x), np.nan
    return s + v, slope


def _or_nan(fn, x):
    """fn at the float or array x, with NaN where it has no value.  An array
    runs in one call, but one of at most _FLOAT_BRACKETS elements, which an
    array run costs as much as more, or one where fn raises, at each float."""
    if isinstance(x, float):
        try:
            return fn(x)
        except (ValueError, MvaError):
            return np.nan
    if x.size > _FLOAT_BRACKETS:
        try:
            return np.broadcast_to(fn(x), x.shape)
        except (ValueError, MvaError):
            pass
    return np.array([_or_nan(fn, c) for c in x.tolist()], dtype=float)


def _bisect(fn, lo, hi, flo, width_tol, *params, x0=None):
    """Refinement of sign-change brackets; fn(*params, c) is F at c, given
    the params (arrays, an entry a bracket) of the brackets c lies in, or
    the pair (F, F_c) of F and its slope.

    Each step evaluates F at the iterate, which starts at x0, a point of
    each bracket, where given, and at the midpoint otherwise, and shrinks
    the bracket to the iterate by its sign: only the sign of flo = F(lo) is
    used, and an iterate where F is positive exactly when F(lo) is becomes
    the new lo.  The next iterate is the Newton step c - F / F_c
    where F_c is finite, the step lands in the bracket (ends included) and
    |2F| <= |F_c| times the step before the last, as in rtsafe (Press et
    al., Numerical Recipes, 3rd ed., 9.4), and the midpoint otherwise; so
    without F_c every step bisects.  A bracket stops on an exact zero, when
    it is no wider than its width_tol, after a Newton step no longer than
    width_tol / 2, or when the next iterate is the last (that step would
    repeat forever, e.g. on two adjacent floats).  Returns, for each
    bracket, the Newton iterate where such a step stopped it, and else the
    midpoint of its last bracket: a c in the bracket, either within
    width_tol / 2 of a sign change of F or one Newton step of at most that
    from an iterate.  The brackets step all at once while more than
    _FLOAT_BRACKETS are active; the rest finish one at a time, on floats
    in _bisect_one, which is cheaper for a few.
    """
    up = flo > 0
    lo, hi = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)  # also where x0 is given, for a bracket already narrow
    last, before = hi - lo, hi - lo  # the last step and the one before it
    active = np.nonzero(hi - lo > width_tol)[0]
    if x0 is not None:
        x[active] = x0[active]
    while active.size > _FLOAT_BRACKETS:
        l, h, xa, tol = lo[active], hi[active], x[active], width_tol[active]
        fx = fn(*(q[active] for q in params), xa)
        slope = type(fx) is tuple
        if slope:
            fx, f_c = fx
        zero = fx == 0.0
        same = (fx > 0) == up[active]
        lo[active] = nl = np.where(same | zero, xa, l)
        hi[active] = nh = np.where(same & ~zero, h, xa)
        new = mid = 0.5 * (nl + nh)
        wide = nh - nl > tol
        if slope:
            with np.errstate(all="ignore"):
                t = xa - fx / f_c
                newton = (~zero & np.isfinite(f_c) & (nl <= t) & (t <= nh)
                          & (np.abs(2.0 * fx) <= np.abs(before[active] * f_c)))
                new = np.where(newton, t, mid)
                before[active], last[active] = last[active], new - xa
                stop = newton & (np.abs(new - xa) <= 0.5 * tol)
            new = np.where(wide | stop, new, mid)
            wide &= ~stop
        x[active] = new
        active = active[wide & (new != xa)]
    rows = zip(*(a[active].tolist() for a in (lo, hi, flo, width_tol, x, last, before, *params)))
    x[active] = [_bisect_one(partial(fn, *row[7:]), *row[:7]) for row in rows]
    return x


def _bisect_one(fn, lo, hi, flo, width_tol=None, x=None, last=None, before=None):
    """_bisect on the one bracket [lo, hi], where fn(c) is F, or (F, F_c),
    at the float c and F(lo) = flo.  The bracket stops at width_tol, by
    default the width 1e-16 * max(1, |lo|, |hi|) of its start, or by
    _bisect's other stops.  x, last and before, the iterate and the last
    two steps, resume _bisect's loop; by default it starts at the midpoint,
    and the steps before the first are the bracket's width.

    It runs on Python floats rather than as _bisect's loop on one-element
    arrays: the same iterates, exact-zero and sign rule and stops, so the
    same result bit for bit, at a fraction of the cost of a step.
    """
    lo, hi = float(lo), float(hi)
    if width_tol is None:
        width_tol = 1e-16 * max(1.0, abs(lo), abs(hi))
    x = 0.5 * (lo + hi) if x is None else x
    last, before = (hi - lo, hi - lo) if last is None else (last, before)
    up = float(flo) > 0
    while hi - lo > width_tol:
        fx, f_c = fn(x), math.nan
        if type(fx) is tuple:
            fx, f_c = map(float, fx)
        zero = fx == 0.0
        same = (fx > 0) == up
        lo, hi = (x if same or zero else lo), (hi if same and not zero else x)
        new = 0.5 * (lo + hi)
        # _bisect's Newton test, ordered so that F_c = 0 is refused before it divides
        if not zero and math.isfinite(f_c) and abs(2.0 * fx) <= abs(before * f_c):
            t = x - fx / f_c
            if lo <= t <= hi:
                if abs(t - x) <= 0.5 * width_tol:
                    return t
                new = t
        before, last = last, new - x
        if new == x:
            break
        x = new
    return 0.5 * (lo + hi)


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
        # f''s Taylor coefficients at c0 from f's jet, but 0 for f'(c0) - fpc0
        t = expr.jet_eval(p.tape, c0, order + 1)
        return (0.0, *((j + 1) * t[j + 1] for j in range(1, order + 1)))

    g1_value.series, g2_value.series = g1_series, g2_series
    return g1_value, g2_value

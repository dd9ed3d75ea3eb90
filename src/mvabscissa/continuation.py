"""Branch tracing for the solution curves of F(b, c) = 0.

A branch is t = T(s) on G(s, t) = 0: G is F for c = C(b), and F with its
two arguments swapped for b = B(c).  F is separable, U(s) + V(t), so on a
piece of the t-axis between two turns of V, nodes of V's grid as in a scan
(mvt._piece), G(s, .) has one root or none, and the branch through a seed
is V on its piece inverted at -U(s), at every s of the walk at once
(Allgower & Georg, Introduction to Numerical Continuation Methods, ch. 2
and 8: here a turning point is a turn of V, a 1-D problem).  A branch stops
where -U(s) leaves V's range on the piece, at a turn (a fold) or an end of
the t-axis (an edge), where its root crosses c = b (an edge), or where s
leaves its range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import classify, mvt
from .errors import SeedNotRegular, SeedSearchFailed

NONZERO_B = 1e-9
MAX_POINTS = 100000  # the most steps a branch takes each way from its seed

STOP_RANGE = "range exhausted"
STOP_DOMAIN = "domain edge"
STOP_STALLED = "step below float spacing"
STOP_LIMIT = "point limit"
STOP_FOLD = "fold"
STOP_EDGE = "edge"
STOP_RESIDUAL = "residual above tol"


@dataclass
class Branch:
    points: list = field(default_factory=list)  # SolutionPoint, monotone parameter
    seed_index: int = 0
    stop_lower: str = STOP_RANGE
    stop_upper: str = STOP_RANGE
    seed_case: str = ""
    parameter: str = "b"  # "b" for c = C(b) branches, "c" for b = B(c)

    def to_dict(self):
        return {
            "parameter": self.parameter,
            "seed_index": self.seed_index,
            "seed_case": self.seed_case,
            "stop_lower": self.stop_lower,
            "stop_upper": self.stop_upper,
            "points": [{"b": q.b, "c": q.c, "residual": q.residual}
                       for q in self.points],
        }


def _step(p, b, step, name):
    """step, or 0.01 * (b - a0) for None; refused unless positive and finite."""
    step = 0.01 * (b - p.a0) if step is None else step
    if not 0.0 < step < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {step!r}")
    return step


def _steps(s0, s_limit, step, s_span):
    """The s a walk from s0 toward s_limit reaches, and why it stops there.

    Each step adds step to s, in float arithmetic, or the rest of the range
    where that is less, and none is taken once the rest is at most 1e-12 *
    max(1, |s_limit|).  The walk stops at a step that leaves s unchanged,
    at one outside s_span = (lo, hi], or after MAX_POINTS steps, which
    bound the arrays before they are made."""
    d, near = (1.0 if s_limit > s0 else -1.0), 1e-12 * max(1.0, abs(s_limit))
    # the full steps to the range's end, and one more where rounding leaves
    # it short; where that is not enough, as many as the cap allows
    for n in (int(min((s_limit - s0) * d / step + 1, MAX_POINTS)), MAX_POINTS):
        s = np.add.accumulate(np.concatenate([[s0], np.full(n, d * step)]))
        rest = (s_limit - s) * d
        end = np.flatnonzero((rest < step) | (rest <= near))
        if end.size or n == MAX_POINTS:
            break
    stop = STOP_LIMIT
    if end.size:  # the step from s[k] is cut to the range's end, or not taken
        stop, k = STOP_RANGE, end[0]
        s = s[:k + 1] if rest[k] <= near else np.append(s[:k + 1], s[k] + (s_limit - s[k]))
    bad = np.flatnonzero((s[1:] == s[:-1]) | ~((s_span[0] < s[1:]) & (s[1:] <= s_span[1])))
    if bad.size:
        stop = STOP_STALLED if s[bad[0] + 1] == s[bad[0]] else STOP_DOMAIN
        s = s[:bad[0] + 1]
    if s.size > MAX_POINTS + 1:
        stop, s = STOP_LIMIT, s[:MAX_POINTS + 1]
    return s[1:], stop


def _roots(p, order, s, t0, at_turn, t_top, tol):
    """t = T(s) for each s in the array s, on mvt._piece's piece of t0 and
    at_turn in a grid of [a0, t_top], whose ends are turns of V inserted as
    nodes; G there; and why each s has no branch point, or "".  A root is
    that of its cell, or the piece's end past which -U(s) lies where G there
    passes mvt._residual_ok, as at a singular point.  It must pass
    mvt._residual_ok and lie in a0 < c < b <= the domain's end for (b, c) =
    order(s, t)."""
    b_terms, fprime = mvt._b_terms(p), mvt._fprime(p)
    s_terms, t_terms = order(b_terms, mvt._c_terms(p))
    t_value = order(lambda b: b_terms(b)[0], lambda c: -fprime(c))[1]  # V by a narrower jet
    u = mvt._or_nan(lambda x: s_terms(x)[0], s)  # NaN at an s where F's terms have none
    nodes, vals, folds = mvt._piece(p, t_value, lambda t: t_terms(t)[1], t0, t_top, at_turn)
    sign, n = (1.0 if vals[-1] >= vals[0] else -1.0), nodes.size
    k = np.searchsorted(sign * vals, -sign * u)  # the first node where G has its end sign
    inside, j = (0 < k) & (k < n), np.clip(k, 1, n - 1)
    m = np.where(j + 1 < n, j + 1, j - 2)  # a third node, past the cell
    (a, z, y), (g_a, g_z, g_y) = nodes[[j - 1, j, m]], u + vals[[j - 1, j, m]]
    t = np.where(k == 0, nodes[0], nodes[-1])
    del nodes, vals  # the piece's grid, before the cells' arrays are made
    # the first iterate: t at G = 0 by inverse quadratic interpolation on
    # the three nodes, or linear on the cell where that has no value
    with np.errstate(all="ignore"):  # a guess in a cell without a sign change is unused
        guess = (a * g_z * g_y / ((g_a - g_z) * (g_a - g_y))
                 + z * g_a * g_y / ((g_z - g_a) * (g_z - g_y))
                 + y * g_a * g_z / ((g_y - g_a) * (g_y - g_z)))
        guess = np.where(np.isfinite(guess), guess, a + (z - a) * (g_a / (g_a - g_z)))
    # a Newton step, or where G's rounding stalls Newton a bracket, of 1e-14
    # of the root's scale ends a cell
    width = 2e-14 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(z)))
    t[inside] = mvt._bisect(partial(mvt._shifted, t_terms, t_value), a[inside], z[inside],
                            g_a[inside], width[inside], u[inside],
                            x0=np.clip(guess, a, z)[inside])
    v = np.broadcast_to(t_value(t), t.shape)
    (b, c), value = order(s, t), u + v
    ok = mvt._residual_ok(value, u, v, tol)
    why = np.select([np.isnan(u), ok & (p.a0 < c) & (c < b) & (b <= p.domain[1]), ok, k == 0,
                     k == n], [STOP_DOMAIN, "", STOP_EDGE,
                               *(STOP_FOLD if f else STOP_EDGE for f in folds)], STOP_RESIDUAL)
    return t, value, why


def _branch(p, order, start, s_range, step, tol, s_span, t_top, **fields):
    """The Branch over s_range through start = (s, t, G, at_turn), a seed
    the caller has judged, where at_turn says that V' vanishes there.

    order(s, t) is (b, c) for the branch's (s, t); being its own inverse, it
    also turns the functions of F's terms in b and in c into those in s and
    in t.  s_span bounds s as _steps takes it, and t_top bounds t.
    """
    s0, t0, g0, at_turn = start
    b, c = order(s0, t0)
    if not p.a0 < c < b:
        raise ValueError(f"abscissa c={c!r} is not interior to ({p.a0!r}, {b!r})")
    step = _step(p, b, step, "step")
    (down, stop_lower), (up, stop_upper) = (_steps(s0, end, step, s_span) for end in s_range)
    s, n = np.concatenate([down[::-1], [s0], up]), down.size
    t, value, why = _roots(p, order, s, t0, at_turn, t_top, tol)
    t[n], value[n], why[n] = t0, g0, ""  # the seed as judged
    # the run around the seed, between the reasons that end it
    why = np.concatenate([[stop_lower], why, [stop_upper]])
    bad = np.flatnonzero(why != "")
    lo, hi = bad[bad <= n][-1], bad[bad > n + 1][0]
    kept = slice(lo, hi - 1)
    points = [mvt.SolutionPoint(*q) for q in zip(*order(s[kept].tolist(), t[kept].tolist()),
                                                    np.abs(value[kept]).tolist())]
    return Branch(points=points, seed_index=int(n - lo), stop_lower=str(why[lo]),
                  stop_upper=str(why[hi]), **fields)


def trace_c_of_b(p: mvt.Problem, b0: float, c0: float, b_range, step=None,
                 tol: float = mvt.DEFAULT_TOL, kmax: int = classify.DEFAULT_KMAX) -> Branch:
    """Trace the branch c = C(b) through the seed (b0, c0) across b_range."""
    lo, hi = float(b_range[0]), float(b_range[1])
    if not (lo <= b0 <= hi):
        raise ValueError("seed b0 must lie inside b_range")
    p = p.covering(min(lo, p.domain[0]), max(hi, p.domain[1]))
    report = classify.classify_point(p, b0, c0, kmax=kmax)
    if report.case not in (classify.Case.REGULAR_C, classify.Case.UNIQUE_ODD):
        raise SeedNotRegular(
            f"seed classifies as {report.case.value}; no unique local C(b)")
    # classify_point has judged the seed, evaluating F and F_c = -f'' there
    start = (float(b0), float(c0), report.value, report.case == classify.Case.UNIQUE_ODD)
    return _branch(p, lambda b, c: (b, c), start, (lo, hi), step, tol, (p.a0, p.domain[1]),
                   hi, seed_case=report.case.value, parameter="b")


def trace_b_of_c(p: mvt.Problem, b0: float, c0: float, c_range, step=None) -> Branch:
    """Trace b = B(c) through a seed where F = 0 and f'(b0) != f'(c0)."""
    lo, hi = float(c_range[0]), float(c_range[1])
    if not np.isfinite(b0):
        raise ValueError(f"seed b0 must be finite, got {b0!r}")
    if not (lo <= c0 <= hi):
        raise ValueError("seed c0 must lie inside c_range")
    p = p.covering(p.domain[0], max(b0, p.domain[1]))  # t = b runs up to the domain's end
    value, f_b, f_c = mvt._seed_terms(p, b0, c0, mvt.DEFAULT_TOL)
    if abs(f_b) <= NONZERO_B * max(1.0, abs(f_c), abs(value)):
        raise SeedNotRegular("f'(b0) = f'(c0) at the seed; B(c) is not guaranteed")
    return _branch(p, lambda c, b: (b, c), (float(c0), float(b0), value, False), (lo, hi), step,
                   mvt.DEFAULT_TOL, (p.a0, np.inf), p.domain[1], seed_case="", parameter="c")


def branch_seeds_after_degeneracy(p: mvt.Problem, b0: float, c0: float,
                                  report, step0=None):
    """Two validated (b, c) seeds just past a TWO_BRANCHES / ONE_SIDED point.

    Steps |b - b0| = step0 to the allowed side and bisects F(b, .) once on
    each side of c0 within c0's piece of f' (mvt._piece, c0 at its turn),
    or raises SeedSearchFailed where F does not change sign on a side.
    """
    allowed = (classify.Case.TWO_BRANCHES, classify.Case.ONE_SIDED,
               classify.Case.REGULAR_B_ONLY)
    if report.case not in allowed:
        raise ValueError(f"case {report.case.value} has no nearby branch pair")
    side = 1 if report.case == classify.Case.TWO_BRANCHES \
        else (1 if report.sigma1 * report.sigma2 > 0 else -1)
    b = b0 + side * _step(p, b0, step0, "step0")
    if not (p.a0 < b <= p.domain[1] and p.domain[0] <= b):
        raise SeedSearchFailed("stepped endpoint left the domain")

    slope, fprime = mvt._b_terms(p)(b)[0], mvt._fprime(p)

    def F(c):
        return slope - fprime(c)

    c_terms, eps = mvt._c_terms(p), 1e-14 * max(1.0, abs(c0))
    lo, hi = mvt._piece(p, lambda c: -fprime(c), lambda c: c_terms(c)[1], c0, b, True)[0][[0, -1]]
    sides = [(l, h, F(l)) for l, h in ((lo, c0 - eps), (c0 + eps, hi))]
    # both roots are needed: an empty side, as above c0 for a b <= c0, fails
    if not all(l < h and f_l * F(h) < 0 for l, h, f_l in sides):
        raise SeedSearchFailed("no bracketed roots above and below c0")
    cs = [mvt._bisect_one(F, l, h, f_l) for l, h, f_l in sides]
    return [(b, mvt.solution_point(p, b, c).c) for c in cs]  # validates residual + interiority

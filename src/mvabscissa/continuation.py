"""Branch tracing for the solution curves of F(b, c) = 0.

One walker follows both kinds of branch: t = T(s) on G(s, t) = 0, where G is
F for c = C(b), and F with its two arguments and its two partials swapped
for b = B(c).  F is separable, the sum of a term of b and a term of c, so
G(s, t) is the term of s plus the term of t in either case, and G_s and G_t
are their derivatives.  Each step is an Euler predictor with slope -G_s/G_t
and a chord (contraction) corrector.  The corrector stops when a correction
is below an absolute bound, or when it is no smaller than the one before,
which marks G's rounding floor.  Where a c = C(b) seed is merely UNIQUE_ODD
and F_c may vanish, a derivative-free bisection corrects instead, as a loop
on floats.  A step holds s fixed, so the term of s is evaluated once per
step; an evaluation at a new t is one call of the term of t, with f's jet
bound once per walk.  A corrector hands back G, its partials and F's two
terms at the point it accepts, which serve as the residual check, the
point's residual and the next step's predictor, so each point, the seed
too, is evaluated once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import classify, mvt
from .errors import SeedNotRegular, SeedSearchFailed

DEGENERACY_THRESHOLD = 1e-7
NONZERO_B = 1e-9
MAX_POINTS = 100000

STOP_RANGE = "range exhausted"
STOP_DEGENERATE = "degenerate F_c"
STOP_DOMAIN = "domain edge"
STOP_CORRECTOR = "corrector failure"
STOP_STALLED = "step below float spacing"


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


def _chord_correct(terms, s, s_prev, t_prev, slope, h, dt):
    """Euler predictor with slope -G_s/G_t, then a re-centered contraction
    iteration for G(s, .) = 0, whose slope m = G_t stays that of the
    prediction.  terms is the pair of functions (U, V) with G(s, t) =
    U(s)[0] + V(t)[0], G_s = U(s)[1] and G_t = V(t)[1].

    The iteration stops when a correction is at most 1e-14 * max(1, |t|),
    or, after that test, when a correction is no smaller than the one before:
    a contraction shrinks its corrections, so one that does not has reached
    the rounding floor of G, where each correction is G's noise over m (near
    a degenerate point, with a small m, far above the absolute bound).  The
    caller's residual check judges the point it stopped at.
    """
    g_s, g_t = slope
    if abs(g_t) < DEGENERACY_THRESHOLD * max(1.0, abs(g_s)):
        return None, STOP_DEGENERATE
    t_pred = t_prev - g_s / g_t * (s - s_prev)
    (u, u_s), at = terms[0](s), terms[1]
    v, v_t = at(t_pred)
    m = v_t
    if abs(m) < DEGENERACY_THRESHOLD * max(1.0, abs(u_s)):
        return None, STOP_DEGENERATE
    t, leash, last = t_pred, 1.0 + abs(t_pred), np.inf
    for _ in range(80):
        step = (u + v) / m
        t, t_old = t - step, t
        if not abs(t - t_pred) <= leash:  # or t is not finite
            return None, STOP_CORRECTOR
        if t != t_old:
            v, v_t = at(t)
        if abs(step) <= 1e-14 * max(1.0, abs(t)) or abs(step) >= last:
            break
        last = abs(step)
    return t, (u + v, u_s, v_t, u, v)


def _bisect_correct(p, b0, fprime, terms, b, b_prev, c_prev, slope, h, dc):
    """Derivative-free corrector, for a UNIQUE_ODD seed where F_c may vanish:
    the root of F(b, .) nearest c_prev, by mvt._root_near.

    It corrects c = C(b) only, where terms is the pair of the functions of
    F's terms in b and in c, and evaluates F(b, .) as S(b) - f' by the
    function fprime, with S(b) computed once.
    """
    b_terms = terms[0](b)
    c = mvt._root_near(lambda c: b_terms[0] - fprime(c), c_prev,
                       max(4.0 * abs(dc), h, 1e-6 * (b0 - p.a0), 1e-12), p.a0, b)
    if c is None:
        return None, STOP_CORRECTOR
    (u, f_b), (v, f_c) = b_terms, terms[1](c)
    return c, (u + v, f_b, f_c, u, v)


def _march(terms, start, direction, s_limit, step, tol, correct, s_span, point):
    """Walk the branch t = T(s) of G(s, t) = 0 from start toward s_limit.

    terms is the pair of the functions of F's terms in s and in t, as
    _chord_correct takes it, and start is the seed (s, t, (G, G_s, G_t)).
    A step goes to an s_next with lo < s_next <= hi for s_span = (lo, hi).
    There correct(terms, s_next, s, t, slope, h, dt) returns the new t and
    (G, G_s, G_t, U, V) at it, for G = U + V of the two terms, or None and a
    stop reason; dt is the change in t of the last step.  The new point must
    pass mvt._residual_ok, and point(s, t, G) must turn it into a
    SolutionPoint rather than None.  Returns the points and the stop reason.
    """
    s, t, slope = *start[:2], start[2][1:]
    points, dt = [], 0.0
    while len(points) <= MAX_POINTS:
        remaining = (s_limit - s) * direction
        if remaining <= 1e-12 * max(1.0, abs(s_limit)):
            return points, STOP_RANGE
        h = min(step, remaining)
        for _ in range(2):  # the step, then half of it
            s_next = s + direction * h
            if s_next == s:
                return points, STOP_STALLED
            if not s_span[0] < s_next <= s_span[1]:
                return points, STOP_DOMAIN
            t_next, at = correct(terms, s_next, s, t, slope, h, dt)
            if t_next is None and at == STOP_DEGENERATE:
                return points, STOP_DEGENERATE
            if t_next is not None and mvt._residual_ok(at[0], at[3], at[4], tol):
                break
            h *= 0.5
        else:
            return points, STOP_CORRECTOR
        q = point(s_next, t_next, at[0])
        if q is None:
            return points, STOP_DOMAIN
        points.append(q)
        s, t, slope, dt = s_next, t_next, at[1:3], t_next - t
    return points, STOP_CORRECTOR


def _branch(p, order, start, s_range, step, tol, correct, s_span, **fields):
    """Walk both ways from the seed and gather the Branch.

    order(s, t) is (b, c) for the walk's (s, t); being its own inverse, it
    also turns the functions of F's terms in b and in c, bound here once,
    into those in s and in t.  start is (s, t, (G, G_s, G_t)) at a seed the
    caller has judged.
    """
    b, c = order(*start[:2])
    if not p.a0 < c < b:
        raise ValueError(f"abscissa c={c!r} is not interior to ({p.a0!r}, {b!r})")
    step = _step(p, b, step, "step")
    terms = order(mvt._b_terms(p), mvt._c_terms(p))

    def point(s, t, value):
        # the walk's numbers are numpy scalars where f's jets are; a point's are floats
        b, c = order(float(s), float(t))
        return mvt.SolutionPoint(b, c, float(abs(value))) if p.a0 < c < b <= p.domain[1] else None

    up, stop_upper = _march(terms, start, +1, s_range[1], step, tol, correct, s_span, point)
    down, stop_lower = _march(terms, start, -1, s_range[0], step, tol, correct, s_span, point)
    return Branch(points=down[::-1] + [mvt.SolutionPoint(b, c, float(abs(start[2][0])))] + up,
                  seed_index=len(down), stop_lower=stop_lower,
                  stop_upper=stop_upper, **fields)


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
    correct = _chord_correct
    if report.case == classify.Case.UNIQUE_ODD:
        correct = functools.partial(_bisect_correct, p, b0, mvt._fprime(p))
    # classify_point has judged the seed, evaluating F, F_b and f'' = -F_c
    start = (float(b0), float(c0), (report.value, report.f_b, -report.f_pp_c0))
    return _branch(p, lambda b, c: (b, c), start, (lo, hi), step, tol, correct,
                   (p.a0, p.domain[1]), seed_case=report.case.value, parameter="b")


def trace_b_of_c(p: mvt.Problem, b0: float, c0: float, c_range, step=None) -> Branch:
    """Trace b = B(c) through a seed where F = 0 and f'(b0) != f'(c0)."""
    lo, hi = float(c_range[0]), float(c_range[1])
    if not np.isfinite(b0):
        raise ValueError(f"seed b0 must be finite, got {b0!r}")
    if not (lo <= c0 <= hi):
        raise ValueError("seed c0 must lie inside c_range")
    value, f_b, f_c = mvt._seed_terms(p, b0, c0, mvt.DEFAULT_TOL)
    if abs(f_b) <= NONZERO_B * max(1.0, abs(f_c), abs(value)):
        raise SeedNotRegular("f'(b0) = f'(c0) at the seed; B(c) is not guaranteed")
    start = (float(c0), float(b0), (value, f_c, f_b))
    return _branch(p, lambda c, b: (b, c), start, (lo, hi), step, mvt.DEFAULT_TOL,
                   _chord_correct, (-np.inf, np.inf), seed_case="", parameter="c")


def branch_seeds_after_degeneracy(p: mvt.Problem, b0: float, c0: float,
                                  report, step0=None):
    """Two validated (b, c) seeds just past a TWO_BRANCHES / ONE_SIDED point.

    Steps |b - b0| = step0 to the allowed side and takes the roots of
    F(b, .) nearest c0 below it and above it, by mvt._root_near.
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

    # both roots are needed, so a b <= c0, which leaves no room above c0,
    # fails whatever the search below c0 finds
    w = 0.25 * min(c0 - p.a0, b - c0)
    eps = 1e-14 * max(1.0, abs(c0))
    lo_c = mvt._root_near(F, c0 - eps, w, p.a0, c0 - eps)
    hi_c = mvt._root_near(F, c0 + eps, w, c0 + eps, b)
    if lo_c is None or hi_c is None:
        raise SeedSearchFailed("no bracketed roots above and below c0")
    for c in (lo_c, hi_c):
        mvt.solution_point(p, b, c)  # validates residual + interiority
    return [(b, lo_c), (b, hi_c)]

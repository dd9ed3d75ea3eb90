"""Contraction mapping principle and a constructive implicit function solver.

The implicit equation F(x, y) = 0 is solved near a known zero (x0, y0) with
F_y(x0, y0) != 0 by iterating the fixed-point map

    K(y; x) = y - F(x, y) / F_y(x0, y0),

after certifying on a sampled box that K is a contraction mapping the
interval I = [y0 - eps, y0 + eps] into itself.

F is one function, F(x, y) -> (F, F_x, F_y), on floats and broadcastable
arrays, as mvt.big_f is; any of the three may be a scalar.  F_x is read only
at a single point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CannotCertify, DegenerateFy, EscapesInterval,
                     MaxIterExceeded, NotContraction)

FY_DEGENERACY = 1e-12
_CERT_GRID = 64
_MAX_HALVINGS = 40
_LIPSCHITZ_SAMPLES = 65
RHO = 0.5  # the contraction certified on each box


@dataclass
class IterationTrace:
    iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    converged: bool = False


def _check_tol(tol):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def fixed_point(K, interval, rho, tol=1e-12, max_iter=200, y_start=None):
    """Iterate y_{n+1} = K(y_n) on the closed interval to the unique fixed point.

    K takes floats and arrays, elementwise, as F does.  Contractivity is
    pre-checked by a Lipschitz estimate L from K on 65 points of the
    interval, sampled in one call.  With q = max(rho, L), the stopping rule
    |y_{n+1} - y_n| <= tol * (1 - q) / q certifies |y_n - y*| <= tol via
    the geometric Cauchy bound.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    _check_tol(tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")

    ys = np.linspace(lo, hi, _LIPSCHITZ_SAMPLES)
    kv = np.broadcast_to(np.asarray(K(ys), dtype=float), ys.shape)
    h = ys[1] - ys[0]
    lip = float(np.max(np.abs(np.diff(kv)))) / h
    if lip >= 1.0:
        raise NotContraction(f"sampled Lipschitz estimate {lip:.6g} >= 1")
    rho = max(rho, lip)

    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    y = 0.5 * (lo + hi) if y_start is None else float(y_start)
    trace = IterationTrace(iterates=[y])
    threshold = tol * (1.0 - rho) / rho
    for _ in range(max_iter):
        y_next = float(K(y))
        if y_next < lo - slack or y_next > hi + slack:
            raise EscapesInterval(f"iterate {y_next!r} left [{lo!r}, {hi!r}]")
        r = abs(y_next - y)
        trace.iterates.append(y_next)
        trace.residuals.append(r)
        y = y_next
        if r <= threshold:
            trace.converged = True
            return y, trace
    raise MaxIterExceeded(f"no convergence in {max_iter} iterations")


def _partials(F, x, y):
    """(F_x, F_y) at (x, y) as floats; DegenerateFy if F_y is negligible."""
    _, fx, fy = F(x, y)
    fx, fy = float(fx), float(fy)
    if abs(fy) <= FY_DEGENERACY * max(1.0, abs(fx)):
        # + 0.0: a zero F_y is reported as 0.0, whatever its sign
        raise DegenerateFy(f"F_y({x!r}, {y!r}) = {fy + 0.0!r} is degenerate")
    return fx, fy


def build_k(F, x0, y0):
    """The fixed-point map K(y; x) = y - F(x, y) / F_y(x0, y0)."""
    fy0 = _partials(F, x0, y0)[1]

    def K(y, x):
        return y - F(x, y)[0] / fy0

    return K


def certify_neighborhood(F, x0, y0, epsilon, delta):
    """Find (epsilon, delta) on which K demonstrably contracts into I,
    starting from the box |x-x0| <= delta, |y-y0| <= epsilon.

    Sampled checks, with rho = RHO, on a grid of the box:
      |1 - F_y(x, y)/F_y(x0, y0)| <= rho        (contraction of K by rho)
      |K(y0; x) - y0| <= (1 - rho) * epsilon    (K maps I into I)
    F is evaluated once a box, at the grid's 64 x values against its 64 y
    values and y0.  Box half-widths are halved until both hold.
    """
    if not (0.0 < epsilon < math.inf and 0.0 < delta < math.inf):
        raise ValueError(f"need a positive finite box, got {epsilon!r}, {delta!r}")
    fy0 = _partials(F, x0, y0)[1]
    contain_slack = 1e-12 * max(1.0, abs(y0))

    for _ in range(_MAX_HALVINGS):
        # inf or NaN, from a box past the floats' range, fails the checks below
        with np.errstate(over="ignore", invalid="ignore"):
            xs = np.linspace(x0 - delta, x0 + delta, _CERT_GRID)
            ys = np.append(np.linspace(y0 - epsilon, y0 + epsilon, _CERT_GRID), y0)[:, None]
            value, _, fy = (np.broadcast_to(t, (ys.size, xs.size)) for t in F(xs, ys))
        ok_contract = bool(np.all(np.abs(1.0 - fy[:-1] / fy0) <= RHO))
        k_at_y0 = y0 - value[-1] / fy0
        ok_contain = bool(np.all(np.abs(k_at_y0 - y0)
                                 <= (1.0 - RHO) * epsilon + contain_slack))
        if ok_contract and ok_contain:
            return epsilon, delta
        delta *= 0.5
        if not ok_contract:
            epsilon *= 0.5
    raise CannotCertify("no contraction neighborhood after 40 halvings")


def implicit_solve(F, x0, y0, x, tol=1e-12):
    """Solve F(x, y) = 0 for y, to within tol, continuing from the known
    zero (x0, y0).

    If x lies beyond the certified delta, the solver walks toward x in
    certified steps, re-centering the fixed-point map at each stage.
    """
    _check_tol(tol)
    cur_x, cur_y, x = float(x0), float(y0), float(x)
    if not all(map(math.isfinite, (cur_x, cur_y, x))):
        raise ValueError(f"need finite x0, y0 and x, got {x0!r}, {y0!r}, {x!r}")
    for _ in range(256):
        remaining = abs(x - cur_x)
        guess = max(0.1 * max(1.0, abs(cur_y)), 1.05 * remaining)
        eps, delta = certify_neighborhood(F, cur_x, cur_y, guess, guess)
        if remaining <= delta:
            x_next = x
        else:
            x_next = cur_x + math.copysign(0.9 * delta, x - cur_x)
        K = build_k(F, cur_x, cur_y)
        cur_y, _ = fixed_point(lambda y: K(y, x_next),
                               (cur_y - eps, cur_y + eps), RHO, tol, y_start=cur_y)
        cur_x = x_next
        if cur_x == x:
            return cur_y
    raise CannotCertify("could not walk the implicit solution to the target x")


def implicit_derivative(F, x, y):
    """Y'(x) = -F_x(x, y) / F_y(x, y) at a point with F(x, y) ~ 0."""
    fx, fy = _partials(F, x, y)
    return -fx / fy

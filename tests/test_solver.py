"""Fixed-point iteration, neighborhood certification, and implicit solving."""

import math

import numpy as np
import pytest

from mvabscissa import solver
from mvabscissa.errors import (CannotCertify, DegenerateFy, EscapesInterval,
                               MaxIterExceeded, NotContraction)

from conftest import bisect_root

COS_FIXED_POINT = bisect_root(lambda y: y - math.cos(y), 0.0, 1.0)


def _affine_k(y):
    return 0.5 * y + 1.0


# F(b, c) = 2c - b: the reduced parabola condition, zero along c = b/2.
PARABOLA_F = solver.Implicit2D(
    value=lambda x, y: 2.0 * np.asarray(y, dtype=float) - np.asarray(x, dtype=float),
    dx=lambda x, y: -1.0,
    dy=lambda x, y: 2.0)

# F(x, y) = y^3 + y - x: strictly monotone in y, solvable everywhere.
CUBIC_F = solver.Implicit2D(
    value=lambda x, y: np.asarray(y, dtype=float) ** 3
    + np.asarray(y, dtype=float) - np.asarray(x, dtype=float),
    dx=lambda x, y: -1.0 + 0.0 * np.asarray(x, dtype=float),
    dy=lambda x, y: 3.0 * np.asarray(y, dtype=float) ** 2 + 1.0)

# F(x, y) = y^3 - x: F_y vanishes at the origin.
DEGENERATE_F = solver.Implicit2D(
    value=lambda x, y: np.asarray(y, dtype=float) ** 3 - np.asarray(x, dtype=float),
    dx=lambda x, y: -1.0 + 0.0 * np.asarray(x, dtype=float),
    dy=lambda x, y: 3.0 * np.asarray(y, dtype=float) ** 2)

# F(x, y) = y - x^2.
SQUARE_F = solver.Implicit2D(
    value=lambda x, y: np.asarray(y, dtype=float) - np.asarray(x, dtype=float) ** 2,
    dx=lambda x, y: -2.0 * np.asarray(x, dtype=float),
    dy=lambda x, y: 1.0 + 0.0 * np.asarray(y, dtype=float))


class TestFixedPoint:
    def test_affine_map(self):
        y, trace = solver.fixed_point(_affine_k, (0.0, 4.0), rho=0.5, tol=1e-12)
        assert abs(y - 2.0) <= 1e-12
        # geometric error decay |y_n - 2| = |y_0 - 2| * 2^-n
        y0 = trace.iterates[0]
        for n, yn in enumerate(trace.iterates):
            assert abs(abs(yn - 2.0) - abs(y0 - 2.0) * 0.5 ** n) < 1e-12

    def test_cosine_matches_bisection_oracle(self):
        y, trace = solver.fixed_point(math.cos, (0.0, 1.0), rho=math.sin(1.0),
                                      tol=1e-12)
        assert abs(y - COS_FIXED_POINT) <= 1e-10
        assert trace.converged

    def test_identity_map_is_not_a_contraction(self):
        with pytest.raises(NotContraction):
            solver.fixed_point(lambda y: y, (0.0, 1.0), rho=0.9)

    def test_escape_detection(self):
        with pytest.raises(EscapesInterval):
            solver.fixed_point(lambda y: 0.5 * y + 3.0, (0.0, 2.0), rho=0.5)

    def test_iteration_budget(self):
        with pytest.raises(MaxIterExceeded):
            solver.fixed_point(_affine_k, (0.0, 4.0), rho=0.5, tol=1e-12,
                               max_iter=2, y_start=0.0)

    def test_cauchy_bound_on_recorded_trace(self):
        rho = math.sin(1.0)
        _, trace = solver.fixed_point(math.cos, (0.0, 1.0), rho=rho, tol=1e-12)
        ys = trace.iterates
        lead = abs(ys[1] - ys[0])
        for m in range(len(ys)):
            for n in range(m + 1, len(ys)):
                assert abs(ys[n] - ys[m]) <= lead * rho ** m / (1.0 - rho) + 1e-15

    def test_apriori_iteration_bound(self):
        rho, tol = math.sin(1.0), 1e-12
        y, trace = solver.fixed_point(math.cos, (0.0, 1.0), rho=rho, tol=tol)
        bound = solver.apriori_iteration_bound(trace.iterates[0],
                                               trace.iterates[1], rho, tol)
        assert len(trace.iterates) - 1 <= bound

    def test_uniqueness_from_distinct_starts(self):
        tol = 1e-12
        y1, _ = solver.fixed_point(math.cos, (0.0, 1.0), rho=math.sin(1.0),
                                   tol=tol, y_start=0.05)
        y2, _ = solver.fixed_point(math.cos, (0.0, 1.0), rho=math.sin(1.0),
                                   tol=tol, y_start=0.95)
        assert abs(y1 - y2) <= 2.0 * tol

    def test_residual_list_matches_iterates(self):
        _, trace = solver.fixed_point(_affine_k, (0.0, 4.0), rho=0.5, tol=1e-10)
        for i, r in enumerate(trace.residuals):
            assert r == abs(trace.iterates[i + 1] - trace.iterates[i])


class TestBuildK:
    def test_parabola_map_lands_in_one_step(self):
        K = solver.build_k(PARABOLA_F, 2.0, 1.0)
        for b in (1.0, 2.4, 3.0):
            assert K(0.3, b) == b / 2.0
        # a zero of F is a fixed point of K
        assert K(1.2, 2.4) == 1.2

    def test_linear_f(self):
        F = solver.Implicit2D(value=lambda x, y: np.asarray(y, float) - np.asarray(x, float),
                              dx=lambda x, y: -1.0, dy=lambda x, y: 1.0)
        K = solver.build_k(F, 0.0, 0.0)
        assert K(0.7, 0.25) == 0.25

    def test_monotone_cubic(self):
        K = solver.build_k(CUBIC_F, 0.0, 0.0)
        y_star = bisect_root(lambda y: y ** 3 + y - 1.0, 0.0, 1.0)
        assert abs(y_star - 0.6823278) < 1e-6
        assert abs(K(y_star, 1.0) - y_star) <= 1e-15

    def test_degenerate_partial(self):
        with pytest.raises(DegenerateFy):
            solver.build_k(DEGENERATE_F, 0.0, 0.0)


class TestCertifyNeighborhood:
    def test_parabola_keeps_initial_guesses(self):
        eps, delta = solver.certify_neighborhood(PARABOLA_F, 2.0, 1.0)
        assert (eps, delta) == (0.1, 0.1)
        cfg = solver.SolverConfig(epsilon=0.5, delta=0.5)
        assert solver.certify_neighborhood(PARABOLA_F, 2.0, 1.0, cfg) == (0.5, 0.5)

    def test_square_containment_relationship(self):
        eps, delta = solver.certify_neighborhood(SQUARE_F, 0.0, 0.0)
        # |K(0; x)| = x^2 <= eps/2 must hold across the delta-box
        assert delta ** 2 <= 0.5 * eps + 1e-12

    def test_degenerate_base_point(self):
        with pytest.raises(DegenerateFy):
            solver.certify_neighborhood(DEGENERATE_F, 0.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            solver.SolverConfig(rho=1.5)
        with pytest.raises(ValueError):
            solver.SolverConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            solver.SolverConfig(tol=0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError):
                solver.SolverConfig(tol=tol)


class TestImplicitSolve:
    def test_parabola_branch_value(self):
        assert abs(solver.implicit_solve(PARABOLA_F, 2.0, 1.0, 2.4) - 1.2) <= 1e-12

    def test_cubic_against_bisection_oracle(self):
        want = bisect_root(lambda y: y ** 3 + y - 1.0, 0.0, 1.0)
        got = solver.implicit_solve(CUBIC_F, 0.0, 0.0, 1.0)
        assert abs(got - want) <= 1e-10

    def test_anchor_is_reproduced(self):
        assert abs(solver.implicit_solve(CUBIC_F, 1.0, 0.6823278038280193, 1.0)
                   - 0.6823278038280193) <= 1e-12

    def test_walks_beyond_one_certified_box(self):
        got = solver.implicit_solve(PARABOLA_F, 2.0, 1.0, 30.0)
        assert abs(got - 15.0) <= 1e-10

    def test_non_finite_input_is_refused(self):
        for args in ((math.nan, 1.0, 2.4), (2.0, math.inf, 2.4), (2.0, 1.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                solver.implicit_solve(PARABOLA_F, *args)

    def test_degenerate_target_cannot_certify(self):
        with pytest.raises((CannotCertify, DegenerateFy)):
            solver.implicit_solve(DEGENERATE_F, 1.0, 1.0, -1.0)


class TestImplicitDerivative:
    def test_parabola_slope(self):
        assert solver.implicit_derivative(PARABOLA_F, 2.0, 1.0) == 0.5

    def test_linear(self):
        F = solver.Implicit2D(value=lambda x, y: np.asarray(y, float) - np.asarray(x, float),
                              dx=lambda x, y: -1.0, dy=lambda x, y: 1.0)
        assert solver.implicit_derivative(F, 0.0, 0.0) == 1.0

    def test_cubic_closed_form(self):
        y = bisect_root(lambda t: t ** 3 + t - 1.0, 0.0, 1.0)
        got = solver.implicit_derivative(CUBIC_F, 1.0, y)
        assert abs(got - 1.0 / (3.0 * y * y + 1.0)) <= 1e-12

    def test_matches_finite_difference_of_solve(self):
        h = 1e-5
        for x0, y0, x in ((2.0, 1.0, 2.6), (0.0, 0.0, 0.8)):
            F = PARABOLA_F if y0 == 1.0 else CUBIC_F
            y = solver.implicit_solve(F, x0, y0, x)
            fd = (solver.implicit_solve(F, x, y, x + h)
                  - solver.implicit_solve(F, x, y, x - h)) / (2.0 * h)
            assert abs(solver.implicit_derivative(F, x, y) - fd) <= 1e-6

    def test_degenerate(self):
        with pytest.raises(DegenerateFy):
            solver.implicit_derivative(DEGENERATE_F, 0.0, 0.0)

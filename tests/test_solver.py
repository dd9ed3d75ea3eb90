"""Fixed-point iteration, neighborhood certification, and implicit solving."""

import math

import mpmath
import numpy as np
import pytest

from mvabscissa import expr, mvt, solver
from mvabscissa.errors import (CannotCertify, DegenerateFy, DomainError,
                               EndpointCollision, EscapesInterval, MaxIterExceeded,
                               MvaError, NotContraction)

from conftest import CUBIC, QUINTIC_SAME_SIGN, bisect_root

COS_FIXED_POINT = bisect_root(lambda y: y - math.cos(y), 0.0, 1.0)


def _affine_k(y):
    return 0.5 * y + 1.0


# Each F returns the triple (F, F_x, F_y), as the solver takes it.

def PARABOLA_F(x, y):
    """F(b, c) = 2c - b: the reduced parabola condition, zero along c = b/2."""
    return 2.0 * y - x, -1.0, 2.0


def CUBIC_F(x, y):
    """F(x, y) = y^3 + y - x: strictly monotone in y, solvable everywhere."""
    return y ** 3 + y - x, -1.0, 3.0 * y ** 2 + 1.0


def DEGENERATE_F(x, y):
    """F(x, y) = y^3 - x: F_y vanishes at the origin."""
    return y ** 3 - x, -1.0, 3.0 * y ** 2


def SQUARE_F(x, y):
    """F(x, y) = y - x^2."""
    return y - x ** 2, -2.0 * x, 1.0


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

    def test_uniqueness_from_distinct_starts(self):
        tol = 1e-12
        y1, _ = solver.fixed_point(math.cos, (0.0, 1.0), rho=math.sin(1.0),
                                   tol=tol, y_start=0.05)
        y2, _ = solver.fixed_point(math.cos, (0.0, 1.0), rho=math.sin(1.0),
                                   tol=tol, y_start=0.95)
        assert abs(y1 - y2) <= 2.0 * tol

    def test_stops_by_the_sampled_estimate_when_rho_is_below_it(self):
        # K contracts by 0.9; stopping by rho = 0.1 alone left y 7.4e-7 from 1
        y, _ = solver.fixed_point(lambda y: 0.9 * y + 0.1, (0.0, 2.0), rho=0.1,
                                  tol=1e-8, y_start=0.0, max_iter=1000)
        assert abs(y - 1.0) <= 1e-8

    def test_residual_list_matches_iterates(self):
        _, trace = solver.fixed_point(_affine_k, (0.0, 4.0), rho=0.5, tol=1e-10)
        for i, r in enumerate(trace.residuals):
            assert r == abs(trace.iterates[i + 1] - trace.iterates[i])

    def test_bad_rho_tol_or_max_iter_is_refused(self):
        # tol = inf once returned cos(0.5) after one step, nan and -1 ran to
        # MaxIterExceeded, and max_iter = 0 said "no convergence in 0 iterations"
        rho = math.sin(1.0)
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                solver.fixed_point(math.cos, (0.0, 1.0), rho=rho, tol=tol)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solver.fixed_point(math.cos, (0.0, 1.0), rho=rho, max_iter=0)
        with pytest.raises(ValueError, match="rho must lie in"):
            solver.fixed_point(math.cos, (0.0, 1.0), rho=1.5)


class TestBuildK:
    def test_parabola_map_lands_in_one_step(self):
        K = solver.build_k(PARABOLA_F, 2.0, 1.0)
        for b in (1.0, 2.4, 3.0):
            assert K(0.3, b) == b / 2.0
        # a zero of F is a fixed point of K
        assert K(1.2, 2.4) == 1.2

    def test_linear_f(self):
        def F(x, y):
            return y - x, -1.0, 1.0

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
        assert solver.certify_neighborhood(PARABOLA_F, 2.0, 1.0, 0.1, 0.1) == (0.1, 0.1)
        assert solver.certify_neighborhood(PARABOLA_F, 2.0, 1.0, 0.5, 0.5) == (0.5, 0.5)

    def test_square_containment_relationship(self):
        eps, delta = solver.certify_neighborhood(SQUARE_F, 0.0, 0.0, 0.1, 0.1)
        # |K(0; x)| = x^2 <= eps/2 must hold across the delta-box
        assert delta ** 2 <= 0.5 * eps + 1e-12

    def test_degenerate_base_point(self):
        with pytest.raises(DegenerateFy):
            solver.certify_neighborhood(DEGENERATE_F, 0.0, 0.0, 0.1, 0.1)

    def test_box_must_be_positive_and_finite(self):
        for box in ((-1.0, 0.1), (0.1, 0.0), (math.nan, 0.1), (0.1, math.inf)):
            with pytest.raises(ValueError, match="positive finite box"):
                solver.certify_neighborhood(PARABOLA_F, 2.0, 1.0, *box)


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

    def test_bad_tol_is_refused_before_f_is_evaluated(self):
        def F(x, y):
            raise AssertionError("F evaluated")

        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                solver.implicit_solve(F, 0.0, 0.0, 1.0, tol)

    def test_tol_bounds_the_error(self):
        with mpmath.workdps(50):
            want = float(mpmath.findroot(lambda y: y ** 3 + y - 1, 0.68))
        for tol in (1e-6, 1e-9, 1e-12):
            assert abs(solver.implicit_solve(CUBIC_F, 0.0, 0.0, 1.0, tol) - want) <= tol

    def test_degenerate_target_cannot_certify(self):
        with pytest.raises((CannotCertify, DegenerateFy)):
            solver.implicit_solve(DEGENERATE_F, 1.0, 1.0, -1.0)


class TestImplicitDerivative:
    def test_parabola_slope(self):
        assert solver.implicit_derivative(PARABOLA_F, 2.0, 1.0) == 0.5

    def test_linear(self):
        def F(x, y):
            return y - x, -1.0, 1.0

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


def certify_on_meshgrid(F, x0, y0, eps, delta):
    """certify_neighborhood as it was before F was evaluated once a box:
    F_y on a 64 x 64 meshgrid and F at y0 apart, with the constants 1/2 of
    its rho.  The reference for the broadcast check."""
    _, fx0, fy0 = (float(t) for t in F(x0, y0))
    if abs(fy0) <= solver.FY_DEGENERACY * max(1.0, abs(fx0)):
        raise DegenerateFy(f"F_y({x0!r}, {y0!r}) = {fy0!r} is degenerate")
    for _ in range(40):
        xs = np.linspace(x0 - delta, x0 + delta, 64)
        ys = np.linspace(y0 - eps, y0 + eps, 64)
        X, Y = np.meshgrid(xs, ys)
        ok_contract = bool(np.all(np.abs(1.0 - F(X, Y)[2] / fy0) <= 0.5))
        k_at_y0 = y0 - F(xs, np.full_like(xs, y0))[0] / fy0
        contain_slack = 1e-12 * max(1.0, abs(y0))
        ok_contain = bool(np.all(np.abs(k_at_y0 - y0) <= 0.5 * eps + contain_slack))
        if ok_contract and ok_contain:
            return eps, delta
        if not ok_contract:
            eps *= 0.5
            delta *= 0.5
        else:
            delta *= 0.5
    raise CannotCertify("no contraction neighborhood after 40 halvings")


def test_broadcast_certification_matches_the_meshgrid_reference(monkeypatch):
    cases = [(PARABOLA_F, 2.0, 1.0, 30.0), (CUBIC_F, 0.0, 0.0, 1.0),
             (SQUARE_F, 0.0, 0.0, 0.7)]
    for text in (CUBIC, "sin(x) + x^2/4", "exp(x) - 2*x", QUINTIC_SAME_SIGN):
        p = mvt.Problem(expr.parse(text), 0.0, 3.0)
        F = mvt.mean_value_implicit(p)
        for b in (1.7, 2.6):
            cs = mvt.abscissae(p, b)
            assert cs
            cases += [(F, b, c, x) for c in cs for x in (b - 0.3, b + 0.4)]
    # both sides of the first box fail: its b values reach a0 = 0, where b
    # collides, and its c values go below 0, where sqrt is undefined
    sqrt_p = mvt.Problem(expr.parse("sqrt(x)"), 0.0, 1.0)
    with pytest.raises(EndpointCollision):
        mvt.big_f(sqrt_p, 0.0, 0.025)
    with pytest.raises(DomainError):
        mvt.big_f(sqrt_p, 0.1, -0.075)
    cases.append((mvt.mean_value_implicit(sqrt_p), 0.1, 0.025, 0.12))

    def answers(F, x0, y0, x):
        out = []
        box = 0.1 * max(1.0, abs(y0))
        for call in (lambda: solver.certify_neighborhood(F, x0, y0, box, box),
                     lambda: solver.implicit_solve(F, x0, y0, x)):
            try:  # a walk may end at a fold or a domain edge; its error is then the answer
                out.append(call())
            except MvaError as e:
                out.append((type(e), str(e)))
        return out

    for F, x0, y0, x in cases:
        got = answers(F, x0, y0, x)
        with monkeypatch.context() as m:
            m.setattr(solver, "certify_neighborhood", certify_on_meshgrid)
            want = answers(F, x0, y0, x)
        assert got == want, (x0, y0, x)
    # the reference reads big_f for F_y, so it cannot tell which side raises:
    # the meshgrid check read F_y from c alone, first, so c's error is raised
    error = (DomainError, "sqrt of negative value in 'sqrt(x)'")
    assert answers(*cases[-1]) == [error, error]

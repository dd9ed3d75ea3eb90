"""The mean value condition F(b, c) = 0: evaluation, roots, normalization."""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mvabscissa as mva
from mvabscissa import continuation, expr, mvt, scanner
from mvabscissa.errors import DegenerateProblem, DomainError, EndpointCollision

from conftest import (CORPUS_COEFFS, CUBIC, EPS, PARABOLA, QUINTIC_SAME_SIGN,
                      SEXTIC_OPPOSITE, check_poly_abscissae, cubic_upper,
                      grid_sign_change_roots, poly_text, x_fourth_branch)


class TestProblem:
    def test_endpoint_order_is_enforced(self):
        with pytest.raises(ValueError):
            mva.Problem(mva.parse("x"), 2.0, 1.0)

    def test_endpoints_are_floats(self):
        # the compiled runs of the tape take floats: an int endpoint would
        # give f(a0) and the secant of int arithmetic
        p = mva.Problem(mva.parse("x^3"), 0, 10 ** 6)
        assert type(p.a0) is float and type(p.b0) is float
        assert type(p.fa) is float

    def test_default_domain_pads_by_one_width(self):
        p = mva.Problem(mva.parse("x^2"), 0.0, 2.0)
        assert p.domain == (-2.0, 4.0)

    def test_domain_must_contain_endpoints(self):
        with pytest.raises(ValueError):
            mva.Problem(mva.parse("x"), 0.0, 2.0, domain=(0.5, 3.0))

    def test_unevaluable_function_fails_early(self):
        with pytest.raises(Exception):
            mva.Problem(mva.parse("log(x)"), 1.0, 2.0, domain=(-1.0, 3.0))

    def test_default_domain_shrinks_to_where_f_evaluates(self):
        # log(x+2) fails at x = -2, the padded domain's left end; f' = 1/(x+2)
        # + 2x equals the secant slope s where 2c^2 + (4-s)c + 1 - 2s = 0
        p = mva.Problem(mva.parse("log(x+2) + x^2"), 0.0, 2.0)
        assert p.domain == (-1.0, 3.0)
        b = 1.5
        s = (math.log(b + 2.0) + b * b - math.log(2.0)) / b
        want = (s - 4.0 + math.sqrt((4.0 - s) ** 2 - 8.0 * (1.0 - 2.0 * s))) / 4.0
        (got,) = mvt.abscissae(p, b)
        assert abs(got - want) <= 1e-12

    def test_default_domain_shrinks_past_an_even_root(self):
        # x^2.5 needs x >= 0; f' = 2.5 x^1.5 - 1 equals the secant slope s
        # at c = ((s + 1) / 2.5)^(2/3)
        p = mva.Problem(mva.parse("x^2.5 - x"), 0.1, 2.0)
        assert 0.0 <= p.domain[0] < 0.1 and p.domain[1] > 2.0
        b = 1.7
        s = ((b ** 2.5 - b) - (0.1 ** 2.5 - 0.1)) / (b - 0.1)
        want = ((s + 1.0) / 2.5) ** (2.0 / 3.0)
        (got,) = mvt.abscissae(p, b)
        assert abs(got - want) <= 1e-12

    def test_default_domain_keeps_a_pole_out(self):
        # x^(-0.5) has no value at 0, so the padding halves once
        p = mva.Problem(mva.parse("x^(-0.5)"), 0.5, 1.0)
        assert p.domain == (0.25, 1.25)

    @pytest.mark.parametrize("text, end", [("1/x", "a0 = 0.0"), ("1/(x-1)", "b0 = 1.0")])
    def test_f_without_a_value_at_an_end_is_refused(self, text, end):
        # the padded domain's 65 samples miss the pole; 1/x was built with
        # the domain (-1, 2), and then failed at every query
        with pytest.raises(DomainError, match=f"^f has no finite value at {end}$"):
            mva.Problem(mva.parse(text), 0.0, 1.0)

    def test_domain_keeps_overflow_out(self):
        # exp(exp(exp(x))) overflows to inf past x = 1.88, with no numpy
        # warning; the default padding halves twice to stay below that
        f = mva.parse("exp(exp(exp(x)))")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = mva.Problem(f, 0.0, 1.5)
            assert p.domain == (-0.375, 1.875)
            assert np.isfinite(expr.evaluate(p.tape, np.linspace(*p.domain, 65))).all()
            with pytest.raises(DomainError):
                mva.Problem(f, 0.0, 1.5, domain=(-1.5, 3.0))

    def test_f_beyond_1e154_warns_nothing(self):
        # F reaches 4e300 on this scan, so a product of two F values
        # overflows: the sign tests compare signs.  f'' overflows near the
        # top, where a root is refined by bisection.  mpmath gives each root
        # from log f'(c) = e^(e^c) + e^c + c = log S(b)
        p = mva.Problem(mva.parse("exp(exp(exp(x)))"), 0.0, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = scanner.scan(p, 0.1, 1.875, 400)
            (top,) = mvt.abscissae(p, 1.874)
        assert res.columns == list(range(400))

        def f(x):
            return mpmath.exp(mpmath.exp(mpmath.exp(x)))

        def log_f_prime(x):
            return mpmath.exp(mpmath.exp(x)) + mpmath.exp(x) + x

        with mpmath.workdps(40):
            for b, c in [(q.b, q.c) for q in res.points[::40]] + [(1.874, top)]:
                s = mpmath.log((f(mpmath.mpf(b)) - f(0)) / b)
                want = mpmath.findroot(lambda x: log_f_prime(x) - s, c)
                assert abs(c - float(want)) <= 1e-14 * c

    @pytest.mark.parametrize("text, domain, want", [
        ("sqrt(x)", (0.0, 1.0), 0.25),                # 1 / (2 sqrt(c)) = 1
        ("x^(1/3)", (-1.0, 2.0), 3.0 ** -1.5),        # c^(-2/3) / 3 = 1
        ("x^(2/3)", (-1.0, 2.0), 8.0 / 27.0),         # 2 c^(-1/3) / 3 = 1
        ("x^2.5", (0.0, 1.0), 0.4 ** (2.0 / 3.0)),    # 2.5 c^1.5 = 1
    ])
    def test_roots_have_a_value_at_zero(self, text, domain, want):
        # a root of zero has a value but no derivative, so a0 = 0 is allowed;
        # an odd root is defined on both sides of it
        p = mva.Problem(mva.parse(text), 0.0, 1.0)
        assert p.domain == domain
        (got,) = mvt.abscissae(p, 1.0)
        assert abs(got - want) <= 1e-12

    def test_covering_extends_domain(self):
        p = mva.Problem(mva.parse("x^2"), 0.0, 2.0)
        q = p.covering(-5.0, 7.0)
        assert q.domain == (-5.0, 7.0)
        assert p.covering(0.0, 3.0) is p

    def test_f_of_a0_is_evaluated_once(self, monkeypatch):
        p = mva.Problem(mva.parse(CUBIC), 0.0, 3.0)
        at_a0 = []
        evaluate = expr.evaluate

        def counted(f, x):
            if np.ndim(x) == 0 and x == p.a0:
                at_a0.append(x)
            return evaluate(f, x)

        monkeypatch.setattr(expr, "evaluate", counted)
        for b in (2.0, 2.5, 3.0):
            mvt.big_f(p, b, 1.0)
            mvt.abscissae(p, b)
        br = continuation.trace_c_of_b(p, 2.5, cubic_upper(2.5), (2.4, 2.6), step=0.05)
        assert len(br.points) == 5
        assert len(at_a0) == 1


class TestBigF:
    def test_parabola_hand_values(self, parabola):
        value, f_b, f_c = (float(v) for v in mvt.big_f(parabola, 2.0, 1.0))
        assert value == 0.0
        assert f_b == -1.0
        assert f_c == 2.0

    def test_linear_function_vanishes_identically(self):
        p = mva.Problem(mva.parse("x"), 0.0, 1.0)
        for b, c in ((0.5, 0.2), (1.0, 0.9), (2.0, 1.5)):
            assert float(mvt.big_f(p, b, c)[0]) == 0.0

    def test_cubic_solution_at_three(self, cubic):
        # f(3) = 6, secant slope 2, f'(2) = 2
        assert abs(float(mvt.big_f(cubic, 3.0, 2.0)[0])) < 1e-14

    def test_endpoint_collision(self, parabola):
        with pytest.raises(EndpointCollision):
            mvt.big_f(parabola, 0.0, 0.5)

    def test_endpoint_guard_is_per_element(self, parabola):
        # each b is judged on its own scale: b = 1e-11 passes alone, so it
        # passes next to b = 100 too, while b = 1e-13 fails either way
        mvt.big_f(parabola, 1e-11, 5e-12)
        mvt.big_f(parabola, np.array([1e-11, 100.0]), np.array([5e-12, 50.0]))
        with pytest.raises(EndpointCollision):
            mvt.big_f(parabola, 1e-13, 5e-14)
        with pytest.raises(EndpointCollision):
            mvt.big_f(parabola, np.array([1e-13, 100.0]), np.array([5e-14, 50.0]))

    def test_endpoint_guard_on_floats_and_arrays(self, parabola):
        # a float b takes a path without numpy; it must judge b as the
        # array path does, and a NaN b does not raise
        for b in (0.0, 1e-13, -1e-13, 1e-12, 1e-11, 2.0, math.nan, math.inf):
            outcomes = set()
            for arg in (b, np.float64(b), np.array(b), np.array([b])):
                try:
                    mvt._endpoint_guard(parabola, arg)
                    outcomes.add(None)
                except EndpointCollision as e:
                    outcomes.add(str(e))
            assert len(outcomes) == 1
            assert (None in outcomes) == (not abs(b) < 1e-12)

    def test_partials_match_central_differences(self, cubic):
        h = 1e-6
        for b, c in ((2.5, 0.7), (3.0, 2.0), (1.5, 0.4), (2.2, 1.9)):
            value, f_b, f_c = (float(v) for v in mvt.big_f(cubic, b, c))
            fd_b = (float(mvt.big_f(cubic, b + h, c)[0])
                    - float(mvt.big_f(cubic, b - h, c)[0])) / (2 * h)
            fd_c = (float(mvt.big_f(cubic, b, c + h)[0])
                    - float(mvt.big_f(cubic, b, c - h)[0])) / (2 * h)
            assert abs(f_b - fd_b) <= 1e-6
            assert abs(f_c - fd_c) <= 1e-6

    def test_vectorized_over_c(self, cubic):
        cs = np.linspace(0.1, 2.4, 17)
        vec = np.asarray(mvt.big_f(cubic, 2.5, cs)[0], dtype=float)
        for i, c in enumerate(cs):
            assert abs(vec[i] - float(mvt.big_f(cubic, 2.5, float(c))[0])) < 1e-15


class TestSolutionPoint:
    def test_residual_is_enforced(self, parabola):
        with pytest.raises(ValueError):
            mvt.solution_point(parabola, 2.0, 0.7)

    def test_interiority_is_enforced(self, parabola):
        with pytest.raises(ValueError):
            mvt.solution_point(parabola, 2.0, 2.0)
        with pytest.raises(ValueError):
            mvt.solution_point(parabola, 2.0, -0.1)

    def test_valid_point(self, parabola):
        q = mvt.solution_point(parabola, 2.4, 1.2)
        assert q.residual <= 1e-10

    def test_residual_is_judged_at_its_scale(self):
        # x^3 on [0, 1e5]: F = slope - f'(c) cancels terms of size 1e10, so
        # its rounding error is about 2e-6, far above an absolute 1e-10
        s = 1e5
        p = mva.Problem(mva.parse("x^3"), 0.0, s)
        q = mvt.solution_point(p, s, s / math.sqrt(3.0))
        assert 0.0 < q.residual <= 1e-10 * 2e10
        with pytest.raises(ValueError, match="exceeds tolerance"):
            mvt.solution_point(p, s, s / math.sqrt(3.0) * (1 + 1e-9))

    def test_tol_must_be_positive_and_finite(self, parabola):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                mvt.abscissae(parabola, 2.0, tol)


class TestNormalize:
    def test_cubic_secant_subtraction(self, cubic):
        g = mvt.normalize(cubic)
        # g should equal x^3 - 3x^2 (secant slope 2 through the origin)
        for x in np.linspace(-1.0, 4.0, 23):
            assert abs(float(expr.evaluate(g.f, x)) - (x ** 3 - 3 * x ** 2)) < 1e-12
        assert abs(float(expr.evaluate(g.f, 0.0))) < 1e-12
        assert abs(float(expr.evaluate(g.f, 3.0))) < 1e-12

    def test_parabola_already_normalized(self, parabola):
        g = mvt.normalize(parabola)
        for x in np.linspace(0.0, 2.0, 11):
            assert abs(float(expr.evaluate(g.f, x))
                       - float(expr.evaluate(parabola.f, x))) < 1e-14

    def test_linear_function_normalizes_to_zero(self):
        p = mva.Problem(mva.parse("x"), 0.0, 1.0)
        g = mvt.normalize(p)
        for x in np.linspace(0.0, 1.0, 9):
            assert abs(float(expr.evaluate(g.f, x))) < 1e-15

    def test_abscissae_preserved(self, cubic):
        g = mvt.normalize(cubic)
        for b in (1.2, 2.0, 2.5, 3.2):
            orig = mvt.abscissae(cubic, b)
            norm = mvt.abscissae(g, b)
            assert len(orig) == len(norm)
            for u, v in zip(orig, norm):
                assert abs(u - v) <= 1e-9


# the quintic shifted by 20, x -> x - 20, on [20, 23]
SHIFTED = QUINTIC_SAME_SIGN.replace("x", "(x-20)")


class TestAbscissae:
    def test_roots_match_numpy_roots(self):
        # the quintic and the sextic at b = 3 have a touching root, a zero of F_c
        for text, a0, b0, shift, bs in (
                (CUBIC, 0.0, 3.0, 0.0, (0.7, 2.5, 3.0)),
                (QUINTIC_SAME_SIGN, 0.0, 3.0, 0.0, (2.2, 3.0)),
                (SEXTIC_OPPOSITE, 0.0, 3.0, 0.0, (3.0,)),
                ("x^4", -1.0, 1.0, 0.0, (-0.8927318295739348, 0.3, 1.0)),
                (SHIFTED, 20.0, 23.0, 20.0, (23.0,))):
            coeffs = CORPUS_COEFFS[text.replace("(x-20)", "x")]
            p = mva.Problem(mva.parse(text), a0, b0)
            for b in bs:
                check_poly_abscissae(mvt.abscissae(p, b), coeffs, a0, b, shift=shift)

    def test_a_root_that_numpy_roots_places_ulps_off(self):
        # numpy.roots gives 0.6301341108468557, 3.3e-15 from the exact root
        # 0.630134110846859 (Newton in rationals), which the library returns;
        # the bound is 3.24e-15, so the oracle polishes numpy's roots
        coeffs = [0.0, 0.0, 0.0, 0.0, 0.5, 0.001953125]
        p = mva.Problem(mva.parse(poly_text(coeffs)), 0.0, 1.0)
        got = mvt.abscissae(p, 1.0)
        assert got == [0.630134110846859]
        check_poly_abscissae(got, coeffs, 0.0, 1.0)

    @pytest.mark.parametrize("b", [1.5, 5.0])
    def test_transcendental_roots_match_mpmath(self, b):
        # f' = cos(c) + c/2 = S; mpmath refines each sign change of a dense grid
        p = mva.Problem(mva.parse("sin(x) + x^2/4"), 0.0, 3.0)
        s = (math.sin(b) + b * b / 4.0) / b
        cs = np.linspace(0.0, b, 200001)[1:-1]
        fv = np.cos(cs) + cs / 2.0 - s
        i = np.nonzero(fv[:-1] * fv[1:] < 0)[0]
        with mpmath.workdps(40):
            want = [float(mpmath.findroot(lambda c: mpmath.cos(c) + c / 2 - s,
                                          (cs[k], cs[k + 1]), solver="anderson")) for k in i]
        got = mvt.abscissae(p, b)
        assert len(got) == len(want)
        for c, r in zip(got, want):
            rounding = 16 * EPS * (abs(s) + 1.0 + abs(r) / 2.0) / abs(-math.sin(r) + 0.5)
            assert abs(c - r) <= 1e-15 * b + rounding

    def test_steep_sine_returns_every_root(self):
        # f = sin(1000 x) on [0, 1] at b = 1: f'(c) = 1000 cos(1000 c) = S =
        # sin(1000), so c = (+-acos(sin(1000) / 1000) + 2 pi n) / 1000, 318
        # roots.  |F_c| reaches 1e6, so a bisected root, 1e-15 from a sign
        # change, may leave |F| near 1e-9, past the residual bound; a root
        # refined by Newton steps does not, and lies within one float of it
        got = mvt.abscissae(mva.Problem(mva.parse("sin(1000*x)"), 0.0, 1.0), 1.0)
        with mpmath.workdps(40):
            t = mpmath.acos(mpmath.sin(1000) / 1000)
            want = sorted(c for n in range(160) for c in (
                float((2 * mpmath.pi * n + t) / 1000), float((2 * mpmath.pi * n - t) / 1000))
                if 0.0 < c < 1.0)
        assert len(want) == 318
        assert len(got) == len(want)
        assert all(abs(c - w) <= np.spacing(w) for c, w in zip(got, want))

    @pytest.mark.parametrize("s", [1e-9, 1e-7])
    def test_a_tiny_cubic_is_not_degenerate(self, s):
        # F's terms are of size s^2: the degeneracy test scales with them,
        # not with 1
        (c,) = mvt.abscissae(mva.Problem(mva.parse("x^3"), 0, s), s)
        assert abs(c - s / math.sqrt(3.0)) <= 1e-15 * (s / math.sqrt(3.0))

    def test_parabola_vertex(self, parabola):
        cs = mvt.abscissae(parabola, 2.0)
        assert len(cs) == 1
        assert abs(cs[0] - 1.0) <= 1e-12

    def test_cubic_quadratic_formula(self, cubic):
        cs = mvt.abscissae(cubic, 2.5)
        want = [(6.0 - math.sqrt(21.0)) / 6.0, (6.0 + math.sqrt(21.0)) / 6.0]
        assert len(cs) == 2
        assert abs(cs[0] - want[0]) <= 1e-9
        assert abs(cs[1] - want[1]) <= 1e-9

    def test_cubic_boundary_root_rejected(self, cubic):
        # 3c^2 - 6c + 2 = 2 has roots {0, 2}; c = 0 is not interior
        cs = mvt.abscissae(cubic, 3.0)
        assert len(cs) == 1
        assert abs(cs[0] - 2.0) <= 1e-9

    def test_touching_double_root_is_found(self, quintic_same_sign):
        # at b = 3 the abscissa c = 1 is a double root of F(3, .)
        cs = mvt.abscissae(quintic_same_sign, 3.0)
        assert any(abs(c - 1.0) < 1e-5 for c in cs)

    def test_touching_root_is_a_zero_of_f_c(self, sextic_opposite):
        # f' = (x-1)^2 (x-3) (x^2 - 4.5x + 3.3) and f(3) = f(0), so at b = 3
        # the abscissae are the double root 1 and (4.5 - sqrt(7.05)) / 2
        cs = mvt.abscissae(sextic_opposite, 3.0)
        assert len(cs) == 2
        assert abs(cs[0] - (4.5 - math.sqrt(7.05)) / 2.0) <= 1e-12
        assert abs(cs[1] - 1.0) <= 1e-14

    def test_bisection_ends_on_adjacent_floats(self, x_fourth):
        # the sign-change bracket shrinks to two adjacent floats that are
        # wider apart than 1e-15 * (b - a0)
        b = -0.8927318295739348
        cs = mvt.abscissae(x_fourth, b)
        assert len(cs) == 1
        assert abs(cs[0] - x_fourth_branch(b)) <= 1e-12

    def test_touching_search_ends_on_adjacent_floats(self):
        # the quintic shifted by 20: f' = (x-21)^2 (x-23) (x-21.4), so at
        # b = 23 the abscissae are the double root 21 and the simple root
        # 21.4, where adjacent floats are wider apart than 1e-15 * (b - a0)
        shifted = QUINTIC_SAME_SIGN.replace("x", "(x-20)")
        p = mva.Problem(mva.parse(shifted), 20.0, 23.0)
        cs = mvt.abscissae(p, 23.0)
        assert len(cs) == 2
        assert abs(cs[0] - 21.0) <= 1e-5
        assert abs(cs[1] - 21.4) <= 1e-9

    def test_one_column_call_agrees_with_batched_columns(self, cubic, quintic_same_sign):
        # batched columns share one grid over [a0, max b], a one-column call
        # grids [a0, b]: the same count of roots, each within its bisection
        # width and the rounding of F (of f'' for a touching root) of the
        # numpy.roots oracle, or for sin(10*x) of each other.  The
        # quintic's last column, b = 3, has a touching root at c = 1;
        # sin(10*x) gives its columns more brackets than _FLOAT_BRACKETS,
        # which step as arrays.  touching has f' = (x-1)^2 (x-1-e) and f(3) =
        # f(a0), so F(3, .) touches zero at c = 1, 6.7e-7 from the nearest
        # node of a one-column grid
        e = 1.2499992499993335
        sine = mva.Problem(mva.parse("sin(10*x)"), 0.0, 1.0)
        touching = mva.Problem(mva.parse(f"(x - 1)^4/4 - {e!r}*(x - 1)^3/3"), -1e-6, 3.0)
        assert mvt.abscissae(touching, 3.0)[0] == pytest.approx(1.0, abs=1e-12)
        touched = 0
        for p, bs, coeffs, shift in (
                (cubic, np.linspace(0.5, 3.0, 7), CORPUS_COEFFS[CUBIC], 0.0),
                (cubic, np.linspace(0.5, 3.0, 37), CORPUS_COEFFS[CUBIC], 0.0),
                (quintic_same_sign, np.linspace(0.5, 3.0, 37),
                 CORPUS_COEFFS[QUINTIC_SAME_SIGN], 0.0),
                (sine, np.linspace(0.2, 2.0, 37), None, 0.0),
                (touching, np.linspace(0.5, 3.0, 37), [0.0, 0.0, 0.0, -e / 3.0, 0.25], 1.0)):
            live, column, c, residual = mvt.solve_columns(p, bs)
            assert live.all()
            for k, b in enumerate(bs.tolist()):
                one = mvt.abscissae(p, b)
                got = c[column == k].tolist()
                assert len(got) == len(one)
                for u, r in zip(got, residual[column == k].tolist()):
                    assert mvt.SolutionPoint(b, u, r) == mvt.solution_point(p, b, u)
                if coeffs is not None:
                    touched += len(check_poly_abscissae(got, coeffs, p.a0, b, shift=shift))
                    check_poly_abscissae(one, coeffs, p.a0, b, shift=shift)
                    continue
                s = (math.sin(10 * b)) / b
                for u, w in zip(got, one):
                    rounding = 16 * EPS * (abs(s) + 10.0) / abs(100 * math.sin(10 * w))
                    assert abs(u - w) <= 2 * (1e-15 * b + rounding)
        assert touched == 2  # the quintic's and touching's c = 1, at b = 3

    def test_first_failing_column_raises_its_own_error(self):
        # the slopes of all columns are evaluated together; the column that
        # fails first must still raise what it raises on its own
        p = mva.Problem(mva.parse("1/(x - 1.5)"), 0.0, 1.0)
        assert p.domain == (-1.0, 2.0)
        pole = 1.9983745123537062  # the grid of this column hits c = 1.5
        kinds = set()
        lists = ([0.5, pole, 2.5], [0.5, 2.5, pole], [0.5, 1e-13, 2.5],
                 [0.5, 2.5, 1e-13], [0.5, 1.5, 2.5], [0.5, pole, 1.5])
        # the same failures again in a later block of the default grid (the
        # third), after 17 good columns
        good = np.linspace(0.2, 1.4, 17).tolist()
        for bs in lists + tuple(good + bs for bs in lists):
            for b in bs:
                try:
                    mvt.solve_columns(p, [b])
                except (ValueError, DomainError, EndpointCollision) as e:
                    first = e
                    break
            with pytest.raises(type(first)) as ei:
                mvt.solve_columns(p, bs)
            assert str(ei.value) == str(first)
            kinds.add(type(first))
        assert kinds == {ValueError, DomainError, EndpointCollision}

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_cubic_power_at_every_scale(self, k):
        # x^3 on [0, s]: s^2 = 3 c^2, so c = s / sqrt(3), here the root of the
        # mean value equation found by mpmath at 50 digits.  F is a
        # difference of terms of size s^2, so an absolute residual filter
        # drops this root once s is large
        s = 10.0 ** k
        with mpmath.workdps(50):
            s_mp = mpmath.mpf(s)
            want = float(mpmath.findroot(lambda c: s_mp ** 3 / s_mp - 3 * c ** 2, s_mp / 2))
        got = mvt.abscissae(mva.Problem(mva.parse("x^3"), 0.0, s), s)
        assert len(got) == 1
        assert abs(got[0] - want) <= 1e-12 * want

    def test_linear_is_degenerate(self):
        p = mva.Problem(mva.parse("x"), 0.0, 1.0)
        with pytest.raises(DegenerateProblem):
            mvt.abscissae(p, 1.0)

    def test_random_polynomials_match_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            deg = int(rng.integers(2, 6))
            coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
            p = mva.Problem(mva.parse(poly_text(coeffs)), 0.0, 1.0,
                            domain=(-0.5, 4.0))
            for _ in range(10):
                b = float(rng.uniform(0.3, 3.5))
                try:
                    got = mvt.abscissae(p, b)
                except DegenerateProblem:
                    continue
                oracle = grid_sign_change_roots(
                    lambda cs: mvt.big_f(p, b, cs)[0],
                    p.a0 + 1e-9, b - 1e-9, 100000)
                res = (b - p.a0) / 2048
                for r in oracle:
                    assert any(abs(c - r) <= res for c in got), \
                        f"missed oracle root {r} at b={b}"
                # every simple root we report must appear in the oracle
                for c in got:
                    f_c = abs(float(mvt.big_f(p, b, c)[2]))
                    if f_c > 1e-3:
                        assert any(abs(c - r) <= res for r in oracle)


# f' = (x-1)^2 (x-3)^2 (x-3/4) and f(3) = f(0): at b = 3, c = 0.75 crosses and
# c = 1 touches; c = 3 is the end b, where F(3, 3) = 0 too
ONE_SIDED = "-27/4*x + 27/2*x^2 - 27/2*x^3 + 7*x^4 - 7/4*x^5 + x^6/6"
ONE_SIDED_COEFFS = [0.0, -27 / 4, 27 / 2, -27 / 2, 7.0, -7 / 4, 1 / 6]
P = np.polynomial.polynomial


def _with_roots(roots, a0, b, gain, s):
    """Coefficients of an f whose f' - S(b) on [a0, b] is gain * (x - t) *
    prod(x - r), r in roots, and t: f' = g + s with g of zero mean on
    [a0, b], so S(b) = s, and t the zero that gives g that mean."""
    base = P.polyfromroots(roots)

    def mean(c):
        return P.polyval(b, P.polyint(c)) - P.polyval(a0, P.polyint(c))

    t = mean(P.polymulx(base)) / mean(base)
    g = gain * P.polymul(base, [-t, 1.0])
    return P.polyint(P.polyadd(g, [s]), lbnd=a0).tolist(), t


class TestTouchingRoots:
    """A touching root is a critical point c* of f' with f'(c*) = S, found
    whichever nodes the grid has (ROADMAP item 1)."""

    @pytest.mark.parametrize("grid_n", [64, 2047, 2048, 3000])
    def test_quintic_at_every_grid(self, quintic_same_sign, grid_n):
        got = mvt.abscissae(quintic_same_sign, 3.0, grid_n=grid_n)
        assert len(got) == 2 and abs(got[0] - 1.0) <= 1e-15
        coeffs = CORPUS_COEFFS[QUINTIC_SAME_SIGN]
        assert check_poly_abscissae(got, coeffs, 0.0, 3.0) == got[:1]

    @pytest.mark.parametrize("s", [10.0, 1e3])
    @pytest.mark.parametrize("grid_n", [64, 2047, 2048, 3000])
    def test_rescaled_quintic(self, s, grid_n):
        # x -> x / s: c = s, within the rounding of f'' there
        p = mva.Problem(mva.parse(QUINTIC_SAME_SIGN.replace("x", f"(x/{s!r})")), 0.0, 3 * s)
        got = mvt.abscissae(p, 3 * s, grid_n=grid_n)
        assert len(got) == 2
        coeffs = CORPUS_COEFFS[QUINTIC_SAME_SIGN]
        assert check_poly_abscissae(got, coeffs, 0.0, 3 * s, scale=s) == got[:1]

    @pytest.mark.parametrize("grid_n", [2047, 2048, 3000])
    def test_one_sided_sextic(self, grid_n):
        # no root within rounding of c = b = 3, though F(3, 3) = 0 there
        p = mva.Problem(mva.parse(ONE_SIDED), 0.0, 3.0)
        got = mvt.abscissae(p, 3.0, grid_n=grid_n)
        assert len(got) == 2 and got[0] == pytest.approx(0.75, abs=1e-14)
        assert check_poly_abscissae(got, ONE_SIDED_COEFFS, 0.0, 3.0) == got[1:]

    @pytest.mark.parametrize("delta", [3e-4, 1e-4])
    def test_two_roots_in_one_cell(self, delta):
        # S lies past f' at every node of the cell around c0, short of f'(c*):
        # a root on each side of c*, which no node brackets
        h = 3.0 / 2049
        c0 = 1000.5 * h
        coeffs, _ = _with_roots([c0 - delta, c0 + delta], 0.0, 3.0, 1.0, 0.25)
        p = mva.Problem(mva.parse(poly_text(coeffs)), 0.0, 3.0)
        got = mvt.abscissae(p, 3.0)
        assert len(got) == 3 and got[0] < c0 < got[1]
        assert check_poly_abscissae(got, coeffs, 0.0, 3.0) == []

    @pytest.mark.parametrize("roots", [(0.0975, 0.0985), (0.0992, 0.0998), (0.09915, 0.09925)])
    def test_two_roots_in_a_narrow_columns_last_cell(self, roots):
        # the column b = 0.1 of a scan up to 3.5 ends 0.6 cells past node 58
        # (0.09907) of the shared grid; the critical point of f' between the
        # roots lies in the cells around node 58 or 59, whose window reaches
        # past b
        coeffs, _ = _with_roots(list(roots), 0.0, 0.1, 1e4, 0.25)
        p = mva.Problem(mva.parse(poly_text(coeffs)), 0.0, 3.5)
        _, column, c, _ = mvt.solve_columns(p, np.linspace(0.1, 3.5, 400))
        got = c[column == 0].tolist()
        assert len(got) == 3 and got[1] < sum(roots) / 2 < got[2]
        assert check_poly_abscissae(got, coeffs, 0.0, 0.1) == []

    @pytest.mark.parametrize("roots, want", [
        ([1.0, 1.0], [1.0000000000001519, 1.0014648429318607]),
        ([0.5, 1.0, 1.0], [0.4999999999999981, 1.0]),
        ([1.0, 1.0, 1.7], [0.1416871637616124, 1.0000000000000004, 1.699999999999999]),
    ])
    def test_a_turn_on_a_grid_node(self, roots, want):
        # b = 2049/1024 puts node 1024 of the grid at 1.0 exactly, where S
        # touches f': the turn c* = 1 is bisected to the node itself for
        # [0.5, 1, 1] and becomes a second node there, whose root is one
        b = 2049 / 1024
        assert np.linspace(0.0, b, mvt.DEFAULT_GRID_N + 2)[1024] == 1.0
        coeffs, _ = _with_roots(roots, 0.0, b, 1.0, 0.5)
        assert mvt.abscissae(mva.Problem(mva.parse(poly_text(coeffs)), 0.0, b), b) == want


class TestEndCells:
    """Roots in a column's first cell, from a0, and last cell, up to b
    (ROADMAP item 13)."""

    @settings(max_examples=150, deadline=None)
    @given(a0=st.floats(-1.0, 1.0), width=st.floats(0.5, 3.0),
           grid_n=st.sampled_from([64, 100, 2048]),
           at=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
           ends=st.tuples(st.booleans(), st.booleans()),
           gain=st.floats(0.5, 3.0), sign=st.sampled_from([1.0, -1.0]),
           s=st.floats(-1.0, 1.0))
    def test_every_simple_root_is_returned(self, a0, width, grid_n, at, ends, gain, sign, s):
        # each end root lies in its end cell, or anywhere in (a0, b)
        b = a0 + width
        h = width / (grid_n + 1)
        lo, hi, inner = at
        roots = [a0 + lo * (h if ends[0] else width), b - hi * (h if ends[1] else width),
                 a0 + inner * width]
        with np.errstate(all="ignore"):
            coeffs, t = _with_roots(roots, a0, b, sign * gain, s)
        # a t that keeps the coefficients of moderate size, and no two roots
        # within two cells, where the grid need not see the critical point
        # of f' between them
        gaps = np.diff(np.sort(roots + [t]))
        assume(abs(t - a0) <= 10 * width and np.all(gaps >= max(2 * h, 1e-3 * width)))
        p = mva.Problem(mva.parse(poly_text(coeffs)), a0, b)
        check_poly_abscissae(mvt.abscissae(p, b, grid_n=grid_n), coeffs, a0, b)

    @pytest.mark.parametrize("text, a0, b0, b_min, b_max, column, near", [
        (CUBIC, 0.0, 3.0, 0.1, 3.5, 340, 0.0013781289925864138),
        ("exp(-x^2)*cos(5*x)", -1.0, 1.0, -0.9, 2.5, 242, 1.1614806936781998),
        ("sin(10*x)", 0.0, 1.0, 0.1, 12.0, 181, 5.495968300648299),
        ("sin(10*x)", 0.0, 1.0, 0.1, 12.0, 202, 6.124473026675085),
        ("sin(10*x)", 0.0, 1.0, 0.1, 12.0, 318, 9.580814480585975),
        ("sin(10*x)", 0.0, 1.0, 0.1, 12.0, 339, 10.209196733071572),
    ])
    def test_perfbench_end_cell_roots(self, text, a0, b0, b_min, b_max, column, near):
        # perfbench's 400-column scans missed each of these, a root in an
        # end cell; mpmath at 40 digits gives it
        res = scanner.scan(mva.Problem(mva.parse(text), a0, b0), b_min, b_max, 400)
        b = float(np.linspace(b_min, b_max, 400)[column])
        f = {CUBIC: lambda x: x ** 3 - 3 * x ** 2 + 2 * x,
             "sin(10*x)": lambda x: mpmath.sin(10 * x),
             "exp(-x^2)*cos(5*x)": lambda x: mpmath.exp(-x ** 2) * mpmath.cos(5 * x)}[text]
        with mpmath.workdps(40):
            s = (f(mpmath.mpf(b)) - f(mpmath.mpf(a0))) / (mpmath.mpf(b) - a0)
            want = mpmath.findroot(lambda c: mpmath.diff(f, c) - s, near)
            f_c = float(abs(mpmath.diff(f, want, 2)))
            scale = float(abs(s) + abs(mpmath.diff(f, want)))
        got = [q.c for q, k in zip(res.points, res.columns) if k == column]
        h = (b_max - a0) / (2048 + 1)
        assert min(want - a0, b - want) < h  # an end cell of the shared grid
        assert min(abs(c - float(want)) for c in got) <= 1e-15 * (b - a0) + 16 * EPS * scale / f_c

    @pytest.mark.parametrize("text, ratio", [("sqrt(x)", 0.25), ("x^(1/3)", 3.0 ** -1.5)])
    def test_f_prime_failing_at_a0_makes_no_bracket(self, text, ratio):
        # f' has no value at a0 = 0; the abscissa is c = ratio * b
        p = mva.Problem(mva.parse(text), 0.0, 1.0)
        with pytest.raises(DomainError):
            mvt._fprime(p)(0.0)
        for count in (5, 40):
            res = scanner.scan(p, 0.05, 1.0, count)
            assert res.columns == list(range(count))
            for q in res.points:
                assert abs(q.c - ratio * q.b) <= 1e-13 * q.b

    def test_f_prime_failing_at_b_makes_no_bracket(self):
        # f = sqrt(1 - x): f' has no value at b = 1, and -1 / (2 sqrt(1 - c))
        # = -1 at c = 3/4
        p = mva.Problem(mva.parse("sqrt(1 - x)"), 0.0, 1.0)
        assert p.domain[1] == 1.0
        with pytest.raises(DomainError):
            mvt._fprime(p)(1.0)
        assert mvt.abscissae(p, 1.0) == [pytest.approx(0.75, abs=1e-15)]
        _, column, c, _ = mvt.solve_columns(p, np.linspace(0.5, 1.0, 12))
        assert c[column == 11].tolist() == [pytest.approx(0.75, abs=1e-15)]


def test_no_columns_give_empty_arrays(cubic):
    live, column, c, residual = mvt.solve_columns(cubic, [])
    assert [(a.dtype, a.shape) for a in (live, column, c, residual)] == [
        (np.dtype(bool), (0,)), (np.dtype(np.intp), (0,)), (np.dtype(float), (0,)),
        (np.dtype(float), (0,))]


def test_a_scan_evaluates_f_prime_once_per_node(cubic, monkeypatch):
    # outside bisection, a 400-column scan runs f' (or wider jets) on the
    # grid_n + 2 shared nodes, its two ends alone and the others in one
    # call, at the b's in one call, then on its roots; a grid per column
    # would take 400 * grid_n points
    sizes, bisecting = [], []
    jet, bisect = expr.Tape.jet, mvt._bisect

    def counted(tape, width):
        run = jet(tape, width)

        def counting(x0):
            if width >= 2 and not bisecting:
                sizes.append(np.size(x0))
            return run(x0)
        return counting

    def bisect_counted(*args):
        bisecting.append(True)
        try:
            return bisect(*args)
        finally:
            bisecting.pop()

    monkeypatch.setattr(expr.Tape, "jet", counted)
    monkeypatch.setattr(mvt, "_bisect", bisect_counted)
    bs = np.linspace(0.1, 3.5, 400)
    roots = mvt.solve_columns(cubic.covering(-3.0, 6.0), bs)[2].size
    assert sorted(sizes) == sorted([1, 1, mvt.DEFAULT_GRID_N, bs.size, roots])
    assert mvt.DEFAULT_GRID_N + 2 + bs.size + roots <= sum(sizes)
    assert sum(sizes) <= mvt.DEFAULT_GRID_N + 2 + bs.size + 2 * roots


@pytest.mark.parametrize("text, a0, b0, b_range, brackets, windows", [
    ("exp(-x^2)*cos(5*x)", -1.0, 1.0, (1.5,), [], 5),
    (PARABOLA, 0.0, 2.0, (2.0,), [], 0),
    (QUINTIC_SAME_SIGN, 0.0, 3.0, (3.0,), [1], 3),
    ("sin(10*x)", 0.0, 1.0, (0.1, 12.0), [], 38),
    (QUINTIC_SAME_SIGN, 0.0, 3.0, (0.1, 3.5), [1], 3),
])
def test_only_the_turns_some_s_reaches_are_bisected(text, a0, b0, b_range, brackets, windows,
                                                    monkeypatch):
    # a turn of f' is bisected only where a live column's S lies past f' at
    # the column's nodes of its window, or passes _residual_ok against it:
    # bisecting every window took the exp(-x^2)*cos(5*x) query from 0.35 to
    # 1.34 ms.  The turn function is the one _bisect call without params
    windows_seen, brackets_seen, sample, bisect = [], [], mvt._sample, mvt._bisect

    def sampled(*args):
        cs, v, window = sample(*args)
        windows_seen.append(window[0].size)
        return cs, v, window

    def counted(fn, lo, hi, flo, width_tol, *params, **kwargs):
        if not params:
            brackets_seen.append(lo.size)
        return bisect(fn, lo, hi, flo, width_tol, *params, **kwargs)

    monkeypatch.setattr(mvt, "_sample", sampled)
    monkeypatch.setattr(mvt, "_bisect", counted)
    p = mva.Problem(mva.parse(text), a0, b0).covering(a0, max(b_range))
    mvt.solve_columns(p, np.linspace(*b_range, 400) if len(b_range) == 2 else b_range)
    assert windows_seen == [windows] and brackets_seen == brackets


def test_a_scan_refines_its_roots_in_few_array_steps(monkeypatch):
    # the sin(10*x) scan refines 7710 brackets to 1e-15 (b - a0): bisection
    # took 46 array steps, Newton steps take 4 before the last few brackets
    # finish on floats.  The refinement is the _bisect call whose function
    # takes each bracket's S as a param
    steps = []
    bisect = mvt._bisect

    def counted(fn, lo, hi, flo, width_tol, *params):
        def counting(*args):
            steps.append(isinstance(args[-1], np.ndarray))
            return fn(*args)
        return bisect(counting if params else fn, lo, hi, flo, width_tol, *params)

    monkeypatch.setattr(mvt, "_bisect", counted)
    res = scanner.scan(mva.Problem(mva.parse("sin(10*x)"), 0.0, 1.0), 0.1, 12.0, 400)
    assert len(res.points) == 7710
    assert 0 < sum(steps) <= 8


def _bracket_function(kind, root, sign, slope=None):
    """A function of c, elementwise alike on floats and on arrays: a simple
    root, a triple root, a root inside a flat run of zeros, or NaN.  With a
    slope it gives the pair (F, F_c): F_c exact, too small ("poor", 0.3
    F_c), or NaN, inf, -inf or 0 past the root."""
    f, f_c = {
        "simple": (lambda c: sign * (c - root), lambda c: sign),
        "triple": (lambda c: sign * (c - root) * (c - root) * (c - root),
                   lambda c: 3.0 * sign * (c - root) * (c - root)),
        "flat": (lambda c: sign * (c - root) * (abs(c - root) >= 1e-3),
                 lambda c: sign * (abs(c - root) >= 1e-3)),
        "nan": (lambda c: c * math.nan, lambda c: sign),
    }[kind]
    if slope is None:
        return f
    if slope == "exact":
        return lambda c: (f(c), f_c(c))
    if slope == "poor":
        return lambda c: (f(c), 0.3 * f_c(c))
    bad = float(slope)
    return lambda c: (f(c), np.where(c > root, bad, f_c(c)))


# what the caller's function gives: F alone, or F with F_c, exact or not
SLOPES = st.sampled_from([None, "exact", "poor", "nan", "inf", "-inf", "0"])


def _array_loop(fn, lo, hi, flo, width_tol, *params, x0=None):
    """_bisect with every bracket set stepped as arrays, none on floats."""
    with mock.patch.object(mvt, "_FLOAT_BRACKETS", 0):
        return mvt._bisect(fn, lo, hi, flo, width_tol, *params, x0=x0)


# a first iterate, as the share of the way from lo to hi, or None for the midpoint
STARTS = st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))


def _first_iterate(lo, hi, start):
    """The point a share start of the way from lo to hi, kept in the bracket
    against rounding, or None."""
    if start is None:
        return None
    return min(max(lo + start * (hi - lo), min(lo, hi)), max(lo, hi))


# a bracket's width_tol: solve_columns' 1e-15 * (b - a0), or any other
WIDTH_TOLS = st.one_of(st.floats(1e-6, 1e6).map(lambda w: 1e-15 * w), st.floats(0.0, 1.0))


@settings(max_examples=500, deadline=None)
@given(lo=st.floats(-1e6, 1e6), hi=st.floats(-1e6, 1e6), at=st.floats(-0.2, 1.2),
       sign=st.sampled_from([1.0, -1.0]),
       kind=st.sampled_from(["simple", "triple", "flat", "nan"]), slope=SLOPES,
       flo=st.one_of(st.floats(), st.sampled_from([-1.0, 1.0])),
       width_tol=st.one_of(st.none(), WIDTH_TOLS),  # None: _bisect_one's default
       start=STARTS)
@example(lo=0.0, hi=2.0, at=0.5, sign=1.0, kind="simple", slope=None, flo=-1.0,
         width_tol=None, start=None)  # an exact zero midpoint
@example(lo=1.0, hi=float(np.nextafter(1.0, 2.0)), at=0.5, sign=1.0, kind="simple",
         slope=None, flo=-1.0, width_tol=None, start=None)  # adjacent floats
@example(lo=1.0, hi=float(np.nextafter(1.0, 2.0)), at=0.5, sign=1.0, kind="simple",
         slope=None, flo=-1.0, width_tol=1e-15 * 1e-3,
         start=None)  # adjacent floats, wider than width_tol
@example(lo=-0.8927318295739348, hi=-0.8927318295739347, at=0.5, sign=-1.0,
         kind="triple", slope=None, flo=1.0, width_tol=1e-15 * 0.1,
         start=None)  # adjacent floats, below 1
@example(lo=0.0, hi=1.0, at=0.3, sign=1.0, kind="simple", slope=None, flo=-1.0,
         width_tol=0.25, start=None)  # a width that reaches width_tol exactly
@example(lo=2.0, hi=1.0, at=0.5, sign=1.0, kind="simple", slope=None, flo=1.0,
         width_tol=None, start=None)  # lo > hi
@example(lo=1.0, hi=1.0, at=0.5, sign=1.0, kind="simple", slope=None, flo=0.0,
         width_tol=None, start=None)  # lo == hi
@example(lo=-1.0, hi=3.0, at=0.25, sign=1.0, kind="simple", slope=None, flo=math.nan,
         width_tol=None, start=None)
@example(lo=0.0, hi=1.0, at=0.3, sign=1.0, kind="simple", slope="exact", flo=-1.0,
         width_tol=1e-15, start=None)  # one Newton step lands on the root
@example(lo=-3.0, hi=5.0, at=0.7, sign=-1.0, kind="triple", slope="exact", flo=1.0,
         width_tol=1e-15 * 8.0, start=None)  # Newton at its linear rate, on a triple root
@example(lo=0.0, hi=1.0, at=0.3, sign=1.0, kind="flat", slope="0", flo=-1.0,
         width_tol=None, start=None)  # F_c = 0 where F is not
@example(lo=1.0, hi=float(np.nextafter(1.0, 2.0)), at=0.5, sign=1.0, kind="simple",
         slope="exact", flo=-1.0, width_tol=0.0, start=None)  # adjacent floats, width_tol 0
@example(lo=0.0, hi=1.0, at=0.3, sign=1.0, kind="simple", slope="exact", flo=-1.0,
         width_tol=1e-15, start=0.3)  # a first iterate on the root
@example(lo=-3.0, hi=5.0, at=0.7, sign=-1.0, kind="triple", slope="exact", flo=1.0,
         width_tol=1e-15 * 8.0, start=1.0)  # a first iterate at hi
@example(lo=1.0, hi=float(np.nextafter(1.0, 2.0)), at=0.5, sign=1.0, kind="simple",
         slope=None, flo=-1.0, width_tol=None, start=1.0)  # narrow: the midpoint, not hi
def test_bisect_one_is_bisect_on_one_bracket(lo, hi, at, sign, kind, slope, flo, width_tol,
                                             start):
    fn = _bracket_function(kind, lo + at * (hi - lo), sign, slope)
    tol = 1e-16 * max(1.0, abs(lo), abs(hi)) if width_tol is None else width_tol
    x0 = _first_iterate(lo, hi, start)
    want = _array_loop(fn, np.array([lo]), np.array([hi]), np.array([flo]), np.array([tol]),
                       x0=None if x0 is None else np.array([x0]))[0]
    got = mvt._bisect_one(fn, lo, hi, flo, width_tol, x0)
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()
    assert min(lo, hi) <= got <= max(lo, hi)


@st.composite
def _brackets(draw):
    """lo, hi, root, F's sign, F(lo) and width_tol of one bracket: of any
    width, a few floats wide, or narrower than 1."""
    lo = draw(st.floats(-1e6, 1e6))
    hi = draw(st.one_of(
        st.floats(-1e6, 1e6),
        st.integers(0, 3).map(lambda k: float(lo + k * np.spacing(lo))),
        st.floats(1e-12, 1.0).map(lambda w: lo + w)))
    root = lo + draw(st.floats(-0.2, 1.2)) * (hi - lo)
    flo = draw(st.one_of(st.floats(), st.sampled_from([-1.0, 1.0])))
    return lo, hi, root, draw(st.sampled_from([1.0, -1.0])), flo, draw(WIDTH_TOLS)


@settings(max_examples=300, deadline=None)
@given(brackets=st.lists(_brackets(), min_size=1, max_size=2 * mvt._FLOAT_BRACKETS),
       kind=st.sampled_from(["simple", "triple", "flat", "nan"]), slope=SLOPES,
       starts=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=2 * mvt._FLOAT_BRACKETS,
                                            max_size=2 * mvt._FLOAT_BRACKETS)))
@example(brackets=[(0.0, 1.0, 0.5, 1.0, -1.0, 1e-15)]
         + [(0.0, 1.0, 0.3 + 0.01 * k, 1.0, -1.0, 1e-15) for k in range(mvt._FLOAT_BRACKETS)],
         kind="triple", slope="exact",
         starts=None)  # the first stops at once, the rest finish on floats
def test_float_route_is_the_array_loop(brackets, kind, slope, starts):
    # up to _FLOAT_BRACKETS brackets step on floats from the start; more
    # step as arrays until that few are left, which finish on floats
    lo, hi, root, sign, flo, width_tol = map(np.array, zip(*brackets))
    x0 = None if starts is None else np.array(
        [_first_iterate(*bracket[:2], start) for bracket, start in zip(brackets, starts)])

    def fn(root, sign, c):  # each bracket's function, given its root and sign
        return _bracket_function(kind, root, sign, slope)(c)

    got = mvt._bisect(fn, lo, hi, flo, width_tol, root, sign, x0=x0)
    want = _array_loop(fn, lo, hi, flo, width_tol, root, sign, x0=x0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert ((np.minimum(lo, hi) <= got) & (got <= np.maximum(lo, hi))).all()


def test_many_roots_in_one_column_take_the_array_loop(monkeypatch):
    # the route goes by the number of brackets, not of columns: one column of
    # sin(5000*x) has hundreds of brackets, which would step slowly as floats
    sizes = []

    def recording(fn, lo, *rest):
        sizes.append(lo.size)
        return bisect(fn, lo, *rest)

    bisect = mvt._bisect
    monkeypatch.setattr(mvt, "_bisect", recording)
    roots = mvt.abscissae(mva.Problem(mva.parse("sin(5000*x)"), 0.0, 1.0), 1.0)
    assert len(roots) > mvt._FLOAT_BRACKETS
    assert max(sizes) > mvt._FLOAT_BRACKETS


class TestG1G2:
    def test_parabola_split(self, parabola):
        g1, g2 = mvt.g1_g2(parabola, 2.0, 1.0)
        for x in np.linspace(-0.5, 0.5, 11):
            assert abs(float(g1(x)) - (-x)) < 1e-12
        for y in np.linspace(-0.5, 0.5, 11):
            assert abs(float(g2(y)) - (-2.0 * y)) < 1e-12
        assert np.allclose(g1.series(3), [0.0, -1.0, 0.0, 0.0], atol=1e-13)
        assert np.allclose(g2.series(3), [0.0, -2.0, 0.0, 0.0], atol=1e-13)

    def test_both_vanish_at_zero(self, cubic, quintic_same_sign):
        for p, b0, c0 in ((cubic, 3.0, 2.0), (quintic_same_sign, 3.0, 1.0)):
            g1, g2 = mvt.g1_g2(p, b0, c0)
            assert abs(float(g1(0.0))) < 1e-12
            assert abs(float(g2(0.0))) < 1e-12
            assert g2.series(4)[0] == 0.0

    def test_quartic_derivative_split(self, x_fourth):
        g1, g2 = mvt.g1_g2(x_fourth, 1.0, 0.0)
        assert np.allclose(g2.series(3), [0.0, 0.0, 0.0, 4.0], atol=1e-13)

    def test_difference_reproduces_big_f(self, cubic):
        c0 = (6.0 + math.sqrt(21.0)) / 6.0
        g1, g2 = mvt.g1_g2(cubic, 2.5, c0)
        for x, y in ((0.1, -0.2), (-0.3, 0.25), (0.0, 0.0)):
            direct = float(mvt.big_f(cubic, 2.5 + x, c0 + y)[0])
            assert abs(float(g1(x)) - float(g2(y)) - direct) < 1e-12


class TestMeanValueImplicit:
    def test_matches_big_f(self, cubic):
        F = mvt.mean_value_implicit(cubic)
        v, fb, fc = (float(t) for t in mvt.big_f(cubic, 2.5, 0.7))
        assert tuple(float(t) for t in F(2.5, 0.7)) == (v, fb, fc)

    def test_looks_big_f_up_at_each_call(self, cubic, monkeypatch):
        # so that a wrapper put on mvt.big_f later, as a tracer does, sees F
        F = mvt.mean_value_implicit(cubic)
        calls = []
        big_f = mvt.big_f
        monkeypatch.setattr(mvt, "big_f", lambda *args: calls.append(args) or big_f(*args))
        F(2.5, 0.7)
        assert calls == [(cubic, 2.5, 0.7)]


@settings(max_examples=500, deadline=None)
@given(value=st.one_of(st.floats(-1e300, 1e300), st.just(math.nan)),
       slope=st.floats(-1e300, 1e300), fpc=st.floats(-1e300, 1e300),
       tol=st.sampled_from([1e-10, 1e-8, 0.5]))
@example(value=1e-10, slope=0.25, fpc=0.25, tol=1e-10)  # at the floor of 1
@example(value=2e-10, slope=1.0, fpc=1.0, tol=1e-10)  # at the scaled bound
def test_residual_rule_is_its_max_form(value, slope, fpc, tol):
    # _residual_ok writes max(1, s) as an or of its two cases; it must judge
    # as the rule reads, on floats and on arrays
    want = bool(abs(value) <= tol * max(1.0, abs(slope) + abs(fpc)))
    assert mvt._residual_ok(value, slope, fpc, tol) is want
    got = mvt._residual_ok(np.array([value]), np.array([slope]), np.array([fpc]), tol)
    assert got.tolist() == [want]

"""Classification of solution points and the normal-form coordinates."""

import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mvabscissa as mva
from mvabscissa import classify, expr, mvt
from mvabscissa.errors import (DegenerateProblem, DomainError, NotASolution,
                               OutsideNeighborhood)

from conftest import (cubic_upper, poly_abscissae, poly_derivative, poly_text, poly_value,
                      x_fourth_branch)


class TestClassifyPoint:
    def test_parabola_is_regular(self, parabola):
        r = classify.classify_point(parabola, 2.0, 1.0)
        assert r.case == classify.Case.REGULAR_C
        assert r.k == 1
        assert abs(r.f_pp_c0 - (-2.0)) < 1e-12
        assert r.b_branch_exists

    def test_quartic_power_is_unique_odd(self, x_fourth):
        r = classify.classify_point(x_fourth, 1.0, 0.0)
        assert r.case == classify.Case.UNIQUE_ODD
        assert (r.k, r.l) == (3, 1)
        assert abs(r.alpha0 - 2.0) < 1e-12
        assert abs(r.beta0 - 4.0) < 1e-12

    def test_same_sign_quintic_is_two_branches(self, quintic_same_sign):
        r = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        assert r.case == classify.Case.TWO_BRANCHES
        assert (r.k, r.l) == (2, 2)
        assert abs(r.alpha0 - 16.0 / 15.0) < 1e-9
        assert abs(r.beta0 - 0.8) < 1e-9
        assert r.sigma1 * r.sigma2 == 1

    def test_opposite_sign_sextic_is_isolated(self, sextic_opposite):
        r = classify.classify_point(sextic_opposite, 3.0, 1.0)
        assert r.case == classify.Case.ISOLATED
        assert (r.k, r.l) == (2, 2)
        assert abs(r.alpha0 - (-0.8)) < 1e-9
        assert abs(r.beta0 - 0.4) < 1e-9
        assert r.sigma1 * r.sigma2 == -1

    def test_inflection_quartic_keeps_b_branch(self, quartic_inflection):
        r = classify.classify_point(quartic_inflection, 3.0, 1.0)
        assert r.case == classify.Case.REGULAR_B_ONLY
        assert (r.k, r.l) == (2, 1)
        assert abs(r.f_pp_c0) < 1e-9
        assert r.b_branch_exists

    def test_sextic_with_double_roots_is_one_sided(self):
        # f' = (x-1)^2 (x-3)^2 (x-3/4) and f(3) = f(0) = 0, so F(3, 1) = 0;
        # g2 starts y^2 (1-3)^2 (1-3/4) = y^2, and g1 = f(3+x) / (3+x) starts
        # 18 x^3 / (3! * 3) = x^3, f having third derivative 18 at 3
        p = mva.Problem(mva.parse("-27/4*x + 27/2*x^2 - 27/2*x^3 + 7*x^4"
                                  " - 7/4*x^5 + x^6/6"), 0.0, 3.0)
        r = classify.classify_point(p, 3.0, 1.0)
        assert r.case == classify.Case.ONE_SIDED
        assert (r.k, r.l) == (2, 3)
        assert abs(r.alpha0 - 1.0) < 1e-9
        assert abs(r.beta0 - 1.0) < 1e-9
        assert not r.b_branch_exists

    def test_linear_function_is_degenerate(self):
        # F vanishes identically, so neither g1 nor g2 has a nonzero term
        p = mva.Problem(mva.parse("2*x + 1"), 0.0, 1.0)
        r = classify.classify_point(p, 1.0, 0.5)
        assert r.case == classify.Case.DEGENERATE
        assert (r.k, r.l) == (0, 0)

    def test_non_solution_is_rejected(self, parabola):
        with pytest.raises(NotASolution):
            classify.classify_point(parabola, 2.0, 0.7)

    def test_residual_is_judged_at_its_scale(self):
        # the point mvt.solution_point accepts, by the same rule
        s = 1e5
        p = mva.Problem(mva.parse("x^3"), 0.0, s)
        r = classify.classify_point(p, s, s / math.sqrt(3.0))
        assert r.case == classify.Case.REGULAR_C
        assert abs(r.value) == mvt.solution_point(p, s, s / math.sqrt(3.0)).residual
        with pytest.raises(NotASolution):
            classify.classify_point(p, s, s / math.sqrt(3.0) * (1 + 1e-7))

    @pytest.mark.parametrize("kmax", [0, -3, expr.MAX_JET_ORDER, 1000])
    def test_kmax_out_of_range_is_refused(self, quintic_same_sign, kmax):
        # 0 once gave a DEGENERATE report though no order was examined, and
        # 32 raised OrderOverflow: f' to order kmax needs f's jet to kmax + 1
        with pytest.raises(ValueError, match=f"kmax must be in 1..31, got {kmax}"):
            classify.classify_point(quintic_same_sign, 3.0, 1.0, kmax=kmax)
        with pytest.raises(ValueError, match=f"kmax must be in 1..31, got {kmax}"):
            classify.find_extremal_abscissa(mvt.normalize(quintic_same_sign), kmax=kmax)

    def test_kmax_at_the_ends_of_its_range(self, quintic_same_sign):
        # at kmax 1 the order-2 terms are not read
        r = classify.classify_point(quintic_same_sign, 3.0, 1.0, kmax=1)
        assert (r.case, r.k, r.l) == (classify.Case.DEGENERATE, 0, 0)
        r = classify.classify_point(quintic_same_sign, 3.0, 1.0, kmax=expr.MAX_JET_ORDER - 1)
        assert (r.case, r.k, r.l) == (classify.Case.TWO_BRANCHES, 2, 2)
        _, k = classify.find_extremal_abscissa(mvt.normalize(quintic_same_sign), kmax=1)
        assert k == 1

    def test_non_finite_point_is_rejected(self, parabola):
        for b, c in ((2.0, math.nan), (math.inf, 1.0), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                classify.classify_point(parabola, b, c)

    def test_json_fields(self, x_fourth):
        r = classify.classify_point(x_fourth, 1.0, 0.0)
        d = json.loads(r.to_json())
        assert sorted(d) == ["alpha0", "beta0", "case", "k", "l",
                             "sigma1", "sigma2"]
        assert d["case"] == "UNIQUE_ODD"

    def test_k_equals_order_of_derivative_vanishing(self):
        """r.k is the first nonzero Taylor index of f'(c0 + t) - f'(c0)."""
        corpus = [
            ("conftest-parabola", "-x^2 + 2*x", 0.0, 2.0, 2.0, 1.0),
            ("x4", "x^4", -1.0, 1.0, 1.0, 0.0),
            ("quintic", "x^5/5 - 1.6*x^4 + (14/3)*x^3 - 6.4*x^2 + 4.2*x",
             0.0, 3.0, 3.0, 1.0),
        ]
        for _, text, a0, b0, bb, cc in corpus:
            p = mva.Problem(mva.parse(text), a0, b0)
            r = classify.classify_point(p, bb, cc)
            jet = expr.jet_eval(p.f, cc, r.k + 2)
            # independent check: derivative coefficients from the value jet
            dcoef = [(j + 1) * float(jet[j + 1]) for j in range(r.k + 1)]
            first = next(j for j in range(1, len(dcoef))
                         if abs(dcoef[j]) > 1e-9)
            assert first == r.k


class TestMorseCoordinates:
    def _identity_error(self, p, b0, c0, report, shrink=0.5, n=50):
        chart = classify.morse_coordinates(p, b0, c0, report)
        g1, g2 = mvt.g1_g2(p, b0, c0)
        xs = np.linspace(-shrink * chart.window_x, shrink * chart.window_x, n)
        ys = np.linspace(-shrink * chart.window_y, shrink * chart.window_y, n)
        X, Y = np.meshgrid(xs, ys)
        lhs = (report.sigma1 * chart.u(X) ** report.l
               - report.sigma2 * chart.v(Y) ** report.k)
        rhs = np.asarray(g1(X), dtype=float) - np.asarray(g2(Y), dtype=float)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        return float(np.max(np.abs(lhs - rhs))) / scale

    def test_identity_on_quintic(self, quintic_same_sign):
        r = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        assert self._identity_error(quintic_same_sign, 3.0, 1.0, r) <= 1e-10

    def test_identity_on_sextic(self, sextic_opposite):
        r = classify.classify_point(sextic_opposite, 3.0, 1.0)
        assert self._identity_error(sextic_opposite, 3.0, 1.0, r) <= 1e-10

    def test_identity_on_x_fourth(self, x_fourth):
        r = classify.classify_point(x_fourth, 1.0, 0.0)
        assert self._identity_error(x_fourth, 1.0, 0.0, r) <= 1e-10

    def test_pure_quartic_chart_is_linear(self, x_fourth):
        # g2(y) = 4y^3, so v(y) = 4^(1/3) * y exactly
        r = classify.classify_point(x_fourth, 1.0, 0.0)
        chart = classify.morse_coordinates(x_fourth, 1.0, 0.0, r)
        for y in (-0.3, -0.01, 0.02, 0.4):
            assert abs(float(chart.v(y)) - 4.0 ** (1.0 / 3.0) * y) < 1e-12

    def test_chart_inverses(self, quintic_same_sign):
        r = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        chart = classify.morse_coordinates(quintic_same_sign, 3.0, 1.0, r)
        for x in (-0.2 * chart.window_x, 0.3 * chart.window_x):
            assert abs(chart.x_of_u(float(chart.u(x))) - x) < 1e-10
        for y in (-0.4 * chart.window_y, 0.25 * chart.window_y):
            assert abs(chart.y_of_v(float(chart.v(y))) - y) < 1e-10

    def test_sextic_chart_inverts_across_its_whole_window(self, sextic_opposite):
        # u and v must be monotone on the window, or inversion brackets no root
        r = classify.classify_point(sextic_opposite, 3.0, 1.0)
        chart = classify.morse_coordinates(sextic_opposite, 3.0, 1.0, r)
        for x in np.linspace(-chart.window_x, chart.window_x, 201):
            assert abs(chart.x_of_u(float(chart.u(x))) - x) <= 1e-10
        for y in np.linspace(-chart.window_y, chart.window_y, 201):
            assert abs(chart.y_of_v(float(chart.v(y))) - y) <= 1e-10

    def test_zero_inverts_to_zero(self, quartic_inflection, quintic_same_sign,
                                  sextic_opposite, x_fourth):
        for p, b0, c0 in ((quartic_inflection, 3.0, 1.0), (quintic_same_sign, 3.0, 1.0),
                          (sextic_opposite, 3.0, 1.0), (x_fourth, 1.0, 0.0)):
            r = classify.classify_point(p, b0, c0)
            chart = classify.morse_coordinates(p, b0, c0, r)
            assert chart.x_of_u(0.0) == 0.0
            assert chart.y_of_v(0.0) == 0.0

    def test_inversions_match_a_ratio_computed_both_ways_everywhere(
            self, quartic_inflection, quintic_same_sign, sextic_opposite, x_fourth,
            monkeypatch):
        """x_of_u and y_of_v bit for bit against a chart whose coordinates
        evaluate the Horner tail and the quotient, each with its derivative,
        at every point where each is defined, and then take the one the
        cutoff picks."""

        def coordinate_everywhere(chart, t, slope, series, n, sign, g, terms):
            one = isinstance(t, float)
            t = t if one else np.asarray(t, dtype=float)
            small = abs(t) < chart._SERIES_CUTOFF
            pick = (lambda a, b: a if small else b) if one else partial(np.where, small)
            h, dh = 0.0, 0.0
            for coef in reversed(series[n:]):
                h, dh = h * t + coef, dh * t + h
            q, dq = sign * h, sign * dh
            if not one or t != 0.0:  # the quotient is 0/0 at 0
                gt, dg = terms(t) if slope else (g(t), math.nan)
                with np.errstate(divide="ignore", invalid="ignore"):
                    tn = t ** n
                    q = pick(q, sign * (gt / tn))
                    dq = pick(dq, sign * (dg - n * gt / t) / tn)
            if np.any(q <= 0):
                raise OutsideNeighborhood("not positive")
            r = q ** (1.0 / n)
            return t * r, r + t * r * dq / (n * q) if slope else None

        def inversions(chart):
            out = []
            for fwd, inv, w in ((chart.u, chart.x_of_u, chart.window_x),
                                (chart.v, chart.y_of_v, chart.window_y)):
                # both sides of the cutoff 1e-4, where the Horner tail takes over
                xs = np.concatenate([np.linspace(-0.99, 0.99, 25) * w,
                                     [-2e-4, -1e-4, -3e-5, 0.0, 3e-5, 1e-4, 2e-4]])
                out += [fwd(xs), [inv(float(fwd(float(x)))) for x in xs]]
            return np.concatenate(out)

        for p, b0, c0 in ((quartic_inflection, 3.0, 1.0), (quintic_same_sign, 3.0, 1.0),
                          (sextic_opposite, 3.0, 1.0), (x_fourth, 1.0, 0.0)):
            r = classify.classify_point(p, b0, c0)
            chart = classify.morse_coordinates(p, b0, c0, r)
            got = inversions(chart)
            with monkeypatch.context() as m:
                m.setattr(classify.MorseChart, "_coordinate", coordinate_everywhere)
                old = classify.morse_coordinates(p, b0, c0, r)
                want = inversions(old)
            assert (chart.window_x, chart.window_y) == (old.window_x, old.window_y)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("kmax", [2, 16, 24, 31])
    def test_chart_at_every_kmax_classify_accepts(self, quintic_same_sign, kmax):
        # at kmax 24-31 the chart once asked for f's jet of order 33; the
        # chart reads the orders of the report, which kmax does not change
        p = quintic_same_sign
        r = classify.classify_point(p, 3.0, 1.0, kmax=kmax)
        assert r == classify.classify_point(p, 3.0, 1.0)
        chart = classify.morse_coordinates(p, 3.0, 1.0, r)
        assert (len(chart._s1), len(chart._s2)) == (r.l + 9, r.k + 9)
        default = classify.morse_coordinates(p, 3.0, 1.0, classify.classify_point(p, 3.0, 1.0))
        assert (chart.window_x, chart.window_y) == (default.window_x, default.window_y)
        xs = np.linspace(-1.0, 1.0, 101)
        assert np.array_equal(chart.u(xs * chart.window_x), default.u(xs * chart.window_x))
        assert np.array_equal(chart.v(xs * chart.window_y), default.v(xs * chart.window_y))

    def test_chart_matches_one_built_from_series_of_order_24(
            self, quartic_inflection, quintic_same_sign, sextic_opposite, x_fourth,
            monkeypatch):
        """The chart reads g1's series to order l + 8 and g2's to k + 8 from
        the report; a chart built from a report without them, whose series
        run to order 24, as they once did, gives the same windows,
        coordinates and inversions bit for bit."""
        g1_g2 = mvt.g1_g2

        def g1_g2_of_order_24(p, b0, c0):
            g1, g2 = g1_g2(p, b0, c0)
            for g in (g1, g2):
                g.series = lambda order, series=g.series: series(24)
            return g1, g2

        def samples(chart):
            out = []
            for fwd, inv, w in ((chart.u, chart.x_of_u, chart.window_x),
                                (chart.v, chart.y_of_v, chart.window_y)):
                # the Horner tail on a dense grid below the cutoff 1e-4, then
                # the whole window, and inversions on both
                near = np.linspace(-1e-4, 1e-4, 20001)
                across = np.linspace(-1.0, 1.0, 401) * w
                xs = np.concatenate([near[::500], across[::10]])
                out += [fwd(near), fwd(across), [inv(float(fwd(float(x)))) for x in xs]]
            return np.concatenate(out)

        exp_cubic = mva.Problem(mva.parse("exp(x) - x^3"), -1.0, 4.734582395767517)
        for p, b0, c0 in ((quartic_inflection, 3.0, 1.0), (quintic_same_sign, 3.0, 1.0),
                          (sextic_opposite, 3.0, 1.0), (x_fourth, 1.0, 0.0),
                          (exp_cubic, 4.734582395767517, 0.20448144933991552)):
            r = classify.classify_point(p, b0, c0)
            chart = classify.morse_coordinates(p, b0, c0, r)
            assert (len(chart._s1), len(chart._s2)) == (r.l + 9, r.k + 9)
            got = samples(chart)
            with monkeypatch.context() as m:
                m.setattr(mvt, "g1_g2", g1_g2_of_order_24)
                wide = classify.morse_coordinates(p, b0, c0, replace(r, series=((), ())))
                assert len(wide._s1) == len(wide._s2) == 25
                want = samples(wide)
            assert (chart.window_x, chart.window_y) == (wide.window_x, wide.window_y)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def _corpus(quartic_inflection, quintic_same_sign, sextic_opposite, x_fourth):
        return ((quartic_inflection, 3.0, 1.0), (quintic_same_sign, 3.0, 1.0),
                (sextic_opposite, 3.0, 1.0), (x_fourth, 1.0, 0.0))

    def test_inversions_take_few_evaluations(
            self, quartic_inflection, quintic_same_sign, sextic_opposite, x_fourth,
            monkeypatch):
        # Newton steps on the coordinate's slope; bisection took 53-55
        bisect_one, counts = mvt._bisect_one, []

        def counting(fn, *args):
            def counted(x):
                counts[-1] += 1
                return fn(x)
            return bisect_one(counted, *args)

        for p, b0, c0 in self._corpus(quartic_inflection, quintic_same_sign,
                                      sextic_opposite, x_fourth):
            chart = classify.morse_coordinates(p, b0, c0, classify.classify_point(p, b0, c0))
            for fwd, inv, w in ((chart.u, chart.x_of_u, chart.window_x),
                                (chart.v, chart.y_of_v, chart.window_y)):
                targets = [float(fwd(float(x))) for x in np.linspace(-w, w, 201)]
                start = len(counts)
                with monkeypatch.context() as m:
                    m.setattr(mvt, "_bisect_one", counting)
                    for target in targets:
                        counts.append(0)
                        inv(target)
                assert np.median(counts[start:]) <= 15, (p.expression, w)

    def test_a_window_end_inverts_to_itself_without_steps(
            self, quartic_inflection, quintic_same_sign, sextic_opposite, x_fourth,
            monkeypatch):
        # the inversion has the ends' values before its first step; x^4's
        # u(window) took 50 evaluations, and missed the end by 8.9e-16 * window
        def no_steps(*args):
            raise AssertionError("a window end was inverted by steps")

        for p, b0, c0 in self._corpus(quartic_inflection, quintic_same_sign,
                                      sextic_opposite, x_fourth):
            chart = classify.morse_coordinates(p, b0, c0, classify.classify_point(p, b0, c0))
            with monkeypatch.context() as m:
                m.setattr(mvt, "_bisect_one", no_steps)
                for fwd, inv, w in ((chart.u, chart.x_of_u, chart.window_x),
                                    (chart.v, chart.y_of_v, chart.window_y)):
                    for end in (-w, w):
                        assert inv(float(fwd(end))) == end

    def test_slopes_match_central_differences(
            self, quartic_inflection, quintic_same_sign, sextic_opposite, x_fourth):
        exp_cubic = mva.Problem(mva.parse("exp(x) - x^3"), -1.0, 4.734582395767517)
        for p, b0, c0 in self._corpus(quartic_inflection, quintic_same_sign,
                                      sextic_opposite, x_fourth) + (
                (exp_cubic, 4.734582395767517, 0.20448144933991552),):
            chart = classify.morse_coordinates(p, b0, c0, classify.classify_point(p, b0, c0))
            for coordinate, w in ((chart._u, chart.window_x), (chart._v, chart.window_y)):
                # both sides of the cutoff 1e-4, and 0
                ts = np.concatenate([np.linspace(-0.9, 0.9, 19) * w, [-2e-4, -5e-5, 0.0, 3e-4]])
                # a step of 1e-3 windows: a shorter one meets u's rounding
                # near the cutoff, where g / t^l cancels
                h = 1e-3 * w
                diff = (coordinate(ts + h, False)[0] - coordinate(ts - h, False)[0]) / (2 * h)
                value, slope = coordinate(ts, True)
                assert np.allclose(slope, diff, rtol=1e-4, atol=0.0), p.expression
                # a float takes the array's value and slope, up to rounding
                one = np.array([coordinate(float(t), True) for t in ts])
                assert np.allclose(one, np.column_stack([value, slope]), rtol=1e-12, atol=0.0)
                assert coordinate(ts, False)[1] is None

    def test_a_step_without_a_slope_bisects(self, quintic_same_sign, monkeypatch):
        # where f'' is not finite, g2's terms raise and v's slope is NaN
        p = quintic_same_sign
        r = classify.classify_point(p, 3.0, 1.0)
        chart = classify.morse_coordinates(p, 3.0, 1.0, r)
        c_terms = mvt._c_terms

        def no_f_pp_above_c0(p):
            terms = c_terms(p)

            def checked(c):
                if np.any(np.asarray(c) > 1.0):
                    raise DomainError("f'' is not finite")
                return terms(c)
            return checked

        monkeypatch.setattr(mvt, "_c_terms", no_f_pp_above_c0)
        bare = classify.morse_coordinates(p, 3.0, 1.0, r)
        assert (bare.window_x, bare.window_y) == (chart.window_x, chart.window_y)
        for y in np.linspace(-1.0, 1.0, 21) * chart.window_y:
            assert abs(bare.y_of_v(float(chart.v(float(y)))) - y) <= 1e-10 * chart.window_y
            assert math.isnan(bare._v(float(y), True)[1]) == (y > 1e-4)

    def test_report_keeps_series_outside_its_equality(self, quintic_same_sign):
        p = quintic_same_sign
        r = classify.classify_point(p, 3.0, 1.0, kmax=12)
        g1, g2 = mvt.g1_g2(p, 3.0, 1.0)
        assert r.series == (g1.series(12), g2.series(12))
        bare = replace(r, series=((), ()))
        assert bare == r and hash(bare) == hash(r) and repr(bare) == repr(r)
        assert "series" not in repr(r) and bare.to_json() == r.to_json()

    def test_chart_reads_the_series_the_report_kept(self, quintic_same_sign, monkeypatch):
        # the chart runs no series of its own where the report kept them to
        # order l + 8 and k + 8, and both of its own where it did not
        p, calls = quintic_same_sign, []
        jet_eval = expr.jet_eval

        def counted(*args):
            calls.append(args)
            return jet_eval(*args)

        monkeypatch.setattr(expr, "jet_eval", counted)
        for kmax, runs in ((16, 0), (9, 2)):
            r = classify.classify_point(p, 3.0, 1.0, kmax=kmax)
            del calls[:]
            classify.morse_coordinates(p, 3.0, 1.0, r)
            assert len(calls) == runs, kmax

    def test_no_chart_for_regular_points(self, parabola):
        r = classify.classify_point(parabola, 2.0, 1.0)
        with pytest.raises(ValueError):
            classify.morse_coordinates(parabola, 2.0, 1.0, r)

    def test_inversion_target_outside_window(self, quintic_same_sign):
        r = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        chart = classify.morse_coordinates(quintic_same_sign, 3.0, 1.0, r)
        with pytest.raises(OutsideNeighborhood):
            chart.x_of_u(1e6)


class TestFindExtremalAbscissa:
    def test_parabola_vertex(self, parabola):
        c0, k = classify.find_extremal_abscissa(mvt.normalize(parabola))
        assert abs(c0 - 1.0) <= 1e-10
        assert k == 1

    def test_pure_quartic_flat_extremum(self, x_fourth):
        c0, k = classify.find_extremal_abscissa(mvt.normalize(x_fourth))
        assert abs(c0) <= 1e-7
        assert k == 3

    def test_cubic_interior_minimum(self, cubic):
        c0, k = classify.find_extremal_abscissa(mvt.normalize(cubic))
        assert abs(c0 - 2.0) <= 1e-10
        assert k == 1

    def test_too_coarse_a_grid_is_refused(self, monkeypatch):
        # normalized, g = sin(4x) - x sin(12) / 3; on 4 cells of [0, 3] its
        # largest grid value is at 2.25, but g' = 4 cos(4x) - sin(12) / 3 is
        # positive at both neighbours, 1.5 and 3
        monkeypatch.setattr(classify, "_EXTREMUM_GRID", 4)
        p = mvt.normalize(mva.Problem(mva.parse("sin(4*x)"), 0.0, 3.0))
        with pytest.raises(DegenerateProblem, match="a grid of 4 cells is too coarse"):
            classify.find_extremal_abscissa(p)

    @pytest.mark.parametrize("text", ["sin(x)^2 + cos(x)^2", "exp(log(x+2))"])
    def test_affine_up_to_rounding_names_both_causes(self, text):
        # f is affine, so normalized g is rounding noise: no grid can find
        # a sign change of f', and the refusal says so beside the grid
        p = mvt.normalize(mva.Problem(mva.parse(text), 0.0, 1.0))
        with pytest.raises(DegenerateProblem,
                           match="4096 cells is too coarse for f, or f is affine up to rounding"):
            classify.find_extremal_abscissa(p)

    def test_identically_zero_g_is_degenerate(self):
        p = mvt.normalize(mva.Problem(mva.parse("x"), 0.0, 1.0))
        with pytest.raises(DegenerateProblem, match="g vanishes identically"):
            classify.find_extremal_abscissa(p)

    def test_extremum_flatter_than_kmax_is_degenerate(self):
        # f' = 4 (x - 0.5)^3 vanishes to order 3 at the minimum 0.5
        p = mvt.normalize(mva.Problem(mva.parse("(x-0.5)^4"), 0.0, 1.0))
        with pytest.raises(DegenerateProblem, match=r"f' vanishes to order > 2 at"):
            classify.find_extremal_abscissa(p, kmax=2)

    def test_returned_order_is_odd(self, parabola, cubic, x_fourth,
                                   quintic_same_sign):
        for p in (parabola, cubic, x_fourth, quintic_same_sign):
            _, k = classify.find_extremal_abscissa(mvt.normalize(p))
            assert k % 2 == 1

    @settings(max_examples=100, deadline=None)
    @given(coeffs=st.integers(2, 6).flatmap(lambda n: st.tuples(
               st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
               st.floats(0.01, 2.0) | st.floats(-2.0, -0.01))),
           a0=st.floats(-1.0, 1.0), width=st.floats(0.5, 3.0))
    def test_extremum_is_the_root_of_largest_g(self, coeffs, a0, width):
        # c0 is the root of f' - S(b0) in (a0, b0), by numpy.roots, where
        # |g|, g = f less the secant by numpy.polyval, is largest, within
        # the root's bound from poly_abscissae; the root is simple, at least
        # 4 grid cells from the others, and its |g| leads the next by more
        # than |g''| h^2, above what the grid's node nearest a root can lose.
        # The leading coefficient is at least 0.01, where numpy.roots stays
        # finite.
        coeffs, b0 = [*coeffs[0], coeffs[1]], a0 + width
        roots, bounds = poly_abscissae(coeffs, a0, b0)
        assume(roots.size and np.all(np.diff(roots) > 4 * width / classify._EXTREMUM_GRID))
        c = coeffs[::-1]
        fa = np.polyval(c, a0)
        s = (np.polyval(c, b0) - fa) / width
        g = np.abs(np.polyval(c, roots) - (s * (roots - a0) + fa))
        top = int(np.argmax(g))
        r, h = float(roots[top]), width / classify._EXTREMUM_GRID
        d2 = poly_derivative(coeffs, 2)
        lead = g[top] - np.max(np.delete(g, top), initial=0.0)
        assume(bounds[top] <= 1e-9 * width and g[top] >= 1e-6
               and lead > abs(poly_value(d2, r)) * h * h)
        p = mva.Problem(mva.parse(poly_text(coeffs)), a0, b0)
        c0, k = classify.find_extremal_abscissa(p)
        assert abs(c0 - r) <= bounds[top]
        assert k % 2 == 1
        # normalized, S(b0) of g is a rounding rather than 0, which moves c0
        # by the rounding of g' over g'': some ulps, more where f'' is small
        cn, kn = classify.find_extremal_abscissa(mvt.normalize(p))
        assert kn == k
        assert abs(cn - r) <= bounds[top]

    def test_any_problem_is_taken_as_given(self, parabola, cubic, x_fourth,
                                           quintic_same_sign):
        # the Rolle function is formed inside, so the problem and its
        # normalized copy give the same c0 and k, bit for bit, on the corpus
        for p in (parabola, cubic, x_fourth, quintic_same_sign):
            got = classify.find_extremal_abscissa(p)
            assert got == classify.find_extremal_abscissa(mvt.normalize(p))


def scalar_bisection_branch(p, b0, c0, b_range, step, tol=mvt.DEFAULT_TOL):
    """Reference for a UNIQUE_ODD seed: a march from the seed that bisects
    each root of F(b, .) near the last, one bracket at a time with one
    scalar F call per bisection step.
    Returns the (b, c, residual) of every point."""

    def f_of(b, c):
        return float(mvt.big_f(p, b, c)[0])

    def correct(b, c_prev, w):
        # the sign change of F(b, .) nearest c_prev, on a widening grid
        for _ in range(60):
            lo, hi = max(p.a0, c_prev - w), min(b, c_prev + w)
            if hi <= lo:
                return None
            grid = np.linspace(lo, hi, 65)
            fv = np.asarray(mvt.big_f(p, b, grid)[0], dtype=float)
            sc = np.nonzero(fv[:-1] * fv[1:] <= 0)[0]
            if sc.size:
                i = int(sc[np.argmin(np.abs(0.5 * (grid[sc] + grid[sc + 1]) - c_prev))])
                lo, hi, flo = float(grid[i]), float(grid[i + 1]), float(fv[i])
                width = 1e-16 * max(1.0, abs(lo), abs(hi))
                while hi - lo > width:
                    mid = 0.5 * (lo + hi)
                    fm = f_of(b, mid)
                    if fm == 0.0:
                        lo = hi = mid
                    elif (fm > 0) == (flo > 0):
                        if mid == lo:
                            break
                        lo, flo = mid, fm
                    else:
                        if mid == hi:
                            break
                        hi = mid
                c = 0.5 * (lo + hi)
                return c if abs(f_of(b, c)) <= tol else None
            if lo == p.a0 and hi == b:
                return None
            w *= 2.0
        return None

    def march(direction, limit):
        points, b, c, dc = [], b0, c0, 0.0
        while (limit - b) * direction > 1e-12 * max(1.0, abs(limit)):
            h = min(step, (limit - b) * direction)
            for h in (h, 0.5 * h):
                b_next = b + direction * h
                if not p.a0 < b_next <= p.domain[1]:
                    return points
                c_next = correct(b_next, c, max(4.0 * abs(dc), h, 1e-6 * (b0 - p.a0), 1e-12))
                if c_next is not None:
                    break
            else:
                return points
            if not p.a0 < c_next < b_next:
                return points
            points.append((b_next, c_next, abs(f_of(b_next, c_next))))
            b, c, dc = b_next, c_next, c_next - c
        return points

    down, up = march(-1, b_range[0]), march(+1, b_range[1])
    return down[::-1] + [(b0, c0, abs(f_of(b0, c0)))] + up


class TestGuaranteedBranch:
    def test_a_tiny_cubic(self):
        # g = x^3 - 1e-12 x on [0, 1e-6] is of size 4e-19, and not
        # degenerate; c0, and the branch through it, are as close as the
        # absolute width 1e-16 to which c0 is bisected
        s = 1e-6
        c0, branch = classify.guaranteed_branch(mva.Problem(mva.parse("x^3"), 0.0, s))
        assert abs(c0 - s / math.sqrt(3.0)) <= 1e-16
        assert branch.stop_lower == branch.stop_upper == "range exhausted"
        assert len(branch.points) == 41
        for q in branch.points:
            assert abs(q.c - q.b / math.sqrt(3.0)) <= 1e-16

    def test_parabola(self, parabola):
        c0, branch = classify.guaranteed_branch(parabola)
        assert abs(c0 - 1.0) <= 1e-10
        for q in branch.points:
            assert abs(q.c - q.b / 2.0) <= 1e-8

    def test_cubic(self, cubic):
        c0, branch = classify.guaranteed_branch(cubic)
        assert abs(c0 - 2.0) <= 1e-10
        for q in branch.points:
            assert abs(q.c - cubic_upper(q.b)) <= 1e-8

    def test_shifted_quartic_matches_scalar_reference(self):
        # c stays near 2, where brackets end on adjacent floats wider apart
        # than the stopping width 1e-16 * max(1, |lo|, |hi|)
        p = mva.Problem(mva.parse("(x-2)^4"), 1.0, 3.0)
        c0, branch = classify.guaranteed_branch(p, b_range=(2.6, 3.4), step=0.02)
        assert branch.seed_case == "UNIQUE_ODD"
        assert abs(c0 - 2.0) <= 1e-7
        pn = mvt.normalize(p)
        want = scalar_bisection_branch(pn, 3.0, c0, (2.6, 3.4), 0.02)
        assert len(want) == 41
        # the reference bisects each root to adjacent floats; the branch's
        # Newton steps end within one spacing of it, and of the closed form
        # c = 2 + cbrt(S(b) / 4) for the normalized (x-2)^4 - 1 on [1, b]
        assert [q.b for q in branch.points] == [b for b, _, _ in want]
        for q, (_, c, _) in zip(branch.points, want):
            s = ((q.b - 2.0) ** 4 - 1.0) / (q.b - 1.0)
            assert abs(q.c - c) <= np.spacing(c)
            assert abs(q.c - (2.0 + math.copysign(abs(s / 4.0) ** (1 / 3), s))) <= np.spacing(c)
            assert q.residual <= mvt.DEFAULT_TOL

    @pytest.mark.parametrize("s", [1.0, 1e3, 1e5, 1e6])
    def test_cubic_power_at_every_scale(self, s):
        # x^3 on [0, s], normalized: the extremum is c0 = s / sqrt(3), and
        # the branch c = b / sqrt(3) is walked over [0.8 s, 1.2 s] in steps
        # of s / 100
        c0, branch = classify.guaranteed_branch(mva.Problem(mva.parse("x^3"), 0.0, s))
        assert abs(c0 - s / math.sqrt(3.0)) <= 1e-12 * s
        assert len(branch.points) == 41
        assert (branch.stop_lower, branch.stop_upper) == ("range exhausted",) * 2

    @pytest.mark.parametrize("k", ["1e8", "1e20", "1e160"])
    def test_a_scaled_sine_keeps_its_branch(self, k):
        # F of k sin(x) is k times that of sin(x); traced on f itself, the
        # seed's residual is judged at the scale k of the terms of F, and
        # the signs of g' bracket c0 where their product would overflow
        want, _ = classify.guaranteed_branch(mva.Problem(mva.parse("sin(x)"), 0.0, 3.0))
        c0, branch = classify.guaranteed_branch(mva.Problem(mva.parse(f"{k}*sin(x)"), 0.0, 3.0))
        assert c0 == want
        assert len(branch.points) == 41
        assert (branch.stop_lower, branch.stop_upper) == ("range exhausted",) * 2

    @pytest.mark.parametrize("step", [-0.01, 0.0, math.nan, math.inf])
    def test_bad_step_is_refused(self, x_fourth, step):
        # a step of -0.01 once walked b from -0.99 to 3.0, outside b_range
        with pytest.raises(ValueError, match="step must be positive and finite"):
            classify.guaranteed_branch(x_fourth, (0.8, 1.2), step=step)

    def test_pure_quartic(self, x_fourth):
        c0, branch = classify.guaranteed_branch(x_fourth, b_range=(0.8, 1.2))
        assert abs(c0) <= 1e-7
        assert len(branch.points) > 10
        for q in branch.points:
            assert abs(q.c - x_fourth_branch(q.b)) <= 1e-7

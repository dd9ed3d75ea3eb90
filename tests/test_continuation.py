"""Branch tracing: predictor-corrector marches and post-degeneracy seeds."""

import collections
import math

import numpy as np
import pytest

import mvabscissa as mva
from mvabscissa import classify, continuation, expr, mvt
from mvabscissa.errors import NotASolution, SeedNotRegular, SeedSearchFailed

from conftest import CUBIC, cubic_lower, cubic_upper


class TestTraceCOfB:
    def test_parabola_half_line(self, parabola):
        br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (0.5, 3.5), step=0.01)
        assert br.seed_case == "REGULAR_C"
        assert max(abs(q.c - q.b / 2.0) for q in br.points) <= 1e-8
        assert br.points[0].b <= 0.5 + 1e-9
        assert br.points[-1].b >= 3.5 - 1e-9

    def test_a_step_below_the_float_spacing_stops_the_walk(self):
        # 1.0 + 1e-17 == 1.0, so the step leaves b where it is; the walk
        # used to take it 100001 times each way, each time a copy of the seed
        p = mva.Problem(mva.parse("x^2"), 0, 1)
        br = continuation.trace_c_of_b(p, 1.0, 0.5, (0.5, 1.5), step=1e-17)
        assert [(q.b, q.c) for q in br.points] == [(1.0, 0.5)]
        assert br.stop_lower == br.stop_upper == continuation.STOP_STALLED

    def test_walk_stops_at_the_domain_edge(self, parabola):
        # below b = a0 = 0 there is no interval [a0, b], whatever b_range says
        br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (-1.0, 3.0))
        assert br.stop_lower == continuation.STOP_DOMAIN
        assert br.stop_upper == continuation.STOP_RANGE
        assert 0.0 < br.points[0].b <= 0.02 + 1e-12
        assert br.points[-1].b >= 3.0 - 1e-9
        assert max(abs(q.c - q.b / 2.0) for q in br.points) <= 1e-12

    def test_cubic_upper_branch(self, cubic):
        br = continuation.trace_c_of_b(cubic, 3.0, 2.0, (1.0, 3.5), step=0.01)
        for q in br.points:
            assert abs(q.c - cubic_upper(q.b)) <= 1e-8

    def test_cubic_lower_branch(self, cubic):
        c0 = (6.0 - math.sqrt(21.0)) / 6.0
        br = continuation.trace_c_of_b(cubic, 2.5, c0, (0.5, 2.5), step=0.01)
        for q in br.points:
            assert abs(q.c - cubic_lower(q.b)) <= 1e-8

    def test_b_strictly_monotone_and_residuals_small(self, cubic):
        br = continuation.trace_c_of_b(cubic, 3.0, 2.0, (1.5, 3.5), step=0.02)
        bs = [q.b for q in br.points]
        assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
        assert all(q.residual <= 1e-10 for q in br.points)

    def test_seed_index_points_at_seed(self, parabola):
        br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.0, 3.0), step=0.05)
        q = br.points[br.seed_index]
        assert (q.b, q.c) == (2.0, 1.0)

    def test_secant_identity_along_branch(self, cubic):
        br = continuation.trace_c_of_b(cubic, 3.0, 2.0, (2.0, 3.4), step=0.02)
        for q in br.points:
            assert abs(float(mvt.big_f(cubic, q.b, q.c)[0])) <= 1e-10

    def test_numerical_slope_matches_implicit_formula(self, cubic):
        br = continuation.trace_c_of_b(cubic, 3.0, 2.0, (2.0, 3.4), step=0.01)
        pts = br.points
        for i in range(1, len(pts) - 1):
            value, f_b, f_c = (float(v) for v in
                               mvt.big_f(cubic, pts[i].b, pts[i].c))
            if abs(f_c) <= 1e-3:
                continue
            fd = (pts[i + 1].c - pts[i - 1].c) / (pts[i + 1].b - pts[i - 1].b)
            assert abs(fd - (-f_b / f_c)) <= 1e-4

    def test_reversibility(self, parabola):
        fwd = continuation.trace_c_of_b(parabola, 2.0, 1.0, (2.0, 3.5), step=0.01)
        far = fwd.points[-1]
        back = continuation.trace_c_of_b(parabola, far.b, far.c, (2.0, far.b),
                                         step=0.01)
        at_seed = min(back.points, key=lambda q: abs(q.b - 2.0))
        assert abs(at_seed.b - 2.0) <= 1e-9
        assert abs(at_seed.c - 1.0) <= 1e-7

    def test_unique_odd_seed_uses_bisection(self, x_fourth):
        br = continuation.trace_c_of_b(x_fourth, 1.0, 0.0, (0.8, 1.2), step=0.01)
        assert br.seed_case == "UNIQUE_ODD"
        for q in br.points:
            t = (q.b ** 4 - 1.0) / (4.0 * (q.b + 1.0))
            want = math.copysign(abs(t) ** (1.0 / 3.0), t)
            assert abs(q.c - want) <= 1e-7

    def test_refuses_two_branch_seed(self, quintic_same_sign):
        with pytest.raises(SeedNotRegular):
            continuation.trace_c_of_b(quintic_same_sign, 3.0, 1.0, (2.5, 3.5))

    def test_refuses_inflection_seed(self, quartic_inflection):
        with pytest.raises(SeedNotRegular):
            continuation.trace_c_of_b(quartic_inflection, 3.0, 1.0, (2.5, 3.5))

    def test_seed_outside_range_rejected(self, parabola):
        with pytest.raises(ValueError):
            continuation.trace_c_of_b(parabola, 2.0, 1.0, (2.5, 3.0))

    def test_no_silent_branch_jump(self, quintic_same_sign):
        # upper branch folds where f'' vanishes; the trace must stop there
        # rather than hop to the lower branch
        rep = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        seeds = continuation.branch_seeds_after_degeneracy(
            quintic_same_sign, 3.0, 1.0, rep)
        b1, c1 = max(seeds, key=lambda s: s[1])
        br = continuation.trace_c_of_b(quintic_same_sign, b1, c1,
                                       (b1, b1 + 1.0), step=0.005)
        cs = [q.c for q in br.points]
        assert all(c > 1.0 for c in cs)
        assert max(abs(c2 - c1_) for c1_, c2 in zip(cs, cs[1:])) < 0.05
        assert br.stop_upper in (continuation.STOP_DEGENERATE,
                                 continuation.STOP_CORRECTOR)


class TestTraceBOfC:
    def test_parabola_inverse_branch(self, parabola):
        br = continuation.trace_b_of_c(parabola, 2.0, 1.0, (0.4, 1.6), step=0.01)
        assert br.parameter == "c"
        for q in br.points:
            assert abs(q.b - 2.0 * q.c) <= 1e-8

    def test_inflection_quartic_b_branch_exists(self, quartic_inflection):
        br = continuation.trace_b_of_c(quartic_inflection, 3.0, 1.0,
                                       (0.9, 1.1), step=0.002)
        assert len(br.points) > 50
        for q in br.points:
            assert abs(float(mvt.big_f(quartic_inflection, q.b, q.c)[0])) <= 1e-9

    def test_flat_seed_is_rejected(self, quintic_same_sign):
        # f'(3) = f'(1) = 0 for this quintic
        with pytest.raises(SeedNotRegular):
            continuation.trace_b_of_c(quintic_same_sign, 3.0, 1.0, (0.5, 1.5))

    def test_c_strictly_monotone(self, parabola):
        br = continuation.trace_b_of_c(parabola, 2.0, 1.0, (0.5, 1.5), step=0.05)
        cs = [q.c for q in br.points]
        assert all(c2 > c1 for c1, c2 in zip(cs, cs[1:]))

    def test_non_finite_seed_is_rejected(self, parabola):
        with pytest.raises(ValueError, match="finite"):
            continuation.trace_b_of_c(parabola, math.nan, 1.0, (0.5, 1.5))


class TestWalkInputs:
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e5, 1e6])
    def test_cubic_power_at_every_scale(self, s):
        # x^3 on [0, s]: c = b / sqrt(3).  F cancels terms of size s^2, so an
        # absolute tol stopped these walks or refused their seed once s >= 1e3
        p = mva.Problem(mva.parse("x^3"), 0.0, s)
        r3 = math.sqrt(3.0)
        br = continuation.trace_c_of_b(p, s, s / r3, (s / 2, 1.5 * s), step=s / 100)
        assert len(br.points) == 101
        assert (br.stop_lower, br.stop_upper) == (continuation.STOP_RANGE,) * 2
        assert all(abs(q.c - q.b / r3) <= 1e-15 * q.b for q in br.points)
        br = continuation.trace_b_of_c(p, s, s / r3, (s / 3, 2 * s / 3), step=s / 100)
        assert len(br.points) == 35
        assert (br.stop_lower, br.stop_upper) == (continuation.STOP_RANGE,) * 2
        assert all(abs(q.b - r3 * q.c) <= 1e-15 * q.b for q in br.points)

    @pytest.mark.parametrize("step", [-0.01, 0.0, math.nan, math.inf])
    def test_bad_step_is_refused(self, parabola, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.5, 2.5), step=step)
        with pytest.raises(ValueError, match="step must be positive and finite"):
            continuation.trace_b_of_c(parabola, 2.0, 1.0, (0.5, 1.5), step=step)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_is_refused(self, parabola, tol):
        # a tol of nan once returned the seed alone
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.5, 2.5), tol=tol)

    def test_seed_must_be_a_solution(self, parabola):
        with pytest.raises(NotASolution):
            continuation.trace_c_of_b(parabola, 2.0, 0.9, (1.5, 2.5))
        with pytest.raises(NotASolution):
            continuation.trace_b_of_c(parabola, 2.0, 0.9, (0.5, 1.5))

    def test_seed_must_be_interior(self):
        # c = -b / sqrt(3) solves F(b, c) = 0 for x^3 on [0, b], outside (0, b)
        p = mva.Problem(mva.parse("x^3"), 0.0, 1.0)
        with pytest.raises(ValueError, match="not interior"):
            continuation.trace_c_of_b(p, 1.0, -1.0 / math.sqrt(3.0), (0.5, 1.5))


class TestEvaluations:
    @pytest.fixture
    def calls(self, monkeypatch):
        """(name, point) of every evaluation of the terms of F that need only
        b (mvt._b_terms) or only c (mvt._c_terms), in order; big_f and the
        walker evaluate F through these two."""
        calls = []

        def recorder(name, terms):
            def record(p):
                bound = terms(p)

                def evaluate(x):
                    calls.append((name, np.asarray(x, dtype=float).tolist()))
                    return bound(x)
                return evaluate
            return record

        monkeypatch.setattr(mvt, "_b_terms", recorder("b", mvt._b_terms))
        monkeypatch.setattr(mvt, "_c_terms", recorder("c", mvt._c_terms))
        return calls

    def test_chord_march_evaluates_each_point_once(self, calls, parabola):
        br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.5, 2.5), step=0.01)
        assert len(br.points) == 101
        assert {name for name, _ in calls} == {"b", "c"}
        assert all(a != b for a, b in zip(calls, calls[1:]))
        # once per step, and once at the seed, where its classification
        # judges it and its point reuses that value of F
        assert len([x for name, x in calls if name == "b"]) == len(br.points)

    def test_b_of_c_march_evaluates_each_point_once(self, calls, quartic_inflection):
        br = continuation.trace_b_of_c(quartic_inflection, 3.0, 1.0, (0.9, 1.1),
                                       step=0.002)
        assert len(br.points) > 50
        assert {name for name, _ in calls} == {"b", "c"}
        assert all(a != b for a, b in zip(calls, calls[1:]))
        # once per step, and once at the seed, for its check and its point
        assert len([x for name, x in calls if name == "c"]) == len(br.points)

    def test_trace_runs_each_jet_as_often_as_before(self, monkeypatch):
        # perfbench's `trace cubic upper=True`: on a fresh tape, the calls of
        # its compiled runs and of its stack runs, by width.  Each corrector
        # evaluation is one run of width 3, each step one of width 2, and
        # the seed's classification one each of widths 17 and 18
        counts = collections.Counter()
        compile_run, run = expr._compile_run, expr._run

        def counting_compile(steps, width):
            compiled = compile_run(steps, width)

            def counted(x0):
                counts["compiled", width] += 1
                return compiled(x0)
            return counted

        def counting_run(steps, x0, width, out=None):
            if not isinstance(x0, expr._Sym):  # not a trace of a compiled run
                counts["stack", width] += 1
            return run(steps, x0, width, out)

        monkeypatch.setattr(expr, "_TAPES", {})
        monkeypatch.setattr(expr, "_compile_run", counting_compile)
        monkeypatch.setattr(expr, "_run", counting_run)
        p = mva.Problem(mva.parse(CUBIC), 0.0, 3.0)
        counts.clear()
        br = continuation.trace_c_of_b(p, 2.5, cubic_upper(2.5), (1.0, 3.5), step=0.01)
        assert len(br.points) == 201
        assert counts == {("compiled", 1): 1, ("compiled", 2): 203, ("compiled", 3): 804,
                          ("stack", 17): 1, ("stack", 18): 1}

    def test_chord_corrector_stops_at_its_rounding_floor(self, monkeypatch,
                                                         quintic_same_sign):
        # past the TWO_BRANCHES point (3, 1), G_t is small and G at rounding
        # level, so each correction is noise far above the absolute bound;
        # a corrector that only stops at that bound runs to its cap of 80
        counts, chord = [], continuation._chord_correct

        def counting(terms, *args):
            n = 0

            def counted(t):
                nonlocal n
                n += 1
                return terms[1](t)

            out = chord((terms[0], counted), *args)
            counts.append(n)
            return out

        monkeypatch.setattr(continuation, "_chord_correct", counting)
        p = quintic_same_sign
        rep = classify.classify_point(p, 3.0, 1.0)
        seeds = continuation.branch_seeds_after_degeneracy(p, 3.0, 1.0, rep, step0=0.002)
        branches = [continuation.trace_c_of_b(p, b, c, (b, b + 0.15), step=0.002)
                    for b, c in seeds]
        assert [len(br.points) for br in branches] == [76, 59]
        assert max(counts) <= 80  # a prediction and 80 corrections at the cap
        assert sum(counts) <= 6 * len(counts)
        # oracle: the real roots of f'(c) - slope(b), for f' = (x-1)^2 (x-3)
        # (x-1.4) and f(0) = 0
        f = np.array([1 / 5, -1.6, 14 / 3, -6.4, 4.2, 0.0])
        fprime = np.array([1.0, -6.4, 14.0, -12.8, 4.2])
        for q in (q for br in branches for q in br.points):
            roots = np.roots(fprime - [0, 0, 0, 0, np.polyval(f, q.b) / q.b])
            real = roots[np.abs(roots.imag) < 1e-6].real
            assert np.min(np.abs(real - q.c)) <= 1e-9


class TestBranchSeeds:
    def test_two_branch_seed_pair(self, quintic_same_sign):
        rep = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        seeds = continuation.branch_seeds_after_degeneracy(
            quintic_same_sign, 3.0, 1.0, rep, step0=0.01)
        assert len(seeds) == 2
        (b1, c_lo), (b2, c_hi) = sorted(seeds, key=lambda s: s[1])
        assert b1 == b2 == 3.01
        assert c_lo < 1.0 < c_hi
        for b, c in seeds:
            assert abs(float(mvt.big_f(quintic_same_sign, b, c)[0])) <= 1e-10

    def test_default_step_is_a_hundredth_of_the_width(self, quintic_same_sign):
        rep = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        seeds = continuation.branch_seeds_after_degeneracy(quintic_same_sign, 3.0, 1.0, rep)
        assert [b for b, _ in seeds] == [3.03, 3.03]

    @pytest.mark.parametrize("step0", [0.0, -0.002, math.nan, math.inf])
    def test_bad_step0_is_refused(self, quintic_same_sign, step0):
        # 0 once meant the default, b = 3.03; -0.002 gave seeds on the other
        # side, at b = 2.998; nan and inf said the endpoint left the domain
        rep = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        with pytest.raises(ValueError, match="step0 must be positive and finite"):
            continuation.branch_seeds_after_degeneracy(
                quintic_same_sign, 3.0, 1.0, rep, step0=step0)

    @pytest.mark.parametrize("text, fprime, b, want", [
        # REGULAR_B_ONLY with sigma1 * sigma2 < 0: the step goes to smaller b
        ("x^4 - (17/3)*x^3 + 11*x^2 - 9*x", [4, -17, 22, -9], 2.998,
         (0.96064796049, 1.04063252956)),
        # ONE_SIDED, f' = (x-1)^2 (x-3)^2 (x-3/4), with sigma1 * sigma2 > 0: to larger b
        ("-27/4*x + 27/2*x^2 - 27/2*x^3 + 7*x^4 - 7/4*x^5 + x^6/6",
         [1, -35 / 4, 28, -81 / 2, 27, -27 / 4], 3.002, (0.99991047814, 1.00008949781)),
    ])
    def test_seeds_past_a_b_only_or_one_sided_point(self, text, fprime, b, want):
        p = mva.Problem(mva.parse(text), 0.0, 3.0)
        rep = classify.classify_point(p, 3.0, 1.0)
        seeds = continuation.branch_seeds_after_degeneracy(p, 3.0, 1.0, rep, step0=0.002)
        assert [s[0] for s in seeds] == [b, b]
        got = [c for _, c in seeds]
        assert got == pytest.approx(want, abs=1e-10)
        # the oracle: real roots of f'(c) - slope(b), f(0) being 0 and a0 = 0
        coeffs = np.array(fprime, dtype=float)
        slope = np.polyval(np.polyint(coeffs), b) / b
        coeffs[-1] -= slope
        roots = np.roots(coeffs)
        real = roots[np.abs(roots.imag) < 1e-9].real
        for c in got:
            assert np.min(np.abs(real - c)) <= 1e-9

    def test_a_step_out_of_the_domain_fails(self, quartic_inflection):
        rep = classify.classify_point(quartic_inflection, 3.0, 1.0)
        with pytest.raises(SeedSearchFailed, match="stepped endpoint left the domain"):
            continuation.branch_seeds_after_degeneracy(
                quartic_inflection, 3.0, 1.0, rep, step0=10.0)

    def test_isolated_case_is_a_precondition_error(self, sextic_opposite):
        rep = classify.classify_point(sextic_opposite, 3.0, 1.0)
        with pytest.raises(ValueError):
            continuation.branch_seeds_after_degeneracy(
                sextic_opposite, 3.0, 1.0, rep)

    def test_seeds_extend_to_branches(self, quintic_same_sign):
        rep = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        seeds = continuation.branch_seeds_after_degeneracy(
            quintic_same_sign, 3.0, 1.0, rep)
        for b, c in seeds:
            br = continuation.trace_c_of_b(quintic_same_sign, b, c,
                                           (b, b + 0.2), step=0.005)
            # the upper branch folds (f'' = 0) before the range ends
            assert len(br.points) >= 15
            assert all(q.residual <= 1e-8 for q in br.points)


class TestBranchSerialization:
    def test_to_dict_round_trip_fields(self, parabola):
        br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.5, 2.5), step=0.1)
        d = br.to_dict()
        assert d["parameter"] == "b"
        assert d["seed_case"] == "REGULAR_C"
        assert len(d["points"]) == len(br.points)
        assert d["points"][d["seed_index"]]["b"] == 2.0

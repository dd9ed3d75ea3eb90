"""Branch tracing: f' or S inverted on one monotone piece, and post-degeneracy
seeds."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mvabscissa as mva
from mvabscissa import classify, continuation, expr, mvt
from mvabscissa.errors import NotASolution, SeedNotRegular, SeedSearchFailed

from conftest import CUBIC, QUINTIC_SAME_SIGN, cubic_lower, cubic_upper

# f of QUINTIC_SAME_SIGN and its f' = (x-1)^2 (x-3) (x-1.4), highest power
# first, with f(0) = 0
QUINTIC_F = np.array([1 / 5, -1.6, 14 / 3, -6.4, 4.2, 0.0])
QUINTIC_FPRIME = np.array([1.0, -6.4, 14.0, -12.8, 4.2])


def _real_roots(coeffs, imag=1e-6):
    roots = np.roots(coeffs)
    return roots[np.abs(roots.imag) <= imag].real


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

    def test_unique_odd_walk_stays_on_the_seeds_piece_of_f_prime(self):
        # x^4 - x^6/10: f'' = 3x^2 (4 - x^2) changes sign only at -2 and 2,
        # so the seed's piece of f' in [-1, 3.5] is (-1, 2).  The walk once
        # stepped from c = -0.964 at b = 3.32 to c = 2.643 at b = 3.34, a root
        # of another branch, and went on to the end of the range
        p = mva.Problem(mva.parse("x^4 - x^6/10"), -1.0, 1.0)
        c0, br = classify.guaranteed_branch(p, b_range=(0.5, 3.5))
        assert (c0, br.seed_case) == (0.0, "UNIQUE_ODD")
        assert br.stop_upper == continuation.STOP_EDGE
        assert len(br.points) > 100
        # oracle: normalizing leaves the abscissae as they are, the roots of
        # f'(c) - S(b) for f' = 4c^3 - 0.6c^5 and f(-1) = 0.9
        for q in br.points[:br.seed_index] + br.points[br.seed_index + 1:]:
            assert -1.0 < q.c < min(2.0, q.b)
            slope = (q.b ** 4 - q.b ** 6 / 10 - 0.9) / (q.b + 1)
            roots = np.roots([-0.6, 0.0, 4.0, 0.0, 0.0, -slope])
            real = roots[np.abs(roots.imag) < 1e-9].real
            (want,) = real[(-1.0 < real) & (real < min(2.0, q.b))]
            assert abs(q.c - want) <= 1e-12

    def test_unique_odd_walk_where_f_prime_has_no_value_at_a0(self):
        # (sqrt(x) - 1/2)^4 on [0, 1]: f' = 2 (u - 1/2)^3 / u, for u = sqrt(x),
        # has no value at a0 = 0 and rises on (0, inf), so the seed's piece
        # of f' reaches down to a0; the walk once raised DomainError there
        p = mva.Problem(mva.parse("(sqrt(x) - 1/2)^4"), 0.0, 1.0)
        c0, br = classify.guaranteed_branch(p)
        assert (c0, br.seed_case) == (0.25, "UNIQUE_ODD")
        assert br.stop_lower == br.stop_upper == continuation.STOP_RANGE
        assert [q.b for q in br.points[::20]] == pytest.approx([0.8, 1.0, 1.2], abs=1e-12)
        # oracle: c = u^2 for the one positive root u of 2 (u - 1/2)^3 = S(b) u,
        # with S(b) = ((sqrt(b) - 1/2)^4 - 1/16) / b, a triple root at the seed
        for q in br.points[:br.seed_index] + br.points[br.seed_index + 1:]:
            s = ((math.sqrt(q.b) - 0.5) ** 4 - 1 / 16) / q.b
            roots = np.roots([2.0, -3.0, 1.5 - s, -0.25])
            (u,) = roots[(np.abs(roots.imag) < 1e-9) & (roots.real > 0)].real
            assert abs(q.c - u * u) <= 1e-12

    @pytest.mark.parametrize("step0, lengths", [(0.002, [76, 59]), (1e-3, [76, 59]),
                                                (1e-4, [76, 60]), (1e-5, [76, 60])])
    def test_branches_past_a_crossing_are_roots_on_their_pieces(self, quintic_same_sign,
                                                                step0, lengths):
        # past the TWO_BRANCHES point (3, 1), G is at its rounding level near
        # c = 1, where F_c is small: the roots of the cells there sit at F's
        # noise floor, above the bracket width.  Seeds within 1e-3 of 3 lie
        # in the window of the piece's grid where f' turns at 1; each
        # branch's piece ends at that turn, not at the one before it
        p = quintic_same_sign
        rep = classify.classify_point(p, 3.0, 1.0)
        seeds = continuation.branch_seeds_after_degeneracy(p, 3.0, 1.0, rep, step0=step0)
        branches = [continuation.trace_c_of_b(p, b, c, (b, b + 0.15), step=0.002)
                    for b, c in seeds]
        assert [len(br.points) for br in branches] == lengths
        # the upper branch folds at the peak of f' at c = 1.2596875762567015
        assert [(br.stop_lower, br.stop_upper) for br in branches] == [
            (continuation.STOP_RANGE, continuation.STOP_RANGE),
            (continuation.STOP_RANGE, continuation.STOP_FOLD)]
        # oracle: the real roots of f'(c) - slope(b), on c's side of 1
        for br, side in zip(branches, (-1.0, 1.0)):
            for q in br.points:
                real = _real_roots(QUINTIC_FPRIME - [0, 0, 0, 0, np.polyval(QUINTIC_F, q.b) / q.b])
                assert np.min(np.abs(real - q.c)) <= 1e-9
                assert side * (q.c - 1.0) > 0

    def test_a_branch_stops_at_the_diagonal(self, cubic):
        # the upper branch reaches c = b at b = 1.5; below it c > b
        br = continuation.trace_c_of_b(cubic, 2.5, cubic_upper(2.5), (1.0, 3.5), step=0.01)
        assert (br.stop_lower, br.stop_upper) == (continuation.STOP_EDGE,
                                                  continuation.STOP_RANGE)
        assert br.points[0].b - 0.01 < 1.5 < br.points[0].b

    def test_a_branch_stops_at_its_folds(self, quintic_same_sign):
        # the guaranteed branch of the quintic, through c0 = 1.4, lies on
        # the piece of f' between its turns at c* = 1.2596875762567015 and
        # 2.540312423743292; S(b) leaves f' there at the folds b =
        # 2.8694090251220747 and 3.118910489105288, where S(b) = f'(c*), the
        # roots of f(b) - f'(c*) b
        c0, br = classify.guaranteed_branch(quintic_same_sign)
        assert (br.stop_lower, br.stop_upper) == (continuation.STOP_FOLD,) * 2
        c_star = 1.2596875762567015
        folds = sorted(b for b in _real_roots(QUINTIC_F - [0, 0, 0, 0, np.polyval(
            QUINTIC_FPRIME, c_star), 0], 1e-9) if 2.5 < b < 3.5)
        assert folds == pytest.approx([2.8694090251220747, 3.118910489105288], abs=1e-9)
        step = 0.03  # a hundredth of [a0, b0]
        assert br.points[0].b - step < folds[0] < br.points[0].b
        assert br.points[-1].b < folds[1] < br.points[-1].b + step
        for q in br.points:
            assert c_star < q.c < 2.540312423743292

    def test_a_walk_through_a_crossing_keeps_its_piece(self, quintic_same_sign):
        # from the root near 0.6742 at b = 2.5, over [2, 3.5]: f' falls on
        # [0, 1] to its double root at 1, which S(b) touches at b = 3, the
        # TWO_BRANCHES point (3, 1).  The walk stays on [0, 1], and keeps the
        # grid point at b = 3, where its bracket's end c = 1 is the root
        p = quintic_same_sign
        (c0,) = [c for c in mvt.abscissae(p, 2.5) if c < 1.0]
        assert c0 == pytest.approx(0.6742, abs=1e-4)
        br = continuation.trace_c_of_b(p, 2.5, c0, (2.0, 3.5), step=0.025)
        assert len(br.points) == 61
        assert (br.stop_lower, br.stop_upper) == (continuation.STOP_RANGE,) * 2
        assert all(0.0 < q.c <= 1.0 for q in br.points)
        (at_3,) = [q for q in br.points if abs(q.b - 3.0) < 1e-9]
        assert at_3.c == pytest.approx(1.0, abs=1e-7)
        for q in br.points:
            real = _real_roots(QUINTIC_FPRIME - [0, 0, 0, 0, np.polyval(QUINTIC_F, q.b) / q.b])
            assert np.min(np.abs(real - q.c)) <= (1e-7 if q is at_3 else 1e-9)

    def test_the_point_limit_bounds_the_walk_before_it_is_made(self, monkeypatch, parabola):
        # a step of 1e-9 over a range of 1 would be 1e9 points, 8 GB of b's;
        # the walk takes MAX_POINTS of them and says so
        monkeypatch.setattr(continuation, "MAX_POINTS", 1000)
        tracemalloc.start()
        try:
            br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (2.0, 3.0), step=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(br.points) == continuation.MAX_POINTS + 1
        assert (br.stop_lower, br.stop_upper) == (continuation.STOP_RANGE,
                                                  continuation.STOP_LIMIT)
        assert peak < 2e6
        assert all(abs(q.c - q.b / 2.0) <= 1e-15 for q in br.points)

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
        assert br.stop_upper == continuation.STOP_FOLD


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

    def test_a_seed_past_the_domain_extends_it(self):
        # x^3 on [0, 1] has the domain [-1, 2]; b = 3, c = sqrt(3) solves F.
        # The branch b = sqrt(3) c lies past 2, up to the domain's new end 3
        # (it was once the seed alone, each step past the domain's end)
        p = mva.Problem(mva.parse("x^3"), 0.0, 1.0)
        br = continuation.trace_b_of_c(p, 3.0, math.sqrt(3.0), (1.5, 1.9), step=0.01)
        assert (br.stop_lower, br.stop_upper) == (continuation.STOP_RANGE,
                                                  continuation.STOP_EDGE)
        assert br.points[0].b > 2.0 and br.points[-1].b == 3.0 and len(br.points) == 25
        assert all(abs(q.b - math.sqrt(3.0) * q.c) <= 1e-15 * q.b for q in br.points)


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

    def test_c_of_b_evaluates_the_b_term_once_for_all_points(self, calls, parabola):
        br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.5, 2.5), step=0.01)
        assert len(br.points) == 101
        assert {name for name, _ in calls} == {"b", "c"}
        # once at the seed, where its classification judges it and its
        # point keeps that value of F, then once on every point's b
        assert [x for name, x in calls if name == "b"] == [
            br.points[br.seed_index].b, [q.b for q in br.points]]

    def test_b_of_c_evaluates_the_c_term_once_for_all_points(self, calls, quartic_inflection):
        br = continuation.trace_b_of_c(quartic_inflection, 3.0, 1.0, (0.9, 1.1),
                                       step=0.002)
        assert len(br.points) > 50
        assert {name for name, _ in calls} == {"b", "c"}
        # once at the seed, for its check and its point, then once on every
        # point's c
        assert [x for name, x in calls if name == "c"] == [
            br.points[br.seed_index].c, [q.c for q in br.points]]

    def test_trace_runs_each_jet_as_often_as_before(self, monkeypatch):
        # perfbench's `trace cubic upper=True`: on a fresh tape, the calls of
        # its compiled runs and of its stack runs, by width.  The 201 points
        # take a few array runs: S at every b, f' on the piece's grid in two
        # blocks, at its turn and at the roots, all of width 2, and two Newton
        # steps of width 3.  The float runs are the seed's and the piece's,
        # f' at the grid's ends and f'' bisected to its turn at c = 1; the
        # seed's classification runs one each of widths 17 and 18
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
        assert counts == {("compiled", 1): 1, ("compiled", 2): 9, ("compiled", 3): 47,
                          ("stack", 17): 1, ("stack", 18): 1}


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

    def test_a_step_past_the_fold_fails(self, quintic_same_sign):
        # f' = (x-1)^2 (x-3) (x-1.4) rises from c0 = 1 to its peak at
        # 1.2596875762567015, where the branch above c0 folds, at b =
        # 3.118910489105288.  At b = 3.2 the search once took 3.0076, a root
        # of the branch near c = 3, as the upper seed
        rep = classify.classify_point(quintic_same_sign, 3.0, 1.0)
        with pytest.raises(SeedSearchFailed, match="no bracketed roots"):
            continuation.branch_seeds_after_degeneracy(
                quintic_same_sign, 3.0, 1.0, rep, step0=0.2)
        # oracle: no root of f'(c) - S(3.2) in (1, 1.2596875762567015]
        f = np.array([1 / 5, -1.6, 14 / 3, -6.4, 4.2, 0.0])
        roots = np.roots([1.0, -6.4, 14.0, -12.8, 4.2 - np.polyval(f, 3.2) / 3.2])
        real = roots[np.abs(roots.imag) < 1e-9].real
        assert sorted(real) == pytest.approx([0.805447518834282, 3.0076218775553327])
        assert not ((1.0 < real) & (real <= 1.2596875762567015)).any()

    @pytest.mark.parametrize("off", [1e-13, 1e-11, 1e-9])
    def test_a_c0_off_its_turn_gives_the_same_seeds(self, quintic_same_sign, off):
        # c0 = 1 + off still classifies as TWO_BRANCHES; its piece of f' is
        # the one around its turn at 1, not one that ends there
        p = quintic_same_sign
        rep = classify.classify_point(p, 3.0, 1.0 + off)
        assert rep.case == classify.Case.TWO_BRANCHES
        seeds = continuation.branch_seeds_after_degeneracy(p, 3.0, 1.0 + off, rep, step0=0.002)
        want = _real_roots(QUINTIC_FPRIME - [0, 0, 0, 0, np.polyval(QUINTIC_F, 3.002) / 3.002])
        want = sorted(want[(0.9 < want) & (want < 1.1)])
        assert [c for _, c in seeds] == pytest.approx(want, abs=1e-9)

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


@st.composite
def _quintic_seeds(draw):
    """f' of a random quintic f with f(0) = 0, as coefficients highest power
    first, and a seed (b0, c0) of C(b) with 0 < c0 < b0 where f''(c0) is
    well away from 0."""
    fprime = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5)))
    assume(abs(fprime[0]) >= 0.05)
    b0 = draw(st.floats(1.0, 3.0))
    f = np.polyint(fprime)
    real = _real_roots(fprime - [0, 0, 0, 0, np.polyval(f, b0) / b0], 1e-12)
    real = real[(0.05 * b0 < real) & (real < 0.95 * b0)]
    real = real[np.abs(np.polyval(np.polyder(fprime), real)) >= 0.2]
    assume(real.size)
    return fprime, b0, float(real[draw(st.integers(0, real.size - 1))])


def _text(fprime):
    f = np.polyint(fprime)
    return " + ".join(f"({float(c)!r})*x^{5 - j}" for j, c in enumerate(f[:-1]))


def _piece_of(x0, turns, lo, hi):
    """The interval of (lo, hi) around x0 between the turns on either side."""
    below, above = turns[turns < x0], turns[turns > x0]
    return max(lo, below.max(initial=lo)), min(hi, above.min(initial=hi))


def _check_branch(br, x0, roots, turns, step, lo, hi):
    """Every point's free coordinate x (c for C(b), b for B(c)) is one of
    roots(s), its parameter's real roots, on x0's piece between the turns
    and inside lo(s) < x < hi(s); past a fold or an edge, the next s has no
    such root (up to 1e-6), and past a domain edge it is at most a0 = 0."""
    a, z = _piece_of(x0, turns, -np.inf, np.inf)
    for q in br.points:
        s, x = (q.b, q.c) if br.parameter == "b" else (q.c, q.b)
        assert np.min(np.abs(roots(s) - x)) <= 1e-7 * max(1.0, abs(x))
        assert a - 1e-9 <= x <= z + 1e-9
    stops = {continuation.STOP_RANGE, continuation.STOP_FOLD, continuation.STOP_EDGE,
             continuation.STOP_DOMAIN}
    assert {br.stop_lower, br.stop_upper} <= stops
    for end, stop, d in ((br.points[0], br.stop_lower, -1), (br.points[-1], br.stop_upper, 1)):
        s = (end.b if br.parameter == "b" else end.c) + d * step
        if stop == continuation.STOP_DOMAIN:
            assert s <= 0.0  # the next parameter leaves (a0, ...), with a0 = 0 here
        elif stop != continuation.STOP_RANGE:
            a, z = _piece_of(x0, turns, lo(s), hi(s))
            assert not ((a + 1e-6 < roots(s)) & (roots(s) < z - 1e-6)).any()


@settings(max_examples=40, deadline=None)
@given(seed=_quintic_seeds())
def test_c_of_b_points_are_roots_on_the_seeds_piece(seed):
    # every point is a root of f'(c) - S(b), by numpy.roots, between the
    # critical points of f' around the seed's c; where the branch stops at a
    # fold or an edge, no such root lies in (0, b) at the next b
    fprime, b0, c0 = seed
    p = mva.Problem(mva.parse(_text(fprime)), 0.0, b0)
    rep = classify.classify_point(p, b0, c0)
    assume(rep.case == classify.Case.REGULAR_C)
    br = continuation.trace_c_of_b(p, b0, c0, (max(0.5, b0 - 0.5), b0 + 0.5), step=0.05)
    f = np.polyint(fprime)
    _check_branch(br, c0, lambda b: _real_roots(fprime - [0, 0, 0, 0, np.polyval(f, b) / b]),
                  _real_roots(np.polyder(fprime), 1e-9), 0.05, lambda b: 0.0, lambda b: b)


@settings(max_examples=40, deadline=None)
@given(seed=_quintic_seeds())
@example(seed=(np.array([1.5, -2.0, -2.0, 2.0, 0.0]), 1.0, 0.07224220183277766))
def test_b_of_c_points_are_roots_on_the_seeds_piece(seed):
    # every point's b is a root of f(b) - f(0) - b f'(c), by numpy.roots,
    # between the critical points of S around the seed's b, the roots of
    # b f'(b) - f(b); where the branch stops at a fold or an edge, no such
    # root lies in (c, the domain's end] at the next c
    fprime, b0, c0 = seed
    p = mva.Problem(mva.parse(_text(fprime)), 0.0, b0)
    f = np.polyint(fprime)
    s_prime = np.polysub(np.polymul(fprime, [1.0, 0.0]), f)  # b^2 S'(b)
    assume(abs(np.polyval(s_prime, b0)) >= 0.05 * b0 * b0)
    br = continuation.trace_b_of_c(p, b0, c0, (c0 - 0.2, c0 + 0.2), step=0.01)
    turns = _real_roots(s_prime, 1e-9)
    _check_branch(br, b0, lambda c: _real_roots(f - [0, 0, 0, 0, np.polyval(fprime, c), 0]),
                  turns[turns > 0], 0.01, lambda c: c, lambda c: p.domain[1])

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line with the tolerance it enforced.
"""

import math
import time

import numpy as np
import pytest

import mvabscissa as mva
from mvabscissa import classify, continuation, expr, mvt, scanner, solver
from mvabscissa.errors import DegenerateProblem, SeedNotRegular

from conftest import (CUBIC, PARABOLA, QUARTIC_INFLECTION, QUINTIC_SAME_SIGN,
                      SEXTIC_OPPOSITE, bisect_root, grid_sign_change_roots,
                      poly_text, x_fourth_branch)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_parabola_closed_form():
    p = mva.Problem(mva.parse(PARABOLA), 0.0, 2.0)
    t0 = time.perf_counter()
    br = continuation.trace_c_of_b(p, 2.0, 1.0, (0.5, 3.5), step=0.01)
    trace_err = max(abs(q.c - q.b / 2.0) for q in br.points)
    res = scanner.scan(p, 0.01, 4.0, 400)
    scan_err = max(abs(q.c - q.b / 2.0) for q in res.points)
    elapsed = time.perf_counter() - t0
    ok = trace_err <= 1e-8 and scan_err <= 1e-6 and elapsed < 1.0
    report(1, ok, f"trace err {trace_err:.2e} (tol 1e-8), scan err "
                  f"{scan_err:.2e} (tol 1e-6), runtime {elapsed:.3f}s (< 1 s)")


def test_criterion_2_cubic_two_abscissae():
    p = mva.Problem(mva.parse(CUBIC), 0.0, 3.0)
    want = [(6.0 - math.sqrt(21.0)) / 6.0, (6.0 + math.sqrt(21.0)) / 6.0]
    t0 = time.perf_counter()
    got25 = mvt.abscissae(p, 2.5)
    got3 = mvt.abscissae(p, 3.0)
    elapsed = time.perf_counter() - t0
    err25 = (max(abs(a - w) for a, w in zip(got25, want))
             if len(got25) == 2 else float("inf"))
    err3 = abs(got3[0] - 2.0) if len(got3) == 1 else float("inf")
    ok = err25 <= 1e-9 and err3 <= 1e-9 and elapsed < 0.1
    report(2, ok, f"b=2.5 err {err25:.2e}, b=3 err {err3:.2e} (tol 1e-9), "
                  f"runtime {elapsed:.4f}s (< 0.1 s)")


def test_criterion_3_contraction_bound():
    rho = math.sin(1.0)
    y, trace = solver.fixed_point(np.cos, (0.0, 1.0), rho=rho, tol=1e-12)
    ys = trace.iterates
    lead = abs(ys[1] - ys[0])
    worst = 0.0
    for m in range(len(ys)):
        for n in range(m + 1, len(ys)):
            excess = abs(ys[n] - ys[m]) - lead * rho ** m / (1.0 - rho)
            worst = max(worst, excess)
    oracle = bisect_root(lambda t: t - math.cos(t), 0.0, 1.0)
    err = abs(y - oracle)
    ok = worst <= 1e-15 and err <= 1e-10
    report(3, ok, f"Cauchy bound excess {worst:.2e}, fixed point vs "
                  f"bisection err {err:.2e} (tol 1e-10)")


def test_criterion_4_derivative_formula():
    problems = [
        mva.Problem(mva.parse(PARABOLA), 0.0, 2.0),
        mva.Problem(mva.parse(CUBIC), 0.0, 3.0),
        mva.Problem(mva.parse("exp(x) - 2*x"), 0.0, 2.0),
        mva.Problem(mva.parse("sin(x) + x^2/4"), 0.0, 3.0),
    ]
    rng = np.random.default_rng(42)
    h = 1e-5
    seeds = 0
    worst = 0.0
    while seeds < 20:
        p = problems[int(rng.integers(len(problems)))]
        b = float(rng.uniform(p.a0 + 0.5 * (p.b0 - p.a0), p.b0 + 0.3))
        try:
            cs = mvt.abscissae(p, b)
        except DegenerateProblem:
            continue
        for c in cs:
            f_c = abs(float(mvt.big_f(p, b, c)[2]))
            if f_c < 0.5 or seeds >= 20:
                continue
            F = mvt.mean_value_implicit(p)
            fd = (solver.implicit_solve(F, b, c, b + h)
                  - solver.implicit_solve(F, b, c, b - h)) / (2.0 * h)
            worst = max(worst, abs(solver.implicit_derivative(F, b, c) - fd))
            seeds += 1
    ok = worst <= 1e-6
    report(4, ok, f"{seeds} random regular seeds, max |implicit_derivative - "
                  f"central FD| = {worst:.2e} (tol 1e-6)")


def test_criterion_5_inflection_abscissa_dichotomy():
    p = mva.Problem(mva.parse(QUARTIC_INFLECTION), 0.0, 3.0)
    r = classify.classify_point(p, 3.0, 1.0)
    fp = expr.jet_eval(p.f, 3.0, 1)[1] - expr.jet_eval(p.f, 1.0, 1)[1]
    refused = False
    try:
        continuation.trace_c_of_b(p, 3.0, 1.0, (2.5, 3.5))
    except SeedNotRegular:
        refused = True
    br = continuation.trace_b_of_c(p, 3.0, 1.0, (0.9, 1.1), step=0.002)
    b_err = max(abs(float(mvt.big_f(p, q.b, q.c)[0])) for q in br.points)
    ok = (abs(r.f_pp_c0) <= 1e-9 and abs(float(fp)) > 1e-6
          and r.b_branch_exists and refused and b_err <= 1e-9)
    report(5, ok, f"f''(c0) = {r.f_pp_c0:.1e} (= 0), f'(b0)-f'(c0) = "
                  f"{float(fp):.3g} (!= 0), c-trace refused: {refused}, "
                  f"B(c) max residual {b_err:.2e} (tol 1e-9)")


def test_criterion_6_separable_dichotomy():
    p_two = mva.Problem(mva.parse(QUINTIC_SAME_SIGN), 0.0, 3.0)
    r_two = classify.classify_point(p_two, 3.0, 1.0)
    seeds = continuation.branch_seeds_after_degeneracy(p_two, 3.0, 1.0, r_two,
                                                       step0=0.002)
    sides = []
    res_max = 0.0
    near = []
    for b, c in sorted(seeds, key=lambda s: s[1]):
        br = continuation.trace_c_of_b(p_two, b, c, (b, b + 0.15), step=0.002)
        sides.append(1 if br.points[0].c > 1.0 else -1)
        res_max = max(res_max, max(q.residual for q in br.points))
        near.append((abs(br.points[0].b - 3.0), abs(br.points[0].c - 1.0)))
    crossing = all(db <= 0.01 and dc <= 0.05 for db, dc in near)
    two_ok = (r_two.case == classify.Case.TWO_BRANCHES
              and sides == [-1, 1] and res_max <= 1e-8 and crossing)

    p_iso = mva.Problem(mva.parse(SEXTIC_OPPOSITE), 0.0, 3.0)
    r_iso = classify.classify_point(p_iso, 3.0, 1.0)
    res = scanner.scan(p_iso, 2.975, 3.025, 40)
    in_box = [q for q in res.points
              if abs(q.b - 3.0) <= 0.025 and abs(q.c - 1.0) <= 0.025]
    iso_ok = r_iso.case == classify.Case.ISOLATED and not in_box
    ok = two_ok and iso_ok
    report(6, ok, f"two-branch case {r_two.case.value}, branch residuals "
                  f"{res_max:.2e} (tol 1e-8), crossing at seed: {crossing}; "
                  f"isolated case {r_iso.case.value}, box points: {len(in_box)}")


def test_criterion_7_guaranteed_branch():
    p = mva.Problem(mva.parse("x^4"), -1.0, 1.0)
    c0, branch = classify.guaranteed_branch(p, b_range=(0.8, 1.2))
    _, k = classify.find_extremal_abscissa(mvt.normalize(p))
    err = max(abs(q.c - x_fourth_branch(q.b)) for q in branch.points)
    covered = branch.points[0].b <= 0.81 and branch.points[-1].b >= 1.19
    ok = abs(c0) <= 1e-7 and k == 3 and err <= 1e-7 and covered
    report(7, ok, f"c0 = {c0:.2e} (= 0), k = {k} (odd), branch vs closed "
                  f"form err {err:.2e} (tol 1e-7) on b in [0.8, 1.2]")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst = 0.0
    checked = 0
    while checked < 20:
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
                lambda cs: mvt.big_f(p, b, cs)[0], p.a0 + 1e-9, b - 1e-9, 100000)
            res = (b - p.a0) / 2048
            for r in oracle:
                d = min((abs(c - r) for c in got), default=float("inf"))
                worst = max(worst, d / res)
        checked += 1
    p0 = mva.Problem(mva.parse(CUBIC), 0.0, 3.0)
    a = scanner.to_csv(scanner.scan(p0, 0.5, 3.0, 50))
    b = scanner.to_csv(scanner.scan(p0, 0.5, 3.0, 50))
    deterministic = a == b
    ok = worst <= 1.0 and deterministic
    report(8, ok, f"20 random polynomials x 10 b: worst oracle distance "
                  f"{worst:.3f} grid cells (<= 1); byte-deterministic scans: "
                  f"{deterministic}")


def test_criterion_9_normal_form_identity():
    corpus = [
        (QUARTIC_INFLECTION, 0.0, 3.0, 3.0, 1.0),
        (QUINTIC_SAME_SIGN, 0.0, 3.0, 3.0, 1.0),
        (SEXTIC_OPPOSITE, 0.0, 3.0, 3.0, 1.0),
        ("x^4", -1.0, 1.0, 1.0, 0.0),
    ]
    worst = 0.0
    for text, a0, b0, bb, cc in corpus:
        p = mva.Problem(mva.parse(text), a0, b0)
        r = classify.classify_point(p, bb, cc)
        chart = classify.morse_coordinates(p, bb, cc, r)
        g1, g2 = mvt.g1_g2(p, bb, cc)
        xs = np.linspace(-0.5 * chart.window_x, 0.5 * chart.window_x, 50)
        ys = np.linspace(-0.5 * chart.window_y, 0.5 * chart.window_y, 50)
        X, Y = np.meshgrid(xs, ys)
        lhs = r.sigma1 * chart.u(X) ** r.l - r.sigma2 * chart.v(Y) ** r.k
        rhs = np.asarray(g1(X), dtype=float) - np.asarray(g2(Y), dtype=float)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    ok = worst <= 1e-10
    report(9, ok, f"{len(corpus)} degenerate points, 50x50 grids, max "
                  f"normal-form identity error {worst:.2e} (tol 1e-10*scale)")

"""The benchmark's workloads: their inputs, their operations and the check of
each operation's answer.

``inputs(workload, seed)`` draws the seeded inputs without touching the
library.  ``build(workload, mva, spec, outdir)`` parses every expression and
constructs every Problem (the set-up the benchmark times), and returns the
operations of one pass.  An operation calls the library only through its
modules' attributes (``mva.mvt.abscissae``, not ``mva.abscissae``), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O

PARABOLA = "-x^2 + 2*x"
CUBIC = "x^3 - 3*x^2 + 2*x"
QUARTIC = "x^4 - (17/3)*x^3 + 11*x^2 - 9*x"
QUINTIC = "x^5/5 - 1.6*x^4 + (14/3)*x^3 - 6.4*x^2 + 4.2*x"
SEXTIC = "x^6/6 - 1.9*x^5 + 8.2*x^4 - 17*x^3 + 18.3*x^2 - 9.9*x"

COLUMNS = 400
RANDOM_DEGREE = 5           # one degree for every seed, so a seed moves the cost little
RANDOM_DOMAIN = (-0.5, 4.0)  # as in acceptance criterion 8
RANDOM_COUNT = {"scan": 2, "trace": 3, "point": 4}
TRACE_HALF_WIDTH = 0.5      # random branches are traced over b0 +/- this

# (text, a0, b0, b_min, b_max): the six tests/conftest.py problems, four
# transcendental functions and, from the seed, random polynomials
SCANS = [
    (PARABOLA, 0.0, 2.0, 0.01, 4.0),
    (CUBIC, 0.0, 3.0, 0.1, 3.5),
    (QUARTIC, 0.0, 3.0, 0.1, 3.5),
    (QUINTIC, 0.0, 3.0, 0.1, 3.5),
    (SEXTIC, 0.0, 3.0, 0.1, 3.5),
    ("x^4", -1.0, 1.0, -0.9, 2.0),
    ("sin(x) + x^2/4", 0.0, 3.0, 0.1, 5.0),
    ("exp(x) - 2*x", 0.0, 2.0, 0.1, 3.0),
    ("sin(10*x)", 0.0, 1.0, 0.1, 12.0),  # about 7700 abscissae
    ("exp(-x^2)*cos(5*x)", -1.0, 1.0, -0.9, 2.5),
]

# (text, a0, b0, b) for single abscissae queries
QUERIES = [
    (CUBIC, 0.0, 3.0, 2.5),
    (PARABOLA, 0.0, 2.0, 2.0),
    ("sin(x) + x^2/4", 0.0, 3.0, 4.0),
    (QUINTIC, 0.0, 3.0, 3.0),
    ("exp(-x^2)*cos(5*x)", -1.0, 1.0, 1.5),
    ("sin(10*x)", 0.0, 1.0, 1.0),
]

# degenerate corpus points (text, a0, b0, b, c) for classify and the chart
POINTS = [
    (QUARTIC, 0.0, 3.0, 3.0, 1.0),
    (QUINTIC, 0.0, 3.0, 3.0, 1.0),
    (SEXTIC, 0.0, 3.0, 3.0, 1.0),
    ("x^4", -1.0, 1.0, 1.0, 0.0),
]

# x^3 on [0, s] at b = s.  s = 1e3, 1e5 and 1e6 return no abscissa, because
# mvt.solve_columns filters residuals against an absolute 1e-10 (ROADMAP
# item 4a): three failed operations in every pass, kept on purpose.
X3_SCALES = [10.0 ** k for k in range(-3, 7)]

README_SCAN = ["scan", "-f", CUBIC, "-a", "0", "--b-min", "0.1", "--b-max", "3.5",
               "--columns", "400", "--format", "svg"]
README_TRACE = ["trace", "-f", "-x^2+2*x", "-a", "0", "-b", "2", "-c", "1",
                "--b-min", "0.5", "--b-max", "3.5", "--step", "0.01"]
README_ABSCISSAE = ["abscissae", "-f", CUBIC, "-a", "0", "-b", "2.5"]
README_CLASSIFY = ["classify", "-f", "x^4", "-a", "-1", "-b", "1", "-c", "0"]


@dataclass
class Op:
    """One operation: run() returns (answer, aux).  Answers of every pass
    must be equal; check(answer, aux) raises oracles.Mismatch if wrong."""

    name: str
    run: Callable
    check: Callable

    def call(self):
        try:
            return self.run()
        except Exception as e:  # a library error is this operation's answer
            return ("error", type(e).__name__, str(e)), None


def cubic_branch(b, upper):
    r = math.sqrt(1 + (b * b - 3 * b) / 3)
    return 1 + r if upper else 1 - r


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _random_poly(rng):
    return O.poly_text(rng.uniform(-2.0, 2.0, size=RANDOM_DEGREE + 1))


def _regular_seed(rng, text):
    """(b0, c0): an abscissa at a random b0 whose branch c = C(b) the oracle
    follows across b0 +/- TRACE_HALF_WIDTH with |f''(c)| >= 1 and c inside
    (0.05 b, 0.95 b).  The tracer then covers the whole range, so a seed
    moves the cost little.  None if the draws find none."""
    fn = O.function(text)
    for _ in range(20):
        b0 = float(rng.uniform(1.0, 3.0))
        roots, simple = O.oracle_roots(fn, 0.0, b0)
        for c0 in roots[simple].tolist():
            if all(_regular_walk(fn, b0, c0, d) for d in (-1, 1)):
                return b0, c0
    return None


def _regular_walk(fn, b0, c0, direction, steps=50):
    """Follow the branch from (b0, c0) in steps of 0.01 by Euler predictions
    dc/db = F_b / f''(c), each matched to an oracle root; False if the
    root strays from its prediction (another branch) or the branch leaves
    the region."""
    b, c = b0, c0
    h = direction * TRACE_HALF_WIDTH / steps
    for _ in range(steps):
        if not (0.05 * b < c < 0.95 * b and abs(fn.d2f(c)) >= 1.0):
            return False
        pred = c + h * (fn.df(b) - O.slope(fn, 0.0, b)) / b / fn.d2f(c)
        b += h
        roots, _ = O.oracle_roots(fn, 0.0, b)
        if not roots.size:
            return False
        c = float(roots[np.argmin(np.abs(roots - pred))])
        if abs(c - pred) > 0.02:
            return False
    return 0.05 * b < c < 0.95 * b and abs(fn.d2f(c)) >= 1.0


def inputs(workload, seed):
    rng = np.random.default_rng(seed)
    polys = []
    while len(polys) < RANDOM_COUNT[workload]:
        text = _random_poly(rng)
        if workload == "scan":
            polys.append((text, float(rng.uniform(0.2, 0.4)), float(rng.uniform(3.0, 3.5))))
        elif workload == "point":
            polys.append((text, float(rng.uniform(0.3, 3.5))))
        elif (seed_point := _regular_seed(rng, text)) is not None:
            polys.append((text, *seed_point))
    return polys


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build(workload, mva, spec, outdir):
    problem = _problem_factory(mva)
    return {"scan": _scan_ops, "trace": _trace_ops, "point": _point_ops}[workload](
        mva, problem, spec, outdir)


def _problem_factory(mva):
    parsed = {}

    def problem(text, a0, b0, domain=None):
        if text not in parsed:
            parsed[text] = mva.expr.parse(text)
        return mva.mvt.Problem(parsed[text], a0, b0, domain)

    return problem


def _cli(mva, argv, outfile=None):
    """Run the command line in-process; returns (exit code, stdout, file text)."""
    if outfile is not None:
        argv = argv + ["-o", outfile]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mva.cli.run(argv)
    text = None
    if outfile is not None and rc == 0:
        with open(outfile, encoding="utf-8") as fh:
            text = fh.read()
    return (rc, out.getvalue(), text), err.getvalue()


def _check_cli(answer, aux, what):
    O.check_error_free(answer, what)
    rc = answer[0]
    if rc != 0:
        raise O.NoAnswer(f"{what}: exit code {rc}: {aux.strip()}")


def _scan_ops(mva, problem, spec, outdir):
    ops = []
    cases = [(t, a0, b0, lo, hi, None) for t, a0, b0, lo, hi in SCANS]
    cases += [(t, 0.0, 1.0, lo, hi, RANDOM_DOMAIN) for t, lo, hi in spec]
    for text, a0, b0, lo, hi, domain in cases:
        p = problem(text, a0, b0, domain)

        def run(p=p, lo=lo, hi=hi):
            s = mva.scanner
            r = s.scan(p, lo, hi, COLUMNS)
            return (s.to_csv(r), s.to_json(r), s.to_svg(r)), None

        def check(answer, aux, text=text, a0=a0, lo=lo, hi=hi):
            O.check_scan(text, a0, lo, hi, COLUMNS, answer)

        ops.append(Op(f"scan {text}", run, check))

    svg = os.path.join(outdir, "scan.svg")

    def check_cli_scan(answer, aux):
        _check_cli(answer, aux, "cli scan")
        circles = O.parse_svg(answer[2]).findall("{http://www.w3.org/2000/svg}circle")
        lo, hi = O.closed_form_count(CUBIC, 0.0, 0.1, 3.5, COLUMNS)
        O.expect(lo <= len(circles) <= hi,
                 f"cli scan: {len(circles)} markers, closed form {lo} to {hi}")

    ops.append(Op("cli scan", lambda: _cli(mva, README_SCAN, svg), check_cli_scan))
    return ops


def _branch_points(branch):
    return tuple((q.b, q.c) for q in branch.points)


def _trace_ops(mva, problem, spec, outdir):
    ops = []
    par, cub = problem(PARABOLA, 0.0, 2.0), problem(CUBIC, 0.0, 3.0)
    quart, quint = problem(QUARTIC, 0.0, 3.0), problem(QUINTIC, 0.0, 3.0)
    x4, sin4 = problem("x^4", -1.0, 1.0), problem("sin(x) + x^2/4", 0.0, 3.0)

    def c_of_b(p, b0, c0, rng, step):
        br = mva.continuation.trace_c_of_b(p, b0, c0, rng, step=step)
        return _branch_points(br), None

    def check_par(answer, aux):
        O.check_error_free(answer, "parabola")
        O.check_branch(PARABOLA, 0.0, answer, what="parabola")
        O.check_covers(answer, 0.5, 3.5, what="parabola")

    ops.append(Op("trace parabola", lambda: c_of_b(par, 2.0, 1.0, (0.5, 3.5), 0.01), check_par))

    # the upper branch leaves a0 < c < b at b = 1.5, the lower one at b = 3
    for upper, lo, hi in ((True, 1.5, 3.5), (False, 1.0, 3.0)):
        def check_cub(answer, aux, lo=lo, hi=hi, what=f"cubic upper={upper}"):
            O.check_error_free(answer, what)
            O.check_branch(CUBIC, 0.0, answer, what=what)
            O.check_covers(answer, lo + 0.02, hi - 0.02, what=what)

        ops.append(Op(f"trace cubic upper={upper}",
                      lambda upper=upper: c_of_b(cub, 2.5, cubic_branch(2.5, upper),
                                                 (1.0, 3.5), 0.01),
                      check_cub))

    def guaranteed(p, b_range):
        c0, br = mva.classify.guaranteed_branch(p, b_range=b_range)
        return (c0, _branch_points(br), br.seed_case), None

    def check_x4(answer, aux):
        O.check_error_free(answer, "x^4")
        c0, pts, case = answer
        O.expect(abs(c0) <= 1e-7 and case == "UNIQUE_ODD", f"x^4: c0 = {c0!r}, {case}")
        O.check_branch("x^4", -1.0, pts, close_rel=1e-7, what="x^4")
        O.check_covers(pts, 0.8, 1.2, slack=0.01, what="x^4")

    ops.append(Op("guaranteed x^4", lambda: guaranteed(x4, (0.8, 1.2)), check_x4))

    def check_sin(answer, aux):
        O.check_error_free(answer, "guaranteed sin")
        c0, pts, _case = answer
        want = O.extremal_abscissa("sin(x) + x^2/4", 0.0, 3.0)
        O.expect(O.close(c0, want), f"guaranteed sin: c0 = {c0!r}, oracle {want!r}")
        O.expect((3.0, c0) in pts, "guaranteed sin: the seed is not on the branch")
        O.check_branch("sin(x) + x^2/4", 0.0, pts, what="guaranteed sin")

    ops.append(Op("guaranteed sin", lambda: guaranteed(sin4, None), check_sin))

    def b_of_c():
        br = mva.continuation.trace_b_of_c(quart, 3.0, 1.0, (0.9, 1.1), step=0.002)
        return _branch_points(br), None

    def check_b_of_c(answer, aux):
        O.check_error_free(answer, "quartic B(c)")
        O.check_branch(QUARTIC, 0.0, answer, parameter="c", what="quartic B(c)")
        O.check_covers(answer, 0.9, 1.1, parameter="c", what="quartic B(c)")

    ops.append(Op("trace_b_of_c quartic", b_of_c, check_b_of_c))

    def seeds():
        report = mva.classify.classify_point(quint, 3.0, 1.0)
        pair = mva.continuation.branch_seeds_after_degeneracy(quint, 3.0, 1.0, report,
                                                               step0=0.002)
        branches = tuple(_branch_points(mva.continuation.trace_c_of_b(
            quint, b, c, (b, b + 0.15), step=0.002)) for b, c in pair)
        return (tuple(pair), branches), None

    def check_seeds(answer, aux):
        O.check_error_free(answer, "quintic seeds")
        pair, branches = answer
        O.expect(len(pair) == 2 and pair[0][1] < 1.0 < pair[1][1]
                 and all(b == 3.002 for b, _c in pair), f"quintic seeds {pair}")
        O.check_branch(QUINTIC, 0.0, pair, parameter="c", what="quintic seeds")
        for seed, pts in zip(pair, branches):
            O.expect(pts[0] == seed, "quintic: a branch does not start at its seed")
            O.check_branch(QUINTIC, 0.0, pts, what="quintic branch")

    ops.append(Op("branch seeds quintic", seeds, check_seeds))

    for i, (text, b0, c0) in enumerate(spec):
        p = problem(text, 0.0, 1.0, RANDOM_DOMAIN)

        def check_rand(answer, aux, text=text, b0=b0, c0=c0):
            O.check_error_free(answer, "random branch")
            O.expect((b0, c0) in answer, "random branch: the seed is not on the branch")
            O.check_branch(text, 0.0, answer, what=f"branch of {text}")
            O.check_covers(answer, b0 - TRACE_HALF_WIDTH, b0 + TRACE_HALF_WIDTH,
                           what=f"branch of {text}")

        ops.append(Op(f"trace random {i}", lambda p=p, b0=b0, c0=c0: c_of_b(
            p, b0, c0, (b0 - TRACE_HALF_WIDTH, b0 + TRACE_HALF_WIDTH), 0.01), check_rand))

    csv = os.path.join(outdir, "branch.csv")

    def check_cli_trace(answer, aux):
        _check_cli(answer, aux, "cli trace")
        rows = O.parse_csv(answer[2])
        pts = [(b, c) for b, c, _r, _k in rows]
        O.check_branch(PARABOLA, 0.0, pts, what="cli trace")
        O.check_covers(pts, 0.5, 3.5, what="cli trace")

    ops.append(Op("cli trace", lambda: _cli(mva, README_TRACE, csv), check_cli_trace))
    return ops


def _point_ops(mva, problem, spec, outdir):
    ops = []

    def abscissae(p, b):
        return tuple(mva.mvt.abscissae(p, b)), None

    queries = [(t, a0, b0, b, None) for t, a0, b0, b in QUERIES]
    queries += [(t, 0.0, 1.0, b, RANDOM_DOMAIN) for t, b in spec]
    queries += [("x^3", 0.0, s, s, None) for s in X3_SCALES]
    for text, a0, b0, b, domain in queries:
        p = problem(text, a0, b0, domain)

        def check(answer, aux, text=text, a0=a0, b=b):
            O.check_error_free(answer, f"abscissae({text}, {b})")
            O.check_point_query(text, a0, b, answer, refine=text in O.TRANSCENDENTAL)

        ops.append(Op(f"abscissae {text} b={b}", lambda p=p, b=b: abscissae(p, b), check))

    for text, a0, b0, b, c in POINTS:
        p = problem(text, a0, b0)

        def classify(p=p, b=b, c=c):
            cl = mva.classify
            r = cl.classify_point(p, b, c, kmax=16)
            chart = cl.morse_coordinates(p, b, c, r)
            x = 0.3 * chart.window_x
            back = chart.x_of_u(chart.u(x))
            report = (r.case.value, r.k, r.l, r.alpha0, r.beta0, r.sigma1, r.sigma2)
            return (report, chart.window_x, chart.window_y, x, back), chart

        def check(answer, chart, text=text, a0=a0, b=b, c=c):
            O.check_error_free(answer, f"classify {text}")
            report, wx, wy, x, back = answer
            O.check_report(text, a0, b, c, report, what=f"classify {text}")
            O.check_chart(text, a0, b, c, report, chart.u, chart.v, wx, wy, x, back,
                          what=f"chart {text}")

        ops.append(Op(f"classify {text}", classify, check))

    cub = problem(CUBIC, 0.0, 3.0)

    def implicit():
        F = mva.mvt.mean_value_implicit(cub)
        return mva.solver.implicit_solve(F, 2.5, cubic_branch(2.5, True), 3.0), None

    def check_implicit(answer, aux):
        O.check_error_free(answer, "implicit_solve")
        O.expect(O.close(answer, cubic_branch(3.0, True)), f"implicit_solve gave {answer!r}")

    ops.append(Op("implicit_solve cubic", implicit, check_implicit))

    def check_cli_abscissae(answer, aux):
        _check_cli(answer, aux, "cli abscissae")
        got = [float(line) for line in answer[1].split()]
        want = O.closed_form(CUBIC, 0.0, 2.5)
        O.expect(len(got) == len(want) and all(O.close(g, w, 1e-11) for g, w in zip(got, want)),
                 f"cli abscissae printed {got}, closed form {want}")

    ops.append(Op("cli abscissae", lambda: _cli(mva, README_ABSCISSAE), check_cli_abscissae))

    def check_cli_classify(answer, aux):
        _check_cli(answer, aux, "cli classify")
        d = json.loads(answer[1])
        report = tuple(d[k] for k in ("case", "k", "l", "alpha0", "beta0", "sigma1", "sigma2"))
        O.check_report("x^4", -1.0, 1.0, 0.0, report, what="cli classify")

    ops.append(Op("cli classify", lambda: _cli(mva, README_CLASSIFY), check_cli_classify))
    return ops

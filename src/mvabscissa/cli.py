"""Command-line front end.

Subcommands: abscissae, classify, trace, scan, guaranteed, fixed-point.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import classify, continuation, expr, mvt, scanner, solver
from .errors import MvaError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="mvabscissa",
                  description="Mean value abscissae: solve, classify, trace, scan.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, options, need_b=True):
        """-f, -a, -b, and those of --tol and --kmax named in options."""
        sp.add_argument("-f", "--function", required=True,
                        help="expression in x, e.g. 'x^3 - 3*x^2 + 2*x'")
        sp.add_argument("-a", type=float, required=True, help="left endpoint a0")
        if need_b:
            sp.add_argument("-b", type=float, required=True, help="right endpoint b0")
        if "tol" in options:
            sp.add_argument("--tol", type=float, default=1e-10)
        if "kmax" in options:
            sp.add_argument("--kmax", type=int, default=16)

    sp = sub.add_parser("abscissae", help="all mean value abscissae at a fixed b")
    common(sp, ("tol",))
    sp.add_argument("--c-grid", type=int, default=2048, dest="c_grid",
                    help="interior nodes of the grid of f' over [a0, b] (default 2048)")

    sp = sub.add_parser("classify", help="degeneracy report at a point (JSON)")
    common(sp, ("kmax",))
    sp.add_argument("-c", type=float, required=True, help="abscissa c0")

    sp = sub.add_parser("trace", help="trace the branch c = C(b) from a seed")
    common(sp, ("tol", "kmax"))
    sp.add_argument("-c", type=float, required=True, help="seed abscissa c0")
    sp.add_argument("--b-min", type=float, required=True)
    sp.add_argument("--b-max", type=float, required=True)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    sp = sub.add_parser("scan", help="the full solution set over a b-grid")
    common(sp, ("tol",), need_b=False)
    sp.add_argument("-b", type=float, default=None,
                    help="right endpoint b0 (default: b-max)")
    sp.add_argument("--b-min", type=float, required=True)
    sp.add_argument("--b-max", type=float, required=True)
    sp.add_argument("--columns", type=int, default=400)
    sp.add_argument("--c-grid", type=int, default=2048, dest="c_grid",
                    help="interior nodes of the one grid of f' that all columns share, "
                         "over [a0, b-max] (default 2048)")
    sp.add_argument("-o", "--output", required=True)
    sp.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    sp = sub.add_parser("guaranteed",
                        help="extremal abscissa and its guaranteed branch")
    common(sp, ("tol", "kmax"))
    sp.add_argument("--b-min", type=float, default=None, help="given with --b-max")
    sp.add_argument("--b-max", type=float, default=None, help="given with --b-min")
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    sp = sub.add_parser("fixed-point",
                        help="solve f1(x) = f2(y) for y near a known zero")
    sp.add_argument("--f1", required=True, help="expression in x")
    sp.add_argument("--f2", required=True, help="expression in x (applied to y)")
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    return top


def _problem(args):
    b0 = args.b if args.b is not None else args.b_max
    return mvt.Problem(expr.parse(args.function), args.a, b0)


def _cmd_abscissae(args):
    p = _problem(args)
    for c in mvt.abscissae(p, args.b, tol=args.tol, grid_n=args.c_grid):
        print(f"{c:.12g}")
    return 0


def _cmd_classify(args):
    p = _problem(args)
    report = classify.classify_point(p, args.b, args.c, kmax=args.kmax)
    print(report.to_json())
    return 0


def _cmd_trace(args):
    p = _problem(args)
    branch = continuation.trace_c_of_b(
        p, args.b, args.c, (args.b_min, args.b_max),
        step=args.step, tol=args.tol, kmax=args.kmax)
    scanner.emit(branch, args.format, args.output)
    return 0


def _cmd_scan(args):
    p = _problem(args)
    result = scanner.scan(p, args.b_min, args.b_max, args.columns,
                          c_grid_n=args.c_grid, tol=args.tol)
    scanner.emit(result, args.format, args.output)
    return 0


def _cmd_guaranteed(args):
    if (args.b_min is None) != (args.b_max is None):
        raise ValueError("--b-min and --b-max must be given together")
    p = _problem(args)
    b_range = None if args.b_min is None else (args.b_min, args.b_max)
    c0, k, branch = classify._guaranteed_branch(p, b_range, args.step, args.kmax, args.tol)
    print(json.dumps({"c0": c0, "k": k, "points": len(branch.points)}))
    if args.output:
        scanner.emit(branch, args.format, args.output)
    return 0


def _cmd_fixed_point(args):
    tape1 = expr.lower(expr.parse(args.f1))
    tape2 = expr.lower(expr.parse(args.f2))

    def F(x, y):
        # the solver reads F_x only at a single x: on an x-box f1 gives its
        # value alone, unchecked, and where that is not finite the box shrinks
        v2, d2 = tape2.checked_run(y, 2)
        if not isinstance(x, float):
            return tape1.run(x, 1)[0] - v2, math.nan, -d2
        v1, d1 = tape1.checked_run(x, 2)
        return v1 - v2, d1, -d2

    y = solver.implicit_solve(F, args.x0, args.y0, args.x, args.tol)
    print(f"{y:.15g}")
    return 0


_COMMANDS = {
    "abscissae": _cmd_abscissae,
    "classify": _cmd_classify,
    "trace": _cmd_trace,
    "scan": _cmd_scan,
    "guaranteed": _cmd_guaranteed,
    "fixed-point": _cmd_fixed_point,
}


def _escape_expr_values(argv):
    """Let expression values start with '-' (e.g. -f "-x^2+2*x")."""
    flags = {"-f": "--function", "--function": "--function",
             "--f1": "--f1", "--f2": "--f2"}
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in flags else None
        yield tok if value is None else f"{flags[tok]}={value}"


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_escape_expr_values(argv))
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except MvaError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # OSError: an output file that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

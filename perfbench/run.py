"""Run one workload of the mvabscissa benchmark and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory.  One process and one thread drive the library in a closed loop:
each operation starts after the last one has returned and its output has
been consumed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import tracemalloc
from time import perf_counter

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 31
MB = 1e6


def setup(workload, spec):
    """Import the package afresh and build the workload's operations.
    Returns the seconds it took, the package and the operations."""
    for name in [m for m in sys.modules if m == "mvabscissa" or m.startswith("mvabscissa.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    mva = importlib.import_module("mvabscissa")
    importlib.import_module("mvabscissa.cli")
    ops = workloads.build(workload, mva, spec, OUT)
    return perf_counter() - t0, mva, ops


def run_pass(ops, tracer=None):
    """Every operation once; returns their latencies in seconds and answers."""
    gc.collect()
    latencies, answers = [], []
    for op in ops:
        t0 = perf_counter()
        out = op.call() if tracer is None else tracer.root(op.call)
        latencies.append(perf_counter() - t0)
        answers.append(out)
    return latencies, answers


def peak_alloc(ops):
    """The largest tracemalloc peak of any one operation, and the answers."""
    tracemalloc.start()
    peaks, answers = [], []
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            answers.append(op.call())
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks), answers


def changed(ops, answers, reference):
    """Names of the operations whose answer differs from the reference."""
    return {op.name for op, (a, _), (want, _) in zip(ops, answers, reference) if a != want}


def check(ops, reference, unstable):
    """Check the reference answers against the oracles; the operations in
    unstable gave another answer in some pass.  Returns (correct, failed
    operations per pass)."""
    correct, failed = not unstable, 0
    for name in sorted(unstable):
        print(f"WRONG: {name}: the answer changed between passes", file=sys.stderr)
    for op, (answer, aux) in zip(ops, reference):
        try:
            op.check(answer, aux)
        except oracles.NoAnswer as e:
            failed += 1
            print(f"failed: {op.name}: {e}", file=sys.stderr)
        except oracles.Mismatch as e:
            correct = False
            print(f"WRONG: {op.name}: {e}", file=sys.stderr)
    return correct, failed


def untraced(args, spec):
    times = []

    def set_up():
        t, _mva, ops = setup(args.workload, spec)
        times.append(t)
        return ops

    ops = set_up()
    warm = run_pass(ops)[1]

    passes, latencies, unstable = 0, [], set()
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        # the set-ups are spread over the loop, so that their median sees the
        # machine as the passes do; each pass runs on the latest import
        share = min(1.0, (perf_counter() - start) / args.seconds)
        while len(times) < 1 + (SETUP_REPEATS - 1) * share:
            ops = set_up()
        lat, ans = run_pass(ops)
        passes += 1
        latencies += lat
        unstable |= changed(ops, ans, warm)
    while len(times) < SETUP_REPEATS:
        ops = set_up()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    alloc, ans = peak_alloc(ops)
    unstable |= changed(ops, ans, warm)

    correct, failed = check(ops, warm, unstable)
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_alloc_mb": (alloc / MB, "MB"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"{args.workload}: {passes} passes of {len(ops)} operations")
    return correct, passes * len(ops), passes * failed, metrics


def traced(args, spec):
    _, mva, ops = setup(args.workload, spec)
    warm = run_pass(ops)[1]
    tracer = tracing.Tracer(mva)

    pairs, ratios, marks, unstable = 0, [], [], set()
    start = perf_counter()
    while not pairs or perf_counter() - start < args.seconds:
        times = {}
        for on in ((False, True) if pairs % 2 == 0 else (True, False)):
            if on:
                tracer.install()
            lo = tracer.mark()
            try:
                lat, ans = run_pass(ops, tracer if on else None)
            finally:
                tracer.remove()
            if on:
                marks.append((lo, tracer.mark()))
            times[on] = sum(lat)
            unstable |= changed(ops, ans, warm)
        ratios.append(times[True] / times[False])
        pairs += 1

    correct, failed = check(ops, warm, unstable)
    per_pass = [tracer.metrics(lo, hi) for lo, hi in marks]
    metrics = {}
    for name, _span, stat in tracing.METRICS:
        values = [m[name] for m in per_pass]
        if stat == "self_ms":
            metrics[name] = (statistics.median(values), "ms")
        else:
            if len(set(values)) != 1:
                print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
            metrics[name] = (values[0], tracing.UNITS.get(stat, "count"))
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
    tracer.save(path)
    print(f"{args.workload}: {pairs} pairs of an untraced and a traced pass; "
          f"tracing overhead {100 * (statistics.median(ratios) - 1):.1f} % "
          f"(median of the pairs); spans in {os.path.relpath(path)}")
    return correct, 2 * pairs * len(ops), 2 * pairs * failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("scan", "trace", "point"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mvabscissa", "__init__.py")):
        print(f"error: no mvabscissa package in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    spec = workloads.inputs(args.workload, args.seed)
    correct, attempted, failed, metrics = (traced if args.trace else untraced)(args, spec)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of each benchmark workload passes the benchmark's own oracles.

`perfbench/run.py` checks every answer of a run against `perfbench/oracles.py`
and reports a wrong one as an incorrect run; this runs the same operations
and checks once, at seed 1, so that a wrong answer shows before a run.
"""

import importlib
import tracemalloc
from pathlib import Path

import pytest

import mvabscissa as mva
import mvabscissa.cli  # noqa: F401  (the CLI operations call mva.cli.run)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["scan", "trace", "point"])
def test_one_pass_passes_the_oracles(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    oracles = importlib.import_module("oracles")
    ops = workloads.build(workload, mva, workloads.inputs(workload, 1), str(tmp_path))
    wrong = []
    for op in ops:
        answer, aux = op.call()
        try:
            op.check(answer, aux)
        except oracles.Mismatch as e:  # NoAnswer among them
            wrong.append(f"{op.name}: {type(e).__name__}: {e}")
    assert wrong == []


def _operation_peaks(workload, tmp_path, monkeypatch):
    """The tracemalloc peak, in MB, of each operation of one seed-1 pass of
    workload, after a warm-up pass: what `perfbench/run.py` reports the
    largest of as peak_alloc_mb."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.build(workload, mva, workloads.inputs(workload, 1), str(tmp_path))
    for op in ops:  # warm: the compiled runs, as the benchmark's warm-up pass
        op.call()
    peaks = {}
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op.call()
            peaks[op.name] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    return peaks


def test_no_trace_operation_peaks_above_its_memory_bound(tmp_path, monkeypatch):
    # the largest, 0.133 MB (`guaranteed x^4` and `guaranteed sin`): a
    # branch evaluates its piece's grid in blocks, not in one array call
    peaks = _operation_peaks("trace", tmp_path, monkeypatch)
    assert {name: peak for name, peak in peaks.items() if peak > 0.17} == {}


def test_no_scan_operation_peaks_above_its_memory_bound(tmp_path, monkeypatch):
    # the largest, 5.31 MB (`scan sin(10*x)`, 7710 points): a result's
    # points are arrays from the solver to the writers, which keep one set
    # of texts for CSV and JSON
    peaks = _operation_peaks("scan", tmp_path, monkeypatch)
    assert {name: peak for name, peak in peaks.items() if peak > 5.5} == {}

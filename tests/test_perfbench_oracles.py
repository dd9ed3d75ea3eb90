"""One pass of each benchmark workload passes the benchmark's own oracles.

`perfbench/run.py` checks every answer of a run against `perfbench/oracles.py`
and reports a wrong one as an incorrect run; this runs the same operations
and checks once, at seed 1, so that a wrong answer shows before a run.
"""

import importlib
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

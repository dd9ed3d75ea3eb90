"""perfbench's tracer finds every layer it wraps, so a traced run can start.

The tracer replaces module attributes of the package by name; a layer that
is renamed or removed makes `perfbench/run.py --trace 1` fail at start-up.
"""

import importlib.util
from pathlib import Path

import mvabscissa as mva
import mvabscissa.cli  # noqa: F401  (cli.run is a traced layer)

from conftest import CUBIC, cubic_upper

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_puts_it_back():
    tracing = _load_tracing()
    originals = {}
    for mod, fn, _ in tracing.LAYERS:
        owner = getattr(mva, mod)
        *cls, attr = fn.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        originals[mod, fn] = owner, attr, owner.__dict__[attr]
    tracer = tracing.Tracer(mva)
    tracer.install()
    try:
        for owner, attr, original in originals.values():
            assert owner.__dict__[attr].__wrapped__ is original
        # the solver reaches big_f through mvt, where the tracer sees it
        p = mva.Problem(mva.parse(CUBIC), 0.0, 3.0)
        F = mva.mvt.mean_value_implicit(p)
        tracer.root(lambda: mva.solver.implicit_solve(F, 2.5, cubic_upper(2.5), 2.6))
        metrics = tracer.metrics(0, tracer.mark())
    finally:
        tracer.remove()
    for owner, attr, original in originals.values():
        assert owner.__dict__[attr] is original
    assert metrics["solver.implicit_solve.calls"] == 1
    assert metrics["solver.certify_neighborhood.calls"] >= 1
    assert metrics["mvt.big_f.scalar_calls"] > 0
    assert metrics["mvt.big_f.array_elems"] > 0

"""The library depends on numpy only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_mpmath_or_sympy():
    code = ("import sys, mvabscissa, mvabscissa.cli; print(mvabscissa.__file__); "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'mpmath', 'sympy'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert Path(out[0]).resolve().is_relative_to(SRC)
    assert out[1] == "[]"


def test_reimport_frees_the_old_package():
    # a re-import, as a benchmark's fresh set-up does, must leave nothing that
    # keeps the old modules alive, such as typing's cache of Union[...]
    code = ("import gc, sys, weakref, mvabscissa as mva, mvabscissa.cli\n"
            "p = mva.Problem(mva.parse('x^3 - 3*x^2 + 2*x'), 0.0, 3.0)\n"
            "mva.trace_c_of_b(p, 3.0, 2.0, (2.5, 3.5), step=0.1)\n"
            "old = weakref.ref(mva.expr.Const)\n"
            "del p, mva\n"
            "for name in [m for m in sys.modules if m.split('.')[0] == 'mvabscissa']:\n"
            "    del sys.modules[name]\n"
            "import mvabscissa\n"
            "gc.collect()\n"
            "print(old() is None)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert out == ["True"]


def test_import_builds_no_parser():
    # the CLI's parser is built on its first use, then kept
    code = ("import mvabscissa.cli as cli; print(cli.build_parser.cache_info().currsize); "
            "print(cli.build_parser() is cli.build_parser())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.splitlines()
    assert out == ["0", "True"]

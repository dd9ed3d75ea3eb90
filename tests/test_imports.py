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

"""The library depends on numpy only."""

import ast
import enum
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mvabscissa

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


def test_every_public_name_resolves():
    # a name dropped from the imports but left in __all__ breaks only
    # `from mvabscissa import *`
    missing = [name for name in mvabscissa.__all__ if not hasattr(mvabscissa, name)]
    assert missing == []
    assert len(set(mvabscissa.__all__)) == len(mvabscissa.__all__)
    namespace = {}
    exec("from mvabscissa import *", namespace)
    assert set(mvabscissa.__all__) <= set(namespace)


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


def test_every_imported_name_is_used():
    # no linter runs on the package, so an import left behind by a removal
    # would go unnoticed
    unused = []
    for path in sorted((SRC / "mvabscissa").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_helper_is_used():
    # nor would a private function, class or method whose last caller went,
    # or a private module-level constant whose last reader went
    trees = [ast.parse(path.read_text()) for path in sorted((SRC / "mvabscissa").glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {n.name for n in nodes
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {n.id for tree in trees for stmt in tree.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                for n in ast.walk(target) if isinstance(n, ast.Name)}
    used = ({n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert sorted(private - used) == []


# every parameter with a default, of every public callable but the enum: an
# option added or removed must edit this table.  It held 43 before
# SolverConfig went and the options that every caller left at their
# defaults became constants, then 32 until a result's points became its
# required arrays; it holds 29.
OPTIONS = {
    "DegeneracyReport": (),
    "classify_point": ("kmax",),
    "find_extremal_abscissa": ("kmax",),
    "guaranteed_branch": ("b_range", "step", "kmax", "tol"),
    "morse_coordinates": (),
    "Branch": ("seed_index", "stop_lower", "stop_upper", "seed_case", "parameter"),
    "branch_seeds_after_degeneracy": ("step0",),
    "trace_b_of_c": ("step",),
    "trace_c_of_b": ("step", "tol", "kmax"),
    "evaluate": (),
    "jet_eval": (),
    "parse": (),
    "to_string": (),
    "Problem": ("domain",),
    "SolutionPoint": (),
    "abscissae": ("tol", "grid_n"),
    "big_f": (),
    "g1_g2": (),
    "mean_value_implicit": (),
    "normalize": (),
    "solution_point": (),
    "ScanResult": ("degenerate_columns",),
    "emit": (),
    "scan": ("c_grid_n", "tol"),
    "IterationTrace": ("iterates", "residuals", "converged"),
    "build_k": (),
    "certify_neighborhood": (),
    "fixed_point": ("tol", "max_iter", "y_start"),
    "implicit_derivative": (),
    "implicit_solve": ("tol",),
}


def test_options_inventory():
    got = {}
    for name in mvabscissa.__all__:
        obj = getattr(mvabscissa, name)
        if not callable(obj) or isinstance(obj, enum.EnumMeta):
            continue
        params = inspect.signature(obj).parameters.values()
        got[name] = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
    assert got == OPTIONS

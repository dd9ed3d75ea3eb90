"""Mean value abscissae: implicit solving, classification, and branch tracing."""

from . import errors
from .classify import (Case, DegeneracyReport, classify_point,
                       find_extremal_abscissa, guaranteed_branch,
                       morse_coordinates)
from .continuation import (Branch, branch_seeds_after_degeneracy,
                           trace_b_of_c, trace_c_of_b)
from .expr import ExprNode, evaluate, jet_eval, parse, to_string
from .mvt import (Problem, SolutionPoint, abscissae, big_f, g1_g2,
                  mean_value_implicit, normalize, solution_point)
from .scanner import ScanResult, emit, scan
from .solver import (IterationTrace, SolverConfig, build_k,
                     certify_neighborhood, fixed_point, implicit_derivative,
                     implicit_solve)

__all__ = [
    "Case", "DegeneracyReport", "classify_point", "find_extremal_abscissa",
    "guaranteed_branch", "morse_coordinates",
    "Branch", "branch_seeds_after_degeneracy", "trace_b_of_c", "trace_c_of_b",
    "ExprNode", "evaluate", "jet_eval", "parse", "to_string",
    "Problem", "SolutionPoint", "abscissae", "big_f", "g1_g2",
    "mean_value_implicit", "normalize", "solution_point",
    "ScanResult", "emit", "scan",
    "IterationTrace", "SolverConfig", "build_k",
    "certify_neighborhood", "fixed_point", "implicit_derivative",
    "implicit_solve",
    "errors",
]

__version__ = "0.1.0"

"""The jet tape against the recursive evaluator it replaced, bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvabscissa import expr

import reference_jet

# nonnegative, so that every tree prints and parses back to itself: the
# parser reads a negative number as a negation
CONSTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 2.5]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False))

# exponents of each kind: integer, odd root and general (0.5 and 1.5 are
# even roots, which take the general path)
_third = expr.Binary("/", expr.Const(1.0), expr.Const(3.0))
EXPONENTS = st.sampled_from([
    expr.Const(0.0), expr.Const(1.0), expr.Const(2.0), expr.Const(3.0), expr.Const(5.0),
    expr.Unary("neg", expr.Const(2.0)), _third, expr.Unary("neg", _third),
    expr.Binary("/", expr.Const(2.0), expr.Const(3.0)), expr.Const(0.5), expr.Const(1.5)])


def _extend(children):
    return st.one_of(
        st.builds(expr.Unary, st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"]),
                  children),
        st.builds(expr.Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(expr.Binary, st.just("^"), children, st.one_of(EXPONENTS, children)))


TREES = st.recursive(st.one_of(st.just(expr.Var()), CONSTS.map(expr.Const)),
                     _extend, max_leaves=10)
POINTS = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _outcome(jet_eval, f, x0, n):
    """The coefficients of the jet, or the type of the exception raised."""
    with np.errstate(all="ignore"):
        try:
            return jet_eval(f, x0, n).coeffs
        except Exception as e:  # the types themselves are compared
            return type(e)


def _same(a, b):
    """Equal bit for bit: type, shape, value and sign of zero."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return len(a) == len(b) and all(
        type(u) is type(v) and np.shape(u) == np.shape(v) and np.array_equal(u, v)
        and np.array_equal(np.signbit(u), np.signbit(v)) for u, v in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(TREES, POINTS, st.lists(POINTS, min_size=1, max_size=4))
# products that are -0.0, which the sums of jet products turn into 0.0
@example(expr.Binary("*", expr.Const(0.0), expr.Var()), -1.0, [-1.0, 2.0])
@example(expr.Binary("*", expr.Var(), expr.Binary("-", expr.Var(), expr.Var())), -1.0, [-2.0])
def test_tape_matches_the_recursive_evaluator(tree, x, xs):
    tape = expr.lower(tree)
    for x0 in (x, np.array(xs)):
        for n in range(4):
            want = _outcome(reference_jet.jet_eval, tree, x0, n)
            assert _same(_outcome(expr.jet_eval, tape, x0, n), want), (tree, x0, n)
            assert _same(_outcome(expr.jet_eval, tree, x0, n), want), (tree, x0, n)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_print_parse_round_trip(tree):
    assert expr.parse(expr.to_string(tree)) == tree


def test_every_kind_of_power_is_lowered_once():
    tape = expr.lower(expr.parse("x^3 + x^(-2) + x^(1/3) + x^0.5 + x^x"))
    kinds = [getattr(fn, "func", fn).__name__ for _, fn in tape.steps]
    assert kinds.count("_ipow") == 1
    assert kinds.count("_inverse_ipow") == 1
    assert kinds.count("_odd_root") == 1
    # x^0.5 and x^x: the log of the base, then exp of the product with the exponent
    assert kinds.count("_log_base") == kinds.count("_exp_product") == 2

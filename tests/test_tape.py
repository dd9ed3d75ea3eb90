"""The jet tape against the recursive evaluators it replaced, bit for bit,
and values against the jets of the same tape."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvabscissa as mva
from mvabscissa import expr, mvt
from mvabscissa.errors import DomainError

import reference_jet
import reference_value

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

# x^(0.1^(4^5)): a positive exponent with an even denominator whose float is 0.0
_underflowing_power = expr.Binary("^", expr.Var(), expr.Binary(
    "^", expr.Const(0.1), expr.Binary("^", expr.Const(4.0), expr.Const(5.0))))


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
    """The coefficients of the jet, or the type and message of the exception
    raised."""
    with np.errstate(all="ignore"):
        try:
            return jet_eval(f, x0, n)
        except Exception as e:  # the types and messages themselves are compared
            return type(e), str(e)


# the checks of a jet whose value is defined but whose derivative is not:
# at width 1, a value, they give way to those of reference_value
DERIVATIVE_ONLY = ("sqrt of nonpositive value (derivative undefined at 0)",
                   "root of zero (derivative undefined)",
                   "nonpositive base with non-odd-rational exponent")


def _derivative_only(outcome):
    return isinstance(outcome[0], type) and outcome[1].startswith(DERIVATIVE_ONLY)


def _reference_value(tree, x0):
    """reference_value's value of tree at x0, or None where it is not finite."""
    with np.errstate(all="ignore"):
        try:
            ref = reference_value.evaluate(tree, x0)
        except (DomainError, ZeroDivisionError, OverflowError):
            return None  # a float power of zero, or one past the float range
    return ref if np.all(np.isfinite(ref)) else None


def _near_value(got, tree, x0):
    """An order-0 outcome within 1e-12 of reference_value where it is finite,
    else a DomainError."""
    ref = _reference_value(tree, x0)
    if ref is None:
        return got[0] is DomainError
    return not isinstance(got[0], type) and bool(
        np.all(np.abs(got[0] - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))))


def _same(a, b):
    """Equal bit for bit: type, shape, value and sign of zero; or the same
    exception type and message."""
    if isinstance(a[0], type) or isinstance(b[0], type):
        return isinstance(a[0], type) and isinstance(b[0], type) and a == b
    return len(a) == len(b) and all(
        type(u) is type(v) and np.shape(u) == np.shape(v) and np.array_equal(u, v)
        and np.array_equal(np.signbit(u), np.signbit(v)) for u, v in zip(a, b))


def _on_stack(tape, x0, n):
    """jet_eval with every width run on the stack, none compiled."""
    with mock.patch.object(expr, "_COMPILED_STEPS", 0):
        return expr.jet_eval(tape, x0, n)


@settings(max_examples=300, deadline=None)
@given(TREES, POINTS, st.lists(POINTS, min_size=1, max_size=4))
# products that are -0.0, which the sums of jet products turn into 0.0
@example(expr.Binary("*", expr.Const(0.0), expr.Var()), -1.0, [-1.0, 2.0])
@example(expr.Binary("*", expr.Var(), expr.Binary("-", expr.Var(), expr.Var())), -1.0, [-2.0])
# constants that keep their type and sign of zero
@example(expr.Const(3), 0.0, [1.0])
@example(expr.Binary("-", expr.Const(-0.0), expr.Var()), 0.0, [0.0, 1.0])
# each domain check, on a float and on an array with one bad point
@example(expr.Unary("log", expr.Var()), 0.0, [1.0, -1.0])
@example(expr.Unary("sqrt", expr.Var()), 0.0, [1.0, -1.0])
@example(expr.Binary("/", expr.Const(1.0), expr.Var()), 0.0, [1.0, 0.0])
@example(expr.Binary("^", expr.Var(), expr.Unary("neg", expr.Const(2.0))), 0.0, [1.0, 0.0])
@example(expr.Binary("^", expr.Var(), _third), 0.0, [1.0, 0.0])
@example(expr.Binary("^", expr.Var(), expr.Const(0.5)), -1.0, [1.0, 0.0])
@example(expr.Binary("^", expr.Var(), expr.Var()), 0.0, [1.0, -2.0])
# the folds of a traced run: an inf factor of a dropped product with a
# structural zero, results of -0.0 (and -0.0 minus a product of -0.0 and a
# structural zero, which is +0.0), a dropped numpy scalar, checks of
# constants that always fail, and a Const(0.0) factor, no structural zero
@example(expr.Binary("*", expr.Const(2.0),
                     expr.Unary("exp", expr.Unary("exp", expr.Unary("exp", expr.Var())))),
         2.0, [2.0, 0.0])
@example(expr.Binary("/", expr.Unary("neg", expr.Binary("*", expr.Var(), expr.Var())),
                     expr.Const(2.0)), 0.0, [-0.0, 0.0])
@example(expr.Binary("*", expr.Const(2.0), expr.Unary("log", expr.Var())), 2.0, [2.0])
@example(expr.Binary("^", expr.Const(0.0), expr.Var()), 1.0, [1.0, -2.0])
@example(expr.Binary("/", expr.Binary("^", expr.Var(), expr.Var()), expr.Const(0.0)),
         1.0, [1.0, -1.0])
@example(expr.Binary("*", expr.Var(), expr.Const(0.0)), -1.0, [-1.0, 2.0])
# a value with no derivative whose reference value overflows a Python float
@example(expr.Binary("+", expr.Binary("^", expr.Binary("/", expr.Const(0.5), expr.Var()),
                                      expr.Const(2.0)),
                     expr.Binary("^", expr.Var(), expr.Var())),
         -9.247079215165566e-210, [0.0])
# a positive even-root power whose float underflows to 0.0: 0.0 ** 0.0 at a zero base
@example(_underflowing_power, 0.0, [0.0, 1.0])
@example(_underflowing_power, 0.5, [0.5, 2.0])
# an even-root power of a zero base under a negative exponent, raised to 0:
# undefined, on a float and on an array alike
@example(expr.Binary("^", expr.Binary("^", expr.Var(), expr.Binary("-", expr.Const(0.0),
                                                                    expr.Const(0.5))),
                     expr.Const(0.0)), 0.0, [0.0])
def test_tape_matches_the_recursive_evaluator(tree, x, xs):
    tape = expr.lower(tree)
    for x0 in (x, np.array(xs)):
        for n in range(4):
            want = _outcome(reference_jet.jet_eval, tree, x0, n)
            for jet_eval, f in ((expr.jet_eval, tape), (expr.jet_eval, tree), (_on_stack, tape)):
                got = _outcome(jet_eval, f, x0, n)
                if n == 0 and _derivative_only(want):
                    # a value with no derivative
                    assert _near_value(got, tree, x0), (tree, x0, got)
                else:
                    assert _same(got, want), (tree, x0, n)


# trees of +, -, *, / and integer powers, whose jets at a float point hold
# only Python floats: where these are finite, _mul and _div leave out their
# products with the zeros that end a wide jet
RATIONAL_TREES = st.recursive(
    st.one_of(st.just(expr.Var()), CONSTS.map(expr.Const)),
    lambda children: st.one_of(
        st.builds(expr.Unary, st.just("neg"), children),
        st.builds(expr.Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(expr.Binary, st.just("^"), children, st.sampled_from(
            [expr.Const(0.0), expr.Const(2.0), expr.Const(3.0),
             expr.Unary("neg", expr.Const(2.0))]))),
    max_leaves=10)

_x = expr.Var()


@settings(max_examples=300, deadline=None)
@given(st.one_of(RATIONAL_TREES, TREES), POINTS, st.lists(POINTS, min_size=1, max_size=4),
       st.integers(expr.COMPILED_WIDTH + 1, expr.MAX_JET_ORDER + 1))
# products of -0.0 with a zero past the last nonzero coefficient
@example(expr.Binary("*", expr.Unary("neg", _x), _x), 1.0, [1.0, -2.0], 6)
@example(expr.Binary("*", expr.Const(0.0), _x), -1.0, [-1.0, 2.0], 5)
# -0.0 in a numerator, where 0.0 - (-0.0) would make the difference +0.0
@example(expr.Binary("/", expr.Unary("neg", expr.Binary("*", _x, _x)), expr.Const(2.0)),
         0.0, [-0.0, 0.0], 5)
@example(expr.Binary("/", expr.Unary("neg", expr.Binary("*", _x, _x)),
                     expr.Binary("+", _x, expr.Const(1.0))), 0.0, [0.0, 1.0], 7)
# a live coefficient that overflows to inf
@example(expr.Binary("*", expr.Binary("*", expr.Const(1e200), _x),
                     expr.Binary("*", expr.Const(1e200), _x)), 1.0, [1.0, 2.0], 4)
@example(expr.Binary("/", expr.Const(1.0), expr.Binary("*", expr.Const(1e-300),
                                                       expr.Binary("+", _x, expr.Const(1.0)))),
         -0.99, [-0.99, 0.5], 8)
# an int constant, whose jet is not all floats
@example(expr.Binary("*", expr.Const(3), expr.Binary("*", _x, _x)), 1.5, [1.5, -2.0], 5)
def test_wide_jets_match_the_recursive_evaluator(tree, x, xs, width):
    # wider than COMPILED_WIDTH, jets run on the stack
    tape = expr.lower(tree)
    for x0 in (x, np.array(xs)):
        want = _outcome(reference_jet.jet_eval, tree, x0, width - 1)
        assert _same(_outcome(expr.jet_eval, tape, x0, width - 1), want), (tree, x0, width)


def test_a_quotient_that_overflows_keeps_its_products_with_zeros():
    # 1 / (1e-300 + x) overflows at its second coefficient, so the dense
    # loop's -inf * 0.0 makes the fourth a NaN, which skipping it would not
    a, b = [1.0, 0.0, 0.0, 0.0], [1e-300, 1.0, 0.0, 0.0]
    got, want = expr._div(a, b), reference_jet._div(a, b)
    assert math.isinf(got[1]) and math.isnan(got[3])
    assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]


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


def _counting_compiles(monkeypatch):
    """An empty tape cache, and the widths of the runs compiled from now on."""
    widths = []
    compile_run = expr._compile_run

    def counting(steps, width):
        widths.append(width)
        return compile_run(steps, width)

    monkeypatch.setattr(expr, "_compile_run", counting)
    monkeypatch.setattr(expr, "_TAPES", {})
    return widths


def test_signed_zero_constants_keep_their_own_code(monkeypatch):
    # Const(-0.0) == Const(0.0), but -0.0 - x and 0.0 - x differ at x = 0
    minus, plus = (expr.Binary("-", expr.Const(z), expr.Var()) for z in (-0.0, 0.0))
    for trees in ((minus, plus), (plus, minus)):
        monkeypatch.setattr(expr, "_TAPES", {})
        for tree in trees:
            for n in range(3):
                want = _outcome(reference_jet.jet_eval, tree, 0.0, n)
                assert _same(_outcome(expr.jet_eval, tree, 0.0, n), want), (tree, n)
    assert np.signbit(expr.jet_eval(minus, 0.0, 0)[0])
    assert not np.signbit(expr.jet_eval(plus, 0.0, 0)[0])


def test_normalized_problems_compile_once(monkeypatch):
    p = mva.Problem(mva.parse("x^5/5 - 1.6*x^4 + (14/3)*x^3 - 6.4*x^2 + 4.2*x"), 0.0, 3.0)
    widths = _counting_compiles(monkeypatch)
    first, second = mvt.normalize(p), mvt.normalize(p)  # values on the domain
    assert first.f == second.f and first.f is not second.f
    for q in (first, second):
        mvt.big_f(q, 2.5, 1.0)  # jets of width 2 at b and 3 at c
    assert sorted(widths) == [1, 2, 3]


def test_parses_of_one_text_compile_once(monkeypatch):
    widths = _counting_compiles(monkeypatch)
    for _ in range(2):
        expr.jet_eval(expr.parse("sin(x)*x^2 + 1/x"), 0.5, 2)
    assert widths == [3]


def test_tape_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(expr, "_TAPES", {})
    trees = [expr.Binary("+", expr.Var(), expr.Const(float(i)))
             for i in range(expr._TAPES_KEPT + 5)]
    tapes = [expr.lower(t) for t in trees]
    assert len(expr._TAPES) == expr._TAPES_KEPT
    assert expr.lower(trees[-1]) is tapes[-1]
    assert expr.lower(trees[0]) is not tapes[0]


def test_long_tapes_run_on_the_stack(monkeypatch):
    widths = _counting_compiles(monkeypatch)
    monkeypatch.setattr(expr, "_COMPILED_STEPS", 5)
    tree = expr.parse("sin(x)*x^2 + 1/x")
    assert len(expr.lower(tree).steps) > 5
    for n in range(3):
        want = _outcome(reference_jet.jet_eval, tree, 0.5, n)
        assert _same(_outcome(expr.jet_eval, tree, 0.5, n), want)
    assert widths == []


@settings(max_examples=300, deadline=None)
@given(TREES, POINTS, st.lists(POINTS, min_size=1, max_size=4))
@example(expr.Unary("sqrt", expr.Var()), -0.0, [0.0, 1.0])
@example(expr.Binary("^", expr.Var(), _third), -1.0, [-1.0, 0.0])
def test_value_is_the_order_0_jet(tree, x, xs):
    tape = expr.lower(tree)
    for x0 in (x, np.array(xs)):
        for n in range(4):
            with np.errstate(all="ignore"):
                try:
                    want = expr.jet_eval(tape, x0, n)[0]
                except DomainError:
                    continue
                got = expr.evaluate(tree, x0)
            assert _same((got,), (want,)), (tree, x0, n)


@pytest.mark.parametrize("on_stack", [False, True], ids=["compiled", "stack"])
def test_sqrt_names_a_negative_base_at_every_width(on_stack, monkeypatch):
    # a negative base has no value, so no jet; a zero base has a value alone
    if on_stack:
        monkeypatch.setattr(expr, "_COMPILED_STEPS", 0)
    tape = expr.lower(expr.parse("sqrt(x)"))
    for width in range(1, 6):
        for x in (-1.0, np.array([0.0, -1.0])):
            with pytest.raises(DomainError, match="^sqrt of negative value in 'sqrt.x.'$"):
                tape.run(x, width)
        if width > 1:
            with pytest.raises(DomainError, match="derivative undefined at 0"):
                tape.run(0.0, width)
    assert tape.run(0.0, 1) == [0.0]


def test_a_float_and_an_array_give_the_same_values():
    f = expr.parse("x^3 - 3*x^2 + 2*x")
    xs = np.random.default_rng(5).uniform(-3.0, 3.0, 2000)
    values = expr.evaluate(f, xs)
    assert all(expr.evaluate(f, float(x)) == v for x, v in zip(xs, values))


@settings(max_examples=300, deadline=None)
@given(TREES, POINTS, st.sampled_from([2, 3]))
@example(expr.Unary("sin", expr.Binary("*", expr.Const(100.0), expr.Var())), 0.3, 2)
@example(expr.Unary("log", expr.Var()), 0.0, 3)
@example(expr.Binary("/", expr.Const(1.0), expr.Binary("-", expr.Var(), expr.Var())), 1.0, 2)
# 2.2250738585e-313 ^ -1 overflows to inf, and sin(inf) is a NaN whose sign
# numpy's float and array loops give differently
@example(expr.Unary("sin", expr.Binary("^", expr.Const(2.2250738585e-313), expr.Var())), -1.0, 3)
def test_a_float_and_a_one_element_array_give_the_same_bits(tree, x, width):
    # what _bisect's float route assumes: F on a float is F on that element
    # of an array, bit for bit, and fails with the same message where it fails.
    # A NaN is compared only as a NaN: IEEE 754 leaves the sign of sin(inf)'s
    # NaN unspecified, numpy's scalar and array loops differ in it, and
    # Tape.jet raises on any NaN, so no answer reads that sign
    tape = expr.lower(tree)
    with np.errstate(all="ignore"):
        on_float, on_array = (_outcome(expr.Tape.run, tape, x0, width)
                              for x0 in (x, np.array([x])))
    if isinstance(on_float[0], type) or isinstance(on_array[0], type):
        assert on_float == on_array, (tree, x)
    else:
        def bits(u):
            return "NaN" if np.isnan(u) else u.tobytes()

        assert [bits(np.float64(u)) for u in on_float] == \
            [bits(np.broadcast_to(v, (1,)).astype(float)[0]) for v in on_array], (tree, x)


@pytest.mark.parametrize("text", ["sqrt(x)", "x^(1/3)", "x^(2/3)", "x^0.5", "x^2.5",
                                  "x^(-1/3)", "x^-2", "1/x", "log(x)", "x^x",
                                  "x^(0.1^1024)"])
@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, [0.0, 1.0]], ids=repr)
@pytest.mark.parametrize("on_stack", [False, True], ids=["compiled", "stack"])
def test_value_at_the_edge_of_its_domain(text, x, on_stack, monkeypatch):
    # the value of the recursive evaluator, with its sign of zero, where that
    # is finite, and a DomainError everywhere else, with no numpy warning
    if on_stack:
        monkeypatch.setattr(expr, "_COMPILED_STEPS", 0)
    f, x = expr.parse(text), np.array(x) if isinstance(x, list) else x
    want = _reference_value(f, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(DomainError):
                expr.evaluate(f, x)
        else:
            got = expr.evaluate(f, x)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

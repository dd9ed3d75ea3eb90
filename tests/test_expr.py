"""Expression parsing, evaluation, and jet arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvabscissa import classify, expr
from mvabscissa.errors import DomainError, ExprSyntaxError, OrderOverflow

from conftest import poly_derivative, poly_text


class TestParse:
    def test_cubic_has_three_power_terms(self):
        node = expr.parse("x^3 - 3*x^2 + 2*x")
        text = expr.to_string(node)
        assert text.count("^") == 2  # x^1 prints as plain x
        assert expr.evaluate(node, 1.0) == 0.0

    def test_bare_variable(self):
        assert expr.parse("x") == expr.Var()

    def test_dangling_operator_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            expr.parse("2*")
        assert ei.value.position == 2

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("   ")

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as ei:
            expr.parse("x + foo")
        assert ei.value.position == 4

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("(x + 1")

    @pytest.mark.parametrize("text, message, position", [
        ("2 $ x", "unexpected character '$'", 2),
        ("x x", "trailing input", 2),
        ("1e999", "non-finite number '1e999'", 0),
        (")", "unexpected ')'", 0),
    ])
    def test_error_message_and_offset(self, text, message, position):
        with pytest.raises(ExprSyntaxError) as ei:
            expr.parse(text)
        assert str(ei.value) == f"{message} (at offset {position})"
        assert ei.value.position == position

    def test_trailing_whitespace_parses(self):
        assert expr.parse("x   ") == expr.Var()

    def test_power_is_right_associative(self):
        node = expr.parse("2^3^2")
        assert expr.evaluate(node, 0.0) == 512.0

    def test_unary_minus_binds_tighter_than_subtraction(self):
        node = expr.parse("-x^2")
        assert expr.evaluate(node, 3.0) == -9.0

    def test_function_calls(self):
        node = expr.parse("sin(x) + cos(x) + exp(x) + log(x) + sqrt(x)")
        v = expr.evaluate(node, 2.0)
        want = (math.sin(2) + math.cos(2) + math.exp(2)
                + math.log(2) + math.sqrt(2))
        assert abs(v - want) < 1e-14


class TestEvaluate:
    def test_cubic_root(self):
        assert expr.evaluate(expr.parse("x^3 - 3*x^2 + 2*x"), 1.0) == 0.0

    def test_parabola_vertex(self):
        assert expr.evaluate(expr.parse("-x^2 + 2*x"), 1.0) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse("1/x"), 0.0)

    def test_log_of_nonpositive(self):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse("log(x)"), -1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            expr.evaluate(expr.parse("sqrt(x)"), -4.0)

    def test_vectorized_evaluation(self):
        xs = np.linspace(-2.0, 2.0, 7)
        vs = expr.evaluate(expr.parse("x^2 - 1"), xs)
        assert np.allclose(vs, xs ** 2 - 1.0, atol=0)


class TestJetEval:
    def test_sine_maclaurin(self):
        t = expr.jet_eval(expr.parse("sin(x)"), 0.0, 5)
        want = [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0]
        assert type(t) is tuple
        assert np.allclose(t, want, atol=1e-16)

    def test_pure_quartic(self):
        t = expr.jet_eval(expr.parse("x^4"), 0.0, 4)
        assert t == (0.0, 0.0, 0.0, 0.0, 1.0)

    def test_cubic_at_two(self):
        t = expr.jet_eval(expr.parse("x^3 - 3*x^2 + 2*x"), 2.0, 2)
        assert np.allclose(t, [0.0, 2.0, 3.0], atol=1e-13)

    def test_derivative_accessor(self):
        # the j-th derivative is t_j * j!
        t = expr.jet_eval(expr.parse("exp(x)"), 0.0, 6)
        assert len(t) == 7
        for order in range(7):
            assert abs(t[order] * math.factorial(order) - 1.0) < 1e-12

    def test_order_overflow(self):
        with pytest.raises(OrderOverflow):
            expr.jet_eval(expr.parse("x"), 0.0, expr.MAX_JET_ORDER + 1)

    def test_rational_exponent_on_negative_base(self):
        # odd-denominator rational powers keep the sign of the base
        t = expr.jet_eval(expr.parse("x^(1/3)"), -8.0, 1)
        assert abs(t[0] - (-2.0)) < 1e-12
        assert abs(t[1] - 1.0 / 12.0) < 1e-12


class TestOrderOfVanishing:
    """The order of vanishing read from the coefficient tuple: a nonzero t_0,
    or classify.vanishing_order, the first t_j from j = 1 above the relative
    threshold."""

    def test_quartic_power(self):
        t = expr.jet_eval(expr.parse("x^4"), 0.0, 16)
        assert t[0] == 0.0 and classify.vanishing_order(t) == 4

    def test_nonvanishing(self):
        t = expr.jet_eval(expr.parse("exp(x)"), 0.0, 16)
        assert t[0] == 1.0 and classify.vanishing_order(t) == 1

    def test_simple_zero_of_product(self):
        t = expr.jet_eval(expr.parse("x^2*(x - 1)"), 1.0, 8)
        assert t[0] == 0.0 and classify.vanishing_order(t) == 1

    def test_all_below_threshold_returns_none(self):
        t = expr.jet_eval(expr.parse("0*x"), 0.5, 6)
        assert t[0] == 0.0 and classify.vanishing_order(t) is None

    def test_threshold_is_relative_to_the_largest_coefficient(self):
        # 1e-9 * 1e3 = 1e-6: a t_1 of 1e-7 is below it, a t_2 of 1e3 is not
        assert classify.vanishing_order((0.0, 1e-7, 1e3)) == 2
        assert classify.vanishing_order((0.0, 1e-7, 1.0)) == 1


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=9),
       st.integers(min_value=0, max_value=99))
def test_jet_matches_symbolic_polynomial_derivatives(coeffs, point_index):
    """t_j * j! equals the symbolic derivative, relative error <= 1e-10."""
    xs = np.linspace(-1.5, 1.5, 100)
    x0 = float(xs[point_index])
    node = expr.parse(poly_text(coeffs))
    n = len(coeffs) + 1
    t = expr.jet_eval(node, x0, n)
    for j in range(n + 1):
        d = poly_derivative(coeffs, j)
        want = 0.0
        for a in reversed(d):
            want = want * x0 + a
        got = float(t[j]) * math.factorial(j)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return expr.Var()
        return expr.Const(round(float(rng.uniform(-2.0, 2.0)), 3))
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice(["+", "-", "*"])
        return expr.Binary(op, _random_tree(rng, depth - 1),
                           _random_tree(rng, depth - 1))
    if roll < 0.7:
        return expr.Binary("^", _random_tree(rng, depth - 1),
                           expr.Const(float(rng.integers(0, 4))))
    if roll < 0.85:
        return expr.Unary(rng.choice(["sin", "cos", "exp"]),
                          _random_tree(rng, depth - 1))
    return expr.Unary("neg", _random_tree(rng, depth - 1))


def test_truncation_consistency_on_random_trees():
    """Jets of order n dropped to m equal jets computed directly at m."""
    rng = np.random.default_rng(20240811)
    checked = 0
    while checked < 120:
        node = _random_tree(rng, int(rng.integers(1, 7)))
        x0 = float(rng.uniform(-1.0, 1.0))
        try:
            full = expr.jet_eval(node, x0, 8)
        except DomainError:
            continue
        if not np.all(np.isfinite(full)):
            continue
        for m in (0, 2, 5):
            assert expr.jet_eval(node, x0, m) == full[:m + 1]
        checked += 1


def test_parse_print_parse_round_trip():
    corpus = [
        "x^3 - 3*x^2 + 2*x",
        "-x^2 + 2*x",
        "x^5/5 - 1.6*x^4 + (14/3)*x^3 - 6.4*x^2 + 4.2*x",
        "sin(x)*cos(x) - exp(-x)",
        "sqrt(x^2 + 1)",
        "log(x + 2)/(x - 5)",
        "x^(1/3)",
        "-(x - 1)^2*(x + 1)",
        "2^3^2 + x",
        "1e-3*x + 2.5E2",
    ]
    for s in corpus:
        first = expr.parse(s)
        assert expr.parse(expr.to_string(first)) == first


def test_random_tree_print_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        node = _random_tree(rng, int(rng.integers(1, 7)))
        first = expr.parse(expr.to_string(node))
        assert expr.parse(expr.to_string(first)) == first

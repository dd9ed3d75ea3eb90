"""The recursive value evaluator that `expr.evaluate` replaced, kept as the
reference for values where `reference_jet` has none: at a zero base, where
sqrt, odd roots and positive even-root powers have a value but no
derivative.

It walks the tree on every call and resolves each ``^`` exponent as it
goes.  The code is the original's, so that it shares nothing with the tape.
"""

from fractions import Fraction

import numpy as np

from mvabscissa.errors import DomainError
from mvabscissa.expr import Binary, Const, Unary, Var, to_string


def evaluate(f, x):
    """Evaluate f at x (scalar or numpy array)."""
    return _eval(f, x)


def _fail(node, why):
    where = f" in {to_string(node)!r}" if node is not None else ""
    raise DomainError(f"{why}{where}")


def _as_rational(node):
    """Fraction value of a constant subtree, or None if not recognizably rational."""
    if isinstance(node, Const):
        v = node.value
        if float(v).is_integer():
            return Fraction(int(v))
        fr = Fraction(v).limit_denominator(10 ** 6)
        return fr if float(fr) == v else None
    if isinstance(node, Unary) and node.op == "neg":
        fr = _as_rational(node.arg)
        return None if fr is None else -fr
    if isinstance(node, Binary):
        lf = _as_rational(node.left)
        rf = _as_rational(node.right)
        if lf is None or rf is None:
            return None
        if node.op == "+":
            return lf + rf
        if node.op == "-":
            return lf - rf
        if node.op == "*":
            return lf * rf
        if node.op == "/":
            return lf / rf if rf != 0 else None
        if node.op == "^" and rf.denominator == 1 and (lf != 0 or rf >= 0):
            return lf ** rf
        return None
    return None


def _eval(node, x):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        if node.op == "neg":
            return -_eval(node.arg, x)
        u = _eval(node.arg, x)
        if node.op == "sin":
            return np.sin(u)
        if node.op == "cos":
            return np.cos(u)
        if node.op == "exp":
            return np.exp(u)
        if node.op == "log":
            if np.any(u <= 0):
                _fail(node, "log of nonpositive value")
            return np.log(u)
        if np.any(u < 0):
            _fail(node, "sqrt of negative value")
        return np.sqrt(u)
    l = _eval(node.left, x)
    if node.op == "^":
        return _pow_value(l, node.right, x, node)
    r = _eval(node.right, x)
    if node.op == "+":
        return l + r
    if node.op == "-":
        return l - r
    if node.op == "*":
        return l * r
    if np.any(r == 0):
        _fail(node, "division by zero")
    return l / r


def _pow_value(base, exp_node, x, node):
    fr = _as_rational(exp_node)
    if fr is not None:
        if fr.denominator == 1:
            n = fr.numerator
            if n < 0 and np.any(base == 0):
                _fail(node, "zero base with negative exponent")
            return base ** float(n)
        if fr.denominator % 2 == 1:
            # odd root: sign-aware, defined for negative bases
            if fr < 0 and np.any(base == 0):
                _fail(node, "zero base with negative exponent")
            mag = np.abs(base) ** float(fr)
            return np.sign(base) * mag if fr.numerator % 2 else mag
        if np.any(base < 0):
            _fail(node, "negative base with even-root exponent")
        if fr < 0 and np.any(base == 0):
            _fail(node, "zero base with negative exponent")
        return base ** float(fr)
    e = _eval(exp_node, x)
    if np.any(base <= 0):
        _fail(node, "nonpositive base with non-rational exponent")
    return np.exp(e * np.log(base))

"""The recursive Taylor-jet evaluator that `expr.jet_eval` replaced, kept as
the reference that the tape must match bit for bit.

It walks the tree on every call and resolves each ``^`` exponent as it
goes.  The code is the original's, with its arithmetic helpers, so that a
change to the library's helpers shows as a difference.
"""

from fractions import Fraction

import numpy as np

from mvabscissa.errors import DomainError, OrderOverflow
from mvabscissa.expr import MAX_JET_ORDER, Binary, Const, Jet, Unary, Var, to_string


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



def _add(a, b):
    return [ai + bi for ai, bi in zip(a, b)]

def _sub(a, b):
    return [ai - bi for ai, bi in zip(a, b)]

def _neg(a):
    return [-ai for ai in a]

def _mul(a, b):
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]

def _div(a, b, node=None):
    if np.any(b[0] == 0):
        _fail(node, "division by zero")
    c = []
    for k in range(len(a)):
        s = a[k]
        for j in range(k):
            s = s - c[j] * b[k - j]
        c.append(s / b[0])
    return c

def _ipow(a, n):
    # repeated squaring keeps jet division out of integer powers
    result = [1.0] + [0.0] * (len(a) - 1)
    base = a
    while n:
        if n & 1:
            result = _mul(result, base)
        base = _mul(base, base)
        n >>= 1
    return result

def _exp(a):
    e = [np.exp(a[0])]
    for k in range(1, len(a)):
        s = sum(j * a[j] * e[k - j] for j in range(1, k + 1))
        e.append(s / k)
    return e

def _log(a, node=None):
    if np.any(a[0] <= 0):
        _fail(node, "log of nonpositive value")
    l = [np.log(a[0])]
    for k in range(1, len(a)):
        s = k * a[k] - sum(j * l[j] * a[k - j] for j in range(1, k))
        l.append(s / (k * a[0]))
    return l

def _sqrt(a, node=None):
    if np.any(a[0] <= 0):
        _fail(node, "sqrt of nonpositive value (derivative undefined at 0)")
    q = [np.sqrt(a[0])]
    for k in range(1, len(a)):
        s = a[k]
        for j in range(1, k):
            s = s - q[j] * q[k - j]
        q.append(s / (2.0 * q[0]))
    return q

def _sincos(a):
    s = [np.sin(a[0])]
    c = [np.cos(a[0])]
    for k in range(1, len(a)):
        sk = sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k
        ck = -sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k
        s.append(sk)
        c.append(ck)
    return s, c


def _jet(node, x0, n):
    width = n + 1
    if isinstance(node, Const):
        return [node.value] + [0.0] * (width - 1)
    if isinstance(node, Var):
        coeffs = [x0] + [0.0] * (width - 1)
        if n >= 1:
            coeffs[1] = 1.0
        return coeffs
    if isinstance(node, Unary):
        if node.op == "neg":
            return _neg(_jet(node.arg, x0, n))
        u = _jet(node.arg, x0, n)
        if node.op == "sin":
            return _sincos(u)[0]
        if node.op == "cos":
            return _sincos(u)[1]
        if node.op == "exp":
            return _exp(u)
        if node.op == "log":
            return _log(u, node)
        return _sqrt(u, node)
    if node.op == "^":
        return _pow_jet(_jet(node.left, x0, n), node, x0, n)
    l = _jet(node.left, x0, n)
    r = _jet(node.right, x0, n)
    if node.op == "+":
        return _add(l, r)
    if node.op == "-":
        return _sub(l, r)
    if node.op == "*":
        return _mul(l, r)
    return _div(l, r, node)


def _scale_jet(a, s):
    return [ai * s for ai in a]


def _pow_jet(u, node, x0, n):
    fr = _as_rational(node.right)
    if fr is not None and fr.denominator == 1:
        m = fr.numerator
        if m >= 0:
            return _ipow(u, m)
        one = [1.0] + [0.0] * (len(u) - 1)
        return _div(one, _ipow(u, -m), node)
    if fr is not None and fr.denominator % 2 == 1:
        if np.any(u[0] == 0):
            _fail(node, "root of zero (derivative undefined)")
        sgn = np.sign(u[0])
        w = [sgn * ui for ui in u]
        res = _exp(_scale_jet(_log(w, node), float(fr)))
        if fr.numerator % 2:
            res = [sgn * ri for ri in res]
        return res
    if np.any(u[0] <= 0):
        _fail(node, "nonpositive base with non-odd-rational exponent")
    e = _jet(node.right, x0, n)
    return _exp(_mul(e, _log(u, node)))


def jet_eval(f, x0, n, max_order=MAX_JET_ORDER):
    """Taylor coefficients of f at x0 up to order n, by jet arithmetic."""
    if n < 0:
        raise ValueError("jet order must be nonnegative")
    if n > max_order:
        raise OrderOverflow(f"jet order {n} exceeds maximum {max_order}")
    coeffs = _jet(f, x0, n)
    flat = np.concatenate([np.atleast_1d(np.asarray(c, dtype=float)).ravel() for c in coeffs])
    if not np.all(np.isfinite(flat)):
        raise DomainError("non-finite jet coefficient")
    return Jet(x0, tuple(coeffs))



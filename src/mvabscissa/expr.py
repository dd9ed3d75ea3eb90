"""Expression ASTs with value and truncated-Taylor (jet) evaluation.

Jets carry coefficients t_j = f^(j)(x0)/j!, propagated by exact series
recurrences along a tape, the tree lowered once to postfix steps; no symbolic
differentiation and no finite differences anywhere.  Coefficients may be
floats or numpy arrays, so a whole grid of expansion points can be evaluated
in one call.  A plain value, `evaluate`, is the jet of width 1 of the same
tape, so values and jets come from one arithmetic.  A value is checked only
where it is undefined: at a zero base, sqrt, odd roots and positive even-root
powers have the value 0 but no derivative, so only wider jets fail there.

Values and jets of orders 1-2, the ones that f' and F and its partials need,
run as straight-line Python compiled from the tape once per width, with every
recurrence written out term by term; wider jets run the tape's steps on a
stack.  Both do the same arithmetic, so they agree bit for bit.  `lower`
keeps the tapes of the trees it lowered last, keyed by repr, so equal trees,
parsed twice or rebuilt by each `mvt.normalize`, share one tape and its
compiled code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import DomainError, ExprSyntaxError, OrderOverflow

MAX_JET_ORDER = 32
# deepest expression the parser accepts, counting both the height of the tree
# and the nesting of parentheses, arguments and exponents: far beyond any
# real formula, and shallow enough for the recursive parser and tree walks
MAX_DEPTH = 64

_UNARY_FUNCS = ("sin", "cos", "exp", "log", "sqrt")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | exp | log | sqrt
    arg: "ExprNode"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "ExprNode"
    right: "ExprNode"


# a union type, not typing.Union, whose cache would keep these classes, and
# through their methods this module, alive after the package is re-imported
ExprNode = Const | Var | Unary | Binary


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion at x0: coeffs[j] = f^(j)(x0)/j!."""

    x0: float
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, j: int):
        """f^(j)(x0), recovered from the j-th coefficient."""
        fact = 1.0
        for i in range(2, j + 1):
            fact *= i
        return self.coeffs[j] * fact

    def truncate(self, m: int) -> "Jet":
        if m > self.order:
            raise ValueError("cannot extend a jet by truncation")
        return Jet(self.x0, self.coeffs[: m + 1])


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}",
                                  len(text) - len(text[pos:].lstrip()))
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0  # parentheses, arguments and exponents being parsed

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def error(self, message):
        tok = self.peek()
        pos = tok[2] if tok is not None else len(self.text)
        raise ExprSyntaxError(message, pos)

    def expect(self, op):
        tok = self.next()
        if tok is None or tok[0] != "op" or tok[1] != op:
            self.i -= tok is not None
            self.error(f"expected {op!r}")

    def within(self, depth):
        if depth > MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH}")

    def nested(self, parse):
        """parse() one level further into parentheses, an argument or an exponent."""
        self.open += 1
        self.within(self.open)
        result = parse()
        self.open -= 1
        return result

    def grown(self, node, *heights):
        """node and its height, one above its highest operand."""
        height = 1 + max(heights)
        self.within(height)
        return node, height

    # each rule returns its node and the height of its tree
    def parse(self):
        node, _ = self.expr()
        if self.peek() is not None:
            self.error("trailing input")
        return node

    def expr(self):
        node, height = self.term()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "+-":
            self.next()
            right, h = self.term()
            node, height = self.grown(Binary(tok[1], node, right), height, h)
        return node, height

    def term(self):
        node, height = self.factor()
        while (tok := self.peek()) and tok[0] == "op" and tok[1] in "*/":
            self.next()
            right, h = self.factor()
            node, height = self.grown(Binary(tok[1], node, right), height, h)
        return node, height

    def factor(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            arg, height = self.power()
            return self.grown(Unary("neg", arg), height)
        return self.power()

    def power(self):
        base, height = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            # right-associative; allow a sign on the exponent
            exponent, h = self.nested(self.factor)
            return self.grown(Binary("^", base, exponent), height, h)
        return base, height

    def atom(self):
        tok = self.next()
        if tok is None:
            self.error("unexpected end of input")
        kind, value, pos = tok
        if kind == "num":
            try:
                v = float(value)
            except ValueError:
                raise ExprSyntaxError(f"malformed number {value!r}", pos) from None
            if not np.isfinite(v):
                raise ExprSyntaxError(f"non-finite number {value!r}", pos)
            return Const(v), 1
        if kind == "ident":
            if value == "x":
                return Var(), 1
            if value in _UNARY_FUNCS:
                self.expect("(")
                arg, height = self.nested(self.expr)
                self.expect(")")
                return self.grown(Unary(value, arg), height)
            raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
        if value == "(":
            node = self.nested(self.expr)
            self.expect(")")
            return node
        self.i -= 1
        self.error(f"unexpected {value!r}")


def parse(text: str) -> ExprNode:
    """Parse an expression in the single variable x into an AST."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(node: ExprNode) -> str:
    """Render an AST back to parseable text (round-trips structurally)."""
    return _render(node, 0)


def _render(node, parent_prec):
    if isinstance(node, Const):
        v = node.value
        s = str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)
        if v < 0 and parent_prec > 1:
            s = f"({s})"
        return s
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        if node.op == "neg":
            # nested negation needs parens: "--x" does not reparse
            inner = _render(node.arg, _PREC["neg"] + 1)
            s = f"-{inner}"
            return f"({s})" if parent_prec > _PREC["neg"] else s
        return f"{node.op}({_render(node.arg, 0)})"
    prec = _PREC[node.op]
    # ^ is right-associative, the rest left-associative
    lp = prec if node.op != "^" else prec + 1
    rp = prec + 1 if node.op != "^" else prec
    s = f"{_render(node.left, lp)} {node.op} {_render(node.right, rp)}" \
        if node.op in "+-" else f"{_render(node.left, lp)}{node.op}{_render(node.right, rp)}"
    return f"({s})" if prec < parent_prec else s


# ---------------------------------------------------------------------------
# rational-exponent detection
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# jet arithmetic (coefficient lists, truncation-consistent recurrences)
# ---------------------------------------------------------------------------

def _fail(node, why):
    where = f" in {to_string(node)!r}" if node is not None else ""
    raise DomainError(f"{why}{where}")

def _any(cond):
    # np.any without its cost on a scalar condition
    return cond.any() if isinstance(cond, np.ndarray) else cond

def _add(a, b):
    return [ai + bi for ai, bi in zip(a, b)]

def _sub(a, b):
    return [ai - bi for ai, bi in zip(a, b)]

def _neg(a):
    return [-ai for ai in a]

def _mul(a, b):
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]

def _div(a, b, node=None):
    if _any(b[0] == 0):
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
    while True:
        if n & 1:
            result = _mul(result, base)
        n >>= 1
        if not n:
            return result
        base = _mul(base, base)

def _exp(a):
    e = [np.exp(a[0])]
    for k in range(1, len(a)):
        s = sum(j * a[j] * e[k - j] for j in range(1, k + 1))
        e.append(s / k)
    return e

def _log(a, node=None):
    if _any(a[0] <= 0):
        _fail(node, "log of nonpositive value")
    return _ln(a, np.log(a[0]))

def _ln(a, l0):
    # the log series from its value l0
    l = [l0]
    for k in range(1, len(a)):
        s = k * a[k] - sum(j * l[j] * a[k - j] for j in range(1, k))
        l.append(s / (k * a[0]))
    return l

def _log0(v):
    # log(0) = -inf without numpy's warning: at width 1 a root of a zero
    # base is exp(power * -inf) = 0; a wider jet fails before its log
    with np.errstate(divide="ignore"):
        return np.log(v)

def _root_log(a):
    # the log series of the base of a root, checked by the caller
    return _ln(a, np.log(a[0]) if len(a) > 1 else _log0(a[0]))

def _sqrt(a, node=None):
    # the value is defined at 0, the derivative is not
    if len(a) == 1:
        if _any(a[0] < 0):
            _fail(node, "sqrt of negative value")
    elif _any(a[0] <= 0):
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

def _sin(a):
    return _sincos(a)[0]

def _cos(a):
    return _sincos(a)[1]


# the three kinds of ^, by their exponent

def _inverse_ipow(a, n, node):
    one = [1.0] + [0.0] * (len(a) - 1)
    return _div(one, _ipow(a, n), node)

def _odd_root(a, power, odd, node):
    # a^(p/q) with q odd: sign-aware, defined for negative bases; at a zero
    # base a positive power has the value 0 but no derivative
    if len(a) > 1:
        if _any(a[0] == 0):
            _fail(node, "root of zero (derivative undefined)")
    elif power < 0 and _any(a[0] == 0):
        _fail(node, "zero base with negative exponent")
    sgn = np.sign(a[0])
    w = [sgn * ai for ai in a]
    res = _exp([li * power for li in _root_log(w)])
    return [sgn * ri for ri in res] if odd else res

def _log_base(a, node, even_root=False):
    # the base of a general power, checked before its exponent is evaluated;
    # under a positive even root, p/q with q even, a zero base has the value
    # 0 but no derivative
    if _any(a[0] < 0 if even_root and len(a) == 1 else a[0] <= 0):
        _fail(node, "nonpositive base with non-odd-rational exponent")
    return _root_log(a)

def _exp_product(log_base, e):
    return _exp(_mul(e, log_base))


# ---------------------------------------------------------------------------
# the tape
# ---------------------------------------------------------------------------

def _const(value, x0, width):
    return [value] + [0.0] * (width - 1)

def _var(x0, width):
    return [x0, 1.0] + [0.0] * (width - 2) if width > 1 else [x0]


_UNARY = {"neg": _neg, "sin": _sin, "cos": _cos, "exp": _exp}
_BINARY = {"+": _add, "-": _sub, "*": _mul}


# the widest jet a tape runs as compiled code: width 1, a value, and orders
# 1-2, the widths of f' and of F and its partials; wider jets, the series of
# classify, run a few times per problem, and their code would take longer to
# compile than to run
COMPILED_WIDTH = 3
# the longest tape compiled: Python's compiler takes time and memory in
# proportion to the code, about 50 ms and 20 MB for width 3 at this length on
# a 2-core x86-64 machine, and the length of an expression text is unbounded
_COMPILED_STEPS = 2000


class Tape:
    """An expression lowered to postfix steps for jet evaluation.

    Each step is (arity, fn): a leaf fn(x0, width) pushes a jet, and an
    operation fn(jet) or fn(left, right) replaces its operands on the stack
    with its result, so each intermediate is dropped after its only use.
    The jet of width 1 is the value: it fails only where the value is
    undefined, so a zero under sqrt, an odd root or a positive even-root
    power gives 0 there, and fails at every wider width.

    A jet of width up to COMPILED_WIDTH runs as straight-line code compiled
    from the steps once per width, when that width is first asked for; it
    does the arithmetic of the stack run exactly.  Wider jets, and every jet
    of a tape longer than _COMPILED_STEPS, run the steps on the stack.
    `lower` gives equal trees one tape, so they share its compiled code too.
    """

    __slots__ = ("steps", "_compiled")

    def __init__(self, steps: tuple):
        self.steps = steps
        self._compiled = [None] * (COMPILED_WIDTH + 1)

    def run(self, x0, width):
        """The coefficient list of the expression's jet of the given width at x0."""
        if width <= COMPILED_WIDTH and len(self.steps) <= _COMPILED_STEPS:
            run = self._compiled[width]
            if run is None:
                run = self._compiled[width] = _compile_run(self.steps, width)
            return run(x0)
        stack = []
        for arity, fn in self.steps:
            if arity == 1:
                stack[-1] = fn(stack[-1])
            elif arity == 2:
                stack[-2:] = (fn(stack[-2], stack[-1]),)
            else:
                stack.append(fn(x0, width))
        return stack[0]


# the tapes of the trees lowered last, by repr, least recent first: equal
# trees from separate parses, or from each mvt.normalize, share one tape and
# so its compiled code.  Trees that are == may need other code: Const(0.0)
# and Const(-0.0) are equal, and so are Const(1) and Const(1.0); repr tells
# them apart.
_TAPES = {}
_TAPES_KEPT = 64


def lower(f: ExprNode) -> Tape:
    """Lower f to a tape, resolving each ^ exponent once: integer, odd root
    or general.  A tree equal in repr to one lowered lately gets its tape."""
    key = repr(f)
    tape = _TAPES.pop(key, None)
    if tape is None:
        steps = []
        _emit(f, steps)
        tape = Tape(tuple(steps))
        if len(_TAPES) >= _TAPES_KEPT:
            del _TAPES[next(iter(_TAPES))]
    _TAPES[key] = tape
    return tape


def _emit(node, steps):
    if isinstance(node, Const):
        steps.append((0, partial(_const, node.value)))
    elif isinstance(node, Var):
        steps.append((0, _var))
    elif isinstance(node, Unary):
        _emit(node.arg, steps)
        fn = _UNARY.get(node.op)
        steps.append((1, fn or partial(_log if node.op == "log" else _sqrt, node=node)))
    elif node.op == "^":
        _emit(node.left, steps)
        _emit_pow(node, steps)
    else:
        _emit(node.left, steps)
        _emit(node.right, steps)
        fn = _BINARY.get(node.op)
        steps.append((2, fn or partial(_div, node=node)))


def _emit_pow(node, steps):
    fr = _as_rational(node.right)
    if fr is not None and fr.denominator == 1:
        m = fr.numerator
        steps.append((1, partial(_ipow, n=m) if m >= 0
                      else partial(_inverse_ipow, n=-m, node=node)))
    elif fr is not None and fr.denominator % 2 == 1:
        steps.append((1, partial(_odd_root, power=float(fr), odd=fr.numerator % 2 == 1,
                                 node=node)))
    else:
        # exp(e * log(base)): the exponent's own jet is needed
        steps.append((1, partial(_log_base, node=node, even_root=fr is not None and fr > 0)))
        _emit(node.right, steps)
        steps.append((2, _exp_product))


# ---------------------------------------------------------------------------
# compiled runs: one width of a tape as straight-line code
# ---------------------------------------------------------------------------

class _Source:
    """The source of a compiled run, and the namespace it runs in.

    A jet is a list of atoms: a local t<i>, the argument x0, a name k<i>
    bound in the namespace, or a literal 0.0 or 1.0.  Objects are bound, not
    printed, so that their types and signs of zero survive.
    """

    def __init__(self, width):
        self.width = width
        self.lines = []
        self.ns = {"_any": _any, "_fail": _fail, "exp": np.exp, "log": np.log,
                   "log0": _log0, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "sign": np.sign}
        self.temps = 0

    def let(self, value):
        """A new local holding value."""
        name = f"t{self.temps}"
        self.temps += 1
        self.lines.append(f"{name} = {value}")
        return name

    def bind(self, obj):
        name = f"k{len(self.ns)}"
        self.ns[name] = obj
        return name

    def check(self, cond, node, why):
        self.lines.append(f"if _any({cond}): _fail({self.bind(node)}, {why!r})")


def _sum(terms):
    # as sum() adds them: from the int 0, left to right
    return f"({' + '.join(['0', *terms])})"


# one writer per helper, taking its arguments but with jets of atoms, and
# writing its arithmetic term by term in its order; see the helpers above

def _w_const(src, value):
    return [src.bind(value), "0.0", "0.0"][:src.width]

def _w_var(src):
    return ["x0", "1.0", "0.0"][:src.width]

def _w_neg(src, a):
    return [src.let(f"-{ai}") for ai in a]

def _w_add(src, a, b):
    return [src.let(f"{ai} + {bi}") for ai, bi in zip(a, b)]

def _w_sub(src, a, b):
    return [src.let(f"{ai} - {bi}") for ai, bi in zip(a, b)]

def _w_mul(src, a, b):
    return [src.let(_sum(f"{a[j]} * {b[k - j]}" for j in range(k + 1)))
            for k in range(len(a))]

def _w_div(src, a, b, node=None):
    src.check(f"{b[0]} == 0", node, "division by zero")
    c = []
    for k in range(len(a)):
        s = a[k] + "".join(f" - {c[j]} * {b[k - j]}" for j in range(k))
        c.append(src.let(f"({s}) / {b[0]}"))
    return c

def _w_ipow(src, a, n):
    result = ["1.0"] + ["0.0"] * (len(a) - 1)
    base = a
    while True:
        if n & 1:
            result = _w_mul(src, result, base)
        n >>= 1
        if not n:
            return result
        base = _w_mul(src, base, base)

def _w_exp(src, a):
    e = [src.let(f"exp({a[0]})")]
    for k in range(1, len(a)):
        e.append(src.let(f"{_sum(f'{j} * {a[j]} * {e[k - j]}' for j in range(1, k + 1))} / {k}"))
    return e

def _w_log(src, a, node=None):
    src.check(f"{a[0]} <= 0", node, "log of nonpositive value")
    return _w_ln(src, a, src.let(f"log({a[0]})"))

def _w_ln(src, a, l0):
    l = [l0]
    for k in range(1, len(a)):
        s = f"{k} * {a[k]} - {_sum(f'{j} * {l[j]} * {a[k - j]}' for j in range(1, k))}"
        l.append(src.let(f"({s}) / ({k} * {a[0]})"))
    return l

def _w_sqrt(src, a, node=None):
    if src.width == 1:
        src.check(f"{a[0]} < 0", node, "sqrt of negative value")
    else:
        src.check(f"{a[0]} <= 0", node, "sqrt of nonpositive value (derivative undefined at 0)")
    q = [src.let(f"sqrt({a[0]})")]
    for k in range(1, len(a)):
        s = a[k] + "".join(f" - {q[j]} * {q[k - j]}" for j in range(1, k))
        q.append(src.let(f"({s}) / (2.0 * {q[0]})"))
    return q

def _w_sincos(src, a):
    # both series, as _sin and _cos compute them, so that numpy warns alike
    s = [src.let(f"sin({a[0]})")]
    c = [src.let(f"cos({a[0]})")]
    for k in range(1, len(a)):
        sk = src.let(f"{_sum(f'{j} * {a[j]} * {c[k - j]}' for j in range(1, k + 1))} / {k}")
        ck = src.let(f"-{_sum(f'{j} * {a[j]} * {s[k - j]}' for j in range(1, k + 1))} / {k}")
        s.append(sk)
        c.append(ck)
    return s, c

def _w_sin(src, a):
    return _w_sincos(src, a)[0]

def _w_cos(src, a):
    return _w_sincos(src, a)[1]

def _w_inverse_ipow(src, a, n, node):
    one = ["1.0"] + ["0.0"] * (len(a) - 1)
    return _w_div(src, one, _w_ipow(src, a, n), node)

def _w_root_log(src, a):
    return _w_ln(src, a, src.let(f"{'log0' if src.width == 1 else 'log'}({a[0]})"))

def _w_odd_root(src, a, power, odd, node):
    if src.width > 1:
        src.check(f"{a[0]} == 0", node, "root of zero (derivative undefined)")
    elif power < 0:
        src.check(f"{a[0]} == 0", node, "zero base with negative exponent")
    sgn = src.let(f"sign({a[0]})")
    w = [src.let(f"{sgn} * {ai}") for ai in a]
    p = src.bind(power)
    res = _w_exp(src, [src.let(f"{li} * {p}") for li in _w_root_log(src, w)])
    return [src.let(f"{sgn} * {ri}") for ri in res] if odd else res

def _w_log_base(src, a, node, even_root=False):
    cmp = "<" if even_root and src.width == 1 else "<="
    src.check(f"{a[0]} {cmp} 0", node, "nonpositive base with non-odd-rational exponent")
    return _w_root_log(src, a)

def _w_exp_product(src, log_base, e):
    return _w_exp(src, _w_mul(src, e, log_base))


_WRITERS = {
    _const: _w_const, _var: _w_var, _neg: _w_neg, _add: _w_add, _sub: _w_sub,
    _mul: _w_mul, _div: _w_div, _ipow: _w_ipow, _exp: _w_exp, _log: _w_log,
    _sqrt: _w_sqrt, _sin: _w_sin, _cos: _w_cos, _inverse_ipow: _w_inverse_ipow,
    _odd_root: _w_odd_root, _log_base: _w_log_base, _exp_product: _w_exp_product,
}


def _compile_run(steps, width):
    """The steps as one function of x0 that returns the coefficient list of
    the jet of the given width.  Each local is deleted after its last use,
    as the stack drops it, so that array runs hold no more memory."""
    src = _Source(width)
    stack = []
    for arity, fn in steps:
        first = src.temps
        operands = stack[len(stack) - arity:]
        del stack[len(stack) - arity:]
        write = _WRITERS[getattr(fn, "func", fn)]
        result = write(src, *getattr(fn, "args", ()), *operands, **getattr(fn, "keywords", {}))
        dead = [t for jet in operands for t in jet if t.startswith("t")]
        dead += [f"t{i}" for i in range(first, src.temps) if f"t{i}" not in result]
        if dead:
            src.lines.append(f"del {', '.join(dead)}")
        stack.append(result)
    (result,) = stack
    body = "".join(f"    {line}\n" for line in src.lines)
    code = compile(f"def run(x0):\n{body}    return [{', '.join(result)}]\n",
                   f"<tape, width {width}>", "exec")
    exec(code, src.ns)
    return src.ns["run"]


def _finite(c):
    if isinstance(c, float):
        return math.isfinite(c)
    return bool(np.all(np.isfinite(np.asarray(c, dtype=float))))


def evaluate(f: ExprNode | Tape, x):
    """The value of f at x, a float or numpy array: the jet of width 1 of
    its tape, unchecked for finiteness.

    f is an ExprNode, lowered (or its tape looked up) on every call, or the
    Tape of one.
    """
    tape = f if isinstance(f, Tape) else lower(f)
    return tape.run(x, 1)[0]


def jet_eval(f: ExprNode | Tape, x0, n: int, max_order: int = MAX_JET_ORDER) -> Jet:
    """Taylor coefficients of f at x0 up to order n, by jet arithmetic.

    f is an ExprNode, lowered (or its tape looked up) on every call, or the
    Tape of one.
    """
    if n < 0:
        raise ValueError("jet order must be nonnegative")
    if n > max_order:
        raise OrderOverflow(f"jet order {n} exceeds maximum {max_order}")
    tape = f if isinstance(f, Tape) else lower(f)
    coeffs = tape.run(x0, n + 1)
    if not all(map(_finite, coeffs)):
        raise DomainError("non-finite jet coefficient")
    return Jet(x0, tuple(coeffs))


def vanishing_order(coeffs, tol: float = 1e-9, start: int = 0):
    """Index of the first coefficient above the relative threshold, else None."""
    scale = max(1.0, max(abs(float(c)) for c in coeffs))
    for j in range(start, len(coeffs)):
        if abs(float(coeffs[j])) > tol * scale:
            return j
    return None


def order_of_vanishing(f: ExprNode, x0: float, kmax: int = 16, tol: float = 1e-9):
    """Smallest j with |t_j| above tol * scale at x0, or None up to kmax."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    jet = jet_eval(f, x0, kmax)
    return vanishing_order(jet.coeffs, tol)

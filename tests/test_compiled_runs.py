"""Compiled runs against the stack run they are traced from: the memory
they hold, the memory compiling them takes, and chains of operations too
long to write into one line."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mvabscissa import expr

from conftest import QUINTIC_SAME_SIGN

# the tracemalloc peak of _compile_run at width 3 on _sum_of_terms(2000), the
# longest tape compiled, with the code written beside the helpers by hand:
# 29.3-30.6 MB in separate processes, rounded up
COMPILE_PEAK_BYTES = 31_000_000


def _peak(fn, *args):
    """The tracemalloc peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text", [QUINTIC_SAME_SIGN, "exp(-x^2)*cos(5*x)",
                                  "sin(x)*x^2 + 1/x", "x^x + sqrt(x)*log(x)"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_compiled_runs_hold_no_more_memory(text, width):
    tape = expr.lower(expr.parse(text))
    xs = np.linspace(0.5, 2.5, 2 ** 14)
    tape.run(xs, width)  # compiled before it is measured
    compiled = _peak(tape.run, xs, width)
    with mock.patch.object(expr, "_COMPILED_STEPS", 0):
        assert compiled <= _peak(tape.run, xs, width)


def _sum_of_terms(steps):
    """A sum of sin(x)*x^2 terms in parenthesized groups of 20, negated as
    often as it takes to give a tape of exactly `steps` steps."""
    n = (steps + 1) // 6  # five steps a term, and one a +
    text = " + ".join(f"({' + '.join(['sin(x)*x^2'] * min(20, n - i))})"
                      for i in range(0, n, 20))
    negations = steps - (6 * n - 1)
    return expr.parse("-(" * negations + text + ")" * negations)


def test_compiling_the_longest_tape_takes_no_more_memory():
    steps = expr.lower(_sum_of_terms(expr._COMPILED_STEPS)).steps
    assert len(steps) == expr._COMPILED_STEPS
    assert _peak(expr._compile_run, steps, 3) <= COMPILE_PEAK_BYTES


def test_long_chains_of_squarings_compile():
    # x^(2^300 - 1) multiplies at each of its 300 bits; the top coefficient
    # of the product, read once by the next, would nest its parentheses
    # past the parser's limit if every one were written into its reader
    tape = expr.lower(expr.parse("x^(2^300 - 1)"))
    xs = np.array([-1.0, 0.5, 1.0])
    for width in (1, 2, 3):
        got = tape.run(xs, width)
        with mock.patch.object(expr, "_COMPILED_STEPS", 0):
            want = tape.run(xs, width)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("text, partner", [("sin(x)", "cos"), ("cos(x)", "sin")])
def test_a_value_of_sin_or_cos_computes_no_partner(text, partner, monkeypatch):
    # a series needs its partner only to one term fewer than its own width,
    # so the value of sin(u) needs no cosine, and that of cos(u) no sine
    steps = expr.lower(expr.parse(text)).steps
    assert partner not in expr._compile_run(steps, 1).__code__.co_names
    assert partner in expr._compile_run(steps, 2).__code__.co_names
    calls = []
    ufunc = getattr(np, partner)
    monkeypatch.setattr(np, partner, lambda v: calls.append(v) or ufunc(v))
    expr._run(steps, np.linspace(0.0, 1.0, 5), 1)
    assert calls == []
    expr._run(steps, np.linspace(0.0, 1.0, 5), 2)
    assert len(calls) == 1

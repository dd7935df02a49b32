"""Generated expression text through parse, simplify, diff and printing.

The strategy writes text over the symbol grammar with + - * / ^, unary
signs, parentheses and sin cos exp ln sqrt.  Each example must end within
BUDGET_S seconds, either in a toolkit error (the CLI's exit codes 2-4) from
parse, simplify or diff, or in a canonical form s whose printed text parses
and simplifies back to s itself without error.  Every constant of s is an
exact Fraction: a function of a constant, such as sin(1), stays symbolic.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jetlag.calculus import diff
from jetlag.errors import JetlagError
from jetlag.expr import Const, simplify
from jetlag.parser import parse
from jetlag.printer import to_text
from jetlag.symbols import q

from conftest import nodes

BUDGET_S = 2.0

SYMBOLS = ("q1_0", "q1_1", "q2_0", "q2_3", "p1_0", "a1_1", "m2_0", "pq1", "lam1", "dq1_0", "mu", "c", "q1")
NUMBERS = ("0", "1", "2", "7", "12", "0.5", "1.25", ".5", "3e2", "2.5e-1", "1e30")
EXPONENTS = ("0", "1", "2", "3", "9", "(1/2)", "(-1)", "(-2)", "(3/2)", "(-1/3)", "0.5")
FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*", "/")), inner).map(" ".join),
        st.tuples(inner, st.one_of(st.sampled_from(EXPONENTS), inner)).map("^".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
    )


TEXTS = st.recursive(st.sampled_from(SYMBOLS + NUMBERS), _grow, max_leaves=24)


class BudgetExceeded(Exception):
    pass


@contextmanager
def budget(seconds):
    """Interrupt the block with BudgetExceeded after the given wall time."""

    def expire(signum, frame):
        raise BudgetExceeded(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(TEXTS)
def test_generated_text_ends_within_budget_and_prints_back(text):
    with budget(BUDGET_S):
        try:
            s = simplify(parse(text))
            diff(s, q(1, 0))
        except JetlagError:
            return
        # a canonical form must print to text that parses and simplifies
        # back, so any error from here on fails the example
        printed = to_text(s)
        back = simplify(parse(printed))
    assert all(type(n.value) is Fraction for n in nodes(s) if isinstance(n, Const)), printed
    assert back == s, printed

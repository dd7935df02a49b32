"""Shared test helpers: random expression trees, random polynomials, oracles."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from jetlag.expr import Const, Func, Pow, Prod, Sum, add, func, mul, pow_
from jetlag.symbols import param, q


SYMBOL_POOL = [q(1, 0), q(1, 1), q(1, 2), q(2, 0), q(2, 1), param("mu"), param("c")]


def random_tree(rng, depth=6, pool=SYMBOL_POOL, allow_funcs=True):
    """Random expression tree; biased toward polynomial-ish shapes."""
    if depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.5:
            return pool[rng.integers(0, len(pool))]
        if r < 0.8:
            return Const(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
        return Const(float(rng.uniform(-2, 2)))
    r = rng.random()
    if r < 0.35:
        k = int(rng.integers(2, 4))
        return add(*(random_tree(rng, depth - 1, pool, allow_funcs) for _ in range(k)))
    if r < 0.7:
        k = int(rng.integers(2, 4))
        return mul(*(random_tree(rng, depth - 1, pool, allow_funcs) for _ in range(k)))
    if r < 0.85:
        return pow_(random_tree(rng, depth - 1, pool, allow_funcs), int(rng.integers(1, 4)))
    if allow_funcs:
        name = ("sin", "cos", "exp")[rng.integers(0, 3)]
        return func(name, random_tree(rng, depth - 2, pool, allow_funcs))
    return pow_(random_tree(rng, depth - 1, pool, allow_funcs), 2)


# products whose merged powers come out as a constant, a product or a power
# of another base, so the factors must be collected once more
MERGED_POWERS = {
    "sqrt(2)*sqrt(2)*(q1_0 + q1_1) - 2*q1_0": "2*q1_1",
    "sqrt(q1_0*q1_1)*sqrt(q1_0*q1_1)*q1_0": "q1_0^2*q1_1",
    "sqrt(q1_0^2)*sqrt(q1_0^2)*q1_0": "q1_0^3",
    "sqrt(q1_0^2)*sqrt(q1_0^2)*sqrt(q1_0^2)*sqrt(q1_0^2)": "q1_0^4",
    "sqrt((q1_0 + q1_1)^2)*sqrt((q1_0 + q1_1)^2)*3": "3*(q1_0 + q1_1)^2",
}


def nodes(e):
    """Every node of e, e first, children after their parent."""
    yield e
    if isinstance(e, Sum):
        children = e.terms
    elif isinstance(e, Prod):
        children = e.factors
    elif isinstance(e, Pow):
        children = (e.base,)
    elif isinstance(e, Func):
        children = (e.arg,)
    else:
        children = ()
    for child in children:
        yield from nodes(child)


def random_polynomial(rng, symbols, degree=3, terms=6, scale=1.0):
    """Random polynomial over the given symbols whose coefficients are drawn
    as floats and held, as every Const holds a float, as the exact value of
    its shortest decimal."""
    total = Const(0)
    for _ in range(terms):
        factors = [Const(float(rng.uniform(-scale, scale)))]
        for s in symbols:
            e = int(rng.integers(0, degree + 1))
            if e:
                factors.append(pow_(s, e))
        total = add(total, mul(*factors))
    return total


def rational_polynomial(rng, symbols, degree=3, terms=6):
    """Random polynomial with exact rational coefficients."""
    total = Const(0)
    for _ in range(terms):
        factors = [Const(Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7))))]
        for s in symbols:
            e = int(rng.integers(0, degree + 1))
            if e:
                factors.append(pow_(s, e))
        total = add(total, mul(*factors))
    return total


def bounded_degree_polynomial(rng, symbols, total_degree=3, terms=6):
    """Random rational-coefficient polynomial with capped total degree."""
    total = Const(0)
    for _ in range(terms):
        budget = int(rng.integers(0, total_degree + 1))
        factors = [Const(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))]
        order = list(rng.permutation(len(symbols)))
        for idx in order:
            if budget <= 0:
                break
            e = int(rng.integers(0, budget + 1))
            if e:
                factors.append(pow_(symbols[idx], e))
                budget -= e
        total = add(total, mul(*factors))
    return total


def count_calls_everywhere(monkeypatch, real):
    """Wrap real in every jetlag module that holds it; returns the list of
    calls, one (args, kwargs) pair each."""
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("jetlag") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

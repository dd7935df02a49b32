import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag.errors import (
    DomainEvalError,
    DomainExhaustionError,
    NumericFailureError,
    UnboundSymbolError,
)
from jetlag.expr import (
    Const,
    Func,
    Pow,
    Prod,
    Sum,
    compile_rows,
    const,
    eval_expr,
    func,
    lambdify,
    pow_,
    simplify,
    substitute,
)
from jetlag.parser import parse
from jetlag.sampling import equal_numeric, sample_binding, sample_bindings, sample_rows
from jetlag.symbols import q

from conftest import SYMBOL_POOL, random_tree


def test_simplify_collects_like_terms():
    assert simplify(parse("q1_1 + q1_1")) == simplify(parse("2*q1_1"))
    assert simplify(parse("q1_2*mu - mu*q1_2")) == parse("0")
    assert simplify(parse("3*q1_0*q1_1 - q1_1*q1_0 - 2*q1_1*q1_0")) == parse("0")


def test_simplify_constant_folding():
    assert simplify(parse("2*3 + 1")) == parse("7")
    assert simplify(parse("2^10")) == parse("1024")
    assert simplify(parse("sqrt(4)")) == parse("2")
    assert simplify(parse("(2*q1_0)^2")) == simplify(parse("4*q1_0^2"))


def test_simplify_power_merge():
    assert simplify(parse("q1_0*q1_0")) == simplify(parse("q1_0^2"))
    assert simplify(parse("q1_0^3/q1_0")) == simplify(parse("q1_0^2"))


def test_simplify_idempotent_and_eval_equivalent(rng):
    for _ in range(40):
        e = random_tree(rng, depth=8)
        s = simplify(e)
        assert simplify(s) == s
        assert equal_numeric(e, s, trials=100, tol=1e-12, rng=np.random.default_rng(3))


def test_eval_unbound_symbol_is_error():
    with pytest.raises(UnboundSymbolError):
        eval_expr(parse("q1_0 + mu"), {q(1, 0): 1.0})


def test_eval_domain_errors():
    with pytest.raises(DomainEvalError):
        eval_expr(parse("ln(q1_0)"), {q(1, 0): -1.0})
    with pytest.raises(DomainEvalError):
        eval_expr(parse("sqrt(q1_0)"), {q(1, 0): -4.0})
    with pytest.raises(DomainEvalError):
        eval_expr(parse("1/q1_0"), {q(1, 0): 0.0})


def test_substitute():
    e = parse("q1_0^2 + mu*q1_0")
    out = substitute(e, {q(1, 0): parse("c + 1")})
    assert equal_numeric(out, parse("(c+1)^2 + mu*(c+1)"), trials=20)


def test_equal_numeric_examples():
    assert equal_numeric(parse("(q1_0+1)^2"), parse("q1_0^2 + 2*q1_0 + 1"))
    assert not equal_numeric(parse("q1_0^2"), parse("q1_0^3"))


def test_equal_numeric_rejects_bad_args():
    with pytest.raises(ValueError):
        equal_numeric(parse("1"), parse("1"), trials=0)
    with pytest.raises(ValueError):
        equal_numeric(parse("1"), parse("1"), tol=0.0)


def test_equal_numeric_domain_exhaustion():
    # empty domain: sqrt of a strictly negative expression
    with pytest.raises(DomainExhaustionError):
        equal_numeric(parse("sqrt(-1 - q1_0^2)"), parse("0"), trials=1)


def test_sample_binding_respects_guards(rng):
    guard = parse("q1_0")
    for _ in range(10):
        b = sample_binding([q(1, 0)], rng, guards=[(guard, 0.5)])
        assert b[q(1, 0)] >= 0.5


def test_immutability():
    e = parse("q1_0 + 1")
    with pytest.raises(AttributeError):
        e.terms = ()


def test_exact_root_of_a_constant_beyond_float_range():
    # the integer root never goes through a float, so 10^200 folds exactly
    assert pow_(const(10**400), Fraction(1, 2)) == const(10**200)
    assert pow_(const(Fraction(10**400, 9)), Fraction(1, 2)) == const(Fraction(10**200, 3))
    assert pow_(const(3**900), Fraction(1, 3)) == const(3**300)
    assert isinstance(pow_(const(10**400 + 1), Fraction(1, 2)), Pow)
    assert pow_(const(0), Fraction(1, 2)) == const(0)
    assert pow_(const(1), Fraction(1, 5)) == const(1)


def test_constant_beyond_float_range_is_numeric_failure():
    huge = pow_(const(10**400), Fraction(1, 3))  # no exact root, no float
    e = huge * parse("q1_0")
    with pytest.raises(NumericFailureError):
        eval_expr(e, {q(1, 0): 1.0})
    with pytest.raises(NumericFailureError):
        lambdify([e], [q(1, 0)])
    with pytest.raises(NumericFailureError):
        compile_rows([e], [q(1, 0)])


def test_compile_rows_shares_subexpressions_and_broadcasts_constants():
    x = parse("q1_0")
    f = compile_rows([parse("sin(q1_0)^2 + sin(q1_0)"), parse("3/4"), x], [q(1, 0)])
    values, bad = f(np.array([[0.5], [-1.0]]))
    assert values[0].tolist() == [math.sin(0.5) ** 2 + math.sin(0.5), math.sin(-1.0) ** 2 + math.sin(-1.0)]
    assert values[1].tolist() == [0.75, 0.75]
    assert values[2].tolist() == [0.5, -1.0]
    assert bad.tolist() == [False, False]
    with pytest.raises(UnboundSymbolError):
        compile_rows([parse("q1_0 + mu")], [q(1, 0)])


def _subtrees(e):
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
        yield from _subtrees(child)


def _magnitude(e, binding):
    try:
        return abs(eval_expr(e, binding))
    except (DomainEvalError, NumericFailureError, OverflowError):
        return math.inf


def _domain_tree(rng):
    """A random tree, often under an operation whose domain eval_expr checks."""
    tree = random_tree(rng, depth=5)
    wrap = int(rng.integers(0, 5))
    if wrap == 0:
        return pow_(tree, Fraction(1, 2))
    if wrap == 1:
        return pow_(tree, -1)
    if wrap == 2:
        return func("ln", tree)
    if wrap == 3:
        return pow_(tree, Fraction(-3, 2))
    return tree


# zeros and negatives leave the domains; 1e3 overflows exp, 1e200 products
_EDGE_VALUES = [0.0, -1.0, 1.0, 0.5, -2.5, 3.0, 1e3, -1e3, 1e200, -1e200]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compile_rows_agrees_with_eval_expr(seed):
    rng = np.random.default_rng(seed)
    exprs = [_domain_tree(rng) for _ in range(int(rng.integers(1, 4)))]
    rows = rng.uniform(-3.0, 3.0, size=(24, len(SYMBOL_POOL)))
    edge = rng.random(rows.shape) < 0.3
    rows[edge] = rng.choice(_EDGE_VALUES, size=int(edge.sum()))
    values, bad = compile_rows(exprs, SYMBOL_POOL)(rows)
    for i, row in enumerate(rows.tolist()):
        binding = dict(zip(SYMBOL_POOL, row))
        subtrees = [list(_subtrees(e)) for e in exprs]
        # numpy's power and exp may differ from the math module's by an ulp;
        # past 1e6 that ulp moves sin/cos by more than 1e-10 and can flip a
        # sign a domain check depends on, so such rows are not comparable
        if any(
            isinstance(n, Func) and n.fname in ("sin", "cos") and 1e6 < _magnitude(n.arg, binding) < math.inf
            for nodes in subtrees
            for n in nodes
        ):
            continue
        try:
            expected = [eval_expr(e, binding) for e in exprs]
        except (DomainEvalError, NumericFailureError, OverflowError):
            assert bad[i]
            continue
        assert not bad[i]
        for v, x, nodes in zip(values, expected, subtrees):
            # rounding errors scale with the largest intermediate value
            scale = max(_magnitude(n, binding) for n in nodes)
            assert abs(v[i] - x) <= 1e-12 * scale


def _scalar_sampling_loop(symbols, n, rng, boxes, guards, probes, max_attempts):
    """The point-by-point rejection loop the block sampler replaces."""
    out = []
    for _ in range(n):
        for _ in range(max_attempts):
            binding = {s: float(rng.uniform(*boxes[s])) for s in symbols}
            try:
                if any(eval_expr(g, binding) < bound for g, bound in guards):
                    continue
                for e in probes:
                    eval_expr(e, binding)
            except (DomainEvalError, NumericFailureError, OverflowError):
                continue
            out.append(binding)
            break
        else:
            raise DomainExhaustionError("exhausted")
    return out


def test_block_sampler_reproduces_the_scalar_stream():
    symbols = [q(1, 0), q(1, 1), q(1, 2)]
    boxes = {q(1, 0): (-2.0, 2.0), q(1, 1): (0.5, 0.5), q(1, 2): (-3.0, 1.0)}
    guards = [(parse("q1_0*q1_2"), 0.4)]  # rejects most rows
    probes = [parse("sqrt(q1_0 + q1_2 + 1)"), parse("1/q1_0")]
    for n, max_attempts in ((1, 1000), (7, 1000), (50, 1000), (200, 3)):
        ref_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
        try:
            expected = _scalar_sampling_loop(symbols, n, ref_rng, boxes, guards, probes, max_attempts)
        except DomainExhaustionError:
            with pytest.raises(DomainExhaustionError):
                sample_rows(symbols, n, rng, boxes=boxes, guards=guards, probe_exprs=probes, max_attempts=max_attempts)
        else:
            got = sample_bindings(symbols, n, rng, boxes=boxes, guards=guards, probe_exprs=probes, max_attempts=max_attempts)
            assert got == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_block_sampler_exhaustion_draws_what_the_scalar_loop_drew():
    symbols = [q(1, 0)]
    boxes = {q(1, 0): (-2.0, 2.0)}
    guards = [(parse("-q1_0^2"), 1.0)]  # empty domain
    ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(DomainExhaustionError):
        _scalar_sampling_loop(symbols, 4, ref_rng, boxes, guards, (), 37)
    with pytest.raises(DomainExhaustionError):
        sample_rows(symbols, 4, rng, boxes=boxes, guards=guards, max_attempts=37)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert sample_rows(symbols, 0, rng, guards=guards).shape == (0, 1)

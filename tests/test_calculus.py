import numpy as np
import pytest

from jetlag.calculus import (
    diff,
    is_zero,
    job_memo,
    iterated_time_derivative,
    potential_from_closed_form,
    solve_linear_symbolic,
    time_derivative,
    to_monomials,
    total_time_derivative,
)
from jetlag.errors import LevelOverflowError, NotLinearError, UnshiftableSymbolError
from jetlag.expr import eval_expr, simplify, substitute
from jetlag.parser import parse
from jetlag.sampling import equal_numeric, sample_binding
from jetlag.printer import to_text
from jetlag.symbols import p, param, q

from conftest import SYMBOL_POOL, random_polynomial, random_tree


def test_diff_basic():
    assert diff(parse("q1_1*q1_2"), q(1, 2)) == parse("q1_1")
    assert diff(parse("1/2*mu*q1_2^2"), q(1, 2)) == simplify(parse("mu*q1_2"))
    assert diff(parse("q1_0"), q(2, 0)) == parse("0")
    assert diff(parse("sin(q1_0)"), q(1, 0)) == parse("cos(q1_0)")
    assert equal_numeric(diff(parse("ln(q1_0^2+1)"), q(1, 0)), parse("2*q1_0/(q1_0^2+1)"))


def test_diff_matches_finite_differences(rng):
    symbols = [q(1, 0), q(1, 1), q(1, 2), param("mu")]
    poly = random_polynomial(rng, symbols, degree=3, terms=8)
    h = 1e-5
    for _ in range(10):
        at = sample_binding(symbols, rng)
        for s in symbols:
            grad = eval_expr(diff(poly, s), at)
            up = dict(at)
            dn = dict(at)
            up[s] += h
            dn[s] -= h
            fd = (eval_expr(poly, up) - eval_expr(poly, dn)) / (2 * h)
            assert abs(grad - fd) <= 1e-6 * (1 + abs(grad))


def test_diff_linearity_and_leibniz(rng):
    e1 = parse("q1_0^2*q1_1 + mu*q1_0")
    e2 = parse("sin(q1_0)*q1_1")
    s = q(1, 0)
    lin = simplify(
        diff(simplify(parse("3") * e1 + parse("1/2") * e2), s)
        - (parse("3") * diff(e1, s) + parse("1/2") * diff(e2, s))
    )
    assert is_zero(lin)
    leib = diff(e1 * e2, s) - (e1 * diff(e2, s) + e2 * diff(e1, s))
    assert equal_numeric(simplify(leib), parse("0"), trials=30)


def test_total_time_derivative_basics():
    assert total_time_derivative(parse("q1_0"), 1) == parse("q1_1")
    # chain expansion over all jet arguments
    F = parse("q1_0*q1_1 + q1_2^2")
    d = total_time_derivative(F, 3)
    expected = parse("q1_1*q1_1 + q1_0*q1_2 + 2*q1_2*q1_3")
    assert equal_numeric(d, expected)


def test_total_time_derivative_iterated_matches_curve(rng):
    # d^2/dt^2 (q^2) = 2 q1^2 + 2 q q2, checked on sampled polynomial curves
    e = parse("q1_0^2")
    dd = iterated_time_derivative(e, 2)
    assert equal_numeric(dd, parse("2*q1_1^2 + 2*q1_0*q1_2"))
    coeffs = rng.uniform(-1, 1, size=5)
    for t in rng.uniform(-1, 1, size=5):
        phi = np.polyval(coeffs, t)
        dphi = np.polyval(np.polyder(coeffs), t)
        ddphi = np.polyval(np.polyder(coeffs, 2), t)
        binding = {q(1, 0): phi, q(1, 1): dphi, q(1, 2): ddphi}
        direct = 2 * dphi**2 + 2 * phi * ddphi
        assert abs(eval_expr(dd, binding) - direct) < 1e-12


def test_total_time_derivative_level_overflow():
    with pytest.raises(LevelOverflowError):
        total_time_derivative(parse("q1_2"), 2)
    with pytest.raises(UnshiftableSymbolError):
        total_time_derivative(parse("p1_0"), 5)


def test_commutation_property(rng):
    # d/dq_(k+1) (dF/dt) = dF/dq_(k), valid whenever F is free of q_(k+1)
    F = random_polynomial(rng, [q(1, 0), q(1, 1), q(1, 2)], degree=2, terms=6)
    dF = time_derivative(F)
    assert equal_numeric(diff(dF, q(1, 3)), diff(F, q(1, 2)), trials=30, tol=1e-9)
    # a velocity-free F also commutes at the bottom level
    G = random_polynomial(rng, [q(1, 0), q(1, 2)], degree=2, terms=6)
    dG = time_derivative(G)
    assert equal_numeric(diff(dG, q(1, 1)), diff(G, q(1, 0)), trials=30, tol=1e-9)


def test_expand_and_monomials():
    e = parse("(q1_0 + 2*q1_1)^2")
    mono = to_monomials(e, [q(1, 0), q(1, 1)])
    assert mono[(2, 0)] == parse("1")
    assert mono[(1, 1)] == parse("4")
    assert mono[(0, 2)] == parse("4")
    with pytest.raises(NotLinearError):
        to_monomials(parse("1/q1_0"), [q(1, 0)])


def test_potential_from_closed_form():
    # gamma = d(q0^2 q1): components (2 q0 q1, q0^2)
    comps = [parse("2*q1_0*q1_1"), parse("q1_0^2")]
    W = potential_from_closed_form(comps, [q(1, 0), q(1, 1)])
    assert equal_numeric(W, parse("q1_0^2*q1_1"))


def test_solve_linear_symbolic():
    eqs = [parse("p1_1 - mu*q1_2")]
    (sol,) = solve_linear_symbolic(eqs, [q(1, 2)])
    assert equal_numeric(sol, parse("p1_1/mu"))
    with pytest.raises(NotLinearError):
        solve_linear_symbolic([parse("q1_2^3 - p1_1")], [q(1, 2)])
    with pytest.raises(NotLinearError):
        solve_linear_symbolic([parse("0*q1_2 - p1_1")], [q(1, 2)])
    # dense 3x3 with symbolic entries: the Cramer determinants share minors
    # of the matrix and of the right-hand side column
    unknowns = [q(1, 2), q(2, 2), q(3, 2)]
    eqs = [parse("mu*q1_2 + q2_2 + q3_2 - p1_1"), parse("q1_2 + 2*q2_2 + q1_0*q3_2 - p2_1"),
           parse("q1_2 - q2_2 + 3*q3_2 - 1")]
    sol = solve_linear_symbolic(eqs, unknowns)
    back = {u: x for u, x in zip(unknowns, sol)}
    for e in eqs:
        assert equal_numeric(substitute(e, back), parse("0"))


def test_diff_memo_answers_equal_trees_alike():
    # each tree is built twice, so the second diff of it is a memo hit on a
    # structurally equal but distinct tree
    distinct = 0
    for seed in range(100):
        s = SYMBOL_POOL[seed % 7]
        a, b = (random_tree(np.random.default_rng(seed)) for _ in range(2))
        assert a == b
        distinct += a is not b  # a leaf may be a shared constant
        plain = [to_text(diff(a, s)), to_text(diff(b, s))]
        with job_memo():
            da, db = diff(a, s), diff(b, s)
            assert db is da and diff(a, s) is da
        assert [to_text(da), to_text(db)] == plain
    assert distinct > 90

from fractions import Fraction

import numpy as np
import pytest

from jetlag.errors import ParseError, UnknownIdentifierError
from jetlag.expr import Const, Pow, Prod, eval_expr
from jetlag.parser import parse
from jetlag.printer import to_text
from jetlag.sampling import equal_numeric
from jetlag.symbols import q

from conftest import random_tree


def test_power_over_division_structure():
    e = parse("q1_2^2/2")
    assert isinstance(e, Prod)
    parts = set(map(type, e.factors))
    assert Pow in parts and Const in parts
    assert eval_expr(e, {q(1, 2): 3.0}) == 4.5


def test_flat_product():
    e = parse("mu*a1_0*q1_1")
    assert isinstance(e, Prod)
    assert len(e.factors) == 3


def test_antisymmetric_combination():
    e = parse("q1_1*q2_2 - q2_1*q1_2")
    b = {q(1, 1): 2.0, q(2, 2): 3.0, q(2, 1): 5.0, q(1, 2): 7.0}
    assert eval_expr(e, b) == 2 * 3 - 5 * 7


def test_precedence():
    assert eval_expr(parse("2^3^2"), {}) == 512  # right associative
    assert eval_expr(parse("-2^2"), {}) == -4  # ^ binds over unary minus
    assert eval_expr(parse("1 - 2 - 3"), {}) == -4
    assert eval_expr(parse("6/2/3"), {}) == 1
    assert eval_expr(parse("2^-2"), {}) == 0.25
    assert eval_expr(parse("(1/2)^2"), {}) == 0.25


def test_functions():
    assert eval_expr(parse("sin(0)"), {}) == 0.0
    assert abs(eval_expr(parse("exp(ln(2))"), {}) - 2.0) < 1e-15
    assert eval_expr(parse("sqrt(q1_0^2)"), {q(1, 0): 3.0}) == 3.0


def test_numbers():
    assert parse("1.5").value == Fraction(3, 2)
    assert eval_expr(parse("1e-3"), {}) == 1e-3
    assert eval_expr(parse(".5"), {}) == 0.5


def test_number_literal_size_is_bounded_before_it_is_built():
    assert parse("1" * 4096).value == int("1" * 4096)
    assert parse("1.5e4000").value == 15 * 10**3999
    assert parse("0e99999999").value == 0
    for text in ("1" * 4097, "1e10000000", "0." + "0" * 5000 + "1", "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="needs more than 4096 digits"):
            parse(text)


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("q1_0 + ")
    assert err.value.offset == 7
    with pytest.raises(ParseError) as err:
        parse("q1_0 $ 2")
    assert err.value.offset == 5
    with pytest.raises(ParseError):
        parse("(q1_0 + 1")
    with pytest.raises(ParseError):
        parse("q1_0^mu")  # exponent must be rational


def test_unknown_identifier_lists_token():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("2*q1 + 1")
    assert err.value.token == "q1"


def test_whitespace_insignificant():
    a = parse("  q1_0+ 2 *mu ")
    b = parse("q1_0+2*mu")
    assert a == b


def test_round_trip_eval_equal(rng):
    for _ in range(60):
        e = random_tree(rng, depth=5)
        text = to_text(e)
        back = parse(text)
        assert equal_numeric(e, back, trials=20, tol=1e-12, rng=np.random.default_rng(7))

import copy
import pickle

import pytest

from jetlag import expr
from jetlag.errors import UnknownIdentifierError
from jetlag.expr import Expr, job_scope, simplify
from jetlag.parser import parse
from jetlag.symbols import (
    Kind,
    Symbol,
    acc,
    aux,
    dp,
    dq,
    lam,
    p,
    pa,
    pm,
    pq,
    param,
    q,
    symbol_from_name,
)


ROSTER = [
    q(1, 0), q(2, 3), p(1, 1), p(7, 0), acc(1, 0), acc(2, 1), aux(3, 0),
    pq(1), pa(2), pm(3), dq(1, 2), dp(4, 0), lam(1), lam(12),
    param("mu"), param("rho"), param("c2"), param("A"),
]


def test_render_round_trips():
    for s in ROSTER:
        assert symbol_from_name(s.text) == s


def test_identity_is_kind_component_level_name():
    assert q(1, 2) == q(1, 2)
    assert q(1, 2) != q(2, 1)
    assert q(1, 0) != p(1, 0)
    assert param("mu") != param("nu")
    assert hash(q(1, 2)) == hash(q(1, 2))


def test_component_must_be_positive():
    with pytest.raises(ValueError):
        q(0, 1)
    with pytest.raises(ValueError):
        Symbol(Kind.P, -1, 0)


@pytest.mark.parametrize(
    "bad",
    ["q1", "q0_1", "p0_0", "lam", "lam0", "pq0", "pq1_2", "dq3", "m7", "a12", "sin"],
)
def test_malformed_structured_names_rejected(bad):
    with pytest.raises(UnknownIdentifierError):
        symbol_from_name(bad)


@pytest.mark.parametrize("name", ["mu", "rho", "c2", "A", "B", "lmb", "a_coef", "m", "zeta"])
def test_parameters_are_bare_identifiers(name):
    s = symbol_from_name(name)
    assert s.kind is Kind.PARAM
    assert s.text == name


def test_shifted_raises_level():
    assert q(1, 0).shifted() == q(1, 1)
    assert acc(2, 0).shifted() == acc(2, 1)


def test_sort_is_deterministic():
    once = sorted(ROSTER)
    again = sorted(list(reversed(ROSTER)))
    assert once == again


def test_sorted_order_is_pinned():
    assert [str(s) for s in sorted(ROSTER)] == [
        "q1_0", "q2_3", "p7_0", "p1_1", "a1_0", "a2_1", "m3_0", "pq1", "pa2", "pm3",
        "dq1_2", "dp4_0", "lam1", "lam12", "A", "c2", "mu", "rho",
    ]


def test_equal_symbols_are_one_object():
    assert q(1, 0) is Symbol(Kind.Q, 1, 0) is symbol_from_name("q1_0")
    assert param("mu") is Symbol(Kind.PARAM, name="mu") is symbol_from_name("mu")
    assert q(1, 0).shifted() is q(1, 1)
    assert q(1, 0) is not p(1, 0)


def test_symbols_are_immutable():
    s = q(1, 0)
    with pytest.raises(AttributeError):
        s.level = 1
    with pytest.raises(AttributeError):
        s.extra = 1
    with pytest.raises(AttributeError):
        del s.kind
    assert s.text == "q1_0"


@pytest.mark.parametrize(
    "args, message",
    [
        ((Kind.Q, 0, 1), "component must be >= 1, got 0"),
        ((Kind.LAMBDA, -2), "component must be >= 1, got -2"),
        ((Kind.Q, 1, -1), "level must be >= 0, got -1"),
        ((Kind.PARAM, 0, 0, "1x"), "bad parameter name '1x'"),
        ((Kind.PARAM, 0, 0, ""), "bad parameter name ''"),
        ((Kind.PARAM, 0, -1, "mu"), "level must be >= 0, got -1"),
    ],
)
def test_bad_symbols_raise_value_error(args, message):
    for _ in range(2):  # a refused identity is not remembered
        with pytest.raises(ValueError) as info:
            Symbol(*args)
        assert str(info.value) == message


def test_copy_and_pickle_give_back_the_interned_symbol():
    for s in ROSTER:
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s


def test_a_symbol_is_the_leaf_node():
    x = q(1, 0)
    assert isinstance(x, Expr)
    assert parse("q1_0") is x
    assert simplify(x) is x
    assert x.free == {x}
    assert str(2 * x) == "2*q1_0"
    with job_scope():  # one object for the whole process, kept in no job's table
        assert parse("q1_0 + 1").terms[0] is x
        assert x not in expr._JOB_TABLE.get().values()


def test_symbol_sort_texts_are_pinned():
    # canonical term and factor order sorts by these texts
    assert q(1, 0)._sort_text() == "('s', 'q', 1, 0, '')"
    assert param("mu")._sort_text() == "('s', 'param', 0, 0, 'mu')"

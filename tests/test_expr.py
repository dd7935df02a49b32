import copy
import math
import pickle
import re
import sys
import threading
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlag.calculus import diff
from jetlag.errors import (
    DomainEvalError,
    DomainExhaustionError,
    NumericFailureError,
    UnboundSymbolError,
)
from jetlag import expr, sampling
from jetlag.expr import (
    Const,
    Func,
    Pow,
    Prod,
    Sum,
    ZERO,
    add,
    compile_rows,
    eval_expr,
    func,
    job_scope,
    lambdify,
    mul,
    pow_,
    simplify,
    substitute,
)
from jetlag.parser import parse
from jetlag.printer import to_text
from jetlag.sampling import DEFAULT_BOX, equal_numeric, sample_binding, sample_bindings, sample_rows
from jetlag.symbols import Symbol, q

from conftest import MERGED_POWERS, SYMBOL_POOL, count_calls_everywhere, nodes, random_tree


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


def _unmarked_copy(e):
    """e rebuilt with the node constructors, so no node of it but a symbol,
    canonical from birth, is marked canonical."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Symbol):
        return e
    if isinstance(e, Sum):
        return Sum(_unmarked_copy(t) for t in e.terms)
    if isinstance(e, Prod):
        return Prod(_unmarked_copy(f) for f in e.factors)
    if isinstance(e, Pow):
        return Pow(_unmarked_copy(e.base), e.exponent)
    return Func(e.fname, _unmarked_copy(e.arg))


def test_simplify_idempotent_and_eval_equivalent(rng):
    trees = [random_tree(rng, depth=8) for _ in range(40)]
    for text in MERGED_POWERS:
        # under sin, the operand is already simplified and marked
        trees += [parse(text), func("sin", simplify(parse(text)))]
    for e in trees:
        s = simplify(e)
        # simplify returns a marked node as it is, so idempotence is checked
        # on a copy that simplify has to work through again
        copy = _unmarked_copy(s)
        assert copy._canon == isinstance(copy, Symbol)
        assert simplify(copy).key == s.key
        assert equal_numeric(e, s, trials=100, tol=1e-12, rng=np.random.default_rng(3))


def test_merged_powers_are_collected():
    for text, expected in MERGED_POWERS.items():
        assert to_text(simplify(parse(text))) == expected


def test_simplify_returns_a_marked_node_itself(rng):
    for _ in range(40):
        s = simplify(random_tree(rng, depth=8))
        assert s._canon
        assert simplify(s) is s


def test_node_caches_agree_across_threads():
    # the canonical mark and the sort text are written by whichever thread
    # gets there first; every thread must still see the same results
    trees = [random_tree(np.random.default_rng(seed), depth=7) for seed in range(30)]
    expected = [simplify(_unmarked_copy(t)).key for t in trees]
    results, errors = [], []

    def work():
        try:
            out = [simplify(t) for t in trees]
            assert all(n._sort_text() == repr(n.key) for s in out for n in nodes(s))
            results.append([s.key for s in out])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * 8


def _one_node_per_class():
    """One node of each of the five hash-consed classes, built afresh on
    every call around the one shared symbol."""
    x = q(1, 0)
    return [Const(Fraction(3, 2)), Sum([x, Const(2)]), Prod([Const(3), x]), Pow(x, Fraction(1, 2)), Func("sin", x)]


def test_a_job_builds_each_structure_once():
    outside = _one_node_per_class(), _one_node_per_class()
    for a, b in zip(*outside):
        assert a == b and a is not b
    assert outside[0][1].terms[0] is outside[1][1].terms[0] is q(1, 0)
    with job_scope():
        first, second = _one_node_per_class(), _one_node_per_class()
        for a, b in zip(first, second):
            assert a is b
        assert all(a == b for a, b in zip(first, outside[0]))


def test_a_job_keeps_constants_of_different_keys_apart():
    # hash(-1) == hash(-2) in CPython: the table must tell them apart by key
    pairs = [(0, 1), (-1, -2), (Fraction(1, 2), Fraction(-1, 2))]
    with job_scope():
        for a, b in pairs:
            assert Const(a) is Const(a)
            assert Const(a) is not Const(b) and Const(a) != Const(b)
        assert [to_text(Const(v)) for pair in pairs for v in pair] == ["0", "1", "-1", "-2", "1/2", "-1/2"]


def test_a_float_constant_is_the_exact_value_of_its_shortest_decimal():
    # the value that the parser gives the float's text, so one node per value
    assert Const(0.1) == parse("0.1") == Const(Fraction(1, 10))
    assert Const(np.float64(0.1)) == Const(Fraction(1, 10))  # numpy 2's repr is np.float64(0.1)
    with job_scope():
        assert Const(0.1) is Const(Fraction(1, 10)) is Const(np.float64(0.1))
        assert Const(-0.0) is Const(0.0) is Const(0)
        assert Const(0.5) is Const(Fraction(1, 2)) and Const(1.0) is Const(1)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Const(value)
        with pytest.raises(ValueError):
            parse("q1_0") + value


def test_a_function_of_a_constant_stays_symbolic():
    # only exact values fold; sin(1) prints, parses and evaluates as a function
    exact = [("sin", 0), ("cos", 0), ("exp", 0), ("ln", 1)]
    assert [to_text(func(f, Const(v))) for f, v in exact] == ["0", "1", "1", "0"]
    s = simplify(parse("sin(1)*q1_0 + sin(1)*q1_0"))
    assert to_text(s) == "2*sin(1)*q1_0"
    assert simplify(parse(to_text(s))) == s
    e = parse("sin(1)")
    assert isinstance(e, Func) and to_text(e) == "sin(1)"
    assert eval_expr(e, {}) == math.sin(1.0)
    assert lambdify([e], [])([]) == [math.sin(1.0)]


def test_unmarked_copy_is_the_marked_node_inside_a_job(rng):
    # a canonical bare symbol is shared by every copy: draw a larger form
    tree = random_tree(rng, depth=6)
    while isinstance(simplify(tree), Symbol):
        tree = random_tree(rng, depth=6)
    s = simplify(tree)
    assert _unmarked_copy(s) is not s and not _unmarked_copy(s)._canon
    with job_scope():
        s = simplify(_unmarked_copy(tree))
        assert _unmarked_copy(s) is s and s._canon


def _copies():
    return copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))


def test_nodes_copy_and_pickle_through_their_constructors():
    text = "sin(q1_0)^(1/2) + 3/2*q1_1*mu - 0.25 + exp(-q2_0)"
    e = parse(text)
    for clone in _copies():
        out = clone(e)
        assert out == e and out is not e and to_text(out) == to_text(e)
        assert all(a == b for a, b in zip(nodes(out), nodes(e)))
    with job_scope():
        e = parse(text)
        for node in nodes(e):
            assert all(clone(node) is node for clone in _copies())


def _texts(seed):
    """to_text of a simplified random tree and the sort texts of every node
    of the tree and of its canonical form, or the error class simplify raised."""
    tree = random_tree(np.random.default_rng(seed), depth=7)
    try:
        s = simplify(tree)
    except NumericFailureError as exc:
        return type(exc)
    return to_text(s), [n._sort_text() for n in nodes(tree)], [n._sort_text() for n in nodes(s)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_job_table_changes_no_text(seed):
    outside = _texts(seed)
    with job_scope():
        inside = _texts(seed)
    assert inside == outside


def test_jobs_in_two_threads_keep_their_own_tables():
    seeds = range(40)
    expected = [_texts(seed) for seed in seeds]
    results, tables, errors = {}, {}, []

    def work(name):
        try:
            with job_scope():
                tables[name] = expr._JOB_TABLE.get()
                results[name] = [_texts(seed) for seed in seeds]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(name,)) for name in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == {"a": expected, "b": expected}
    assert tables["a"] is not tables["b"] and len(tables["a"]) == len(tables["b"]) > 0
    assert expr._JOB_TABLE.get() is None


def test_eval_unbound_symbol_is_error():
    with pytest.raises(UnboundSymbolError):
        eval_expr(parse("q1_0 + mu"), {q(1, 0): 1.0})


def test_eval_domain_errors():
    # eval_expr and the compiled scalar path raise the same classes
    cases = [
        ("ln(q1_0)", -1.0, DomainEvalError),
        ("sqrt(q1_0)", -4.0, DomainEvalError),
        ("1/q1_0", 0.0, DomainEvalError),
        ("sin(q1_0)", math.inf, DomainEvalError),
        ("exp(q1_0)", 1e3, NumericFailureError),
        ("q1_0^2", 1e200, NumericFailureError),
    ]
    for text, x, error in cases:
        with pytest.raises(error):
            eval_expr(parse(text), {q(1, 0): x})
        with pytest.raises(error):
            lambdify([parse(text)], [q(1, 0)])([x])


def test_substitute():
    e = parse("q1_0^2 + mu*q1_0")
    out = substitute(e, {q(1, 0): parse("c + 1")})
    assert equal_numeric(out, parse("(c+1)^2 + mu*(c+1)"), trials=20)


def test_equal_numeric_examples():
    assert equal_numeric(parse("(q1_0+1)^2"), parse("q1_0^2 + 2*q1_0 + 1"))
    assert not equal_numeric(parse("q1_0^2"), parse("q1_0^3"))


def test_no_seed_is_seed_zero():
    draws = [sampling.make_rng(seed).uniform(size=4).tolist() for seed in (None, 0, None)]
    assert draws[0] == draws[1] == draws[2]
    rng = np.random.default_rng(5)
    assert sampling.make_rng(rng) is rng


def test_equal_numeric_rejects_bad_args():
    with pytest.raises(ValueError):
        equal_numeric(parse("1"), parse("1"), trials=0)
    with pytest.raises(ValueError):
        equal_numeric(parse("1"), parse("1"), tol=0.0)


def test_equal_numeric_domain_exhaustion():
    # empty domain: sqrt of a strictly negative expression
    with pytest.raises(DomainExhaustionError):
        equal_numeric(parse("sqrt(-1 - q1_0^2)"), parse("0"), trials=1)


def _equal_numeric_point_by_point(e1, e2, trials, tol, rng, consecutive=False):
    """equal_numeric as it was before it drew its points with sample_rows:
    one point at a time, one scalar draw per symbol, evaluated with
    lambdify, stopping at the first mismatch, giving up after 1000*trials
    draws in all (or, with consecutive, 1000*trials rejected in a row)."""
    symbols = sorted(e1.free | e2.free)
    both = lambdify([e1, e2], symbols)
    budget, done = 1000 * trials, 0
    while done < trials:
        if budget <= 0:
            raise DomainExhaustionError("no valid sample")
        point = [float(rng.uniform(*DEFAULT_BOX)) for _ in symbols]
        budget -= 1
        try:
            v1, v2 = both(point)
        except (DomainEvalError, NumericFailureError):
            continue
        if abs(v1 - v2) > tol * (1.0 + abs(v1)):
            return False
        done += 1
        budget = 1000 * trials if consecutive else budget
    return True


def _verdict(check, e1, e2, trials, rng):
    try:
        return check(e1, e2, trials=trials, tol=1e-10, rng=rng)
    except (DomainExhaustionError, NumericFailureError) as exc:
        return type(exc)


def test_equal_numeric_agrees_with_the_point_by_point_loop():
    trees = np.random.default_rng(2024)
    agreed_true = 0
    for i in range(1002):
        tree = random_tree(trees, depth=5)
        kind = i % 3
        if kind == 0:  # equal
            pair = (tree, simplify(tree))
        elif kind == 1:  # shifted
            pair = (tree, add(tree, Const(1e-6)))
        else:  # inside a domain the sampler must reject points of
            pair = (func("ln", tree), simplify(func("ln", tree)))
        trials = int(trees.integers(1, 7))
        old_rng, new_rng = np.random.default_rng(i), np.random.default_rng(i)
        old = _verdict(_equal_numeric_point_by_point, *pair, trials, old_rng)
        new = _verdict(equal_numeric, *pair, trials, new_rng)
        assert new == old, (i, pair)
        if old is True:
            # the same points were drawn and no more
            assert new_rng.bit_generator.state == old_rng.bit_generator.state, (i, pair)
            agreed_true += 1
    assert agreed_true > 300


def test_equal_numeric_gives_up_after_consecutive_rejections():
    # one point in 1500 is inside the domain: the old loop's 2000 draws in
    # all often fall short of two points, 2000 rejections in a row seldom do
    e1, e2 = parse("ln(q1_0 - 2 + 1/375)"), parse("ln(q1_0 - 749/375)")
    only_old_gave_up = 0
    for seed in range(10):
        old = _verdict(_equal_numeric_point_by_point, e1, e2, 2, np.random.default_rng(seed))
        ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        reference = _verdict(partial(_equal_numeric_point_by_point, consecutive=True), e1, e2, 2, ref_rng)
        assert _verdict(equal_numeric, e1, e2, 2, new_rng) == reference
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        only_old_gave_up += old is DomainExhaustionError and reference is True
    assert only_old_gave_up > 0
    # an empty domain gives up after the same 1000*trials draws as before
    empty = parse("sqrt(-1 - q1_0^2)")
    old_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
    assert _verdict(_equal_numeric_point_by_point, empty, ZERO, 3, old_rng) is DomainExhaustionError
    assert _verdict(equal_numeric, empty, ZERO, 3, new_rng) is DomainExhaustionError
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_equal_numeric_compiles_no_scalar_code(monkeypatch):
    calls = count_calls_everywhere(monkeypatch, expr.lambdify)
    assert equal_numeric(parse("(q1_0+1)^2"), parse("q1_0^2 + 2*q1_0 + 1"))
    assert not equal_numeric(parse("ln(q1_0)"), parse("ln(q1_0) + 1e-6"))
    assert calls == []


def test_exhausting_an_empty_domain_takes_few_block_checks(monkeypatch):
    runs = []  # rows per run of a compiled check

    def counting(exprs, symbols):
        check = compile_rows(exprs, symbols)

        def run(rows):
            runs.append(len(rows))
            return check(rows)

        return run

    monkeypatch.setattr(sampling, "compile_rows", counting)
    with pytest.raises(DomainExhaustionError):
        equal_numeric(parse("sqrt(-1 - q1_0^2)"), ZERO, trials=1)
    assert sum(runs) == 1000  # every attempt is checked once
    assert len(runs) <= 11  # blocks of 1, 2, 4, ... rows, not 1000 runs of one row


def test_sample_binding_respects_guards(rng):
    guard = parse("q1_0")
    for _ in range(10):
        b = sample_binding([q(1, 0)], rng, guards=[(guard, 0.5)])
        assert b[q(1, 0)] >= 0.5


def test_immutability():
    e = parse("q1_0 + 1")
    with pytest.raises(AttributeError):
        e.terms = ()
    for node in (e, e.terms[1], parse("sin(q1_0)^(1/2)")):
        with pytest.raises(AttributeError):
            del node.key
    assert e.terms == (q(1, 0), Const(1)) and e.key == ("+", q(1, 0).key, Const(1).key)


def test_exact_root_of_a_constant_beyond_float_range():
    # the integer root never goes through a float, so 10^200 folds exactly
    assert pow_(Const(10**400), Fraction(1, 2)) == Const(10**200)
    assert pow_(Const(Fraction(10**400, 9)), Fraction(1, 2)) == Const(Fraction(10**200, 3))
    assert pow_(Const(3**900), Fraction(1, 3)) == Const(3**300)
    assert isinstance(pow_(Const(10**400 + 1), Fraction(1, 2)), Pow)
    assert pow_(Const(0), Fraction(1, 2)) == Const(0)
    assert pow_(Const(1), Fraction(1, 5)) == Const(1)
    # a root of degree past the bit length of the radicand is not searched
    # for: the search would start from 2^(2^40)
    assert isinstance(pow_(Const(2), Fraction(1, 2**40)), Pow)


def test_constant_beyond_float_range_is_numeric_failure():
    huge = pow_(Const(10**400), Fraction(1, 3))  # no exact root, no float
    e = huge * parse("q1_0")
    with pytest.raises(NumericFailureError):
        eval_expr(e, {q(1, 0): 1.0})
    with pytest.raises(NumericFailureError):
        lambdify([e], [q(1, 0)])
    with pytest.raises(NumericFailureError):
        compile_rows([e], [q(1, 0)])


def test_constant_arithmetic_past_the_float_range_is_numeric_failure():
    # no constant folds to a float, so these texts simplify; an exact
    # constant too large for a float fails where it is evaluated or compiled
    x = q(1, 0)
    for text in ("2^1100 + sin(1)", "2^4000*sin(1)*q1_0"):
        e = simplify(parse(text))
        with pytest.raises(NumericFailureError):
            eval_expr(e, {x: 1.0})
        for compile_ in (lambdify, compile_rows):
            with pytest.raises(NumericFailureError):
                compile_([e], [x])
    # and a function of constants that overflows fails where it is evaluated
    e = simplify(parse("exp(300)*exp(300)*exp(300)*q1_0"))
    assert to_text(e) == "exp(300)^3*q1_0"
    for make in (lambda: e, lambda: parse("exp(300)*exp(300)*exp(300)*q1_0")):
        with pytest.raises(NumericFailureError):
            eval_expr(make(), {x: 1.0})
        f = lambdify([make()], [x])
        with pytest.raises(NumericFailureError):
            f([1.0])
        assert compile_rows([make()], [x])(np.array([[1.0]]))[1].tolist() == [True]


def test_simplify_of_a_constant_too_long_for_text_is_numeric_failure():
    # simplify orders factors by their text, which an 8429-digit integer has not
    e = parse("q1_1") * add(parse("q1_0"), Const(Fraction(2) ** 28001))
    with pytest.raises(NumericFailureError):
        simplify(e)


X, Y = q(1, 0), q(1, 1)


def _outcome(make):
    """The key of the node make() returns as text, with x and y for X's and
    Y's keys and each long integer abbreviated; or the name of the error
    class it raises."""
    try:
        node = make()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc).__name__
    text = repr(node.key).replace(repr(X.key), "x").replace(repr(Y.key), "y")
    return re.sub(r"\d{20,}", lambda m: f"<{len(m.group())} digits {m.group()[:3]}..{m.group()[-3:]}>", text)


# per coefficient c, with k = Const(c): add(X, k), add(k, k), mul(X, k),
# mul(k, k), pow_(k, 2), pow_(X, c), then simplify of Sum((X, k)),
# Prod((k, X)), Sum((Prod((k, X)), X)) and Prod((k, Sum((X, Y)))), the
# nodes built directly; a float is the exact value of its shortest decimal,
# so 0.0, -0.0 and 1.0 fold as 0 and 1 do, and a nan is no constant
@pytest.mark.parametrize(
    "c, outcomes",
    [
        (0.0, ["x", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)",
               "('c', 'r', 1, 1)", "x", "('c', 'r', 0, 1)", "x", "('c', 'r', 0, 1)"]),
        (-0.0, ["x", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)",
                "('c', 'r', 1, 1)", "x", "('c', 'r', 0, 1)", "x", "('c', 'r', 0, 1)"]),
        (math.nan, ["ValueError"] * 10),
        (Fraction(0), ["x", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)", "('c', 'r', 0, 1)",
                       "('c', 'r', 1, 1)", "x", "('c', 'r', 0, 1)", "x", "('c', 'r', 0, 1)"]),
        (1, ["('+', x, ('c', 'r', 1, 1))", "('c', 'r', 2, 1)", "x", "('c', 'r', 1, 1)", "('c', 'r', 1, 1)",
             "x", "('+', x, ('c', 'r', 1, 1))", "x", "('*', ('c', 'r', 2, 1), x)", "('+', x, y)"]),
        (1.0, ["('+', x, ('c', 'r', 1, 1))", "('c', 'r', 2, 1)", "x", "('c', 'r', 1, 1)", "('c', 'r', 1, 1)",
               "x", "('+', x, ('c', 'r', 1, 1))", "x", "('*', ('c', 'r', 2, 1), x)", "('+', x, y)"]),
        (10**299, [
            "('+', x, ('c', 'r', <300 digits 100..000>, 1))",
            "('c', 'r', <300 digits 200..000>, 1)",
            "('*', ('c', 'r', <300 digits 100..000>, 1), x)",
            "('c', 'r', <599 digits 100..000>, 1)",
            "('c', 'r', <599 digits 100..000>, 1)",
            "('^', x, <300 digits 100..000>, 1)",
            "('+', x, ('c', 'r', <300 digits 100..000>, 1))",
            "('*', ('c', 'r', <300 digits 100..000>, 1), x)",
            "('*', ('c', 'r', <300 digits 100..001>, 1), x)",
            "('+', ('*', ('c', 'r', <300 digits 100..000>, 1), x), ('*', ('c', 'r', <300 digits 100..000>, 1), y))",
        ]),
    ],
)
def test_zero_and_one_coefficients_fold_as_pinned(c, outcomes):
    makers = [
        lambda k: add(X, k),
        lambda k: add(k, k),
        lambda k: mul(X, k),
        lambda k: mul(k, k),
        lambda k: pow_(k, 2),
        lambda k: pow_(X, c),
        lambda k: simplify(Sum((X, k))),
        lambda k: simplify(Prod((k, X))),
        lambda k: simplify(Sum((Prod((k, X)), X))),
        lambda k: simplify(Prod((k, Sum((X, Y))))),
    ]
    assert [_outcome(lambda: make(Const(c))) for make in makers] == outcomes
    with job_scope():
        assert [_outcome(lambda: make(Const(c))) for make in makers] == outcomes


def test_a_bool_is_not_a_coefficient():
    with pytest.raises(TypeError):
        expr._as_coeff(True)
    with pytest.raises(TypeError):
        Const(False)


@pytest.mark.parametrize("bad", [3, "x", None])
def test_the_tree_walkers_refuse_a_non_expr(bad):
    walkers = [
        (lambda: simplify(bad), TypeError),
        (lambda: to_text(bad), TypeError),
        (lambda: lambdify([bad], [X]), AttributeError),
        (lambda: substitute(bad, {X: Y}), TypeError),
        (lambda: diff(bad, X), AttributeError),
    ]
    for walk, error in walkers:
        with pytest.raises(Exception) as err:
            walk()
        assert type(err.value) is error


# one node of each class, built by its own constructor: simplify, diff by X,
# to_text, substitute X by Y, eval_expr and lambdify each have a branch for it
@pytest.mark.parametrize(
    "node, text, simplified, derivative, substituted, value",
    [
        (Const(Fraction(3, 2)), "3/2", "3/2", "0", "3/2", 1.5),
        (X, "q1_0", "q1_0", "1", "q1_1", 0.5),
        (Sum((X, Const(2))), "q1_0 + 2", "q1_0 + 2", "1", "q1_1 + 2", 2.5),
        (Prod((Const(3), X, Y)), "3*q1_0*q1_1", "3*q1_0*q1_1", "3*q1_1", "3*q1_1*q1_1", 0.375),
        (Pow(X, Fraction(3)), "q1_0^3", "q1_0^3", "3*q1_0^2", "q1_1^3", 0.125),
        (Func("sin", X), "sin(q1_0)", "sin(q1_0)", "cos(q1_0)", "sin(q1_1)", math.sin(0.5)),
    ],
)
def test_every_node_class_has_a_branch_in_every_walker(node, text, simplified, derivative, substituted, value):
    assert to_text(node) == text
    assert to_text(simplify(node)) == simplified
    assert to_text(diff(node, X)) == derivative
    assert to_text(substitute(node, {X: Y})) == substituted
    assert eval_expr(node, {X: 0.5, Y: 0.25}) == value
    assert lambdify([node], [X, Y])([0.5, 0.25]) == [value]


def test_zero_and_one_hold_the_shared_fractions():
    # the accumulators in add, mul and simplify start from _F0 and _F1 and
    # skip a coefficient that is one of them: ZERO and ONE carry those very
    # objects, so a sum or product with them skips the arithmetic
    assert expr.ZERO.value is expr._F0
    assert expr.ONE.value is expr._F1


def test_sum_adds_left_to_right_in_every_evaluator():
    # sum() of floats is compensated from Python 3.12 on and would give 2.0
    symbols = [q(1, 0), q(1, 1), q(1, 2), q(2, 0)]
    total = Sum(tuple(symbols))
    row = [1e16, 1.0, -1e16, 1.0]
    assert eval_expr(total, dict(zip(symbols, row))) == 1.0
    assert lambdify([total], symbols)(row) == [1.0]
    assert compile_rows([total], symbols)(np.array([row]))[0][0].tolist() == [1.0]


def test_long_chain_of_single_use_steps_compiles():
    # 150 nested sums and products, each with one use: the generated code
    # must compile (Python's parser refuses more than 200 nested
    # parentheses) and give eval_expr's bits
    symbols = [q(1, 0), q(1, 1)]
    x, y = symbols
    e = x
    for i in range(150):
        e = Sum((Prod((e, y)), Const(i + 1)))
    row = [0.5, 0.9]
    assert lambdify([e], symbols)(row) == [eval_expr(e, dict(zip(symbols, row)))]


def test_sums_and_products_compile_without_an_error_frame():
    # float + and * cannot raise, so no try/except is written; a constant
    # output is not checked; the other outputs still are, as in eval_expr
    symbols = [q(1, 0), q(2, 0)]
    exprs = [parse("q1_0*q2_0 + 3"), parse("5/2"), parse("q1_0")]
    f = lambdify(exprs, symbols)
    if hasattr(f.__code__, "co_exceptiontable"):  # Python 3.11 and later
        assert f.__code__.co_exceptiontable == b""
        assert lambdify([parse("q1_0^2")], symbols).__code__.co_exceptiontable != b""
    assert f([2.0, 3.0]) == [9.0, 2.5, 2.0]
    for row in ([1e200, 1e200], [float("nan"), 1.0], [float("inf"), 0.0]):
        with pytest.raises(NumericFailureError):
            f(row)
        with pytest.raises(NumericFailureError):
            [eval_expr(e, dict(zip(symbols, row))) for e in exprs]


def test_a_symbol_free_subtree_is_one_constant_step():
    # sin(1) and exp(1/3) are evaluated once, by eval_expr, when the tape
    # is built: the compiled code reads their values and calls no function
    x = q(1, 0)
    e = parse("sin(1)*q1_0 + exp(1/3)")
    steps = expr.tape([e], [x])
    assert {op for op, _, _ in steps} == {"sym", "const", "mul", "add", "out"}
    assert {math.sin(1.0), math.exp(1 / 3)} <= {arg for op, arg, _ in steps if op == "const"}
    lines, _, raises = expr.step_lines(steps, [])
    assert not raises and "math." not in "\n".join(lines)
    assert lambdify([e], [x])([0.5]) == [eval_expr(e, {x: 0.5})]
    assert compile_rows([e], [x])(np.array([[0.5]]))[0][0].tolist() == [eval_expr(e, {x: 0.5})]


def test_a_symbol_free_subtree_without_a_value_keeps_its_steps():
    # ln(-1) has no value: its steps stay in the tape, so the compiled code
    # raises eval_expr's error and a probe rejects every row
    x = q(1, 0)
    e = parse("1/2*q1_0^2 + ln(-1)")
    assert "ln" in {op for op, _, _ in expr.tape([e], [x])}
    with pytest.raises(DomainEvalError):
        eval_expr(e, {x: 0.5})
    with pytest.raises(DomainEvalError):
        lambdify([e], [x])([0.5])
    assert compile_rows([e], [x])(np.array([[0.5], [1.0]]))[1].tolist() == [True, True]


def test_constant_powers_fold_exactly_only_up_to_a_bit_bound():
    # a power folds only when it prints: 2^13606 has 4096 digits, 2^13607
    # has 4097, one past the longest literal the parser reads back
    assert pow_(Const(2), 13606) == Const(2**13606)
    assert len(to_text(pow_(Const(2), 13606))) == 4096
    assert isinstance(pow_(Const(2), 13607), Pow)
    assert pow_(Const(Fraction(1, 10)), -4095) == Const(10**4095)
    assert isinstance(pow_(Const(Fraction(1, 10)), 4096), Pow)
    # an exponent too large for a float is judged too
    assert isinstance(pow_(Const(2), -(10**400)), Pow)
    assert pow_(Const(-1), 10**400) == Const(1)
    assert pow_(Const(Fraction(1, 3)), -5) == Const(243)
    tower = pow_(Const(10), 10**10)  # 10^10^10 is not computed
    assert isinstance(tower, Pow) and tower.exponent == 10**10
    with pytest.raises(NumericFailureError):
        eval_expr(tower, {})
    with pytest.raises(NumericFailureError):
        lambdify([tower], [])([])


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
    scalar = lambdify(exprs, SYMBOL_POOL)
    for i, row in enumerate(rows.tolist()):
        binding = dict(zip(SYMBOL_POOL, row))
        # the scalar path gives eval_expr's bits, or raises its error class
        try:
            reference = [eval_expr(e, binding) for e in exprs]
        except (DomainEvalError, NumericFailureError) as exc:
            with pytest.raises(type(exc)):
                scalar(row)
        else:
            assert [x.hex() for x in scalar(row)] == [x.hex() for x in reference]
        subtrees = [list(nodes(e)) for e in exprs]
        # numpy's power and exp may differ from the math module's by an ulp;
        # past 1e6 that ulp moves sin/cos by more than 1e-10 and can flip a
        # sign a domain check depends on, so such rows are not comparable
        if any(
            isinstance(n, Func) and n.fname in ("sin", "cos") and 1e6 < _magnitude(n.arg, binding) < math.inf
            for subtree in subtrees
            for n in subtree
        ):
            continue
        try:
            expected = [eval_expr(e, binding) for e in exprs]
        except (DomainEvalError, NumericFailureError, OverflowError):
            assert bad[i]
            continue
        assert not bad[i]
        for v, x, subtree in zip(values, expected, subtrees):
            # rounding errors scale with the largest intermediate value
            scale = max(_magnitude(n, binding) for n in subtree)
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

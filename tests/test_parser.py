import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import jetlag
from jetlag.calculus import diff
from jetlag.errors import NumericFailureError, ParseError, UnknownIdentifierError
from jetlag.expr import Const, Pow, Prod, compile_rows, eval_expr, lambdify, simplify, substitute
from jetlag.parser import _TOKEN_RE, _number_value, parse
from jetlag.printer import to_text
from jetlag.sampling import equal_numeric
from jetlag.symbols import q

from conftest import MERGED_POWERS, random_tree


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


# every text that the tokenizer reads as one number literal, in any \d digits
_LITERALS = st.from_regex(_TOKEN_RE, fullmatch=True).filter(lambda t: _TOKEN_RE.fullmatch(t).lastgroup == "number")


@given(_LITERALS)
@example("0")
@example("007")
@example("12")
@example("1.")
@example("0.50")
@example(".5e-01")
@example("12.5E+2")
@example("\u0663")  # ARABIC-INDIC DIGIT THREE
@example("\u0660\u0661\u0662")  # leading zero, in Arabic-Indic digits
@example("\uff11\uff12.\uff15e\uff12")  # fullwidth 12.5e2
@example("0.0e99999999")  # zero at any exponent
def test_a_literal_is_worth_what_fraction_reads_in_its_text(text):
    # integer literals skip Fraction's own parse of the text
    try:
        value = _number_value(text, 0)
    except ParseError:  # past the digit bound (see the next test)
        return
    # Fraction(text) builds 10**exponent even for a zero significand, which
    # for a long exponent takes unbounded time; zero times it is zero
    mantissa = text.lower().partition("e")[0]
    assert value == (Fraction(0) if Fraction(mantissa) == 0 else Fraction(text))


def test_number_literal_size_is_bounded_before_it_is_built():
    assert parse("1" * 4096).value == int("1" * 4096)
    assert parse("1.5e4000").value == 15 * 10**3999
    assert parse("0e99999999").value == 0
    for text in ("1" * 4097, "1e10000000", "0." + "0" * 5000 + "1", "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="needs more than 4096 digits"):
            parse(text)


def _nested(levels):
    """(q1_0 + 1)^(1/2)*q1_1 + 1 wrapped around itself: two parse levels
    and four tree levels (sum, product, power, sum) per wrap."""
    text = "q1_0"
    for _ in range(levels):
        text = f"(({text} + 1)^(1/2)*q1_1 + 1)"
    return text


def test_nesting_depth_is_bounded():
    too_deep = [
        ("(" * 500 + "q1_0" + ")" * 500, 101),
        ("-" * 101 + "q1_0", 101),
        ("sin(" * 101 + "q1_0" + ")" * 101, 404),
    ]
    for text, offset in too_deep:
        with pytest.raises(ParseError, match="nests deeper than 100 levels") as err:
            parse(text)
        assert err.value.offset == offset
    with pytest.raises(ParseError, match="nests deeper"):
        parse(_nested(50))
    # at the bound, every recursive pass over the tree stays inside the stack
    for text in ("sin(" * 100 + "q1_0" + ")" * 100, "-" * 100 + "q1_0", _nested(49)):
        e = simplify(parse(text))
        d = diff(e, q(1, 0))
        to_text(d)
        substitute(d, {q(1, 1): q(1, 0)})
        symbols = sorted(d.free)
        rows = np.full((2, len(symbols)), 0.25)
        values, bad = compile_rows([d], symbols)(rows)
        assert not bad.any()
        binding = dict(zip(symbols, rows[0].tolist()))
        assert lambdify([d], symbols)(rows[0].tolist()) == [eval_expr(d, binding)]


# the seconds that parse, simplify, diff, to_text and both compilers take on
# sin(...)^3*q1_1 + q1_0 wrapped around itself argv[1] times: one parse level
# and four tree levels per wrap
_TIME_NESTED = """
import sys, time
import numpy as np
from jetlag.calculus import diff
from jetlag.expr import compile_rows, lambdify, simplify
from jetlag.parser import parse
from jetlag.printer import to_text
from jetlag.symbols import q

text = "q1_0"
for _ in range(int(sys.argv[1])):
    text = f"sin({text})^3*q1_1 + q1_0"
start = time.perf_counter()
d = diff(simplify(parse(text)), q(1, 0))
to_text(d)
symbols = sorted(d.free)
lambdify([d], symbols)(np.full(len(symbols), 0.25).tolist())
compile_rows([d], symbols)(np.full((2, len(symbols)), 0.25))
print(time.perf_counter() - start)
"""


@pytest.mark.parametrize("wraps", [49, 99])
def test_deep_nesting_runs_within_its_time_budget(wraps):
    # 99 wraps took 15 s while each node's key was hashed and ordered as a
    # whole subtree at every level above it
    proc = subprocess.run(
        [sys.executable, "-c", _TIME_NESTED, str(wraps)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 2.0


# a run of + and - folds its constants into one exact sum, which no order
# of adding changes; a function of a constant such as sin(1) stays a term
@pytest.mark.parametrize(
    "text, printed, bits",
    [
        ("1/3 + 0.1 + 2/7 + q1_0", "q1_0 + 151/210", "0x1.3813813813814p+0"),
        ("1/3 + sin(1) + 2/7 + q1_0", "sin(1) + q1_0 + 13/21", "0x1.f5e48c16c24f1p+0"),
        ("exp(1) + 1/3 + sin(1) - q1_0", "exp(1) + sin(1) - q1_0 + 1/3", "0x1.b250a5981454fp+1"),
        (
            "(1/10 + sin(2)) - (2/7 - q1_1) + 1/3 + q1_0",
            "sin(2) - (-q1_1 + 2/7) + q1_0 + 13/30",
            "0x1.ce9213fc57fedp+0",
        ),
    ],
)
def test_a_sum_folds_its_constants_from_the_left(text, printed, bits):
    e = parse(text)
    assert to_text(e) == printed
    assert eval_expr(e, {q(1, 0): 0.5, q(1, 1): 0.25}).hex() == bits


# a run of * and / folds its constants into one exact product, as _parse_sum
# does; a function of a constant stays a factor, which parse does not cancel
@pytest.mark.parametrize(
    "text, printed, bits",
    [
        ("ln(3)/q1_1*5*cos(2)", "5*ln(3)*cos(2)/q1_1", "-0x1.249907fee0ec1p+3"),
        ("5/exp(1)*q1_1*q1_0*(1/3)", "5/3*q1_1*q1_0/exp(1)", "0x1.39ec7d7d01cafp-4"),
        ("q1_1/sin(1)/(1/3)*q1_0*(3/11)/q1_1", "9/11*q1_1*q1_0/sin(1)/q1_1", "0x1.f1d45afd86953p-2"),
        ("cos(2)/5*0.1/0.1/q1_0", "1/5*cos(2)/q1_0", "-0x1.54e8512a92804p-3"),
        ("q1_0 * 3 / exp(1) * 1/3 * exp(1)", "q1_0*exp(1)/exp(1)", "0x1.0000000000000p-1"),
        ("0*q1_0*sin(1)/q1_1", "0", "0x0.0p+0"),
        ("2*q1_0*q1_1^2/q1_0*0.1*3", "3/5*q1_0*q1_1^2/q1_0", "0x1.3333333333333p-5"),
        ("1/3*sin(1)*5/7*q1_0/sin(1)*7/5*3 + q1_1", "sin(1)*q1_0/sin(1) + q1_1", "0x1.8000000000000p-1"),
    ],
)
def test_a_product_folds_its_constants_from_the_left(text, printed, bits):
    e = parse(text)
    assert to_text(e) == printed
    assert eval_expr(e, {q(1, 0): 0.5, q(1, 1): 0.25}).hex() == bits


# the seconds that parse takes on a flat sum of argv[1] terms, over 100 KB
_TIME_FLAT_SUM = """
import sys, time
from jetlag.parser import parse

text = " + ".join(f"{k}*q1_{k % 3}*q2_{k % 5}" for k in range(1, int(sys.argv[1]) + 1))
assert len(text) > 100_000
start = time.perf_counter()
parse(text)
print(time.perf_counter() - start)
"""


def test_a_flat_sum_parses_in_linear_time():
    # 8000 terms took 10.7 s while each + re-flattened every term before it
    # and each token re-encoded the text before it
    proc = subprocess.run(
        [sys.executable, "-c", _TIME_FLAT_SUM, "8000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 3.0


# the seconds that parse takes on a product of 4000 factors, alternately
# multiplied and divided
_TIME_PRODUCT = """
import time
from jetlag.parser import parse

text = "q1_0" + "".join(f"{'*/'[k % 2]}q{k % 7 + 1}_{k % 3}" for k in range(1, 4000))
start = time.perf_counter()
parse(text)
print(time.perf_counter() - start)
"""


def test_a_long_product_parses_in_linear_time():
    # 4000 factors took 0.81 s, and 1000 took 0.065 s, while each * or /
    # re-flattened every factor before it
    proc = subprocess.run(
        [sys.executable, "-c", _TIME_PRODUCT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


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


# a no-break space is whitespace of two bytes in UTF-8
@pytest.mark.parametrize("text, offset", [("\ud800", 0), ("q1_0 + \udfff", 7), ("q1_0\u00a0+ \udfff", 8)])
def test_a_lone_surrogate_is_a_parse_error_at_its_byte_offset(text, offset):
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse(text)
    assert err.value.offset == offset


def test_unknown_identifier_lists_token():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("2*q1 + 1")
    assert err.value.token == "q1"


def test_whitespace_insignificant():
    a = parse("  q1_0+ 2 *mu ")
    b = parse("q1_0+2*mu")
    assert a == b


def test_canonical_forms_print_back():
    # 1/0^2 would parse back as 1/0, since 0^2 folds to 0; the merged
    # powers once simplified to forms that a second pass changed
    for text in ("-(0^(-2))", "3*0^(-3/2)*q1_0", "q1_0/0", "10^4095*q1_0", *MERGED_POWERS):
        s = simplify(parse(text))
        assert simplify(parse(to_text(s))) == s


def test_constants_longer_than_a_literal_are_not_printed():
    # a product of folded powers can pass the parser's 4096 digits: 10^4097,
    # and 7^5000 with 4226 digits, within the interpreter's limit on
    # printing an int.  A single power past the bound is not folded, and
    # prints as a power.
    for text in ("10^2048*10^2049*q1_0", "(7/3)^2500*(7/3)^2500*q1_0"):
        with pytest.raises(NumericFailureError, match="too long to print"):
            to_text(simplify(parse(text)))
    for text in ("10^4096*q1_0", "(7/3)^5000*q1_0"):
        assert to_text(simplify(parse(text))) == text


def test_round_trip_eval_equal(rng):
    for _ in range(60):
        e = random_tree(rng, depth=5)
        text = to_text(e)
        back = parse(text)
        assert equal_numeric(e, back, trials=20, tol=1e-12, rng=np.random.default_rng(7))

"""Canonical text rendering of expressions.

Output always re-parses to an eval-equivalent expression.  Rational constants
print as a/b, half powers as sqrt(...), other fractional or negative exponents
parenthesized after ^.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NumericFailureError
from .expr import _MAX_DIGITS, Const, Expr, Func, Pow, Prod, Sum, Symbol, pow_

_PREC_SUM = 1
_PREC_PROD = 2
_PREC_POW = 3
_PREC_ATOM = 4
_HALF = Fraction(1, 2)  # the exponent printed as sqrt(...)


def to_text(e: Expr) -> str:
    return _render(e)[0]


def _render(e):
    """Returns (text, precedence of the produced syntax)."""
    if isinstance(e, Const):
        return _render_const(e.value)
    if isinstance(e, Symbol):
        return e.text, _PREC_ATOM
    if isinstance(e, Sum):
        parts = []
        for i, t in enumerate(e.terms):
            text, sign = _signed(t)
            if i == 0:
                parts.append(text if sign > 0 else "-" + text)
            else:
                parts.append((" + " if sign > 0 else " - ") + text)
        return "".join(parts), _PREC_SUM
    if isinstance(e, Prod):
        text, sign = _render_prod(e)
        if sign < 0:
            return "-" + text, _PREC_SUM  # leading minus parses at sum level
        return text, _PREC_PROD
    if isinstance(e, Pow):
        if e.exponent == _HALF:
            return f"sqrt({to_text(e.base)})", _PREC_ATOM
        base_text = _wrap(e.base, _PREC_POW + 1)  # powers nest via parens only
        if e.exponent.denominator == 1 and e.exponent >= 0:
            return f"{base_text}^{e.exponent.numerator}", _PREC_POW
        if e.exponent.denominator == 1:
            return f"{base_text}^(-{-e.exponent.numerator})", _PREC_POW
        return (
            f"{base_text}^({e.exponent.numerator}/{e.exponent.denominator})",
            _PREC_POW,
        )
    if isinstance(e, Func):
        return f"{e.fname}({to_text(e.arg)})", _PREC_ATOM
    raise TypeError(f"not an Expr: {e!r}")


def _render_const(value: Fraction):
    # no integer longer than a literal the parser reads back
    try:
        text = str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the interpreter's limit on digits of an int as text
        text = None
    if text is None or (
        len(text) > _MAX_DIGITS and max(len(part.lstrip("-")) for part in text.split("/")) > _MAX_DIGITS
    ):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        raise NumericFailureError(f"an exact constant of {bits} bits is too long to print")
    if value < 0:
        return text, _PREC_SUM
    return text, _PREC_ATOM if value.denominator == 1 else _PREC_PROD


def _signed(t):
    """Render a term, splitting off a leading minus when it has one."""
    if type(t) is Const:
        if t.value < 0:
            return _render_const(-t.value)[0], -1
        return _render_const(t.value)[0], +1
    if type(t) is Prod:
        return _render_prod(t)
    return _wrap(t, _PREC_PROD), +1


def _render_prod(e: Prod):
    """Product text without a leading sign; returns (text, sign)."""
    sign = +1
    coeff = None
    numerator = []
    denominator = []
    for f in e.factors:
        if isinstance(f, Const):
            v = f.value
            if v < 0:
                sign = -sign
                v = -v
            coeff = v if coeff is None else coeff * v
        elif isinstance(f, Pow) and f.exponent < 0:
            inverse = pow_(f.base, -f.exponent)
            if isinstance(inverse, Const) and f.exponent != -1:
                numerator.append(f)  # 0^(-2): as 1/0^2 it would parse back as 1/0
            else:
                denominator.append(inverse)
        else:
            numerator.append(f)
    parts = []
    if coeff is not None and coeff != 1:
        parts.append(_render_const(coeff)[0])
    for f in numerator:
        parts.append(_wrap(f, _PREC_PROD))
    if not parts:
        parts.append("1")
    text = "*".join(parts)
    for f in denominator:
        text += "/" + _wrap(f, _PREC_PROD + 1)
    return text, sign


def _wrap(e: Expr, min_prec: int) -> str:
    text, prec = _render(e)
    if prec < min_prec:
        return f"({text})"
    return text

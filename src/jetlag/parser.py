"""Pratt parser for expression text.

Grammar: ^ binds tightest (right associative), then unary minus, then * and /,
then + and -.  Functions sin/cos/exp/ln/sqrt apply via parentheses.  Exponents
must fold to rational constants.  Whitespace is insignificant; errors carry
byte offsets.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .expr import _FOLD_BITS, Const, Expr, add, div, func, mul, neg, pow_, sym
from .symbols import FUNCTION_NAMES, symbol_from_name

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\^|\*|/|\+|-|\(|\))
    """,
    re.VERBOSE,
)

# the most decimal digits of a literal's numerator or denominator: a digit
# carries under 4 bits, so the value stays under expr._FOLD_BITS bits, and
# its integers stay within Python's int-to-text limit (4300 digits)
_MAX_DIGITS = _FOLD_BITS // 4

_BP_ADD = 10
_BP_MUL = 20
_BP_UNARY = 25
_BP_POW = 30


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str):
    tokens = []
    pos = 0
    data = text.encode("utf-8").decode("utf-8")  # validate utf-8 round trip
    while pos < len(data):
        m = _TOKEN_RE.match(data, pos)
        if not m or m.start() != pos:
            raise ParseError(f"unexpected character {data[pos]!r}", _byte_offset(data, pos))
        if m.lastgroup != "ws" and m.lastgroup is not None:
            kind = m.lastgroup
            if kind in ("number", "ident", "op"):
                tokens.append(_Token(kind, m.group(), _byte_offset(data, pos)))
        pos = m.end()
    tokens.append(_Token("end", "", _byte_offset(data, len(data))))
    return tokens


def _byte_offset(text: str, char_index: int) -> int:
    return len(text[:char_index].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.offset)

    def parse(self) -> Expr:
        e = self.parse_expr(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def parse_expr(self, min_bp: int) -> Expr:
        lhs = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in ("+", "-", "*", "/", "^"):
                break
            bp = {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL, "^": _BP_POW}[tok.text]
            if bp < min_bp:
                break
            self.advance()
            if tok.text == "^":
                # right associative; exponent must be a rational constant
                rhs = self.parse_expr(_BP_POW)
                lhs = self._make_pow(lhs, rhs, tok.offset)
            else:
                rhs = self.parse_expr(bp + 1)
                if tok.text == "+":
                    lhs = add(lhs, rhs)
                elif tok.text == "-":
                    lhs = add(lhs, neg(rhs))
                elif tok.text == "*":
                    lhs = mul(lhs, rhs)
                else:
                    lhs = div(lhs, rhs)
        return lhs

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            return Const(_number_value(tok.text, tok.offset))
        if tok.kind == "ident":
            if tok.text in FUNCTION_NAMES and self._at("("):
                self.advance()
                arg = self.parse_expr(0)
                self.expect(")")
                return func(tok.text, arg)
            return sym(symbol_from_name(tok.text, tok.offset))
        if tok.kind == "op" and tok.text == "(":
            e = self.parse_expr(0)
            self.expect(")")
            return e
        if tok.kind == "op" and tok.text == "-":
            return neg(self.parse_expr(_BP_UNARY))
        if tok.kind == "op" and tok.text == "+":
            return self.parse_expr(_BP_UNARY)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.offset)

    def _at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    @staticmethod
    def _make_pow(base: Expr, exponent: Expr, offset: int) -> Expr:
        from .expr import simplify

        folded = simplify(exponent)
        if not isinstance(folded, Const) or not isinstance(folded.value, Fraction):
            raise ParseError("exponent must be a rational constant", offset)
        return pow_(base, folded.value)


def _number_value(text: str, offset: int) -> Fraction:
    """The exact value of a number literal.

    Its significant digits plus the decimal shift may be at most
    _MAX_DIGITS, which bounds the digits of its numerator and denominator;
    this is judged from the text, before the value is built.
    """
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    if not digits:
        return Fraction(0)
    # an exponent with more digits than _MAX_DIGITS is out of range: it is never converted
    if len(exponent.lstrip("+-").lstrip("0")) > len(str(_MAX_DIGITS)) or (
        len(digits) + abs(int(exponent or 0) - len(frac)) > _MAX_DIGITS
    ):
        raise ParseError(f"number literal needs more than {_MAX_DIGITS} digits", offset)
    return Fraction(text)


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError / UnknownIdentifierError."""
    if not isinstance(text, str):
        raise TypeError("expression text must be str")
    return _Parser(text).parse()

"""Pratt parser for expression text.

Grammar: ^ binds tightest (right associative), then unary minus, then * and /,
then + and -.  Functions sin/cos/exp/ln/sqrt apply via parentheses.  Number
literals are exact rationals, and exponents must fold to constants.
Whitespace is insignificant; errors carry byte offsets.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .expr import _MAX_DIGITS, Const, Expr, add, func, mul, neg, pow_, simplify
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

# the most nested levels (groups, function arguments, unary signs, exponents
# and right operands; the whole expression is not one): at this depth every
# recursive pass over the tree (simplify, diff, substitute, to_text, the tape,
# eval_expr) stays inside Python's default stack
_MAX_DEPTH = 100

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
    offset = 0  # pos in bytes of UTF-8, summed token by token (a lone surrogate matches none)
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.start() != pos:
            raise ParseError(f"unexpected character {text[pos]!r}", offset)
        if m.lastgroup != "ws" and m.lastgroup is not None:
            kind = m.lastgroup
            if kind in ("number", "ident", "op"):
                tokens.append(_Token(kind, m.group(), offset))
        offset += len(m.group().encode("utf-8"))
        pos = m.end()
    tokens.append(_Token("end", "", offset))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        e = self._parse_binary(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def parse_expr(self, min_bp: int) -> Expr:
        if self.depth == _MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", self.peek().offset)
        self.depth += 1
        e = self._parse_binary(min_bp)
        self.depth -= 1
        return e

    def _parse_binary(self, min_bp: int) -> Expr:
        lhs = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in ("+", "-", "*", "/", "^"):
                break
            bp = {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL, "^": _BP_POW}[tok.text]
            if bp < min_bp:
                break
            if bp == _BP_ADD:
                return self._parse_sum(lhs)
            if bp == _BP_MUL:
                lhs = self._parse_product(lhs)
                continue
            self.advance()
            # right associative; exponent must be a rational constant
            rhs = self.parse_expr(_BP_POW)
            lhs = self._make_pow(lhs, rhs, tok.offset)
        return lhs

    def _parse_sum(self, term: Expr) -> Expr:
        """The run of + and - that follows term, as one add: a left fold re-flattens the
        earlier terms at each sign."""
        items = []
        while True:
            items.append(term)
            if not (self._at("+") or self._at("-")):
                return add(*items)
            sign = self.advance().text
            term = self.parse_expr(_BP_ADD + 1)
            if sign == "-":
                term = neg(term)

    def _parse_product(self, factor: Expr) -> Expr:
        """The run of * and / that follows factor, as one mul, as _parse_sum."""
        items = []
        while True:
            items.append(factor)
            if not (self._at("*") or self._at("/")):
                return mul(*items)
            op = self.advance().text
            factor = self.parse_expr(_BP_MUL + 1)
            if op == "/":
                factor = pow_(factor, Fraction(-1))

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
            return symbol_from_name(tok.text, tok.offset)
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
        folded = simplify(exponent)
        if not isinstance(folded, Const):
            raise ParseError("exponent must be a rational constant", offset)
        return pow_(base, folded.value)


def _number_value(text: str, offset: int) -> Fraction:
    """The exact value of a number literal.

    Its significant digits plus the decimal shift may be at most
    _MAX_DIGITS, which bounds the digits of its numerator and denominator;
    this is judged from the text, before the value is built.
    """
    mantissa, e, exponent = text.lower().partition("e")
    whole, point, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    if not digits:
        return Fraction(0)
    # an exponent with more digits than _MAX_DIGITS is out of range: it is never converted
    if len(exponent.lstrip("+-").lstrip("0")) > len(str(_MAX_DIGITS)) or (
        len(digits) + abs(int(exponent or 0) - len(frac)) > _MAX_DIGITS
    ):
        raise ParseError(f"number literal needs more than {_MAX_DIGITS} digits", offset)
    if not (e or point):  # an integer: Fraction(text) would match it with a regular expression
        return Fraction(int(text))
    return Fraction(text)


def parse(text: str) -> Expr:
    """Parse expression text; raises ParseError / UnknownIdentifierError."""
    if not isinstance(text, str):
        raise TypeError("expression text must be str")
    return _Parser(text).parse()

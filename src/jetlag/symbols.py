"""Jet-coordinate symbols: their named constructors and canonical text grammar.

Symbol kinds cover position jets q{A}_{k}, Ostrogradsky momenta p{A}_{k},
acceleration-bundle coordinates a{A}_{k} and auxiliaries m{A}_{k}, the
acceleration-bundle momenta pq{A}/pa{A}/pm{A}, the velocity/momentum fibers
dq{A}_{k}/dp{A}_{k} of iterated tangent charts, multipliers lam{j}, and free
parameters (bare identifiers).  Component indices A start at 1, derivative
levels at 0.  Symbol, the leaf node of every expression, and Kind live in
expr and are imported from here as well.
"""

from __future__ import annotations

import re

from .errors import UnknownIdentifierError
from .expr import _IDENT_RE, Kind, Symbol

FUNCTION_NAMES = ("sin", "cos", "exp", "ln", "sqrt")

_LEVELED_RE = re.compile(r"^(dq|dp|q|p|a|m)([0-9]+)_([0-9]+)$")
_COMPONENT_RE = re.compile(r"^(pq|pa|pm|lam)([0-9]+)$")
# identifiers that look like a structured name but do not scan as one
_RESERVED_PREFIX_RE = re.compile(r"^(?:dq|dp|pq|pa|pm|lam|[qpam])[0-9]")


def q(component: int, level: int) -> Symbol:
    return Symbol(Kind.Q, component, level)


def p(component: int, level: int) -> Symbol:
    return Symbol(Kind.P, component, level)


def acc(component: int, level: int) -> Symbol:
    return Symbol(Kind.A, component, level)


def aux(component: int, level: int) -> Symbol:
    return Symbol(Kind.M, component, level)


def pq(component: int) -> Symbol:
    return Symbol(Kind.PQ, component)


def pa(component: int) -> Symbol:
    return Symbol(Kind.PA, component)


def pm(component: int) -> Symbol:
    return Symbol(Kind.PM, component)


def dq(component: int, level: int) -> Symbol:
    return Symbol(Kind.DOTQ, component, level)


def dp(component: int, level: int) -> Symbol:
    return Symbol(Kind.DOTP, component, level)


def lam(index: int) -> Symbol:
    return Symbol(Kind.LAMBDA, index)


def param(name: str) -> Symbol:
    return Symbol(Kind.PARAM, name=name)


def symbol_from_name(text: str, offset: int = 0) -> Symbol:
    """Parse one canonical identifier into a Symbol.

    Identifiers that start like a structured coordinate but fail the grammar
    (q1 without a level, q0_1 with component 0, bare lam) are rejected rather
    than silently becoming parameters.
    """
    m = _LEVELED_RE.match(text)
    if m:
        prefix, comp, level = m.group(1), int(m.group(2)), int(m.group(3))
        if comp < 1:
            raise UnknownIdentifierError(text, offset)
        return Symbol(Kind(prefix), comp, level)
    m = _COMPONENT_RE.match(text)
    if m:
        prefix, comp = m.group(1), int(m.group(2))
        if comp < 1:
            raise UnknownIdentifierError(text, offset)
        return Symbol(Kind(prefix), comp)
    if _RESERVED_PREFIX_RE.match(text) or text in ("lam",):
        raise UnknownIdentifierError(text, offset)
    if text in FUNCTION_NAMES:
        raise UnknownIdentifierError(text, offset)
    if not _IDENT_RE.match(text):
        raise UnknownIdentifierError(text, offset)
    return Symbol(Kind.PARAM, name=text)

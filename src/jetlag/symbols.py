"""Structured jet-coordinate symbols and their canonical text grammar.

Symbol kinds cover position jets q{A}_{k}, Ostrogradsky momenta p{A}_{k},
acceleration-bundle coordinates a{A}_{k} and auxiliaries m{A}_{k}, the
acceleration-bundle momenta pq{A}/pa{A}/pm{A}, the velocity/momentum fibers
dq{A}_{k}/dp{A}_{k} of iterated tangent charts, multipliers lam{j}, and free
parameters (bare identifiers).  Component indices A start at 1, derivative
levels at 0.
"""

from __future__ import annotations

import enum
import re

from .errors import UnknownIdentifierError


class Kind(enum.Enum):
    Q = "q"
    P = "p"
    A = "a"
    M = "m"
    PQ = "pq"
    PA = "pa"
    PM = "pm"
    DOTQ = "dq"
    DOTP = "dp"
    LAMBDA = "lam"
    PARAM = "param"


# kinds rendered as prefix{A}
_COMPONENT_ONLY = {Kind.PQ, Kind.PA, Kind.PM, Kind.LAMBDA}

_KIND_ORDER = {k: i for i, k in enumerate(Kind)}

FUNCTION_NAMES = ("sin", "cos", "exp", "ln", "sqrt")

_LEVELED_RE = re.compile(r"^(dq|dp|q|p|a|m)([0-9]+)_([0-9]+)$")
_COMPONENT_RE = re.compile(r"^(pq|pa|pm|lam)([0-9]+)$")
# identifiers that look like a structured name but do not scan as one
_RESERVED_PREFIX_RE = re.compile(r"^(?:dq|dp|pq|pa|pm|lam|[qpam])[0-9]")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_INTERNED = {}  # (kind, component, level, name) -> the one Symbol with that identity


class Symbol:
    """One coordinate symbol, interned: the one object per identity (kind,
    component, level, name), hashed as that tuple.  copy and pickle give it back."""

    __slots__ = ("kind", "component", "level", "name", "_hash")

    def __new__(cls, kind: Kind, component: int = 0, level: int = 0, name: str = ""):
        key = (kind, component, level, name)
        self = _INTERNED.get(key)
        if self is not None:
            return self
        if kind is Kind.PARAM:
            if not _IDENT_RE.match(name):
                raise ValueError(f"bad parameter name {name!r}")
        elif component < 1:
            raise ValueError(f"component must be >= 1, got {component}")
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        self = object.__new__(cls)
        for attr, value in zip(cls.__slots__, (*key, hash(key))):
            object.__setattr__(self, attr, value)
        return _INTERNED.setdefault(key, self)

    def __setattr__(self, name, value=None):
        raise AttributeError("Symbol is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Symbol, (self.kind, self.component, self.level, self.name))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.level, self.component, self.name)

    def render(self) -> str:
        if self.kind is Kind.PARAM:
            return self.name
        if self.kind in _COMPONENT_ONLY:
            return f"{self.kind.value}{self.component}"
        return f"{self.kind.value}{self.component}_{self.level}"

    def shifted(self, delta: int = 1) -> "Symbol":
        """Same kind/component, derivative level raised by delta."""
        return Symbol(self.kind, self.component, self.level + delta)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Symbol({self.render()!r})"


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


_KIND_BY_PREFIX = {k.value: k for k in Kind if k is not Kind.PARAM}


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
        return Symbol(_KIND_BY_PREFIX[prefix], comp, level)
    m = _COMPONENT_RE.match(text)
    if m:
        prefix, comp = m.group(1), int(m.group(2))
        if comp < 1:
            raise UnknownIdentifierError(text, offset)
        return Symbol(_KIND_BY_PREFIX[prefix], comp)
    if _RESERVED_PREFIX_RE.match(text) or text in ("lam",):
        raise UnknownIdentifierError(text, offset)
    if text in FUNCTION_NAMES:
        raise UnknownIdentifierError(text, offset)
    if not _IDENT_RE.match(text):
        raise UnknownIdentifierError(text, offset)
    return Symbol(Kind.PARAM, name=text)

"""Immutable expression trees over jet-coordinate symbols.

Nodes: rational constants, Symbols (the leaves, interned for the whole
process), flat sums and products, powers with rational exponents, and the
unary functions sin/cos/exp/ln.
sqrt(x) and division are normalized at construction to Pow(x, 1/2) and
Pow(x, -1) so differentiation needs a single power rule.

Every coefficient is an exact Fraction.  A function of a constant folds only
where its value is exact (sin(0), cos(0), exp(0), ln(1)); any other, such as
sin(1), stays a Func node, evaluated like every function.  Zero and one are
Fractions built once, at import: sums and products start from them and skip
them.  simplify and calculus.diff look up each node's rule in a table
keyed by its class.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import math
import re
from fractions import Fraction

import numpy as np

from .errors import DomainEvalError, NumericFailureError, UnboundSymbolError

# zero and one, built once: the accumulators start from them, and a
# coefficient that is the shared one is skipped rather than multiplied
_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_coeff(value) -> Fraction:
    """A python number as an exact Fraction.  A float becomes the exact value
    of its shortest decimal, which the parser gives that text; an infinity or
    a nan is a ValueError."""
    if isinstance(value, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"a constant must be finite, not {value}")
        return Fraction(repr(float(value)))  # float(): numpy 2's repr of a float64 is no literal
    raise TypeError(f"cannot use {type(value).__name__} as a constant")


class Expr:
    """Base node; immutable, hashable, compared structurally.

    Each subclass but the interned Symbol builds through _node, so within
    one job an equal structure is the same object.  Two write-once caches
    ride along: _canon is set once simplify has returned the node, and
    _text holds repr(key) once _sort_text has built it.  Each only ever
    receives the one value it can hold, so a node stays safe to share
    across threads.
    """

    __slots__ = ("key", "free", "_hash", "_canon", "_text")

    def _sort_text(self) -> str:
        """repr(self.key), built from the children's texts and kept: the
        canonical order sorts by it.  ValueError for an integer too long to
        print."""
        text = self._text
        if text is None:
            text = self._build_text()
            object.__setattr__(self, "_text", text)
        return text

    def _build_text(self) -> str:
        return repr(self.key)

    def __setattr__(self, name, value=None):
        raise AttributeError("Expr nodes are immutable")

    __delattr__ = __setattr__  # deleting a slot would break a node that others share

    def __reduce__(self):
        # every constructor takes the node's own slots, in order
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr) and self.key == other.key)

    def __repr__(self):
        from .printer import to_text

        return f"Expr({to_text(self)!r})"

    def __str__(self):
        from .printer import to_text

        return to_text(self)

    # arithmetic sugar for callers of the library; jetlag's own code calls
    # add, mul, neg, div and pow_ directly
    def __add__(self, other):
        return add(self, coerce(other))

    def __radd__(self, other):
        return add(coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(coerce(other)))

    def __rsub__(self, other):
        return add(coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, coerce(other))

    def __rmul__(self, other):
        return mul(coerce(other), self)

    def __truediv__(self, other):
        return div(self, coerce(other))

    def __rtruediv__(self, other):
        return div(coerce(other), self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)


# the running job's table, or None outside a job: the nodes by shallow key,
# and calculus.diff's results by (node, symbol); no shallow key starts with
# an Expr, so the two kinds of key cannot meet
_JOB_TABLE = contextvars.ContextVar("jetlag_job_table", default=None)


@contextlib.contextmanager
def job_scope():
    """The node constructors share their nodes, and diff remembers its
    results, while the with block, one job, runs."""
    token = _JOB_TABLE.set({})
    try:
        yield
    finally:
        _JOB_TABLE.reset(token)


def _node(cls, shallow, *fields):
    """The node of class cls whose slots hold fields.

    Inside a job it is the one node the job has built for shallow, the
    constructor's key of the node's payload and its children's ids: an id
    names the same child for the whole job, since the table keeps the node
    and the node keeps its children.  Outside a job it is a new node.  The
    class's _parts(shallow) gives the node's key, free symbols and the key
    with each child's key replaced by the child's hash, which is hashed:
    that costs the node's arity, not its subtree's size, and equal keys
    still give equal hashes.  A constant's shallow key is its key.
    """
    table = _JOB_TABLE.get()
    if table is not None:
        node = table.get(shallow)
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    key, free, hashed = node._parts(shallow)
    for name, value in zip(Expr.__slots__, (key, free, hash(hashed), False, None)):
        object.__setattr__(node, name, value)
    if table is not None:
        table[shallow] = node
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if type(value) is not Fraction:
            value = _as_coeff(value)
        return _node(cls, ("c", "r", value.numerator, value.denominator), value)

    def _parts(self, shallow):
        return shallow, frozenset(), shallow

    @property
    def is_zero(self):
        return self.value == 0


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

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_INTERNED = {}  # (kind, component, level, name) -> the one Symbol with that identity


class Symbol(Expr):
    """One coordinate symbol, the leaf node, interned: the one object per
    identity (kind, component, level, name), hashed as that tuple, with its
    text, key, free set and sort text kept, canonical from birth.  copy and
    pickle give it back."""

    __slots__ = ("kind", "component", "level", "name", "text")

    def __new__(cls, kind: Kind, component: int = 0, level: int = 0, name: str = ""):
        identity = (kind, component, level, name)
        self = _INTERNED.get(identity)
        if self is not None:
            return self
        if kind is Kind.PARAM:
            if not _IDENT_RE.match(name):
                raise ValueError(f"bad parameter name {name!r}")
            text = name
        elif component < 1:
            raise ValueError(f"component must be >= 1, got {component}")
        elif kind in _COMPONENT_ONLY:
            text = f"{kind.value}{component}"
        else:
            text = f"{kind.value}{component}_{level}"
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        key = ("s", kind.value, component, level, name)
        self = object.__new__(cls)
        slots = ("_hash", *cls.__slots__, "key", "_canon", "_text")
        for attr, value in zip(slots, (hash(identity), *identity, text, key, True, repr(key))):
            object.__setattr__(self, attr, value)
        object.__setattr__(self, "free", frozenset((self,)))  # hashes self by _hash, set above
        return _INTERNED.setdefault(identity, self)

    def __reduce__(self):
        return (Symbol, (self.kind, self.component, self.level, self.name))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.level, self.component, self.name)

    def shifted(self, delta: int = 1) -> "Symbol":
        """Same kind/component, derivative level raised by delta."""
        return Symbol(self.kind, self.component, self.level + delta)

    def __str__(self):
        return self.text

    def __repr__(self):
        return f"Symbol({self.text!r})"


def _flat_parts(op, children):
    """_parts of a sum or product."""
    key = (op, *[c.key for c in children])
    free = frozenset().union(*[c.free for c in children])
    return key, free, (op, *[c._hash for c in children])


class Sum(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        terms = tuple(terms)
        return _node(cls, ("+", *map(id, terms)), terms)

    def _parts(self, shallow):
        return _flat_parts("+", self.terms)

    def _build_text(self):
        return _tuple_text(["'+'"] + [t._sort_text() for t in self.terms])


class Prod(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        factors = tuple(factors)
        return _node(cls, ("*", *map(id, factors)), factors)

    def _parts(self, shallow):
        return _flat_parts("*", self.factors)

    def _build_text(self):
        return _tuple_text(["'*'"] + [f._sort_text() for f in self.factors])


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Fraction):
        if not isinstance(exponent, Fraction):
            if not isinstance(exponent, int):
                raise TypeError("exponent must be rational")
            exponent = Fraction(exponent)
        return _node(cls, ("^", id(base), exponent.numerator, exponent.denominator), base, exponent)

    def _parts(self, shallow):
        base, num, den = self.base, self.exponent.numerator, self.exponent.denominator
        return ("^", base.key, num, den), base.free, ("^", base._hash, num, den)

    def _build_text(self):
        _, _, num, den = self.key
        return f"('^', {self.base._sort_text()}, {num!r}, {den!r})"


class Func(Expr):
    __slots__ = ("fname", "arg")

    _TABLE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}

    def __new__(cls, fname: str, arg: Expr):
        if fname not in cls._TABLE:
            raise ValueError(f"unknown function {fname!r}")
        return _node(cls, ("f", fname, id(arg)), fname, arg)

    def _parts(self, shallow):
        arg = self.arg
        return ("f", self.fname, arg.key), arg.free, ("f", self.fname, arg._hash)

    def _build_text(self):
        return f"('f', {self.fname!r}, {self.arg._sort_text()})"


def _tuple_text(items) -> str:
    """repr of a tuple whose items print as the given texts."""
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


ZERO = Const(_F0)
ONE = Const(_F1)
MINUS_ONE = Const(-1)


def coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


def add(*terms) -> Expr:
    """Flat sum with constant folding; no like-term collection here."""
    flat = []
    acc = _F0
    for t in terms:
        if not isinstance(t, Expr):
            t = Const(t)
        for item in t.terms if type(t) is Sum else (t,):
            if type(item) is Const:
                acc = item.value if acc is _F0 else acc + item.value
            else:
                flat.append(item)
    if acc:
        flat.append(Const(acc))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(flat)


def mul(*factors) -> Expr:
    """Flat product with constant folding; zero annihilates."""
    flat = []
    acc = _F1
    for f in factors:
        if not isinstance(f, Expr):
            f = Const(f)
        for item in f.factors if type(f) is Prod else (f,):
            if type(item) is Const:
                acc = _coeff_mul(acc, item.value)
            else:
                flat.append(item)
    if not acc:
        return ZERO
    if acc is not _F1 and acc != 1:
        flat.insert(0, Const(acc))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Prod(flat)


# the most decimal digits of an exact integer as text: the parser reads no
# literal with more, the printer writes none, and a constant power folds only
# within them (Python's int-to-text limit is 4300 digits)
_MAX_DIGITS = 4096


def pow_(base, exponent) -> Expr:
    """Power with rational exponent; folds constant bases where exact."""
    base = coerce(base)
    if isinstance(exponent, Expr):
        if not isinstance(exponent, Const):
            raise TypeError("exponent must be a rational constant")
        exponent = exponent.value
    if not isinstance(exponent, Fraction):
        exponent = Fraction(exponent)
    if not exponent:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        folded = _fold_const_pow(base.value, exponent)
        if folded is not None:
            return folded
    return Pow(base, exponent)


def _fold_const_pow(value: Fraction, exponent: Fraction):
    """The exact power as a Const, or None, which keeps it symbolic.

    An exact result is folded only when its numerator and denominator
    print in _MAX_DIGITS digits, judged from the operands before it is
    computed: 10^4096 and 10^10^10 stay powers.
    """
    if value == 0:
        return None if exponent < 0 else ZERO  # 0^-n: eval reports the domain error
    if exponent.denominator != 1:
        # fractional exponent of a rational: exact only for perfect powers
        if value < 0:
            return None
        num = _exact_root(value.numerator, exponent.denominator)
        den = _exact_root(value.denominator, exponent.denominator)
        if num is None or den is None:
            return None
        value = Fraction(num, den)
    n, size = exponent.numerator, max(abs(value.numerator), value.denominator)
    # |n| is capped so that the product stays a float: past the cap no size >= 2 folds
    if min(abs(n), 4 * _MAX_DIGITS) * math.log2(size) >= _MAX_DIGITS * math.log2(10):
        return None
    return Const(value**n)


def _exact_root(n: int, d: int):
    """The integer d-th root of n when n is a perfect d-th power, else None.

    Integer Newton iteration from above, so no size of n overflows a float.
    """
    if n < 0:
        return None
    if n < 2:
        return n
    if d >= n.bit_length():  # 2^d > n: no integer above 1 is a root
        return None
    r = 1 << -(-n.bit_length() // d)  # 2^ceil(bits/d) > n^(1/d)
    while True:
        s = ((d - 1) * r + n // r ** (d - 1)) // d
        if s >= r:
            break
        r = s
    return r if r**d == n else None


def neg(x) -> Expr:
    return mul(MINUS_ONE, coerce(x))


def div(a, b) -> Expr:
    return mul(coerce(a), pow_(coerce(b), Fraction(-1)))


def func(fname: str, arg) -> Expr:
    """fname(arg), folded to a constant only where the value is exact."""
    arg = coerce(arg)
    if fname == "sqrt":
        return pow_(arg, Fraction(1, 2))
    if isinstance(arg, Const):
        value = arg.value
        if value == 0 and fname == "sin":
            return ZERO
        if value == 0 and fname in ("cos", "exp"):
            return ONE
        if value == 1 and fname == "ln":
            return ZERO
    return Func(fname, arg)


def _apply_func(fname: str, x: float) -> float:
    if fname == "ln" and x <= 0:
        raise DomainEvalError(f"ln of nonpositive value {x}")
    try:
        return Func._TABLE[fname](x)
    except ValueError as exc:
        raise DomainEvalError(str(exc)) from exc
    except OverflowError as exc:  # exp of a large value
        raise NumericFailureError(str(exc)) from exc


def _pow(base: float, exp: Fraction) -> float:
    """base ** exp in eval_expr's domain: no zero to a negative power, no
    negative base under a fractional exponent, no overflow."""
    if base == 0.0 and exp < 0:
        raise DomainEvalError("zero raised to a negative power")
    if base < 0.0 and exp.denominator != 1:
        raise DomainEvalError(f"negative base {base} with fractional exponent {exp}")
    try:
        return base ** float(exp)
    except OverflowError as exc:
        raise NumericFailureError(str(exc)) from exc


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, binding) -> float:
    """Evaluate to a float under a {Symbol: value} binding.

    The reference evaluator, for one point; compile with lambdify or
    compile_rows to evaluate at many.  Total on bindings that assign every
    free symbol and keep arguments inside function domains; raises
    UnboundSymbolError / DomainEvalError / NumericFailureError otherwise.
    """
    v = _eval(e, binding)
    if not math.isfinite(v):
        _nonfinite(v)
    return v


def values_of(symbols, binding) -> list:
    """The floats that a {Symbol: value} binding gives the symbols, in order;
    UnboundSymbolError names the first symbol it gives no value."""
    try:
        return [float(binding[s]) for s in symbols]
    except KeyError as exc:
        raise UnboundSymbolError(exc.args[0]) from None


def _nonfinite(v):
    raise NumericFailureError(f"non-finite value {v}")


def _as_float(value) -> float:
    """float(value) of an exact constant or exponent; too large is a numeric failure."""
    try:
        return float(value)
    except OverflowError as exc:
        bits = abs(value.numerator).bit_length() - value.denominator.bit_length()
        raise NumericFailureError(
            f"a constant of about 10^{round(bits * math.log10(2))} does not fit a float"
        ) from exc


def _eval(e, binding):
    if isinstance(e, Const):
        return _as_float(e.value)
    if isinstance(e, Symbol):
        try:
            return binding[e]
        except KeyError:
            raise UnboundSymbolError(e) from None
    if isinstance(e, Sum):
        # left to right, as the compiled evaluators add: sum() of floats is
        # compensated from Python 3.12 on
        terms = (float(_eval(t, binding)) for t in e.terms)
        out = next(terms, 0.0)
        for v in terms:
            out += v
        return out
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= float(_eval(f, binding))
        return out
    if isinstance(e, Pow):
        return _pow(float(_eval(e.base, binding)), e.exponent)
    if isinstance(e, Func):
        return _apply_func(e.fname, float(_eval(e.arg, binding)))
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, mapping) -> Expr:
    """Replace symbols by expressions; mapping is {Symbol: Expr-or-number}."""
    table = {s: coerce(v) for s, v in mapping.items()}

    def walk(node):
        if isinstance(node, Const):
            return node
        if isinstance(node, Symbol):
            return table.get(node, node)
        if isinstance(node, Sum):
            return add(*(walk(t) for t in node.terms))
        if isinstance(node, Prod):
            return mul(*(walk(f) for f in node.factors))
        if isinstance(node, Pow):
            return pow_(walk(node.base), node.exponent)
        if isinstance(node, Func):
            return func(node.fname, walk(node.arg))
        raise TypeError(f"not an Expr: {node!r}")

    return walk(e)


# ---------------------------------------------------------------------------
# canonical simplification
# ---------------------------------------------------------------------------


def _term_split(t: Expr):
    """Split a (already simplified) term into (coeff, tuple of non-const factors)."""
    if type(t) is Const:
        return t.value, ()
    if type(t) is Prod:
        if type(t.factors[0]) is Const:
            return t.factors[0].value, t.factors[1:]
        return _F1, t.factors
    return _F1, (t,)


def _rebuild_term(coeff, factors):
    if not coeff:
        return ZERO
    parts = list(factors)
    if not parts:
        return Const(coeff)
    if coeff is not _F1 and coeff != 1:
        parts.insert(0, Const(coeff))
    if len(parts) == 1:
        return parts[0]
    return Prod(parts)


def _factors_text(factors) -> str:
    """repr of the tuple of the factors' keys."""
    return _tuple_text([f._sort_text() for f in factors])


def _canonical_order(items, text) -> list:
    """Items sorted by text(item), the repr of their keys: the order of terms
    and factors."""
    try:
        return sorted(items, key=text)
    except ValueError as exc:  # an integer past the interpreter's limit on digits as text
        raise NumericFailureError("an exact constant is too long to order terms by") from exc


def simplify(e: Expr) -> Expr:
    """Canonical form: folding, flattening, like-term collection, sorted order.

    Best effort, not a decision procedure; idempotent and eval-equivalent to
    the input wherever both are defined.  Each result is marked canonical,
    and a marked input is returned as it is.
    """
    try:
        if e._canon:
            return e
        rule = _SIMPLIFY[type(e)]
    except (AttributeError, KeyError):
        raise TypeError(f"not an Expr: {e!r}") from None
    out = rule(e)
    object.__setattr__(out, "_canon", True)
    return out


def _simplify_sum(e: Sum) -> Expr:
    bucket = {}  # tuple of factors -> (coefficient, the term while it meets no like term)
    const = _F0
    # map, not a list comprehension: no frame of its own on the stack,
    # whose depth the parser's nesting bound is set against
    queue = list(map(simplify, e.terms))
    for t in queue:
        for item in t.terms if type(t) is Sum else (t,):
            coeff, factors = _term_split(item)
            if not factors:
                const = coeff if const is _F0 else const + coeff
                continue
            old = bucket.get(factors)
            bucket[factors] = (coeff, item) if old is None else (old[0] + coeff, None)
    terms = []
    for factors in _canonical_order(bucket, _factors_text):
        coeff, item = bucket[factors]
        if item is not None:
            terms.append(item)
        elif coeff:
            terms.append(_rebuild_term(coeff, factors))
    if const:
        terms.append(Const(const))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _simplify_prod(e: Prod) -> Expr:
    coeff = _F1
    powers = {}  # base -> exponent
    # one level of flattening: no canonical product has a product factor
    for g in map(simplify, e.factors):
        for f in g.factors if type(g) is Prod else (g,):
            if type(f) is Const:
                coeff = _coeff_mul(coeff, f.value)
                continue
            if type(f) is Pow:
                base, exp = f.base, f.exponent
            else:
                base, exp = f, _F1
            old = powers.get(base)
            powers[base] = exp if old is None else old + exp
    if not coeff:
        return ZERO
    factors = []
    settled = True
    for base in _canonical_order(powers, Expr._sort_text):
        piece = _power(base, powers[base])
        if type(piece) is Const:
            coeff = _coeff_mul(coeff, piece.value)
            continue
        # a merged power can come out as a product, or as a power of
        # another base (sqrt(x^2)^2 is x^2), which may merge with the
        # other factors: one more pass collects them
        if type(piece) is Prod or (piece.base if type(piece) is Pow else piece) is not base:
            settled = False
        factors.append(piece)
    if not settled:
        return simplify(mul(Const(coeff), *factors))
    # distribute a bare constant over a single sum so that -(a+b) and
    # c*(a+b) participate in like-term collection
    if len(factors) == 1 and type(factors[0]) is Sum and coeff is not _F1 and coeff != 1:
        return simplify(add(*(mul(Const(coeff), t) for t in factors[0].terms)))
    return _rebuild_term(coeff, tuple(factors))


def _power(base: Expr, exp: Fraction) -> Expr:
    """The canonical form of base^exp for a canonical base."""
    if exp.denominator == 1:
        if isinstance(base, Pow):
            return simplify(pow_(base.base, base.exponent * exp))
        if isinstance(base, Prod):
            return simplify(mul(*(pow_(f, exp) for f in base.factors)))
    return pow_(base, exp)


# simplify's rule for each node class, looked up by type(e): one lookup
# where an isinstance chain tests class after class
_SIMPLIFY = {
    Const: lambda e: e,
    Symbol: lambda e: e,
    Sum: _simplify_sum,
    Prod: _simplify_prod,
    Pow: lambda e: _power(simplify(e.base), e.exponent),
    Func: lambda e: func(e.fname, simplify(e.arg)),
}


def _coeff_mul(a: Fraction, b: Fraction) -> Fraction:
    """a * b, with no Fraction arithmetic when either is the shared one: 1*x is x."""
    if a is _F1:
        return b
    if b is _F1:
        return a
    return a * b


# ---------------------------------------------------------------------------
# compilation: one tape, written out as straight-line Python (lambdify and
# dynamics' multiplier functions, one point per call) or run over numpy columns
# (compile_rows, many rows per call)
# ---------------------------------------------------------------------------


def tape(exprs, symbols):
    """The expressions as a Wengert list with one step per distinct
    subexpression key.

    A step is (op, operand, payload) and its operands come before it:
    ("sym", column, None), ("const", value, None), ("add" | "mul", [slots],
    None), ("pow", slot, (exponent, float exponent)), (function name, slot,
    None), and after each expression's own steps ("out", slot, None), which
    marks that slot as the next output.  A slot is a position in the list.
    A subtree free of symbols that eval_expr evaluates, such as sin(1), is
    one "const" step of its value; where eval_expr raises, the subtree keeps
    its steps, so the error surfaces where the tape is run.  Unbound
    symbols, and constants too large for a float, raise here.
    """
    index = {s: i for i, s in enumerate(symbols)}
    exprs = list(exprs)
    for e in exprs:
        missing = e.free - index.keys()
        if missing:
            raise UnboundSymbolError(sorted(missing)[0])
    steps = []
    slots = {}

    def emit(node):
        slot = slots.get(node)
        if slot is not None:
            return slot
        if isinstance(node, Const):
            step = ("const", _as_float(node.value), None)
        elif not node.free and (value := _constant_value(node)) is not None:
            step = ("const", value, None)
        elif isinstance(node, Symbol):
            step = ("sym", index[node], None)
        elif isinstance(node, Sum):
            step = ("add", [emit(t) for t in node.terms], None)
        elif isinstance(node, Prod):
            step = ("mul", [emit(f) for f in node.factors], None)
        elif isinstance(node, Pow):
            step = ("pow", emit(node.base), (node.exponent, _as_float(node.exponent)))
        elif isinstance(node, Func):
            step = (node.fname, emit(node.arg), None)
        else:
            raise TypeError(f"not an Expr: {node!r}")
        slots[node] = len(steps)
        steps.append(step)
        return slots[node]

    for e in exprs:
        steps.append(("out", emit(e), None))
    return steps


def _constant_value(node):
    """eval_expr's value of a node free of symbols, or None where it raises."""
    try:
        return eval_expr(node, {})
    except (DomainEvalError, NumericFailureError):
        return None


def step_lines(steps, names, outputs=None, prefix="v"):
    """Straight-line Python for the steps of a tape after the len(names)
    already written: through the given number of further outputs, or to the
    tape's end when outputs is None.

    names holds one Python expression per slot already written and gets one
    per new step: a variable <prefix><slot>, a symbol's x<column>, or a
    constant's literal.  Returns (lines, names of the outputs, raises): the
    statements, the name of each output written, and whether a step can raise
    OverflowError or ValueError (a power or a function), which frame() then
    maps to eval_expr's errors; sums and products of floats raise neither.
    Every output that is not a constant is checked once: a non-finite one
    raises NumericFailureError, as in eval_expr.  The lines call _pow,
    _apply_func, _nonfinite, Fraction and math by name.
    """
    lines, out, raises, checked = [], [], False, set()
    for op, arg, payload in steps[len(names) :]:
        if len(out) == outputs:
            break
        name = f"{prefix}{len(names)}"
        if op == "const":
            name = f"({arg!r})"
        elif op == "sym":
            name = f"x{arg}"
        elif op == "out":
            name = names[arg]
            out.append(name)
            if arg not in checked and steps[arg][0] != "const":
                checked.add(arg)
                # v - v is 0.0 for every finite v, and nan for an infinity or a nan
                lines.append(f"if {name} - {name} != 0.0: _nonfinite({name})")
        elif op in ("add", "mul"):
            lines.append(f"{name} = " + (" + " if op == "add" else " * ").join(names[a] for a in arg))
        elif op == "pow":
            raises = True
            base, (exp, float_exp) = names[arg], payload
            guards = [f"{base} == 0.0"] if exp < 0 else []
            guards += [f"{base} < 0.0"] if exp.denominator != 1 else []
            if guards:  # _pow raises eval_expr's domain error
                lines.append(f"if {' or '.join(guards)}: _pow({base}, Fraction({exp.numerator}, {exp.denominator}))")
            lines.append(f"{name} = {base} ** {float_exp!r}")
        else:
            raises = True
            if op == "ln":  # _apply_func raises eval_expr's domain error
                lines.append(f"if {names[arg]} <= 0.0: _apply_func('ln', {names[arg]})")
            lines.append(f"{name} = math.{Func._TABLE[op].__name__}({names[arg]})")
        names.append(name)
    return lines, out, raises


def frame(lines, raises):
    """step_lines' lines, inside the try/except that maps a float
    OverflowError to NumericFailureError and a ValueError (sin or cos of an
    infinity) to DomainEvalError, as eval_expr raises them, when a step in
    them can raise either."""
    if not raises:
        return lines
    return ["try:", *(f"    {line}" for line in lines)] + [
        "except OverflowError as exc:",
        "    raise NumericFailureError(str(exc)) from exc",
        "except ValueError as exc:",
        "    raise DomainEvalError(str(exc)) from exc",
    ]


def define(source, namespace):
    """The function that the lines of source define, compiled and run in
    namespace (a module's globals)."""
    local = {}
    exec(compile("\n".join(source), "<jetlag-generated>", "exec"), namespace, local)  # noqa: S102 - our own tape
    (fn,) = local.values()
    return fn


def lambdify(exprs, symbols):
    """Compile expressions to f(values) -> list[float], where values holds
    one float per symbol in the given order.

    The tape becomes straight-line Python over the math module, with
    eval_expr's domain checks written in: f returns eval_expr's bits, and
    wherever eval_expr raises, f raises the same error class.  Unbound
    symbols, and constants too large for a float, are construction-time
    errors.  The code runs in this module's namespace.
    """
    symbols = list(symbols)
    steps = tape(exprs, symbols)
    lines, outputs, raises = step_lines(steps, [])
    source = ["def f(x):", "    [" + ", ".join(f"x{i}" for i in range(len(symbols))) + "] = x"]
    source += [f"    {line}" for line in frame(lines, raises)] + [f"    return [{', '.join(outputs)}]"]
    return define(source, globals())


def compile_rows(exprs, symbols):
    """Compile expressions to one evaluator over many points at once.

    Returns f(rows) -> (values, bad).  rows is an (n_rows, len(symbols))
    float array with one column per symbol in the given order; values holds
    one length-n_rows array per expression, and bad marks the rows on which
    eval_expr would raise for some expression: zero to a negative power, a
    negative base with a fractional exponent, ln of a value <= 0, a power or
    exp that overflows from finite input, or a non-finite value of an
    expression (sin/cos of an infinity give a nan, which no later operation
    turns finite).  Values on bad rows mean nothing.

    The tape is interpreted column-wise.  Sums and products run in
    eval_expr's order; numpy's power, exp and log may differ from the math
    module's in the last bit.  Unbound symbols, and constants too large for
    a float, are construction-time errors.
    """
    steps = tape(exprs, symbols)

    def run(rows):
        cols = np.asarray(rows, dtype=float).T
        n = cols.shape[1]
        bad = np.zeros(n, dtype=bool)
        vals, values = [], []
        with np.errstate(all="ignore"):
            for op, arg, payload in steps:
                if op == "sym":
                    v = cols[arg]
                elif op == "const":
                    v = arg
                elif op == "out":
                    v = vals[arg]
                    bad |= ~np.isfinite(v)
                    values.append(np.array(np.broadcast_to(v, (n,)), dtype=float))
                elif op == "add":
                    v = vals[arg[0]]
                    for slot in arg[1:]:
                        v = v + vals[slot]
                elif op == "mul":
                    v = vals[arg[0]]
                    for slot in arg[1:]:
                        v = v * vals[slot]
                elif op == "pow":
                    x = vals[arg]
                    exp, float_exp = payload
                    if exp < 0:
                        bad |= x == 0.0
                    if exp.denominator != 1:
                        bad |= x < 0.0
                    v = np.power(x, float_exp)
                    bad |= np.isfinite(x) & ~np.isfinite(v)
                else:
                    x = vals[arg]
                    v = getattr(np, Func._TABLE[op].__name__)(x)  # numpy's function of that name
                    if op == "ln":
                        bad |= x <= 0.0
                    elif op == "exp":
                        bad |= np.isfinite(x) & ~np.isfinite(v)
                vals.append(v)
        return values, bad

    return run

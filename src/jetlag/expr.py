"""Immutable expression trees over jet-coordinate symbols.

Nodes: rational/float constants, symbol references, flat sums and products,
powers with rational exponents, and the unary functions sin/cos/exp/ln.
sqrt(x) and division are normalized at construction to Pow(x, 1/2) and
Pow(x, -1) so differentiation needs a single power rule.

Coefficient arithmetic stays in exact Fractions as long as the inputs are
rational; applying a transcendental function drops to float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainEvalError, NumericFailureError, UnboundSymbolError
from .symbols import Symbol

_RATIONAL = (int, Fraction)


def _as_coeff(value):
    """Normalize a python number to Fraction (exact) or float."""
    if isinstance(value, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return value
    raise TypeError(f"cannot use {type(value).__name__} as a constant")


class Expr:
    """Base node; immutable, hashable, compared structurally."""

    __slots__ = ("key", "free", "_hash")

    def _finish(self, key, free):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("Expr nodes are immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key == other.key

    def __repr__(self):
        from .printer import to_text

        return f"Expr({to_text(self)!r})"

    def __str__(self):
        from .printer import to_text

        return to_text(self)

    # arithmetic sugar, used heavily by the pipelines
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


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        value = _as_coeff(value)
        object.__setattr__(self, "value", value)
        if isinstance(value, Fraction):
            key = ("c", "r", value.numerator, value.denominator)
        else:
            key = ("c", "f", repr(value))
        self._finish(key, frozenset())

    @property
    def is_zero(self):
        return self.value == 0

    @property
    def is_one(self):
        return self.value == 1


class Sym(Expr):
    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        object.__setattr__(self, "symbol", symbol)
        key = ("s", symbol.kind.value, symbol.component, symbol.level, symbol.name)
        self._finish(key, frozenset((symbol,)))


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        object.__setattr__(self, "terms", terms)
        key = ("+",) + tuple(t.key for t in terms)
        free = frozenset().union(*(t.free for t in terms)) if terms else frozenset()
        self._finish(key, free)


class Prod(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        object.__setattr__(self, "factors", factors)
        key = ("*",) + tuple(f.key for f in factors)
        free = frozenset().union(*(f.free for f in factors)) if factors else frozenset()
        self._finish(key, free)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Fraction):
        if not isinstance(exponent, _RATIONAL):
            raise TypeError("exponent must be rational")
        exponent = Fraction(exponent)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        key = ("^", base.key, exponent.numerator, exponent.denominator)
        self._finish(key, base.free)


class Func(Expr):
    __slots__ = ("fname", "arg")

    _TABLE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log}

    def __init__(self, fname: str, arg: Expr):
        if fname not in self._TABLE:
            raise ValueError(f"unknown function {fname!r}")
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "arg", arg)
        key = ("f", fname, arg.key)
        self._finish(key, arg.free)


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)
HALF = Const(Fraction(1, 2))


def coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, Symbol):
        return Sym(x)
    return Const(x)


def sym(symbol: Symbol) -> Expr:
    return Sym(symbol)


def const(value) -> Expr:
    return Const(value)


def add(*terms) -> Expr:
    """Flat sum with constant folding; no like-term collection here."""
    flat = []
    acc = Fraction(0)
    acc_float = None
    for t in terms:
        t = coerce(t)
        if isinstance(t, Sum):
            items = t.terms
        else:
            items = (t,)
        for item in items:
            if isinstance(item, Const):
                if isinstance(item.value, Fraction):
                    acc += item.value
                else:
                    acc_float = item.value if acc_float is None else acc_float + item.value
            else:
                flat.append(item)
    total = float(acc) + acc_float if acc_float is not None else acc
    if total != 0:
        flat.append(Const(total))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(flat)


def mul(*factors) -> Expr:
    """Flat product with constant folding; zero annihilates."""
    flat = []
    acc = Fraction(1)
    acc_float = None
    for f in factors:
        f = coerce(f)
        if isinstance(f, Prod):
            items = f.factors
        else:
            items = (f,)
        for item in items:
            if isinstance(item, Const):
                if isinstance(item.value, Fraction):
                    acc *= item.value
                else:
                    acc_float = item.value if acc_float is None else acc_float * item.value
            else:
                flat.append(item)
    if acc_float is not None:
        coeff = Const(float(acc) * acc_float)
    else:
        coeff = Const(acc)
    if coeff.is_zero:
        return ZERO
    if not coeff.is_one:
        flat.insert(0, coeff)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Prod(flat)


def pow_(base, exponent) -> Expr:
    """Power with rational exponent; folds constant bases where exact."""
    base = coerce(base)
    if isinstance(exponent, Expr):
        if isinstance(exponent, Const) and isinstance(exponent.value, Fraction):
            exponent = exponent.value
        else:
            raise TypeError("exponent must be a rational constant")
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        folded = _fold_const_pow(base.value, exponent)
        if folded is not None:
            return folded
    return Pow(base, exponent)


def _fold_const_pow(value, exponent: Fraction):
    """Exact fold when possible, float fold otherwise; None keeps it symbolic."""
    if isinstance(value, Fraction):
        if exponent.denominator == 1:
            n = exponent.numerator
            if value == 0:
                if n < 0:
                    return None  # 0^-n stays symbolic; eval reports the domain error
                return ZERO
            return Const(value**n)
        # fractional exponent of a rational: exact only for perfect powers
        if value == 0 and exponent > 0:
            return ZERO
        if value > 0:
            num = _exact_root(value.numerator, exponent.denominator)
            den = _exact_root(value.denominator, exponent.denominator)
            if num is not None and den is not None:
                return Const(Fraction(num, den) ** exponent.numerator)
        return None
    # float base
    if value < 0 and exponent.denominator != 1:
        return None
    if value == 0 and exponent < 0:
        return None
    try:
        return Const(float(value) ** float(exponent))
    except OverflowError:
        return None


def _exact_root(n: int, d: int):
    """The integer d-th root of n when n is a perfect d-th power, else None.

    Integer Newton iteration from above, so no size of n overflows a float.
    """
    if n < 0:
        return None
    if n < 2:
        return n
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
    arg = coerce(arg)
    if fname == "sqrt":
        return pow_(arg, Fraction(1, 2))
    if isinstance(arg, Const):
        value = arg.value
        if value == 0 and fname in ("sin",):
            return ZERO
        if value == 0 and fname in ("cos", "exp"):
            return ONE
        if value == 1 and fname == "ln":
            return ZERO
        if isinstance(value, float) or fname in Func._TABLE:
            try:
                return Const(_apply_func(fname, float(value)))
            except (DomainEvalError, OverflowError):
                pass
    return Func(fname, arg)


def _apply_func(fname: str, x: float) -> float:
    if fname == "ln" and x <= 0:
        raise DomainEvalError(f"ln of nonpositive value {x}")
    try:
        return Func._TABLE[fname](x)
    except ValueError as exc:
        raise DomainEvalError(str(exc)) from exc


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, binding) -> float:
    """Evaluate to a float under a {Symbol: value} binding.

    Total on bindings that assign every free symbol and keep arguments inside
    function domains; raises UnboundSymbolError / DomainEvalError otherwise.
    """
    v = _eval(e, binding)
    if isinstance(v, Fraction):
        return float(v)
    if not math.isfinite(v):
        raise NumericFailureError(f"non-finite value {v}")
    return v


def _const_float(e: Const) -> float:
    try:
        return float(e.value)
    except OverflowError as exc:
        digits = len(str(abs(e.value.numerator))) - len(str(e.value.denominator))
        raise NumericFailureError(f"a constant of about 10^{digits} does not fit a float") from exc


def _eval(e, binding):
    if isinstance(e, Const):
        return _const_float(e)
    if isinstance(e, Sym):
        try:
            return binding[e.symbol]
        except KeyError:
            raise UnboundSymbolError(e.symbol) from None
    if isinstance(e, Sum):
        return sum(float(_eval(t, binding)) for t in e.terms)
    if isinstance(e, Prod):
        out = 1.0
        for f in e.factors:
            out *= float(_eval(f, binding))
        return out
    if isinstance(e, Pow):
        base = float(_eval(e.base, binding))
        exp = e.exponent
        if base == 0.0 and exp < 0:
            raise DomainEvalError("zero raised to a negative power")
        if base < 0.0 and exp.denominator != 1:
            raise DomainEvalError(f"negative base {base} with fractional exponent {exp}")
        try:
            return base ** float(exp)
        except OverflowError as exc:
            raise NumericFailureError(str(exc)) from exc
        except ZeroDivisionError as exc:  # pragma: no cover - guarded above
            raise DomainEvalError(str(exc)) from exc
    if isinstance(e, Func):
        return _apply_func(e.fname, float(_eval(e.arg, binding)))
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, mapping) -> Expr:
    """Replace symbols by expressions; mapping is {Symbol: Expr-or-number}."""
    table = {s: coerce(v) for s, v in mapping.items()}

    def walk(node):
        if isinstance(node, Const):
            return node
        if isinstance(node, Sym):
            return table.get(node.symbol, node)
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
    if isinstance(t, Const):
        return t.value, ()
    if isinstance(t, Prod):
        if isinstance(t.factors[0], Const):
            return t.factors[0].value, t.factors[1:]
        return Fraction(1), t.factors
    return Fraction(1), (t,)


def _rebuild_term(coeff, factors):
    if coeff == 0:
        return ZERO
    parts = list(factors)
    if not parts:
        return Const(coeff)
    if coeff != 1:
        parts.insert(0, Const(coeff))
    if len(parts) == 1:
        return parts[0]
    return Prod(parts)


def simplify(e: Expr) -> Expr:
    """Canonical form: folding, flattening, like-term collection, sorted order.

    Best effort, not a decision procedure; idempotent and eval-equivalent to
    the input wherever both are defined.
    """
    if isinstance(e, (Const, Sym)):
        return e
    if isinstance(e, Sum):
        bucket = {}
        const_frac = Fraction(0)
        const_float = None
        queue = [simplify(t) for t in e.terms]
        for t in queue:
            for item in t.terms if isinstance(t, Sum) else (t,):
                coeff, factors = _term_split(item)
                if not factors:
                    if isinstance(coeff, Fraction):
                        const_frac += coeff
                    else:
                        const_float = coeff if const_float is None else const_float + coeff
                    continue
                k = tuple(f.key for f in factors)
                if k in bucket:
                    old_coeff, _ = bucket[k]
                    coeff = _coeff_add(old_coeff, coeff)
                bucket[k] = (coeff, factors)
        terms = []
        for k in sorted(bucket, key=repr):
            coeff, factors = bucket[k]
            if coeff == 0:
                continue
            terms.append(_rebuild_term(coeff, factors))
        if const_float is not None:
            c = float(const_frac) + const_float
            if c != 0.0:
                terms.append(Const(c))
        elif const_frac != 0:
            terms.append(Const(const_frac))
        if not terms:
            return ZERO
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))
    if isinstance(e, Prod):
        coeff = Fraction(1)
        coeff_float = None
        powers = {}
        queue = [simplify(f) for f in e.factors]
        while queue:
            f = queue.pop(0)
            if isinstance(f, Prod):
                queue = list(f.factors) + queue
                continue
            if isinstance(f, Const):
                if isinstance(f.value, Fraction):
                    coeff *= f.value
                else:
                    coeff_float = f.value if coeff_float is None else coeff_float * f.value
                continue
            if isinstance(f, Pow):
                base, exp = f.base, f.exponent
            else:
                base, exp = f, Fraction(1)
            k = base.key
            if k in powers:
                old_base, old_exp = powers[k]
                powers[k] = (old_base, old_exp + exp)
            else:
                powers[k] = (base, exp)
        if coeff == 0 or (coeff_float is not None and coeff_float == 0.0):
            return ZERO
        # distribute a bare constant over a single sum so that -(a+b) and
        # c*(a+b) participate in like-term collection
        if len(powers) == 1:
            (_, (base, exp)), = powers.items()
            if isinstance(base, Sum) and exp == 1:
                c = float(coeff) * coeff_float if coeff_float is not None else coeff
                if c != 1:
                    return simplify(add(*(mul(Const(c), t) for t in base.terms)))
                return base
        factors = []
        for k in sorted(powers, key=repr):
            base, exp = powers[k]
            piece = pow_(base, exp)
            if isinstance(piece, Const):
                if isinstance(piece.value, Fraction):
                    coeff *= piece.value
                else:
                    coeff_float = (
                        piece.value if coeff_float is None else coeff_float * piece.value
                    )
            else:
                factors.append(piece)
        total = float(coeff) * coeff_float if coeff_float is not None else coeff
        return _rebuild_term(total, tuple(factors))
    if isinstance(e, Pow):
        base = simplify(e.base)
        exp = e.exponent
        if isinstance(base, Pow) and exp.denominator == 1:
            return simplify(pow_(base.base, base.exponent * exp))
        if isinstance(base, Prod) and exp.denominator == 1:
            return simplify(mul(*(pow_(f, exp) for f in base.factors)))
        return pow_(base, exp)
    if isinstance(e, Func):
        return func(e.fname, simplify(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


def _coeff_add(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def is_zero_expr(e: Expr) -> bool:
    s = simplify(e)
    return isinstance(s, Const) and s.is_zero


# ---------------------------------------------------------------------------
# compilation: plain python callables (hot loops in dynamics) and
# row-vectorized evaluators (sampled checks)
# ---------------------------------------------------------------------------


def lambdify(exprs, symbols):
    """Compile expressions to a callable taking one float per symbol.

    Returns f(values: sequence) -> list[float]; symbols fixes the argument
    order.  Unbound symbols are a construction-time error.
    """
    symbols = list(symbols)
    index = {s: i for i, s in enumerate(symbols)}
    exprs = [e for e in exprs]
    for e in exprs:
        missing = e.free - set(symbols)
        if missing:
            raise UnboundSymbolError(sorted(missing)[0])

    def emit(node):
        if isinstance(node, Const):
            return repr(_const_float(node))
        if isinstance(node, Sym):
            return f"x[{index[node.symbol]}]"
        if isinstance(node, Sum):
            return "(" + " + ".join(emit(t) for t in node.terms) + ")"
        if isinstance(node, Prod):
            return "(" + " * ".join(emit(f) for f in node.factors) + ")"
        if isinstance(node, Pow):
            exp = node.exponent
            if exp.denominator == 1:
                return f"({emit(node.base)} ** {exp.numerator})"
            return f"({emit(node.base)} ** {float(exp)!r})"
        if isinstance(node, Func):
            return f"_{node.fname}({emit(node.arg)})"
        raise TypeError(f"not an Expr: {node!r}")

    body = "[" + ", ".join(emit(e) for e in exprs) + "]"
    namespace = {
        "_sin": math.sin,
        "_cos": math.cos,
        "_exp": math.exp,
        "_ln": math.log,
    }
    code = compile(f"lambda x: {body}", "<jetlag-lambdify>", "eval")
    return eval(code, namespace)  # noqa: S307 - code built from our own AST


_ROW_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log}


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

    The expressions are flattened into a tape with one slot per distinct
    subexpression key, and the tape is interpreted column-wise.  Sums and
    products run in eval_expr's order; numpy's power, exp and log may differ
    from the math module's in the last bit.  Unbound symbols, and constants
    too large for a float, are construction-time errors.
    """
    index = {s: i for i, s in enumerate(symbols)}
    exprs = list(exprs)
    for e in exprs:
        missing = e.free - index.keys()
        if missing:
            raise UnboundSymbolError(sorted(missing)[0])
    tape = []  # (op, operand slot(s), payload); operands precede their users
    slots = {}

    def emit(node):
        slot = slots.get(node.key)
        if slot is not None:
            return slot
        if isinstance(node, Const):
            step = ("const", _const_float(node), None)
        elif isinstance(node, Sym):
            step = ("sym", index[node.symbol], None)
        elif isinstance(node, Sum):
            step = ("add", [emit(t) for t in node.terms], None)
        elif isinstance(node, Prod):
            step = ("mul", [emit(f) for f in node.factors], None)
        elif isinstance(node, Pow):
            exp = node.exponent
            step = ("pow", emit(node.base), (float(exp), exp < 0, exp.denominator != 1))
        elif isinstance(node, Func):
            step = (node.fname, emit(node.arg), _ROW_FUNCS[node.fname])
        else:
            raise TypeError(f"not an Expr: {node!r}")
        slots[node.key] = len(tape)
        tape.append(step)
        return slots[node.key]

    outputs = [emit(e) for e in exprs]

    def run(rows):
        cols = np.asarray(rows, dtype=float).T
        n = cols.shape[1]
        bad = np.zeros(n, dtype=bool)
        vals = []
        with np.errstate(all="ignore"):
            for op, arg, payload in tape:
                if op == "sym":
                    v = cols[arg]
                elif op == "const":
                    v = arg
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
                    exp, negative, fractional = payload
                    if negative:
                        bad |= x == 0.0
                    if fractional:
                        bad |= x < 0.0
                    v = np.power(x, exp)
                    bad |= np.isfinite(x) & ~np.isfinite(v)
                else:
                    x = vals[arg]
                    v = payload(x)
                    if op == "ln":
                        bad |= x <= 0.0
                    elif op == "exp":
                        bad |= np.isfinite(x) & ~np.isfinite(v)
                vals.append(v)
            values = [np.array(np.broadcast_to(vals[slot], (n,)), dtype=float) for slot in outputs]
            for v in values:
                bad |= ~np.isfinite(v)
        return values, bad

    return run

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


# largest exact power folded, in bits (about 4900 decimal digits)
_FOLD_BITS = 1 << 14


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
    """Exact fold when possible, float fold otherwise; None keeps it symbolic.

    An exact result is folded only up to _FOLD_BITS bits, judged from the
    operands' bit lengths before it is computed: 10^10^10 stays a power.
    """
    if isinstance(value, Fraction):
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
        n = exponent.numerator
        if abs(n) * (max(value.numerator.bit_length(), value.denominator.bit_length()) - 1) > _FOLD_BITS:
            return None
        return Const(value**n)
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
                return Const(_apply_func(fname, _const_float(value)))
            except (DomainEvalError, NumericFailureError):
                pass
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


def _nonfinite(v):
    raise NumericFailureError(f"non-finite value {v}")


def _const_float(value) -> float:
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
        return _const_float(e.value)
    if isinstance(e, Sym):
        try:
            return binding[e.symbol]
        except KeyError:
            raise UnboundSymbolError(e.symbol) from None
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


def _canonical_order(keys) -> list:
    """Node keys sorted by their text: the order of terms and factors."""
    try:
        return sorted(keys, key=repr)
    except ValueError as exc:  # an integer past the interpreter's limit on digits as text
        raise NumericFailureError("an exact constant is too long to order terms by") from exc


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
        for k in _canonical_order(bucket):
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
        for k in _canonical_order(powers):
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


# ---------------------------------------------------------------------------
# compilation: one tape, written out as straight-line Python (lambdify, one
# point per call) or run over numpy columns (compile_rows, many rows per call)
# ---------------------------------------------------------------------------


def _tape(exprs, symbols):
    """The expressions as a Wengert list with one step per distinct
    subexpression key.

    A step is (op, operand, payload) and its operands come before it:
    ("sym", column, None), ("const", value, None), ("add" | "mul", [slots],
    None), ("pow", slot, (exponent, float exponent)), (function name, slot,
    None), and after each expression's own steps ("out", slot, None), which
    marks that slot as the next output.  A slot is a position in the list.
    Unbound symbols, and constants too large for a float, raise here.
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
        slot = slots.get(node.key)
        if slot is not None:
            return slot
        if isinstance(node, Const):
            step = ("const", _const_float(node.value), None)
        elif isinstance(node, Sym):
            step = ("sym", index[node.symbol], None)
        elif isinstance(node, Sum):
            step = ("add", [emit(t) for t in node.terms], None)
        elif isinstance(node, Prod):
            step = ("mul", [emit(f) for f in node.factors], None)
        elif isinstance(node, Pow):
            step = ("pow", emit(node.base), (node.exponent, _const_float(node.exponent)))
        elif isinstance(node, Func):
            step = (node.fname, emit(node.arg), None)
        else:
            raise TypeError(f"not an Expr: {node!r}")
        slots[node.key] = len(steps)
        steps.append(step)
        return slots[node.key]

    for e in exprs:
        steps.append(("out", emit(e), None))
    return steps


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
    names, lines, outputs = [], [], []
    for slot, (op, arg, payload) in enumerate(_tape(exprs, symbols)):
        name = f"v{slot}"
        if op == "const":
            name = f"({arg!r})" if math.isfinite(arg) else f"float('{arg!r}')"
        elif op == "sym":
            name = f"x{arg}"
        elif op == "out":
            name = names[arg]
            outputs.append(name)
            # v - v is 0.0 for every finite v, and nan for an infinity or a nan
            lines.append(f"if {name} - {name} != 0.0: _nonfinite({name})")
        elif op in ("add", "mul"):
            lines.append(f"{name} = " + (" + " if op == "add" else " * ").join(names[a] for a in arg))
        elif op == "pow":
            base, (exp, float_exp) = names[arg], payload
            guards = [f"{base} == 0.0"] if exp < 0 else []
            guards += [f"{base} < 0.0"] if exp.denominator != 1 else []
            if guards:  # _pow raises eval_expr's domain error
                lines.append(f"if {' or '.join(guards)}: _pow({base}, Fraction({exp.numerator}, {exp.denominator}))")
            lines.append(f"{name} = {base} ** {float_exp!r}")
        else:
            if op == "ln":  # _apply_func raises eval_expr's domain error
                lines.append(f"if {names[arg]} <= 0.0: _apply_func('ln', {names[arg]})")
            lines.append(f"{name} = math.{Func._TABLE[op].__name__}({names[arg]})")
        names.append(name)
    source = ["def f(x):", "    [" + ", ".join(f"x{i}" for i in range(len(symbols))) + "] = x"]
    source += ["    try:"] + [f"        {line}" for line in lines] + ["        pass"]
    source += [
        "    except OverflowError as exc:",
        "        raise NumericFailureError(str(exc)) from exc",
        "    except ValueError as exc:  # sin or cos of an infinity",
        "        raise DomainEvalError(str(exc)) from exc",
        f"    return [{', '.join(outputs)}]",
    ]
    namespace = {}
    exec(compile("\n".join(source), "<jetlag-lambdify>", "exec"), globals(), namespace)  # noqa: S102 - our own tape
    return namespace["f"]


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
    steps = _tape(exprs, symbols)

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

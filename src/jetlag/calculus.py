"""Symbolic calculus: partial derivatives, jet prolongation, polynomial tools.

total_time_derivative implements the chain-rule expansion of d/dt over jet
symbols: every position/acceleration/auxiliary symbol at level k contributes
its partial times the same symbol at level k+1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LevelOverflowError, NotLinearError, UnshiftableSymbolError
from .expr import (
    _JOB_TABLE,
    ONE,
    ZERO,
    Const,
    Expr,
    Func,
    Pow,
    Prod,
    Sum,
    Symbol,
    add,
    div,
    func,
    mul,
    neg,
    pow_,
    simplify,
    substitute,
)
from .symbols import Kind

_SHIFTABLE = (Kind.Q, Kind.A, Kind.M)


def diff(e: Expr, s: Symbol) -> Expr:
    """Exact partial derivative with respect to one symbol, simplified; kept in the job table."""
    table = _JOB_TABLE.get()
    if table is None:
        return simplify(_diff(e, s))
    out = table.get((e, s))
    if out is None:
        out = table[e, s] = simplify(_diff(e, s))
    return out


def _diff(e: Expr, s: Symbol) -> Expr:
    """The partial derivative, unsimplified.  The rules index _DIFF themselves,
    only for children that hold s: the dispatch adds no stack frame per level."""
    return _DIFF[type(e)](e, s) if s in e.free else ZERO


def _diff_prod(e: Prod, s: Symbol) -> Expr:
    pieces = []
    for i, f in enumerate(e.factors):
        if s in f.free:
            pieces.append(mul(_DIFF[type(f)](f, s), *e.factors[:i], *e.factors[i + 1 :]))
    return add(*pieces)


# the derivative of each function by its argument
_OUTER = {
    "sin": lambda x: func("cos", x),
    "cos": lambda x: neg(func("sin", x)),
    "exp": lambda x: func("exp", x),
    "ln": lambda x: pow_(x, Fraction(-1)),
}

# the rule for each node class, looked up by type(e)
_DIFF = {
    Const: lambda e, s: ZERO,
    Symbol: lambda e, s: ONE if e is s else ZERO,
    Sum: lambda e, s: add(*(_DIFF[type(t)](t, s) for t in e.terms if s in t.free)),
    Prod: _diff_prod,
    # d(b^r) = r * b^(r-1) * db, r rational
    Pow: lambda e, s: mul(Const(e.exponent), pow_(e.base, e.exponent - 1), _DIFF[type(e.base)](e.base, s)),
    Func: lambda e, s: mul(_OUTER[e.fname](e.arg), _DIFF[type(e.arg)](e.arg, s)),
}


def max_level(e: Expr, kinds=_SHIFTABLE) -> int:
    levels = [s.level for s in e.free if s.kind in kinds]
    return max(levels, default=-1)


def total_time_derivative(e: Expr, max_order: int) -> Expr:
    """d/dt by jet prolongation: sum of partials times level-raised symbols.

    Every jet symbol in e must sit strictly below max_order; parameters are
    constants in time.  Momentum or fiber symbols have no prolongation rule.
    """
    terms = []
    for s in sorted(e.free):
        if s.kind is Kind.PARAM:
            continue
        if s.kind not in _SHIFTABLE:
            raise UnshiftableSymbolError(f"cannot take d/dt through symbol {s}")
        if s.level >= max_order:
            raise LevelOverflowError(
                f"symbol {s} at level {s.level} exceeds derivative cap {max_order}"
            )
        terms.append(mul(_diff(e, s), s.shifted()))
    return simplify(add(*terms))


def time_derivative(e: Expr) -> Expr:
    """total_time_derivative with the cap set just above the top level used."""
    return total_time_derivative(e, max_level(e) + 1)


def iterated_time_derivative(e: Expr, n: int) -> Expr:
    out = e
    for _ in range(n):
        out = time_derivative(out)
    return out


# ---------------------------------------------------------------------------
# polynomial expansion and exact line integration
# ---------------------------------------------------------------------------


def expand(e: Expr) -> Expr:
    """Distribute products and integer powers over sums; exact on rationals."""
    return simplify(_expand(simplify(e)))


def _expand(e: Expr) -> Expr:
    if isinstance(e, (Const, Symbol)):
        return e
    if isinstance(e, Sum):
        return add(*(_expand(t) for t in e.terms))
    if isinstance(e, Prod):
        out = [ONE]
        for f in e.factors:
            f = _expand(f)
            terms = f.terms if isinstance(f, Sum) else (f,)
            out = [mul(a, t) for a in out for t in terms]
        return add(*out)
    if isinstance(e, Pow):
        base = _expand(e.base)
        n = e.exponent
        if n.denominator == 1 and n > 1 and isinstance(base, Sum):
            out = base
            for _ in range(int(n) - 1):
                out = _expand(mul(out, base))
            return out
        return pow_(base, n)
    if isinstance(e, Func):
        return func(e.fname, _expand(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


def to_monomials(e: Expr, variables) -> dict:
    """Decompose into {exponent tuple: coefficient Expr} over the variables.

    Requires the expression to be polynomial in the variables (after
    expansion); anything free of the variables rides along in coefficients.
    """
    variables = list(variables)
    var_index = {s: i for i, s in enumerate(variables)}
    flat = expand(e)
    out = {}
    terms = flat.terms if isinstance(flat, Sum) else (flat,)
    for term in terms:
        factors = term.factors if isinstance(term, Prod) else (term,)
        expo = [0] * len(variables)
        coeff_parts = []
        for f in factors:
            base, power = (f.base, f.exponent) if isinstance(f, Pow) else (f, Fraction(1))
            if isinstance(base, Symbol) and base in var_index:
                if power.denominator != 1 or power < 0:
                    raise NotLinearError(f"non-polynomial power {power} of {base}")
                expo[var_index[base]] += int(power)
            else:
                if f.free & set(var_index):
                    raise NotLinearError(f"non-polynomial dependence in factor {f}")
                coeff_parts.append(f)
        k = tuple(expo)
        coeff = mul(*coeff_parts) if coeff_parts else ONE
        out[k] = add(out[k], coeff) if k in out else coeff
    return {k: simplify(v) for k, v in out.items() if not is_zero(simplify(v))}


def is_zero(e: Expr) -> bool:
    s = simplify(e)
    return isinstance(s, Const) and s.is_zero


def potential_from_closed_form(components, variables) -> Expr:
    """Integrate a closed polynomial one-form along rays from the origin.

    W(x) = sum_i integral_0^1 gamma_i(s x) x_i ds, exact for polynomial
    components with rational coefficients.
    """
    variables = list(variables)
    total = ZERO
    for i, comp in enumerate(components):
        for expo, coeff in to_monomials(comp, variables).items():
            degree = sum(expo)
            new_expo = list(expo)
            new_expo[i] += 1
            monomial = mul(*(pow_(v, n) for v, n in zip(variables, new_expo) if n))
            total = add(total, mul(coeff, Const(Fraction(1, degree + 1)), monomial))
    return simplify(total)


# ---------------------------------------------------------------------------
# symbolic linear solving (small systems, Cramer elimination)
# ---------------------------------------------------------------------------


def linear_coefficients(exprs, unknowns):
    """Write exprs = M x + r for symbols x; raises NotLinearError otherwise.

    Entries of M must be free of the unknowns; verified by differentiating
    twice.
    """
    unknowns = list(unknowns)
    matrix = []
    residue = []
    zero_map = {u: ZERO for u in unknowns}
    for e in exprs:
        row = []
        for u in unknowns:
            c = diff(e, u)
            if c.free & set(unknowns):
                raise NotLinearError(f"expression not linear in {u}: {e}")
            row.append(c)
        matrix.append(row)
        residue.append(simplify(substitute(e, zero_map)))
    return matrix, residue


def solve_linear_symbolic(exprs, unknowns):
    """Solve exprs == 0 for the unknowns symbolically (square, Cramer).

    Suitable for the small systems that arise when eliminating top
    derivatives from quadratic Lagrangians.
    """
    unknowns = list(unknowns)
    n = len(unknowns)
    if len(exprs) != n:
        raise NotLinearError("need as many equations as unknowns")
    matrix, residue = linear_coefficients(exprs, unknowns)
    # columns 0..n-1 of the matrix, then the right-hand side as column n
    columns = [[row[k] for row in matrix] for k in range(n)] + [[neg(r) for r in residue]]
    minors = {}
    det = _det(columns, tuple(range(n)), minors)
    if is_zero(det):
        raise NotLinearError("coefficient matrix is identically singular")
    solution = []
    for j in range(n):
        replaced = tuple(range(j)) + (n,) + tuple(range(j + 1, n))
        solution.append(simplify(div(_det(columns, replaced, minors), det)))
    return solution


def _det(columns, ids, minors) -> Expr:
    """Laplace expansion along the first row of the last len(ids) rows of the
    columns ids; minors, keyed by ids, is shared by the Cramer determinants."""
    if ids not in minors:
        row = len(columns[0]) - len(ids)
        if len(ids) == 1:
            minors[ids] = columns[ids[0]][row]
        else:
            total = ZERO
            for j, c in enumerate(ids):
                if is_zero(columns[c][row]):  # its piece would vanish in add: skip the minor
                    continue
                piece = mul(columns[c][row], _det(columns, ids[:j] + ids[j + 1 :], minors))
                total = add(total, piece if j % 2 == 0 else neg(piece))
            minors[ids] = simplify(total)
    return minors[ids]


def hessian(e: Expr, symbols) -> list:
    symbols = list(symbols)
    grads = [diff(e, s) for s in symbols]
    return [[diff(g, s) for s in symbols] for g in grads]

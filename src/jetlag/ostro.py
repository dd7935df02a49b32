"""Energy function, conjugate momenta, and Euler-Lagrange machinery for
higher-order Lagrangians with the top derivatives kept as multipliers.

The energy E = sum_k p_(k) qdot_(k+1) - L on the cotangent chart generates the
implicit equations of motion; when the top-derivative Hessian has full rank
the constraint solves symbolically and an explicit Hamiltonian drops out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import (
    diff,
    hessian,
    iterated_time_derivative,
    max_level,
    solve_linear_symbolic,
)
from .charts import chart_cotangent
from .errors import DegenerateLagrangianError, NotLinearError
from .expr import Expr, add, eval_expr, mul, neg, simplify, substitute, sym
from .families import MorseFamily
from .symbols import Kind, p, q

_FORBIDDEN_KINDS = (Kind.P, Kind.PQ, Kind.PA, Kind.PM, Kind.DOTQ, Kind.DOTP, Kind.LAMBDA)


@dataclass(frozen=True)
class LagrangianSpec:
    """Configuration dimension, derivative order, and the Lagrangian itself."""

    dim: int
    order: int
    lagrangian: Expr

    def __post_init__(self):
        L = simplify(self.lagrangian)
        object.__setattr__(self, "lagrangian", L)
        bad = [s for s in L.free if s.kind in _FORBIDDEN_KINDS]
        if bad:
            raise ValueError(f"Lagrangian may not use momentum/fiber symbols: {sorted(bad)}")
        # top == order for honest inputs; lower is tolerated so constant and
        # partially degenerate Lagrangians flow through the same pipeline
        top = max_level(L, kinds=(Kind.Q,))
        if top > self.order:
            raise ValueError(
                f"Lagrangian uses derivative level {top} above declared order {self.order}"
            )
        comps = [s.component for s in L.free if s.kind is Kind.Q]
        if comps and max(comps) > self.dim:
            raise ValueError(f"component index {max(comps)} exceeds dimension {self.dim}")


def ostro_energy(L: LagrangianSpec) -> MorseFamily:
    """E = sum p_(kappa) q_(kappa+1) - L with the top derivatives as fibers."""
    n, k = L.dim, L.order
    total = neg(L.lagrangian)
    for kappa in range(k):
        for a in range(1, n + 1):
            total = add(total, mul(sym(p(a, kappa)), sym(q(a, kappa + 1))))
    fibers = tuple(q(a, k) for a in range(1, n + 1))
    return MorseFamily(
        base=chart_cotangent(n, k),
        fibers=fibers,
        energy=simplify(total),
        label="ostrogradsky",
    )


def ostro_momenta(L: LagrangianSpec) -> list:
    """Conjugate momenta: alternating total time derivatives of dL/dq levels.

    Returns momenta[kappa][A-1], an expression over jet levels up to
    2k - 1 - kappa.
    """
    n, k = L.dim, L.order
    out = []
    for kappa in range(k):
        row = []
        for a in range(1, n + 1):
            total = None
            for j in range(kappa, k):
                piece = diff(L.lagrangian, q(a, j + 1))
                piece = iterated_time_derivative(piece, j - kappa)
                if (j - kappa) % 2 == 1:
                    piece = neg(piece)
                total = piece if total is None else add(total, piece)
            row.append(simplify(total))
        out.append(row)
    return out


def euler_lagrange(L: LagrangianSpec) -> list:
    """Residuals sum_i (-1)^i (d/dt)^i dL/dq_(i), one per component.

    A curve solves the equations of motion iff every residual vanishes along
    its jet; expressions reach level 2k.
    """
    n, k = L.dim, L.order
    out = []
    for a in range(1, n + 1):
        total = None
        for i in range(k + 1):
            piece = diff(L.lagrangian, q(a, i))
            piece = iterated_time_derivative(piece, i)
            if i % 2 == 1:
                piece = neg(piece)
            total = piece if total is None else add(total, piece)
        out.append(simplify(total))
    return out


def nondegeneracy(L: LagrangianSpec, at: dict) -> dict:
    """Numeric rank of the top-derivative Hessian at a point.

    Rank by singular values above 1e-10 of the largest one; full means rank
    equals the configuration dimension.
    """
    n, k = L.dim, L.order
    tops = [q(a, k) for a in range(1, n + 1)]
    rows = hessian(L.lagrangian, tops)
    rank = svd_rank(np.array([[eval_expr(e, at) for e in row] for row in rows], dtype=float))
    return {"rank": rank, "full": rank == n}


def svd_rank(mat) -> int:
    """Number of singular values above 1e-10 of the largest one (0 for an
    empty or zero matrix)."""
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(svals > 1e-10 * max(svals[0], 1e-300))) if svals[0] > 0 else 0


def top_coefficients(L: LagrangianSpec) -> list:
    """dL/dq_(k) per component: the coefficients f of an L affine in its top derivatives."""
    return [diff(L.lagrangian, q(a, L.order)) for a in range(1, L.dim + 1)]


def top_derivative_solution(L: LagrangianSpec) -> list:
    """Solve p_(k-1) = dL/dq_(k) for the top derivatives (quadratic L only)."""
    n, k = L.dim, L.order
    tops = [q(a, k) for a in range(1, n + 1)]
    eqs = [add(sym(p(a, k - 1)), neg(diff(L.lagrangian, q(a, k)))) for a in range(1, n + 1)]
    try:
        return solve_linear_symbolic(eqs, tops)
    except NotLinearError as exc:
        if "singular" in str(exc):
            raise DegenerateLagrangianError(str(exc)) from exc
        raise


def explicit_hamiltonian(L: LagrangianSpec) -> Expr:
    """Energy with the top derivatives eliminated through the momentum map."""
    n, k = L.dim, L.order
    family = ostro_energy(L)
    solution = top_derivative_solution(L)
    mapping = {q(a, k): solution[a - 1] for a in range(1, n + 1)}
    return simplify(substitute(family.energy, mapping))


def ostro_initial_data(L: LagrangianSpec, jet: dict, params: dict | None = None) -> dict:
    """Phase-space point from a jet: positions copied, momenta evaluated.

    jet binds q levels up to 2k-1 (plus parameters via params).
    """
    n, k = L.dim, L.order
    binding = dict(jet)
    if params:
        binding.update(params)
    out = {}
    for kappa in range(k):
        for a in range(1, n + 1):
            out[q(a, kappa)] = float(binding[q(a, kappa)])
    momenta = ostro_momenta(L)
    for kappa in range(k):
        for a in range(1, n + 1):
            out[p(a, kappa)] = eval_expr(momenta[kappa][a - 1], binding)
    return out

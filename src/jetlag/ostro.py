"""Energy function, conjugate momenta, and Euler-Lagrange machinery for
higher-order Lagrangians with the top derivatives kept as multipliers.

The energy E = sum_k p_(k) qdot_(k+1) - L on the cotangent chart generates the
implicit equations of motion; when the top-derivative Hessian has full rank
the constraint solves symbolically and an explicit Hamiltonian drops out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .calculus import (
    diff,
    hessian,
    iterated_time_derivative,
    max_level,
    solve_linear_symbolic,
)
from .charts import chart_cotangent, pullback_to_acceleration_chart
from .dynamics import numeric_rank
from .errors import DegenerateLagrangianError, NotLinearError
from .expr import Expr, add, eval_expr, neg, simplify, substitute, values_of
from .families import MorseFamily, legendre_sum
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

    @cached_property
    def acceleration_lagrangian(self) -> Expr:
        """L pulled back to the acceleration chart, (q2, q3) -> (a0, a1), and
        simplified: built once per spec for every acceleration-bundle route."""
        if self.order not in (2, 3):
            raise ValueError("acceleration-bundle route needs a second or third order Lagrangian")
        return simplify(pullback_to_acceleration_chart(self.lagrangian, self.dim, top=self.order))


def energy_sum(L: LagrangianSpec) -> Expr:
    """sum p_(kappa) q_(kappa+1) - L, unsimplified, for callers that
    substitute into it before they simplify."""
    pairs = ((p(a, kappa), q(a, kappa + 1)) for kappa in range(L.order) for a in range(1, L.dim + 1))
    return legendre_sum(L.lagrangian, pairs)


def ostro_energy(L: LagrangianSpec) -> MorseFamily:
    """E = sum p_(kappa) q_(kappa+1) - L with the top derivatives as fibers."""
    n, k = L.dim, L.order
    return MorseFamily(
        base=chart_cotangent(n, k),
        fibers=tuple(q(a, k) for a in range(1, n + 1)),
        energy=simplify(energy_sum(L)),
        label="ostrogradsky",
    )


def _alternating(L: LagrangianSpec, a: int, first: int) -> Expr:
    """sum_i (-1)^i (d/dt)^i dL/dq^A_(first+i) over the levels first..k."""
    total = None
    for i, level in enumerate(range(first, L.order + 1)):
        piece = iterated_time_derivative(diff(L.lagrangian, q(a, level)), i)
        if i % 2 == 1:
            piece = neg(piece)
        total = piece if total is None else add(total, piece)
    return simplify(total)


def ostro_momenta(L: LagrangianSpec) -> list:
    """Conjugate momenta: alternating total time derivatives of dL/dq levels.

    Returns momenta[kappa][A-1], the alternating sum from level kappa + 1,
    an expression over jet levels up to 2k - 1 - kappa.
    """
    return [[_alternating(L, a, kappa + 1) for a in range(1, L.dim + 1)] for kappa in range(L.order)]


def euler_lagrange(L: LagrangianSpec) -> list:
    """Residuals sum_i (-1)^i (d/dt)^i dL/dq_(i), one per component.

    A curve solves the equations of motion iff every residual vanishes along
    its jet; expressions reach level 2k.
    """
    return [_alternating(L, a, 0) for a in range(1, L.dim + 1)]


def nondegeneracy(L: LagrangianSpec, at: dict) -> dict:
    """Numeric rank of the top-derivative Hessian at a point by the multiplier
    solver's rule, dynamics.numeric_rank; full means rank equals the
    configuration dimension."""
    n, k = L.dim, L.order
    tops = [q(a, k) for a in range(1, n + 1)]
    rank = numeric_rank([[eval_expr(e, at) for e in row] for row in hessian(L.lagrangian, tops)])
    return {"rank": rank, "full": rank == n}


def top_derivative_solution(L: LagrangianSpec) -> list:
    """Solve p_(k-1) = dL/dq_(k) for the top derivatives (quadratic L only)."""
    n, k = L.dim, L.order
    tops = [q(a, k) for a in range(1, n + 1)]
    eqs = [add(p(a, k - 1), neg(diff(L.lagrangian, q(a, k)))) for a in range(1, n + 1)]
    try:
        return solve_linear_symbolic(eqs, tops)
    except NotLinearError as exc:
        if "singular" in str(exc):
            raise DegenerateLagrangianError(str(exc)) from exc
        raise


def explicit_hamiltonian(L: LagrangianSpec) -> Expr:
    """Energy with the top derivatives eliminated through the momentum map."""
    solution = top_derivative_solution(L)
    mapping = {q(a, L.order): solution[a - 1] for a in range(1, L.dim + 1)}
    return simplify(substitute(energy_sum(L), mapping))


def ostro_initial_data(L: LagrangianSpec, jet: dict, params: dict | None = None) -> dict:
    """Phase-space point from a jet: positions copied, momenta evaluated.

    jet binds q levels up to 2k-1 (plus parameters via params).
    """
    n, k = L.dim, L.order
    binding = dict(jet)
    if params:
        binding.update(params)
    positions = [q(a, kappa) for kappa in range(k) for a in range(1, n + 1)]
    out = dict(zip(positions, values_of(positions, binding)))
    momenta = ostro_momenta(L)
    for kappa in range(k):
        for a in range(1, n + 1):
            out[p(a, kappa)] = eval_expr(momenta[kappa][a - 1], binding)
    return out

"""Acceleration-bundle route to first-order form: gauge extension by a total
time derivative, compatibility checks, the reduced energy family, and the
third-order / degenerate-second-order variants with an auxiliary factor.

Conventions: the second-order Lagrangian is pulled back by relabeling
(q2, q3) -> (a0, a1); the gauge function F never sees momenta.  The reduced
family keeps the momentum-defining relation pa = dF/da0 as a recorded
algebraic constraint so degenerate cases flow through the same implicit
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import diff, is_zero, solve_linear_symbolic
from .charts import chart_tstar_aq, chart_tstar_aqm
from .dynamics import numeric_rank
from .errors import GaugeConditionError, IncompatibleGaugeError
from .expr import Expr, add, eval_expr, mul, neg, simplify, substitute, sym
from .families import MorseFamily, legendre_sum
from .ostro import LagrangianSpec, energy_sum
from .sampling import equal_numeric, eval_rows, make_rng, sample_rows
from .symbols import Kind, Symbol, acc, aux, p as ost_p, pa, pm, pq, q


@dataclass(frozen=True)
class GaugeFunction:
    """Gauge term F over (q0, q1, a0) or (q0, q1, a0, m0); no momenta."""

    expr: Expr
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "expr", simplify(self.expr))
        for s in self.expr.free:
            if s.kind is Kind.PARAM:
                continue
            ok = (
                (s.kind is Kind.Q and s.level <= 1)
                or (s.kind is Kind.A and s.level == 0)
                or (s.kind is Kind.M and s.level == 0)
            )
            if not ok:
                raise ValueError(f"gauge function may not depend on {s}")

    def d(self, symbol: Symbol) -> Expr:
        return diff(self.expr, symbol)


@dataclass(frozen=True)
class SchmidtSystem:
    extended_lagrangian: Expr
    family: MorseFamily

    def __post_init__(self):
        # extension must be genuinely first order on its chart
        for s in self.extended_lagrangian.free:
            if s.kind in (Kind.Q, Kind.A, Kind.M) and s.level > 1:
                raise ValueError(f"extended Lagrangian is not first order: uses {s}")


def gauge_extend_second(L: LagrangianSpec, F: GaugeFunction) -> Expr:
    """First-order Lagrangian L + dF/dt on the acceleration chart: the gauge
    extension of every route, the auxiliary-factor ones included.

    Per component dF/dt adds F_q0 q1 + F_q1 a0 + F_a0 a1 + F_m0 m1, in that
    order; a term whose coordinate F does not use vanishes.
    """
    total = L.acceleration_lagrangian
    for a in range(1, L.dim + 1):
        rates = ((q(a, 0), q(a, 1)), (q(a, 1), acc(a, 0)), (acc(a, 0), acc(a, 1)), (aux(a, 0), aux(a, 1)))
        for s, rate in rates:
            total = add(total, mul(F.d(s), sym(rate)))
    return simplify(total)


def chi_check(L: LagrangianSpec, F: GaugeFunction) -> list:
    """Compatibility residuals dL/da0 + dF/dq1, one per component."""
    Lacc = L.acceleration_lagrangian
    return [
        simplify(add(diff(Lacc, acc(a, 0)), F.d(q(a, 1))))
        for a in range(1, L.dim + 1)
    ]


def solve_F_quadratic(L: LagrangianSpec) -> GaugeFunction:
    """Integrate the compatibility condition when dL/da0 is velocity-free.

    F = -sum_A (dL/da0^A) q1^A, with the free additive function of position
    fixed to zero.
    """
    Lacc = L.acceleration_lagrangian
    n = L.dim
    total = None
    for a in range(1, n + 1):
        grad = diff(Lacc, acc(a, 0))
        if any(s.kind is Kind.Q and s.level == 1 for s in grad.free):
            raise IncompatibleGaugeError(
                "dL/da0 depends on the velocity; supply the gauge function explicitly"
            )
        piece = neg(mul(grad, sym(q(a, 1))))
        total = piece if total is None else add(total, piece)
    return GaugeFunction(simplify(total), n)


def _reduced_energy(L: LagrangianSpec, F: GaugeFunction) -> Expr:
    """pq q1 - L - F_q0 q1 - F_q1 a0, unsimplified: the reduced energy of the
    second-order route, before or after the velocity is eliminated."""
    total = neg(L.acceleration_lagrangian)
    for a in range(1, L.dim + 1):
        total = add(total, mul(sym(pq(a)), sym(q(a, 1))))
        total = add(total, neg(mul(F.d(q(a, 0)), sym(q(a, 1)))))
        total = add(total, neg(mul(F.d(q(a, 1)), sym(acc(a, 0)))))
    return total


def schmidt_morse_family(L: LagrangianSpec, F: GaugeFunction) -> MorseFamily:
    """Reduced energy family on T*AQ with velocities as fibers.

    E = pq q1 - L - F_q0 q1 - F_q1 a0; the relation pa - dF/da0 = 0 is
    recorded with the acceleration velocity as its multiplier, which restores
    the unreduced family for dynamics and rank checks.
    """
    if any(s.kind is Kind.M for s in F.expr.free):
        raise ValueError("gauge for the second-order route depends on (q0, q1, a0) only")
    for r in chi_check(L, F):
        if not is_zero(r):
            raise IncompatibleGaugeError(f"gauge incompatible with Lagrangian: residual {r}")
    n = L.dim
    relations = tuple(
        (acc(a, 1), simplify(add(sym(pa(a)), neg(F.d(acc(a, 0))))))
        for a in range(1, n + 1)
    )
    return MorseFamily(
        base=chart_tstar_aq(n),
        fibers=tuple(q(a, 1) for a in range(1, n + 1)),
        energy=simplify(_reduced_energy(L, F)),
        extra_relations=relations,
        label="schmidt-second-order",
    )


def velocity_solution(L: LagrangianSpec, F: GaugeFunction) -> list:
    """Solve pa = dF/da0 for the velocities q1 (linear gauge Hessian only)."""
    n = L.dim
    eqs = [
        add(sym(pa(a)), neg(F.d(acc(a, 0))))
        for a in range(1, n + 1)
    ]
    return solve_linear_symbolic(eqs, [q(a, 1) for a in range(1, n + 1)])


def schmidt_hamiltonian(L: LagrangianSpec, F: GaugeFunction) -> Expr:
    """Explicit Hamiltonian on T*AQ once the velocity eliminates.

    H = pq z - L(q0, z, a0) - F_q0 z - F_q1 a0 with z solving pa = dF/da0.
    """
    z = velocity_solution(L, F)
    mapping = {q(a, 1): z[a - 1] for a in range(1, L.dim + 1)}
    return simplify(substitute(_reduced_energy(L, F), mapping))


def _check_cond2(F: GaugeFunction, n: int):
    """The mixed velocity/auxiliary gauge Hessian must have full rank n, by
    dynamics.numeric_rank, at ten points drawn from seed 0."""
    mat = [diff(F.d(q(a, 1)), aux(b, 0)) for a in range(1, n + 1) for b in range(1, n + 1)]
    symbols = sorted(set().union(*(e.free for e in mat)))
    values = eval_rows(mat, symbols, sample_rows(symbols, 10, make_rng(0)))
    if any(numeric_rank(block) < n for block in np.array(values).T.reshape(-1, n, n).tolist()):
        raise GaugeConditionError("mixed gauge Hessian in (velocity, auxiliary) is singular")


def default_auxiliary_gauge(n: int) -> GaugeFunction:
    """The built-in coupling F = sum_A q1^A m0^A."""
    total = None
    for a in range(1, n + 1):
        piece = mul(sym(q(a, 1)), sym(aux(a, 0)))
        total = piece if total is None else add(total, piece)
    return GaugeFunction(total, n)


def third_order_extend(L: LagrangianSpec, F: GaugeFunction) -> SchmidtSystem:
    """Third-order Lagrangian to first order on the product with the auxiliary
    factor; fibers are all three velocity blocks."""
    if L.order != 3:
        raise ValueError("third-order route needs a third order Lagrangian")
    n = L.dim
    _check_cond2(F, n)
    ext = gauge_extend_second(L, F)
    family = _aqm_family(ext, n, "schmidt-third-order")
    return SchmidtSystem(ext, family)


def degenerate_second_extend(L: LagrangianSpec, F: GaugeFunction) -> SchmidtSystem:
    """Degenerate second-order route: velocities stay explicit in L, the gauge
    couples them to the auxiliary block; the acceleration momentum is forced
    to vanish by the missing a1 dependence."""
    if L.order != 2:
        raise ValueError("degenerate second-order route needs a second order Lagrangian")
    n = L.dim
    for s in F.expr.free:
        if s.kind is Kind.A:
            raise ValueError("gauge for the degenerate route depends on (q0, q1, m0) only")
    _check_cond2(F, n)
    ext = gauge_extend_second(L, F)
    family = _aqm_family(ext, n, "schmidt-second-degenerate")
    return SchmidtSystem(ext, family)


def _aqm_family(ext: Expr, n: int, label: str) -> MorseFamily:
    pairs = [
        (m, v) for a in range(1, n + 1) for m, v in ((pq(a), q(a, 1)), (pa(a), acc(a, 1)), (pm(a), aux(a, 1)))
    ]
    return MorseFamily(
        base=chart_tstar_aqm(n),
        fibers=tuple(v for _, v in pairs),
        energy=simplify(legendre_sum(ext, pairs)),
        label=label,
    )


def pullback_map(L: LagrangianSpec, F: GaugeFunction) -> dict:
    """Substitution realizing the canonical symplectic identification between
    the acceleration-bundle chart and the iterated cotangent chart.

    (q0, a0, pq, pa) -> (q0, z, p0 = pq - F_q0(q0,z,a0), p1 = -F_q1(q0,z,a0)),
    with the fiber q2 identified with a0.
    """
    n = L.dim
    z = velocity_solution(L, F)
    zmap = {q(a, 1): z[a - 1] for a in range(1, n + 1)}
    mapping = dict(zmap)
    for a in range(1, n + 1):
        mapping[q(a, 2)] = sym(acc(a, 0))
        mapping[ost_p(a, 0)] = simplify(
            add(sym(pq(a)), neg(substitute(F.d(q(a, 0)), zmap)))
        )
        mapping[ost_p(a, 1)] = simplify(neg(substitute(F.d(q(a, 1)), zmap)))
    return mapping


def ostro_schmidt_pullback_check(
    L: LagrangianSpec,
    F: GaugeFunction,
    hamiltonian_gauge: GaugeFunction | None = None,
    trials: int = 100,
    tol: float = 1e-10,
    rng=None,
) -> bool:
    """Ostrogradsky energy pulled through the identification equals the
    acceleration-bundle Hamiltonian.

    hamiltonian_gauge lets the caller pit the map built from one gauge
    against the Hamiltonian of another (the negative control).
    """
    pulled = simplify(substitute(energy_sum(L), pullback_map(L, F)))
    ham = schmidt_hamiltonian(L, hamiltonian_gauge or F)
    return equal_numeric(pulled, ham, trials=trials, tol=tol, rng=rng)


def schmidt_initial_data(
    L: LagrangianSpec, F: GaugeFunction, jet: dict, params: dict | None = None
) -> dict:
    """Acceleration-chart phase point matching a configuration jet.

    jet binds q levels 0..3; momenta come from the fiber equations of the
    unreduced family evaluated on the jet.
    """
    n = L.dim
    binding = dict(jet)
    if params:
        binding.update(params)
    ext = gauge_extend_second(L, F)
    jet_acc = dict(binding)
    for a in range(1, n + 1):
        jet_acc[acc(a, 0)] = float(binding[q(a, 2)])
        jet_acc[acc(a, 1)] = float(binding[q(a, 3)])
    out = {}
    for a in range(1, n + 1):
        out[q(a, 0)] = float(binding[q(a, 0)])
        out[acc(a, 0)] = float(binding[q(a, 2)])
        out[pq(a)] = eval_expr(diff(ext, q(a, 1)), jet_acc)
        out[pa(a)] = eval_expr(diff(ext, acc(a, 1)), jet_acc)
    return out

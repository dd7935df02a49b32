import pytest

from jetlag import families
from jetlag.calculus import diff, expand, is_zero, time_derivative
from jetlag.dynamics import assemble
from jetlag.errors import GaugeConditionError, IncompatibleGaugeError
from jetlag.expr import simplify
from jetlag.ostro import LagrangianSpec, euler_lagrange
from jetlag.parser import parse
from jetlag.sampling import equal_numeric
from jetlag.schmidt import (
    GaugeFunction,
    chi_check,
    default_auxiliary_gauge,
    degenerate_second_extend,
    gauge_extend_second,
    ostro_schmidt_pullback_check,
    schmidt_hamiltonian,
    schmidt_morse_family,
    solve_F_quadratic,
    third_order_extend,
)
from jetlag.symbols import acc, aux, q

from conftest import random_polynomial, rational_polynomial

BEAM = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2 + rho*q1_0"))
JAVELIN = LagrangianSpec(1, 2, parse("1/2*q1_1^2 - 1/2*q1_2^2"))
F_BEAM = GaugeFunction(parse("-mu*a1_0*q1_1"), 1)
F_JAVELIN = GaugeFunction(parse("a1_0*q1_1"), 1)


def test_gauge_extension_beam():
    L2 = gauge_extend_second(BEAM, F_BEAM)
    assert equal_numeric(L2, parse("rho*q1_0 - 1/2*mu*a1_0^2 - mu*a1_1*q1_1"))


def test_gauge_extension_javelin():
    L2 = gauge_extend_second(JAVELIN, F_JAVELIN)
    assert equal_numeric(L2, parse("1/2*q1_1^2 + 1/2*a1_0^2 + q1_1*a1_1"))


def test_gauge_extension_zero_gauge():
    L2 = gauge_extend_second(BEAM, GaugeFunction(parse("0"), 1))
    assert equal_numeric(L2, parse("1/2*mu*a1_0^2 + rho*q1_0"))


def test_gauge_function_rejects_momenta_and_high_levels():
    with pytest.raises(ValueError):
        GaugeFunction(parse("pq1*q1_0"), 1)
    with pytest.raises(ValueError):
        GaugeFunction(parse("q1_2^2"), 1)


def test_chi_check():
    assert is_zero(chi_check(BEAM, F_BEAM)[0])
    assert is_zero(chi_check(JAVELIN, F_JAVELIN)[0])
    residual = chi_check(BEAM, GaugeFunction(parse("0"), 1))[0]
    assert equal_numeric(residual, parse("mu*a1_0"))


def test_solve_F_quadratic():
    assert equal_numeric(solve_F_quadratic(LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2"))).expr, parse("-mu*a1_0*q1_1"))
    assert equal_numeric(solve_F_quadratic(JAVELIN).expr, parse("a1_0*q1_1"))
    with pytest.raises(IncompatibleGaugeError):
        solve_F_quadratic(LagrangianSpec(1, 2, parse("1/2*q1_1^2*q1_2^2")))


def test_morse_family_beam():
    fam = schmidt_morse_family(BEAM, F_BEAM)
    assert equal_numeric(fam.energy, parse("pq1*q1_1 - rho*q1_0 + 1/2*mu*a1_0^2"))
    ((mult, relation),) = fam.extra_relations
    assert mult == acc(1, 1)
    assert equal_numeric(relation, parse("pa1 + mu*q1_1"))
    assert fam.fibers == (q(1, 1),)


def test_morse_family_javelin_relation():
    fam = schmidt_morse_family(JAVELIN, F_JAVELIN)
    ((_, relation),) = fam.extra_relations
    assert equal_numeric(relation, parse("pa1 - q1_1"))


def test_family_builds_its_total_energy_once(monkeypatch):
    calls = []

    def counted(e):
        calls.append(e)
        return simplify(e)

    monkeypatch.setattr(families, "simplify", counted)
    mf = schmidt_morse_family(BEAM, F_BEAM)  # checking the family reads the total energy
    system = assemble(mf)
    assert mf.fiber_equations() and mf.total_energy is system.energy
    assert len(calls) == 1


def test_morse_family_rejects_incompatible_gauge():
    with pytest.raises(IncompatibleGaugeError):
        schmidt_morse_family(BEAM, GaugeFunction(parse("0"), 1))


def test_morse_family_first_order_reduction():
    # first-order L with zero gauge: the classical p qdot - L picture
    L = LagrangianSpec(1, 2, parse("1/2*q1_1^2 - c*q1_0"))
    fam = schmidt_morse_family(L, GaugeFunction(parse("0"), 1))
    assert equal_numeric(fam.energy, parse("pq1*q1_1 - 1/2*q1_1^2 + c*q1_0"))


def test_hamiltonians():
    assert equal_numeric(
        schmidt_hamiltonian(BEAM, F_BEAM), parse("1/2*mu*a1_0^2 - pa1*pq1/mu - rho*q1_0")
    )
    assert equal_numeric(
        schmidt_hamiltonian(JAVELIN, F_JAVELIN), parse("pa1*pq1 - 1/2*pa1^2 - 1/2*a1_0^2")
    )
    quad = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2"))
    assert equal_numeric(
        schmidt_hamiltonian(quad, solve_F_quadratic(quad)),
        parse("1/2*mu*a1_0^2 - pq1*pa1/mu"),
    )


def test_hamiltonian_on_relation_surface_matches_family():
    # substitute the velocity solution back into the reduced family energy
    from jetlag.expr import substitute
    from jetlag.schmidt import velocity_solution

    (z,) = velocity_solution(BEAM, F_BEAM)
    fam = schmidt_morse_family(BEAM, F_BEAM)
    restricted = simplify(substitute(fam.energy, {q(1, 1): z}))
    assert equal_numeric(restricted, schmidt_hamiltonian(BEAM, F_BEAM))


def test_pullback_identity():
    assert ostro_schmidt_pullback_check(BEAM, F_BEAM)
    assert ostro_schmidt_pullback_check(JAVELIN, F_JAVELIN, trials=100, tol=1e-10)


def test_pullback_perturbed_gauge_fails():
    perturbed = GaugeFunction(parse("-mu*a1_0*q1_1 + 1/10*a1_0^2*q1_1"), 1)
    assert not ostro_schmidt_pullback_check(BEAM, F_BEAM, hamiltonian_gauge=perturbed)


def test_third_order_extend_reduced_coupling():
    L3 = LagrangianSpec(1, 3, parse("1/2*q1_3^2 + q1_1*q1_0"))
    F = default_auxiliary_gauge(1)
    system = third_order_extend(L3, F)
    # L + q1 m1 + a0 m0: the auxiliary coupling contributes both terms
    expected = parse("1/2*a1_1^2 + q1_1*q1_0 + q1_1*m1_1 + a1_0*m1_0")
    assert equal_numeric(system.extended_lagrangian, expected)
    assert system.family.fibers == (q(1, 1), acc(1, 1), aux(1, 1))
    assert equal_numeric(
        system.family.energy,
        parse("pq1*q1_1 + pa1*a1_1 + pm1*m1_1") - expected,
    )


def test_third_order_requires_third_order_lagrangian():
    with pytest.raises(ValueError):
        third_order_extend(BEAM, default_auxiliary_gauge(1))


def test_cond2_violation():
    L3 = LagrangianSpec(1, 3, parse("1/2*q1_3^2"))
    with pytest.raises(GaugeConditionError):
        third_order_extend(L3, GaugeFunction(parse("q1_1^2"), 1))


def test_degenerate_extend_forces_zero_acceleration_momentum():
    PLANAR = LagrangianSpec(3, 2, parse("1/2*(q1_2 + q2_2)^2"))
    system = degenerate_second_extend(PLANAR, default_auxiliary_gauge(3))
    sys = assemble(system.family)
    # dE/da1 == pa identically: the acceleration momenta are constrained to 0
    for a in range(1, 4):
        idx = system.family.fibers.index(acc(a, 1))
        assert equal_numeric(sys.constraints[idx], parse(f"pa{a}"))


def test_degenerate_extend_spectator_reduction():
    # L independent of the acceleration slot: classical piece plus spectators
    L = LagrangianSpec(1, 2, parse("1/2*q1_1^2 - c*q1_0"))
    system = degenerate_second_extend(L, default_auxiliary_gauge(1))
    expected = parse("1/2*q1_1^2 - c*q1_0 + q1_1*m1_1 + a1_0*m1_0")
    assert equal_numeric(system.extended_lagrangian, expected)


def test_degenerate_extend_rejects_acceleration_gauge():
    with pytest.raises(ValueError):
        degenerate_second_extend(BEAM, GaugeFunction(parse("a1_0*m1_0"), 1))


def test_gauge_invariance_symbolic_and_numeric(rng):
    # equations of motion survive adding a total time derivative
    for trial in range(6):
        L_expr = rational_polynomial(rng, [q(1, 0), q(1, 1), q(1, 2)], degree=2, terms=5)
        F_expr = rational_polynomial(rng, [q(1, 0), q(1, 1), q(1, 2)], degree=2, terms=4)
        L = LagrangianSpec(1, 2, L_expr)
        Lg = LagrangianSpec(1, 3, simplify(L_expr + time_derivative(F_expr)))
        r0 = euler_lagrange(L)[0]
        r1 = euler_lagrange(Lg)[0]
        assert is_zero(expand(r1 - r0))
        assert equal_numeric(r0, r1, trials=20, tol=1e-9)


def test_acceleration_residual_structure(rng):
    # the acceleration-direction variational residual of the extended
    # Lagrangian factors through the compatibility residual plus the mixed
    # gauge Hessian times the holonomy defect
    L_expr = random_polynomial(rng, [q(1, 0), q(1, 1), q(1, 2)], degree=2, terms=5)
    F_expr = random_polynomial(rng, [q(1, 0), q(1, 1)], degree=2, terms=4) * parse("a1_0") + \
        random_polynomial(rng, [q(1, 0), q(1, 1)], degree=2, terms=3)
    L = LagrangianSpec(1, 2, L_expr)
    F = GaugeFunction(simplify(F_expr), 1)
    L2 = gauge_extend_second(L, F)
    residual = simplify(diff(L2, acc(1, 0)) - time_derivative(diff(L2, acc(1, 1))))
    from jetlag.charts import pullback_to_acceleration_chart

    Lacc = pullback_to_acceleration_chart(L_expr, 1, top=2)
    chi = diff(Lacc, acc(1, 0)) + F.d(q(1, 1))
    structured = simplify(chi + diff(F.d(q(1, 1)), acc(1, 0)) * (parse("a1_0") - parse("q1_2")))
    assert equal_numeric(residual, structured, trials=40, tol=1e-9)

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jetlag.calculus import diff, time_derivative
from jetlag.dynamics import assemble, resolve_multipliers
from jetlag.errors import DegenerateLagrangianError, NotLinearError, SingularJacobianError
from jetlag.expr import simplify, substitute
from jetlag.ostro import (
    LagrangianSpec,
    euler_lagrange,
    explicit_hamiltonian,
    nondegeneracy,
    ostro_energy,
    ostro_momenta,
)
from jetlag.parser import parse
from jetlag.sampling import equal_numeric, sample_binding
from jetlag.symbols import p, param, q

BEAM = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2 + rho*q1_0"))
JAVELIN = LagrangianSpec(1, 2, parse("1/2*q1_1^2 - 1/2*q1_2^2"))
PLANAR = LagrangianSpec(3, 2, parse("1/2*(q1_2 + q2_2)^2"))
FREE = LagrangianSpec(1, 1, parse("1/2*q1_1^2"))


def test_spec_validation():
    with pytest.raises(ValueError):
        LagrangianSpec(1, 1, parse("q1_2^2"))  # level above declared order
    with pytest.raises(ValueError):
        LagrangianSpec(1, 2, parse("p1_0*q1_2"))  # momentum symbol
    with pytest.raises(ValueError):
        LagrangianSpec(1, 2, parse("q2_2^2"))  # component above dimension
    LagrangianSpec(2, 2, parse("0"))  # constant Lagrangian is fine


def test_energy_beam():
    mf = ostro_energy(BEAM)
    assert equal_numeric(mf.energy, parse("p1_0*q1_1 + p1_1*q1_2 - 1/2*mu*q1_2^2 - rho*q1_0"))
    assert mf.fibers == (q(1, 2),)


def test_energy_zero_lagrangian():
    zero = LagrangianSpec(2, 2, parse("0"))
    mf = ostro_energy(zero)
    expected = parse("p1_0*q1_1 + p2_0*q2_1 + p1_1*q1_2 + p2_1*q2_2")
    assert equal_numeric(mf.energy, expected)


def test_energy_javelin():
    mf = ostro_energy(JAVELIN)
    assert equal_numeric(mf.energy, parse("p1_0*q1_1 + p1_1*q1_2 + 1/2*q1_2^2 - 1/2*q1_1^2"))


def test_momenta_beam():
    mom = ostro_momenta(BEAM)
    assert equal_numeric(mom[1][0], parse("mu*q1_2"))
    # independent hand expansion dL/dq1 - d/dt dL/dq2
    hand = simplify(diff(BEAM.lagrangian, q(1, 1)) - time_derivative(diff(BEAM.lagrangian, q(1, 2))))
    assert equal_numeric(mom[0][0], hand)
    assert equal_numeric(mom[0][0], parse("-mu*q1_3"))


def test_momenta_first_order_classical():
    mom = ostro_momenta(FREE)
    assert mom[0][0] == parse("q1_1")


def test_top_momentum_is_top_derivative_slope():
    for spec in (BEAM, JAVELIN, PLANAR):
        mom = ostro_momenta(spec)
        for a in range(1, spec.dim + 1):
            assert equal_numeric(mom[spec.order - 1][a - 1], diff(spec.lagrangian, q(a, spec.order)))


def test_euler_lagrange_examples():
    assert equal_numeric(euler_lagrange(BEAM)[0], parse("rho + mu*q1_4"))
    assert equal_numeric(euler_lagrange(FREE)[0], parse("-q1_2"))
    assert equal_numeric(euler_lagrange(JAVELIN)[0], parse("-q1_2 - q1_4"))


def test_implicit_system_beam():
    sys = assemble(ostro_energy(BEAM))
    assert sys.rhs[q(1, 0)] == parse("q1_1")
    assert sys.rhs[q(1, 1)] == parse("q1_2")
    assert sys.rhs[p(1, 0)] == parse("rho")
    assert equal_numeric(sys.rhs[p(1, 1)], parse("-p1_0"))
    assert equal_numeric(sys.constraints[0], parse("p1_1 - mu*q1_2"))
    assert sys.multipliers == (q(1, 2),)


def test_implicit_system_first_order_reduction():
    sys = assemble(ostro_energy(LagrangianSpec(1, 1, parse("1/2*q1_1^2 - c*q1_0"))))
    # classical implicit pair: qdot = lambda, pdot = dL/dq, constraint p = dL/dlambda
    assert sys.rhs[q(1, 0)] == parse("q1_1")
    assert equal_numeric(sys.rhs[p(1, 0)], parse("-c"))
    assert equal_numeric(sys.constraints[0], parse("p1_0 - q1_1"))


def test_implicit_system_javelin():
    sys = assemble(ostro_energy(JAVELIN))
    assert equal_numeric(sys.constraints[0], parse("p1_1 + q1_2"))
    assert equal_numeric(sys.rhs[p(1, 1)], parse("q1_1 - p1_0"))


def test_nondegeneracy(rng):
    at = sample_binding(sorted(BEAM.lagrangian.free), rng)
    res = nondegeneracy(BEAM, at)
    assert res == {"rank": 1, "full": True}
    at3 = sample_binding(sorted(PLANAR.lagrangian.free), rng)
    assert nondegeneracy(PLANAR, at3) == {"rank": 1, "full": False}
    affine = LagrangianSpec(1, 2, parse("c*q1_2 + q1_1^2"))
    at_a = sample_binding(sorted(affine.lagrangian.free), rng)
    assert nondegeneracy(affine, at_a)["rank"] == 0


SCALED = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2"))
SCALED_SYSTEM = assemble(ostro_energy(SCALED))


@given(st.floats(-14.0, 3.0).map(lambda e: 10.0**e))
@example(1e-12)
@example(1e-10)  # the rank tolerance itself: rank 0
@example(1.0000000000000002e-10)
@example(1e3)
def test_nondegeneracy_agrees_with_the_multiplier_solver(c):
    # the top-derivative Hessian [[c]] is full rank exactly when the solver
    # can resolve q1_2 from p1_1 - c*q1_2 = 0
    at = {param("mu"): c, q(1, 0): 0.1, q(1, 1): -0.2, p(1, 0): 0.3, p(1, 1): 0.4}
    try:
        resolve_multipliers(SCALED_SYSTEM, at)
        solved = True
    except SingularJacobianError:
        solved = False
    assert nondegeneracy(SCALED, at)["full"] == solved


def test_explicit_hamiltonian():
    assert equal_numeric(
        explicit_hamiltonian(BEAM), parse("p1_0*q1_1 + 1/2*p1_1^2/mu - rho*q1_0")
    )
    assert equal_numeric(
        explicit_hamiltonian(JAVELIN), parse("p1_0*q1_1 - 1/2*p1_1^2 - 1/2*q1_1^2")
    )
    assert equal_numeric(explicit_hamiltonian(FREE), parse("1/2*p1_0^2"))


def test_explicit_hamiltonian_errors():
    with pytest.raises(DegenerateLagrangianError):
        explicit_hamiltonian(PLANAR)
    quartic = LagrangianSpec(1, 2, parse("1/4*q1_2^4"))
    with pytest.raises(NotLinearError):
        explicit_hamiltonian(quartic)


def test_energy_restricted_to_constraint_matches_hamiltonian():
    # eliminate the fiber through the momentum relation and compare
    from jetlag.ostro import top_derivative_solution

    for spec in (BEAM, JAVELIN):
        mf = ostro_energy(spec)
        sol = top_derivative_solution(spec)
        restricted = substitute(mf.energy, {q(1, spec.order): sol[0]})
        assert equal_numeric(simplify(restricted), explicit_hamiltonian(spec), tol=1e-10)

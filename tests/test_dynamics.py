import importlib
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jetlag
from jetlag import dynamics, expr, hamjac
from jetlag.calculus import diff, linear_coefficients
from jetlag.dynamics import (
    ImplicitSystem,
    Trajectory,
    assemble,
    energy_drift,
    integrate_rk4,
    resolve_multipliers,
    trajectory_csv,
)
from jetlag.errors import (
    ChartMismatchError,
    DomainEvalError,
    NotLinearError,
    NumericFailureError,
    SingularJacobianError,
    StepSizeError,
)
from jetlag.expr import eval_expr, lambdify
from jetlag.hamjac import ClosedOneForm, lift_trajectory
from jetlag.ostro import LagrangianSpec, euler_lagrange, ostro_energy, ostro_initial_data
from jetlag.parser import parse
from jetlag.symbols import p, param, q

from conftest import count_calls_everywhere

BEAM = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2 + rho*q1_0"))
JAVELIN = LagrangianSpec(1, 2, parse("1/2*q1_1^2 - 1/2*q1_2^2"))
PLANAR = LagrangianSpec(3, 2, parse("1/2*(q1_2 + q2_2)^2"))
# multiplier block -q1_0: singular where q1_0 = 0
SHRINKING = LagrangianSpec(1, 2, parse("1/2*q1_0*q1_2^2"))
PARAMS = {param("mu"): 1.0, param("rho"): 1.0}


def beam_system():
    return assemble(ostro_energy(BEAM))


def samples(traj):
    """One {Symbol: float} binding per row of a trajectory."""
    return [dict(zip(traj.columns, row)) for row in traj.values.tolist()]


def test_resolve_multipliers_linear():
    sys = beam_system()
    at = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 3.0, param("mu"): 1.0, param("rho"): 1.0}
    assert resolve_multipliers(sys, at) == {q(1, 2): 3.0}
    sysj = assemble(ostro_energy(JAVELIN))
    atj = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 2.0}
    assert resolve_multipliers(sysj, atj) == {q(1, 2): -2.0}


def test_resolve_multipliers_degenerate_rank():
    sys = assemble(ostro_energy(PLANAR))
    at = {s: 0.1 for s in sys.states}
    with pytest.raises(SingularJacobianError) as err:
        resolve_multipliers(sys, at)
    assert err.value.rank == 1
    assert err.value.needed == 3


def test_resolve_multipliers_nonlinear_newton():
    quartic = LagrangianSpec(1, 2, parse("1/4*q1_2^4 + q1_2"))
    sys = assemble(ostro_energy(quartic))
    at = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 9.0}
    lam = resolve_multipliers(sys, at)
    assert abs(lam[q(1, 2)] - 2.0) < 1e-10  # q^3 + 1 = 9


def test_integrate_beam_matches_quartic():
    sys = beam_system()
    init = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 0.0, **PARAMS}
    traj = integrate_rk4(sys, init, 0.0, 1.0, 1e-3)
    ts = np.array(traj.times)
    assert np.max(np.abs(traj.column(q(1, 0)) - (-(ts**4) / 24))) <= 1e-8
    assert energy_drift(traj) <= 1e-8


def test_zero_system_constant_trajectory():
    from jetlag.charts import chart_cotangent
    from jetlag.expr import ZERO
    from jetlag.families import MorseFamily

    sys = assemble(MorseFamily(chart_cotangent(1, 1), (), ZERO))
    init = {q(1, 0): 2.0, p(1, 0): -1.0}
    traj = integrate_rk4(sys, init, 0.0, 0.5, 1e-2)
    assert np.allclose(traj.column(q(1, 0)), 2.0)
    assert np.allclose(traj.column(p(1, 0)), -1.0)
    assert energy_drift(traj) == 0.0


def test_constraints_preserved_along_run():
    sys = beam_system()
    init = {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): 0.4, p(1, 1): 0.9, **PARAMS}
    traj = integrate_rk4(sys, init, 0.0, 1.0, 1e-3)
    worst = 0.0
    for s in samples(traj):
        worst = max(worst, abs(eval_expr(sys.constraints[0], {**s, **PARAMS})))
    assert worst <= 1e-9


def test_constraint_sup_reads_the_solvers_constraints():
    sys = beam_system()
    init = {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): 0.4, p(1, 1): 0.9, **PARAMS}
    traj = integrate_rk4(sys, init, 0.0, 0.2, 1e-2)
    # the loop's sup has the bits of compiling the constraints over the columns afresh
    constraints = lambdify(sys.constraints, list(traj.columns) + list(PARAMS))
    tail = [float(v) for v in PARAMS.values()]
    assert traj.constraint_sup == max(abs(g) for row in traj.values.tolist() for g in constraints(row + tail))
    # a trajectory that no run recorded has none
    assert Trajectory(traj.times, traj.values[:, :1], traj.columns[:1]).constraint_sup is None


def test_projection_property():
    # base components of the flow satisfy the projected equations
    sys = beam_system()
    init = {q(1, 0): 0.1, q(1, 1): 0.2, p(1, 0): -0.3, p(1, 1): 0.5, **PARAMS}
    traj = integrate_rk4(sys, init, 0.0, 0.5, 1e-3)
    ts = traj.times
    h = ts[1] - ts[0]
    q0 = traj.column(q(1, 0))
    q1 = traj.column(q(1, 1))
    for i in range(1, len(ts) - 1):
        fd = (q0[i + 1] - q0[i - 1]) / (2 * h)
        assert abs(fd - q1[i]) < 1e-6


def test_euler_lagrange_residual_of_flow():
    # jet reconstruction: levels above the multiplier by differencing it
    for spec, params in ((BEAM, PARAMS), (JAVELIN, {})):
        sys = assemble(ostro_energy(spec))
        jet = {q(1, 0): 0.2, q(1, 1): -0.1, q(1, 2): 0.4, q(1, 3): -0.3}
        init = {**ostro_initial_data(spec, jet, params), **params}
        traj = integrate_rk4(sys, init, 0.0, 1.0, 1e-3)
        h = traj.times[1] - traj.times[0]
        q2 = traj.column(q(1, 2))
        residual = euler_lagrange(spec)[0]
        worst = 0.0
        bindings = samples(traj)
        for i in range(2, len(traj.times) - 2):
            binding = bindings[i]
            binding.update(params)
            binding[q(1, 3)] = (q2[i + 1] - q2[i - 1]) / (2 * h)
            binding[q(1, 4)] = (q2[i + 1] - 2 * q2[i] + q2[i - 1]) / h**2
            worst = max(worst, abs(eval_expr(residual, binding)))
        assert worst <= 1e-6


def test_momentum_expressions_track_integrated_momenta():
    # momenta from the defining expressions, evaluated on the reconstructed
    # jet, follow the integrated p-columns
    from jetlag.ostro import ostro_momenta

    sys = beam_system()
    init = {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): 0.4, p(1, 1): 0.9, **PARAMS}
    traj = integrate_rk4(sys, init, 0.0, 1.0, 1e-3)
    h = traj.times[1] - traj.times[0]
    mom = ostro_momenta(BEAM)
    q2 = traj.column(q(1, 2))
    p0 = traj.column(p(1, 0))
    p1 = traj.column(p(1, 1))
    worst = 0.0
    bindings = samples(traj)
    for i in range(1, len(traj.times) - 1):
        binding = bindings[i]
        binding.update(PARAMS)
        binding[q(1, 3)] = (q2[i + 1] - q2[i - 1]) / (2 * h)
        worst = max(worst, abs(eval_expr(mom[0][0], binding) - p0[i]))
        worst = max(worst, abs(eval_expr(mom[1][0], binding) - p1[i]))
    assert worst <= 1e-6


def test_nonlinear_multipliers_integrate_with_warm_start():
    quartic = LagrangianSpec(1, 2, parse("1/4*q1_2^4 + q1_2"))
    sys = assemble(ostro_energy(quartic))
    init = {q(1, 0): 0.1, q(1, 1): 0.2, p(1, 0): 0.0, p(1, 1): 9.0}
    traj = integrate_rk4(sys, init, 0.0, 0.2, 1e-2)
    worst = 0.0
    for s in samples(traj):
        worst = max(worst, abs(eval_expr(sys.constraints[0], s)))
    assert worst <= 1e-9
    assert energy_drift(traj) < 1e-6


def test_energy_drift_scales_fourth_order():
    # nonlinear potential so the energy error actually shows the h^4 law
    nonlin = LagrangianSpec(1, 2, parse("1/2*q1_2^2 - 1/4*q1_0^4"))
    sys = assemble(ostro_energy(nonlin))
    jet = {q(1, 0): 0.9, q(1, 1): 0.3, q(1, 2): -0.5, q(1, 3): 0.7}
    init = ostro_initial_data(nonlin, jet)
    d1 = energy_drift(integrate_rk4(sys, init, 0.0, 1.0, 2e-2))
    d2 = energy_drift(integrate_rk4(sys, init, 0.0, 1.0, 1e-2))
    assert 10.0 <= d1 / d2 <= 24.0


def test_step_size_errors():
    sys = beam_system()
    init = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 0.0, **PARAMS}
    with pytest.raises(StepSizeError):
        integrate_rk4(sys, init, 0.0, 1.0, 0.0)
    with pytest.raises(StepSizeError):
        integrate_rk4(sys, init, 1.0, 0.0, 1e-2)


def test_degenerate_point_aborts():
    sys = assemble(ostro_energy(PLANAR))
    init = {s: 0.0 for s in sys.states}
    with pytest.raises(SingularJacobianError):
        integrate_rk4(sys, init, 0.0, 1.0, 1e-2)


def test_overdetermined_inconsistent_constraints_detected():
    # two linear constraints on one multiplier, which no value meets: the
    # system is refused when it is built, before any multiplier is resolved
    with pytest.raises(ChartMismatchError, match="one constraint per multiplier"):
        one_dof_system(("q1_2 - 1", "q1_2 - 2"))


def test_newton_with_more_constraints_than_multipliers_aborts_at_step_zero():
    # the nonlinear (Newton) form of the tall system above: it is refused
    # when it is built, so no run reaches step 0
    with pytest.raises(ChartMismatchError, match="one constraint per multiplier"):
        one_dof_system(("q1_2^3 - p1_0", "q1_2^3 - 2*p1_0"))


def test_non_square_systems_are_refused_at_construction():
    # a Morse family gives one fiber equation per multiplier: a wide or a
    # multiplier-free constrained system is not one (tall ones are refused in
    # the two tests above), and a plain ODE (no constraint, no multiplier) is
    cases = [
        (("q1_2 + q2_2 - p1_0",), (q(1, 2), q(2, 2))),
        (("q1_0 - p1_0",), ()),
    ]
    for constraints, multipliers in cases:
        with pytest.raises(ChartMismatchError, match="one constraint per multiplier"):
            one_dof_system(constraints, multipliers=multipliers)
    assert one_dof_system((), multipliers=()).solver.n_mult == 0


def test_lift_trajectory():
    # constant form on a straight line gives constant momenta
    L1 = LagrangianSpec(1, 1, parse("1/2*q1_1^2"))
    sys = assemble(ostro_energy(L1))
    init = {q(1, 0): 0.0, p(1, 0): 0.7}
    traj = integrate_rk4(sys, init, 0.0, 1.0, 1e-2)
    gamma = ClosedOneForm.from_potential(parse("7/10*q1_0"), [q(1, 0)], [p(1, 0)])
    lifted = lift_trajectory(gamma, traj)
    assert np.allclose(lifted.column(p(1, 0)), 0.7)
    zero = ClosedOneForm.from_potential(parse("0"), [q(1, 0)], [p(1, 0)])
    assert np.allclose(lift_trajectory(zero, traj).column(p(1, 0)), 0.0)
    # the lift overwrites only the momentum columns, in a copy
    square = ClosedOneForm.from_potential(parse("1/2*q1_0^2"), [q(1, 0)], [p(1, 0)])
    lifted = lift_trajectory(square, traj)
    assert np.array_equal(lifted.column(p(1, 0)), traj.column(q(1, 0)))
    assert np.array_equal(lifted.column(q(1, 0)), traj.column(q(1, 0)))
    assert np.allclose(traj.column(p(1, 0)), 0.7)
    # a trajectory without the form's momentum column is refused
    base = Trajectory(traj.times, traj.values[:, [traj.columns.index(q(1, 0))]], (q(1, 0),))
    with pytest.raises(ChartMismatchError):
        lift_trajectory(gamma, base)


def test_trajectory_csv_format():
    sys = beam_system()
    init = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 0.0, **PARAMS}
    traj = integrate_rk4(sys, init, 0.0, 0.01, 1e-3)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,q1_0,q1_1,p1_0,p1_1,q1_2,E"
    assert len(lines) == len(traj.times) + 1
    # 17 significant digits in every cell; no energy leaves the last cell empty
    value = -1.0 / 3.0
    one_row = Trajectory([0.5], [[value]], (q(1, 0),), np.array([value]))
    assert trajectory_csv(one_row) == f"t,q1_0,E\n0.5,{value:.17g},{value:.17g}\n"
    one_row.energies = None
    assert trajectory_csv(one_row) == f"t,q1_0,E\n0.5,{value:.17g},\n"


def test_morse_family_rejects_non_cotangent_chart():
    from jetlag.charts import chart_tkq
    from jetlag.families import MorseFamily

    with pytest.raises(ChartMismatchError):
        MorseFamily(chart_tkq(1, 2), (q(1, 2),), parse("0"))


def one_dof_system(constraints, multipliers=(q(1, 2),), rhs=None, energy="1/2*p1_0^2"):
    """Implicit system on (q1_0, p1_0) with the given constraint and energy texts."""
    return ImplicitSystem(
        states=(q(1, 0), p(1, 0)),
        rhs=rhs or {q(1, 0): parse("p1_0"), p(1, 0): parse("0")},
        constraints=tuple(parse(c) for c in constraints),
        multipliers=tuple(multipliers),
        energy=parse(energy),
    )


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that calls are counted; returns the counter."""
    counter = {"calls": 0}
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return counter


def count_iterations(monkeypatch, owner, name):
    """Replace the tuple owner.name by an equal one that counts the loops
    over it; returns the counter."""
    counter = {"calls": 0}

    class Counted(tuple):
        def __iter__(self):
            counter["calls"] += 1
            return super().__iter__()

    monkeypatch.setattr(owner, name, Counted(getattr(owner, name)))
    return counter


def test_solver_built_once_per_system(monkeypatch):
    sys = beam_system()
    linear = count_calls(monkeypatch, dynamics, "linear_coefficients")
    compiles = count_calls_everywhere(monkeypatch, expr.lambdify)
    generated = count_calls(monkeypatch, dynamics, "define")
    at = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 3.0, **PARAMS}
    for _ in range(100):
        assert resolve_multipliers(sys, at) == {q(1, 2): 3.0}
    assert linear["calls"] == 1
    # one function, which evaluates the constant block and then solves
    assert (len(compiles), generated["calls"]) == (0, 1)
    assert sys.solver is sys.solver


def test_second_run_of_a_system_compiles_nothing(monkeypatch):
    quartic = assemble(ostro_energy(LagrangianSpec(1, 2, parse("1/4*q1_2^4 + q1_2"))))
    cases = [
        # the RK4 loop, which evaluates the constant block, the constraints and the energy
        (beam_system(), {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): 0.4, p(1, 1): 0.9, **PARAMS}, 1),
        # the RK4 loop, which holds the Newton iteration, the constraints and the energy
        (quartic, {q(1, 0): 0.1, q(1, 1): 0.2, p(1, 0): 0.0, p(1, 1): 9.0}, 1),
    ]
    for sys, init, first_run in cases:
        compiles = count_calls_everywhere(monkeypatch, expr.lambdify)
        generated = count_calls(monkeypatch, dynamics, "define")
        integrate_rk4(sys, init, 0.0, 0.05, 1e-2)
        assert len(compiles) + generated["calls"] == first_run
        integrate_rk4(sys, init, 0.0, 0.05, 1e-2)
        assert len(compiles) + generated["calls"] == first_run


def _state_free_blocks():
    """Systems whose blocks are free of the states, with mu in every entry:
    1x1 [[mu]] (the beam) and 2x2 [[0, mu], [mu, 0]]."""
    swap = one_dof_system(
        ("mu*q2_2 - p1_0", "mu*q1_2 - q1_0"),
        multipliers=(q(1, 2), q(2, 2)),
        rhs={q(1, 0): parse("p1_0 + q1_2"), p(1, 0): parse("-q2_2")},
    )
    return {"1x1": beam_system(), "2x2": swap}


def test_constant_block_rank_checked_once_per_run(monkeypatch):
    # a block free of the states is ranked once per integrate_rk4 or
    # resolve_multipliers call.  The 1x1 block is ranked inline and the
    # swap block is certified full rank: neither takes an SVD.
    beam, swap = _state_free_blocks().values()
    counters = [
        count_calls(monkeypatch, dynamics, "_full_rank_2x2"),
        count_calls(monkeypatch, dynamics, "numeric_rank"),
        count_calls(monkeypatch, np.linalg, "matrix_rank"),
    ]

    def counts():
        return [c["calls"] for c in counters]

    init = {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): 0.4, p(1, 1): 0.9, **PARAMS}
    integrate_rk4(beam, init, 0.0, 0.1, 1e-3)
    resolve_multipliers(beam, init)
    assert counts() == [0, 0, 0]  # 1x1: no call at all
    for mu in (2.0, 2.0, 3.0):
        integrate_rk4(swap, {q(1, 0): 0.1, p(1, 0): 0.2, param("mu"): mu}, 0.0, 0.05, 1e-3)
    resolve_multipliers(swap, {q(1, 0): 0.1, p(1, 0): 0.2, param("mu"): 3.0})
    assert counts() == [4, 0, 0]


def test_state_free_block_evaluated_and_ranked_before_the_first_step():
    # the generated loop's prologue evaluates the block (every block line
    # that reads mu's slot) and sets its rank; the loop only tests the rank,
    # and reassigns no name that the prologue sets but the running sup of
    # |g| (nor do the right-hand side's temporaries).  The constraints, and
    # the beam's energy, read mu at every sample.
    systems = {
        **_state_free_blocks(),
        "2*mu": _ORACLE_CASES["1x1 state-free block computed before the loop"][0],
        "3x3": _ORACLE_CASES["3x3 state-free linear"][0],
    }
    for case, sys in systems.items():
        run = sys.solver._run_source()
        loop = run.index("    for step in range(last + 1):")
        mu = f"x{sys.solver.all_symbols.index(param('mu'))}"
        block = {line.strip() for part in sys.solver._linear_body() for line in part}
        reads = [i for i, line in enumerate(run) if line.strip() in block and re.search(rf"\b{mu}\b", line)]
        ranks = [i for i, line in enumerate(run) if re.match(r"\s*rank = ", line)]
        assert reads and max(reads) < loop, case
        assert len(ranks) == 1 and ranks[0] < loop, case
        assert sum("if rank < " in line for line in run[loop:]) == 1, case
        assigned = [{m[1] for m in map(re.compile(r"\s*(\w+) = ").match, part) if m} for part in (run[:loop], run[loop:])]
        assert assigned[0] & assigned[1] == {"sup"}, case


def test_2x2_block_entries_written_before_the_loop_only_when_state_free():
    # the swap block [[0, mu], [mu, 0]] goes into the solve's buffer once,
    # before the loop; a Newton Jacobian, even its constant off-diagonals,
    # at every pass
    for case, before in (("2x2 constant swap", True), ("2x2 Newton", False)):
        sys, init = _ORACLE_CASES[case]
        run = sys.solver._run_source()
        loop = run.index("    for step in range(last + 1):")
        for entry in ("A[0, 0] = ", "A[0, 1] = ", "A[1, 0] = ", "A[1, 1] = "):
            (at,) = [i for i, line in enumerate(run) if line.lstrip().startswith(entry)]
            assert (at < loop) == before, (case, entry)


def test_state_free_block_errors_raise_before_any_row():
    # c^(1/2) has no real value at c = -1: every caller of the solver
    # raises the constraint's numeric failure before it records a row
    sys = one_dof_system(("c^(1/2)*q1_2 - p1_0",), rhs={q(1, 0): parse("p1_0"), p(1, 0): parse("-q1_2")})
    at = {q(1, 0): 0.1, p(1, 0): 0.2}
    times = [0.05 * i for i in range(6)]
    traj = Trajectory(times, [[0.1 + t, 0.2, 0.0] for t in times], sys.states + sys.multipliers)
    gamma = ClosedOneForm.from_potential(parse("1/5*q1_0"), [q(1, 0)], [p(1, 0)])
    for c in (-1.0, 4.0):
        binding = {**at, param("c"): c}
        calls = [
            lambda: resolve_multipliers(sys, binding),
            lambda: integrate_rk4(sys, binding, 0.0, 0.1, 1e-2),
            lambda: hamjac.gamma_relatedness(sys, gamma, traj, params={param("c"): c}),
        ]
        for call in calls:
            if c < 0:
                with pytest.raises(NumericFailureError, match="complex or undefined"):
                    call()
            else:
                call()
    rows, energies = [], []
    with pytest.raises(NumericFailureError, match="complex or undefined"):
        sys.solver.run([0.1, 0.2], [-1.0], dynamics._time_grid(0.0, 0.1, 1e-2), 1e-2, rows, energies)
    assert rows == energies == []
    # a block of rank 0 aborts at the initial data
    sys = one_dof_system(("c*q1_2 - p1_0",))
    with pytest.raises(SingularJacobianError) as err:
        integrate_rk4(sys, {**at, param("c"): 0.0}, 0.5, 1.0, 1e-2)
    assert (err.value.rank, err.value.needed, err.value.time, err.value.step) == (0, 1, 0.5, 0)


def test_state_dependent_block_checked_every_stage(monkeypatch):
    # 2x2 [[q1_0, 1], [1, q1_0]], certified full rank by _full_rank_2x2
    # since q1_0 >= 2: counted (certificates, numeric_rank calls, SVDs)
    sys = one_dof_system(
        ("q1_0*q1_2 + q2_2 - p1_0", "q1_2 + q1_0*q2_2"),
        multipliers=(q(1, 2), q(2, 2)),
        rhs={q(1, 0): parse("1"), p(1, 0): parse("q2_2")},
    )
    counters = [
        count_calls(monkeypatch, dynamics, "_full_rank_2x2"),
        count_calls(monkeypatch, dynamics, "numeric_rank"),
        count_calls(monkeypatch, np.linalg, "matrix_rank"),
    ]
    integrate_rk4(sys, {q(1, 0): 2.0, p(1, 0): 0.5}, 0.0, 0.1, 1e-2)
    # initial data, then each step's last three stages and its end; the
    # first stage's state is the previous end, whose check already passed
    assert [c["calls"] for c in counters] == [1 + 4 * 10, 0, 0]
    monkeypatch.undo()
    # a 1x1 block is ranked inline, with no call to count: the block
    # q1_0 - 1.1631923020833332 is 0 at the third stage state of step 2
    # alone (q1_0' = q1_0 from 1, h = 0.1), and the run aborts there
    sys = one_dof_system(
        ("(q1_0 - 1.1631923020833332)*q1_2 - p1_0",), rhs={q(1, 0): parse("q1_0"), p(1, 0): parse("0")}
    )
    init = {q(1, 0): 1.0, p(1, 0): 0.0}
    found = []
    for run in (integrate_rk4, _list_rk4):
        with pytest.raises(SingularJacobianError) as err:
            run(sys, init, 0.0, 1.0, 0.1)
        found.append((err.value.rank, err.value.needed, err.value.time, err.value.step))
    assert found == [(0, 1, 0.1, 2)] * 2


def test_each_state_solves_its_multipliers_once(monkeypatch):
    # the solve is written into the RK4 loop, which looks names up at call
    # time: a state-dependent 2x2 linear block calls LAPACK's gesv, _gesv,
    # once per solve, and a Newton solve reads its starts, NEWTON_STARTS, once
    linear = one_dof_system(
        ("q1_0*q1_2 + q2_2 - p1_0", "q1_2 + q1_0*q2_2"),
        multipliers=(q(1, 2), q(2, 2)),
        rhs={q(1, 0): parse("1"), p(1, 0): parse("q2_2")},
    )
    quartic = assemble(ostro_energy(LagrangianSpec(1, 2, parse("1/4*q1_2^4 + q1_2"))))
    cases = [
        (linear, {q(1, 0): 2.0, p(1, 0): 0.5}, count_calls, "_gesv"),
        (quartic, {q(1, 0): 0.1, q(1, 1): 0.2, p(1, 0): 0.0, p(1, 1): 9.0}, count_iterations, "NEWTON_STARTS"),
    ]
    for sys, init, count, name in cases:
        solves = count(monkeypatch, dynamics, name)
        integrate_rk4(sys, init, 0.0, 0.1, 1e-2)
        assert solves["calls"] == 1 + 4 * 10  # initial data, then three stages and the end per step
        monkeypatch.undo()


def test_block_lines_compile_once_per_system(monkeypatch):
    # the RK4 loop is the one generated source, and it holds the
    # state-dependent block and its check once, for every stage
    sys = one_dof_system(
        ("q1_0*q1_2 + q2_2 - p1_0", "q1_2 + q1_0*q2_2"),
        multipliers=(q(1, 2), q(2, 2)),
        rhs={q(1, 0): parse("1"), p(1, 0): parse("q2_2")},
    )
    sources, real = [], dynamics.define
    monkeypatch.setattr(dynamics, "define", lambda source, ns: sources.append("\n".join(source)) or real(source, ns))
    integrate_rk4(sys, {q(1, 0): 2.0, p(1, 0): 0.5}, 0.0, 0.1, 1e-2)
    assert len(sources) == 1
    assert sources[0].count("numeric_rank(") == 1


def test_newton_iteration_is_one_generated_function(monkeypatch):
    # constraints and Jacobian share one generated body, and the loop
    # evaluates the constraints at every sample: lambdify compiles neither
    sys = one_dof_system(("q1_2^3 + q1_2 - p1_0",))
    sources, real = [], dynamics.define
    monkeypatch.setattr(dynamics, "define", lambda source, ns: sources.append("\n".join(source)) or real(source, ns))
    compiled = count_calls_everywhere(monkeypatch, expr.lambdify)
    integrate_rk4(sys, {q(1, 0): 0.3, p(1, 0): 0.7}, 0.0, 0.1, 1e-2)
    assert sum("NEWTON_TOL" in source for source in sources) == 1
    assert compiled == []


def test_functions_of_constants_are_literals_in_the_loop():
    # sin(1) is evaluated once, when the loop is written, not at every stage
    sys = assemble(ostro_energy(LagrangianSpec(1, 2, parse("1/2*q1_2^2 + sin(1)*q1_0^2"))))
    source = "\n".join(sys.solver._run_source())
    assert "math.sin" not in source and f"({math.sin(1.0)!r})" in source


def test_system_without_multipliers_matches_a_hand_written_rk4():
    # no constraints: the multipliers are [] and the right-hand side runs alone
    sys = ImplicitSystem(
        states=(q(1, 0), p(1, 0)),
        rhs={q(1, 0): parse("p1_0"), p(1, 0): parse("-w*sin(q1_0)")},
        constraints=(),
        multipliers=(),
        energy=parse("1/2*p1_0^2 - w*cos(q1_0)"),
    )
    h, w = 1e-2, param("w")
    traj = integrate_rk4(sys, {q(1, 0): 0.5, p(1, 0): 0.0, w: 3.0}, 0.0, 0.5, h)

    def at(y):
        return {q(1, 0): y[0], p(1, 0): y[1], w: 3.0}

    def field(y):
        return [eval_expr(sys.rhs[s], at(y)) for s in sys.states]

    rows = [[0.5, 0.0]]
    for _ in range(50):
        y = rows[-1]
        k1 = field(y)
        k2 = field([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = field([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = field([a + h * b for a, b in zip(y, k3)])
        rows.append([a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
    assert traj.values.tobytes() == np.array(rows).tobytes()
    assert traj.energies.tolist() == [eval_expr(sys.energy, at(y)) for y in rows]


def test_degenerate_planar_rank_one_of_three_at_step_zero():
    sys = assemble(ostro_energy(PLANAR))
    init = {s: 0.1 for s in sys.states}
    with pytest.raises(SingularJacobianError) as err:
        integrate_rk4(sys, init, 0.5, 1.0, 1e-2)
    assert (err.value.rank, err.value.needed) == (1, 3)
    assert (err.value.time, err.value.step) == (0.5, 0)


def test_singular_block_mid_run_reports_time_and_step():
    # q1_0 = 1 - 4t with q1_2 = p1_1 = 0; the fourth stage of step 4 lands
    # exactly on q1_0 = 0 (all values are binary fractions)
    sys = assemble(ostro_energy(SHRINKING))
    init = {q(1, 0): 1.0, q(1, 1): -4.0, p(1, 0): 0.0, p(1, 1): 0.0}
    with pytest.raises(SingularJacobianError) as err:
        integrate_rk4(sys, init, 0.0, 1.0, 0.0625)
    assert (err.value.rank, err.value.needed) == (0, 1)
    assert (err.value.time, err.value.step) == (0.1875, 4)
    assert "step 4" in str(err.value)
    # resolve_multipliers has no time grid
    with pytest.raises(SingularJacobianError) as err:
        resolve_multipliers(sys, {**init, q(1, 0): 0.0})
    assert (err.value.time, err.value.step) == (None, None)


def test_ragged_time_grid_rejected():
    sys = beam_system()
    init = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 0.0, **PARAMS}
    with pytest.raises(StepSizeError):
        integrate_rk4(sys, init, 0.0, 1.0, 0.3)
    with pytest.raises(StepSizeError):
        integrate_rk4(sys, init, 0.0, 1.0, float("nan"))
    with pytest.raises(StepSizeError):
        integrate_rk4(sys, init, 0.0, float("inf"), 0.1)
    # (0.3 - 0)/0.1 is 2.9999999999999996: a whole number to rounding
    assert len(integrate_rk4(sys, init, 0.0, 0.3, 0.1).times) == 4
    assert len(integrate_rk4(sys, init, 0.2, 0.2, 0.1).times) == 1


def test_complex_values_rejected_in_multiplier_path():
    # sqrt of a negative number compiles to a complex power
    cases = [
        "q1_0^(1/2)*q1_2 + p1_0",  # complex matrix
        "q1_2 + q1_0^(1/2)",  # complex residue
        "q1_2^3 + q1_0^(1/2)",  # nonlinear: complex Newton residual
    ]
    for text in cases:
        sys = one_dof_system((text,))
        with pytest.raises(NumericFailureError, match="complex"):
            resolve_multipliers(sys, {q(1, 0): -1.0, p(1, 0): 1.0})
        resolve_multipliers(sys, {q(1, 0): 4.0, p(1, 0): 1.0})  # real again
    assert resolve_multipliers(one_dof_system((cases[0],)), {q(1, 0): 4.0, p(1, 0): 1.0}) == {
        q(1, 2): -0.5
    }
    sys = one_dof_system((cases[0],))
    with pytest.raises(NumericFailureError):
        integrate_rk4(sys, {q(1, 0): -1.0, p(1, 0): 1.0}, 0.0, 0.1, 1e-2)


def test_newton_singular_warm_start_falls_through_to_the_next_start():
    # Jacobian 3*q1_2^2 is singular at 0: the warm start and the first fixed
    # start both fail, and 0.5 converges to the cube root
    sys = one_dof_system(("q1_2^3 - p1_0",))
    at = {q(1, 0): 0.3, p(1, 0): 8.0}
    lam = resolve_multipliers(sys, at, warm={q(1, 2): 0.0})
    assert abs(lam[q(1, 2)] - 2.0) < 1e-12
    assert lam == resolve_multipliers(sys, at)  # the same iteration from 0.5
    assert lam == resolve_multipliers(sys, at, warm={q(1, 2): 0.5})


def test_newton_without_a_real_root_raises_the_last_starts_error(monkeypatch):
    # q1_2^2 + 1 has no real root: the start 0 has a singular Jacobian, the
    # others do not converge, and the error of the last start is raised
    sys = one_dof_system(("q1_2^2 + 1",))
    at, warm = {q(1, 0): 0.3, p(1, 0): 8.0}, {q(1, 2): 0.0}
    with pytest.raises(NumericFailureError, match="did not converge") as every:
        resolve_multipliers(sys, at, warm=warm)
    starts = dynamics.NEWTON_STARTS
    monkeypatch.setattr(dynamics, "NEWTON_STARTS", ())
    with pytest.raises(SingularJacobianError) as first:
        resolve_multipliers(sys, at, warm=warm)  # the warm start alone
    assert (first.value.rank, first.value.needed) == (0, 1)
    monkeypatch.setattr(dynamics, "NEWTON_STARTS", starts[-1:])
    with pytest.raises(NumericFailureError) as last:
        resolve_multipliers(sys, at)  # the last start alone
    assert str(every.value) == str(last.value)


def test_newton_complex_at_every_start_is_a_numeric_failure():
    # (-1 - q1_2^2)^(1/2) is complex for every real q1_2; the message names
    # the base at the last start, -2
    sys = one_dof_system(("(-1 - q1_2^2)^(1/2) + q1_2",))
    at = {q(1, 0): 0.3, p(1, 0): 8.0}
    for warm in (None, {q(1, 2): 0.25}):
        with pytest.raises(NumericFailureError, match="complex or undefined") as err:
            resolve_multipliers(sys, at, warm=warm)
        assert "negative base -5.0" in str(err.value)
    with pytest.raises(NumericFailureError, match="complex or undefined"):
        integrate_rk4(sys, at, 0.0, 0.1, 1e-2)


def test_warm_start_leaving_the_domain_mid_run_falls_through_to_a_fixed_start(monkeypatch):
    # ln(q1_2) = q1_0 with q1_0 = 8 - 2t^2: from step 3 on, Newton from the
    # solve before overshoots below 0 (the root falls by more than a factor
    # e), the start 0.0 evaluates ln(0) and 0.5 converges.  _list_rk4 runs
    # the same generated solve, so the bits are pinned here instead.
    sys = one_dof_system(("ln(q1_2) - q1_0",), rhs={q(1, 0): parse("-p1_0"), p(1, 0): parse("4")})
    traj = integrate_rk4(sys, {q(1, 0): 8.0, p(1, 0): 0.0}, 0.0, 2.0, 0.5)
    values = [
        [8.0, 0.0, 2980.957987041729],
        [7.5, 2.0, 1808.0424144560116],
        [6.0, 4.0, 403.42879349273517],
        [3.5, 6.0, 33.11545195869231],
        [0.0, 8.0, 1.0],
    ]
    assert traj.values.tobytes() == np.array(values).tobytes()
    assert traj.energies.tobytes() == np.array([0.0, 2.0, 8.0, 18.0, 32.0]).tobytes()
    # step 3's second stage state (5, 5), from step 2's end: the warm start alone fails
    monkeypatch.setattr(dynamics, "NEWTON_STARTS", ())
    with pytest.raises(NumericFailureError, match="ln of nonpositive"):
        resolve_multipliers(sys, {q(1, 0): 5.0, p(1, 0): 5.0}, warm={q(1, 2): values[2][2]})


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@given(_FLOATS, _FLOATS)
@example(0.0, 1.0)
@example(-0.0, 1.0)
@example(5e-324, 1.0)
@example(1e-10, 1.0)
@example(np.nextafter(1e-10, 1.0), -3.0)
@example(1e-5, 1.7e308)
@example(-1.7e308, 1e-300)
@example(3.0, 1.0)
def test_one_by_one_rule_matches_lapack_bit_for_bit(a, b):
    # the generated multiplier solvers divide a 1x1 block [[a]] themselves:
    # the quotient and the rank verdict must be LAPACK's, for a block free of
    # the states and for one that holds a state
    block, rhs = np.array([[a]]), np.array([b])
    tol = dynamics._RANK_TOL * max(1.0, abs(a))
    rank = dynamics.numeric_rank(block)
    assert rank == np.linalg.matrix_rank(block, tol=tol)
    if rank == 1:
        with np.errstate(over="ignore"):
            expected = np.linalg.solve(block, rhs).tobytes()
    for system, at in _one_by_one_blocks(a, b):
        if rank == 1:
            assert np.array(list(resolve_multipliers(system, at).values())).tobytes() == expected
        else:
            with pytest.raises(SingularJacobianError) as err:
                resolve_multipliers(system, at)
            assert (err.value.rank, err.value.needed) == (0, 1)


_ONE_BY_ONE = [one_dof_system(("mu*q1_2 - nu",)), one_dof_system(("q1_0*q1_2 - nu",))]


def _one_by_one_blocks(a, b):
    """The two one-constraint systems and points at which each block is
    [[a]] and the constraint reads a*q1_2 - b."""
    constant, state_dependent = _ONE_BY_ONE
    return [
        (constant, {q(1, 0): 0.5, p(1, 0): 0.2, param("mu"): a, param("nu"): b}),
        (state_dependent, {q(1, 0): a, p(1, 0): 0.2, param("nu"): b}),
    ]


def _lapack_rank(rows):
    """np.linalg.matrix_rank at the solver's tolerance, or the error it raises."""
    a = np.array(rows, dtype=float)
    tol = dynamics._RANK_TOL * max(1.0, float(np.max(np.abs(a))))
    try:
        return int(np.linalg.matrix_rank(a, tol=tol))
    except np.linalg.LinAlgError as exc:
        return type(exc)


@st.composite
def _two_by_two(draw):
    """A 2x2 block as rows: any floats, a rank-one block perturbed across the
    rank tolerance, a zero row, or non-finite entries."""
    kind = draw(st.sampled_from(["any", "straddle", "zero-row", "non-finite"]))
    if kind == "any":
        scale = st.sampled_from([1.0, 1e-300, 1e-150, 1e-10, 1e10, 1e150, 1e300])
        return [[draw(_FLOATS) * draw(scale) for _ in range(2)] for _ in range(2)]
    if kind == "straddle":
        x, y = draw(st.floats(0.01, 1e4)), draw(st.floats(-1e4, 1e4))
        k = draw(st.floats(-1e3, 1e3))
        rows = [[x, y], [k * x, k * y]]
        # the smaller singular value of the perturbed block is about
        # |x * e| / ||A||, so e below puts it near factor * tolerance
        a = np.array(rows)
        tol = dynamics._RANK_TOL * max(1.0, float(np.max(np.abs(a))))
        factor = draw(st.floats(0.9, 1.1) | st.floats(0.0, 4.0))
        rows[1][1] += factor * tol * float(np.linalg.norm(a)) / x * draw(st.sampled_from([1.0, -1.0]))
        return rows
    if kind == "zero-row":
        row = [draw(_FLOATS), draw(_FLOATS)]
        return [row, [0.0, -0.0]] if draw(st.booleans()) else [[0.0, 0.0], row]
    special = st.sampled_from([float("nan"), float("inf"), -float("inf")])
    return [[draw(special | _FLOATS) for _ in range(2)] for _ in range(2)]


@settings(max_examples=1000, deadline=None)
@given(_two_by_two())
@example([[1.0, 0.0], [0.0, 1e-10]])  # the smaller singular value is the tolerance
@example([[1.0, 0.0], [0.0, float(np.nextafter(1e-10, 1.0))]])
@example([[0.0, 2.0], [2.0, 0.0]])
@example([[1e-300, 0.0], [0.0, 1e-300]])
@example([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])  # the norm overflows
@example([[1.0, 2.0], [3.0, 6.0]])
@example([[0.0, 0.0], [0.0, 0.0]])
@example([[float("nan"), 1.0], [0.0, 1.0]])
@example([[float("inf"), 1.0], [0.0, 1.0]])
def test_two_by_two_rank_matches_lapack(rows):
    # a 2x2 block is ranked without an SVD only when a bound certifies it
    try:
        rank = dynamics.numeric_rank(rows)
    except np.linalg.LinAlgError as exc:
        rank = type(exc)
    assert rank == _lapack_rank(rows)


def _solve_outcome(solve, a, b):
    """The bytes of solve(a, b), or the class of the error it raises."""
    try:
        return np.array(solve(a, b)).tobytes()
    except np.linalg.LinAlgError as exc:
        return type(exc)


def _emitted_solve(a, b, module=dynamics, solves=1):
    """The solution, as a list, that the lines of module._solve_lines give
    for the square block with rows a and right-hand side b, on buffers
    shaped as the solver's: the fill runs once, then the solve lines run
    solves times, as for a block free of the states."""
    m = len(b)
    entries, rhs, out = [f"a{i}" for i in range(m * m)], [f"b{i}" for i in range(m)], [f"x{i}" for i in range(m)]
    fill, solve = module._solve_lines(entries, rhs, out)
    local = dict(zip(entries + rhs, [v for row in a for v in row] + list(b)))
    local.update(A=np.empty((m, m)), B=np.empty(m), X=np.empty(m))
    exec("\n".join(fill), vars(module), local)  # noqa: S102 - our own lines
    for _ in range(solves):
        exec("\n".join(solve), vars(module), local)  # noqa: S102 - our own lines
    return [local[x] for x in out]


@st.composite
def _square_system(draw):
    """A 1x1 to 4x4 block and a right-hand side: entries of any sign, each
    row and column scaled by powers of ten up to 1e+-150, sometimes with one
    row a multiple of another."""
    n = draw(st.integers(1, 4))
    scales = st.sampled_from([1.0, 1e-150, 1e-100, 1e-10, 1e-3, 1e3, 1e10, 1e100, 1e150])
    row_scales = [draw(scales) for _ in range(n)]
    col_scales = [draw(scales) for _ in range(n)]
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    rows = [[draw(entries) * r * c for c in col_scales] for r in row_scales]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i] = [draw(st.sampled_from([1.0, -2.0, 0.5])) * v for v in rows[j]]
    return rows, [draw(entries) * draw(scales) for _ in range(n)]


@settings(max_examples=1000, deadline=None)
@given(_square_system())
@example(([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]))
@example(([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]))  # exactly singular
@example(([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0, 1.0]))
@example(([[1e-300, 0.0], [0.0, 1e-300]], [1e300, 1e300]))  # the solution overflows
@example(([[1e150, 1.0], [1.0, 1e-150]], [1.0, -1.0]))
@example(([[3.0]], [1.0]))
@example(([[0.0]], [1.0]))  # rank 0
def test_solve_gives_numpy_solve_bytes(system):
    # the emitted solve lines must give np.linalg.solve's bits, for a block
    # filled before each solve and for a constant block's buffer, filled
    # once and solved from twice
    rows, b = system
    expected = _solve_outcome(np.linalg.solve, rows, b)
    if len(rows) == 1 and rows[0][0] == 0.0:
        # the generated body ranks a 1x1 block 0 and raises before dividing
        assert expected is np.linalg.LinAlgError and _generated_rank(rows[0], 1) == 0
        return
    with np.errstate(invalid="ignore"):  # as the solver's callers run it
        assert _solve_outcome(_emitted_solve, rows, b) == expected
        assert _solve_outcome(lambda a, b: _emitted_solve(a, b, solves=2), rows, b) == expected


def test_solve_falls_back_to_numpy_without_the_private_gufunc(monkeypatch):
    # a numpy without numpy.linalg._umath_linalg: a fresh import of the
    # module emits np.linalg.solve in place of gesv, with the same bits
    monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
    monkeypatch.delitem(sys.modules, "jetlag.dynamics")
    monkeypatch.setattr(jetlag, "dynamics", dynamics)  # the import rebinds it
    fresh = importlib.import_module("jetlag.dynamics")
    assert fresh is not dynamics
    assert fresh._gesv is None and dynamics._gesv is not None
    assert "_gesv" not in "\n".join(fresh._solve_lines(["a", "b", "c", "d"], ["e", "f"], ["x", "y"])[1])
    rows, b = [[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.0, 1.0, 4.0]], [1.0, 2.0, 3.0]
    assert _emitted_solve(rows, b, fresh) == _emitted_solve(rows, b) == np.linalg.solve(rows, b).tolist()
    cases = ("2x2 state-dependent linear", "3x3 state-dependent linear", "3x3 state-free linear", "2x2 Newton", "3x3 Newton")
    for case in cases:
        system, init = _ORACLE_CASES[case]
        copy = fresh.ImplicitSystem(
            system.states, system.rhs, system.constraints, system.multipliers, system.energy
        )
        ours = fresh.integrate_rk4(copy, init, 0.0, 0.2, 1e-2)
        theirs = integrate_rk4(system, init, 0.0, 0.2, 1e-2)
        assert ours.values.tobytes() == theirs.values.tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        _emitted_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0], fresh)


def test_singular_pivot_raises_linalgerror_without_a_warning(monkeypatch):
    # a full-rank verdict forced on exactly singular blocks, constant and
    # state-dependent, 2x2 and 3x3, sends them to LAPACK: every caller gets
    # LinAlgError, as from np.linalg.solve, and numpy warns nowhere
    monkeypatch.setattr(dynamics, "numeric_rank", lambda rows: len(rows[0]))
    blocks = [
        ("q1_2 + q2_2 - p1_0", "q1_2 + q2_2 - q1_0"),
        ("q1_0*q1_2 + q1_0*q2_2 - p1_0", "q1_2 + q2_2"),
        ("q1_2 + q2_2 + q3_2 - p1_0", "q1_2 + q2_2 + q3_2 - q1_0", "q1_2 - q3_2"),
    ]
    at = {q(1, 0): 0.5, p(1, 0): 0.2}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for constraints in blocks:
            system = one_dof_system(constraints, multipliers=(q(1, 2), q(2, 2), q(3, 2))[: len(constraints)])
            with pytest.raises(np.linalg.LinAlgError):
                resolve_multipliers(system, at)
            with pytest.raises(np.linalg.LinAlgError):
                integrate_rk4(system, at, 0.0, 0.1, 1e-2)
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            _emitted_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_every_square_block_is_solved_by_the_one_emitter():
    # a square block of size 2 or more, linear or Newton, is solved by gesv
    # on the solver's buffers; a 1x1 block by a division
    for case, (system, _) in _ORACLE_CASES.items():
        solver = system.solver
        source = "\n".join(solver._run_source())
        square = solver.n_mult >= 2
        assert ("A, B, X = self._buffers" in source) == square, case
        assert source.count("_gesv(A, B, out=X)") == square, case
        assert "_solve(" not in source, case


def _numpy_rk4(sys, init, h, n_steps):
    """Reference run: integrate_rk4's stage and multiplier arithmetic on numpy
    arrays, as the solver did before it moved to lists of floats, with its
    own functions compiled here from the system's expressions.  Every block
    takes an SVD rank check and np.linalg.solve; nonlinear constraints take
    Newton.  Values and energies of the samples; a rank-deficient block
    raises SingularJacobianError located at the last good time and the
    failing step."""
    states, mults = list(sys.states), list(sys.multipliers)
    rhs = [sys.rhs[s] for s in states]
    params = sorted({s for e in list(sys.constraints) + rhs for s in e.free} - set(states + mults))
    symbols = states + mults + params
    param_vec = [float(init[s]) for s in params]
    m = len(mults)
    rhs_fn, energy_fn = lambdify(rhs, symbols), lambdify([sys.energy], symbols)
    try:
        matrix, residue = linear_coefficients(sys.constraints, mults)
        matrix_fn = lambdify([e for row in matrix for e in row], states + params)
        residue_fn = lambdify(residue, states + params)
        newton = False
    except NotLinearError:
        cons_fn = lambdify(sys.constraints, symbols)
        jac_fn = lambdify([diff(c, u) for c in sys.constraints for u in mults], symbols)
        newton = True

    def checked(a):
        tol = dynamics._RANK_TOL * max(1.0, float(np.max(np.abs(a))))
        rank = np.linalg.matrix_rank(a, tol=tol)
        if rank < m:
            raise SingularJacobianError(rank, m)
        return a

    def multipliers(y, lam):
        if not newton:
            args = y.tolist() + param_vec
            a = checked(np.array(matrix_fn(args)).reshape(-1, m))
            b = -np.array(residue_fn(args))
            return np.linalg.solve(a, b)
        for _ in range(50):
            base = y.tolist() + lam.tolist() + param_vec
            g = np.array(cons_fn(base))
            if np.max(np.abs(g)) <= 1e-12:
                return lam
            lam = lam - np.linalg.solve(checked(np.array(jac_fn(base)).reshape(m, m)), g)
        raise AssertionError("reference Newton iteration did not converge")

    def field(y, warm):
        lam = multipliers(y, warm)
        return np.array(rhs_fn(y.tolist() + lam.tolist() + param_vec)), lam

    y = np.array([float(init[s]) for s in states])
    try:
        lam = multipliers(y, np.zeros(m))
    except SingularJacobianError as exc:
        raise exc.located(0.0, 0) from None
    rows = [y.tolist() + lam.tolist()]
    t = 0.0
    for step in range(1, n_steps + 1):
        try:
            k1, lam1 = field(y, lam)
            k2, lam2 = field(y + 0.5 * h * k1, lam1)
            k3, lam3 = field(y + 0.5 * h * k2, lam2)
            k4, lam4 = field(y + h * k3, lam3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            lam = multipliers(y, lam4)
        except SingularJacobianError as exc:
            raise exc.located(t, step) from None
        t += h
        rows.append(y.tolist() + lam.tolist())
    energies = [energy_fn(row + param_vec)[0] for row in rows]
    return np.array(rows), np.array(energies)


_ORACLE_CASES = {
    "1x1 linear": (beam_system(), {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): 0.4, p(1, 1): 0.9, **PARAMS}),
    "2x2 state-dependent linear": (
        one_dof_system(
            ("q1_0*q1_2 + q2_2 - p1_0", "q1_2 + q1_0*q2_2"),
            multipliers=(q(1, 2), q(2, 2)),
            rhs={q(1, 0): parse("1 + q1_2/10"), p(1, 0): parse("q2_2 - q1_0")},
        ),
        {q(1, 0): 2.0, p(1, 0): 0.5},
    ),
    "2x2 constant swap": (
        one_dof_system(
            ("mu*q2_2 - p1_0", "mu*q1_2 - q1_0"),
            multipliers=(q(1, 2), q(2, 2)),
            rhs={q(1, 0): parse("p1_0 + q1_2"), p(1, 0): parse("-q2_2")},
        ),
        {q(1, 0): 0.1, p(1, 0): 0.2, param("mu"): 3.0},
    ),
    "3x3 state-dependent linear": (
        ImplicitSystem(
            states=(q(1, 0), q(2, 0), p(1, 0), p(2, 0)),
            rhs={
                q(1, 0): parse("p1_0 + q3_2"),
                q(2, 0): parse("p2_0 - q1_2/2"),
                p(1, 0): parse("-q1_0*q2_2"),
                p(2, 0): parse("sin(q2_0)*q3_2"),
            },
            constraints=(
                parse("(2 + q1_0^2)*q1_2 + q2_2 - p1_0"),
                parse("q1_2 + (3 + cos(q2_0))*q2_2 + q1_0*q3_2 - p2_0"),
                parse("q2_2 + 4*q3_2 - q1_0*q2_0"),
            ),
            multipliers=(q(1, 2), q(2, 2), q(3, 2)),
            energy=parse("1/2*p1_0^2 + 1/2*p2_0^2"),
        ),
        {q(1, 0): 0.3, q(2, 0): -0.4, p(1, 0): 0.7, p(2, 0): 0.1},
    ),
    # a state-free 3x3 block whose entry 2*mu is a computed step
    "3x3 state-free linear": (
        ImplicitSystem(
            states=(q(1, 0), q(2, 0), p(1, 0), p(2, 0)),
            rhs={
                q(1, 0): parse("p1_0 + q3_2"),
                q(2, 0): parse("p2_0 - q1_2"),
                p(1, 0): parse("q2_2 - q1_0"),
                p(2, 0): parse("-q2_0*q3_2"),
            },
            constraints=(
                parse("mu*q1_2 + q2_2 - p1_0"),
                parse("q1_2 + 2*mu*q2_2 + q3_2 - p2_0"),
                parse("q2_2 + 3*q3_2 - q1_0*q2_0"),
            ),
            multipliers=(q(1, 2), q(2, 2), q(3, 2)),
            energy=parse("1/2*p1_0^2 + 1/2*p2_0^2"),
        ),
        {q(1, 0): 0.3, q(2, 0): -0.4, p(1, 0): 0.7, p(2, 0): 0.1, param("mu"): 1.5},
    ),
    "1x1 Newton": (
        one_dof_system(("q1_2^3 + q1_2 - p1_0",), rhs={q(1, 0): parse("p1_0 + q1_2"), p(1, 0): parse("-q1_0")}),
        {q(1, 0): 0.3, p(1, 0): 0.7},
    ),
    "2x2 Newton": (
        one_dof_system(
            ("q1_2^3 + q1_2 + q2_2 - p1_0", "q2_2^3 + 3*q2_2 + q1_2 - q1_0"),
            multipliers=(q(1, 2), q(2, 2)),
            rhs={q(1, 0): parse("p1_0 + q2_2"), p(1, 0): parse("-q1_0*q1_2")},
        ),
        {q(1, 0): 0.3, p(1, 0): 0.7},
    ),
    "3x3 Newton": (
        one_dof_system(
            (
                "q1_2^3 + q1_2 + q2_2 - p1_0",
                "q2_2^3 + 3*q2_2 + q1_2 + q3_2 - q1_0",
                "q3_2^3 + 2*q3_2 + q2_2 - p1_0*q1_0",
            ),
            multipliers=(q(1, 2), q(2, 2), q(3, 2)),
            rhs={q(1, 0): parse("p1_0 + q3_2"), p(1, 0): parse("-q1_0*q1_2")},
        ),
        {q(1, 0): 0.3, p(1, 0): 0.7},
    ),
    # a state-free block whose entry 2*mu is a computed step at the slot
    # where the right-hand side's tape computes 3*p1_0
    "1x1 state-free block computed before the loop": (
        one_dof_system(("2*mu*q1_2 - p1_0",), rhs={q(1, 0): parse("3*p1_0"), p(1, 0): parse("-q1_2")}),
        {q(1, 0): 0.3, p(1, 0): 0.7, param("mu"): 1.5},
    ),
    # a state-free block whose residue reads the block's step exp(mu), at
    # the slot where the right-hand side's tape computes exp(p1_0)
    "1x1 state-free block sharing a step with the residue": (
        one_dof_system(
            ("exp(mu)*q1_2 - exp(mu)*p1_0 + q1_0",),
            rhs={q(1, 0): parse("exp(p1_0) + q1_2"), p(1, 0): parse("-2*q1_0*q1_2")},
        ),
        {q(1, 0): 0.3, p(1, 0): 0.7, param("mu"): 0.5},
    ),
    # the Jacobian 1 + exp(q1_2) reads the constraint's exp step
    "1x1 Newton sharing a function step": (
        one_dof_system(("q1_2 + exp(q1_2) - p1_0",), rhs={q(1, 0): parse("p1_0*q1_2"), p(1, 0): parse("-q1_0")}),
        {q(1, 0): 0.3, p(1, 0): 2.5},
    ),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_float_stages_give_the_numpy_stages_bits(case):
    sys, init = _ORACLE_CASES[case]
    traj = integrate_rk4(sys, init, 0.0, 0.5, 1e-2)
    values, energies = _numpy_rk4(sys, init, 1e-2, 50)
    assert traj.values.tobytes() == values.tobytes()
    assert traj.energies.tobytes() == energies.tobytes()


def test_singular_block_mid_run_aborts_where_the_numpy_stages_abort():
    # block [[q1_0, 1], [1, q1_0]] with q1_0 = 2 - t: singular at t = 1,
    # which the fourth stage of step 16 reaches
    sys = one_dof_system(
        ("q1_0*q1_2 + q2_2 - p1_0", "q1_2 + q1_0*q2_2"),
        multipliers=(q(1, 2), q(2, 2)),
        rhs={q(1, 0): parse("-1"), p(1, 0): parse("q2_2")},
    )
    init = {q(1, 0): 2.0, p(1, 0): 0.5}
    with pytest.raises(SingularJacobianError) as ours:
        integrate_rk4(sys, init, 0.0, 2.0, 0.0625)
    with pytest.raises(SingularJacobianError) as reference:
        _numpy_rk4(sys, init, 0.0625, 32)
    found = [(e.rank, e.needed, e.time, e.step) for e in (ours.value, reference.value)]
    assert found == [(1, 2, 0.9375, 16)] * 2


def _list_rk4(sys, init, t0, t1, h):
    """Reference run: integrate_rk4's step loop as it was before the loop
    was generated, over lists of floats with the solver's multipliers, and
    the right-hand side and the energy compiled here.  Values and energies
    of the samples, with integrate_rk4's errors.  The multipliers function
    holds the loop's own solve, so this checks the loop around it."""
    times = dynamics._time_grid(t0, t1, h)
    solver = sys.solver
    param_vec = solver.param_vector(init)
    multipliers = solver.multipliers
    rhs_fn = lambdify([sys.rhs[s] for s in sys.states], solver.all_symbols)
    energy_fn = lambdify([sys.energy], solver.all_symbols)
    rows, energies = [], []

    def record(yv, lam):
        rows.append(yv + lam)
        try:
            energies.append(energy_fn(rows[-1] + param_vec)[0])
        except (DomainEvalError, NumericFailureError):
            energies.append(float("nan"))

    y = [float(init[s]) for s in sys.states]
    hh, h6 = 0.5 * h, h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            lam = multipliers(y, param_vec, None)
        except SingularJacobianError as exc:
            raise exc.located(t0, 0) from None
        record(y, lam)
        for step in range(1, len(times)):
            try:
                k1 = rhs_fn(y + lam + param_vec)
                s = [a + hh * b for a, b in zip(y, k1)]
                lam = multipliers(s, param_vec, lam)
                k2 = rhs_fn(s + lam + param_vec)
                s = [a + hh * b for a, b in zip(y, k2)]
                lam = multipliers(s, param_vec, lam)
                k3 = rhs_fn(s + lam + param_vec)
                s = [a + h * b for a, b in zip(y, k3)]
                lam = multipliers(s, param_vec, lam)
                k4 = rhs_fn(s + lam + param_vec)
                y = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
                if not all(map(math.isfinite, y)):
                    raise NumericFailureError("state became non-finite during integration")
                lam = multipliers(y, param_vec, lam)
            except SingularJacobianError as exc:
                raise exc.located(times[step - 1], step) from None
            record(y, lam)
    return np.array(rows), np.array(energies)


_LOOP_CASES = {
    "1x1 constant block": _ORACLE_CASES["1x1 linear"],
    "1x1 computed state-free block": _ORACLE_CASES["1x1 state-free block computed before the loop"],
    "1x1 state-free block sharing a step": _ORACLE_CASES["1x1 state-free block sharing a step with the residue"],
    "2x2 state-dependent block": _ORACLE_CASES["2x2 state-dependent linear"],
    "1x1 Newton": _ORACLE_CASES["1x1 Newton"],
    "2x2 Newton": _ORACLE_CASES["2x2 Newton"],
    "no multipliers": (
        ImplicitSystem(
            states=(q(1, 0), p(1, 0)),
            rhs={q(1, 0): parse("p1_0"), p(1, 0): parse("-w*sin(q1_0)")},
            constraints=(),
            multipliers=(),
            energy=parse("1/2*p1_0^2 - w*cos(q1_0)"),
        ),
        {q(1, 0): 0.5, p(1, 0): 0.0, param("w"): 3.0},
    ),
    # ln(q1_0) with q1_0 = 0.1 - t: nan from t = 0.1 on.  In this and the
    # next two cases the failing step is not the energy's last one.
    "energy leaving its domain": (
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("-1"), p(1, 0): parse("0")}, energy="2*ln(q1_0)"),
        {q(1, 0): 0.1, p(1, 0): 0.0},
    ),
    # exp(2000*q1_0) with q1_0 = t overflows (OverflowError) past t = 0.355
    "energy overflowing": (
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("1"), p(1, 0): parse("0")}, energy="exp(2000*q1_0)/2"),
        {q(1, 0): 0.0, p(1, 0): 0.0},
    ),
    # sin(1e308*q1_0^2) with q1_0 = 4*t takes the sine of an infinity
    # (ValueError) past t = 0.34
    "energy taking the sine of an infinity": (
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("4"), p(1, 0): parse("0")}, energy="sin(1e308*q1_0^2)/2"),
        {q(1, 0): 0.0, p(1, 0): 0.0},
    ),
    # ln(-1) is free of symbols but has no value, so the tape keeps its
    # steps: nan at every sample
    "energy with no value anywhere": (
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("1"), p(1, 0): parse("0")}, energy="1/2*p1_0^2 + ln(-1)"),
        {q(1, 0): 0.3, p(1, 0): 0.7},
    ),
    # the energy's output is the slot of a state, which the constraint reads too
    "energy a bare state symbol": (
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("p1_0"), p(1, 0): parse("-q1_0")}, energy="p1_0"),
        {q(1, 0): 0.3, p(1, 0): 0.7},
    ),
    # the energy's output is a literal
    "constant energy": (
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("p1_0"), p(1, 0): parse("-q1_0")}, energy="7/2"),
        {q(1, 0): 0.3, p(1, 0): 0.7},
    ),
    # the energy reads the constraint's step exp(q1_0), and ends with steps of its own
    "energy sharing a step with a constraint": (
        one_dof_system(
            ("exp(q1_0)*q1_2 - p1_0",),
            rhs={q(1, 0): parse("q1_2"), p(1, 0): parse("-q1_0")},
            energy="exp(q1_0) + 1/2*p1_0^2",
        ),
        {q(1, 0): 0.3, p(1, 0): 0.7},
    ),
}


@pytest.mark.parametrize("case", list(_LOOP_CASES))
def test_generated_loop_gives_the_list_loops_bits(case):
    sys, init = _LOOP_CASES[case]
    traj = integrate_rk4(sys, init, 0.0, 0.5, 1e-2)
    values, energies = _list_rk4(sys, init, 0.0, 0.5, 1e-2)
    assert traj.values.tobytes() == values.tobytes()
    assert traj.energies.tobytes() == energies.tobytes()
    # the loop's sup of |g| over the samples, 0.0 without constraints
    param_vec = sys.solver.param_vector(init)
    constraints = lambdify(sys.constraints, sys.solver.all_symbols)
    g = [v for row in values.tolist() for v in constraints(row + param_vec)]
    assert traj.constraint_sup == max(map(abs, g), default=0.0)


_FAILING_CASES = {
    # the block -q1_0 reaches 0 at the fourth stage of step 4
    "singular mid-run": (
        SingularJacobianError,
        assemble(ostro_energy(SHRINKING)),
        {q(1, 0): 1.0, q(1, 1): -4.0, p(1, 0): 0.0, p(1, 1): 0.0},
        (0.0, 1.0, 0.0625),
    ),
    # q1_0' = q1_0 from 1 ends step 1 at 1.1051708333333332, where the
    # block q1_0 - 1.1051708333333332 is 0; no stage state is there
    "singular at a step's end": (
        SingularJacobianError,
        one_dof_system(
            ("(q1_0 - 1.1051708333333332)*q1_2 - p1_0",), rhs={q(1, 0): parse("q1_0"), p(1, 0): parse("0")}
        ),
        {q(1, 0): 1.0, p(1, 0): 0.0},
        (0.0, 1.0, 0.1),
    ),
    # p1_0' = 1e308: every stage state is finite, and the slope sum
    # 1e308 + 2.0*1e308 makes the first step's end inf
    "state overflows": (
        NumericFailureError,
        one_dof_system(("q1_2 - p1_0*1e-308",), rhs={q(1, 0): parse("q1_2"), p(1, 0): parse("1e308")}),
        {q(1, 0): 0.0, p(1, 0): 0.0},
        (0.0, 2.0, 1.0),
    ),
    # ln(q1_0) with q1_0 = 0.1 - t: its argument reaches 0 in step 2
    "domain error in the right-hand side": (
        DomainEvalError,
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("-1"), p(1, 0): parse("ln(q1_0)")}),
        {q(1, 0): 0.1, p(1, 0): 0.0},
        (0.0, 1.0, 0.05),
    ),
    # q1_0' = exp(q1_0) from 0 blows up at t = 1: a stage state past 709.8
    # makes exp overflow (OverflowError, mapped as eval_expr maps it)
    "overflow in the right-hand side": (
        NumericFailureError,
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("exp(q1_0)"), p(1, 0): parse("0")}),
        {q(1, 0): 0.0, p(1, 0): 0.0},
        (0.0, 2.0, 0.125),
    ),
    # q1_0 = t: the product q1_0*1e308 overflows to inf once t > 1.8, and sin
    # of it raises ValueError
    "ValueError in the right-hand side": (
        DomainEvalError,
        one_dof_system(("q1_2 - p1_0",), rhs={q(1, 0): parse("1"), p(1, 0): parse("sin(q1_0*1e308)")}),
        {q(1, 0): 0.0, p(1, 0): 0.0},
        (0.0, 4.0, 0.5),
    ),
    # as "singular at a step's end", for Newton: the Jacobian
    # (q1_0 - 1.1051708333333332)*exp(q1_2) is 0 for every start at the end
    # of step 1, solved at stage 0 of the loop's next step
    "Newton singular at a step's end": (
        SingularJacobianError,
        one_dof_system(
            ("(q1_0 - 1.1051708333333332)*exp(q1_2) - p1_0",), rhs={q(1, 0): parse("q1_0"), p(1, 0): parse("0")}
        ),
        {q(1, 0): 1.0, p(1, 0): -1.0},
        (0.0, 1.0, 0.1),
    ),
}


@pytest.mark.parametrize("case", list(_FAILING_CASES))
def test_generated_loop_fails_where_the_list_loop_fails(case):
    error, sys, init, (t0, t1, h) = _FAILING_CASES[case]
    found = []
    for run in (integrate_rk4, _list_rk4):
        with pytest.raises(error) as err:
            run(sys, init, t0, t1, h)
        e = err.value
        found.append((type(e), str(e), getattr(e, "time", None), getattr(e, "step", None)))
    assert found[0] == found[1]


def test_parameter_in_the_right_hand_side_checked_once_before_the_loop(monkeypatch):
    # the beam's p1_0' = -rho returns the parameter slot x6 as it is: the
    # loop checks it once, before the first step, with eval_expr's message
    sources, real = [], dynamics.define
    monkeypatch.setattr(dynamics, "define", lambda source, ns: sources.append(source) or real(source, ns))
    init = {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): 0.4, p(1, 1): 0.9, **PARAMS}
    for rho in (float("inf"), float("nan")):
        with pytest.raises(NumericFailureError, match=f"non-finite value {rho}"):
            integrate_rk4(beam_system(), {**init, param("rho"): rho}, 0.0, 0.1, 1e-2)
    run = next(source for source in sources if source[0].startswith("def run("))
    checks = [i for i, line in enumerate(run) if "_nonfinite(x6)" in line]
    assert len(checks) == 1 and checks[0] < run.index("    for step in range(last + 1):")
    # a finite rho runs as before
    traj = integrate_rk4(beam_system(), init, 0.0, 0.1, 1e-2)
    assert traj.values.tobytes() == _list_rk4(beam_system(), init, 0.0, 0.1, 1e-2)[0].tobytes()


_RANK_VALUES = (
    st.sampled_from([0.0, -0.0, 1e-10, -1e-10, float("inf"), -float("inf"), float("nan"), 1e308, -1.7e308])
    | st.floats(5e-324, 1e-300)
    | st.floats(1e-11, 1e-9)
    | st.floats(1e307, 1.7976931348623157e308)
    | st.floats()
)


def _rank_outcome(rank, *args):
    """rank(*args), or the class of the error it raises."""
    try:
        return rank(*args)
    except np.linalg.LinAlgError as exc:
        return type(exc)


def _generated_rank(entries, m):
    """The rank that the generated rank lines give for the block with
    row-major entries and m columns."""
    names = [f"v{i}" for i in range(len(entries))]
    local = dict(zip(names, entries))
    exec("\n".join(dynamics._rank_lines(names, m)), vars(dynamics), local)  # noqa: S102 - our own lines
    return local["rank"]


@settings(max_examples=500, deadline=None)
@given(st.lists(_RANK_VALUES, min_size=1, max_size=1) | st.lists(_RANK_VALUES, min_size=4, max_size=4))
@example([1e-10])
@example([float(np.nextafter(1e-10, 1.0))])
@example([5e-324])
@example([float("nan")])
@example([1.0, 0.0, 0.0, 1e-10])
@example([1.7e308, 1.7e308, 1.7e308, -1.7e308])
@example([float("inf"), 1.0, 0.0, 1.0])
def test_generated_rank_lines_decide_as_numeric_rank(entries):
    # the RK4 loop and the multipliers function rank a 1x1 or 2x2 block with
    # inline lines; their verdict is numeric_rank's for any entries
    m = 1 if len(entries) == 1 else 2
    rows = [entries[i : i + m] for i in range(0, len(entries), m)]
    assert _rank_outcome(_generated_rank, entries, m) == _rank_outcome(dynamics.numeric_rank, rows)


_CSV_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e308, float("inf"), -float("inf"), float("nan")])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6, unique=True),
    st.integers(0, 3),
    st.booleans(),
    st.data(),
)
def test_trajectory_csv_matches_per_value_format(times, n_cols, with_energies, data):
    times = sorted(times)
    values = [[data.draw(_CSV_FLOATS) for _ in range(n_cols)] for _ in times]
    energies = [data.draw(_CSV_FLOATS) for _ in times] if with_energies else None
    columns = tuple(q(i + 1, 0) for i in range(n_cols))
    traj = Trajectory(times, values, columns, None if energies is None else np.array(energies))
    fmt = "{:.17g}".format
    lines = [",".join(["t", *map(str, columns), "E"])]
    for i, t in enumerate(times):
        lines.append(",".join([fmt(t), *map(fmt, values[i]), fmt(energies[i]) if with_energies else ""]))
    assert trajectory_csv(traj) == "\n".join(lines) + "\n"

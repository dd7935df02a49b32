import numpy as np
import pytest

from jetlag.calculus import diff, is_zero
from jetlag.charts import chart_cotangent
from jetlag import expr, hamjac
from jetlag.dynamics import assemble, integrate_rk4
from jetlag.errors import ArityMismatchError, ChartMismatchError, ClosureError, DomainEvalError
from jetlag.expr import ZERO, eval_expr, simplify
from jetlag.families import MorseFamily
from jetlag.hamjac import (
    ClosedOneForm,
    SectionSigma,
    affine_hj_solve,
    affine_integrability_check,
    affine_symmetry_check,
    gamma_relatedness,
    hj_residual,
    hj_residual_nondeg,
    local_vf_residual,
    morse_rank_check,
)
from jetlag.ostro import LagrangianSpec, explicit_hamiltonian, ostro_energy
from jetlag.parser import parse
from jetlag.sampling import equal_numeric, sample_bindings
from jetlag.symbols import acc, p, pa, param, pq, q

from conftest import count_calls_everywhere, rational_polynomial

BEAM = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2 + rho*q1_0"))
JAVELIN = LagrangianSpec(1, 2, parse("1/2*q1_1^2 - 1/2*q1_2^2"))
PLANAR = LagrangianSpec(3, 2, parse("1/2*(q1_2 + q2_2)^2"))
PLANAR_N1 = LagrangianSpec(1, 2, parse("1/2*q1_2^2 + q1_0*q1_1"))

JAVELIN_GUARD = (parse("q1_1 - 1/2*q1_1^2"), 0.1)
JAVELIN_BOX = {q(1, 1): (0.15, 1.85)}


def javelin_gamma(scale="1"):
    return ClosedOneForm.from_components(
        [parse(scale), parse("sqrt(2)*sqrt(q1_1 - 1/2*q1_1^2)")],
        [q(1, 0), q(1, 1)],
        [p(1, 0), p(1, 1)],
        boxes=JAVELIN_BOX,
        guards=[JAVELIN_GUARD],
    )


def test_closed_form_requires_exactly_one_source():
    with pytest.raises(TypeError):
        ClosedOneForm((q(1, 0),), (p(1, 0),))
    with pytest.raises(ArityMismatchError):
        ClosedOneForm.from_potential(parse("q1_0"), [q(1, 0)], [p(1, 0), p(1, 1)])


def test_closure_check_rejects_open_form():
    with pytest.raises(ClosureError):
        ClosedOneForm.from_components(
            [parse("q1_1"), parse("0")], [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)]
        )


def test_potential_vs_components_reports_agree(rng):
    W = parse("q1_0^2*q1_1 + 3*q1_1")
    coords = [q(1, 0), q(1, 1)]
    slots = [p(1, 0), p(1, 1)]
    from_potential = ClosedOneForm.from_potential(W, coords, slots)
    comps = [diff(W, x) for x in coords]
    from_components = ClosedOneForm.from_components(comps, coords, slots)
    mf = ostro_energy(JAVELIN)
    r1 = hj_residual(mf, from_potential, tol=1e-8)
    r2 = hj_residual(mf, from_components, tol=1e-8)
    assert r1.sup_norms == r2.sup_norms
    assert r1.passed == r2.passed


def test_morse_rank_beam(rng):
    mf = ostro_energy(BEAM)
    symbols = sorted(set(mf.base.roster) | set(mf.all_fibers) | {param("mu"), param("rho")})
    points = sample_bindings(symbols, 20, rng)
    rep = morse_rank_check(mf, points)
    assert rep.passed


def test_morse_rank_zero_energy_fails(rng):
    fam = MorseFamily(chart_cotangent(1, 1), (q(1, 1),), ZERO)
    points = sample_bindings([q(1, 0), p(1, 0), q(1, 1)], 5, rng)
    rep = morse_rank_check(fam, points)
    assert not rep.passed
    assert rep.details["ranks"] == [0] * 5
    assert rep.sup_norms == {"rank deficit": 1.0} and rep.overall_sup == 1.0
    # two fibers, neither in the energy: the deficit is 2 at every point
    fam = MorseFamily(chart_cotangent(1, 1), (q(1, 1), q(1, 2)), parse("p1_0*q1_0"))
    rep = morse_rank_check(fam, [{q(1, 0): 1.0}] * 3)
    assert rep.details["ranks"] == [0, 0, 0] and rep.details["needed"] == 2
    assert rep.sup_norms == {"rank deficit": 2.0} and rep.tol == 0.0
    assert rep.to_dict()["overall_sup"] == 2.0 and rep.to_dict()["passed"] is False


def test_morse_rank_is_taken_per_point():
    # dE/dl = q1_0*q1_1: the Jacobian row [q1_1, 0, q1_0] vanishes only at the origin
    fam = MorseFamily(chart_cotangent(1, 1), (q(1, 1),), parse("1/2*q1_0*q1_1^2"))
    points = [{q(1, 0): 0.0, q(1, 1): 0.0}, {q(1, 0): 1.0, q(1, 1): 0.0}, {q(1, 0): 0.0, q(1, 1): 2.0}]
    rep = morse_rank_check(fam, points)
    assert rep.details["ranks"] == [0, 1, 1]
    assert not rep.passed
    assert rep.samples == 3


def test_morse_rank_without_points_or_fibers_passes():
    rep = morse_rank_check(ostro_energy(BEAM), [])
    assert rep.passed and rep.details["ranks"] == [] and rep.samples == 0
    fam = MorseFamily(chart_cotangent(1, 1), (), parse("p1_0*q1_0"))
    rep = morse_rank_check(fam, [{q(1, 0): 1.0}] * 2)
    assert rep.passed and rep.details["ranks"] == [0, 0] and rep.details["needed"] == 0


def test_sampled_equation_outside_its_domain_raises_the_evaluators_error():
    # the symmetry residual is ln(q1_0), undefined on about half the drawn rows
    with pytest.raises(DomainEvalError):
        affine_symmetry_check([parse("ln(q1_0)*q2_1"), parse("0")], rng=1)


def test_morse_rank_free_higher_order(rng):
    zero_L = LagrangianSpec(2, 2, parse("0"))
    mf = ostro_energy(zero_L)
    symbols = sorted(set(mf.base.roster) | set(mf.all_fibers))
    rep = morse_rank_check(mf, sample_bindings(symbols, 10, rng))
    assert rep.passed


def test_hj_residual_javelin_printed_solution():
    mf = ostro_energy(JAVELIN)
    rep = hj_residual(
        mf,
        javelin_gamma(),
        tol=1e-9,
        boxes=JAVELIN_BOX,
        guards=[JAVELIN_GUARD],
    )
    assert rep.passed
    assert rep.overall_sup <= 1e-9


def test_hj_residual_chart_mismatch():
    mf = ostro_energy(JAVELIN)
    wrong = ClosedOneForm.from_potential(parse("q1_0"), [q(1, 0)], [p(1, 0)])
    with pytest.raises(ChartMismatchError):
        hj_residual(mf, wrong)


def test_hj_residual_degenerate_model_velocity_potential():
    mf = ostro_energy(PLANAR)
    coords = [q(a, l) for l in (0, 1) for a in (1, 2, 3)]
    slots = [p(a, l) for l in (0, 1) for a in (1, 2, 3)]
    gamma = ClosedOneForm.from_potential(parse("a*q1_1 + b*q2_1"), coords, slots)
    # coordinate equations vanish identically, for symbolic a and b
    rep = hj_residual(mf, gamma, tol=1e-12, boxes={param("a"): (1.0, 1.0), param("b"): (1.0, 1.0)})
    assert rep.passed
    for name, e in rep.equations:
        if name.startswith("d/d"):
            assert is_zero(e)


def test_hj_residual_zero_form_zero_lagrangian():
    zero_L = LagrangianSpec(1, 2, parse("0"))
    mf = ostro_energy(zero_L)
    gamma = ClosedOneForm.from_potential(parse("0"), [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)])
    rep = hj_residual(mf, gamma, tol=1e-12)
    assert rep.passed


def test_hj_residual_beam_zero_potential_fails_on_momentum_relation():
    mf = ostro_energy(BEAM)
    gamma = ClosedOneForm.from_potential(parse("0"), [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)])
    rep = hj_residual(mf, gamma, tol=1e-8, boxes={param("mu"): (1.0, 1.0), param("rho"): (1.0, 1.0)})
    assert not rep.passed


def test_hj_nondeg_beam_acceleration_chart():
    # coefficient-corrected cubic generating function, arbitrary mu
    from jetlag.schmidt import schmidt_hamiltonian, solve_F_quadratic

    quad = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2"))
    H = schmidt_hamiltonian(quad, solve_F_quadratic(quad))
    W = parse("c2*q1_0 + mu^2*a1_0^3/(6*c2) - mu*(c/c2)*a1_0")
    gamma = ClosedOneForm.from_potential(W, [q(1, 0), acc(1, 0)], [pq(1), pa(1)])
    rep = hj_residual_nondeg(H, gamma, tol=1e-10, boxes={param("c2"): (0.7, 2.0)})
    assert rep.passed
    for _, e in rep.equations:
        assert is_zero(e)


def test_hj_nondeg_constant_potential_reports_plain_partials():
    H = parse("1/2*p1_0^2 + q1_0^2")
    gamma = ClosedOneForm.from_potential(parse("5"), [q(1, 0)], [p(1, 0)])
    rep = hj_residual_nondeg(H, gamma, tol=1e-12)
    # residual is dH/dq at p = 0
    assert equal_numeric(rep.equations[0][1], parse("2*q1_0"))
    assert not rep.passed


def test_gamma_relatedness_classical_straight_line():
    # H = p^2/2, W = c q: straight lines pass exactly
    L1 = LagrangianSpec(1, 1, parse("1/2*q1_1^2"))
    sys = assemble(ostro_energy(L1))
    gamma = ClosedOneForm.from_potential(parse("c*q1_0"), [q(1, 0)], [p(1, 0)])
    c = 0.7
    init = {q(1, 0): 0.0, p(1, 0): c, param("c"): c}
    traj = integrate_rk4(sys, init, 0.0, 1.0, 1e-2)
    rep = gamma_relatedness(sys, gamma, traj, tol=1e-12, params={param("c"): c})
    assert rep.passed


def test_gamma_relatedness_javelin_and_negative_control():
    sys = assemble(ostro_energy(JAVELIN))
    gamma = javelin_gamma()
    start = {q(1, 0): 0.3, q(1, 1): 1.0}
    init = dict(start)
    for slot, comp in zip(gamma.momentum_slots, gamma.components):
        init[slot] = eval_expr(comp, start)
    traj = integrate_rk4(sys, init, 0.0, 0.3, 1e-3)
    assert gamma_relatedness(sys, gamma, traj, tol=1e-5).passed
    bad = javelin_gamma(scale="3/2")
    init_b = dict(start)
    for slot, comp in zip(bad.momentum_slots, bad.components):
        init_b[slot] = eval_expr(comp, start)
    traj_b = integrate_rk4(sys, init_b, 0.0, 0.3, 1e-3)
    assert not gamma_relatedness(sys, bad, traj_b, tol=1e-5).passed


def test_gamma_relatedness_compiles_the_lift_and_one_field(monkeypatch):
    # after the run, a relatedness check compiles gamma's components for
    # the lift, and the right-hand side and the constraints as one field;
    # the multipliers come from the system's own solver
    sys = assemble(ostro_energy(BEAM))
    gamma = ClosedOneForm.from_potential(parse("q1_0*q1_1"), [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)])
    at = {param("mu"): 1.0, param("rho"): 1.0}
    init = {q(1, 0): 0.3, q(1, 1): -0.2, p(1, 0): -0.2, p(1, 1): 0.3, **at}
    traj = integrate_rk4(sys, init, 0.0, 0.1, 1e-2)
    compiles = count_calls_everywhere(monkeypatch, expr.lambdify)
    gamma_relatedness(sys, gamma, traj, params=at)
    rhs = [sys.rhs[s] for s in sys.states]
    assert [list(args[0]) for args, _ in compiles] == [list(gamma.components), rhs + list(sys.constraints)]


def test_local_vf_residual_hamiltonian_section():
    H = explicit_hamiltonian(JAVELIN)
    gamma = javelin_gamma()
    sigma = SectionSigma(
        q_components={q(1, 0): diff(H, p(1, 0)), q(1, 1): diff(H, p(1, 1))},
        p_components={p(1, 0): simplify(-diff(H, q(1, 0))), p(1, 1): simplify(-diff(H, q(1, 1)))},
    )
    rep = local_vf_residual(sigma, gamma, tol=1e-8, boxes=JAVELIN_BOX, guards=[JAVELIN_GUARD])
    assert rep.passed


def test_gamma_relatedness_needs_enough_samples():
    from jetlag.dynamics import Trajectory
    from jetlag.errors import NumericFailureError

    L1 = LagrangianSpec(1, 1, parse("1/2*q1_1^2"))
    sys = assemble(ostro_energy(L1))
    gamma = ClosedOneForm.from_potential(parse("q1_0"), [q(1, 0)], [p(1, 0)])
    short = Trajectory([0.0, 0.1, 0.2], np.zeros((3, 1)), (q(1, 0),))
    with pytest.raises(NumericFailureError):
        gamma_relatedness(sys, gamma, short)


def test_local_vf_arity_mismatch():
    gamma = ClosedOneForm.from_potential(parse("q1_0*q1_1"), [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)])
    sigma = SectionSigma(q_components={q(1, 0): parse("0")}, p_components={p(1, 0): parse("0")})
    with pytest.raises(ArityMismatchError):
        local_vf_residual(sigma, gamma)


def test_hj_residual_runs_on_auxiliary_product_charts():
    # third-order and degenerate families accept forms over (q0, a0, m0)
    from jetlag.schmidt import default_auxiliary_gauge, degenerate_second_extend, third_order_extend
    from jetlag.symbols import aux, pm

    coords = (q(1, 0), acc(1, 0), aux(1, 0))
    slots = (pq(1), pa(1), pm(1))
    gamma = ClosedOneForm.from_potential(parse("0"), coords, slots)
    for system in (
        third_order_extend(LagrangianSpec(1, 3, parse("1/2*q1_3^2")), default_auxiliary_gauge(1)),
        degenerate_second_extend(PLANAR_N1, default_auxiliary_gauge(1)),
    ):
        rep = hj_residual(system.family, gamma, tol=1e30, samples=5)
        assert rep.samples == 5
    with pytest.raises(ChartMismatchError):
        hj_residual(
            third_order_extend(
                LagrangianSpec(1, 3, parse("1/2*q1_3^2")), default_auxiliary_gauge(1)
            ).family,
            ClosedOneForm.from_potential(parse("0"), [q(1, 0)], [pq(1)]),
        )


def test_local_vf_residual_trivial_and_perturbed():
    gamma = ClosedOneForm.from_components(
        [parse("2"), parse("3")], [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)]
    )
    zero = SectionSigma(
        q_components={q(1, 0): parse("0"), q(1, 1): parse("0")},
        p_components={p(1, 0): parse("0"), p(1, 1): parse("0")},
    )
    assert local_vf_residual(zero, gamma, tol=1e-12).passed
    off = SectionSigma(
        q_components={q(1, 0): parse("0"), q(1, 1): parse("0")},
        p_components={p(1, 0): parse("1"), p(1, 1): parse("0")},
    )
    rep = local_vf_residual(off, gamma, tol=1e-12)
    assert not rep.passed
    assert abs(rep.overall_sup - 1.0) < 1e-12


def test_affine_symmetry():
    # gradient coefficients pass, a rotational coupling fails, constants pass
    g = parse("1/2*q1_1^2 + q1_1*q2_1 + q1_0*q2_0")
    grad = [diff(g, q(1, 1)), diff(g, q(2, 1))]
    assert affine_symmetry_check(grad).passed
    chiral = [parse("-lmb*q2_1"), parse("lmb*q1_1")]
    assert not affine_symmetry_check(chiral).passed
    assert affine_symmetry_check([parse("3"), parse("c")]).passed


def test_affine_integrability_second_order():
    # f = 0, g = g(q0): criterion reduces to dg/dq0 = 0
    assert not affine_integrability_check([parse("0")], parse("q1_0^2"), order=2).passed
    assert affine_integrability_check([parse("0")], parse("c"), order=2).passed
    # f constant, g quadratic in the velocity: criterion vanishes
    assert affine_integrability_check(
        [parse("3"), parse("-2")], parse("1/2*(q1_1^2 + q2_1^2)"), order=2
    ).passed
    # violation: velocity-quadratic g coupled to the position
    assert not affine_integrability_check([parse("0")], parse("q1_0*q1_1^2"), order=2).passed


def test_affine_solve_constant_coefficient():
    sol = affine_hj_solve([parse("c")], parse("0"))
    assert equal_numeric(sol.potential, parse("c*q1_1"))
    comps = sol.form.components
    assert is_zero(comps[0])
    assert equal_numeric(comps[1], parse("c"))


def test_affine_solve_closure_flag():
    # f = 0, g = g(q1): closure demands a linear g
    with pytest.raises(ClosureError):
        affine_hj_solve([parse("0")], parse("q1_1^2"))
    sol = affine_hj_solve([parse("0")], parse("q1_1^2"), require_closed=False)
    assert not sol.closure.passed
    ok = affine_hj_solve([parse("0")], parse("3*q1_1"))
    assert ok.closure.passed
    zero = affine_hj_solve([parse("0")], parse("0"))
    assert is_zero(zero.potential)


def test_affine_solve_output_reverifies(rng):
    # instances generated from a scalar potential always close and verify
    for _ in range(10):
        W = rational_polynomial(rng, [q(1, 0), q(1, 1)], degree=2, terms=4)
        f = [diff(W, q(1, 1))]
        rhs_b = simplify(diff(W, q(1, 0)) + diff(f[0], q(1, 0)) * parse("q1_1"))
        g = _integrate_velocity_gradient(rhs_b)
        sol = affine_hj_solve(f, g, order=2, rng=np.random.default_rng(1))
        L = simplify(f[0] * parse("q1_2") + g)
        spec = LagrangianSpec(1, 2, L)
        rep = hj_residual(ostro_energy(spec), sol.form, tol=1e-8)
        assert rep.passed


def _integrate_velocity_gradient(expr):
    # antiderivative in the velocity for polynomial expressions
    from jetlag.calculus import potential_from_closed_form

    return potential_from_closed_form([expr], [q(1, 1)])


def test_hj_residual_specializes_to_explicit_form():
    # first order, nondegenerate: family residuals match d(H on the form)
    L = LagrangianSpec(1, 1, parse("1/2*q1_1^2 - 1/2*q1_0^2"))
    mf = ostro_energy(L)
    H = explicit_hamiltonian(L)
    W = parse("1/2*q1_0^2")
    gamma = ClosedOneForm.from_potential(W, [q(1, 0)], [p(1, 0)])
    fam_rep = hj_residual(mf, gamma, tol=1e30)
    exp_rep = hj_residual_nondeg(H, gamma, tol=1e30)
    lhs = fam_rep.equations[0][1]
    # eliminate the fiber through the constraint q1_1 = gamma
    from jetlag.expr import substitute

    lhs = simplify(substitute(lhs, {q(1, 1): diff(W, q(1, 0))}))
    assert equal_numeric(lhs, exp_rep.equations[0][1])


def _per_row_lstsq(a, b):
    xs, fits = [], []
    for ai, bi in zip(a, b):
        x, *_ = np.linalg.lstsq(ai, bi, rcond=None)
        xs.append(x)
        fits.append(float(np.max(np.abs(ai @ x - bi))))
    return np.array(xs), np.array(fits)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_multi_rhs_lstsq_equals_per_row_lstsq(shape, monkeypatch):
    rng = np.random.default_rng(sum(shape))
    block = rng.normal(size=shape)
    if shape == (3, 2):
        block[:, 1] = 2.0 * block[:, 0]  # rank deficient
    b = rng.normal(size=(40, shape[0])) * 10.0 ** rng.integers(-3, 3, size=(40, 1))
    a = np.broadcast_to(block, (40,) + shape).copy()
    calls = []
    real = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    x, consistency = hamjac._lstsq_rows(a, b)
    assert len(calls) == 1  # one multi-RHS solve for the constant block
    monkeypatch.setattr(np.linalg, "lstsq", real)
    ref_x, ref_consistency = _per_row_lstsq(a, b)
    assert x.tobytes() == ref_x.tobytes()
    assert consistency.tobytes() == ref_consistency.tobytes()
    # a block that varies from row to row is solved row by row
    a[7, 0, 0] += 1.0
    x, consistency = hamjac._lstsq_rows(a, b)
    ref_x, ref_consistency = _per_row_lstsq(a, b)
    assert x.tobytes() == ref_x.tobytes()
    assert consistency.tobytes() == ref_consistency.tobytes()


def test_newton_jacobian_differentiated_once(monkeypatch):
    calls = []
    real_diff = hamjac.diff

    def counting_diff(e, s):
        calls.append(s)
        return real_diff(e, s)

    monkeypatch.setattr(hamjac, "diff", counting_diff)
    solver = hamjac._FiberSolver([parse("q1_2^3 + q1_2 - q1_0")], [q(1, 2)], [q(1, 0)])
    assert not solver.linear
    assert len(calls) == 1
    rows = np.linspace(-2.0, 2.0, 25)[:, None]
    lam, consistency = solver.solve_rows(rows)
    assert len(calls) == 1
    assert np.all(consistency <= 1e-12)
    assert np.allclose(lam[:, 0] ** 3 + lam[:, 0], rows[:, 0], atol=1e-10)
    # through hj_residual: the count does not grow with the number of samples
    mf = ostro_energy(LagrangianSpec(1, 2, parse("1/4*q1_2^4 + q1_2")))
    gamma = ClosedOneForm.from_potential(parse("q1_0*q1_1"), [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)])
    counts = []
    for samples in (3, 30):
        calls.clear()
        hj_residual(mf, gamma, rng=1, samples=samples)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_potential_form_differentiates_W_once(monkeypatch):
    calls = []
    real_diff = hamjac.diff

    def counting_diff(e, s):
        calls.append(e)
        return real_diff(e, s)

    monkeypatch.setattr(hamjac, "diff", counting_diff)
    coords = [q(1, 0), q(1, 1)]
    W = parse("q1_0^2*q1_1")
    gamma = ClosedOneForm.from_potential(W, coords, [p(1, 0), p(1, 1)])
    for _ in range(3):
        gamma.substitution()
    hj_residual(ostro_energy(BEAM), gamma, rng=1, samples=3)
    hj_residual_nondeg(parse("p1_0 + p1_1"), gamma, rng=1, samples=3)
    assert sum(1 for e in calls if e == simplify(W)) == len(coords)


def _passing_and_failing_reports():
    """A passing and a failing report of every kind the checks build."""
    coords, slots = [q(1, 0), q(1, 1)], [p(1, 0), p(1, 1)]
    open_form = ClosedOneForm(tuple(coords), tuple(slots), (parse("q1_1"), ZERO))
    constant_form = ClosedOneForm.from_components([parse("2"), parse("3")], coords, slots)

    def section(push):
        return SectionSigma({q(1, 0): ZERO, q(1, 1): ZERO}, {p(1, 0): parse(push), p(1, 1): ZERO})

    # dE/dl = q1_0*q1_1 loses rank only at the origin
    rank_family = MorseFamily(chart_cotangent(1, 1), (q(1, 1),), parse("1/2*q1_0*q1_1^2"))
    full_rank = [{q(1, 0): 1.0, q(1, 1): 0.0}, {q(1, 0): 0.0, q(1, 1): 2.0}]
    beam_box = {param("mu"): (1.0, 1.0), param("rho"): (1.0, 1.0)}
    zero_form = ClosedOneForm.from_potential(parse("0"), coords, slots)
    constant = ClosedOneForm.from_potential(parse("5"), [q(1, 0)], [p(1, 0)])
    free_particle = assemble(ostro_energy(LagrangianSpec(1, 1, parse("1/2*q1_1^2"))))
    along = ClosedOneForm.from_potential(parse("c*q1_0"), [q(1, 0)], [p(1, 0)])
    c = {param("c"): 0.7}

    def line(momentum):
        return integrate_rk4(free_particle, {q(1, 0): 0.0, p(1, 0): momentum, **c}, 0.0, 1.0, 1e-2)

    return {
        "closure": (
            javelin_gamma().closure_report(boxes=JAVELIN_BOX, guards=[JAVELIN_GUARD]),
            open_form.closure_report(),
        ),
        "affine-symmetry": (
            affine_symmetry_check([parse("q2_1"), parse("q1_1")]),
            affine_symmetry_check([parse("-q2_1"), parse("q1_1")]),
        ),
        "affine-integrability": (
            affine_integrability_check([parse("0")], parse("c"), order=2),
            affine_integrability_check([parse("0")], parse("q1_0^2"), order=2),
        ),
        "local-vector-field": (
            local_vf_residual(section("0"), constant_form, tol=1e-12),
            local_vf_residual(section("1"), constant_form, tol=1e-12),
        ),
        "morse-rank": (
            morse_rank_check(rank_family, full_rank),
            morse_rank_check(rank_family, full_rank + [{q(1, 0): 0.0, q(1, 1): 0.0}]),
        ),
        "hj": (
            hj_residual(ostro_energy(JAVELIN), javelin_gamma(), tol=1e-9, boxes=JAVELIN_BOX, guards=[JAVELIN_GUARD]),
            hj_residual(ostro_energy(BEAM), zero_form, tol=1e-8, boxes=beam_box),
        ),
        "hj-explicit": (
            hj_residual_nondeg(parse("1/2*p1_0^2"), constant, tol=1e-12),
            hj_residual_nondeg(parse("1/2*p1_0^2 + q1_0^2"), constant, tol=1e-12),
        ),
        "gamma-relatedness": (
            gamma_relatedness(free_particle, along, line(0.7), tol=1e-12, params=c),
            gamma_relatedness(free_particle, along, line(0.2), tol=1e-12, params=c),
        ),
    }


def test_every_report_kind_takes_its_verdict_from_its_sups():
    for kind, reports in _passing_and_failing_reports().items():
        for rep, expected in zip(reports, (True, False)):
            assert rep.overall_sup == max(rep.sup_norms.values(), default=0.0), kind
            assert rep.passed == (rep.overall_sup <= rep.tol) == expected, kind
            out = rep.to_dict()
            assert (out["overall_sup"], out["passed"]) == (rep.overall_sup, rep.passed), kind

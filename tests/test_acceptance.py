"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configured elsewhere.  Oracles are
independent of the code paths they check: closed-form solutions, finite
differences of the discretized action, ray-sampled numeric equality.
"""

import json
import time

import numpy as np

from jetlag.calculus import diff, is_zero
from jetlag.dynamics import (
    assemble,
    energy_drift,
    integrate_rk4,
    project_trajectory,
    resolve_multipliers,
)
from jetlag.errors import SingularJacobianError
from jetlag.expr import ZERO, eval_expr, simplify
from jetlag.families import MorseFamily
from jetlag.hamjac import (
    ClosedOneForm,
    affine_hj_solve,
    affine_symmetry_check,
    gamma_relatedness,
    hj_residual,
    hj_residual_nondeg,
    morse_rank_check,
)
from jetlag.ostro import (
    LagrangianSpec,
    euler_lagrange,
    ostro_energy,
    ostro_initial_data,
)
from jetlag.parser import parse
from jetlag.sampling import equal_numeric, make_rng, sample_bindings
from jetlag.schmidt import (
    ostro_schmidt_pullback_check,
    schmidt_initial_data,
    schmidt_morse_family,
    solve_F_quadratic,
)
from jetlag.symbols import acc, p, pa, param, pq, q

from conftest import rational_polynomial

BEAM = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2 + rho*q1_0"))
JAVELIN = LagrangianSpec(1, 2, parse("1/2*q1_1^2 - 1/2*q1_2^2"))
PLANAR = LagrangianSpec(3, 2, parse("1/2*(q1_2 + q2_2)^2"))
BEAM_PARAMS = {param("mu"): 1.0, param("rho"): 1.0}


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert passed, detail


def test_criterion_01_beam_derivation_forms():
    t0 = time.time()
    rng = make_rng(11)
    mf = ostro_energy(BEAM)
    sys = assemble(mf)
    ok = equal_numeric(
        mf.energy,
        parse("p1_0*q1_1 + p1_1*q1_2 - 1/2*mu*q1_2^2 - rho*q1_0"),
        trials=100,
        tol=1e-10,
        rng=rng,
    )
    expected_rhs = {"q1_0": "q1_1", "q1_1": "q1_2", "p1_0": "rho", "p1_1": "-p1_0"}
    for name, text in expected_rhs.items():
        (s,) = parse(name).free
        ok = ok and equal_numeric(sys.rhs[s], parse(text), trials=100, tol=1e-10, rng=rng)
    ok = ok and equal_numeric(
        sys.constraints[0], parse("p1_1 - mu*q1_2"), trials=100, tol=1e-10, rng=rng
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"beam derivation matches published forms in {elapsed:.3f}s")


def test_criterion_02_beam_dynamics_and_order():
    sys = assemble(ostro_energy(BEAM))
    init = {q(1, 0): 0.0, q(1, 1): 0.0, p(1, 0): 0.0, p(1, 1): 0.0, **BEAM_PARAMS}
    traj = integrate_rk4(sys, init, 0.0, 1.0, 1e-3)
    ts = np.array(traj.times)
    sup = float(np.max(np.abs(traj.column(q(1, 0)) - (-(ts**4) / 24.0))))
    drift = energy_drift(traj)
    # order-4 Richardson on the oscillatory companion system: the beam flow
    # is affine with a nilpotent matrix, so RK4 reproduces it exactly and
    # shows no step-size signal
    sysj = assemble(ostro_energy(JAVELIN))
    jet = {q(1, 0): 0.3, q(1, 1): 1.0, q(1, 2): -0.4, q(1, 3): 0.2}
    initj = ostro_initial_data(JAVELIN, jet)
    q0, q1, q2, q3 = 0.3, 1.0, -0.4, 0.2
    A, B, C, D = q0 + q2, q1 + q3, -q2, -q3

    def exact(t):
        return A + B * t + C * np.cos(t) + D * np.sin(t)

    errors = []
    for h in (2e-2, 1e-2):
        t = integrate_rk4(sysj, initj, 0.0, 1.0, h)
        errors.append(np.max(np.abs(t.column(q(1, 0)) - exact(np.array(t.times)))))
    ratio = errors[0] / errors[1]
    ok = sup <= 1e-8 and drift <= 1e-8 and 12.0 <= ratio <= 20.0
    report(2, ok, f"quartic sup {sup:.2e}, drift {drift:.2e}, Richardson ratio {ratio:.2f}")


def test_criterion_03_javelin_generating_form_residual():
    mf = ostro_energy(JAVELIN)
    gamma = ClosedOneForm.from_components(
        [parse("A"), parse("sqrt(2)*sqrt(A*q1_1 - 1/2*q1_1^2 - B)")],
        [q(1, 0), q(1, 1)],
        [p(1, 0), p(1, 1)],
        boxes={q(1, 1): (0.15, 1.85), param("A"): (1.0, 1.0), param("B"): (0.0, 0.0)},
        guards=[(parse("A*q1_1 - 1/2*q1_1^2 - B"), 0.1)],
    )
    rep = hj_residual(
        mf,
        gamma,
        tol=1e-9,
        boxes={q(1, 1): (0.15, 1.85), param("A"): (1.0, 1.0), param("B"): (0.0, 0.0)},
        guards=[(parse("A*q1_1 - 1/2*q1_1^2 - B"), 0.1)],
    )
    report(3, rep.passed, f"javelin residual sup {rep.overall_sup:.2e} on radicand >= 0.1")


def test_criterion_04_javelin_acceleration_bundle_generating_function():
    W = parse(
        "1/sqrt(2)*ln(a1_0 + sqrt(a1_0^2 + 2*c))"
        " + 1/(2*sqrt(2))*a1_0*sqrt(a1_0^2 + 2*c)"
    )
    gamma = ClosedOneForm.from_potential(W, [q(1, 0), acc(1, 0)], [pq(1), pa(1)])
    # target form recorded in the corpus for this published solution (c = 1)
    target = parse("pa1^2 - 1/2*a1_0^2")
    rep = hj_residual_nondeg(
        target,
        gamma,
        tol=1e-8,
        boxes={acc(1, 0): (-1.0, 1.0), q(1, 0): (-1.0, 1.0), param("c"): (1.0, 1.0)},
    )
    spread = rep.details["constancy_spread"]
    ok = rep.passed and spread <= 1e-8
    report(4, ok, f"published solution constant to {spread:.2e} on a in [-1, 1], c = 1")


def test_criterion_05_degenerate_model():
    mf = ostro_energy(PLANAR)
    coords = [q(a, lvl) for lvl in (0, 1) for a in (1, 2, 3)]
    slots = [p(a, lvl) for lvl in (0, 1) for a in (1, 2, 3)]
    gamma = ClosedOneForm.from_potential(parse("a*q1_1 + b*q2_1"), coords, slots)
    rep = hj_residual(
        mf, gamma, tol=1e-12, boxes={param("a"): (1.0, 1.0), param("b"): (1.0, 1.0)}
    )
    symbolic = all(is_zero(e) for name, e in rep.equations if name.startswith("d/d"))
    sys = assemble(mf)
    at = {s: 0.1 for s in sys.states}
    try:
        resolve_multipliers(sys, at)
        rank_ok = False
        rank_detail = "no abort"
    except SingularJacobianError as exc:
        rank_ok = exc.rank == 1 and exc.needed == 3
        rank_detail = f"rank {exc.rank} of {exc.needed}"
    ok = rep.passed and symbolic and rank_ok
    report(5, ok, f"residual sup {rep.overall_sup:.2e}, identically zero: {symbolic}, {rank_detail}")


def test_criterion_06_pullback_equivalence_and_base_agreement():
    rng = make_rng(23)
    F_beam = solve_F_quadratic(BEAM)
    F_jav = solve_F_quadratic(JAVELIN)
    ok = ostro_schmidt_pullback_check(BEAM, F_beam, trials=100, tol=1e-10, rng=rng)
    ok = ok and ostro_schmidt_pullback_check(JAVELIN, F_jav, trials=100, tol=1e-10, rng=rng)
    jet = {q(1, 0): 0.2, q(1, 1): -0.3, q(1, 2): 0.5, q(1, 3): 0.1}
    sups = []
    for spec, F, params in ((BEAM, F_beam, BEAM_PARAMS), (JAVELIN, F_jav, {})):
        sys_o = assemble(ostro_energy(spec))
        init_o = {**ostro_initial_data(spec, jet, params), **params}
        traj_o = integrate_rk4(sys_o, init_o, 0.0, 1.0, 1e-3)
        sys_s = assemble(schmidt_morse_family(spec, F))
        init_s = {**schmidt_initial_data(spec, F, jet, params), **params}
        traj_s = integrate_rk4(sys_s, init_s, 0.0, 1.0, 1e-3)
        sups.append(float(np.max(np.abs(traj_o.column(q(1, 0)) - traj_s.column(q(1, 0))))))
    ok = ok and all(s <= 1e-6 for s in sups)
    report(6, ok, f"pullback identity holds; base-curve sups {sups[0]:.2e}, {sups[1]:.2e}")


def test_criterion_07_gauge_invariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for i in range(5):
        L_expr = rational_polynomial(rng, [q(1, 0), q(1, 1), q(1, 2)], degree=2, terms=5)
        L = LagrangianSpec(1, 2, L_expr)
        r0 = euler_lagrange(L)[0]
        for j in range(4):
            F_expr = rational_polynomial(rng, [q(1, 0), q(1, 1), q(1, 2)], degree=2, terms=4)
            from jetlag.calculus import time_derivative

            Lg = LagrangianSpec(1, 3, simplify(L_expr + time_derivative(F_expr)))
            r1 = euler_lagrange(Lg)[0]
            ok = ok and equal_numeric(r0, r1, trials=20, tol=1e-9, rng=np.random.default_rng(100 + i * 4 + j))
    report(7, ok, "equations of motion invariant under 20 total-derivative extensions")


def test_criterion_08_affine_checks():
    rng = np.random.default_rng(8)
    chiral = [parse("-lmb*q2_1"), parse("lmb*q1_1")]
    chiral_fails = not affine_symmetry_check(chiral, rng=rng).passed
    g = parse("1/2*q1_1^2 + q1_1*q2_1 + sin(q1_0)*q2_1")
    grad = [simplify(diff(g, q(1, 1))), simplify(diff(g, q(2, 1)))]
    grad_passes = affine_symmetry_check(grad, rng=rng).passed
    solves = 0
    from jetlag.calculus import potential_from_closed_form

    for i in range(50):
        W = rational_polynomial(rng, [q(1, 0), q(1, 1)], degree=2, terms=4)
        f = [diff(W, q(1, 1))]
        slope = simplify(diff(W, q(1, 0)) + diff(f[0], q(1, 0)) * parse("q1_1"))
        gg = potential_from_closed_form([slope], [q(1, 1)])
        sol = affine_hj_solve(f, gg, order=2, rng=np.random.default_rng(800 + i))
        L = LagrangianSpec(1, 2, simplify(f[0] * parse("q1_2") + gg))
        rep = hj_residual(ostro_energy(L), sol.form, rng=np.random.default_rng(900 + i), tol=1e-8)
        if sol.closure.passed and rep.passed:
            solves += 1
    ok = chiral_fails and grad_passes and solves == 50
    report(8, ok, f"chiral fails, gradients pass, {solves}/50 solved instances re-verify")


def test_criterion_09_morse_rank_property():
    from jetlag.charts import chart_cotangent
    from jetlag.corpus import build_entries

    rng = make_rng(9)
    ok = True
    for entry in build_entries():
        mf = entry.job.family
        params = entry.job.params
        symbols = sorted(set(mf.base.roster) | set(mf.all_fibers) | set(params))
        boxes = {s: (v, v) for s, v in params.items()}
        points = sample_bindings(symbols, 20, rng, boxes=boxes)
        ok = ok and morse_rank_check(mf, points).passed
    zero_family = MorseFamily(chart_cotangent(1, 1), (q(1, 1),), ZERO)
    pts = sample_bindings([q(1, 0), p(1, 0), q(1, 1)], 20, rng)
    zero_fails = not morse_rank_check(zero_family, pts).passed
    ok = ok and zero_fails
    report(9, ok, "all corpus energies maximal rank at 20 points; zero energy fails")


def test_criterion_10_relatedness_with_negative_controls():
    # javelin (iterated-cotangent route)
    sysj = assemble(ostro_energy(JAVELIN))
    gam = ClosedOneForm.from_components(
        [parse("1"), parse("sqrt(2)*sqrt(q1_1 - 1/2*q1_1^2)")],
        [q(1, 0), q(1, 1)],
        [p(1, 0), p(1, 1)],
        check=False,
    )
    def run(form, system, start, params=None, check_params=None):
        init = dict(start)
        init.update(params or {})
        for slot, comp in zip(form.momentum_slots, form.component_exprs()):
            init[slot] = eval_expr(comp, init)
        traj = integrate_rk4(system, init, 0.0, 0.3, 1e-3)
        base = project_trajectory(traj, form.coordinates)
        return gamma_relatedness(
            system, form, base, tol=1e-5, params=check_params or params
        )

    start_j = {q(1, 0): 0.3, q(1, 1): 1.0}
    ok = run(gam, sysj, start_j).passed
    bad = ClosedOneForm.from_components(
        [parse("3/2"), parse("sqrt(2)*sqrt(q1_1 - 1/2*q1_1^2)")],
        [q(1, 0), q(1, 1)],
        [p(1, 0), p(1, 1)],
        check=False,
    )
    ok = ok and not run(bad, sysj, start_j).passed
    # acceleration-bundle route with general coefficients
    quad = LagrangianSpec(1, 2, parse("1/2*mu*q1_2^2"))
    Fq = solve_F_quadratic(quad)
    sysq = assemble(schmidt_morse_family(quad, Fq))
    Wmu = parse("c2*q1_0 + mu^2*a1_0^3/(6*c2) - mu*(c/c2)*a1_0")
    gq = ClosedOneForm.from_potential(Wmu, [q(1, 0), acc(1, 0)], [pq(1), pa(1)])
    params = {param("mu"): 2.0, param("c2"): 1.3, param("c"): 0.4}
    start_q = {q(1, 0): 0.1, acc(1, 0): 0.6}
    ok = ok and run(gq, sysq, start_q, params).passed
    # lift with a mismatched coefficient: trajectory from the true constants,
    # relatedness checked against the perturbed ones, must fail
    params_bad = {param("mu"): 2.0, param("c2"): 1.9, param("c"): 0.4}
    rep_bad = run(gq, sysq, start_q, params, check_params=params_bad)
    ok = ok and not rep_bad.passed
    report(10, ok, "lifted trajectories satisfy the full systems; perturbed constants fail")


from fractions import Fraction

# 7-point central first-derivative weights: exact for polynomials of degree <= 6
_D7 = (
    Fraction(-1, 60),
    Fraction(3, 20),
    Fraction(-3, 4),
    Fraction(0),
    Fraction(3, 4),
    Fraction(-3, 20),
    Fraction(1, 60),
)


def _eval_rational(e, binding):
    """Exact rational evaluation of a polynomial expression tree."""
    from jetlag.expr import Const, Pow, Prod, Sum, Sym

    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Sym):
        return binding[e.symbol]
    if isinstance(e, Sum):
        return sum((_eval_rational(t, binding) for t in e.terms), Fraction(0))
    if isinstance(e, Prod):
        out = Fraction(1)
        for f in e.factors:
            out *= _eval_rational(f, binding)
        return out
    if isinstance(e, Pow):
        assert e.exponent.denominator == 1
        return _eval_rational(e.base, binding) ** int(e.exponent)
    raise TypeError(f"not polynomial: {e!r}")


def _discrete_action_residual(L, spec, curve_coeffs, i_star, N=2000, T=1):
    """Variational derivative of the discretized action at one grid node.

    Central-difference jet stencils on N nodes, evaluated in exact rational
    arithmetic: the nested stencils amplify float noise by 1/h^(2k), which at
    N = 2000 and third order exceeds the signal entirely.  The node
    derivative is extracted with polynomial-exact difference weights at
    perturbations scaled to the finest stencil.
    """
    k = spec.order
    h = Fraction(T, N)
    values = {
        j: _polyval_rational(curve_coeffs, j * h)
        for j in range(i_star - k - 2, i_star + k + 3)
    }

    def lag_at(j, bump):
        def val(idx):
            return values[idx] + bump if idx == i_star else values[idx]

        binding = {q(1, 0): val(j)}
        binding[q(1, 1)] = (val(j + 1) - val(j - 1)) / (2 * h)
        binding[q(1, 2)] = (val(j + 1) - 2 * val(j) + val(j - 1)) / h**2
        if k >= 3:
            binding[q(1, 3)] = (
                val(j + 2) - 2 * val(j + 1) + 2 * val(j - 1) - val(j - 2)
            ) / (2 * h**3)
        return _eval_rational(L, binding)

    window = range(i_star - k, i_star + k + 1)
    step = h**3
    samples = [sum(lag_at(j, m * step) for j in window) for m in range(-3, 4)]
    # dS/dq_i / h with S = h * sum L: the h factors cancel
    return float(sum(w * s for w, s in zip(_D7, samples)) / step)


def _polyval_rational(coeffs, t):
    out = Fraction(0)
    for c in coeffs:
        out = out * t + c
    return out


def _polyder_rational(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def test_criterion_11_variational_oracle():
    from conftest import bounded_degree_polynomial

    rng = np.random.default_rng(11)
    worst = 0.0
    ok = True
    N, T = 2000, 1
    h = T / N
    for order in (2, 3):
        for trial in range(5):
            symbols = [q(1, j) for j in range(order + 1)]
            L_expr = bounded_degree_polynomial(rng, symbols, total_degree=3, terms=6)
            spec = LagrangianSpec(1, order, L_expr + parse(f"q1_{order}^2"))
            residual = euler_lagrange(spec)[0]
            curve = [
                Fraction(int(c), 100) for c in rng.integers(-100, 101, size=7)
            ]
            i_star = int(rng.integers(700, 1300))
            t_i = i_star * h
            exact_jet = {}
            poly = list(curve)
            for lvl in range(2 * order + 1):
                exact_jet[q(1, lvl)] = float(_polyval_rational(poly, Fraction(i_star, N)))
                poly = _polyder_rational(poly)
            sym_val = eval_expr(residual, exact_jet)
            fd_val = _discrete_action_residual(spec.lagrangian, spec, curve, i_star, N=N, T=T)
            rel = abs(sym_val - fd_val) / (1.0 + abs(sym_val))
            worst = max(worst, rel)
            ok = ok and rel <= 1e-4
    report(11, ok, f"discrete-action oracle agrees, worst relative error {worst:.2e}")


def test_criterion_12_corpus_runtime_and_determinism():
    from jetlag.corpus import run_all

    t0 = time.time()
    first = run_all(seed=123)
    elapsed = time.time() - t0
    second = run_all(seed=123)
    same = json.dumps(first, sort_keys=True, default=str) == json.dumps(
        second, sort_keys=True, default=str
    )
    ok = first["passed"] and elapsed < 60.0 and same
    report(12, ok, f"corpus of {first['count']} entries in {elapsed:.1f}s, byte-deterministic: {same}")

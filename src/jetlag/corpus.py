"""Built-in example systems with expected outcomes.

Every expected number or form carries a provenance tag: "literature" (a form
published for these well-known models), "derived" (computed here by an
independent route: exact solutions, symbolic expansion, oracles), "trivial"
(immediate).  Checks re-run the full pipelines and compare.

One recorded choice deserves a note: acceleration-bundle generating
functions are checked against the equation form each published solution
actually satisfies, recorded per entry as hj_target; the canonical
Hamiltonian form is also exposed and is the target wherever it holds.
"""

from __future__ import annotations

import numpy as np

from .dynamics import assemble, energy_drift, integrate_rk4, resolve_multipliers
from .errors import SingularJacobianError
from .expr import job_scope, simplify
from .hamjac import (
    affine_hj_solve,
    affine_integrability_check,
    affine_symmetry_check,
    hj_residual,
    hj_residual_nondeg,
    morse_rank_check,
)
from .job import Job, symbol
from .ostro import nondegeneracy, ostro_initial_data
from .parser import parse
from .sampling import equal_numeric, make_rng, sample_bindings
from .schmidt import ostro_schmidt_pullback_check, schmidt_initial_data, schmidt_morse_family
from .symbols import p, param, q


# every entry ends with the rank check of its Morse family's fiber block
MORSE_RANK = {"name": "morse-rank", "kind": "morse-rank", "provenance": "derived"}


class CorpusEntry:
    def __init__(self, config, checks):
        self.job = Job.from_config(config)
        self.id = self.job.problem
        self.checks = [*checks, MORSE_RANK]


BEAM_L = "1/2*mu*q1_2^2 + rho*q1_0"
JAVELIN_L = "1/2*q1_1^2 - 1/2*q1_2^2"
QUAD_L = "1/2*mu*q1_2^2"
PLANAR_L = "1/2*(q1_2 + q2_2)^2"
CHIRAL_L = "-lmb*(q1_1*q2_2 - q2_1*q1_2) + m/2*(q1_1^2 + q2_1^2)"
CLEMENT_L = (
    "-m/2*zeta*(q1_1^2 - q2_1^2 - q3_1^2) - 2*m*Lam/zeta"
    " + zeta^2/(2*mu*m)*("
    "q1_0*(q2_1*q3_2 - q3_1*q2_2)"
    " + q2_0*(q3_1*q1_2 - q1_1*q3_2)"
    " + q3_0*(q1_1*q2_2 - q2_1*q1_2))"
)


def build_entries():
    entries = [
        CorpusEntry(
            {
                "problem": "affine-second-template",
                "n": 1,
                "k": 2,
                "lagrangian": "(B + q1_0)*q1_2 + A*q1_1 + q1_1^2",
                "method": "ostrogradsky",
                "parameters": {"A": 1.0, "B": 2.0},
            },
            [
                {"name": "affine-symmetry", "kind": "affine-symmetry", "provenance": "trivial", "expect_pass": True},
                {"name": "affine-integrability", "kind": "affine-integrability", "provenance": "derived", "order": 2, "expect_pass": True},
                {"name": "affine-solve-verifies", "kind": "affine-solve", "provenance": "derived", "order": 2},
            ],
        ),
        CorpusEntry(
            {
                "problem": "affine-third-template",
                "n": 1,
                "k": 3,
                "lagrangian": "(q1_2 + cf)*q1_3",
                "method": "ostrogradsky",
                "parameters": {"cf": 1.5},
            },
            [
                {"name": "affine-compatibility", "kind": "affine-integrability", "provenance": "derived", "order": 3, "expect_pass": True},
                {"name": "affine-solve-verifies", "kind": "affine-solve", "provenance": "derived", "order": 3},
            ],
        ),
        CorpusEntry(
            {
                "problem": "beam",
                "n": 1,
                "k": 2,
                "lagrangian": BEAM_L,
                "method": "ostrogradsky",
                "parameters": {"mu": 1.0, "rho": 1.0},
                "simulation": {
                    "t0": 0.0,
                    "t1": 1.0,
                    "h": 1e-3,
                    "initial": {"q1_0": 0.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0},
                },
            },
            [
                {
                    "name": "energy-form",
                    "kind": "form",
                    "provenance": "literature",
                    "path": "energy",
                    "expected": "p1_0*q1_1 + p1_1*q1_2 - 1/2*mu*q1_2^2 - rho*q1_0",
                },
                {
                    "name": "implicit-system-forms",
                    "kind": "implicit-forms",
                    "provenance": "literature",
                    "rhs": {"q1_0": "q1_1", "q1_1": "q1_2", "p1_0": "rho", "p1_1": "-p1_0"},
                    "constraints": ["p1_1 - mu*q1_2"],
                },
                {
                    "name": "top-momentum",
                    "kind": "form",
                    "provenance": "literature",
                    "path": "momenta.p1_1",
                    "expected": "mu*q1_2",
                },
                {
                    "name": "zeroth-momentum",
                    "kind": "form",
                    "provenance": "derived",
                    "path": "momenta.p1_0",
                    "expected": "-mu*q1_3",
                },
                {
                    "name": "euler-lagrange",
                    "kind": "form",
                    "provenance": "literature",
                    "path": "euler_lagrange.0",
                    "expected": "mu*q1_4 + rho",
                },
                {
                    "name": "explicit-hamiltonian",
                    "kind": "form",
                    "provenance": "literature",
                    "path": "hamiltonian",
                    "expected": "p1_0*q1_1 + 1/2*p1_1^2/mu - rho*q1_0",
                },
                {"name": "nondegenerate", "kind": "nondegeneracy", "provenance": "literature", "rank": 1, "full": True},
                {"name": "pullback-identity", "kind": "pullback", "provenance": "literature", "expect": True},
                {"name": "quartic-solution", "kind": "beam-quartic", "provenance": "derived", "tol": 1e-8},
                {"name": "energy-drift", "kind": "drift", "provenance": "derived", "tol": 1e-8},
                {"name": "base-curve-agreement", "kind": "base-agreement", "provenance": "derived", "tol": 1e-6},
            ],
        ),
        CorpusEntry(
            {
                "problem": "chiral-oscillator",
                "n": 2,
                "k": 2,
                "lagrangian": CHIRAL_L,
                "method": "ostrogradsky",
                "parameters": {"lmb": 1.0, "m": 1.0},
            },
            [
                {"name": "derivation-succeeds", "kind": "derive-ok", "provenance": "trivial"},
                {
                    "name": "acceleration-coupling-antisymmetric",
                    "kind": "affine-symmetry-of-L",
                    "provenance": "literature",
                    "expect_pass": False,
                },
            ],
        ),
        CorpusEntry(
            {
                "problem": "clement",
                "n": 3,
                "k": 2,
                "lagrangian": CLEMENT_L,
                "method": "ostrogradsky",
                "parameters": {"m": 1.0, "zeta": 1.0, "Lam": 1.0, "mu": 1.0},
            },
            [
                {"name": "derivation-succeeds", "kind": "derive-ok", "provenance": "literature"},
                {
                    "name": "acceleration-coupling-antisymmetric",
                    "kind": "affine-symmetry-of-L",
                    "provenance": "literature",
                    "expect_pass": False,
                },
            ],
        ),
        CorpusEntry(
            {
                "problem": "degenerate-planar",
                "n": 3,
                "k": 2,
                "lagrangian": PLANAR_L,
                "method": "ostrogradsky",
                "parameters": {"a": 1.0, "b": 1.0},
                "W": "a*q1_1 + b*q2_1",
                "simulation": {
                    "t0": 0.0,
                    "t1": 0.1,
                    "h": 1e-3,
                    "initial": {
                        "q1_0": 0.1, "q2_0": 0.2, "q3_0": 0.0,
                        "q1_1": 0.0, "q2_1": 0.0, "q3_1": 0.0,
                        "p1_0": 0.0, "p2_0": 0.0, "p3_0": 0.0,
                        "p1_1": 1.0, "p2_1": 1.0, "p3_1": 0.0,
                    },
                },
            },
            [
                {"name": "hessian-rank-one", "kind": "nondegeneracy", "provenance": "literature", "rank": 1, "full": False},
                {"name": "velocity-potential-solves", "kind": "hj", "provenance": "literature", "tol": 1e-12},
                {"name": "multiplier-rank-deficit", "kind": "degenerate-abort", "provenance": "derived", "rank": 1, "of": 3},
            ],
        ),
        CorpusEntry(
            {
                "problem": "javelin",
                "n": 1,
                "k": 2,
                "lagrangian": JAVELIN_L,
                "method": "ostrogradsky",
                "parameters": {"A": 1.0, "B": 0.0, "c": 1.0},
                "gamma_components": ["A", "sqrt(2)*sqrt(A*q1_1 - 1/2*q1_1^2 - B)"],
                "sample_box": {"q1_1": [0.15, 1.85]},
                "domain_guards": [["A*q1_1 - 1/2*q1_1^2 - B", 0.1]],
                "schmidt_W": (
                    "1/sqrt(2)*ln(a1_0 + sqrt(a1_0^2 + 2*c))"
                    " + 1/(2*sqrt(2))*a1_0*sqrt(a1_0^2 + 2*c)"
                ),
                # form the published generating function satisfies (c = 1);
                # the canonical Hamiltonian pq*pa - 1/2*pa^2 - 1/2*a1_0^2 is
                # exposed by the pipeline but is not constant on this image
                "hj_target": "pa1^2 - 1/2*a1_0^2",
                "simulation": {
                    "t0": 0.0,
                    "t1": 0.3,
                    "h": 1e-3,
                    "initial": {"q1_0": 0.3, "q1_1": 1.0},
                },
            },
            [
                {
                    "name": "energy-form",
                    "kind": "form",
                    "provenance": "literature",
                    "path": "energy",
                    "expected": "p1_0*q1_1 + p1_1*q1_2 + 1/2*q1_2^2 - 1/2*q1_1^2",
                },
                {
                    "name": "implicit-system-forms",
                    "kind": "implicit-forms",
                    "provenance": "derived",
                    "rhs": {"q1_0": "q1_1", "q1_1": "q1_2", "p1_0": "0", "p1_1": "q1_1 - p1_0"},
                    "constraints": ["p1_1 + q1_2"],
                },
                {
                    "name": "euler-lagrange",
                    "kind": "form",
                    "provenance": "derived",
                    "path": "euler_lagrange.0",
                    "expected": "-q1_4 - q1_2",
                },
                {
                    "name": "explicit-hamiltonian",
                    "kind": "form",
                    "provenance": "derived",
                    "path": "hamiltonian",
                    "expected": "p1_0*q1_1 - 1/2*p1_1^2 - 1/2*q1_1^2",
                },
                {"name": "pullback-identity", "kind": "pullback", "provenance": "derived", "expect": True},
                {"name": "published-solution-residual", "kind": "hj", "provenance": "literature", "tol": 1e-9},
                {"name": "gamma-relatedness", "kind": "relatedness", "provenance": "derived", "tol": 1e-5},
                {
                    "name": "acceleration-bundle-generating-function",
                    "kind": "hj-target",
                    "provenance": "literature",
                    "tol": 1e-8,
                    "box": {"a1_0": [-1.0, 1.0]},
                },
                {"name": "base-curve-agreement", "kind": "base-agreement", "provenance": "derived", "tol": 1e-6},
            ],
        ),
        CorpusEntry(
            {
                "problem": "pure-quadratic",
                "n": 1,
                "k": 2,
                "lagrangian": QUAD_L,
                "method": "schmidt2",
                "parameters": {"mu": 2.0, "c2": 1.3, "c": 0.4},
                # published generating function; satisfies the published
                # (coefficient-free) product form for every mu
                "schmidt_W": "c2*q1_0 + mu*a1_0^3/(6*c2) - (c/c2)*a1_0",
                "hj_target": "-pq1*pa1 + 1/2*mu*a1_0^2",
                # coefficient-corrected generating function solving the
                # canonical Hamiltonian form for every mu
                "schmidt_W_canonical": "c2*q1_0 + mu^2*a1_0^3/(6*c2) - mu*(c/c2)*a1_0",
                "simulation": {
                    "t0": 0.0,
                    "t1": 1.0,
                    "h": 1e-3,
                    "initial": {"q1_0": 0.1, "a1_0": 0.6},
                },
            },
            [
                {
                    "name": "auto-gauge",
                    "kind": "schmidt-form",
                    "provenance": "literature",
                    "path": "gauge",
                    "expected": "-mu*a1_0*q1_1",
                },
                {
                    "name": "extended-lagrangian",
                    "kind": "schmidt-form",
                    "provenance": "literature",
                    "path": "extended_lagrangian",
                    "expected": "-1/2*mu*a1_0^2 - mu*a1_1*q1_1",
                },
                {
                    "name": "momentum-relation",
                    "kind": "schmidt-form",
                    "provenance": "literature",
                    "path": "momentum_relations.0",
                    "expected": "pa1 + mu*q1_1",
                },
                {
                    "name": "hamiltonian",
                    "kind": "schmidt-form",
                    "provenance": "literature",
                    "path": "hamiltonian",
                    "expected": "1/2*mu*a1_0^2 - pq1*pa1/mu",
                },
                {"name": "pullback-identity", "kind": "pullback", "provenance": "literature", "expect": True},
                {
                    "name": "published-product-form",
                    "kind": "hj-target",
                    "provenance": "literature",
                    "tol": 1e-10,
                    "box": {"a1_0": [-1.0, 1.0], "q1_0": [-1.0, 1.0]},
                },
                {
                    "name": "canonical-form-generating-function",
                    "kind": "hj-canonical",
                    "provenance": "derived",
                    "tol": 1e-10,
                },
                {"name": "gamma-relatedness", "kind": "relatedness-schmidt", "provenance": "derived", "tol": 1e-5},
            ],
        ),
    ]
    return sorted(entries, key=lambda e: e.id)


# ---------------------------------------------------------------------------
# runners: one function per check kind, (job, check, rng) -> (passed, observed)
# ---------------------------------------------------------------------------


def _form(job, check, rng):
    derived = job.derived(check["path"])
    ok = equal_numeric(derived, parse(check["expected"]), trials=100, tol=1e-10, rng=rng)
    return ok, str(simplify(derived))


def _implicit_forms(job, check, rng):
    sys = job.system
    ok = True
    for sname, text in check["rhs"].items():
        ok = ok and equal_numeric(sys.rhs[symbol(sname)], parse(text), trials=100, tol=1e-10, rng=rng)
    for i, text in enumerate(check["constraints"]):
        ok = ok and equal_numeric(sys.constraints[i], parse(text), trials=100, tol=1e-10, rng=rng)
    return ok, {str(s): str(e) for s, e in sys.rhs.items()}


def _nondegeneracy(job, check, rng):
    at = sample_bindings(sorted(job.spec.lagrangian.free), 1, rng)[0]
    res = nondegeneracy(job.spec, at)
    return res["rank"] == check["rank"] and res["full"] == check["full"], res


def _derive_ok(job, check, rng):
    return True, {"states": len(job.derived("implicit_system.states")), "residuals": len(job.derived("euler_lagrange"))}


def _verdict(rep):
    return rep.passed, rep.overall_sup


def _as_expected(rep, check):
    return rep.passed == check["expect_pass"], rep.overall_sup


def _affine_symmetry(job, check, rng):
    return _as_expected(affine_symmetry_check(job.affine[0], rng=rng), check)


def _affine_solve(job, check, rng):
    sol = affine_hj_solve(*job.affine, order=check["order"], rng=rng)
    rep = hj_residual(job.family, sol.form, rng=rng, tol=1e-8, boxes=job.pinned)
    return (
        sol.closure.passed and rep.passed,
        {"closure_sup": sol.closure.overall_sup, "residual_sup": rep.overall_sup},
    )


def _morse_rank(job, check, rng):
    mf = job.family
    symbols = sorted(set(mf.base.roster) | set(mf.all_fibers) | set(job.params))
    points = sample_bindings(symbols, 20, rng, boxes=job.pinned)
    rep = morse_rank_check(mf, points)
    return rep.passed, rep.details["ranks"][:3]


def _hj(job, check, rng):
    gamma = job.gamma(rng=rng)
    return _verdict(hj_residual(job.family, gamma, rng=rng, tol=check["tol"], boxes=job.boxes, guards=job.guards))


def _constancy(target, gamma, check, rng, boxes):
    rep = hj_residual_nondeg(target, gamma, rng=rng, tol=check["tol"], boxes=boxes)
    spread = rep.details["constancy_spread"]
    return rep.passed and spread <= check["tol"], {"sup": rep.overall_sup, "spread": spread}


def _hj_target(job, check, rng):
    box = {symbol(name): (float(lo), float(hi)) for name, (lo, hi) in check.get("box", {}).items()}
    return _constancy(job.hj_target, job.gamma("schmidt_W"), check, rng, {**job.boxes, **box})


def _within(sup, check):
    return sup <= check["tol"], sup


def _beam_quartic(job, check, rng):
    traj = job.trajectory
    ts = np.array(traj.times)
    mu, rho = job.params[param("mu")], job.params[param("rho")]
    init = job.simulation.initial
    # p1 = mu*q2, p0 = -mu*q3 for the quadratic beam
    jet = (init[q(1, 0)], init[q(1, 1)], init[p(1, 1)] / mu, -init[p(1, 0)] / mu)
    exact = (
        jet[0]
        + jet[1] * ts
        + jet[2] * ts**2 / 2.0
        + jet[3] * ts**3 / 6.0
        - (rho / mu) * ts**4 / 24.0
    )
    return _within(float(np.max(np.abs(traj.column(q(1, 0)) - exact))), check)


def _degenerate_abort(job, check, rng):
    try:
        resolve_multipliers(job.system, {**job.simulation.initial, **job.params})
    except SingularJacobianError as exc:
        ok = exc.rank == check["rank"] and exc.needed == check["of"]
        return ok, {"rank": exc.rank, "of": exc.needed}
    return False, "no abort"


def _base_agreement(job, check, rng):
    """The entry's own (Ostrogradsky) system against the Schmidt route, from one jet."""
    spec, params, F = job.spec, job.params, job.gauge
    jet = {q(1, 0): 0.2, q(1, 1): -0.3, q(1, 2): 0.5, q(1, 3): 0.1}
    init_o = {**ostro_initial_data(spec, jet, params), **params}
    traj_o = integrate_rk4(job.system, init_o, 0.0, 1.0, 1e-3)
    sys_s = assemble(schmidt_morse_family(spec, F))
    init_s = {**schmidt_initial_data(spec, F, jet, params), **params}
    traj_s = integrate_rk4(sys_s, init_s, 0.0, 1.0, 1e-3)
    return _within(float(np.max(np.abs(traj_o.column(q(1, 0)) - traj_s.column(q(1, 0))))), check)


CHECKS = {
    "form": _form,
    # the Schmidt-route forms; a kind of its own for per-kind timing
    "schmidt-form": _form,
    "implicit-forms": _implicit_forms,
    "nondegeneracy": _nondegeneracy,
    "pullback": lambda job, check, rng: (
        ostro_schmidt_pullback_check(job.spec, job.gauge, rng=rng) == check["expect"],
        check["expect"],
    ),
    "derive-ok": _derive_ok,
    "affine-symmetry": _affine_symmetry,
    "affine-symmetry-of-L": _affine_symmetry,
    "affine-integrability": lambda job, check, rng: _as_expected(
        affine_integrability_check(*job.affine, order=check["order"], rng=rng), check
    ),
    "affine-solve": _affine_solve,
    "morse-rank": _morse_rank,
    "hj": _hj,
    "hj-target": _hj_target,
    "hj-canonical": lambda job, check, rng: _constancy(
        job.derived("hamiltonian"), job.gamma("schmidt_W_canonical"), check, rng, job.boxes
    ),
    "beam-quartic": _beam_quartic,
    "drift": lambda job, check, rng: _within(energy_drift(job.trajectory), check),
    "degenerate-abort": _degenerate_abort,
    "relatedness": lambda job, check, rng: _verdict(job.relatedness(job.gamma(rng=rng), check["tol"])),
    "relatedness-schmidt": lambda job, check, rng: _verdict(
        job.relatedness(job.gamma("schmidt_W_canonical"), check["tol"])
    ),
    "base-agreement": _base_agreement,
}


def run_check(entry: CorpusEntry, check: dict, seed: int = 0) -> dict:
    """Execute one corpus check; returns {name, provenance, passed, observed}."""
    run = CHECKS.get(check["kind"])
    if run is None:
        raise ValueError(f"unknown check kind {check['kind']}")
    passed, observed = run(entry.job, check, make_rng(seed))
    return {"name": check["name"], "provenance": check["provenance"], "passed": passed, "observed": observed}


def run_entry(entry: CorpusEntry, seed: int = 0) -> dict:
    with job_scope():
        results = [run_check(entry, c, seed=seed) for c in entry.checks]
    return {
        "id": entry.id,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }


def run_all(entries, seed: int = 0) -> dict:
    """Run the given corpus entries, in order, and report them together."""
    reports = [run_entry(e, seed=seed) for e in entries]
    return {
        "entries": reports,
        "passed": all(r["passed"] for r in reports),
        "count": len(reports),
    }

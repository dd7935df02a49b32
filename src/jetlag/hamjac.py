"""Hamilton-Jacobi verification: rank conditions, residual systems for every
pipeline variant, the lift of trajectories through a one-form and their
relatedness, the auxiliary-section local vector field test, and the
affine-in-acceleration specializations.

Residuals substitute momenta by the candidate one-form, differentiate the
energy through the substitution, and sample; fiber multipliers are resolved
numerically at each sample point from the constraint block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import diff, linear_coefficients, potential_from_closed_form
from .dynamics import NEWTON_STARTS, NEWTON_STEPS, NEWTON_TOL, ImplicitSystem, Trajectory, numeric_rank
from .errors import (
    ArityMismatchError,
    ChartMismatchError,
    ClosureError,
    DomainEvalError,
    NotLinearError,
    NumericFailureError,
)
from .expr import Expr, add, coerce, lambdify, mul, neg, simplify, substitute, values_of
from .families import MorseFamily
from .sampling import eval_rows, make_rng, sample_rows
from .symbols import p, q

SAMPLES = 50  # points per sampled check


@dataclass(frozen=True)
class ClosedOneForm:
    """Candidate generating form: its components on the base chart.

    coordinates are the base chart; momentum_slots name the conjugate symbols
    each component replaces when the form is fed into an energy function.
    """

    coordinates: tuple
    momentum_slots: tuple
    components: tuple

    def __post_init__(self):
        if len(self.coordinates) != len(self.momentum_slots):
            raise ArityMismatchError("coordinates and momentum slots must pair up")
        if len(self.components) != len(self.coordinates):
            raise ArityMismatchError("one component per coordinate required")

    @classmethod
    def from_potential(cls, W: Expr, coordinates, momentum_slots) -> "ClosedOneForm":
        """The gradient of W, differentiated here, before any sampling."""
        W = simplify(W)
        return cls(tuple(coordinates), tuple(momentum_slots), tuple(diff(W, x) for x in coordinates))

    @classmethod
    def from_components(
        cls,
        components,
        coordinates,
        momentum_slots,
        rng=None,
        boxes=None,
        guards=(),
        tol=1e-9,
    ) -> "ClosedOneForm":
        """The form of the given components, whose closure is checked by sampling."""
        components = tuple(simplify(coerce(c)) for c in components)
        form = cls(tuple(coordinates), tuple(momentum_slots), components)
        report = form.closure_report(rng=rng, boxes=boxes, guards=guards, tol=tol)
        if not report.passed:
            raise ClosureError(report.details["worst_pair"], report.overall_sup)
        return form

    def substitution(self) -> dict:
        return dict(zip(self.momentum_slots, self.components))

    def closure_report(self, rng=None, boxes=None, guards=(), tol=1e-9) -> "ResidualReport":
        comps = self.components
        coords = self.coordinates
        equations = []
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                r = simplify(add(diff(comps[i], coords[j]), neg(diff(comps[j], coords[i]))))
                equations.append((f"closure[{coords[i]},{coords[j]}]", r))
        report = _sample_equations(
            "closure",
            equations,
            list(coords),
            tol=tol,
            rng=rng,
            boxes=boxes,
            guards=guards,
            probe=comps,
        )
        worst = max(report.sup_norms, key=lambda k: report.sup_norms[k], default="")
        report.details["worst_pair"] = worst
        return report


def lift_trajectory(gamma: ClosedOneForm, traj: Trajectory, params=None) -> Trajectory:
    """The trajectory with its momentum columns overwritten by gamma(q) at
    every sample, with eval_expr's bits: the one lift of curves through a
    one-form.  params binds the symbols of gamma's components that are not
    columns."""
    missing = [s for s in gamma.coordinates + gamma.momentum_slots if s not in traj.columns]
    if missing:
        raise ChartMismatchError(f"trajectory misses columns {missing}")
    params = params or {}
    extra = [s for s in params if s not in traj.columns]
    components = lambdify(gamma.components, list(traj.columns) + extra)
    tail = [float(params[s]) for s in extra]
    slots = [traj.columns.index(m) for m in gamma.momentum_slots]
    values = traj.values.copy()
    lifted = [components(row + tail) for row in values.tolist()]
    values[:, slots] = np.reshape(lifted, (len(values), len(slots)))
    return Trajectory(list(traj.times), values, traj.columns)


@dataclass(frozen=True)
class SectionSigma:
    """Auxiliary section: one phase velocity per point over (coords, momenta)."""

    q_components: dict
    p_components: dict


@dataclass
class ResidualReport:
    label: str
    equations: list  # (name, Expr) pairs as instantiated
    tol: float
    samples: int
    sup_norms: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def overall_sup(self) -> float:
        return max(self.sup_norms.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.overall_sup <= self.tol

    def record(self, names, values):
        """Fold each equation's sup of |value| over the rows into sup_norms;
        an equation with no rows keeps no sup."""
        for name, v in zip(names, values):
            if len(v):
                self.sup_norms[name] = max(self.sup_norms.get(name, 0.0), float(np.max(np.abs(v))))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "tol": self.tol,
            "samples": self.samples,
            "equations": [
                {"name": name, "expr": str(e), "sup": self.sup_norms.get(name)}
                for name, e in self.equations
            ],
            "overall_sup": self.overall_sup,
            "passed": bool(self.passed),
            "details": dict(sorted(self.details.items())),
        }


def _draw_rows(coordinates, exprs, samples, rng, probe=(), exclude=(), boxes=None, guards=()):
    """The sorted symbols of coordinates, exprs and probe, less exclude, and
    samples rows over them (sampling.sample_rows, boxes and guards passed
    on) at which every probe expression evaluates."""
    symbols = sorted(set(coordinates).union(*(e.free for e in [*exprs, *probe])) - set(exclude))
    return symbols, sample_rows(symbols, samples, make_rng(rng), boxes=boxes, guards=guards, probe_exprs=list(probe))


def _sample_equations(
    label,
    equations,
    coordinates,
    tol,
    rng=None,
    boxes=None,
    guards=(),
    probe=(),
):
    symbols, rows = _draw_rows(
        coordinates, [e for _, e in equations], SAMPLES, rng, probe, boxes=boxes, guards=guards
    )
    report = ResidualReport(label, list(equations), tol, SAMPLES)
    report.record([name for name, _ in equations], eval_rows([e for _, e in equations], symbols, rows))
    return report


def morse_rank_check(mf: MorseFamily, points) -> ResidualReport:
    """Rank of the fiber-criticality Jacobian [d2E/dl dx | d2E/dl dl].

    Maximal rank (= number of fibers) at every point means the constraint
    block cuts out the generated set transversally.
    """
    total = mf.total_energy
    fibers = list(mf.all_fibers)
    columns = list(mf.base.roster) + fibers
    entries = [diff(g, c) for g in (diff(total, lam) for lam in fibers) for c in columns]
    symbols = sorted(set().union(*(e.free for e in entries)))
    rows = [values_of(symbols, at) for at in points]
    needed = len(fibers)
    rows = np.array(rows, dtype=float).reshape(len(rows), len(symbols))
    values = eval_rows(entries, symbols, rows)
    blocks = np.array(values, dtype=float).T.reshape(len(rows), needed, len(columns))
    ranks = [numeric_rank(block) for block in blocks.tolist()]
    report = ResidualReport("morse-rank", [], tol=0.0, samples=len(rows))
    report.details["ranks"] = ranks
    report.details["needed"] = needed
    report.sup_norms["rank deficit"] = float(needed - min(ranks, default=needed))
    return report


def _lstsq_rows(a, b):
    """Least-squares solutions of a[i] x = b[i] for blocks a (n, m, k) and
    right-hand sides b (n, m), with each row's max |a[i] x - b[i]|.

    When every row has the same block (parameters boxed to single values),
    one multi-RHS lstsq serves all rows; it equals the per-row solves bit for
    bit, as does the stacked matrix-vector product for the residual.
    """
    n, _, k = a.shape
    if n and (a == a[0]).all():
        sol, *_ = np.linalg.lstsq(a[0], b.T, rcond=None)
        x = sol.T
    else:
        x = np.array([np.linalg.lstsq(ai, bi, rcond=None)[0] for ai, bi in zip(a, b)]).reshape(n, k)
    fit = (a @ x[:, :, None])[..., 0]
    return x, np.max(np.abs(fit - b), axis=1)


class _FiberSolver:
    """Numeric fiber resolution at a block of sample rows: least squares when
    the constraint block is linear, Newton from several starts otherwise.

    Its Newton iteration is not dynamics._MultiplierSolver's, on purpose:
    hj_residual reports fiber consistency as a residual, where an RK4 solve
    must abort.  So it takes least-squares steps (a singular Jacobian is no
    error; hj_residual passes one fiber equation per fiber, so the Jacobian
    is square), stops a start on a vanishing step, skips a start that
    leaves the domain or overflows, keeps the best residual over its starts
    and raises only when no start gives one.
    """

    def __init__(self, fiber_eqs, fibers, symbols):
        self.fibers = list(fibers)
        self.symbols = list(symbols)  # the columns of the rows to solve at
        self.eqs = [simplify(e) for e in fiber_eqs]
        self.linear = True
        if not self.fibers:
            return
        try:
            matrix, residue = linear_coefficients(self.eqs, self.fibers)
        except NotLinearError:
            self.linear = False
            unknowns = self.symbols + self.fibers
            self._g = lambdify(self.eqs, unknowns)
            self._jac = lambdify([diff(e, m) for e in self.eqs for m in self.fibers], unknowns)
            return
        self.entries = [e for row in matrix for e in row] + list(residue)

    def solve_rows(self, rows):
        """Returns (fiber values, one row per row; consistency residual per row)."""
        n, k = len(rows), len(self.fibers)
        if not self.fibers:
            return np.empty((n, 0)), np.zeros(n)
        if not self.linear:
            lam = np.empty((n, k))
            consistency = np.empty(n)
            for i, row in enumerate(rows.tolist()):
                lam[i], consistency[i] = self._newton(row)
            return lam, consistency
        m = len(self.eqs)
        values = eval_rows(self.entries, self.symbols, rows)
        a = np.stack(values[: m * k], axis=1).reshape(n, m, k)
        return _lstsq_rows(a, -np.stack(values[m * k :], axis=1))

    def _newton(self, row):
        """Fiber values at one point (row: a value per symbol) and the
        residual they leave."""
        best = None
        shape = (len(self.eqs), len(self.fibers))
        for start in NEWTON_STARTS:
            lam = np.full(len(self.fibers), start)
            try:
                for _ in range(NEWTON_STEPS):
                    g = np.array(self._g(row + lam.tolist()))
                    if np.max(np.abs(g)) <= NEWTON_TOL:
                        return lam, 0.0
                    jac = np.array(self._jac(row + lam.tolist())).reshape(shape)
                    sol, *_ = np.linalg.lstsq(jac, -g, rcond=None)
                    if not np.all(np.isfinite(sol)) or np.max(np.abs(sol)) < 1e-15:
                        break
                    lam = lam + sol
                g = np.array(self._g(row + lam.tolist()))
            except (DomainEvalError, NumericFailureError):
                continue  # the start left the domain or overflowed: try the next one
            residual = float(np.max(np.abs(g)))
            if best is None or residual < best[1]:
                best = (lam, residual)
            if residual <= NEWTON_TOL:
                return best
        if best is None:
            at = ", ".join(f"{s}={v!r}" for s, v in zip(self.symbols, row))
            raise NumericFailureError(f"fiber Newton iteration failed from every start at {at}")
        return best


def hj_residual(
    mf: MorseFamily,
    gamma: ClosedOneForm,
    rng=None,
    tol: float = 1e-8,
    samples: int = SAMPLES,
    boxes=None,
    guards=(),
) -> ResidualReport:
    """Differential of the energy on the image of the one-form.

    Substitutes momenta by the form, differentiates in every remaining base
    coordinate, and solves the fiber block numerically at each sample point;
    the report separates coordinate residuals from fiber consistency.
    """
    positions = tuple(mf.base.positions)
    if tuple(gamma.coordinates) != positions:
        raise ChartMismatchError(
            f"one-form lives on {gamma.coordinates}, family base has {positions}"
        )
    subs = gamma.substitution()
    total = simplify(substitute(mf.total_energy, subs))
    fibers = list(mf.all_fibers)
    base_eqs = [
        (f"d/d{x}", diff(total, x))
        for x in positions
    ]
    fiber_eqs = [
        (f"fiber {lam}", diff(total, lam))
        for lam in fibers
    ]
    coord_symbols, rows = _draw_rows(
        positions, [e for _, e in base_eqs + fiber_eqs], samples, rng, gamma.components, fibers,
        boxes=boxes, guards=guards,
    )
    solver = _FiberSolver([e for _, e in fiber_eqs], fibers, coord_symbols)
    report = ResidualReport(mf.label or "hj", base_eqs + fiber_eqs, tol, samples)
    lam, consistency = solver.solve_rows(rows)
    consistency_sup = float(np.max(consistency, initial=0.0))
    values = eval_rows([e for _, e in base_eqs], coord_symbols + fibers, np.hstack([rows, lam]))
    report.record([name for name, _ in base_eqs], values)
    report.details["coordinate_sup"] = report.overall_sup
    for name, _ in fiber_eqs:
        report.sup_norms[name] = consistency_sup
    report.details["fiber_consistency"] = consistency_sup
    return report


def hj_residual_nondeg(
    H: Expr,
    gamma: ClosedOneForm,
    rng=None,
    tol: float = 1e-8,
    samples: int = SAMPLES,
    boxes=None,
    guards=(),
) -> ResidualReport:
    """d(H on the image of the form): partials in every base coordinate plus a
    sampled constancy spread of the composed Hamiltonian."""
    subs = gamma.substitution()
    composed = simplify(substitute(H, subs))
    leftover = {
        s for s in composed.free if s in set(gamma.momentum_slots)
    }
    if leftover:
        raise ChartMismatchError(f"Hamiltonian momenta {sorted(leftover)} not covered by the form")
    equations = [(f"d/d{x}", diff(composed, x)) for x in gamma.coordinates]
    symbols, rows = _draw_rows(
        gamma.coordinates, [], samples, rng, [*gamma.components, composed], boxes=boxes, guards=guards
    )
    report = ResidualReport("hj-explicit", equations, tol, samples)
    values, *partials = eval_rows([composed] + [e for _, e in equations], symbols, rows)
    report.record([name for name, _ in equations], partials)
    report.details["constancy_spread"] = float(np.max(values) - np.min(values)) if len(values) else 0.0
    report.details["composed_mean"] = float(np.mean(values)) if len(values) else 0.0
    return report


def gamma_relatedness(
    sys: ImplicitSystem,
    gamma: ClosedOneForm,
    traj: Trajectory,
    tol: float = 1e-5,
    params: dict | None = None,
) -> ResidualReport:
    """Lift a trajectory through the form, its momenta replaced by gamma(q),
    and test the full implicit system on it.

    Momentum velocities come from differentiating the form along the curve
    (chain rule on central finite differences of the samples).  At each
    lifted state, one function compiled here evaluates the right-hand side
    and the constraints at the solver's multipliers.
    """
    if len(traj.times) < 5:
        raise NumericFailureError("trajectory too short for finite differencing (< 5 samples)")
    times = traj.times
    h = times[1] - times[0]
    if np.any(np.abs(np.diff(times) - h) > 1e-12 * max(1.0, abs(h))):
        raise NumericFailureError("relatedness check needs a uniform time grid")
    params = dict(params or {})
    lifted = lift_trajectory(gamma, traj, params)
    solver = sys.solver
    param_vec = values_of(solver.params, params)
    field = lambdify([*(sys.rhs[s] for s in sys.states), *sys.constraints], solver.all_symbols)
    states = np.stack([lifted.column(s) for s in sys.states], axis=1)
    values = []
    with np.errstate(invalid="ignore"):  # see dynamics._solve_lines
        for row in states[1:-1].tolist():
            values.append(field(row + solver.multipliers(row, param_vec, None) + param_vec))
    values = np.array(values)
    n = len(sys.states)
    fd = (states[2:] - states[:-2]) / (2.0 * h)
    residuals = np.abs(np.hstack([fd - values[:, :n], values[:, n:]]))
    names = [f"dot[{s}]" for s in sys.states] + [f"constraint[{i}]" for i in range(len(sys.constraints))]
    report = ResidualReport("gamma-relatedness", [], tol, len(times) - 2)
    report.record(names, residuals.T)
    return report


def local_vf_residual(
    sigma: SectionSigma,
    gamma: ClosedOneForm,
    rng=None,
    tol: float = 1e-8,
    boxes=None,
    guards=(),
) -> ResidualReport:
    """Self-consistency of an auxiliary section along the form.

    The section picks one phase velocity per point; transporting the form
    along its base part must reproduce the fiber part.  Residuals are the full
    chain-rule transport minus the prescribed fiber components.
    """
    coords = gamma.coordinates
    slots = gamma.momentum_slots
    if set(sigma.q_components) != set(coords) or set(sigma.p_components) != set(slots):
        raise ArityMismatchError("section components must cover the chart exactly")
    subs = gamma.substitution()
    comps = dict(zip(slots, gamma.components))
    equations = []
    for slot in slots:
        transport = None
        for x in coords:
            piece = mul(diff(comps[slot], x), simplify(substitute(sigma.q_components[x], subs)))
            transport = piece if transport is None else add(transport, piece)
        target = simplify(substitute(sigma.p_components[slot], subs))
        equations.append((f"transport[{slot}]", simplify(add(transport, neg(target)))))
    return _sample_equations(
        "local-vector-field",
        equations,
        list(coords),
        tol=tol,
        rng=rng,
        boxes=boxes,
        guards=guards,
        probe=gamma.components,
    )


# ---------------------------------------------------------------------------
# affine-in-acceleration specializations
# ---------------------------------------------------------------------------


def affine_symmetry_check(f, rng=None, tol: float = 1e-8) -> ResidualReport:
    """Velocity-gradient symmetry of the affine coefficients.

    Requires df_A/dq1^B to be symmetric in (A, B); the gradient of a scalar
    always passes, rotational couplings fail.
    """
    f = [coerce(x) for x in f]
    n = len(f)
    equations = []
    for a in range(n):
        for b in range(a + 1, n):
            r = simplify(
                add(diff(f[a], q(b + 1, 1)), neg(diff(f[b], q(a + 1, 1))))
            )
            equations.append((f"symmetry[{a + 1},{b + 1}]", r))
    coords = sorted(set().union(*(e.free for e in f)) | set())
    return _sample_equations("affine-symmetry", equations, coords, tol=tol, rng=rng)


def affine_integrability_check(f, g, order: int = 2, rng=None, tol: float = 1e-8) -> ResidualReport:
    """Displayed compatibility criteria for affine-in-top-derivative systems."""
    f = [coerce(x) for x in f]
    g = coerce(g)
    n = len(f)
    equations = []
    if order == 2:
        # dg/dq0^B - d2g/(dq1^B dq0^A) q1^A + d2f_C/(dq0^B dq0^A) q1^C q1^A = 0
        for b in range(1, n + 1):
            total = diff(g, q(b, 0))
            for a in range(1, n + 1):
                total = add(total, neg(mul(diff(diff(g, q(b, 1)), q(a, 0)), q(a, 1))))
                for c in range(1, n + 1):
                    total = add(
                        total,
                        mul(
                            diff(diff(f[c - 1], q(b, 0)), q(a, 0)),
                            q(c, 1),
                            q(a, 1),
                        ),
                    )
            equations.append((f"integrability[{b}]", simplify(total)))
    elif order == 3:
        # d2g/(dq0^A dq1^B) q1^A + d3f_B/(dq0^A dq1^D dq1^C) q2^D q2^C q1^A
        #   - d2f_B/(dq1^C dq1^A) q2^C q2^A - dg/dq0^B = 0
        for b in range(1, n + 1):
            total = neg(diff(g, q(b, 0)))
            for a in range(1, n + 1):
                total = add(total, mul(diff(diff(g, q(b, 1)), q(a, 0)), q(a, 1)))
                for c in range(1, n + 1):
                    total = add(
                        total,
                        neg(
                            mul(
                                diff(diff(f[b - 1], q(c, 1)), q(a, 1)),
                                q(c, 2),
                                q(a, 2),
                            )
                        ),
                    )
                    for d in range(1, n + 1):
                        total = add(
                            total,
                            mul(
                                diff(diff(diff(f[b - 1], q(a, 0)), q(d, 1)), q(c, 1)),
                                q(d, 2),
                                q(c, 2),
                                q(a, 1),
                            ),
                        )
            equations.append((f"compatibility[{b}]", simplify(total)))
    else:
        raise ValueError("order must be 2 or 3")
    coords = sorted(set().union(*(e.free for e in f)) | g.free)
    return _sample_equations("affine-integrability", equations, coords, tol=tol, rng=rng)


@dataclass
class AffineSolution:
    form: ClosedOneForm
    closure: ResidualReport
    potential: Expr | None


def affine_hj_solve(
    f, g, order: int = 2, rng=None, tol: float = 1e-9, require_closed: bool = True
) -> AffineSolution:
    """Direct gradient construction of the candidate form for affine systems.

    Components come straight from the reduced gradient system; closure is
    verified (symbolically where it simplifies to zero, numerically
    otherwise).  Polynomial components integrate to a scalar potential by
    exact ray integration.
    """
    f = [coerce(x) for x in f]
    g = coerce(g)
    n = len(f)
    if order == 2:
        coords = tuple(q(a, 0) for a in range(1, n + 1)) + tuple(q(a, 1) for a in range(1, n + 1))
        slots = tuple(p(a, 0) for a in range(1, n + 1)) + tuple(p(a, 1) for a in range(1, n + 1))
        comps = []
        for b in range(1, n + 1):
            total = diff(g, q(b, 1))
            for a in range(1, n + 1):
                total = add(total, neg(mul(diff(f[a - 1], q(b, 0)), q(a, 1))))
            comps.append(simplify(total))
        comps.extend(simplify(x) for x in f)
    elif order == 3:
        coords = tuple(
            q(a, lvl) for lvl in range(3) for a in range(1, n + 1)
        )
        slots = tuple(p(a, lvl) for lvl in range(3) for a in range(1, n + 1))
        comps = []
        for b in range(1, n + 1):
            total = diff(g, q(b, 1))
            for a in range(1, n + 1):
                for c in range(1, n + 1):
                    total = add(
                        total,
                        mul(
                            diff(diff(f[b - 1], q(a, 1)), q(c, 1)),
                            q(a, 2),
                            q(c, 2),
                        ),
                    )
            comps.append(simplify(total))
        for b in range(1, n + 1):
            total = None
            for c in range(1, n + 1):
                piece = neg(mul(diff(f[b - 1], q(c, 1)), q(c, 2)))
                total = piece if total is None else add(total, piece)
            comps.append(simplify(total))
        comps.extend(simplify(x) for x in f)
    else:
        raise ValueError("order must be 2 or 3")

    form = ClosedOneForm(tuple(coords), tuple(slots), tuple(comps))
    closure = form.closure_report(rng=rng, tol=tol)
    if not closure.passed and require_closed:
        raise ClosureError(closure.details["worst_pair"], closure.overall_sup)
    potential = None
    if closure.passed:
        try:
            potential = potential_from_closed_form(comps, coords)
        except NotLinearError:
            potential = None
    return AffineSolution(form, closure, potential)

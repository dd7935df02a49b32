"""Runnable form of Morse families: implicit systems, multiplier resolution,
fixed-step RK4 with constraint solving.

Fixed work is done once.  Each ``ImplicitSystem`` builds its multiplier
solver (linear split of the constraints and compiled callables) on first
use and keeps it.  A linear constraint block whose entries are free of the
states is evaluated and rank-checked once per parameter vector.  Per point
(every RK4 stage, every relatedness sample) the residue is evaluated and
checked, a state-dependent block is evaluated and rank-checked, and the
multipliers are solved for.

States, stages and multipliers are lists of Python floats, and every
floating-point operation runs in the order the numpy version of this module
used, so trajectories keep their bits.  A 1x1 block is ranked and solved
with floats; a 2x2 block is ranked without an SVD when a bound certifies
that it has full rank.  numpy is left only where LAPACK's bits are needed:
the SVD of any other block, and every solve of a 2x2 or larger block (an LU
in plain floats differs from LAPACK in the last bits).

A degenerate point (singular constraint Jacobian) aborts integration with a
typed error that carries the time and step; the toolkit treats that as
structure, not noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calculus import diff, linear_coefficients
from .errors import (
    ChartMismatchError,
    ConstraintViolationError,
    DomainEvalError,
    NotLinearError,
    NumericFailureError,
    SingularJacobianError,
    StepSizeError,
)
from .expr import Expr, lambdify, neg, simplify
from .families import MorseFamily

_RANK_TOL = 1e-10
NEWTON_STARTS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
NEWTON_STEPS = 50  # iterations per start
NEWTON_TOL = 1e-12  # max |g| at which an iterate counts as converged


@dataclass(frozen=True)
class ImplicitSystem:
    """q' = dE/dp, p' = -dE/dq plus algebraic constraints in the multipliers."""

    states: tuple
    rhs: dict
    constraints: tuple
    multipliers: tuple
    energy: Expr

    def __post_init__(self):
        if set(self.rhs) != set(self.states):
            raise ChartMismatchError("rhs must cover every state exactly once")

    @cached_property
    def solver(self) -> _MultiplierSolver:
        """The system's multiplier solver, built on first use and kept."""
        return _MultiplierSolver(self)


@dataclass
class Trajectory:
    times: list
    values: np.ndarray  # (len(times), len(columns)): one row per time
    columns: tuple  # the symbol of each column, in CSV order
    energies: np.ndarray | None = None  # the energy at every sample, when the run recorded it
    params: dict = field(default_factory=dict)  # {Symbol: value} of the run's parameters

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.times), len(self.columns)):
            raise ChartMismatchError("one row per time and one column per symbol required")
        if any(b - a <= 0 for a, b in zip(self.times, self.times[1:])):
            raise ChartMismatchError("times must be strictly increasing")

    def column(self, symbol):
        if symbol not in self.columns:
            raise ChartMismatchError(f"trajectory has no column {symbol}")
        return self.values[:, self.columns.index(symbol)].copy()

    def evaluate(self, exprs, params=None) -> np.ndarray:
        """Values of exprs at every sample, one row per time, with eval_expr's
        bits; params binds symbols that are not columns."""
        exprs, params = list(exprs), params or {}
        extra = [s for s in params if s not in self.columns]
        fn = lambdify(exprs, list(self.columns) + extra)
        tail = [float(params[s]) for s in extra]
        rows = [fn(row + tail) for row in self.values.tolist()]
        return np.array(rows, dtype=float).reshape(len(self.times), len(exprs))


def assemble(mf: MorseFamily) -> ImplicitSystem:
    """Differential part from the canonical pairing, constraints from fibers."""
    base = mf.base
    total = mf.total_energy
    rhs = {}
    for x, y in zip(base.positions, base.momenta):
        rhs[x] = diff(total, y)
        rhs[y] = simplify(neg(diff(total, x)))
    constraints = tuple(simplify(c) for c in mf.fiber_equations())
    return ImplicitSystem(
        states=tuple(base.positions) + tuple(base.momenta),
        rhs=rhs,
        constraints=constraints,
        multipliers=tuple(mf.all_fibers),
        energy=total,
    )


class _MultiplierSolver:
    """Resolve constraint multipliers at a state point.

    Linear constraints solve directly (square solve, or least squares with a
    full-column-rank check); nonlinear ones go through Newton with warm
    starting.  Singular Jacobians raise with the observed rank.  A linear
    block free of the states is evaluated and rank-checked once for the last
    parameter vector seen; a state-dependent one at every point.
    """

    def __init__(self, sys: ImplicitSystem):
        self.sys = sys
        self.n_mult = len(sys.multipliers)
        self.n_cons = len(sys.constraints)
        self.symbols = list(sys.states) + list(sys.multipliers)
        params = set()
        for e in list(sys.constraints) + [sys.rhs[s] for s in sys.states]:
            params |= {s for s in e.free if s not in self.symbols}
        self.params = sorted(params)
        self.all_symbols = self.symbols + self.params
        try:
            matrix, residue = linear_coefficients(sys.constraints, sys.multipliers)
            self.linear = True
            flat = [entry for row in matrix for entry in row]
            states = set(sys.states)
            self.constant = not any(entry.free & states for entry in flat)
            self._block_key = self._block = None
            self._matrix_fn = lambdify(flat, list(sys.states) + self.params)
            self._residue_fn = lambdify(residue, list(sys.states) + self.params)
        except NotLinearError:
            self.linear = False
            jac = [
                [diff(c, m) for m in sys.multipliers] for c in sys.constraints
            ]
            self._jac_fn = lambdify([e for row in jac for e in row], self.all_symbols)

    # the system compiled over all_symbols, each on first use and then kept
    @cached_property
    def rhs_fn(self):
        return lambdify([self.sys.rhs[s] for s in self.sys.states], self.all_symbols)

    @cached_property
    def cons_fn(self):
        return lambdify(list(self.sys.constraints), self.all_symbols)

    @cached_property
    def energy_fn(self):
        return lambdify([self.sys.energy], self.all_symbols)

    def param_vector(self, binding) -> list:
        """The parameter values in solver order, from a {Symbol: value} binding."""
        missing = [s for s in self.params if s not in binding]
        if missing:
            raise ConstraintViolationError(f"no value for parameter {missing[0]}")
        return [float(binding[s]) for s in self.params]

    def solve(self, state_vec, param_vec, warm=None) -> list:
        """Multipliers at a point, as a list of floats; state_vec and
        param_vec are lists of floats.  A constraint with no real value there
        (a negative number under a root, ln of a nonpositive one) is a
        numeric failure."""
        if self.n_mult == 0:
            return []
        try:
            if self.linear:
                return self._solve_linear(state_vec + param_vec, param_vec)
            if self.n_cons != self.n_mult:
                raise SingularJacobianError(self.n_cons, self.n_mult)
            # built lazily: the warm start almost always converges
            starts = ([v] * self.n_mult for v in NEWTON_STARTS)
            if warm is not None:
                starts = itertools.chain([list(warm)], starts)
            last_error = None
            for start in starts:
                try:
                    return self._newton(start, state_vec, param_vec)
                except (SingularJacobianError, NumericFailureError, DomainEvalError) as exc:
                    last_error = exc
            raise last_error
        except DomainEvalError as exc:
            raise NumericFailureError(f"constraint evaluation is complex or undefined: {exc}") from exc

    def _matrix(self, args, param_vec):
        """Checked constraint matrix at a point, with its rank: a 1x1 block as
        rows of floats, a larger one as an array."""
        key = tuple(param_vec) if self.constant else None
        if key is not None and key == self._block_key:
            return self._block
        rows = _rows(self._matrix_fn(args), self.n_mult)
        # a larger block goes to LAPACK, so it is converted once, not per solve
        block = (rows if len(rows) == 1 else np.array(rows), numeric_rank(rows))
        if key is not None:
            self._block_key, self._block = key, block
        return block

    def _solve_linear(self, args, param_vec):
        a, rank = self._matrix(args, param_vec)
        b = [-v for v in self._residue_fn(args)]
        if rank < self.n_mult:
            raise SingularJacobianError(rank, self.n_mult)
        if self.n_cons == self.n_mult:
            return _solve(a, b)
        b = np.array(b)
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.max(np.abs(a @ sol - b)) > 1e-9 * (1.0 + np.max(np.abs(b))):
            raise ConstraintViolationError("overdetermined multiplier system is inconsistent")
        return sol.tolist()

    def _newton(self, lam, state_vec, param_vec):
        n, m = len(state_vec), self.n_mult
        base = state_vec + lam + param_vec
        for _ in range(NEWTON_STEPS):
            base[n : n + m] = lam
            g = self.cons_fn(base)
            if max(map(abs, g)) <= NEWTON_TOL:
                return lam
            j = _rows(self._jac_fn(base), m)
            rank = numeric_rank(j)
            if rank < m:
                raise SingularJacobianError(rank, m)
            lam = [x - dx for x, dx in zip(lam, _solve(j, g))]
        raise NumericFailureError("multiplier Newton iteration did not converge")


def _rows(flat, n_cols) -> list:
    """A row-major flat list as a list of rows of n_cols entries."""
    return [flat[i : i + n_cols] for i in range(0, len(flat), n_cols)]


def numeric_rank(a) -> int:
    """Numeric rank of a finite matrix, given as a sequence of rows: the
    count of its singular values above _RANK_TOL * max(1, max |a_ij|), as
    np.linalg.matrix_rank gives it.

    jetlag's one rank rule, also used by ostro.nondegeneracy,
    hamjac.morse_rank_check and schmidt's gauge condition.

    For a 1x1 block the single singular value is |a|, so the comparison is
    made directly.  A 2x2 block that _full_rank_2x2 certifies has rank 2;
    any other block takes an SVD.
    """
    if len(a) == 1 and len(a[0]) == 1:
        x = abs(float(a[0][0]))
        return int(x > _RANK_TOL * max(1.0, x))
    if len(a) == 2 and len(a[0]) == 2 and _full_rank_2x2(*a[0], *a[1]):
        return 2
    a = np.asarray(a, dtype=float)
    spectral = float(np.max(np.abs(a))) if a.size else 0.0
    return int(np.linalg.matrix_rank(a, tol=_RANK_TOL * max(1.0, spectral)))


def _full_rank_2x2(a, b, c, d) -> bool:
    """Whether LAPACK's smaller singular value of [[a, b], [c, d]] is
    certainly above the rank tolerance, without an SVD.

    sigma_2 = |det| / sigma_1 >= |det| / ||A||_F.  The computed det is within
    2^-51 (|ad| + |bc|) of the exact one, and LAPACK's singular values lie
    within a small multiple of 2^-53 ||A|| of the exact ones; the margin
    2^-40 ||A||_F covers that and the rounding of the bound.  Once
    ||A||_F > tol >= 1e-10, underflow costs less than either margin.  A
    zero, non-finite or overflowing norm gives False, and so does any case
    the margins cannot settle: the caller then takes the SVD.
    """
    tol = _RANK_TOL * max(1.0, abs(a), abs(b), abs(c), abs(d))
    fro = math.sqrt(a * a + b * b + c * c + d * d)
    if not tol < fro < math.inf:
        return False
    ad, bc = a * d, b * c
    lower = (abs(ad - bc) - 2.0**-51 * (abs(ad) + abs(bc))) / fro - 2.0**-40 * fro
    return lower > tol


def _solve(a, b) -> list:
    """np.linalg.solve(a, b) for a nonsingular square a (a sequence of
    rows), as a list.

    A 1x1 block is a float division, which gives the same bits as LAPACK.
    """
    if len(a) == 1:
        return [float(b[0]) / float(a[0][0])]
    return np.linalg.solve(a, b).tolist()


def resolve_multipliers(sys: ImplicitSystem, at: dict, warm=None) -> dict:
    """Multiplier values at one point; raises SingularJacobianError when the
    constraint Jacobian cannot pin them down."""
    solver = sys.solver
    state_vec = [float(at[s]) for s in sys.states]
    param_vec = solver.param_vector(at)
    warm_vec = None
    if warm is not None:
        warm_vec = [float(warm[m]) for m in sys.multipliers]
    sol = solver.solve(state_vec, param_vec, warm_vec)
    return {m: float(v) for m, v in zip(sys.multipliers, sol)}


def integrate_rk4(sys: ImplicitSystem, init: dict, t0: float, t1: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 on the multiplier-resolved vector field.

    The system's solver is built once (see ``ImplicitSystem.solver``) and
    keeps the compiled right-hand side, constraints and energy for every run.
    Multipliers are solved for at every stage (warm-started), reusing the
    checked constraint matrix when it is free of the states.  Samples carry
    the resolved multiplier values and the energy.

    (t1 - t0)/h must be a whole number of steps to within 1e-9 relative;
    otherwise StepSizeError.  A singular constraint Jacobian raises
    SingularJacobianError carrying the last good time and the failing step
    (0 for the initial data).
    """
    if h <= 0:
        raise StepSizeError(f"step size must be positive, got {h}")
    if t1 < t0:
        raise StepSizeError("t1 must be >= t0")
    ratio = (t1 - t0) / h
    if not math.isfinite(ratio):
        raise StepSizeError(f"no step count for t0={t0}, t1={t1}, h={h}")
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * max(1.0, ratio):
        raise StepSizeError(
            f"t1 - t0 = {t1 - t0:g} is not a whole number of steps of {h:g} ({ratio:.12g})"
        )

    solver = sys.solver
    states = list(sys.states)
    missing = [s for s in states if s not in init]
    if missing:
        raise ConstraintViolationError(f"initial data misses state values for {missing}")
    param_vec = solver.param_vector(init)
    rhs_fn, cons_fn, energy_fn = solver.rhs_fn, solver.cons_fn, solver.energy_fn

    y = [float(init[s]) for s in states]
    try:
        warm = solver.solve(y, param_vec)
    except SingularJacobianError as exc:
        raise exc.located(t0, 0) from None
    g0 = cons_fn(y + warm + param_vec)
    if g0 and max(abs(v) for v in g0) > 1e-9:
        raise ConstraintViolationError(
            f"initial data violates constraints by {max(abs(v) for v in g0):g}"
        )

    def vector_field(yv, warm_lam):
        lam = solver.solve(yv, param_vec, warm_lam)
        return rhs_fn(yv + lam + param_vec), lam

    times = [t0]
    rows = []
    energies = []

    def record(yv, lam):
        rows.append(yv + lam)
        try:
            energies.append(energy_fn(rows[-1] + param_vec)[0])
        except (DomainEvalError, NumericFailureError):  # no finite energy here
            energies.append(float("nan"))

    record(y, warm)
    t = t0
    hh, h6 = 0.5 * h, h / 6.0
    # overflow in a numpy solve surfaces through the explicit finite checks,
    # not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            try:
                k1, lam1 = vector_field(y, warm)
                k2, lam2 = vector_field([a + hh * b for a, b in zip(y, k1)], lam1)
                k3, lam3 = vector_field([a + hh * b for a, b in zip(y, k2)], lam2)
                k4, lam4 = vector_field([a + h * b for a, b in zip(y, k3)], lam3)
                y = [
                    a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                    for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
                ]
                if not all(map(math.isfinite, y)):
                    raise NumericFailureError("state became non-finite during integration")
                lam_end = solver.solve(y, param_vec, lam4)
            except SingularJacobianError as exc:
                raise exc.located(t, step) from None
            t += h
            times.append(t)
            record(y, lam_end)
            warm = lam_end

    columns = tuple(sys.states) + tuple(sys.multipliers)
    return Trajectory(times, rows, columns, np.array(energies), dict(zip(solver.params, param_vec)))


def energy_drift(traj: Trajectory) -> float:
    """max |E(t) - E(t0)| / (1 + |E(t0)|) along the run."""
    energies = traj.energies
    if energies is None or len(energies) == 0:
        return 0.0
    e0 = energies[0]
    return float(np.max(np.abs(energies - e0)) / (1.0 + abs(e0)))


def constraint_sup(sys: ImplicitSystem, traj: Trajectory) -> float:
    """max |g| over the samples of an integrate_rk4 run of sys, with the
    solver's compiled constraints and the run's parameters."""
    solver = sys.solver
    if traj.columns != tuple(sys.states) + tuple(sys.multipliers):
        raise ValueError("trajectory columns are not the system's states and multipliers")
    param_vec = [traj.params[s] for s in solver.params]
    values = (v for row in traj.values.tolist() for v in solver.cons_fn(row + param_vec))
    return max(map(abs, values), default=0.0)


def trajectory_csv(traj: Trajectory) -> str:
    """Canonical CSV: t, roster columns, E; 17 significant digits."""
    header = ["t"] + [str(s) for s in traj.columns] + ["E"]
    lines = [",".join(header)]
    energies = traj.energies
    for i, (t, row) in enumerate(zip(traj.times, traj.values.tolist())):
        cells = [_fmt(t)] + [_fmt(v) for v in row]
        cells.append(_fmt(energies[i]) if energies is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"

"""Runnable form of Morse families: implicit systems, multiplier resolution,
fixed-step RK4 with constraint solving.

Fixed work is done once.  Each ``ImplicitSystem`` builds its multiplier
solver (linear split of the constraints and generated functions) on first
use and keeps it.  Per state (every RK4 stage state, every relatedness
sample) the residue is evaluated and checked, a state-dependent block is
evaluated and rank-checked, and the multipliers are solved for (a square
solve, by Newton when the constraints are nonlinear).  Each system holds
all of that in one generated body, after a prologue that evaluates and
rank-checks a linear constraint block free of the states once per call.  RK4 is one generated
loop per system, with the right-hand side's tape and the multiplier body
written into it once and the prologue before it: it solves each state's
multipliers once and carries them into that state's right-hand side and
the next solve, and evaluates the constraints and the energy at each sample
it records.

States, stages and multipliers are Python floats (local variables in the
generated loop, lists of floats elsewhere), and every floating-point
operation runs in the order the numpy version of this module used, so
trajectories keep their bits.  The generated code ranks a 1x1 block
inline, with numeric_rank's rule, and solves it with a float division; it
ranks a 2x2 block from its four floats when _full_rank_2x2 certifies full
rank, and calls numeric_rank only when the certificate fails.  numpy is
left only where LAPACK's bits are needed: the SVD of any other block, and
every solve of a 2x2 or larger block (an LU in plain floats differs from
LAPACK in the last bits).  One emitter, _solve_lines, writes every square
solve: a larger block's floats go into buffers that the solver keeps, and
LAPACK's gesv gufunc, the kernel behind np.linalg.solve, is called on them
directly; np.linalg.solve takes over when numpy lacks that private module
or the result is not finite.

A degenerate point (singular constraint Jacobian) aborts integration with a
typed error that carries the time and step; the toolkit treats that as
structure, not noise.  integrate_rk4 places it, from the rows the loop has
recorded, outside the generated loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction  # noqa: F401 - called by generated code
from functools import cached_property
from types import MethodType

import numpy as np

from .calculus import diff, linear_coefficients
from .errors import (
    ChartMismatchError,
    DomainEvalError,
    NotLinearError,
    NumericFailureError,
    SingularJacobianError,
    StepSizeError,
)
from .expr import Expr, define, frame, neg, simplify, step_lines, tape, values_of
from .expr import _apply_func, _nonfinite, _pow  # noqa: F401 - called by generated code
from .families import MorseFamily

_RANK_TOL = 1e-10
NEWTON_STARTS = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
NEWTON_STEPS = 50  # iterations per start
NEWTON_TOL = 1e-12  # max |g| at which an iterate counts as converged

try:  # the LAPACK gesv gufunc that np.linalg.solve calls after checking its inputs
    from numpy.linalg._umath_linalg import solve1 as _gesv
except ImportError:  # a private module: without it np.linalg.solve does the work
    _gesv = None


@dataclass(frozen=True)
class ImplicitSystem:
    """q' = dE/dp, p' = -dE/dq plus one algebraic constraint per multiplier,
    as a Morse family's fiber equations dS/dlambda = 0 give them."""

    states: tuple
    rhs: dict
    constraints: tuple
    multipliers: tuple
    energy: Expr

    def __post_init__(self):
        if set(self.rhs) != set(self.states):
            raise ChartMismatchError("rhs must cover every state exactly once")
        if len(self.constraints) != len(self.multipliers):
            raise ChartMismatchError("one constraint per multiplier required")

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
    constraint_sup: float | None = None  # max |g| over the samples, when the run recorded it

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

    It owns exactly two generated functions, each built on first use.
    multipliers(y, p, warm) gives the multipliers lam at a state: y and p
    are the state and parameter vectors as lists of floats and warm is the
    Newton warm start (or None); resolve_multipliers and
    hamjac.gamma_relatedness call it.  run(y, p, times, h, rows, energies)
    is integrate_rk4's step loop (see _run_source).  all_symbols orders the
    slots of both: the states, the multipliers, then the parameters.  A
    caller that evaluates more at a state, as gamma_relatedness evaluates
    the right-hand side and the constraints, compiles it over all_symbols.

    Both multipliers and run hold one generated body for the solve, chosen
    by self.linear, and its prologue: multipliers runs the prologue at the
    top of each call, run once before its first step.  Linear constraints
    solve directly, in straight-line code: the residue, a state-dependent
    block and its rank check, and the solve (see _linear_body).  A block
    free of the states is evaluated and rank-checked in the prologue.
    Nonlinear constraints go through Newton from the warm start, then fixed
    starts, each an iteration over the constraints and their Jacobian (see
    _newton_body).  Singular Jacobians raise with the observed rank.  Rank
    tests of 1x1 and 2x2 blocks are written into the body (_rank_lines).
    Both bodies write their square solve with _solve_lines: a 1x1 block is
    a float division, and a larger one fills the solver's own float64
    buffers, made on first use, and calls LAPACK's gesv on them; the
    prologue writes the entries that stay fixed.  A solve may meet a
    singular pivot, so multipliers and run are called with numpy's
    "invalid" flag ignored, as resolve_multipliers, integrate_rk4 and
    hamjac.gamma_relatedness call them.
    """

    def __init__(self, sys: ImplicitSystem):
        self.sys = sys
        self.n_mult = len(sys.multipliers)
        self.symbols = list(sys.states) + list(sys.multipliers)
        params = set()
        for e in [*sys.constraints, *(sys.rhs[s] for s in sys.states), sys.energy]:
            params |= {s for s in e.free if s not in self.symbols}
        self.params = sorted(params)
        self.all_symbols = self.symbols + self.params
        try:
            self._matrix, self._residue = linear_coefficients(sys.constraints, sys.multipliers)
        except NotLinearError:
            self.linear = self.constant = False
        else:
            self.linear = True
            flat = [entry for row in self._matrix for entry in row]
            states = set(sys.states)
            self.constant = self.n_mult > 0 and not any(entry.free & states for entry in flat)

    # compiled on first use and then kept
    @cached_property
    def multipliers(self):
        lam = ", ".join(f"x{len(self.sys.states) + j}" for j in range(self.n_mult))
        prologue, body = self._linear_body() if self.linear else self._newton_body("warm is not None")
        source = ["def multipliers(self, y, p, warm):", *(f"    {line}" for line in self._unpack() + prologue)]
        if not self.linear:
            source += ["    if warm is not None:", f"        [{lam}] = warm"]
        source += [f"    {line}" for line in body] + [f"    return [{lam}]"]
        return MethodType(define(source, globals()), self)

    @cached_property
    def run(self):
        return MethodType(define(self._run_source(), globals()), self)

    @cached_property
    def _buffers(self):
        """(A, B, X): the float64 matrix, right-hand side and solution of
        the square solves of size 2 or more, filled in place by the
        generated code."""
        m = self.n_mult
        return np.empty((m, m)), np.empty(m), np.empty(m)

    def _unpack(self):
        """The lines that bind the slots x<i> of the states and parameters,
        and the solve buffers A, B and X when the block is square and of
        size 2 or more."""
        states, params = range(len(self.sys.states)), range(len(self.symbols), len(self.all_symbols))
        lines = [f"[{', '.join(f'x{i}' for i in slots)}] = {v}" for v, slots in (("y", states), ("p", params))]
        return lines + (["A, B, X = self._buffers"] if self.n_mult >= 2 else [])

    def _linear_body(self):
        """(prologue, body): the lines of a linear system's multiplier solve.
        body, run after prologue, sets the multiplier slots x<n>, ...,
        x<n+m-1> from the state and parameter slots.

        One tape holds the block and the residue, in that order, so a
        shared subexpression is computed once and each part's steps come
        before its last output.  The lines check and raise in the order of
        separate evaluations: block, rank, residue (a domain error in either
        is a numeric failure), the rank test, then the square solve.  A
        block free of the states is evaluated, ranked and written into the
        solve's buffer by prologue; body keeps the rest.  The block's
        temporaries are named b<slot>, apart from the v<slot> that run's
        right-hand side reassigns at every stage, so that body reads the
        prologue's values.
        """
        n, m = len(self.sys.states), self.n_mult
        if not m:
            return [], []
        block = [e for row in self._matrix for e in row]
        steps, names = tape(block + self._residue, self.all_symbols), []
        lines, entries, block_raises = step_lines(steps, names, len(block), prefix="b")
        ranked = frame(lines, block_raises) + _rank_lines(entries, m)
        lines, residue, raises = step_lines(steps, names)
        if self.constant:
            prologue, body = _guard(ranked, block_raises), _guard(frame(lines, raises), raises)
        else:
            prologue, body = [], _guard(ranked + frame(lines, raises), block_raises or raises)
        body += [f"if rank < {m}:", f"    raise SingularJacobianError(rank, {m})"]
        fill, solve = _solve_lines(entries, [f"-{r}" for r in residue], [f"x{n + j}" for j in range(m)])
        return (prologue + fill, body + solve) if self.constant else (prologue, body + fill + solve)

    def _run_source(self):
        """Source of the generated RK4 loop run(y, p, times, h, rows,
        energies): from the initial state y and parameters p, it appends the
        states and multipliers at every time to rows, the energy there to
        energies, and returns the sup of |g| over those samples.

        One loop holds every state's multiplier solve and the right-hand
        side's tape, each written once: a step's four stages run as an inner
        loop whose stage number picks the update.  Every solve but the first
        is warm-started from the multiplier slots, which hold the solve
        before.  Stage 0 solves the step's start, the end of the step before
        (or the initial data), and records it (_record_lines).  The slope
        sum k1 + 2.0*k2 + 2.0*k3 + k4 accumulates left to right in k<i>, so
        every operation is the one that the list form of the step made.

        The loop neither locates a SingularJacobianError nor maps an
        OverflowError or ValueError of the right-hand side or the
        constraints: integrate_rk4 does both around the call, the first from
        the rows recorded so far.  A parameter that the right-hand side
        returns as it is gets its finiteness check once, before the loop,
        after the solve's prologue.
        """
        n, m = len(self.sys.states), self.n_mult
        xs = [f"x{i}" for i in range(n)]
        ys, ks = [f"y{i}" for i in range(n)], [f"k{i}" for i in range(n)]
        prologue, solve = self._linear_body() if self.linear else self._newton_body("step or stage")
        steps = tape([self.sys.rhs[s] for s in self.sys.states], self.all_symbols)
        lines, r, _ = step_lines(steps, [])
        params = {f"if x{i} - x{i} != 0.0: _nonfinite(x{i})" for i in range(len(self.symbols), len(self.all_symbols))}
        once = [line for line in lines if line in params]
        lines = [line for line in lines if line not in params]

        def assign(targets, values):
            return f"{', '.join(targets)} = {', '.join(values)}" if targets else "pass"

        stage = [
            *solve,
            "if stage == 0:",
            *(f"    {line}" for line in self._record_lines()),
            f"    rows.append([{', '.join(f'x{i}' for i in range(n + m))}])",
            "    energies.append(energy)",
            "    if step == last:",
            "        return sup",
            f"    {assign(ys, xs)}",
            *lines,
            "if stage < 3:",
            "    if stage:",
            f"        {assign(ks, (f'{k} + 2.0 * {v}' for k, v in zip(ks, r)))}",
            "    else:",
            f"        {assign(ks, r)}",
            "    c = h if stage == 2 else hh",
            f"    {assign(xs, (f'{y} + c * {v}' for y, v in zip(ys, r)))}",
            "else:",
            f"    {assign(xs, (f'{y} + h6 * ({k} + {v})' for y, k, v in zip(ys, ks, r)))}",
            f"    if {' or '.join(f'{x} - {x} != 0.0' for x in xs) or 'False'}:",
            '        raise NumericFailureError("state became non-finite during integration")',
        ]
        source = ["def run(self, y, p, times, h, rows, energies):"]
        source += [f"    {line}" for line in self._unpack() + prologue + once]
        source += ["    hh, h6 = 0.5 * h, h / 6.0", "    last = len(times) - 1", "    sup = 0.0"]
        source += ["    for step in range(last + 1):", "        for stage in (0, 1, 2, 3):"]
        return source + [f"            {line}" for line in stage]

    def _record_lines(self):
        """run's lines at a sample it records: sup becomes the largest of
        itself and each |g|, reported and not checked (the solve has just
        made g vanish, to rounding), and energy the energy, or nan where
        eval_expr would raise.  One tape holds the constraints, then the
        energy, split after the constraints' last output; its temporaries
        g<slot> stay apart from v<slot> and b<slot>.  A constraint's error
        propagates.  The energy's output may be a state's slot or a literal,
        so it is copied to a name of its own."""
        steps, names = tape([*self.sys.constraints, self.sys.energy], self.all_symbols), []
        lines, g, _ = step_lines(steps, names, self.n_mult, prefix="g")
        if g:
            lines.append(f"sup = max(sup, {', '.join(f'abs({v})' for v in g)})")
        energy_lines, (energy,), _ = step_lines(steps, names, prefix="g")
        return lines + [
            "try:",
            *(f"    {line}" for line in energy_lines),
            f"    energy = {energy}",
            "except (DomainEvalError, NumericFailureError, OverflowError, ValueError):",
            "    energy = math.nan",
        ]

    def _newton_body(self, warm):
        """(prologue, body): the lines of a nonlinear system's multiplier
        solve.  body runs Newton from the multiplier slots when the
        condition warm holds, then from each NEWTON_STARTS value in every
        slot, up to the first start that converges; it leaves its root in
        the slots x<n>, ..., x<n+m-1>.  prologue is empty.

        One tape holds the constraints, then the Jacobian row by row, so a
        subexpression they share is computed once.  A pass checks and raises
        in the order of separate evaluations: constraints, the convergence
        test, Jacobian, rank test, step.  A start fails on the first error
        it meets, or after NEWTON_STEPS passes; when every start fails, the
        last one's error is raised, a domain error as a numeric failure.
        """
        n, m = len(self.sys.states), self.n_mult
        jac = [diff(g, u) for g in self.sys.constraints for u in self.sys.multipliers]
        steps = tape(list(self.sys.constraints) + jac, self.all_symbols)
        lam, names = ", ".join(f"x{n + j}" for j in range(m)), []
        lines, g, raises = step_lines(steps, names, m)
        loop = frame(lines, raises)
        test = f"abs({g[0]})" if m == 1 else f"max({', '.join(f'abs({v})' for v in g)})"
        loop += [f"if {test} <= NEWTON_TOL:", "    break"]
        lines, entries, raises = step_lines(steps, names)
        loop += frame(lines, raises) + _rank_lines(entries, m)
        loop += [f"if rank < {m}:", f"    raise SingularJacobianError(rank, {m})"]
        fill, solve = _solve_lines(entries, g, [f"d{j}" for j in range(m)])
        loop += fill + solve + [f"{lam} = {', '.join(f'x{n + j} - d{j}' for j in range(m))}"]
        return [], [
            f"for start in (None, *NEWTON_STARTS) if {warm} else NEWTON_STARTS:",
            "    if start is not None:  # None stands for the warm start",
            f"        [{lam}] = [start] * {m}",
            "    try:",
            "        for _ in range(NEWTON_STEPS):",
            *(f"            {line}" for line in loop),
            "        else:",
            '            raise NumericFailureError("multiplier Newton iteration did not converge")',
            "        break",
            "    except (SingularJacobianError, NumericFailureError, DomainEvalError) as exc:",
            "        error = exc",
            "else:",
            "    if isinstance(error, DomainEvalError):",
            "        raise _constraint_failure(error) from error",
            "    raise error",
        ]


def _rank_lines(entries, m):
    """Lines that set rank to numeric_rank of the block with m columns whose
    row-major entries are named by entries: a 1x1 block is compared inline
    by numeric_rank's rule, and a 2x2 block that _full_rank_2x2 certifies
    has rank 2 without a call to numeric_rank.  Any other block goes to
    numeric_rank as rows."""
    if len(entries) == 1:
        return [f"x = abs({entries[0]})", "rank = int(x > _RANK_TOL * max(1.0, x))"]
    rows = ", ".join(f"[{', '.join(entries[i : i + m])}]" for i in range(0, len(entries), m))
    if len(entries) == 4 and m == 2:
        return [f"rank = 2 if _full_rank_2x2({', '.join(entries)}) else numeric_rank([{rows}])"]
    return [f"rank = numeric_rank([{rows}])"]


def _solve_lines(entries, b, out):
    """(fill, solve): lines that set the names out to the solution of the
    nonsingular square system with row-major entries and right-hand side
    b, with np.linalg.solve's bits.  A 1x1 system is a float division,
    which gives LAPACK's bits, and has no fill.  A larger one is solved on
    the solver's buffers: fill writes the entries into A (once for a block
    that stays fixed), and solve writes b into B.  LAPACK's gesv, the kernel
    behind np.linalg.solve without its Python-side checks, then writes X.  A
    singular pivot there gives nans and raises numpy's "invalid" flag, so
    callers run the lines with that flag ignored (np.errstate).
    np.linalg.solve takes over when the result is not finite, turning a
    singular pivot into LinAlgError, or when numpy lacks gesv."""
    m, names = len(out), ", ".join(out)
    if m == 1:
        return [], [f"{names} = {b[0]} / {entries[0]}"]
    gesv = "_gesv(A, B, out=X)" if _gesv is not None else "X[:] = np.linalg.solve(A, B)"
    return [f"A[{i // m}, {i % m}] = {e}" for i, e in enumerate(entries)], [
        f"{', '.join(f'B[{i}]' for i in range(m))} = {', '.join(b)}",
        gesv,
        f"{names} = X.tolist()",
        f"if {' or '.join(f'{x} - {x} != 0.0' for x in out)}:",
        f"    {names} = np.linalg.solve(A, B).tolist()",
    ]


def _constraint_failure(exc) -> NumericFailureError:
    return NumericFailureError(f"constraint evaluation is complex or undefined: {exc}")


def _guard(lines, raises):
    """lines inside a try that turns a DomainEvalError into
    _constraint_failure's numeric failure, when raises says one can occur."""
    if not raises:
        return lines
    return ["try:", *(f"    {line}" for line in lines)] + [
        "except DomainEvalError as exc:",
        "    raise _constraint_failure(exc) from exc",
    ]


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


def resolve_multipliers(sys: ImplicitSystem, at: dict, warm=None) -> dict:
    """Multiplier values at one point; raises SingularJacobianError when the
    constraint Jacobian cannot pin them down.  A constraint with no real
    value there (a negative number under a root, ln of a nonpositive one)
    is a numeric failure.  at binds every state and parameter, warm (when
    given) every multiplier; UnboundSymbolError names the first without a
    value."""
    solver = sys.solver
    state_vec, param_vec = values_of(sys.states, at), values_of(solver.params, at)
    warm_vec = None if warm is None else values_of(sys.multipliers, warm)
    with np.errstate(invalid="ignore"):  # see _solve_lines
        sol = solver.multipliers(state_vec, param_vec, warm_vec)
    return {m: float(v) for m, v in zip(sys.multipliers, sol)}


def integrate_rk4(sys: ImplicitSystem, init: dict, t0: float, t1: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 on the multiplier-resolved vector field.

    The system's solver is built once (see ``ImplicitSystem.solver``) and
    keeps its generated RK4 loop, ``run``, for every run.  The loop solves
    for the multipliers once per state: the initial data, each stage's
    state and each step's end, each solve warm-started from the one before;
    a constraint matrix free of the states is evaluated and checked once,
    before the first step.  A step's first stage takes the multipliers
    solved at its start.  The loop records each sample's multipliers and
    energy (nan where it has no finite value), and the sup of |g|.

    (t1 - t0)/h must be a whole number of steps to within 1e-9 relative,
    and every step must advance the clock; otherwise StepSizeError, raised
    before any step runs.  A singular constraint Jacobian raises
    SingularJacobianError carrying the last good time and the failing step
    (0 for the initial data).  The initial data need not satisfy the
    constraints: the first solve sets the multipliers that make them hold.
    init binds every state and parameter; UnboundSymbolError names the
    first without a value.
    """
    times = _time_grid(t0, t1, h)
    solver = sys.solver
    state_vec, param_vec = values_of(sys.states, init), values_of(solver.params, init)
    run = solver.run  # compiled before anything is evaluated
    rows, energies = [], []
    # a singular pivot in a LAPACK solve surfaces through the finite check
    # that _solve_lines writes, overflow through the explicit finite checks,
    # not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sup = run(state_vec, param_vec, times, h, rows, energies)
        except SingularJacobianError as exc:  # at the last good time and the failing step
            raise exc.located(times[max(len(rows) - 1, 0)], len(rows)) from None
        except OverflowError as exc:  # the right-hand side's or constraints', as eval_expr raises it
            raise NumericFailureError(str(exc)) from exc
        except ValueError as exc:  # sin or cos of an infinity; LinAlgError is LAPACK's own
            if isinstance(exc, np.linalg.LinAlgError):
                raise
            raise DomainEvalError(str(exc)) from exc
    columns = tuple(sys.states) + tuple(sys.multipliers)
    return Trajectory(times, rows, columns, np.array(energies), sup)


def _time_grid(t0, t1, h) -> list:
    """The times of a run from t0 to t1 in steps of h, summed as t += h;
    StepSizeError when h does not divide t1 - t0 into whole steps or a
    step does not advance the time."""
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
    times = [t0]
    for _ in range(n_steps):
        times.append(times[-1] + h)
        if times[-1] == times[-2]:
            raise StepSizeError(f"a step of {h:g} does not advance the time {times[-2]!r}")
    return times


def energy_drift(traj: Trajectory) -> float:
    """max |E(t) - E(t0)| / (1 + |E(t0)|) along the run."""
    energies = traj.energies
    if energies is None or len(energies) == 0:
        return 0.0
    e0 = energies[0]
    return float(np.max(np.abs(energies - e0)) / (1.0 + abs(e0)))


def trajectory_csv(traj: Trajectory) -> str:
    """Canonical CSV: t, roster columns, E; 17 significant digits, and an
    empty E when the run recorded no energies.  Each row is one "%.17g"
    format, which gives "{:.17g}".format's text for every float."""
    lines = [",".join(["t"] + [str(s) for s in traj.columns] + ["E"])]
    fmt = ",".join(["%.17g"] * (len(traj.columns) + 1)) + (",%.17g" if traj.energies is not None else ",")
    rows = zip(traj.times, traj.values.tolist())
    if traj.energies is None:
        lines += [fmt % (t, *row) for t, row in rows]
    else:
        lines += [fmt % (t, *row, e) for (t, row), e in zip(rows, traj.energies.tolist())]
    return "\n".join(lines) + "\n"

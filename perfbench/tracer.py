"""Outside-in tracer: spans around jetlag's layers, installed from outside.

Each span wraps one or more functions.  jetlag modules import each other's
functions by name (``from .dynamics import integrate_rk4``), so a wrapper is
bound in place of the original in every loaded ``jetlag`` module that holds
it, not only where it is defined.  ``numpy.linalg`` functions are wrapped the
same way, since jetlag calls them as ``np.linalg.<name>``.

A span records calls, total time and self time (its duration minus the time
of the spans it encloses).  A call that re-enters a span already open, such
as a recursive ``simplify``, passes straight through and stays part of the
outer call.  ``restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> "module:attribute" targets; attributes may be Class.method
SPANS = {
    "cli.job": ["jetlag.cli:main"],
    "parser.parse": ["jetlag.parser:parse"],
    "printer.to_text": ["jetlag.printer:to_text"],
    "expr.simplify": ["jetlag.expr:simplify"],
    "expr.substitute": ["jetlag.expr:substitute"],
    "expr.eval": ["jetlag.expr:eval_expr"],
    "expr.lambdify": ["jetlag.expr:lambdify"],
    "calculus.diff": ["jetlag.calculus:diff"],
    "calculus.dt": ["jetlag.calculus:total_time_derivative"],
    "calculus.expand": ["jetlag.calculus:expand"],
    "calculus.linear_coefficients": ["jetlag.calculus:linear_coefficients"],
    "ostro.energy": ["jetlag.ostro:ostro_energy"],
    "ostro.derive": [
        "jetlag.ostro:ostro_momenta",
        "jetlag.ostro:euler_lagrange",
        "jetlag.ostro:explicit_hamiltonian",
        "jetlag.ostro:top_derivative_solution",
        "jetlag.ostro:nondegeneracy",
        "jetlag.ostro:ostro_initial_data",
    ],
    "schmidt.family": [
        "jetlag.schmidt:schmidt_morse_family",
        "jetlag.schmidt:third_order_extend",
        "jetlag.schmidt:degenerate_second_extend",
    ],
    "schmidt.derive": [
        "jetlag.schmidt:gauge_extend_second",
        "jetlag.schmidt:chi_check",
        "jetlag.schmidt:solve_F_quadratic",
        "jetlag.schmidt:velocity_solution",
        "jetlag.schmidt:schmidt_hamiltonian",
        "jetlag.schmidt:default_auxiliary_gauge",
        "jetlag.schmidt:pullback_map",
        "jetlag.schmidt:ostro_schmidt_pullback_check",
        "jetlag.schmidt:schmidt_initial_data",
    ],
    "dynamics.assemble": ["jetlag.dynamics:assemble"],
    "dynamics.resolve_multipliers": ["jetlag.dynamics:resolve_multipliers"],
    "dynamics.rk4": ["jetlag.dynamics:integrate_rk4"],
    "dynamics.csv": ["jetlag.dynamics:trajectory_csv"],
    "sampling.sample_binding": ["jetlag.sampling:sample_binding"],
    "sampling.equal_numeric": ["jetlag.sampling:equal_numeric"],
    "hamjac.residual": ["jetlag.hamjac:hj_residual", "jetlag.hamjac:hj_residual_nondeg"],
    "hamjac.closure": ["jetlag.hamjac:ClosedOneForm.closure_report"],
    "hamjac.morse_rank": ["jetlag.hamjac:morse_rank_check"],
    "hamjac.affine": [
        "jetlag.hamjac:affine_symmetry_check",
        "jetlag.hamjac:affine_integrability_check",
        "jetlag.hamjac:affine_hj_solve",
    ],
    "hamjac.relatedness": ["jetlag.hamjac:gamma_relatedness"],
    "linalg.rank": ["numpy.linalg:matrix_rank"],
    "linalg.solve": ["numpy.linalg:solve"],
    "linalg.lstsq": ["numpy.linalg:lstsq"],
    "linalg.svd": ["numpy.linalg:svd"],
}

# one span per corpus check kind, named from the check being run
CHECK_SPAN_TARGET = "jetlag.corpus:run_check"
CHECK_SPAN_PREFIX = "corpus.check."


def _check_span_name(args, kwargs):
    check = args[1] if len(args) > 1 else kwargs["check"]
    return CHECK_SPAN_PREFIX + str(check["kind"])


def _rk4_steps(trajectory):
    return len(trajectory.times) - 1


# span name -> function of the wrapped call's result giving units of work
WORK = {"dynamics.rk4": _rk4_steps}


class Span:
    __slots__ = ("calls", "total", "own", "work", "open")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.work = 0
        self.open = False


class Tracer:
    """Install with ``install()``, read ``spans``, undo with ``restore()``."""

    def __init__(self):
        self.spans = {}
        self.missing = []  # targets not found in the program
        self._stack = []  # child-time accumulators of the open spans
        self._undo = []  # (owner, attribute, original)

    def span(self, name) -> Span:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = Span()
        return s

    def install(self):
        self.missing = []
        for name, targets in SPANS.items():
            for target in targets:
                self._bind(target, self._wrap(name, WORK.get(name)))
        self._bind(CHECK_SPAN_TARGET, self._wrap(None, None, _check_span_name))
        return self

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _bind(self, target, make_wrapper):
        module_name, path = target.split(":")
        try:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        wrapper = make_wrapper(original)
        if owner_path:  # a method: rebinding it on its class reaches every caller
            holders = [(owner, attr)]
        else:
            holders = [
                (mod, key)
                for mod in _holder_modules(module)
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)

    def _wrap(self, name, work_fn, name_fn=None):
        stack = self._stack
        clock = time.perf_counter
        fixed = None if name is None else self.span(name)

        def make(fn):
            def traced(*args, **kwargs):
                span = fixed if fixed is not None else self.span(name_fn(args, kwargs))
                if span.open:
                    return fn(*args, **kwargs)
                span.open = True
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    children = stack.pop()
                    span.open = False
                    span.calls += 1
                    span.total += elapsed
                    span.own += elapsed - children
                    if stack:
                        stack[-1] += elapsed
                if work_fn is not None:
                    span.work += work_fn(result)
                return result

            return traced

        return make


def _holder_modules(defining):
    mods = [defining]
    for name, mod in list(sys.modules.items()):
        if mod is not None and mod is not defining and (name == "jetlag" or name.startswith("jetlag.")):
            mods.append(mod)
    return mods

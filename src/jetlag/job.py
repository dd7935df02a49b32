"""One job from one JSON config: the only code that reads a config.

``Job.from_config`` checks every field it knows and raises ``ConfigError``
on a bad one.  What the fields build (the Lagrangian, the gauge, the energy
family, the implicit system, each entry ``derive`` reports, the trajectory)
is derived on first use and kept, so a job derives each at most once.
Nothing kept here draws from a random generator: sampled checks take the
caller's.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .charts import chart_tstar_aq
from .dynamics import assemble, integrate_rk4
from .errors import ConfigError, GaugeConditionError, IncompatibleGaugeError, ParseError
from .expr import eval_expr
from .hamjac import ClosedOneForm, gamma_relatedness
from .ostro import LagrangianSpec, euler_lagrange, explicit_hamiltonian, ostro_energy, ostro_momenta
from .parser import parse
from .schmidt import (
    GaugeFunction,
    chi_check,
    default_auxiliary_gauge,
    degenerate_second_extend,
    gauge_extend_second,
    schmidt_hamiltonian,
    schmidt_morse_family,
    solve_F_quadratic,
    third_order_extend,
)
from .symbols import Kind, symbol_from_name

# a method: the derivative orders k it accepts (None: every k >= 1) and the
# keys derive reports, in report order; DERIVED builds each key
Method = namedtuple("Method", "orders keys")
METHODS = {
    "ostrogradsky": Method(None, ("energy", "momenta", "euler_lagrange", "implicit_system", "hamiltonian")),
    "schmidt2": Method((2, 3), ("gauge", "compatibility_residuals", "extended_lagrangian", "energy",
                                "momentum_relations", "hamiltonian", "implicit_system")),
    "schmidt3": Method((3,), ("gauge", "extended_lagrangian", "energy", "implicit_system")),
    "schmidt2deg": Method((2,), ("gauge", "extended_lagrangian", "energy", "implicit_system")),
}

# what a field must hold when present, and the fields it applies to;
# fields not listed are ignored
FIELDS = (
    ("a file name", lambda v: isinstance(v, str) and "/" not in v and "\0" not in v, ("problem",)),
    ("a positive integer", lambda v: type(v) is int and v >= 1, ("n", "k")),
    ("expression text", lambda v: isinstance(v, str), ("lagrangian", "schmidt_W", "schmidt_W_canonical", "affine_g")),
    ("expression text or null", lambda v: v is None or isinstance(v, str), ("W", "gauge_F", "hj_target")),
    ("a list of expression texts", lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
     ("gamma_components", "affine_f")),
    ("an object", lambda v: isinstance(v, dict), ("parameters", "sample_box", "tolerances", "simulation")),
    ("a list", lambda v: isinstance(v, list), ("domain_guards",)),
)
REQUIRED = ("problem", "n", "k", "lagrangian", "method")


def symbol(text):
    """The symbol a config key names; the key must be one identifier."""
    try:
        return symbol_from_name(text)
    except ParseError as exc:
        raise ConfigError(f"{text!r} does not name a symbol: {exc}") from exc


def _parameter(name):
    s = symbol(name)
    if s.kind is not Kind.PARAM:
        raise ConfigError(f"parameter name {name!r} names a coordinate")
    return s


def _number(value, what) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return x


def _gauge_step(build, *args):
    """build(*args); a gauge the route cannot use is a config error."""
    try:
        return build(*args)
    except (ValueError, IncompatibleGaugeError, GaugeConditionError) as exc:
        raise ConfigError(f"bad gauge_F: {exc}") from exc


# the simulation block: time grid and initial values by symbol
Simulation = namedtuple("Simulation", "t0 t1 h initial")


class Job:
    """A checked config and what it builds, each built at most once."""

    def __init__(self, config: dict):
        self.config = config
        self.problem = config["problem"]
        self.method = config["method"]
        self._derived = {}  # derive-report key -> its entry, built on first read

    @classmethod
    def from_config(cls, config) -> "Job":
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        for key in REQUIRED:
            if key not in config:
                raise ConfigError(f"config misses required field {key!r}")
        for kind, holds, keys in FIELDS:
            for key in keys:
                if key in config and not holds(config[key]):
                    raise ConfigError(f"{key} must be {kind}, got {config[key]!r}")
        method, k = config["method"], config["k"]
        if not isinstance(method, str) or method not in METHODS:
            raise ConfigError(f"method must be one of {tuple(METHODS)}")
        orders = METHODS[method].orders
        if orders is not None and k not in orders:
            raise ConfigError(f"method {method} needs k in {orders}, got k={k}")
        job = cls(config)
        job.boxes, job.guards, job.tolerances, job.simulation  # reading them checks them
        return job

    @cached_property
    def params(self) -> dict:
        parameters = self.config.get("parameters", {})
        return {_parameter(name): _number(v, f"parameter {name!r}") for name, v in parameters.items()}

    @cached_property
    def pinned(self) -> dict:
        """Every parameter as a sampling box holding only its value."""
        return {s: (v, v) for s, v in self.params.items()}

    @cached_property
    def boxes(self) -> dict:
        """sample_box ranges, and every other parameter pinned."""
        boxes = dict(self.pinned)
        for name, pair in self.config.get("sample_box", {}).items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"sample_box of {name!r} must be [low, high], got {pair!r}")
            low, high = _number(pair[0], "box bound"), _number(pair[1], "box bound")
            if low > high:
                raise ConfigError(f"sample_box of {name!r} has low > high: {pair!r}")
            boxes[symbol(name)] = (low, high)
        return boxes

    @cached_property
    def guards(self) -> list:
        guards = []
        for guard in self.config.get("domain_guards", []):
            if not isinstance(guard, list) or len(guard) != 2 or not isinstance(guard[0], str):
                raise ConfigError(f"a domain guard must be [text, bound], got {guard!r}")
            guards.append((parse(guard[0]), _number(guard[1], "guard bound")))
        return guards

    @cached_property
    def tolerances(self) -> dict:
        given = self.config.get("tolerances", {})
        tol = {"residual": 1e-8, "trajectory": 1e-5}
        for name in tol:
            if name in given:
                _number(given[name], f"{name} tolerance")
                tol[name] = given[name]
        return tol

    @cached_property
    def simulation(self) -> Simulation | None:
        """The simulation block, or None when the config has none."""
        sim = self.config.get("simulation")
        if sim is None:
            return None
        for key in ("t0", "t1", "h", "initial"):
            if key not in sim:
                raise ConfigError(f"simulation block misses {key!r}")
        if not isinstance(sim["initial"], dict):
            raise ConfigError(f"initial must be an object, got {sim['initial']!r}")
        return Simulation(
            *(_number(sim[key], key) for key in ("t0", "t1", "h")),
            {symbol(k): _number(v, f"initial {k!r}") for k, v in sim["initial"].items()},
        )

    @cached_property
    def hj_target(self):
        """The expression whose constancy hj_target pins, or None."""
        text = self.config.get("hj_target")
        return parse(text) if text else None

    @cached_property
    def affine(self) -> tuple:
        """(f, g) of a Lagrangian affine in its top derivatives."""
        if "affine_f" not in self.config or "affine_g" not in self.config:
            raise ConfigError("config needs affine_f and affine_g")
        f = self.config["affine_f"]
        if len(f) != self.config["n"]:
            raise ConfigError(f"affine_f needs one coefficient per coordinate ({self.config['n']}), got {len(f)}")
        return [parse(t) for t in f], parse(self.config["affine_g"])

    @cached_property
    def spec(self) -> LagrangianSpec:
        try:
            return LagrangianSpec(self.config["n"], self.config["k"], parse(self.config["lagrangian"]))
        except (ParseError, ValueError) as exc:
            raise ConfigError(f"bad lagrangian: {exc}") from exc

    @cached_property
    def gauge(self) -> GaugeFunction:
        """gauge_F, else the built-in coupling (auxiliary-factor methods) or
        the integrated compatibility condition."""
        text = self.config.get("gauge_F")
        if text:
            return _gauge_step(GaugeFunction, parse(text), self.spec.dim)
        if self.method in ("schmidt3", "schmidt2deg"):
            return default_auxiliary_gauge(self.spec.dim)
        return _gauge_step(solve_F_quadratic, self.spec)

    @cached_property
    def extension(self):
        """The SchmidtSystem of the auxiliary-factor methods (schmidt3, schmidt2deg)."""
        extend = third_order_extend if self.method == "schmidt3" else degenerate_second_extend
        return _gauge_step(extend, self.spec, self.gauge)

    @cached_property
    def family(self):
        if self.method == "ostrogradsky":
            return ostro_energy(self.spec)
        if self.method == "schmidt2":
            return _gauge_step(schmidt_morse_family, self.spec, self.gauge)
        return self.extension.family

    @cached_property
    def system(self):
        return assemble(self.family)

    def derived(self, path: str):
        """The derive-report entry a dotted path names ("energy",
        "momenta.p1_0", "implicit_system.states"); the top-level entry is
        built by its DERIVED builder on first read and kept."""
        key, *rest = path.split(".")
        if key not in METHODS[self.method].keys:
            raise KeyError(f"{self.method} reports no {key!r}")
        if key not in self._derived:
            self._derived[key] = DERIVED[key](self)
        node = self._derived[key]
        for part in rest:
            node = node[int(part)] if isinstance(node, list) else node[part]
        return node

    @cached_property
    def trajectory(self):
        """RK4 run of the system from the simulation block's initial values."""
        sim = self._simulation()
        return integrate_rk4(self.system, {**sim.initial, **self.params}, sim.t0, sim.t1, sim.h)

    def _simulation(self) -> Simulation:
        if self.simulation is None:
            raise ConfigError("config has no simulation block")
        return self.simulation

    def gamma(self, key=None, rng=None) -> ClosedOneForm:
        """The candidate one-form config[key].

        key defaults to W when set, else gamma_components, whose closure is
        checked on rng (seed 0 when None).  Both live on the base chart of
        the job's family; schmidt_W and schmidt_W_canonical are potentials
        on the acceleration-bundle chart whatever the method.
        """
        if key is None:
            key = "W" if self.config.get("W") is not None else "gamma_components"
        if key not in self.config:
            named = "W or gamma_components" if key == "gamma_components" else key
            raise ConfigError(f"config has no {named}")
        chart = chart_tstar_aq(self.spec.dim) if key.startswith("schmidt_W") else self.family.base
        coords, slots = chart.positions, chart.momenta
        if key != "gamma_components":
            return ClosedOneForm.from_potential(parse(self.config[key]), coords, slots)
        comps = [parse(t) for t in self.config[key]]
        if len(comps) != len(coords):
            raise ConfigError(f"gamma_components needs one component per coordinate ({len(coords)}), got {len(comps)}")
        return ClosedOneForm.from_components(comps, coords, slots, rng=rng, boxes=self.boxes, guards=self.guards)

    def relatedness(self, gamma: ClosedOneForm, tol: float):
        """Start at the initial positions with gamma's momenta there,
        integrate, and test the run, lifted through gamma, against the
        system.  eval_expr gives the bits of the lift's compiled components,
        so the run starts on the lifted curve."""
        sim = self._simulation()
        missing = [str(s) for s in gamma.coordinates if s not in sim.initial]
        if missing:
            raise ConfigError(f"simulation initial misses {', '.join(missing)}, used by the one-form")
        at = {s: sim.initial[s] for s in gamma.coordinates} | self.params
        momenta = {m: eval_expr(c, at) for m, c in zip(gamma.momentum_slots, gamma.component_exprs())}
        init = {**sim.initial, **self.params, **momenta}
        traj = integrate_rk4(self.system, init, sim.t0, sim.t1, sim.h)
        return gamma_relatedness(self.system, gamma, traj, tol=tol, params=self.params)


# derive-report key -> the one builder of its entry from a job: an
# expression, a symbol, or lists and dicts of them
DERIVED = {
    "energy": lambda job: job.family.energy,
    "momenta": lambda job: {  # momenta[kappa][a - 1] names p{a}_{kappa}
        f"p{a}_{kappa}": m for kappa, row in enumerate(ostro_momenta(job.spec)) for a, m in enumerate(row, 1)
    },
    "euler_lagrange": lambda job: euler_lagrange(job.spec),
    "implicit_system": lambda job: {
        "states": list(job.system.states),
        "rhs": {str(s): job.system.rhs[s] for s in job.system.states},  # assemble interleaves (q, p) in rhs
        "constraints": list(job.system.constraints),
        "multipliers": list(job.system.multipliers),
    },
    "hamiltonian": lambda job: (
        explicit_hamiltonian(job.spec) if job.method == "ostrogradsky" else schmidt_hamiltonian(job.spec, job.gauge)
    ),
    "gauge": lambda job: job.gauge.expr,
    "compatibility_residuals": lambda job: chi_check(job.spec, job.gauge),
    "extended_lagrangian": lambda job: (
        gauge_extend_second(job.spec, job.gauge) if job.method == "schmidt2" else job.extension.extended_lagrangian
    ),
    "momentum_relations": lambda job: [r for _, r in job.family.extra_relations],
}

"""Seeded job lists for the four workloads.

A job is one ``jetlag`` command line plus what an independent check needs to
judge its output: the exit code the program should return and the known
answer, computed here by hand-derived closed forms and plain Python
arithmetic, never by jetlag itself.  The same seed gives the same jobs.

Each workload draws a fixed mix of job kinds and only varies coefficients,
parameters, initial data and which coordinates terms touch, so the amount of
work per job list stays close from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .pyeval import py_eval

WORKLOADS = ("corpus", "derive", "simulate", "hj")

# Points per derive job at which report texts are compared to closed forms.
DERIVE_POINTS = 3


@dataclass
class Job:
    name: str
    verb: str  # "corpus", "derive", "simulate" or "hj-check"
    config: dict | None  # the JSON config the program reads; None for corpus
    seed: int
    expect_exit: int
    answer: dict = field(default_factory=dict)


def make_jobs(workload: str, seed: int) -> list:
    """The job list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        return [Job("corpus", "corpus", None, seed, 0, {"entries": 8})]
    if workload == "derive":
        return _derive_jobs(rng)
    if workload == "simulate":
        return _simulate_jobs(rng)
    if workload == "hj":
        return _hj_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _frac(rng, lo_num=1, hi_num=9, den=(1, 2, 3, 4)):
    return Fraction(rng.randint(lo_num, hi_num), rng.choice(den))


def _ftext(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _num(rng, lo, hi):
    """A float drawn from [lo, hi], rounded so configs stay readable."""
    return round(rng.uniform(lo, hi), 4)


def _join(terms) -> str:
    """Sum of (sign, body) terms as text both jetlag and Python parse."""
    out = ""
    for i, (sign, body) in enumerate(terms):
        if i == 0:
            out = body if sign > 0 else f"-{body}"
        else:
            out += (" + " if sign > 0 else " - ") + body
    return out or "0"


# term shapes of _random_term
SHAPES = 5


def _random_term(rng, symbols, params, shape):
    """One domain-safe term (polynomial, sin, cos) over the given symbols."""
    x = rng.choice(symbols)
    y = rng.choice(symbols)
    coeff = rng.choice(params) if params and rng.random() < 0.3 else _ftext(_frac(rng))
    body = (f"{x}^2", f"{x}*{y}", f"sin({x})", f"cos({x})*{y}", f"{x}*{y}^2")[shape]
    return (rng.choice((1, -1)), f"{coeff}*{body}")


def _point(rng, n, k, params):
    """Random values for every symbol a derive report can mention."""
    b = dict(params)
    for a in range(1, n + 1):
        for lvl in range(k + 1):
            b[f"q{a}_{lvl}"] = rng.uniform(-1.0, 1.0)
        for lvl in range(k):
            b[f"p{a}_{lvl}"] = rng.uniform(-1.0, 1.0)
        for name in (f"a{a}_0", f"a{a}_1", f"m{a}_0", f"m{a}_1", f"pq{a}", f"pa{a}", f"pm{a}"):
            b[name] = rng.uniform(-1.0, 1.0)
    return b


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


class _Lagrangian:
    """L = sum_A 1/2*mu_A*top_A^2 + sum_A b_A*top_A + V, or, when degenerate,
    L = sum_A f_A*top_A + V, kept as text pieces so closed forms can be
    evaluated with Python arithmetic.

    ``variant`` picks the structure (which of f_A's two forms, which b_A
    are present, the shapes of V's two terms) so that the variants of a
    cell cover the structures evenly; the seed picks coefficients and the
    coordinates terms touch."""

    def __init__(self, rng, n, k, degenerate, params, variant):
        self.n, self.k = n, k
        lows = [f"q{a}_{lvl}" for a in range(1, n + 1) for lvl in range(k)]
        level0 = [f"q{a}_0" for a in range(1, n + 1)]
        self.mu = []
        self.b = []  # (coefficient, level-0 symbol) or None
        terms = []
        for a in range(1, n + 1):
            top = f"q{a}_{k}"
            if degenerate:
                x, y = rng.choice(lows), rng.choice(lows)
                fa = (f"({_ftext(_frac(rng))} + {x})", f"{x}*{y}")[(a + variant) % 2]
                terms.append((1, f"{fa}*{top}"))
                continue
            mu = _frac(rng, 2, 12, (2, 4))
            self.mu.append(float(mu))
            terms.append((1, f"1/2*{_ftext(mu)}*{top}^2"))
            if (a + variant) % 5 < 3:  # three coordinates in five
                c = _frac(rng)
                x = rng.choice(level0)
                self.b.append((float(c), x))
                terms.append((1, f"{_ftext(c)}*{x}*{top}"))
            else:
                self.b.append(None)
        shapes = (2 * variant % SHAPES, (2 * variant + 1) % SHAPES)
        v_terms = [_random_term(rng, lows, sorted(params), shape) for shape in shapes]
        self.V = _join(v_terms)
        self.text = _join(terms + v_terms)

    def value(self, binding):
        return py_eval(self.text, binding)

    def b_value(self, a, binding):
        entry = self.b[a - 1]
        return entry[0] * binding[entry[1]] if entry else 0.0

    def ostro_energy(self, b):
        """E = sum p_(kappa) q_(kappa+1) - L, top derivatives as fibers."""
        total = -self.value(b)
        for a in range(1, self.n + 1):
            for lvl in range(self.k):
                total += b[f"p{a}_{lvl}"] * b[f"q{a}_{lvl + 1}"]
        return total

    def ostro_hamiltonian(self, b):
        """sum_{kappa<k-1} p q_(kappa+1) + sum_A (p_(k-1) - b_A)^2/(2 mu_A) - V."""
        total = -py_eval(self.V, b)
        for a in range(1, self.n + 1):
            for lvl in range(self.k - 1):
                total += b[f"p{a}_{lvl}"] * b[f"q{a}_{lvl + 1}"]
            top_p = b[f"p{a}_{self.k - 1}"] - self.b_value(a, b)
            total += top_p * top_p / (2.0 * self.mu[a - 1])
        return total

    def pulled_back(self, b, velocity=None):
        """L on the acceleration chart: q_2 -> a_0, q_3 -> a_1."""
        c = dict(b)
        for a in range(1, self.n + 1):
            c[f"q{a}_2"] = b[f"a{a}_0"]
            if self.k == 3:
                c[f"q{a}_3"] = b[f"a{a}_1"]
            if velocity is not None:
                c[f"q{a}_1"] = velocity[a - 1]
        return self.value(c)

    def schmidt2_energy(self, b, velocity=None):
        """Auto gauge F = -sum_A (mu_A a0_A + b_A(q0)) q1_A; energy
        pq.q1 - L - F_q0.q1 - F_q1.a0 with the velocity q1 as fiber."""
        n = self.n
        v = velocity or [b[f"q{a}_1"] for a in range(1, n + 1)]
        total = -self.pulled_back(b, v)
        for a in range(1, n + 1):
            total += b[f"pq{a}"] * v[a - 1]
            # -F_q1_A * a0_A
            a0 = b[f"a{a}_0"]
            total += (self.mu[a - 1] * a0 + self.b_value(a, b)) * a0
            # -F_q0 . q1: F_{x} = -sum_{A: b_A uses x} c_A q1_A
            entry = self.b[a - 1]
            if entry:
                comp = int(entry[1][1:].split("_")[0])
                total += entry[0] * v[a - 1] * v[comp - 1]
        return total

    def schmidt2_hamiltonian(self, b):
        """Velocity eliminated through pa = dF/da0 = -mu q1."""
        v = [-b[f"pa{a}"] / self.mu[a - 1] for a in range(1, self.n + 1)]
        return self.schmidt2_energy(b, v)

    def auxiliary_energy(self, b):
        """Built-in coupling F = sum q1 m0: energy over the auxiliary chart."""
        ext = self.pulled_back(b)
        total = 0.0
        for a in range(1, self.n + 1):
            ext += b[f"m{a}_0"] * b[f"a{a}_0"] + b[f"q{a}_1"] * b[f"m{a}_1"]
            total += b[f"pq{a}"] * b[f"q{a}_1"] + b[f"pa{a}"] * b[f"a{a}_1"]
            total += b[f"pm{a}"] * b[f"m{a}_1"]
        return total - ext


def _derive_job(rng, index, n, k, method, degenerate, variant):
    params = {"c1": _num(rng, 0.5, 2.0), "c2": _num(rng, 0.5, 2.0)}
    lag = _Lagrangian(rng, n, k, degenerate, params, variant)
    points = [_point(rng, n, k, params) for _ in range(DERIVE_POINTS)]
    if method == "ostrogradsky":
        energy = [lag.ostro_energy(b) for b in points]
        ham = None if degenerate else [lag.ostro_hamiltonian(b) for b in points]
    elif method == "schmidt2":
        energy = [lag.schmidt2_energy(b) for b in points]
        ham = [lag.schmidt2_hamiltonian(b) for b in points]
    else:
        energy = [lag.auxiliary_energy(b) for b in points]
        ham = None
    answer = {
        "points": points,
        "energy": energy,
        # None: the report must carry no Hamiltonian (degenerate or not offered)
        "hamiltonian": ham,
        "scale": 0.0,
    }
    name = f"derive-{index:03d}-{method}-n{n}k{k}"
    config = {
        "problem": name,
        "n": n,
        "k": k,
        "lagrangian": lag.text,
        "method": method,
        "parameters": params,
    }
    return Job(name, "derive", config, rng.randrange(2**31), 0, answer)


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _monomial(variables, exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)


def expand_power(rng, variables, monomials, power):
    """Expand (sum of coefficient*monomial + constant)^power exactly.

    Returns (expanded text, compact Python text of the same polynomial,
    sum of absolute coefficients of the base)."""
    base = {}
    parts = []
    for exps in monomials:
        c = _frac(rng, 1, 5, (1, 2, 3))
        base[exps] = c
        parts.append((1, f"{_ftext(c)}*{_monomial(variables, exps)}"))
    const = _frac(rng, 1, 5, (1, 2, 3))
    base[tuple(0 for _ in variables)] = const
    parts.append((1, _ftext(const)))
    poly = {tuple(0 for _ in variables): Fraction(1)}
    for _ in range(power):
        poly = _poly_mul(poly, base)
    terms = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        mono = _monomial(variables, exps)
        body = _ftext(abs(c)) if not mono else f"{_ftext(abs(c))}*{mono}"
        terms.append((1 if c > 0 else -1, body))
    scale = float(sum(abs(c) for c in base.values()))
    return _join(terms), f"({_join(parts)})^{power}", scale


def _expanded_job(rng, index, n, k, variables, monomials, power):
    """Ostrogradsky derivation of 1/2*mu*sum_A qA_k^2 + (expanded power): a
    large polynomial potential with a closed-form Hamiltonian."""
    mu = _frac(rng, 2, 12, (2, 4))
    expanded, compact, scale = expand_power(rng, variables, monomials, power)
    kinetic = " + ".join(f"1/2*{_ftext(mu)}*q{a}_{k}^2" for a in range(1, n + 1))
    params = {"c1": _num(rng, 0.5, 2.0)}
    points = [_point(rng, n, k, params) for _ in range(DERIVE_POINTS)]
    energy, ham = [], []
    for b in points:
        flow = -py_eval(compact, b)
        for a in range(1, n + 1):
            flow += sum(b[f"p{a}_{lvl}"] * b[f"q{a}_{lvl + 1}"] for lvl in range(k - 1))
        e, h = flow, flow
        for a in range(1, n + 1):
            top, top_p = b[f"q{a}_{k}"], b[f"p{a}_{k - 1}"]
            e += top_p * top - 0.5 * float(mu) * top * top
            h += top_p * top_p / (2.0 * float(mu))
        energy.append(e)
        ham.append(h)
    name = f"derive-{index:03d}-expanded-n{n}k{k}p{power}"
    config = {
        "problem": name,
        "n": n,
        "k": k,
        "lagrangian": f"{kinetic} + {expanded}",
        "method": "ostrogradsky",
        "parameters": params,
    }
    answer = {
        "points": points,
        "energy": energy,
        "hamiltonian": ham,
        # rounding in the expanded sum grows like the absolute-value expansion
        "scale": scale**power,
    }
    return Job(name, "derive", config, rng.randrange(2**31), 0, answer)


# (n, k, variables, monomials of the base polynomial, power): expansions of
# about 2-3k characters
_EXPANDED = (
    (1, 2, ("q1_0", "q1_1", "c1"), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1)), 6),
    (2, 2, ("q1_0", "q2_0", "q1_1", "q2_1"), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)), 5),
    (1, 3, ("q1_0", "q1_1", "q1_2"), ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)), 6),
)


def _derive_jobs(rng) -> list:
    jobs = []
    for variant in range(SHAPES):  # every shape twice among V's terms
        for n in (1, 2, 3):
            for k in (2, 3):
                cells = [("ostrogradsky", False), ("ostrogradsky", True)]
                if k == 2:
                    cells += [("schmidt2", False), ("schmidt2deg", True)]
                else:
                    cells += [("schmidt3", False)]
                for method, degenerate in cells:
                    jobs.append(_derive_job(rng, len(jobs), n, k, method, degenerate, variant))
    for n, k, variables, monomials, power in _EXPANDED:
        jobs.append(_expanded_job(rng, len(jobs), n, k, variables, monomials, power))
    return jobs


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_SHORT_STEPS = 100
SIM_LONG_STEPS = 800
DRIFT_TOL = 1e-6


def _simulate_job(rng, index, n, k, kind, steps):
    """Multiplier block state-dependent linear ("linear") or cubic in the
    top derivatives ("newton"); strictly convex in them, so the block stays
    solvable along the run."""
    tops = [f"q{a}_{k}" for a in range(1, n + 1)]
    terms = []
    params = {}
    for a in range(1, n + 1):
        mu = _frac(rng, 4, 8, (4,))
        top = tops[a - 1]
        if kind == "linear":
            c = _frac(rng, 1, 4, (2,))
            x = f"q{rng.randint(1, n)}_0"
            terms.append((1, f"1/2*({_ftext(mu)} + {_ftext(c)}*{x}^2)*{top}^2"))
        else:
            params[f"eps{a}"] = _num(rng, 0.1, 0.5)
            terms.append((1, f"1/2*{_ftext(mu)}*{top}^2 + 1/4*eps{a}*{top}^4"))
    if n == 2:
        # constant coupling below half the smallest mass keeps the block definite
        terms.append((rng.choice((1, -1)), f"{_ftext(_frac(rng, 1, 3, (8,)))}*{tops[0]}*{tops[1]}"))
    for a in range(1, n + 1):
        w = _ftext(_frac(rng, 1, 4, (2,)))
        pot = (f"1/2*{w}*q{a}_1^2", f"1/2*{w}*q{a}_0^2", f"{w}*cos(q{a}_0)")[rng.randrange(3)]
        terms.append((rng.choice((1, -1)), pot))
    h = rng.choice((0.001, 0.002, 0.0025))
    t0 = rng.choice((0.0, 0.5, 1.0))
    # t1 - t0 is an integral number of steps (see integrate_rk4)
    t1 = round(t0 + steps * h, 12)
    initial = {}
    for a in range(1, n + 1):
        for lvl in range(k):
            initial[f"q{a}_{lvl}"] = _num(rng, -0.5, 0.5)
            initial[f"p{a}_{lvl}"] = _num(rng, -0.5, 0.5)
    name = f"simulate-{index:03d}-{kind}-n{n}k{k}"
    config = {
        "problem": name,
        "n": n,
        "k": k,
        "lagrangian": _join(terms),
        "method": "ostrogradsky",
        "parameters": params,
        "simulation": {"t0": t0, "t1": t1, "h": h, "initial": initial},
    }
    states = [f"q{a}_{lvl}" for lvl in range(k) for a in range(1, n + 1)]
    states += [f"p{a}_{lvl}" for lvl in range(k) for a in range(1, n + 1)]
    answer = {"t0": t0, "t1": t1, "steps": steps, "states": states, "drift_tol": DRIFT_TOL}
    return Job(name, "simulate", config, rng.randrange(2**31), 0, answer)


def _simulate_jobs(rng) -> list:
    jobs = []
    for _ in range(5):
        for n in (1, 2):
            for k in (2, 3):
                for kind in ("linear", "newton"):
                    jobs.append(_simulate_job(rng, len(jobs), n, k, kind, SIM_SHORT_STEPS))
    for kind in ("linear", "newton"):
        jobs.append(_simulate_job(rng, len(jobs), 1, 2, kind, SIM_LONG_STEPS))
    return jobs


# ---------------------------------------------------------------------------
# hj
# ---------------------------------------------------------------------------

HJ_PER_FAMILY = 15


def _hj_velocity_potential(rng, exact):
    """L = 1/2*(c1*q1_2 + c2*q2_2)^2 with W = a*q1_1 + b*q2_1: the fiber
    block is consistent exactly when a/c1 = b/c2."""
    n = rng.choice((2, 3))
    c1, c2 = _frac(rng, 1, 6, (2,)), _frac(rng, 1, 6, (2,))
    s = _num(rng, 0.5, 2.0)
    a, b = s * float(c1), s * float(c2)
    if not exact:
        b *= 1.0 + rng.choice((1, -1)) * _num(rng, 0.05, 0.5)
    return {
        "n": n,
        "k": 2,
        "lagrangian": f"1/2*({_ftext(c1)}*q1_2 + {_ftext(c2)}*q2_2)^2",
        "parameters": {"a": a, "b": b},
        "W": "a*q1_1 + b*q2_1",
    }


def _hj_javelin(rng, exact):
    """Radical generating form of 1/2*q1_1^2 - 1/2*q1_2^2, sampled inside a
    guarded box; a scaled radical breaks it."""
    A = _num(rng, 1.0, 1.5)
    B = _num(rng, -0.2, 0.2)
    r = math.sqrt(A * A - 2.0 * (B + 0.1))
    scale = "2" if exact else repr(round(2.0 * (1.0 + _num(rng, 0.05, 0.3)) ** 2, 6))
    return {
        "n": 1,
        "k": 2,
        "lagrangian": "1/2*q1_1^2 - 1/2*q1_2^2",
        "parameters": {"A": A, "B": B},
        "gamma_components": ["A", f"sqrt({scale})*sqrt(A*q1_1 - 1/2*q1_1^2 - B)"],
        "sample_box": {"q1_1": [round(A - 0.8 * r, 6), round(A + 0.8 * r, 6)]},
        "domain_guards": [["A*q1_1 - 1/2*q1_1^2 - B", 0.1]],
    }


def _hj_affine_second(rng, exact):
    """(B + c*q1_0)*q1_2 + A*q1_1 + c*q1_1^2 solved by
    W = (B + c*q1_0)*q1_1 + A*q1_0."""
    params = {"A": _num(rng, -2.0, 2.0), "B": _num(rng, -2.0, 2.0), "c": _num(rng, 0.5, 2.0)}
    w = "(B + c*q1_0)*q1_1 + A*q1_0"
    if not exact:
        w += f" + {_num(rng, 0.05, 0.5)}*q1_0"
    return {
        "n": 1,
        "k": 2,
        "lagrangian": "(B + c*q1_0)*q1_2 + A*q1_1 + c*q1_1^2",
        "parameters": params,
        "W": w,
    }


def _hj_affine_third(rng, exact):
    """(q1_2 + cf)*q1_3 solved by W = 1/2*q1_2^2 + cf*q1_2."""
    w = "1/2*q1_2^2 + cf*q1_2"
    if not exact:
        w += f" + {_num(rng, 0.05, 0.5)}*q1_1^2"
    return {
        "n": 1,
        "k": 3,
        "lagrangian": "(q1_2 + cf)*q1_3",
        "parameters": {"cf": _num(rng, -2.0, 2.0)},
        "W": w,
    }


_HJ_FAMILIES = (
    ("velocity-potential", _hj_velocity_potential),
    ("javelin", _hj_javelin),
    ("affine-second", _hj_affine_second),
    ("affine-third", _hj_affine_third),
)


def _hj_jobs(rng) -> list:
    jobs = []
    for _ in range(HJ_PER_FAMILY):
        for family, make in _HJ_FAMILIES:
            for exact in (True, False):
                name = f"hj-{len(jobs):03d}-{family}-{'exact' if exact else 'negative'}"
                config = {"problem": name, "method": "ostrogradsky", **make(rng, exact)}
                answer = {"passed": exact}
                jobs.append(Job(name, "hj-check", config, rng.randrange(2**31), 0 if exact else 1, answer))
    return jobs

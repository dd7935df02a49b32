"""The benchmark's metrics: names, units, directions, bounds, and for each
per-layer metric the spans it reads.

BENCHMARK.json at the repository root lists the same names, units,
directions and bounds; a test keeps the two in step.  perfbench/README.md
says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .tracer import CHECK_SPAN_PREFIX


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float  # share of the parent's median a change may worsen it by
    better: str = "lower"


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    value: Callable  # spans (name -> Span) summed over traced passes -> value
    better: str = "lower"
    per_pass: bool = True  # divide by the number of traced passes


END_TO_END = (
    EndToEnd("setup_s", "s", 0.25),
    EndToEnd("wall_s", "s", 0.25),
    EndToEnd("job_p50_ms", "ms", 0.25),
    EndToEnd("job_tail_ms", "ms", 0.25),
    EndToEnd("peak_rss_mb", "MB", 0.1),
)


def _own(*spans):
    return lambda s: sum(s[n].own for n in spans if n in s)


def _calls(span):
    return lambda s: s[span].calls if span in s else 0


def _step_us(s):
    span = s.get("dynamics.rk4")
    return span.total / span.work * 1e6 if span and span.work else 0.0


def _steps(s):
    return s["dynamics.rk4"].work if "dynamics.rk4" in s else 0


# corpus check kinds at the time the benchmark was written
CHECK_KINDS = (
    "affine-integrability", "affine-solve", "affine-symmetry", "affine-symmetry-of-L",
    "base-agreement", "beam-quartic", "degenerate-abort", "derive-ok", "drift", "form",
    "hj", "hj-canonical", "hj-target", "implicit-forms", "morse-rank", "nondegeneracy",
    "pullback", "relatedness", "relatedness-schmidt", "schmidt-form",
)

PER_LAYER = (
    PerLayer("dynamics.rk4_s", "s", _own("dynamics.rk4")),
    PerLayer("dynamics.step_us", "us", _step_us, per_pass=False),
    PerLayer("dynamics.rk4_steps", "count", _steps),
    PerLayer("linalg.rank_s", "s", _own("linalg.rank")),
    PerLayer("linalg.rank_calls", "count", _calls("linalg.rank")),
    PerLayer("linalg.solve_s", "s", _own("linalg.solve")),
    PerLayer("linalg.solve_calls", "count", _calls("linalg.solve")),
    PerLayer("linalg.lstsq_calls", "count", _calls("linalg.lstsq")),
    PerLayer("linalg.svd_calls", "count", _calls("linalg.svd")),
    PerLayer("dynamics.resolve_multipliers_s", "s", _own("dynamics.resolve_multipliers")),
    PerLayer("dynamics.resolve_multipliers_calls", "count", _calls("dynamics.resolve_multipliers")),
    PerLayer("expr.lambdify_s", "s", _own("expr.lambdify")),
    PerLayer("expr.lambdify_calls", "count", _calls("expr.lambdify")),
    PerLayer("calculus.linear_coefficients_calls", "count", _calls("calculus.linear_coefficients")),
    PerLayer("hamjac.relatedness_s", "s", _own("hamjac.relatedness")),
    PerLayer("expr.eval_s", "s", _own("expr.eval")),
    PerLayer("expr.eval_calls", "count", _calls("expr.eval")),
    PerLayer("sampling.sample_binding_s", "s", _own("sampling.sample_binding")),
    PerLayer("sampling.sample_binding_calls", "count", _calls("sampling.sample_binding")),
    PerLayer("sampling.equal_numeric_s", "s", _own("sampling.equal_numeric")),
    PerLayer("hamjac.residual_s", "s", _own("hamjac.residual")),
    PerLayer("hamjac.closure_s", "s", _own("hamjac.closure")),
    PerLayer("hamjac.morse_rank_s", "s", _own("hamjac.morse_rank")),
    PerLayer("hamjac.affine_s", "s", _own("hamjac.affine")),
    PerLayer("parser.parse_s", "s", _own("parser.parse")),
    PerLayer("parser.parse_calls", "count", _calls("parser.parse")),
    PerLayer("expr.simplify_s", "s", _own("expr.simplify")),
    PerLayer("expr.substitute_s", "s", _own("expr.substitute")),
    PerLayer("calculus.diff_s", "s", _own("calculus.diff")),
    PerLayer("calculus.diff_calls", "count", _calls("calculus.diff")),
    PerLayer("calculus.dt_s", "s", _own("calculus.dt")),
    PerLayer("calculus.expand_s", "s", _own("calculus.expand")),
    PerLayer("ostro.derive_s", "s", _own("ostro.energy", "ostro.derive")),
    PerLayer("schmidt.derive_s", "s", _own("schmidt.family", "schmidt.derive")),
    PerLayer("printer.to_text_s", "s", _own("printer.to_text")),
    PerLayer("ostro.energy_calls", "count", _calls("ostro.energy")),
    PerLayer("schmidt.family_calls", "count", _calls("schmidt.family")),
    PerLayer("dynamics.assemble_s", "s", _own("dynamics.assemble")),
    PerLayer("dynamics.assemble_calls", "count", _calls("dynamics.assemble")),
    *(
        PerLayer(f"{CHECK_SPAN_PREFIX}{kind}_s", "s", _own(CHECK_SPAN_PREFIX + kind))
        for kind in CHECK_KINDS
    ),
    PerLayer("dynamics.csv_s", "s", _own("dynamics.csv")),
    PerLayer("cli.job_s", "s", _own("cli.job")),
)

# traced minus untraced wall time of one job list; filled in by the harness
OVERHEAD = PerLayer("trace.overhead_s", "s", None)

ALL_PER_LAYER = PER_LAYER + (OVERHEAD,)


def per_layer_values(spans: dict, passes: int, overhead_s: float) -> dict:
    """Per-layer metrics per job list, from spans summed over ``passes``."""
    out = {m.name: m.value(spans) / (passes if m.per_pass else 1) for m in PER_LAYER}
    out[OVERHEAD.name] = overhead_s
    return out

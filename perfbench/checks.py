"""Independent output checks, one per workload.

Each check takes a job, the exit code the program returned and its standard
output, and returns ``None`` when the output is right or a one-line reason
when it is not.  They run outside the timed region and never call jetlag.
"""

from __future__ import annotations

import json
import math

from .pyeval import py_eval

TEXT_TOL = 1e-9
CONSTRAINT_TOL = 1e-8


class Checker:
    """Judges job outputs; remembers the first corpus report of each job so
    later passes with the same seed can be compared byte for byte."""

    def __init__(self):
        self._first_report = {}

    def check(self, job, code, stdout: str):
        if code != job.expect_exit:
            return f"exit code {code}, expected {job.expect_exit}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "report is not JSON"
        judge = {"corpus": self._corpus, "derive": _derive, "simulate": _simulate, "hj-check": _hj}
        try:
            return judge[job.verb](job, report, stdout)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    def _corpus(self, job, report, stdout):
        first = self._first_report.setdefault(job.name, stdout)
        if stdout != first:
            return "same-seed corpus reports differ"
        entries = report.get("entries", [])
        if len(entries) != job.answer["entries"] or report.get("count") != len(entries):
            return f"corpus ran {len(entries)} entries, expected {job.answer['entries']}"
        failing = [e["id"] for e in entries if not e.get("passed")]
        if failing or not report.get("passed"):
            return f"corpus entries failed: {failing}"
        return None


def _close(got, expected, scale):
    return abs(got - expected) <= TEXT_TOL * (1.0 + abs(expected) + scale)


def _text_matches(text, points, values, scale):
    """Evaluate a printed formula at each point and compare to the closed form."""
    for point, expected in zip(points, values):
        try:
            got = py_eval(text, point)
        except (ArithmeticError, ValueError, NameError, SyntaxError, TypeError) as exc:
            return f"cannot evaluate {text[:60]!r}: {exc}"
        if not _close(got, expected, scale):
            return f"{text[:60]!r} gives {got!r}, closed form {expected!r}"
    return None


def _derive(job, report, _stdout):
    ans = job.answer
    if not isinstance(report.get("energy"), str):
        return "report has no energy"
    bad = _text_matches(report["energy"], ans["points"], ans["energy"], ans["scale"])
    if bad:
        return f"energy: {bad}"
    ham = report.get("hamiltonian")
    if ans["hamiltonian"] is None:
        return None if ham is None else "Hamiltonian reported where none exists"
    if not isinstance(ham, str):
        return "report has no Hamiltonian"
    bad = _text_matches(ham, ans["points"], ans["hamiltonian"], ans["scale"])
    return f"hamiltonian: {bad}" if bad else None


def _simulate(job, report, _stdout):
    import numpy as np

    ans = job.answer
    path = report.get("csv")
    if not path:
        return "report names no CSV"
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    states = ans["states"]
    if header[0] != "t" or header[1 : 1 + len(states)] != states or header[-1] != "E":
        return f"CSV header {header} does not list t, {states}, ..., E"
    rows = table.shape[0]
    if rows != ans["steps"] + 1 or report.get("samples") != rows:
        return f"{rows} CSV rows, expected {ans['steps'] + 1}"
    if not np.all(np.isfinite(table)):
        return "CSV holds non-finite values"
    t = table[:, 0]
    if t[0] != ans["t0"] or abs(t[-1] - ans["t1"]) > 1e-9 * max(1.0, abs(ans["t1"])):
        return f"time grid runs {t[0]!r}..{t[-1]!r}, config asked {ans['t0']}..{ans['t1']}"
    energy = table[:, -1]
    drift = float(np.max(np.abs(energy - energy[0])) / (1.0 + abs(energy[0])))
    if drift > ans["drift_tol"]:
        return f"energy drift {drift:.3g} above {ans['drift_tol']}"
    reported = report.get("energy_drift")
    if not isinstance(reported, float) or abs(reported - drift) > 1e-12:
        return f"reported drift {reported!r}, CSV gives {drift!r}"
    sup = report.get("constraint_sup")
    if not isinstance(sup, float) or not math.isfinite(sup) or sup > CONSTRAINT_TOL:
        return f"constraint residual {sup!r}"
    return None


def _hj(job, report, _stdout):
    verdict = report.get("residuals", {}).get("passed")
    if verdict is not job.answer["passed"]:
        return f"verdict {verdict}, known answer {job.answer['passed']}"
    return None

"""Tests of the benchmark's own code: generator, tracer, checks, metrics and
short runs of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import gen, metrics, run, speed
from perfbench.checks import Checker
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def cli():
    return run._import_cli()


def _run_jobs(cli, jobs, tmp_path):
    argvs = run._write_inputs(jobs, tmp_path / "work")
    return [run._run_job(cli, argv) for argv in argvs]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.make_jobs(workload, 11) == gen.make_jobs(workload, 11)
    if workload != "corpus":
        first = [j.config for j in gen.make_jobs(workload, 11)]
        other = [j.config for j in gen.make_jobs(workload, 12)]
        assert first != other


def test_every_job_carries_its_known_answer():
    for workload in gen.WORKLOADS:
        for job in gen.make_jobs(workload, 5):
            assert job.expect_exit in (0, 1)
            assert job.answer
    hj = gen.make_jobs("hj", 5)
    assert sum(j.answer["passed"] for j in hj) * 2 == len(hj)
    assert all((j.expect_exit == 0) == j.answer["passed"] for j in hj)


def test_tracer_wraps_every_holder_and_restores_originals(cli):
    import numpy as np

    import jetlag.corpus
    import jetlag.dynamics
    import jetlag.hamjac

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("jetlag")}
    closure = jetlag.hamjac.ClosedOneForm.__dict__["closure_report"]
    solve = np.linalg.solve
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        rk4 = jetlag.dynamics.integrate_rk4
        assert rk4 is not before["jetlag.dynamics"]["integrate_rk4"]
        assert jetlag.corpus.integrate_rk4 is rk4  # the corpus's own binding
        assert jetlag.hamjac.ClosedOneForm.__dict__["closure_report"] is not closure
        assert np.linalg.solve is not solve
        np.linalg.solve(np.eye(2), np.ones(2))
    finally:
        tracer.restore()
    assert tracer.spans["linalg.solve"].calls == 1
    assert np.linalg.solve is solve
    assert jetlag.hamjac.ClosedOneForm.__dict__["closure_report"] is closure
    for name, snapshot in before.items():
        now = vars(sys.modules[name])
        assert all(now[key] is value for key, value in snapshot.items()), name


def test_self_time_is_span_minus_children(cli):
    import jetlag.calculus
    from jetlag.parser import parse

    expr = parse("q1_0^3*sin(q1_0) + q1_1^2*q1_0")
    (x,) = [s for s in expr.free if str(s) == "q1_0"]
    tracer = Tracer().install()
    try:
        jetlag.calculus.diff(expr, x)
    finally:
        tracer.restore()
    d, s = tracer.spans["calculus.diff"], tracer.spans["expr.simplify"]
    assert d.calls == 1 and s.calls >= 1  # recursive simplify counts once per outer call
    assert d.own == pytest.approx(d.total - s.total, abs=1e-9)


def test_metric_names_and_benchmark_json_agree():
    names = [m.name for m in metrics.END_TO_END + metrics.ALL_PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.ALL_PER_LAYER
    ]
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)


def test_corpus_check_kinds_match_the_corpus(cli):
    from jetlag.corpus import build_entries

    kinds = {c["kind"] for e in build_entries() for c in e.checks}
    assert kinds == set(metrics.CHECK_KINDS)


@pytest.mark.parametrize("workload", ["derive", "simulate", "hj"])
def test_checks_pass_right_outputs_and_catch_wrong_ones(cli, tmp_path, workload):
    jobs = gen.make_jobs(workload, 2)[:2]
    results = _run_jobs(cli, jobs, tmp_path)
    checker = Checker()
    for job, (code, _, out) in zip(jobs, results):
        assert checker.check(job, code, out) is None
    job, (code, _, out) = jobs[0], results[0]
    report = json.loads(out)
    if workload == "derive":
        report["energy"] += " + 1/1000"
    elif workload == "hj":
        report["residuals"]["passed"] = not report["residuals"]["passed"]
    else:
        path = Path(report["csv"])
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert checker.check(job, code, json.dumps(report)) is not None
    assert checker.check(job, 4, out) is not None


def test_corpus_reports_must_repeat_byte_for_byte(cli, tmp_path):
    job = gen.make_jobs("corpus", 3)[0]
    job.answer = {"entries": 1}
    argv = run._write_inputs([job], tmp_path / "work")[0] + ["--filter", "clement"]
    code, _, out = run._run_job(cli, argv)
    checker = Checker()
    assert checker.check(job, code, out) is None
    assert checker.check(job, code, out) is None
    assert checker.check(job, code, out.replace("clement", "Clement")) is not None


@pytest.mark.parametrize("workload", ["derive", "simulate", "hj"])
def test_short_run_of_each_workload(cli, tmp_path, workload):
    jobs = gen.make_jobs(workload, 4)[:3]
    bench = run._Run(cli, jobs, run._write_inputs(jobs, tmp_path / "work"))
    bench.measure(seconds=0, trace=True)
    assert bench.failures == [] and bench.attempted == run.MIN_PASSES * len(jobs)
    assert len(bench.meter.probes) >= 2  # one speed sample on each side at least
    values, units, _ = run._per_layer(bench)
    assert set(values) == {m.name for m in metrics.ALL_PER_LAYER}
    assert set(units) == set(values)


def test_spans_scale_by_the_speed_samples_in_and_around_them():
    meter = speed.Speedometer()
    ref = speed.REFERENCE_S
    meter.at, meter.probes, meter.costs = [0.0, 1.0, 2.0, 3.0], [ref, ref, 2 * ref, 4 * ref], [0.0, 0.1, 0.0, 0.0]
    # samples at 0 and 2 bracket the span; the one at 1 is inside, and its cost is taken out
    assert meter.own(0.5, 1.5) == pytest.approx(0.9)
    assert meter.scaled(0.5, 1.5) == pytest.approx(0.9 * 3 / 4)
    assert meter.scaled(2.2, 2.4) == pytest.approx(0.2 / 3)


def test_speedometer_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        end = time.perf_counter() + 4 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(meter.probes) >= 3 and meter.at == sorted(meter.at)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_full_run_prints_metrics_last(capsys):
    assert run.main(["--workload", "hj", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import jetlag
from jetlag import calculus, cli, corpus, expr, ostro, sampling
from jetlag.cli import main

from conftest import count_calls_everywhere

DATA = Path(__file__).parent / "data"

BEAM_CONFIG = {
    "problem": "beam",
    "n": 1,
    "k": 2,
    "lagrangian": "1/2*mu*q1_2^2 + rho*q1_0",
    "method": "ostrogradsky",
    "parameters": {"mu": 1.0, "rho": 1.0},
    "simulation": {
        "t0": 0.0,
        "t1": 1.0,
        "h": 0.001,
        "initial": {"q1_0": 0.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0},
    },
}

PLANAR_CONFIG = {
    "problem": "degenerate-planar",
    "n": 3,
    "k": 2,
    "lagrangian": "1/2*(q1_2 + q2_2)^2",
    "method": "ostrogradsky",
    "parameters": {"a": 1.0, "b": 1.0},
    "W": "a*q1_1 + b*q2_1",
    "simulation": {
        "t0": 0.0,
        "t1": 0.1,
        "h": 0.001,
        "initial": {
            "q1_0": 0.1, "q2_0": 0.2, "q3_0": 0.0,
            "q1_1": 0.0, "q2_1": 0.0, "q3_1": 0.0,
            "p1_0": 0.0, "p2_0": 0.0, "p3_0": 0.0,
            "p1_1": 1.0, "p2_1": 1.0, "p3_1": 0.0,
        },
    },
}


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    # reports written without --out go to ./out, which is then tmp_path/out
    monkeypatch.chdir(tmp_path)


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_derive_beam_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BEAM_CONFIG)
    code, out = run_cli(capsys, "derive", "--config", cfg, "--format", "json", "--out", str(tmp_path / "o"))
    assert code == 0
    report = json.loads(out)
    assert "p1_1*q1_2" in report["energy"]
    assert report["implicit_system"]["constraints"] == ["p1_1 - mu*q1_2"]
    assert report["hamiltonian"].count("p1_1^2") == 1


def test_derive_trivial_lagrangian(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BEAM_CONFIG, "problem": "zero", "lagrangian": "0"})
    code, out = run_cli(capsys, "derive", "--config", cfg, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["euler_lagrange"] == ["0"]


# the seconds that derive takes on the config at argv[1], its report discarded
_TIME_DERIVE = """
import contextlib, io, sys, time
from jetlag.cli import main

start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["derive", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, time.perf_counter() - start)
"""


def test_derive_beam_in_twelve_dimensions_runs_within_its_time_budget(tmp_path):
    # the top-derivative determinant was expanded along every entry of each
    # row, zeros too: 12! minors for a Lagrangian that uses only q1
    cfg = write_config(tmp_path, {**BEAM_CONFIG, "n": 12})
    proc = subprocess.run(
        [sys.executable, "-c", _TIME_DERIVE, cfg, str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, seconds = proc.stdout.split()
    assert code == "0"
    assert float(seconds) < 2.0


def test_dense_derive_in_ten_dimensions_runs_within_its_time_budget(tmp_path):
    # the top-derivative Hessian I + J has no zero entry: Cramer's rule stays
    # polynomial only while its determinants share their minors
    n = 10
    squares = " + ".join(f"1/2*q{a}_2^2" for a in range(1, n + 1))
    total = " + ".join(f"q{a}_2" for a in range(1, n + 1))
    config = {"problem": "dense", "n": n, "k": 2, "lagrangian": f"{squares} + 1/2*({total})^2",
              "method": "ostrogradsky"}
    proc = subprocess.run(
        [sys.executable, "-c", _TIME_DERIVE, write_config(tmp_path, config), str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, seconds = proc.stdout.split()
    assert code == "0"
    assert float(seconds) < 3.0


def _job_tables(monkeypatch):
    """The job tables that derivatives were computed under, each once, in
    order of first use (calculus._diff runs on every miss)."""
    seen = []
    real = calculus._diff

    def noted(e, s):
        table = expr._JOB_TABLE.get()
        if not any(t is table for t in seen):
            seen.append(table)
        return real(e, s)

    monkeypatch.setattr(calculus, "_diff", noted)
    return seen


def _holds_nodes_and_derivatives(table):
    """The table keeps nodes by shallow key and diff results by (node, symbol)."""
    derivatives = [k for k in table if isinstance(k, tuple) and len(k) == 2 and isinstance(k[0], expr.Expr)]
    return 0 < len(derivatives) < len(table)


@pytest.mark.parametrize(
    "verb, config, code",
    [
        ("derive", BEAM_CONFIG, 0),
        ("derive", {**BEAM_CONFIG, "method": "schmidt2", "gauge_F": "a1_0^3"}, 2),  # incompatible
        ("simulate", {**BEAM_CONFIG, "lagrangian": "1/2*q1_2^2 + 1/6*q1_0^6",
                      "simulation": {"t0": 0.0, "t1": 2.0, "h": 0.01, "initial": {
                          "q1_0": 1e60, "q1_1": 1e60, "p1_0": 0.0, "p1_1": 0.0}}}, 4),
    ],
)
def test_no_diff_memo_outlives_its_job(tmp_path, capsys, monkeypatch, verb, config, code):
    tables = _job_tables(monkeypatch)
    assert main([verb, "--config", write_config(tmp_path, config), "--out", str(tmp_path)]) == code
    capsys.readouterr()
    assert len(tables) == 1 and tables[0] is not None  # the job differentiated under its table
    assert _holds_nodes_and_derivatives(tables[0])  # which also holds the job's nodes
    assert expr._JOB_TABLE.get() is None


def test_two_jobs_share_no_diff_memo_entry(tmp_path, capsys, monkeypatch):
    tables = _job_tables(monkeypatch)
    cfg = write_config(tmp_path, BEAM_CONFIG)
    assert main(["derive", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["derive", "--config", cfg, "--out", str(tmp_path)]) == 0
    first, second = tables
    assert first is not second
    # the second job built every node and computed every derivative again
    assert len(second) == len(first) > 0
    corpus.run_all([e for e in corpus.build_entries() if e.id in ("beam", "clement")])
    assert len(tables) == 4 and all(t is not None for t in tables)  # one table per corpus entry
    assert len(set(map(id, tables))) == 4 and all(map(_holds_nodes_and_derivatives, tables))
    assert expr._JOB_TABLE.get() is None


# affine in its top derivatives q1_2 and q2_2
CHIRAL_CONFIG = {
    "problem": "chiral",
    "n": 2,
    "k": 2,
    "lagrangian": "-lmb*(q1_1*q2_2 - q2_1*q1_2) + m/2*(q1_1^2 + q2_1^2)",
    "method": "ostrogradsky",
    "parameters": {"lmb": 1.0, "m": 1.0},
}


def test_derive_chiral_attaches_affine_warning(tmp_path, capsys):
    cfg = write_config(tmp_path, CHIRAL_CONFIG)
    code, out = run_cli(capsys, "derive", "--config", cfg, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["affine_warning"]["affine_in_top_derivative"] is True
    assert report["affine_warning"]["coefficient_symmetry_passed"] is False


def test_derive_seeds_a_generator_only_for_an_affine_lagrangian(tmp_path, monkeypatch, capsys):
    calls = count_calls_everywhere(monkeypatch, sampling.make_rng)
    assert main(["derive", "--config", write_config(tmp_path, BEAM_CONFIG), "--format", "json"]) == 0
    assert "affine_warning" not in json.loads(capsys.readouterr().out)
    assert calls == []
    assert main(["derive", "--config", write_config(tmp_path, CHIRAL_CONFIG), "--format", "json"]) == 0
    assert "affine_warning" in json.loads(capsys.readouterr().out)
    assert calls


def test_derive_schmidt2_auto_gauge(tmp_path, capsys):
    config = {
        "problem": "quad",
        "n": 1,
        "k": 2,
        "lagrangian": "1/2*mu*q1_2^2",
        "method": "schmidt2",
        "parameters": {"mu": 2.0},
    }
    cfg = write_config(tmp_path, config)
    code, out = run_cli(capsys, "derive", "--config", cfg, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["gauge"] == "-a1_0*mu*q1_1"
    assert report["compatibility_residuals"] == ["0"]
    assert "pa1" in report["hamiltonian"]
    assert report["momentum_relations"] == ["pa1 + mu*q1_1"]


@pytest.mark.parametrize(
    "method, n, gauge, code",
    [
        ("schmidt3", 2, "1/1000000*(q1_1*m1_0 + q2_1*m2_0)", 0),
        ("schmidt3", 3, "1/10000*(q1_1*m1_0 + q2_1*m2_0 + q3_1*m3_0)", 0),
        ("schmidt2deg", 2, "1/1000000*(q1_1*m1_0 + q2_1*m2_0)", 0),
        ("schmidt3", 2, "q1_1*m1_0 + q1_1*m2_0", 2),  # rank 1 of 2 everywhere
    ],
)
def test_gauge_condition_is_a_rank_test_independent_of_scale(tmp_path, capsys, method, n, gauge, code):
    # the mixed gauge Hessian s*I has full rank at any scale s the multiplier
    # solver accepts; a determinant test would reject s^n < 1e-10
    k = 3 if method == "schmidt3" else 2
    lagrangian = " + ".join(f"1/2*q{a}_{k}^2" for a in range(1, n + 1))
    config = {"problem": "scaled", "n": n, "k": k, "lagrangian": lagrangian, "method": method, "gauge_F": gauge}
    assert main(["derive", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert ("singular" in err) == (code == 2)


def test_simulate_beam_and_csv_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, BEAM_CONFIG)
    out_dir = tmp_path / "runs"
    code, out = run_cli(
        capsys, "simulate", "--config", cfg, "--out", str(out_dir), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["energy_drift"] <= 1e-8
    csv_path = out_dir / "beam.csv"
    first = csv_path.read_bytes()
    header = first.split(b"\n", 1)[0].decode()
    assert header == "t,q1_0,q1_1,p1_0,p1_1,q1_2,E"
    code, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out_dir), "--format", "json")
    assert code == 0
    assert csv_path.read_bytes() == first


def test_simulate_binds_a_parameter_that_only_the_energy_reads(tmp_path, capsys):
    # c drops out of the Euler-Lagrange equations but not out of the energy
    config = {
        **BEAM_CONFIG,
        "problem": "energy-parameter",
        "lagrangian": "1/2*q1_2^2 + c",
        "parameters": {"c": 2.0},
        "simulation": {
            "t0": 0.0, "t1": 0.1, "h": 0.01,
            "initial": {"q1_0": 0.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 1.0},
        },
    }
    cfg = write_config(tmp_path, config)
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--format", "json")
    assert code == 0
    rows = (tmp_path / "o" / "energy-parameter.csv").read_text().splitlines()
    assert rows[0].endswith(",E") and len(rows) == 12
    assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"-1.5"}  # p1_1*q1_2 - 1/2*q1_2^2 - c


def test_simulate_reports_a_constraint_left_at_rounding_level(tmp_path, capsys):
    # the solve of mu*q1_2 + q1_1 - p1_1 = 0 at p1_1 = 3.3e8 leaves |g| at
    # rounding level, ~2e-8: the run records it as constraint_sup, and does
    # not hold it against an absolute bound
    config = {
        **BEAM_CONFIG,
        "problem": "rounding",
        "lagrangian": "1/2*mu*q1_2^2 + q1_1*q1_2",
        "parameters": {"mu": 0.1},
        "simulation": {
            "t0": 0.0, "t1": 0.02, "h": 0.01,
            "initial": {"q1_0": 0.0, "q1_1": 0.1, "p1_0": 0.0, "p1_1": 3.3e8},
        },
    }
    cfg = write_config(tmp_path, config)
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert 0.0 < report["constraint_sup"] < 1e-6
    rows = (tmp_path / "o" / "rounding.csv").read_text().splitlines()
    assert len(rows[1:]) == report["samples"] == 3


def test_simulate_reports_an_energy_without_value_as_null(tmp_path, capsys):
    # ln(q1_0) has no real value from q1_0 = -1: every sample's energy is
    # nan, the CSV says so, and the report stays strict JSON
    config = {
        **BEAM_CONFIG,
        "problem": "ln-energy",
        "lagrangian": "1/2*q1_2^2 + ln(q1_0)",
        "parameters": {},
        "simulation": {
            "t0": 0.0, "t1": 0.05, "h": 0.01,
            "initial": {"q1_0": -1.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0},
        },
    }
    cfg = write_config(tmp_path, config)
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--format", "json")
    assert code == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(out, parse_constant=refuse)
    assert report["energy_drift"] is None
    assert json.loads((tmp_path / "o" / "ln-energy.report.json").read_text(), parse_constant=refuse) == report
    rows = (tmp_path / "o" / "ln-energy.csv").read_text().splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["nan"] * 6


def test_simulate_incomplete_initial_state_is_usage_error(tmp_path, capsys):
    partial = {**BEAM_CONFIG, "simulation": {**BEAM_CONFIG["simulation"], "initial": {"q1_0": 0.0}}}
    cfg = write_config(tmp_path, partial)
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: no value bound for symbol q1_1\n"  # the first state missing


def test_simulate_missing_parameter_is_usage_error_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BEAM_CONFIG, "parameters": {"mu": 1.0}})
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: no value bound for symbol rho\n"


def test_simulate_bad_step_is_usage_error(tmp_path, capsys):
    bad = {**BEAM_CONFIG, "simulation": {**BEAM_CONFIG["simulation"], "h": -1.0}}
    cfg = write_config(tmp_path, bad)
    assert main(["simulate", "--config", cfg]) == 2
    capsys.readouterr()


def test_simulate_degenerate_aborts_with_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANAR_CONFIG)
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--format", "json")
    assert code == 3


def test_simulate_abort_reports_time_and_step(tmp_path, capsys):
    out_dir = str(tmp_path / "o")
    cfg = write_config(tmp_path, PLANAR_CONFIG)
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--format", "json", "--out", out_dir)
    assert code == 3
    aborted = json.loads(out)["aborted"]
    assert (aborted["rank"], aborted["of"], aborted["last_good_time"], aborted["step"]) == (1, 3, 0.0, 0)
    # multiplier block -q1_0 with q1_0 = 1 - 4t: singular inside step 4
    shrinking = {
        "problem": "shrinking",
        "n": 1,
        "k": 2,
        "lagrangian": "1/2*q1_0*q1_2^2",
        "method": "ostrogradsky",
        "simulation": {
            "t0": 0.0, "t1": 1.0, "h": 0.0625,
            "initial": {"q1_0": 1.0, "q1_1": -4.0, "p1_0": 0.0, "p1_1": 0.0},
        },
    }
    cfg = write_config(tmp_path, shrinking, "shrinking.json")
    code, out = run_cli(capsys, "simulate", "--config", cfg, "--format", "json", "--out", out_dir)
    assert code == 3
    aborted = json.loads(out)["aborted"]
    assert (aborted["rank"], aborted["of"], aborted["last_good_time"], aborted["step"]) == (0, 1, 0.1875, 4)


def test_simulate_ragged_grid_is_usage_error(tmp_path, capsys):
    ragged = {**BEAM_CONFIG, "simulation": {**BEAM_CONFIG["simulation"], "h": 0.3}}
    cfg = write_config(tmp_path, ragged)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "whole number of steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "t0, t1",
    # t0 + 1.0 rounds back to t0: at 1e17 the spacing of floats is 16, at
    # 2^53 it is 2 and the sum ties to t0's even mantissa
    [(1e17, 1.0000000000000016e17), (2.0**53, 2.0**53 + 2)],
)
def test_simulate_step_that_cannot_advance_the_clock_is_usage_error(tmp_path, t0, t1):
    config = {**BEAM_CONFIG, "simulation": {**BEAM_CONFIG["simulation"], "t0": t0, "t1": t1, "h": 1.0}}
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", "simulate", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("*.csv"))


def test_simulate_complex_intermediate_is_numeric_failure(tmp_path, capsys):
    # q1_0^(1/2) at q1_0 = -1 compiles to a complex number, which cos rejects
    config = {
        **BEAM_CONFIG,
        "lagrangian": "1/2*q1_2^2 + cos(q1_0^(1/2))",
        "parameters": {},
        "simulation": {**BEAM_CONFIG["simulation"], "t1": 0.01,
                       "initial": {"q1_0": -1.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0}},
    }
    cfg = write_config(tmp_path, config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_missing_config_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "x"})
    assert main(["derive", "--config", cfg]) == 2
    capsys.readouterr()
    assert main(["derive", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_hj_check_planar_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, PLANAR_CONFIG)
    code, out = run_cli(capsys, "hj-check", "--config", cfg, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["passed"] is True
    assert report["equation_family"] == "ostrogradsky"
    assert "skipped" in report["relatedness"]


def test_hj_check_component_form_with_relatedness(tmp_path, capsys):
    config = {
        "problem": "javelin",
        "n": 1,
        "k": 2,
        "lagrangian": "1/2*q1_1^2 - 1/2*q1_2^2",
        "method": "ostrogradsky",
        "parameters": {"A": 1.0, "B": 0.0},
        "gamma_components": ["A", "sqrt(2)*sqrt(A*q1_1 - 1/2*q1_1^2 - B)"],
        "sample_box": {"q1_1": [0.15, 1.85]},
        "domain_guards": [["A*q1_1 - 1/2*q1_1^2 - B", 0.1]],
        "tolerances": {"residual": 1e-9},
        "simulation": {"t0": 0.0, "t1": 0.3, "h": 0.001,
                       "initial": {"q1_0": 0.3, "q1_1": 1.0}},
    }
    path = write_config(tmp_path, config)
    code, out = run_cli(capsys, "hj-check", "--config", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["passed"] is True
    assert report["relatedness"]["passed"] is True
    assert report["relatedness"]["overall_sup"] <= 1e-5


def test_hj_check_zero_potential_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, {**BEAM_CONFIG, "W": "0"})
    del cfg  # config path built below
    config = {**BEAM_CONFIG, "W": "0"}
    config.pop("simulation")
    path = write_config(tmp_path, config, "w0.json")
    code, out = run_cli(capsys, "hj-check", "--config", path, "--format", "json")
    assert code == 1
    report = json.loads(out)
    fiber_eqs = [e for e in report["residuals"]["equations"] if e["name"].startswith("fiber")]
    assert any("mu*q1_2" in e["expr"] for e in fiber_eqs)


LN_FIBER = {
    "problem": "ln-fiber",
    "n": 1,
    "k": 2,
    "method": "ostrogradsky",
    "lagrangian": "q1_2*ln(q1_2) - q1_2 + 1/2*q1_1^2",
    "W": "q1_0*q1_1",
}


def test_hj_check_fiber_newton_skips_starts_outside_the_domain(tmp_path, capsys):
    # the fiber equation q1_0 = ln(q1_2) has the root exp(q1_0); Newton from
    # the first start, 0.0, evaluates ln(0), and a later start converges
    path = write_config(tmp_path, {**LN_FIBER, "sample_box": {"q1_0": [0, 2]}})
    code, out = run_cli(capsys, "hj-check", "--config", path, "--format", "json")
    assert code == 1  # W is no generating function of this Lagrangian
    assert json.loads(out)["residuals"]["details"]["fiber_consistency"] == 0.0
    # with q1_0 near -2, Newton leaves the domain from every start
    path = write_config(tmp_path, LN_FIBER, "unboxed.json")
    assert main(["hj-check", "--config", path]) == 4
    err = capsys.readouterr().err
    assert "failed from every start" in err
    assert "Traceback" not in err


AFFINE_CONFIG = {
    "problem": "affine",
    "n": 1,
    "k": 2,
    "lagrangian": "(B + q1_0)*q1_2 + A*q1_1 + q1_1^2",
    "method": "ostrogradsky",
    "parameters": {"A": 1.0, "B": 2.0},
}


def test_hj_solve_affine(tmp_path, capsys):
    path = write_config(tmp_path, AFFINE_CONFIG)
    code, out = run_cli(capsys, "hj-solve-affine", "--config", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["closure"]["passed"] is True
    assert report["verification"]["passed"] is True
    assert report["potential"] is not None


def test_hj_solve_affine_solves_the_lagrangian_it_names(tmp_path, capsys):
    # f and g come from the lagrangian: fields that name another L are not read
    config = {**AFFINE_CONFIG, "affine_f": ["B + 2*q1_0"], "affine_g": "A*q1_1 + q1_1^2"}
    code, out = run_cli(capsys, "hj-solve-affine", "--config", write_config(tmp_path, config), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["closure"]["passed"] is True
    assert report["verification"]["passed"] is True


def test_hj_solve_affine_of_a_lagrangian_not_affine_is_usage_error(tmp_path, capsys):
    assert main(["hj-solve-affine", "--config", write_config(tmp_path, BEAM_CONFIG)]) == 2
    assert "not affine in its top derivatives" in capsys.readouterr().err


def test_corpus_list_names_eight_entries(capsys):
    code, out = run_cli(capsys, "corpus", "list", "--format", "json")
    assert code == 0
    report = json.loads(out)
    ids = [e["id"] for e in report["entries"]]
    assert ids == sorted(ids)
    assert len(ids) == 8
    assert set(ids) == {
        "affine-second-template",
        "affine-third-template",
        "beam",
        "chiral-oscillator",
        "clement",
        "degenerate-planar",
        "javelin",
        "pure-quadratic",
    }


def test_corpus_single_entry_and_unknown_filter(capsys):
    code, out = run_cli(capsys, "corpus", "run", "--filter", "degenerate-planar", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert main(["corpus", "run", "--filter", "no-such-entry"]) == 2
    capsys.readouterr()


def test_report_determinism(capsys):
    code1, out1 = run_cli(capsys, "corpus", "run", "--filter", "affine-second-template", "--seed", "42", "--format", "json")
    code2, out2 = run_cli(capsys, "corpus", "run", "--filter", "affine-second-template", "--seed", "42", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_numeric_blowup_is_exit_4(tmp_path, capsys):
    config = {
        "problem": "blowup",
        "n": 1,
        "k": 2,
        "lagrangian": "1/2*q1_2^2 + 1/6*q1_0^6",
        "method": "ostrogradsky",
        "simulation": {
            "t0": 0.0, "t1": 2.0, "h": 0.01,
            "initial": {"q1_0": 1e60, "q1_1": 1e60, "p1_0": 0.0, "p1_1": 0.0},
        },
    }
    path = write_config(tmp_path, config)
    assert main(["simulate", "--config", path]) == 4
    capsys.readouterr()


def test_derive_folds_a_root_beyond_float_range(tmp_path, capsys):
    # (10^400)^(1/2) folds to the integer 10^200 without a float conversion
    config = {
        "problem": "huge-root",
        "n": 1,
        "k": 2,
        "lagrangian": "(10^400)^(1/2)*q1_2^2",
        "method": "ostrogradsky",
    }
    code = main(["derive", "--config", write_config(tmp_path, config), "--format", "json"])
    captured = capsys.readouterr()
    assert code in range(5)
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["implicit_system"]["constraints"] == ["p1_1 - 2" + "0" * 200 + "*q1_2"]


def test_constant_beyond_float_range_is_exit_4(tmp_path, capsys):
    # (10^400)^(1/3) has no exact root and no float value: the row
    # evaluator (hj-check) and the compiled one (simulate) both refuse it
    config = {
        "problem": "huge-cube-root",
        "n": 1,
        "k": 2,
        "lagrangian": "(10^400)^(1/3)*q1_2^2",
        "method": "ostrogradsky",
        "W": "q1_1",
        "simulation": {
            "t0": 0.0, "t1": 0.1, "h": 0.01,
            "initial": {"q1_0": 0.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0},
        },
    }
    path = write_config(tmp_path, config)
    assert main(["hj-check", "--config", path]) == 4
    assert main(["simulate", "--config", path]) == 4
    assert "does not fit a float" in capsys.readouterr().err


def test_open_one_form_is_exit_1(tmp_path, capsys):
    config = {
        "problem": "open-form",
        "n": 1,
        "k": 2,
        "lagrangian": "1/2*q1_2^2",
        "method": "ostrogradsky",
        "gamma_components": ["q1_1", "0"],
    }
    path = write_config(tmp_path, config)
    assert main(["hj-check", "--config", path]) == 1
    capsys.readouterr()


def test_corpus_run_builds_its_entries_once(capsys, monkeypatch):
    calls = count_calls_everywhere(monkeypatch, corpus.build_entries)
    assert main(["corpus", "run", "--filter", "beam", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_corpus_empty_filter_is_noop_success(capsys):
    code, out = run_cli(capsys, "corpus", "run", "--filter", "", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 0 and report["passed"] is True


def test_console_script_runs():
    # the working directory is tmp_path, so a relative PYTHONPATH would miss
    # the package: point the child at the one imported here
    package_root = str(Path(jetlag.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", "corpus", "list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0
    assert "beam" in proc.stdout


@pytest.mark.parametrize(
    "method, k, gauge",
    [
        ("schmidt2", 1, None),
        ("schmidt2", 4, None),
        ("schmidt2deg", 1, None),
        ("schmidt2deg", 3, None),
        ("schmidt2deg", 4, None),
        ("schmidt3", 1, None),
        ("schmidt3", 4, None),
        ("schmidt2", 2, "q1_2"),  # a gauge may not use the acceleration q1_2
        ("schmidt2deg", 2, "a1_0*m1_0"),  # the degenerate route's gauge has no a1_0
    ],
)
def test_method_order_mismatch_is_usage_error(tmp_path, capsys, method, k, gauge):
    config = {"problem": "mismatch", "n": 1, "k": k, "lagrangian": f"1/2*q1_{k}^2", "method": method}
    if gauge is not None:
        config["gauge_F"] = gauge
    assert main(["derive", "--config", write_config(tmp_path, config)]) == 2
    assert "error:" in capsys.readouterr().err


JAVELIN_HJ = {
    "problem": "javelin",
    "n": 1,
    "k": 2,
    "lagrangian": "1/2*q1_1^2 - 1/2*q1_2^2",
    "method": "ostrogradsky",
    "parameters": {"A": 1.0, "B": 0.0},
    "gamma_components": ["A", "sqrt(2)*sqrt(A*q1_1 - 1/2*q1_1^2 - B)"],
    "sample_box": {"q1_1": [0.15, 1.85]},
    "domain_guards": [["A*q1_1 - 1/2*q1_1^2 - B", 0.1]],
}


def _with_initial(initial):
    return {**BEAM_CONFIG, "simulation": {**BEAM_CONFIG["simulation"], "initial": initial}}


@pytest.mark.parametrize(
    "verb, config",
    [
        ("hj-check", {**BEAM_CONFIG, "W": "0", "parameters": {"mu": "abc", "rho": 1.0}}),
        ("hj-check", {**JAVELIN_HJ, "sample_box": {"q1_1": [0.15]}}),
        ("simulate", _with_initial({"q1_0*q1_1": 0.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0})),
        ("simulate", _with_initial({"q1_0": "abc", "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0})),
        ("hj-check", {**PLANAR_CONFIG, "simulation": {"t0": 0.0, "t1": 0.1, "h": 0.001}}),
        ("simulate", _with_initial({"q1_0+1": 0.0, "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0})),
        ("hj-check", {**JAVELIN_HJ, "sample_box": {"q1_1": [1.85, 0.15]}}),
        ("derive", {**BEAM_CONFIG, "parameters": {"mu*rho": 1.0}}),
        ("derive", {**BEAM_CONFIG, "parameters": {"q1_0": 1.0}}),
        ("simulate", _with_initial({"q1_0": float("inf"), "q1_1": 0.0, "p1_0": 0.0, "p1_1": 0.0})),
        ("hj-check", {**JAVELIN_HJ, "simulation": {"t0": 0.0, "t1": 0.3, "h": 0.001, "initial": {"q1_0": 0.3}}}),
        ("derive", {**BEAM_CONFIG, "lagrangian": "q1_1*q1_2^2", "method": "schmidt2"}),
        ("derive", {**BEAM_CONFIG, "method": "schmidt2deg", "gauge_F": "q1_1*q1_0"}),
        ("derive", {**BEAM_CONFIG, "method": "schmidt2", "gauge_F": "-mu*q1_1*a1_0 + q1_0*m1_0"}),
        ("hj-check", {**JAVELIN_HJ, "gamma_components": ["A"]}),
        ("hj-solve-affine", BEAM_CONFIG),
        ("hj-check", {**BEAM_CONFIG, "W": "zz*q1_1"}),
        ("hj-check", {**BEAM_CONFIG, "W": "lam1*q1_0"}),
        ("hj-check", {**BEAM_CONFIG, "W": "q1_1", "simulation": {**BEAM_CONFIG["simulation"], "t1": 0.0}}),
    ],
    ids=[
        "non-numeric-parameter",
        "one-number-sample-box",
        "product-initial-key",
        "non-numeric-initial-value",
        "hj-check-simulation-without-initial",
        "sum-initial-key",
        "reversed-sample-box",
        "product-parameter-name",
        "coordinate-parameter-name",
        "infinite-initial-value",
        "hj-check-initial-misses-a-form-coordinate",
        "schmidt2-gauge-not-derivable",
        "schmidt2deg-singular-gauge-hessian",
        "schmidt2-gauge-uses-auxiliary",
        "gamma-components-one-short",
        "hj-solve-affine-lagrangian-not-affine",
        "one-form-uses-an-unknown-symbol",
        "one-form-uses-a-multiplier",
        "relatedness-grid-of-one-sample",
    ],
)
def test_malformed_config_value_is_usage_error(tmp_path, capsys, verb, config):
    path = write_config(tmp_path, config)
    assert main([verb, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


# a \u escape in JSON can spell a lone surrogate, which no UTF-8 text holds;
# the last field of each case holds one
@pytest.mark.parametrize(
    "verb, fields",
    [
        ("derive", {"problem": "beam\ud800"}),
        ("derive", {"lagrangian": "1/2*q1_2^2 + \udfff"}),
        ("derive", {"method": "schmidt2", "gauge_F": "q1_1*a1_0 + \ud800"}),
        ("hj-check", {"W": "q1_1 + \udfff"}),
        ("hj-check", {"gamma_components": ["\ud800", "q1_0"]}),
        ("hj-check", {"W": "q1_1", "hj_target": "\ud800"}),
        ("hj-check", {"W": "q1_1", "domain_guards": [["q1_1 + \udfff", 0.1]]}),
        ("hj-solve-affine", {"affine_f": ["1"], "affine_g": "\ud800"}),
        ("hj-solve-affine", {"affine_g": "0", "affine_f": ["\udfff"]}),
        ("derive", {"schmidt_W": "\ud800"}),
        ("derive", {"schmidt_W_canonical": "\ud800"}),
        ("derive", {"parameters": {"mu": 1.0, "rho\ud800": 1.0}}),
    ],
    ids=lambda v: v if isinstance(v, str) else list(v)[-1],
)
def test_lone_surrogate_in_a_config_is_usage_error(tmp_path, verb, fields):
    config = {**BEAM_CONFIG, **fields}
    config["simulation"] = {**config["simulation"], "t1": 0.01}
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", verb, "--config", write_config(tmp_path, config)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def _cli_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "jetlag.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=60,
    )


@pytest.mark.parametrize("verb", ["corpus", "hj-check"])
def test_negative_seed_is_usage_error(tmp_path, verb):
    # numpy's generator takes no negative seed
    args = ["run", "--filter", ""] if verb == "corpus" else ["--config", write_config(tmp_path, PLANAR_CONFIG)]
    proc = _cli_process(verb, *args, "--seed", "-1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == "error: --seed must be a non-negative integer, got -1\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tol_is_usage_error(tmp_path, tol):
    # a tolerance is a finite number, as in a config; no report holds NaN
    cfg = write_config(tmp_path, PLANAR_CONFIG)
    proc = _cli_process("hj-check", "--config", cfg, f"--tol={tol}", "--format", "json", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: --tol must be a finite number, got {float(tol)}\n"
    assert proc.stdout == "" and not list(tmp_path.glob("*.report.json"))


@pytest.mark.parametrize(
    "verb, lagrangian",
    [
        ("simulate", "1/2*q1_2^2 + 2^2^2^2^2*q1_0"),  # 2^65536 stays a power, which overflows
        ("derive", "2^2^2^2^2*q1_2^2"),
        ("derive", "10^10^10*q1_2^2"),  # folding it exactly would not end
        ("derive", "2^14000*2^14000*q1_2^2"),  # 8429 digits: past the int-to-text limit
        ("simulate", "2^14000*2^14000*q1_2^2"),
        ("derive", "2^(1/2^40)*q1_2^2"),  # a root search from 2^(2^40) ran out of memory
        ("derive", "2^1100*sin(1)*q1_2^2"),  # an OverflowError while sin(1) folded to a float
    ],
)
def test_huge_constants_end_with_a_contract_exit_code(tmp_path, verb, lagrangian):
    config = {**BEAM_CONFIG, "lagrangian": lagrangian, "parameters": {}}
    config["simulation"] = {**config["simulation"], "t1": 0.01}
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", verb, "--config", write_config(tmp_path, config)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=20,
    )
    assert proc.returncode in range(5)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "lagrangian",
    ["1" * 5000 + "*q1_2^2", "1e10000000*q1_2^2"],
    ids=["past-the-int-to-text-limit", "ten-million-exponent"],
)
def test_over_long_number_literal_is_usage_error(tmp_path, lagrangian):
    config = {**BEAM_CONFIG, "lagrangian": lagrangian, "parameters": {}}
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", "derive", "--config", write_config(tmp_path, config)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=20,
    )
    assert proc.returncode == 2
    assert "number literal needs more than" in proc.stderr


def test_config_nested_past_the_json_reader_is_usage_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BEAM_CONFIG)[:-1] + ', "extra": ' + "[" * 5000 + "]" * 5000 + "}", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", "derive", "--config", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read config") and "Traceback" not in proc.stderr


def test_deep_nesting_is_usage_error(tmp_path):
    config = {**BEAM_CONFIG, "lagrangian": "(" * 500 + "q1_2" + ")" * 500 + "^2", "parameters": {}}
    proc = subprocess.run(
        [sys.executable, "-m", "jetlag.cli", "derive", "--config", write_config(tmp_path, config)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(jetlag.__file__).resolve().parent.parent)},
        timeout=20,
    )
    assert proc.returncode == 2
    assert "nests deeper than 100 levels" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("method", ["schmidt3", "schmidt2deg"])
def test_auxiliary_factor_derive_compiles_no_scalar_code(tmp_path, monkeypatch, method):
    calls = count_calls_everywhere(monkeypatch, expr.lambdify)
    assert main(["derive", "--config", str(DATA / f"derive-{method}.json"), "--out", str(tmp_path)]) == 0
    assert calls == []


def test_simulate_compiles_only_the_multiplier_solver(tmp_path, monkeypatch, capsys):
    calls = count_calls_everywhere(monkeypatch, expr.define)  # every generated function
    lambdified = count_calls_everywhere(monkeypatch, expr.lambdify)
    assert main(["simulate", "--config", str(DATA / "beam.json"), "--out", str(tmp_path)]) == 0
    assert lambdified == []
    # the RK4 loop alone: it holds the constant constraint matrix, the
    # multiplier solve and the right-hand side, and evaluates the
    # constraints and the energy at every sample
    assert len(calls) == 1


def test_ostrogradsky_derive_builds_the_energy_once(tmp_path, monkeypatch, capsys):
    real = ostro.ostro_energy
    calls = []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("jetlag") and getattr(module, "ostro_energy", None) is real:
            monkeypatch.setattr(module, "ostro_energy", counted)
    assert main(["derive", "--config", write_config(tmp_path, BEAM_CONFIG), "--out", str(tmp_path / "o")]) == 0
    assert "hamiltonian_note" not in capsys.readouterr().out  # the Hamiltonian was derived too
    assert len(calls) == 1


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("not a directory")
    cfg = write_config(tmp_path, {**BEAM_CONFIG, "simulation": {**BEAM_CONFIG["simulation"], "t1": 0.01}})
    for verb in ("simulate", "derive"):
        assert main([verb, "--config", cfg, "--out", str(tmp_path / "afile" / "sub")]) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert captured.out == ""


def test_calls_in_one_process_each_get_their_own_arguments(tmp_path, capsys):
    # the argument parser is built once per process and shared by every call
    assert cli._build_parser() is cli._build_parser()
    cfg = write_config(tmp_path, {**BEAM_CONFIG, "simulation": {**BEAM_CONFIG["simulation"], "t1": 0.01}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "simulate"
    assert main(["derive", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.startswith("command: derive\n")
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["beam.csv", "beam.report.json"]
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["beam.report.json"]
    assert json.loads((tmp_path / "b" / "beam.report.json").read_text())["command"] == "derive"


ARGV_VERBS = ("derive", "simulate", "hj-check", "hj-solve-affine", "corpus", "frobnicate")
ARGV_TOKENS = (
    *ARGV_VERBS, "run", "list", "--config", "--out", "--seed", "--tol", "--format", "--filter", "--help", "-h",
    "--bogus", "json", "text", "beam", "no-such-entry", "abc", "", "-1", "0", "7", "1e-8", "nan", "-inf",
    str(DATA / "beam.json"), str(DATA / "derive-ostrogradsky.json"), "missing.json", "out",
)
# a verb first (or nothing), then any tokens
_ARGV = st.builds(
    lambda verb, rest: verb + rest,
    st.lists(st.sampled_from(ARGV_VERBS), max_size=1),
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=6),
)


# the autouse fixture's working directory, tmp_path, serves every example
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_ARGV)
@example(["hj-check", "--tol", "abc"])
@example(["frobnicate"])
@example([])
@example(["--help"])
def test_main_returns_an_exit_code_for_every_argv(argv):
    # argparse's own exits (2 for a usage error, 0 for --help) are returned
    # too, not raised
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert type(code) is int and 0 <= code <= 4


def test_help_exits_0():
    proc = _cli_process("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: jetlag")
    assert proc.stderr == ""

import importlib.util
import json
from pathlib import Path

import numpy as np

from jetlag import cli, dynamics, errors, expr, hamjac, job, sampling

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("record_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_run_records_exit_code_output_and_written_files(tmp_path):
    tool = _tool()
    out = tmp_path / "out"
    argv = ["corpus", "run", "--filter", "affine-second-template", "--seed", "1", "--out", str(out), "--format", "json"]
    first = tool._run(cli, argv, out)
    assert first["exit"] == 0 and first["stderr"] == ""
    assert list(first["files"]) == ["corpus-run.report.json"]
    assert tool._run(cli, argv, out) == first
    missing = tool._run(cli, ["derive", "--config", str(tmp_path / "none.json"), "--out", str(out)], out)
    assert missing["exit"] == 2 and missing["files"] == {}


def test_compare_names_every_run_that_differs_or_is_missing(tmp_path):
    tool = _tool()
    run = {"exit": 0, "stdout": "x", "stderr": "", "files": {"a.csv": "00"}}
    a = {"same": run, "moved": run, "only-a": run}
    b = {"same": dict(run), "moved": {**run, "files": {"a.csv": "01"}}, "only-b": run}
    assert tool.compare(a, b) == ["moved", "only-a", "only-b"]
    for name, record in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(record))
    assert tool.main(["--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert tool.main(["--compare", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0


def test_edge_runs_reach_the_exit_codes_that_the_job_lists_miss(tmp_path, monkeypatch):
    tool = _tool()
    monkeypatch.chdir(tmp_path)
    configs = tmp_path / "configs"
    configs.mkdir()
    # and the paths that they miss: hamjac's fiber Newton, LAPACK's gesv on a
    # 3x3 block in the generated RK4 loop, three error classes, a constraint
    # with no real value, a non-finite compiled value, hj-check's target
    # form, relatedness, on a Newton system too, an energy drift with no
    # value, and a function of a symbol evaluated over sampled rows
    entered = {}

    def count(owner, name, key, when=lambda *args: True):
        entered[key] = 0
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            entered[key] += bool(when(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(hamjac._FiberSolver, "_newton", "fiber newton")
    count(dynamics, "_gesv", "3x3 gesv", lambda A, B: A.shape == (3, 3))
    count(errors.ParseError, "__init__", "ParseError", lambda self, *args: type(self) is errors.ParseError)
    count(errors.UnknownIdentifierError, "__init__", "UnknownIdentifierError")
    count(errors.ClosureError, "__init__", "ClosureError")
    count(dynamics, "_constraint_failure", "constraint failure")
    count(dynamics, "_nonfinite", "non-finite value")  # the name the generated RK4 loop calls
    count(cli, "hj_residual_nondeg", "target form")
    count(job, "gamma_relatedness", "relatedness")
    count(cli, "energy_drift", "drift without value", lambda traj: bool(np.isnan(traj.energies).all()))
    count(
        sampling,
        "compile_rows",
        "function rows",
        lambda exprs, symbols: any(step[0] in expr.Func._TABLE for step in expr.tape(exprs, symbols)),
    )
    solve = dynamics._MultiplierSolver.multipliers  # the cached_property itself
    entered["newton multipliers"] = 0

    def multipliers(solver):  # counts the calls of a Newton system's multipliers
        fn = solve.__get__(solver, type(solver))
        if solver.linear:
            return fn

        def counted(*args):
            entered["newton multipliers"] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(dynamics._MultiplierSolver, "multipliers", property(multipliers))
    runs = tool.edge_runs(cli, configs, tmp_path / "out")
    codes = {name: run["exit"] for name, run in runs.items()}
    assert codes == {
        "edge/hj-solve-affine": 0,
        "edge/simulate-degenerate": 3,
        "edge/simulate-blowup": 4,
        "edge/simulate-negative-step": 2,
        "edge/corpus-list": 0,
        "edge/corpus-run-beam": 0,
        "edge/hj-check-fiber-newton": 1,
        "edge/simulate-coupled-3x3": 0,
        "edge/derive-parse-error": 2,
        "edge/derive-unknown-identifier": 2,
        "edge/hj-check-open-form": 1,
        "edge/simulate-constraint-domain": 4,
        "edge/simulate-nonfinite": 4,
        "edge/simulate-sin1": 0,
        "edge/derive-sin1": 0,
        "edge/hj-check-target-relatedness": 0,
        "edge/hj-check-degenerate-relatedness": 0,
        "edge/hj-check-newton-relatedness": 1,
        "edge/simulate-constraint-rounding": 0,
        "edge/simulate-energy-null": 0,
        "edge/hj-check-transcendental": 0,
    }
    assert "Traceback" not in "".join(run["stderr"] for run in runs.values())
    assert all(entered.values()), entered

import importlib.util
import json
from pathlib import Path

from jetlag import cli

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

import importlib.util
import statistics
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, rss, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 9,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }


def test_summary_pairs_the_runs_in_order():
    tool = _tool()
    parent = [0.25, 0.24, 0.26, 0.23, 0.27]
    change = [0.18, 0.25, 0.17, 0.19, 0.16]
    results = {
        "parent": [_result(w, 40.0) for w in parent],
        "change": [_result(w, 41.0, failed=int(i == 2)) for i, w in enumerate(change)],
    }
    entry = tool.summarize(results)
    assert entry["pairs"] == 5
    assert entry["failed"] == {"parent": 0, "change": 1}
    assert entry["correct"] is False
    wall = entry["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["parent"] == {"median": 0.25, "q1": 0.235, "q3": 0.265, "values": parent}
    assert wall["change"]["values"] == change
    assert wall["change"]["median"] == statistics.median(change)
    assert wall["change_lower_in_pairs"] == 4  # pair 1: 0.25 is not below 0.24
    assert wall["median_ratio"] == statistics.median(change) / 0.25
    assert entry["metrics"]["peak_rss_mb"]["change_lower_in_pairs"] == 0


def test_one_pair_and_per_layer_medians():
    tool = _tool()
    results = {"parent": [_result(0.3, 40.0)], "change": [_result(0.2, 40.0)]}
    wall = tool.summarize(results)["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 0.3, "q1": 0.3, "q3": 0.3, "values": [0.3]}
    traced = {"parent": [_result(w, 1.0) for w in (3.0, 1.0, 2.0)], "change": [_result(1.0, 1.0)] * 3}
    assert tool.per_layer(traced) == {
        "parent": {"wall_s": 2.0, "peak_rss_mb": 1.0},
        "change": {"wall_s": 1.0, "peak_rss_mb": 1.0},
    }


def test_sides_alternate_which_runs_first():
    tool = _tool()
    order = []
    results = tool._alternating({"parent": "P", "change": "C"}, 4, lambda tree: order.append(tree) or tree)
    assert order == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert results == {"parent": ["P"] * 4, "change": ["C"] * 4}


@pytest.mark.parametrize("argv", [[], ["--parent", "HEAD", "--parent-tree", "."]])
def test_exactly_one_parent_is_named(argv, capsys):
    with pytest.raises(SystemExit) as done:
        _tool().main(["--pr", "0", *argv])
    assert done.value.code == 2
    assert "--parent" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--pairs", "0"], "--pairs must be at least 1"),
        (["--pairs", "-3"], "--pairs must be at least 1"),
        (["--traced", "-1"], "--traced must not be negative"),
    ],
)
def test_empty_or_negative_run_counts_are_usage_errors(argv, message, capsys):
    # rejected before any tree is made or run
    with pytest.raises(SystemExit) as done:
        _tool().main(["--pr", "0", "--parent-tree", ".", *argv])
    assert done.value.code == 2
    assert message in capsys.readouterr().err


def test_revision_names_the_commit_of_a_checkout(tmp_path):
    tool = _tool()
    assert tool.revision(tmp_path) == {"commit": None, "dirty": None}
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run([*git, "init", "-q"], cwd=tmp_path, check=True)
    (tmp_path / "a.txt").write_text("a\n")
    subprocess.run([*git, "add", "a.txt"], cwd=tmp_path, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "a"], cwd=tmp_path, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, capture_output=True, text=True).stdout.strip()
    assert tool.revision(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "a.txt").write_text("b\n")
    assert tool.revision(tmp_path) == {"commit": head, "dirty": True}
    (tmp_path / "sub").mkdir()
    assert tool.revision(tmp_path / "sub") == {"commit": None, "dirty": None}  # inside a checkout, not its top

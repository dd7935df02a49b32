import importlib.util
import statistics
from pathlib import Path

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

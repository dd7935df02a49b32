"""Compare a parent commit with the working tree on the perfbench workloads,
in alternating pairs of runs, and write the result as BENCH_<pr>.json.

    python3 tools/bench_pairs.py (--parent REV | --parent-tree DIR) --pr N \
        [--pairs 10] [--workloads corpus derive simulate hj] [--seed 1] \
        [--seconds 5] [--traced 1] [--output FILE]

The parent side runs in a ``git worktree`` of REV, made in a temporary
directory and removed at the end, or in the existing tree DIR; exactly one
of the two is given.  The change side is this repository's working tree.
The output names the tree each side ran in by its commit (``git rev-parse
HEAD`` when the tree is the top of a git checkout, else null) and whether
that tree had uncommitted changes.  Each run is ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in its own tree, and its last
line of output is the result.  Per workload, ``--pairs`` pairs run back to
back, and the side that runs first alternates from pair to pair, so that a
drift in the machine's speed falls on both sides alike.  With ``--traced K``, K traced
runs a side (``--trace 1``, also alternating) give the per-layer metrics,
as the median of the runs.

The output has the layout of BENCH_13.json: per workload and end-to-end
metric, each side's median, quartiles and values, the number of pairs in
which the change was lower, and the ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "derive", "simulate", "hj")
SIDES = ("parent", "change")


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result of one perfbench run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: run in {tree} failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _alternating(trees: dict, count: int, run) -> dict:
    """{side: [result, ...]} of count runs a side; the side that goes first
    alternates, starting with the parent."""
    results = {side: [] for side in SIDES}
    for i in range(count):
        for side in SIDES if i % 2 == 0 else reversed(SIDES):
            results[side].append(run(trees[side]))
    return results


def _spread(values) -> dict:
    """Median, quartiles (statistics.quantiles, exclusive method) and the
    values; one value is its own median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def summarize(results: dict) -> dict:
    """One workload's entry from {side: [run result, ...]}, the i-th runs
    of the two sides forming pair i."""
    pairs = len(results["parent"])
    entry = {
        "pairs": pairs,
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": {},
    }
    for name, first in results["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        summary = {"unit": first["unit"]}
        summary.update({side: _spread(values[side]) for side in SIDES})
        summary["change_lower_in_pairs"] = sum(c < p for p, c in zip(values["parent"], values["change"]))
        parent_median = summary["parent"]["median"]
        summary["median_ratio"] = summary["change"]["median"] / parent_median if parent_median else None
        entry["metrics"][name] = summary
    return entry


def per_layer(results: dict) -> dict:
    """{side: {metric: median over the traced runs}}."""
    return {
        side: {
            name: statistics.median(r["metrics"][name]["value"] for r in results[side])
            for name in results[side][0]["metrics"]
        }
        for side in SIDES
    }


def revision(tree: Path) -> dict:
    """{"commit": HEAD's hash, "dirty": whether tracked or untracked files
    differ from it} of a tree that is the top of a git checkout; both are
    None for any other directory."""

    def git(*argv):
        done = subprocess.run(["git", *argv], cwd=tree, capture_output=True, text=True, check=False)
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != Path(tree).resolve():
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def _bench(args, parent_tree: Path) -> dict:
    trees = {"parent": parent_tree, "change": REPO}
    revisions = {side: revision(tree) for side, tree in trees.items()}
    out = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "protocol": (
            f"parent ({revisions['parent']['commit'] or parent_tree}) and change "
            f"(working tree at {revisions['change']['commit']}) run alternately, "
            "which side first alternating per pair; last line of each run parsed; "
            "written by tools/bench_pairs.py"
        ),
        "revisions": revisions,
        "machine": {"platform": platform.platform(), "python": platform.python_version(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for workload in args.workloads:
        results = _alternating(trees, args.pairs, lambda tree: _run(tree, workload, args.seed, args.seconds, 0))
        out["workloads"][workload] = summarize(results)
        wall = out["workloads"][workload]["metrics"]["wall_s"]
        print(f"{workload}: wall_s {wall['parent']['median']:.4g} -> {wall['change']['median']:.4g} s, "
              f"change lower in {wall['change_lower_in_pairs']} of {args.pairs} pairs", flush=True)
    for workload in args.workloads if args.traced else ():
        results = _alternating(trees, args.traced, lambda tree: _run(tree, workload, args.seed, args.seconds, 1))
        out[f"per_layer_{workload}_seed_{args.seed}"] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {args.seed} "
            f"--seconds {args.seconds:g} --trace 1",
            "note": f"median of {args.traced} traced run(s) per side; seconds and counts per pass",
            **per_layer(results),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parent = parser.add_mutually_exclusive_group(required=True)
    parent.add_argument("--parent", help="parent commit (any git revision), checked out in a temporary worktree")
    parent.add_argument("--parent-tree", type=Path, help="an existing tree of the parent, run as it is")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload (at least 1)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--traced", type=int, default=1, help="traced runs a side per workload (0: none)")
    parser.add_argument("--output", type=Path, help="default: BENCH_<pr>.json at the repository root")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.traced < 0:
        parser.error(f"--traced must not be negative, got {args.traced}")
    output = args.output or REPO / f"BENCH_{args.pr}.json"
    if args.parent_tree:
        result = _bench(args, args.parent_tree.resolve())
    else:
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
            tree = Path(tmp) / "tree"
            subprocess.run(["git", "worktree", "add", "--detach", str(tree), args.parent], cwd=REPO, check=True)
            try:
                result = _bench(args, tree)
            finally:
                subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=REPO, check=False)
    output.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

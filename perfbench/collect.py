"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads corpus,derive,simulate,hj \
        --seeds 1-10 [--seconds 12] [--trace 0|1] [--out summary.json]

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--out`` writes
the same summary as JSON together with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("nan"),
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="corpus,derive,simulate,hj")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    for workload in args.workloads.split(","):
        runs = [_one(workload, seed, seconds, args.trace) for seed in _seeds(args.seeds)]
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            metrics[name] = {"unit": entry["unit"], **summarise([r["metrics"][name]["value"] for r in runs])}
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed={summary[workload]['failed']}/{summary[workload]['attempted']}")
        for name, m in metrics.items():
            print(f"  {name:42s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}")
        sys.stdout.flush()
    if args.out:
        doc = {
            "seeds": args.seeds,
            "seconds": seconds,
            "trace": args.trace,
            "machine": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "processor": platform.processor() or platform.machine(),
            },
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

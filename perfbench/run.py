"""Benchmark of jetlag's command-line jobs.

    python3 perfbench/run.py --workload {corpus,derive,simulate,hj} \
        --seed N --seconds S --trace {0,1}

Runs from the repository root and imports jetlag from ``src``.  One process,
one thread: the workload's jobs run back to back through
``jetlag.cli.main`` in-process, as passes over a seeded job list, for about
``--seconds`` seconds.  Every job's output is checked outside the timed
region.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics from the traced ones are reported.  Human-readable lines come first;
the last line of standard output is one JSON object.

Times are reported at reference speed: ``speed.py`` samples the machine's
speed while the jobs run and scales each job's time by it.  A job's latency
is the median of its scaled passes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gen, metrics, speed  # noqa: E402
from perfbench.checks import Checker  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUPS = 3  # set-ups timed per run; setup_s is their median
MIN_PASSES = 3
PROBE_TIMEOUT_S = 150
TIME_UNITS = ("s", "ms", "us")


def _import_cli():
    src = ROOT / "src"
    if not (src / "jetlag" / "__init__.py").is_file():
        raise SystemExit(f"error: no jetlag sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("jetlag.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported jetlag from {cli.__file__}, not {src}")
    return cli


def _write_inputs(jobs, work: Path) -> list:
    """One argv per job; configs go to disk as the program reads them."""
    configs, out = work / "configs", work / "out"
    configs.mkdir(parents=True)
    out.mkdir()
    common = ["--out", str(out), "--format", "json"]
    argvs = []
    for job in jobs:
        if job.verb == "corpus":
            argvs.append(["corpus", "run", "--seed", str(job.seed)] + common)
            continue
        path = configs / f"{job.name}.json"
        path.write_text(json.dumps(job.config, indent=2), encoding="utf-8")
        argvs.append([job.verb, "--config", str(path), "--seed", str(job.seed)] + common)
    return argvs


def _run_job(cli, argv):
    """(exit code, (start, end) on the clock, standard output) of one
    in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error fails this job, not the run
        code = f"uncaught {type(exc).__name__}: {exc}"
    return code, (start, time.perf_counter()), out.getvalue()


def _setup(workload, seed, work: Path):
    """Import, input generation and one warm-up job, timed together."""
    shutil.rmtree(work, ignore_errors=True)
    with speed.Speedometer() as meter:
        start = time.perf_counter()
        cli = _import_cli()
        jobs = gen.make_jobs(workload, seed)
        argvs = _write_inputs(jobs, work)
        warm = _run_job(cli, argvs[0])
        end = time.perf_counter()
    return cli, jobs, argvs, warm, meter.scaled(start, end)


def _probe_setup(workload, seed) -> float:
    """setup_s of a fresh interpreter, so import cost is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _tail(values):
    """(value, percentile): highest percentile with ten jobs beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class _Run:
    """Passes over one job list, with their checks and (optionally) spans."""

    def __init__(self, cli, jobs, argvs):
        self.cli, self.jobs, self.argvs = cli, jobs, argvs
        self.checker = Checker()
        self.attempted = 0
        self.failures = []
        self.passes = {False: [], True: []}  # traced? -> each pass's job spans
        self.tracer = Tracer()  # its spans add up over the traced passes
        self.meter = speed.Speedometer()

    def judge(self, job, result):
        self.attempted += 1
        reason = self.checker.check(job, result[0], result[2])
        if reason:
            self.failures.append(f"{job.name}: {reason}")

    def one_pass(self, traced):
        if traced:
            self.tracer.install()  # the speed probe calls no jetlag code
        try:
            results = [_run_job(self.cli, argv) for argv in self.argvs]
        finally:
            self.tracer.restore()
        self.passes[traced].append([result[1] for result in results])
        for job, result in zip(self.jobs, results):
            self.judge(job, result)

    def measure(self, seconds, trace):
        """Passes until the next one would end past ``seconds``; with
        ``trace``, untraced and traced passes alternate."""
        start = time.perf_counter()
        passes = 0
        with self.meter:
            while True:
                self.one_pass(traced=trace and passes % 2 == 1)
                passes += 1
                elapsed = time.perf_counter() - start
                if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes > seconds:
                    return

    def scaled(self, traced):
        """Reference-speed seconds of every job in every pass (call after
        ``measure``, when the speed samples after the last job are in)."""
        return [[self.meter.scaled(*span) for span in spans] for spans in self.passes[traced]]


def _end_to_end(run, setups):
    # A job's input is the same in every pass, so its passes differ only by
    # interference from whatever else the machine runs; the median of its
    # scaled passes stands for it.  p50 and tail then describe the spread across jobs.
    per_job = [statistics.median(lat) * 1e3 for lat in zip(*run.scaled(False))]
    tail, pct = _tail(per_job)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_job) / 1e3,
        "job_p50_ms": statistics.median(per_job),
        "job_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    passes = len(run.passes[False])
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"{len(run.jobs)} jobs, each at its median of {passes} passes",
        "job_p50_ms": f"n={len(per_job)} jobs",
        "job_tail_ms": f"p{pct:.1f}, n={len(per_job)} jobs",
    }
    units = {m.name: m.unit for m in metrics.END_TO_END}
    return values, units, notes


def _per_layer(run):
    walls = {traced: [sum(jobs) for jobs in run.scaled(traced)] for traced in (False, True)}
    passes = len(walls[True])
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    units = {m.name: m.unit for m in metrics.ALL_PER_LAYER}
    # Spans hold clock time, sampler included; over whole passes the spans
    # take the traced jobs' mean ratio of scaled to clock time.
    clock = sum(end - start for spans in run.passes[True] for start, end in spans)
    scale = sum(walls[True]) / clock
    values = metrics.per_layer_values(run.tracer.spans, passes, 0.0)
    values = {n: v * scale if units[n] in TIME_UNITS else v for n, v in values.items()}
    values[metrics.OVERHEAD.name] = overhead  # the walls are scaled already
    notes = {"trace.overhead_s": f"{len(walls[False])} untraced, {passes} traced passes"}
    return values, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        work = WORK / f"{args.workload}-{os.getpid()}"
        *_, seconds = _setup(args.workload, args.seed, work)
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    work = WORK / f"{args.workload}-{os.getpid()}"
    cli, jobs, argvs, warm, setup_s = _setup(args.workload, args.seed, work)
    run = _Run(cli, jobs, argvs)
    run.judge(jobs[0], warm)
    setups = [setup_s]
    if not args.trace:
        setups += [_probe_setup(args.workload, args.seed) for _ in range(SETUPS - 1)]
    run.measure(args.seconds, bool(args.trace))
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, units, notes = _per_layer(run)
    else:
        values, units, notes = _end_to_end(run, setups)
    for target in run.tracer.missing:
        print(f"warning: trace target {target} not found", file=sys.stderr)
    for failure in run.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    probes = run.meter.probes
    print(f"  speed probe: median {statistics.median(probes) * 1e3:.4g} ms of {len(probes)} samples; "
          f"times are scaled to {speed.REFERENCE_S * 1e3:g} ms")
    for name, value in values.items():
        note = notes.get(name)
        print(f"  {name}: {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    share = len(run.failures) / run.attempted
    print(f"  jobs_failed: {len(run.failures)} of {run.attempted} ({share:.4g})")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

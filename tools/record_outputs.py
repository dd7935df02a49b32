"""Record every output of jetlag's benchmark job lists, to check that two
trees (or two runs of one tree) produce the same bytes.

    python3 tools/record_outputs.py --output a.json [--root DIR] [--seeds 1 3]
    python3 tools/record_outputs.py --compare a.json b.json

The first form runs, in one process, the perfbench derive, simulate and hj
job lists (``perfbench.gen.make_jobs``) at each of ``--seeds``, once with
``--format json`` and once with ``--format text``, ``corpus run`` at
seeds 1, 2, 3 and 7 (``CORPUS_SEEDS``), and the fixed runs of ``EDGE_RUNS``,
which reach the verbs, exit codes and solve paths that the lists miss.  It imports
``jetlag`` from ``ROOT/src`` and ``perfbench`` from ``ROOT``, where ROOT
defaults to this repository, so a second checkout can be recorded by the
same script; the edge runs' configs always come from this repository's
``tests/data``, so that every checkout records the same runs.  Every run
works in one temporary directory, reads its config from ``configs/`` and
writes under ``--out out``, both relative, so that the paths in reports do
not depend on where the directory is.  Per run the record holds the exit
code, standard output, standard error and the SHA-256 of every file the run
wrote.

The second form lists the runs whose records differ, or that only one
record has, and exits 1 if there is any; otherwise it exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LISTS = ("derive", "simulate", "hj")
FORMATS = ("json", "text")
CORPUS_SEEDS = (1, 2, 3, 7)
DATA = REPO / "tests" / "data"
# name: (argv, config in DATA or None); the comment gives the exit code
EDGE_RUNS = {
    "hj-solve-affine": (["hj-solve-affine"], "edge-hj-solve-affine.json"),  # 0
    "simulate-degenerate": (["simulate"], "edge-degenerate-planar.json"),  # 3
    "simulate-blowup": (["simulate"], "edge-blowup.json"),  # 4
    "simulate-negative-step": (["simulate"], "edge-negative-step.json"),  # 2, from the config
    "corpus-list": (["corpus", "list"], None),  # 0
    "corpus-run-beam": (["corpus", "run", "--filter", "beam"], None),  # 0
    "hj-check-fiber-newton": (["hj-check"], "edge-hj-fiber-newton.json"),  # 1, through hamjac's fiber Newton
    "simulate-coupled-3x3": (["simulate"], "edge-coupled-3x3.json"),  # 0, a state-free 3x3 block through gesv
    "derive-parse-error": (["derive"], "edge-parse-error.json"),  # 2, ParseError
    "derive-unknown-identifier": (["derive"], "edge-unknown-identifier.json"),  # 2, UnknownIdentifierError
    "hj-check-open-form": (["hj-check"], "edge-open-form.json"),  # 1, ClosureError
    "simulate-constraint-domain": (["simulate"], "edge-constraint-domain.json"),  # 4, ln of a negative in a constraint
    "simulate-nonfinite": (["simulate"], "edge-nonfinite.json"),  # 4, an infinite right-hand side
    "simulate-sin1": (["simulate"], "edge-sin1.json"),  # 0, functions of constants
    "derive-sin1": (["derive"], "edge-sin1.json"),  # 0, functions of constants
    "hj-check-target-relatedness": (["hj-check"], "edge-hj-target-relatedness.json"),  # 0, hj_target and relatedness
    "hj-check-degenerate-relatedness": (["hj-check"], "edge-degenerate-planar.json"),  # 0, relatedness skipped
    "hj-check-newton-relatedness": (["hj-check"], "edge-hj-newton-relatedness.json"),  # 1, relatedness by Newton
    "simulate-constraint-rounding": (["simulate"], "edge-constraint-rounding.json"),  # 0, |g| at rounding level
    "simulate-energy-null": (["simulate"], "edge-energy-null.json"),  # 0, no energy has a value: drift null
    "hj-check-transcendental": (["hj-check"], "edge-hj-transcendental.json"),  # 0, functions in sampled rows
}


def _import(root: Path):
    """jetlag.cli from root/src and perfbench.gen from root."""
    sys.path[:0] = [str(root / "src"), str(root)]
    cli = importlib.import_module("jetlag.cli")
    gen = importlib.import_module("perfbench.gen")
    for module in (cli, gen):
        if not Path(module.__file__).resolve().is_relative_to(root.resolve()):
            raise SystemExit(f"error: imported {module.__name__} from {module.__file__}, not {root}")
    return cli, gen


def _run(cli, argv, out: Path) -> dict:
    """Exit code, standard output and error, and the hash of every file
    written, of one in-process CLI call with an empty out directory."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error is recorded, not raised
        code = f"uncaught {type(exc).__name__}: {exc}"
    files = {}
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


def record(root: Path, seeds) -> dict:
    cli, gen = _import(root)
    runs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="jetlag-outputs-") as work:
        os.chdir(work)
        try:
            configs, out = Path("configs"), Path("out")
            configs.mkdir()
            for workload in LISTS:
                for seed in seeds:
                    for job in gen.make_jobs(workload, seed):
                        path = configs / f"{job.name}.json"
                        path.write_text(json.dumps(job.config, indent=2), encoding="utf-8")
                        for fmt in FORMATS:
                            argv = [job.verb, "--config", str(path), "--seed", str(job.seed),
                                    "--out", str(out), "--format", fmt]
                            runs[f"{workload}/seed{seed}/{fmt}/{job.name}"] = _run(cli, argv, out)
            for seed in CORPUS_SEEDS:
                argv = ["corpus", "run", "--seed", str(seed), "--out", str(out), "--format", "json"]
                runs[f"corpus/seed{seed}"] = _run(cli, argv, out)
            runs.update(edge_runs(cli, configs, out))
        finally:
            os.chdir(cwd)
    return runs


def edge_runs(cli, configs: Path, out: Path) -> dict:
    """The record of every EDGE_RUNS run, with its config copied into configs."""
    runs = {}
    for name, (argv, config) in EDGE_RUNS.items():
        if config is not None:
            shutil.copyfile(DATA / config, configs / config)
            argv = [*argv, "--config", str(configs / config)]
        runs[f"edge/{name}"] = _run(cli, [*argv, "--seed", "1", "--out", str(out), "--format", "json"], out)
    return runs


def compare(a: dict, b: dict) -> list:
    """The names of the runs whose records differ or that one side lacks."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", help="where to write the record (JSON)")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to record (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3], help="job-list seeds")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        differ = compare(a, b)
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
        return 1 if differ else 0
    if not args.output:
        parser.error("--output is required unless --compare is given")
    runs = record(args.root.resolve(), args.seeds)
    Path(args.output).write_text(json.dumps(runs, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(runs)} runs to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: derive, simulate, hj-check, hj-solve-affine, corpus.

Configs are JSON.  Exit codes: 0 ok, 1 check failed, 2 usage/config error,
3 degenerate-point abort, 4 internal numeric failure.  Reports are emitted
deterministically (sorted keys, repr floats, no timestamps) so a fixed seed
reproduces bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .calculus import diff, is_zero
from .dynamics import energy_drift, trajectory_csv
from .errors import (
    ClosureError,
    ConfigError,
    ConstraintViolationError,
    DomainEvalError,
    JetlagError,
    NumericFailureError,
    ParseError,
    SingularJacobianError,
    StepSizeError,
)
from .expr import Expr, job_scope
from .hamjac import (
    affine_hj_solve,
    affine_integrability_check,
    affine_symmetry_check,
    hj_residual,
    hj_residual_nondeg,
)
from .job import METHODS, Job
from .ostro import ostro_energy, top_coefficients
from .printer import to_text
from .sampling import make_rng
from .symbols import q

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4


def _load_config(path) -> Job:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return Job.from_config(config)


def _check_options(args):
    """--seed seeds numpy's generator, which takes no negative seed, and
    --tol follows the rule of the config's tolerances: a finite number."""
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.tol is not None and not math.isfinite(args.tol):
        raise ConfigError(f"--tol must be a finite number, got {args.tol}")


def _residual_tol(job, args):
    return args.tol if args.tol is not None else job.tolerances["residual"]


def _affine_status(spec, seed):
    """When L is affine in its top derivatives, report the symmetry check,
    sampled from a generator seeded with seed, built only then."""
    f = top_coefficients(spec)
    if not all(is_zero(diff(fa, q(b, spec.order))) for fa in f for b in range(1, spec.dim + 1)):
        return None
    rep = affine_symmetry_check(f, rng=make_rng(seed))
    return {
        "affine_in_top_derivative": True,
        "coefficient_symmetry_passed": bool(rep.passed),
        "sup": rep.overall_sup,
    }


def cmd_derive(job, args) -> tuple[int, dict]:
    report = {"command": "derive", "problem": job.problem, "method": job.method}
    for key in METHODS[job.method].keys:
        try:
            report[key] = _rendered(job.derived(key))
        except JetlagError as exc:  # a Hamiltonian the route cannot make
            if key != "hamiltonian":
                raise
            report[key], report["hamiltonian_note"] = None, str(exc)
    status = _affine_status(job.spec, args.seed)
    if status:
        report["affine_warning"] = status
    return EXIT_OK, report


def _rendered(node):
    """A derived entry as report values: expressions, symbols among them, as text."""
    if isinstance(node, dict):
        return {key: _rendered(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_rendered(item) for item in node]
    return str(node) if isinstance(node, Expr) else node


def cmd_simulate(job, args) -> tuple[int, dict]:
    report = {"command": "simulate", "problem": job.problem, "method": job.method}
    try:
        traj = job.trajectory
    except SingularJacobianError as exc:
        report["aborted"] = {
            "reason": "degenerate point: constraint Jacobian is singular",
            "rank": exc.rank,
            "of": exc.needed,
            "last_good_time": exc.time,
            "step": exc.step,
        }
        return EXIT_DEGENERATE, report
    csv_path = _write(Path(args.out) / f"{job.problem}.csv", trajectory_csv(traj))
    report["csv"] = str(csv_path)
    report["samples"] = len(traj.times)
    drift = energy_drift(traj)
    report["energy_drift"] = drift if math.isfinite(drift) else None  # NaN and Infinity are no JSON
    report["constraint_sup"] = traj.constraint_sup
    return EXIT_OK, report


def cmd_hj_check(job, args) -> tuple[int, dict]:
    tol = _residual_tol(job, args)
    rng = make_rng(args.seed)
    mf = job.family
    gamma = job.gamma()
    report = {
        "command": "hj-check",
        "problem": job.problem,
        "method": job.method,
        "equation_family": mf.label,
    }
    rep = hj_residual(mf, gamma, rng=rng, tol=tol, boxes=job.boxes, guards=job.guards)
    report["residuals"] = rep.to_dict()
    exit_code = EXIT_OK if rep.passed else EXIT_CHECK_FAILED
    if job.hj_target is not None:
        trep = hj_residual_nondeg(
            job.hj_target, gamma, rng=rng, tol=tol, boxes=job.boxes, guards=job.guards
        )
        report["target_form"] = trep.to_dict()
        if not trep.passed:
            exit_code = EXIT_CHECK_FAILED
    if job.simulation is not None:
        try:
            rel = job.relatedness(gamma, job.tolerances["trajectory"])
            report["relatedness"] = rel.to_dict()
            if not rel.passed:
                exit_code = EXIT_CHECK_FAILED
        except SingularJacobianError as exc:
            report["relatedness"] = {
                "skipped": f"degenerate point: rank {exc.rank} of {exc.needed}"
            }
    return exit_code, report


def cmd_hj_solve_affine(job, args) -> tuple[int, dict]:
    f, g = job.affine
    order = job.spec.order
    if order not in (2, 3):
        raise ConfigError("affine solver covers second and third order")
    rng = make_rng(args.seed)
    sym_rep = affine_symmetry_check(f, rng=rng)
    int_rep = affine_integrability_check(f, g, order=order, rng=rng)
    sol = affine_hj_solve(f, g, order=order, rng=rng, require_closed=False)
    mf = ostro_energy(job.spec)
    verify = hj_residual(mf, sol.form, rng=rng, tol=_residual_tol(job, args), boxes=job.pinned)
    report = {
        "command": "hj-solve-affine",
        "problem": job.problem,
        "symmetry": sym_rep.to_dict(),
        "integrability": int_rep.to_dict(),
        "closure": sol.closure.to_dict(),
        "gamma_components": [to_text(c) for c in sol.form.component_exprs()],
        "potential": to_text(sol.potential) if sol.potential is not None else None,
        "verification": verify.to_dict(),
    }
    ok = sol.closure.passed and verify.passed
    return (EXIT_OK if ok else EXIT_CHECK_FAILED), report


def cmd_corpus(args) -> tuple[int, dict]:
    entries = corpus_mod.build_entries()
    if args.corpus_action == "list":
        report = {
            "command": "corpus list",
            "entries": [
                {"id": e.id, "method": e.job.method, "checks": len(e.checks)}
                for e in entries
            ],
        }
        return EXIT_OK, report
    if args.filter is None:
        ids = None
    elif args.filter == "":
        ids = []  # empty selection: vacuous success
    else:
        if not any(e.id == args.filter for e in entries):
            raise ConfigError(f"no corpus entry named {args.filter!r}")
        ids = [args.filter]
    result = corpus_mod.run_all(seed=args.seed, ids=ids)
    report = {"command": "corpus run", **result}
    return (EXIT_OK if result["passed"] else EXIT_CHECK_FAILED), report


def _write(path: Path, text: str) -> Path:
    """Write text to path, making its directory; an --out that cannot be
    written is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def _emit(report, args):
    """Write the report file under --out, then print the report."""
    report_json = json.dumps(report, sort_keys=True, indent=2, default=str)
    if args.format == "json":
        text = report_json
    else:
        lines = []
        _render_text(report, lines, "")
        text = "\n".join(lines)
    if args.out:
        name = report.get("problem", report["command"]).replace(" ", "-")
        _write(Path(args.out) / f"{name}.report.json", report_json + "\n")
    print(text)


def _render_text(node, lines, indent):
    if isinstance(node, dict):
        for key in node:
            value = node[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                _render_text(value, lines, indent + "  ")
            else:
                lines.append(f"{indent}{key}: {value}")
    elif isinstance(node, list):
        for item in node:
            if isinstance(item, (dict, list)):
                _render_text(item, lines, indent + "  ")
                lines.append("")
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{node}")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON job config")
    common.add_argument("--out", default="out", help="output directory (CSV, reports)")
    common.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    common.add_argument("--tol", type=float, default=None, help="residual tolerance override")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(
        prog="jetlag",
        description="higher-order Lagrangians: derivations, dynamics, generating-function checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("derive", parents=[common])
    sub.add_parser("simulate", parents=[common])
    sub.add_parser("hj-check", parents=[common])
    sub.add_parser("hj-solve-affine", parents=[common])
    corpus_parser = sub.add_parser("corpus", parents=[common])
    corpus_parser.add_argument("corpus_action", choices=("run", "list"))
    corpus_parser.add_argument("--filter", default=None, help="run a single corpus entry")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_options(args)
        if args.verb == "corpus":
            code, report = cmd_corpus(args)
        else:
            job = _load_config(args.config)
            handler = {
                "derive": cmd_derive,
                "simulate": cmd_simulate,
                "hj-check": cmd_hj_check,
                "hj-solve-affine": cmd_hj_solve_affine,
            }[args.verb]
            with job_scope():
                code, report = handler(job, args)
        _emit(report, args)
    except SystemExit as exc:  # argparse's, after its usage error (2) or --help (0)
        return exc.code
    except (ConfigError, ParseError, StepSizeError, ConstraintViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClosureError as exc:
        print(f"closure check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except SingularJacobianError as exc:
        print(f"degenerate point: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NumericFailureError, DomainEvalError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except JetlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())

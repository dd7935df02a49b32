"""Command-line surface: derive, simulate, hj-check, hj-solve-affine, corpus.

Configs are JSON.  Exit codes: 0 ok, 1 check failed, 2 usage/config error,
3 degenerate-point abort, 4 internal numeric failure.  Reports are emitted
deterministically (sorted keys, repr floats, no timestamps) so a fixed seed
reproduces bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .calculus import diff, hessian, is_zero
from .dynamics import (
    assemble,
    energy_drift,
    integrate_rk4,
    project_trajectory,
    trajectory_csv,
)
from .errors import (
    ClosureError,
    ConfigError,
    ConstraintViolationError,
    JetlagError,
    NotLinearError,
    NumericFailureError,
    ParseError,
    SingularJacobianError,
    StepSizeError,
)
from .expr import eval_expr
from .hamjac import (
    ClosedOneForm,
    affine_hj_solve,
    affine_integrability_check,
    affine_symmetry_check,
    gamma_relatedness,
    hj_residual,
    hj_residual_nondeg,
)
from .ostro import (
    LagrangianSpec,
    euler_lagrange,
    explicit_hamiltonian,
    ostro_energy,
    ostro_momenta,
)
from .parser import parse
from .printer import to_text
from .sampling import make_rng
from .schmidt import (
    GaugeFunction,
    chi_check,
    default_auxiliary_gauge,
    degenerate_second_extend,
    gauge_extend_second,
    schmidt_hamiltonian,
    schmidt_morse_family,
    solve_F_quadratic,
    third_order_extend,
)
from .symbols import param, q

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4

METHODS = ("ostrogradsky", "schmidt2", "schmidt3", "schmidt2deg")


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    for key in ("problem", "n", "k", "lagrangian", "method"):
        if key not in config:
            raise ConfigError(f"config misses required field {key!r}")
    if config["method"] not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}")
    return config


def _spec(config) -> LagrangianSpec:
    try:
        return LagrangianSpec(int(config["n"]), int(config["k"]), parse(config["lagrangian"]))
    except (ParseError, ValueError) as exc:
        raise ConfigError(f"bad lagrangian: {exc}") from exc


def _gauge(config, spec) -> GaugeFunction:
    text = config.get("gauge_F")
    if text:
        return GaugeFunction(parse(text), spec.dim)
    if config["method"] in ("schmidt3", "schmidt2deg"):
        return default_auxiliary_gauge(spec.dim)
    return solve_F_quadratic(spec)


def _params(config):
    return {param(k): float(v) for k, v in config.get("parameters", {}).items()}


def _sym(text):
    e = parse(text)
    (s,) = e.free
    return s


def _tolerances(config, args):
    tol = dict(config.get("tolerances", {}))
    if args.tol is not None:
        tol["residual"] = args.tol
    tol.setdefault("residual", 1e-8)
    tol.setdefault("trajectory", 1e-5)
    return tol


def _affine_status(spec, rng):
    """When L is affine in its top derivatives, report the symmetry check."""
    tops = [q(a, spec.order) for a in range(1, spec.dim + 1)]
    hess = hessian(spec.lagrangian, tops)
    if not all(is_zero(e) for row in hess for e in row):
        return None
    f = [diff(spec.lagrangian, t) for t in tops]
    rep = affine_symmetry_check(f, rng=rng)
    return {
        "affine_in_top_derivative": True,
        "coefficient_symmetry_passed": bool(rep.passed),
        "sup": rep.overall_sup,
    }


def _family(config, spec):
    method = config["method"]
    if method == "ostrogradsky":
        return ostro_energy(spec)
    F = _gauge(config, spec)
    if method == "schmidt2":
        return schmidt_morse_family(spec, F)
    if method == "schmidt3":
        return third_order_extend(spec, F).family
    return degenerate_second_extend(spec, F).family


def cmd_derive(config, args) -> tuple[int, dict]:
    spec = _spec(config)
    rng = make_rng(args.seed)
    report = {"command": "derive", "problem": config["problem"], "method": config["method"]}
    method = config["method"]
    if method == "ostrogradsky":
        mf = ostro_energy(spec)
        sys = assemble(mf)
        momenta = ostro_momenta(spec)
        report["energy"] = to_text(mf.energy)
        report["momenta"] = {
            f"p{a}_{kappa}": to_text(momenta[kappa][a - 1])
            for kappa in range(spec.order)
            for a in range(1, spec.dim + 1)
        }
        report["euler_lagrange"] = [to_text(e) for e in euler_lagrange(spec)]
        report["implicit_system"] = _system_dict(sys)
        try:
            report["hamiltonian"] = to_text(explicit_hamiltonian(spec))
        except (NotLinearError, JetlagError) as exc:
            report["hamiltonian"] = None
            report["hamiltonian_note"] = str(exc)
    else:
        F = _gauge(config, spec)
        report["gauge"] = to_text(F.expr)
        if method == "schmidt2":
            report["compatibility_residuals"] = [to_text(r) for r in chi_check(spec, F)]
            report["extended_lagrangian"] = to_text(gauge_extend_second(spec, F))
            mf = schmidt_morse_family(spec, F)
            report["energy"] = to_text(mf.energy)
            report["momentum_relations"] = [to_text(r) for _, r in mf.extra_relations]
            try:
                report["hamiltonian"] = to_text(schmidt_hamiltonian(spec, F))
            except (NotLinearError, JetlagError) as exc:
                report["hamiltonian"] = None
                report["hamiltonian_note"] = str(exc)
        else:
            system = (
                third_order_extend(spec, F)
                if method == "schmidt3"
                else degenerate_second_extend(spec, F)
            )
            mf = system.family
            report["extended_lagrangian"] = to_text(system.extended_lagrangian)
            report["energy"] = to_text(mf.energy)
        report["implicit_system"] = _system_dict(assemble(mf))
    status = _affine_status(spec, rng)
    if status:
        report["affine_warning"] = status
    return EXIT_OK, report


def _system_dict(sys):
    return {
        "states": [str(s) for s in sys.states],
        "rhs": {str(s): to_text(sys.rhs[s]) for s in sys.states},
        "constraints": [to_text(c) for c in sys.constraints],
        "multipliers": [str(m) for m in sys.multipliers],
    }


def cmd_simulate(config, args) -> tuple[int, dict]:
    if "simulation" not in config:
        raise ConfigError("simulate needs a simulation block")
    spec = _spec(config)
    mf = _family(config, spec)
    sys = assemble(mf)
    sim = config["simulation"]
    try:
        h = float(sim["h"])
        t0, t1 = float(sim["t0"]), float(sim["t1"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad simulation block: {exc}") from exc
    if h <= 0:
        raise StepSizeError(f"step size must be positive, got {h}")
    init = {_sym(k): float(v) for k, v in sim.get("initial", {}).items()}
    init.update(_params(config))
    report = {"command": "simulate", "problem": config["problem"], "method": config["method"]}
    try:
        traj = integrate_rk4(sys, init, t0, t1, h)
    except SingularJacobianError as exc:
        report["aborted"] = {
            "reason": "degenerate point: constraint Jacobian is singular",
            "rank": exc.rank,
            "of": exc.needed,
            "last_good_time": exc.time,
            "step": exc.step,
        }
        return EXIT_DEGENERATE, report
    csv_text = trajectory_csv(traj)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config['problem']}.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    binding_params = _params(config)
    constraint_sup = 0.0
    for sample in traj.samples:
        full = dict(sample)
        full.update(binding_params)
        for c in sys.constraints:
            constraint_sup = max(constraint_sup, abs(eval_expr(c, full)))
    report["csv"] = str(csv_path)
    report["samples"] = len(traj.times)
    report["energy_drift"] = energy_drift(traj)
    report["constraint_sup"] = constraint_sup
    return EXIT_OK, report


def _gamma(config, spec):
    method = config["method"]
    if method == "ostrogradsky":
        coords = tuple(
            q(a, lvl) for lvl in range(spec.order) for a in range(1, spec.dim + 1)
        )
        from .symbols import p as mom

        slots = tuple(
            mom(a, lvl) for lvl in range(spec.order) for a in range(1, spec.dim + 1)
        )
    else:
        from .symbols import acc, aux, pa, pm, pq

        coords = tuple(q(a, 0) for a in range(1, spec.dim + 1)) + tuple(
            acc(a, 0) for a in range(1, spec.dim + 1)
        )
        slots = tuple(pq(a) for a in range(1, spec.dim + 1)) + tuple(
            pa(a) for a in range(1, spec.dim + 1)
        )
        if method in ("schmidt3", "schmidt2deg"):
            coords = coords + tuple(aux(a, 0) for a in range(1, spec.dim + 1))
            slots = slots + tuple(pm(a) for a in range(1, spec.dim + 1))
    boxes = {}
    for name, pair in config.get("sample_box", {}).items():
        boxes[_sym(name)] = (float(pair[0]), float(pair[1]))
    for s, v in _params(config).items():
        boxes.setdefault(s, (v, v))
    guards = [(parse(t), float(b)) for t, b in config.get("domain_guards", [])]
    if "W" in config and config["W"] is not None:
        form = ClosedOneForm.from_potential(parse(config["W"]), coords, slots)
    elif "gamma_components" in config:
        form = ClosedOneForm.from_components(
            [parse(t) for t in config["gamma_components"]],
            coords,
            slots,
            boxes=boxes,
            guards=guards,
        )
    else:
        raise ConfigError("hj-check needs W or gamma_components")
    return form, boxes, guards


def cmd_hj_check(config, args) -> tuple[int, dict]:
    spec = _spec(config)
    tol = _tolerances(config, args)
    rng = make_rng(args.seed)
    mf = _family(config, spec)
    gamma, boxes, guards = _gamma(config, spec)
    report = {
        "command": "hj-check",
        "problem": config["problem"],
        "method": config["method"],
        "equation_family": mf.label,
    }
    rep = hj_residual(mf, gamma, rng=rng, tol=tol["residual"], boxes=boxes, guards=guards)
    report["residuals"] = rep.to_dict()
    exit_code = EXIT_OK if rep.passed else EXIT_CHECK_FAILED
    if "hj_target" in config and config["hj_target"]:
        target = parse(config["hj_target"])
        trep = hj_residual_nondeg(
            target, gamma, rng=rng, tol=tol["residual"], boxes=boxes, guards=guards
        )
        report["target_form"] = trep.to_dict()
        if not trep.passed:
            exit_code = EXIT_CHECK_FAILED
    if "simulation" in config:
        sys = assemble(mf)
        sim = config["simulation"]
        start = {_sym(k): float(v) for k, v in sim["initial"].items()}
        init = dict(start)
        init.update(_params(config))
        for slot, comp in zip(gamma.momentum_slots, gamma.component_exprs()):
            init[slot] = eval_expr(comp, init)
        try:
            traj = integrate_rk4(sys, init, float(sim["t0"]), float(sim["t1"]), float(sim["h"]))
            base = project_trajectory(traj, gamma.coordinates)
            rel = gamma_relatedness(sys, gamma, base, tol=tol["trajectory"], params=_params(config))
            report["relatedness"] = rel.to_dict()
            if not rel.passed:
                exit_code = EXIT_CHECK_FAILED
        except SingularJacobianError as exc:
            report["relatedness"] = {
                "skipped": f"degenerate point: rank {exc.rank} of {exc.needed}"
            }
    return exit_code, report


def cmd_hj_solve_affine(config, args) -> tuple[int, dict]:
    if "affine_f" not in config or "affine_g" not in config:
        raise ConfigError("hj-solve-affine needs affine_f and affine_g")
    spec = _spec(config)
    order = spec.order
    if order not in (2, 3):
        raise ConfigError("affine solver covers second and third order")
    rng = make_rng(args.seed)
    f = [parse(t) for t in config["affine_f"]]
    g = parse(config["affine_g"])
    sym_rep = affine_symmetry_check(f, rng=rng)
    int_rep = affine_integrability_check(f, g, order=order, rng=rng)
    sol = affine_hj_solve(f, g, order=order, rng=rng, require_closed=False)
    mf = ostro_energy(spec)
    boxes = {s: (v, v) for s, v in _params(config).items()}
    verify = hj_residual(mf, sol.form, rng=rng, tol=_tolerances(config, args)["residual"], boxes=boxes)
    report = {
        "command": "hj-solve-affine",
        "problem": config["problem"],
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
                {"id": e.id, "method": e.config["method"], "checks": len(e.checks)}
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


def _emit(report, args):
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
    else:
        lines = []
        _render_text(report, lines, "")
        text = "\n".join(lines)
    print(text)
    if args.out and report.get("command") not in (None,):
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = report.get("problem", report.get("command", "report")).replace(" ", "-")
        path = out_dir / f"{name}.report.json"
        path.write_text(
            json.dumps(report, sort_keys=True, indent=2, default=str) + "\n",
            encoding="utf-8",
        )


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "corpus":
            code, report = cmd_corpus(args)
        else:
            config = _load_config(args.config)
            handler = {
                "derive": cmd_derive,
                "simulate": cmd_simulate,
                "hj-check": cmd_hj_check,
                "hj-solve-affine": cmd_hj_solve_affine,
            }[args.verb]
            code, report = handler(config, args)
    except (ConfigError, ParseError, StepSizeError, ConstraintViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ClosureError as exc:
        print(f"closure check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except SingularJacobianError as exc:
        print(f"degenerate point: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except JetlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())

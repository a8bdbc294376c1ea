"""Batch command-line entry point.

Subcommands:
  run          solve the configured problem, check its weak residuals;
               write time-series CSV and a VTK snapshot of the final
               field under --out
  validate     check the configuration and model assumptions
  constants    print the certified material and coercivity constants
  experiment   run the diagnostic experiment battery and write a summary
  convergence  run the manufactured-solution convergence study

Exit codes: 0 success / all checks pass, 1 validation or experiment
failure, 2 usage error.  The only environment variable honored is
MQS_LOG (error|info|debug, case-insensitive; another value is an error),
read on every dispatch; everything else comes from the config file and
the repeatable `--set section.key=value` overrides.  A failed `run`
makes no --out directory.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import config as config_mod
from . import diagnostics, system
from .errors import MqsflowError, ValidationFailure

log = logging.getLogger("mqsflow")

_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
           "debug": logging.DEBUG}


_handler = logging.StreamHandler()
_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def _setup_logging():
    """Set the mqsflow logger's level from MQS_LOG, on every dispatch; a
    value outside _LEVELS is one error line and SystemExit(1)."""
    value = os.environ.get("MQS_LOG", "error")
    if value.lower() not in _LEVELS:
        print(f"error: MQS_LOG must be one of {', '.join(_LEVELS)}, "
              f"got {value!r}", file=sys.stderr)
        raise SystemExit(1)
    log.setLevel(_LEVELS[value.lower()])
    _handler.stream = sys.stderr  # this dispatch's stderr, as print's
    if _handler not in log.handlers:
        log.addHandler(_handler)


def _parser():
    p = argparse.ArgumentParser(
        prog="mqsflow",
        description="Coupled magnetic-field / circuit simulator.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "constants", "experiment", "convergence"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", metavar="PATH", default=None)
        sp.add_argument("--out", metavar="DIR", default="out")
        sp.add_argument("--set", metavar="K=V", action="append", default=[],
                        dest="overrides")
        sp.add_argument("--seed", metavar="N", type=int, default=None)
    return p


def _load(args):
    entries = {}
    if args.config is not None:
        entries = config_mod.load_config_file(args.config)
    entries = config_mod.apply_overrides(entries, args.overrides)
    cfg = config_mod.build_config(entries, seed=args.seed)
    return cfg, entries


def _cmd_run(args):
    cfg, entries = _load(args)
    base = config_mod.output_basename(entries)
    traj = system.solve(cfg)
    ops, _, _ = system.build_system(cfg)
    _check_run(cfg, ops, traj)
    os.makedirs(args.out, exist_ok=True)  # only for a run that passed
    csv_path = os.path.join(args.out, f"{base}.csv")
    vtk_path = os.path.join(args.out, f"{base}.vtk")
    diagnostics.write_timeseries_csv(traj, csv_path)
    diagnostics.write_field_vtk(ops.mesh, traj.fields[-1], vtk_path)
    log.info("wrote %s and %s", csv_path, vtk_path)
    print(f"run complete: {traj.n_steps} steps, outputs in {args.out}")
    return 0


def _check_run(cfg, ops, traj):
    """Raise unless both weak residuals stay within 10 newton_tol scale."""
    result, step, worst = _weak_residuals(cfg, ops, traj)
    if not result.passed:
        raise ValidationFailure(
            f"self-check failed at step {step}: weak residual "
            f"{worst:.3e} exceeds {result.measured['bound']:.3e}")


def _weak_residuals(cfg, ops, traj):
    """The weak_solution_residuals experiment: both weak residuals of every
    step within 10 newton_tol scale.  Also returns the worst step and its
    residual."""
    weak = system.check_weak_solution(ops, traj)
    bound = 10.0 * cfg.newton_tol * diagnostics.trajectory_scale(ops, traj)
    worst = np.maximum(weak.field_residuals, weak.circuit_residuals)
    k = int(np.argmax(worst))
    result = diagnostics.ExperimentResult(
        name="weak_solution_residuals",
        passed=bool(worst[k] <= bound),
        measured={"max_field_residual": weak.max_field_residual,
                  "max_circuit_residual": weak.max_circuit_residual,
                  "bound": bound},
    )
    return result, k + 1, float(worst[k])


def _cmd_validate(args):
    cfg, _ = _load(args)
    try:  # what every other command checks before solving
        ops = system.build_system(cfg)[0]
    except ValidationFailure as exc:
        for reason in exc.reasons:
            print(f"validation FAIL: {reason}")
        return 1
    print(f"validation PASS: m_hat={ops.m_hat:.6g}, L_hat={ops.L_hat:.6g}")
    return 0


def _cmd_constants(args):
    cfg, _ = _load(args)
    ops, _, _ = system.build_system(cfg)
    items = {
        "m_hat": ops.m_hat,
        "L_hat": ops.L_hat,
        "L_C": ops.L_C,
        "coercivity_c": ops.coercivity_constant,
        "n_dofs": ops.n_dofs,
    }
    for k, v in items.items():
        print(f"{k}={v!r}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "constants.kv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k}={v!r}\n" for k, v in items.items())
    return 0


def _experiment_battery(cfg, out_dir):
    # the balance study's step sizes are checked before anything is solved
    diagnostics.balance_order_levels(cfg)
    ops = system.build_system(cfg)[0]
    traj = system.solve(cfg, ops)
    results = [
        _weak_residuals(cfg, ops, traj)[0],
        diagnostics.monotonicity_probe(ops, n_pairs=200, seed=cfg.seed),
        diagnostics.coercivity_bound_check(ops, seed=cfg.seed),
        diagnostics.balance_order_study(cfg, ops, traj=traj),
    ]
    for kind in ("uniqueness", "initializability"):
        results.append(
            diagnostics.perturbation_experiments(cfg, ops, traj, kind))
    adv = diagnostics.perturbation_experiments(
        cfg, ops, traj, "initializability", adversarial=True
    )
    results.append(diagnostics.ExperimentResult(
        name="initializability_adversarial_detects_change",
        passed=not adv.passed,
        measured=adv.measured,
    ))

    diagnostics.write_timeseries_csv(traj, os.path.join(out_dir, "run.csv"))
    return results


def _cmd_experiment(args):
    cfg, _ = _load(args)
    os.makedirs(args.out, exist_ok=True)
    results = _experiment_battery(cfg, args.out)
    table_path, _ = diagnostics.write_summary(results, args.out)
    with open(table_path, encoding="utf-8") as fh:
        print(fh.read(), end="")
    return 0 if all(r.passed for r in results) else 1


def _cmd_convergence(args):
    cfg, _ = _load(args)
    os.makedirs(args.out, exist_ok=True)
    result = diagnostics.convergence_study(cfg, levels=3, refine="both")
    diagnostics.write_summary([result], args.out)
    for k, v in result.measured.items():
        print(f"{k}={v:.6g}")
    print(f"convergence {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "constants": _cmd_constants,
    "experiment": _cmd_experiment,
    "convergence": _cmd_convergence,
}


def dispatch(argv):
    try:
        _setup_logging()
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with np.errstate(all="raise", under="ignore"):  # no silent inf/nan
            return _COMMANDS[args.command](args)
    except (MqsflowError, FileNotFoundError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

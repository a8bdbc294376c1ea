"""The benchmark's workloads: generated configs, CLI argv, output checks.

Why each workload was chosen is recorded in README.md next to this file.
The seed reaches mqsflow only through the generated config
(``[initial] seed``) and the ``--seed`` argument.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from mqsflow import config as config_mod
from mqsflow import diagnostics, system

EXPERIMENTS = (
    "weak_solution_residuals", "monotonicity", "coercivity_bound",
    "power_balance_order", "uniqueness", "initializability",
    "initializability_adversarial_detects_change",
)


def _transient_n64(seed):
    return f"[mesh]\nn = 64\n\n[initial]\nkind = zero\nseed = {seed}\n"


def _battery_n16(seed):
    return f"[mesh]\nn = 16\n\n[initial]\nseed = {seed}\n"


# Three windings around the disk conductor (clear of it), coupled through
# a full-rank R, driven by amplitude-4 table voltages that reverse sign.
def _multiwinding_n32(seed):
    return f"""[mesh]
n = 32

[winding]
w1 = 0.1 0.2 0.4 0.6 100.0 ; 0.8 0.9 0.4 0.6 -100.0
w2 = 0.4 0.6 0.8 0.9 100.0 ; 0.4 0.6 0.1 0.2 -100.0
w3 = 0.1 0.2 0.1 0.2 100.0 ; 0.8 0.9 0.8 0.9 -100.0

[material]
kind = rational_saturation
nu_min = 1.0
nu_max = 8.0

[circuit]
R = 2 .5 0 ; .5 2 .5 ; 0 .5 2
voltage_kind = table
voltage_table = 0 0 0 0 ; 0.25 4 -4 4 ; 0.5 -4 4 -4 ; 0.75 4 4 -4 ; 1.0 -4 -4 4

[initial]
kind = random
seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # mqsflow subcommand: "run" or "experiment"
    config_text: object   # seed -> config file text

    def argv(self, cfg_path, out_dir, seed):
        return [self.command, "--config", str(cfg_path), "--out", str(out_dir),
                "--seed", str(seed)]

    def check_output(self, out_dir, cfg):
        """Problems with one operation's output; empty when it passes."""
        if self.command == "experiment":
            return check_summary_kv(os.path.join(out_dir, "summary.kv"))
        problems = check_run_csv(os.path.join(out_dir, "run.csv"), cfg)
        vtk = os.path.join(out_dir, "run.vtk")
        if not os.path.isfile(vtk) or os.path.getsize(vtk) == 0:
            problems.append("run.vtk missing or empty")
        return problems


def load_config(cfg_path, seed):
    """The MQSConfig the CLI builds from the same file and seed."""
    return config_mod.build_config(config_mod.load_config_file(cfg_path),
                                   seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("transient_n64", "run", _transient_n64),
    Workload("battery_n16", "experiment", _battery_n16),
    Workload("multiwinding_n32", "run", _multiwinding_n32),
)}


def check_summary_kv(path):
    """Every battery experiment is present with pass=true."""
    if not os.path.isfile(path):
        return [f"{path} missing"]
    verdicts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            if key.endswith(".pass"):
                verdicts[key[:-len(".pass")]] = value
    problems = [f"experiment {name} missing" for name in EXPERIMENTS
                if name not in verdicts]
    problems += [f"experiment {name} pass={v}" for name, v in verdicts.items()
                 if v != "true"]
    return problems


def check_run_csv(path, cfg):
    """N+1 finite rows and the circuit equation recomputed from the CSV.

    Row 0 leaves the currents and the balance residual empty, as the
    writer documents; every other cell must be a finite number.  The
    residual flux rate + R i - v of each step must stay within
    10 * newton_tol * scale, where scale = 1 + max_k (|flux_k| + |i_k|) is
    the CSV-side analogue of diagnostics.trajectory_scale.
    """
    if not os.path.isfile(path):
        return [f"{path} missing"]
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    m = cfg.winding.m
    expected = (["t"] + [f"i_{j + 1}" for j in range(m)]
                + [f"flux_{j + 1}" for j in range(m)]
                + ["energy", "balance_residual"])
    if header != expected:
        return [f"header {header} != {expected}"]
    n = cfg.n_steps
    if len(data) != n + 1:
        return [f"{len(data)} data rows, expected {n + 1}"]
    i_cols = range(1, 1 + m)
    optional = set(i_cols) | {len(header) - 1}
    values = np.full((n + 1, len(header)), np.nan)
    for k, row in enumerate(data):
        if len(row) != len(header):
            return [f"row {k} has {len(row)} fields, expected {len(header)}"]
        for j, cell in enumerate(row):
            if cell == "" and k == 0 and j in optional:
                continue
            try:
                values[k, j] = float(cell)
            except ValueError:
                return [f"row {k} column {header[j]}: {cell!r} is not a number"]
            if not math.isfinite(values[k, j]):
                return [f"row {k} column {header[j]}: {cell!r} is not finite"]
    problems = []
    t = values[:, 0]
    if np.max(np.abs(t - cfg.tau * np.arange(n + 1))) > 1e-12:
        problems.append("time column is not k * tau")
    currents = values[1:, 1:1 + m]
    fluxes = values[:, 1 + m:1 + 2 * m]
    volts = np.array([cfg.voltage(tk) for tk in t[1:]])
    R = np.atleast_2d(np.asarray(cfg.R, dtype=float))
    residual = np.diff(fluxes, axis=0) / cfg.tau + currents @ R.T - volts
    worst = float(np.max(np.linalg.norm(residual, axis=1)))
    scale = 1.0 + float(np.max(np.linalg.norm(fluxes[1:], axis=1)
                               + np.linalg.norm(currents, axis=1)))
    bound = 10.0 * cfg.newton_tol * scale
    if not worst <= bound:
        problems.append(f"circuit residual {worst:.3e} exceeds {bound:.3e}")
    return problems


def check_weak_solution(ops, traj, cfg):
    """system.check_weak_solution against 10 * newton_tol * scale, the
    bound the experiment battery uses."""
    weak = system.check_weak_solution(ops, traj)
    bound = 10.0 * cfg.newton_tol * diagnostics.trajectory_scale(ops, traj)
    worst = max(weak.max_field_residual, weak.max_circuit_residual)
    return {"max_field_residual": weak.max_field_residual,
            "max_circuit_residual": weak.max_circuit_residual,
            "bound": bound, "passed": bool(worst <= bound)}

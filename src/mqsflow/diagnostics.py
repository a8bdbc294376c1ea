"""Runnable experiments over the solver, plus CSV/VTK output writers.

Each experiment returns an :class:`ExperimentResult` with a documented
pass criterion and the measured scalars that decided it.  Results are
deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fem, material, system
from .errors import ValidationFailure, check_choice


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)


def trajectory_scale(ops, traj):
    """Problem scale 1 + max_k (||A_k||_{K_lin} + |i_k|) for tolerances."""
    norms = np.sqrt(np.einsum(
        "ki,ki->k", traj.fields, (ops.stiffness @ traj.fields.T).T
    ))
    currents = np.nan_to_num(traj.currents, nan=0.0)
    i_norms = np.linalg.norm(currents, axis=1)
    return 1.0 + float(np.max(norms + i_norms))


def observed_order(errors):
    """Mean log2 of successive error ratios (nan where a ratio degenerates)
    over the asymptotic window: the two coarsest levels are dropped when
    enough levels remain."""
    errors = np.asarray(errors, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(errors[:-1] / errors[1:])
    return float(np.mean(orders[min(2, orders.size - 1):]))


BALANCE_TAUS = (1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256)


def balance_order_levels(config, taus=BALANCE_TAUS):
    """The balance order study's configs, one per step size, each checked
    on construction."""
    if len(taus) < 3:
        raise ValidationFailure("balance order study needs >= 3 step sizes")
    return [replace(config, tau=tau) for tau in taus]


def balance_order_study(config, ops, taus=BALANCE_TAUS, traj=None):
    """Observed decay order of max_k |delta_k| under step halving.

    Every level is configured, and so checked, before the first solve.
    ``traj``, if given, is ``system.solve(config, ops)`` and stands in for
    the level whose step size is ``config.tau``.
    """
    maxima = []
    for level in balance_order_levels(config, taus):
        run = (traj if traj is not None and level.tau == config.tau
               else system.solve(level, ops))
        maxima.append(float(np.max(np.abs(run.balance_residuals[1:]))))
    order = observed_order(maxima)
    return ExperimentResult(
        name="power_balance_order",
        passed=bool(order >= 0.9),
        measured={
            "observed_order": order,
            **{f"max_abs_delta_{k}": m for k, m in enumerate(maxima)},
        },
    )


# The probe's element passes hold about this many bytes of field data at
# a time, so its memory stays flat in n (PROBE_BLOCK_BYTES // pair_bytes
# pairs, at least one, per block).
PROBE_BLOCK_BYTES = 2 ** 21


def monotonicity_probe(ops, n_pairs=200, seed=42, scale=1.0):
    """Sampled strong-monotonicity ratio of the nonlinear curl-curl form.

    ratio = <a-b, K(a)-K(b)> / (m_hat (a-b)^T K_lin (a-b)) over random
    coefficient pairs; values >= 1 certify the discrete monotonicity bound.
    A pair with a zero denominator is skipped: it is not counted in
    ``n_checked``, and with none checked ``min_ratio`` is inf.
    The pairs are drawn a, b, a, b, ... from one generator and their K
    evaluated a block of pairs at a time, in one element pass
    (``fem.curlcurl_residuals``), which gives each K bit for bit; a block
    holds about PROBE_BLOCK_BYTES of element data.
    """
    rng = np.random.default_rng(seed)
    n, mesh = ops.n_dofs, ops.mesh
    pair_bytes = 2 * 8 * 8 * mesh.n_elements  # ~8 element arrays a field
    per_block = max(1, PROBE_BLOCK_BYTES // pair_bytes)
    ratios = []
    for first in range(0, n_pairs, per_block):
        size = min(per_block, n_pairs - first)
        fields = scale * rng.standard_normal((size, 2, n))
        K = fem.curlcurl_residuals(
            mesh, ops.model, fields.reshape(2 * size, n).T)
        for j, (a, b) in enumerate(fields):
            d = a - b
            denom = ops.m_hat * float(d @ (ops.stiffness @ d))
            if denom <= 0:
                continue
            ratios.append(float(d @ (K[:, 2 * j] - K[:, 2 * j + 1])) / denom)
    min_ratio = float(min(ratios)) if ratios else np.inf
    return ExperimentResult(
        name="monotonicity",
        passed=min_ratio >= 1.0 - 1e-10,
        measured={"min_ratio": min_ratio, "n_checked": len(ratios)},
    )


def coercivity_bound_check(ops, n_samples=100, seed=0):
    """Sampled check of Phi(a) + ||E a||^2 / 2 >= c ||a||^2_{L^2} with the
    certified c = ``ops.coercivity_constant`` (omega = 1)."""
    rng = np.random.default_rng(seed)
    c = ops.coercivity_constant
    worst = np.inf
    for _ in range(n_samples):
        a = rng.standard_normal(ops.n_dofs)
        Ea = ops.E.apply(a)
        lhs = ops.energy(a) + 0.5 * float(Ea @ Ea)
        rhs = c * float(a @ (ops.mass @ a))
        worst = min(worst, lhs - rhs)
    return ExperimentResult(
        name="coercivity_bound",
        passed=bool(worst >= -1e-10),
        measured={"c": c, "min_slack": float(worst)},
    )


def perturbation_experiments(config, ops, traj, kind, adversarial=False):
    """Paired solves probing uniqueness or initializability.

    ``traj`` is ``system.solve(config, ops)``, the first of each pair.

    uniqueness: the same data through the Schur-reduced witness,
    ``system.solve_schur`` at newton_tol 1e-12, with its own equation, its
    own merit and Newton started at a_{k-1}; pass iff the fields agree to
    100 * newton_tol * scale.  The scale is ``traj``'s alone, so a
    diverging witness cannot widen its own bound.

    initializability: initial fields differing by a perturbation invisible
    to the metric map (zero on the conducting region, orthogonal to the
    winding coupling columns, drawn from ``config.seed``); pass iff
    trajectories for k >= 1 agree to the same bound.  With
    ``adversarial=True`` the perturbation is made visible on purpose and
    the experiment is expected to FAIL.
    """
    check_choice("experiment kind", kind, ("uniqueness", "initializability"))
    scale = trajectory_scale(ops, traj)
    if kind == "uniqueness":
        fields_b = system.solve_schur(replace(config, newton_tol=1e-12), ops)
    else:
        w = _invisible_perturbation(ops, seed=config.seed, visible=adversarial)
        a0 = system.initial_field(config, ops) + w
        traj_b = system.solve(config, ops, a0=a0)
        scale = max(scale, trajectory_scale(ops, traj_b))
        fields_b = traj_b.fields
    start = 1 if kind == "initializability" else 0
    discrepancy = float(np.max(np.linalg.norm(
        traj.fields[start:] - fields_b[start:], axis=1
    )))
    bound = 100.0 * config.newton_tol * scale
    passed = discrepancy <= bound
    return ExperimentResult(
        name=f"{kind}{'_adversarial' if adversarial else ''}",
        passed=bool(passed),
        measured={"discrepancy": discrepancy, "bound": bound, "scale": scale},
    )


def _invisible_perturbation(ops, seed=0, visible=False):
    """Dof vector w with M_sigma w = 0 and C^T w = 0 (unless ``visible``).

    Supported on dofs whose vertex touches no conducting element, the
    empty columns of the pruned M_C, then projected against the coupling
    columns restricted to that support.
    """
    support = np.diff(ops.mass_C.indptr) == 0
    rng = np.random.default_rng(seed)
    w = np.zeros(ops.n_dofs)
    w[support] = 0.5 * rng.standard_normal(int(support.sum()))
    if not visible:
        Cs = ops.coupling[support]
        coeffs, *_ = np.linalg.lstsq(
            Cs.T @ Cs, Cs.T @ w[support], rcond=None
        )
        w[support] -= Cs @ coeffs
    return w


# --- manufactured linear-case convergence -------------------------------

_PI = np.pi
# coefficients of the manufactured problem, shared by its forcing, its
# configuration and its error norm
_NU0 = 1.0
_SIGMA_C = 1.0


def manufactured_field(x, y, t):
    """Smooth reference field sin(pi x) sin(pi y) (1 - exp(-t))."""
    return np.sin(_PI * x) * np.sin(_PI * y) * (1.0 - np.exp(-t))


def _manufactured_forcing(mesh, times):
    """Load vectors at ``times`` (rows) matching the conductivity labeling.

    The volumetric forcing sigma(x) dA/dt - nu0 Lap(A) uses the same
    per-element conducting/insulating classification as the mass matrix,
    so the smooth reference field solves the semidiscrete problem without
    an interface-layer inconsistency.
    """
    def bump(x, y):
        return np.sin(_PI * x) * np.sin(_PI * y)

    shape = fem.assemble_load(mesh, bump)
    shape_C = fem.assemble_load(mesh, bump, mesh.element_labels == fem.LABEL_C)
    t = np.asarray(times, dtype=float)[:, None]
    return (
        _SIGMA_C * np.exp(-t) * shape_C
        + 2.0 * _PI ** 2 * _NU0 * (1.0 - np.exp(-t)) * shape
    )


def manufactured_config(n=16, tau=1.0 / 64.0, T=1.0):
    """Linear constant-reluctivity setup driven purely by the manufactured
    forcing: a single zero-strength winding decouples the circuit."""
    winding = fem.WindingSpec(rectangles=(((0.1, 0.2, 0.4, 0.6, 0.0),),))
    return system.MQSConfig(
        n=n, winding=winding, model=material.constant_model(_NU0),
        sigma_C=_SIGMA_C, T=T, tau=tau,
        voltage=system.VoltageSignal("step", np.array([0.0])),
        forcing=_manufactured_forcing,
    )


def energy_norm_error(ops, a, t):
    """Energy-norm distance between a dof vector and the reference field,
    integrated element by element with the exact gradient sampled at the
    three edge midpoints (avoids the superconvergence of nodal comparison)."""
    mesh = ops.mesh
    areas, _ = mesh.geometry
    gh, _ = fem._element_state(mesh, a)
    pts = mesh.vertices[mesh.triangles]
    mids = 0.5 * (pts[:, [1, 2, 0]] + pts[:, [2, 0, 1]])  # [:, q] faces vertex q
    amp = 1.0 - np.exp(-t)
    gx = amp * _PI * np.cos(_PI * mids[..., 0]) * np.sin(_PI * mids[..., 1])
    gy = amp * _PI * np.sin(_PI * mids[..., 0]) * np.cos(_PI * mids[..., 1])
    diff2 = (gx - gh[:, None, 0]) ** 2 + (gy - gh[:, None, 1]) ** 2
    return float(np.sqrt(_NU0 * np.sum(areas / 3.0 * diff2.sum(axis=1))))


def _order_result(name, errors):
    """Pass iff the observed order of ``errors`` lies in [0.8, 1.2]."""
    order = observed_order(errors)
    return ExperimentResult(
        name=name,
        passed=bool(0.8 <= order <= 1.2),
        measured={
            "observed_order": order,
            **{f"error_{k}": e for k, e in enumerate(errors)},
        },
    )


def convergence_study(config, levels, refine):
    """Observed convergence orders of the linear manufactured problem.

    refine = "tau": fixed mesh, step halving from config.tau; errors are
    K_lin-norm differences of solutions on consecutive levels, so each
    order estimate uses a triplet of runs and is exact for a first-order
    error model (no over-resolved reference run needed).
    refine = "h": fixed small step, mesh doubling from config.n, errors
    in the energy norm against the reference field at t = T.
    refine = "both": returns both results combined.
    Every level is configured, and so checked, before the first solve.
    """
    if levels < 3:
        raise ValidationFailure(
            f"convergence study needs >= 3 levels, got {levels}"
        )
    check_choice("refinement kind", refine, ("tau", "h", "both"))
    base = manufactured_config(n=config.n, tau=config.tau, T=config.T)
    tau_runs = [replace(base, tau=base.tau / 2 ** lev)
                for lev in range(levels + 1)] if refine != "h" else []
    h_runs = [replace(base, n=base.n * 2 ** lev)
              for lev in range(levels)] if refine != "tau" else []
    results = []
    if tau_runs:
        ops = system.build_system(base)[0]
        finals = [system.solve(run, ops).fields[-1] for run in tau_runs]
        errors = []
        for u, v in zip(finals[:-1], finals[1:]):
            d = u - v
            errors.append(float(np.sqrt(d @ (ops.stiffness @ d))))
        results.append(_order_result("convergence_tau", errors))
    if h_runs:
        errors = []
        for run in h_runs:
            ops = system.build_system(run)[0]
            a_T = system.solve(run, ops).fields[-1]
            errors.append(energy_norm_error(ops, a_T, run.T))
        results.append(_order_result("convergence_h", errors))
    if refine != "both":
        return results[0]
    r_tau, r_h = results
    return ExperimentResult(
        name="convergence_both",
        passed=r_tau.passed and r_h.passed,
        measured={**{f"tau_{k}": v for k, v in r_tau.measured.items()},
                  **{f"h_{k}": v for k, v in r_h.measured.items()}},
    )


# --- file writers --------------------------------------------------------


def write_timeseries_csv(traj, path):
    """Time series as CSV: t, currents, flux linkages, energy, balance.

    Undefined entries (the step-0 current and balance residual) are left
    empty.  Floats are written as shortest round-trip decimals.
    """
    m = traj.currents.shape[1]
    header = (
        ["t"] + [f"i_{j + 1}" for j in range(m)]
        + [f"flux_{j + 1}" for j in range(m)]
        + ["energy", "balance_residual"]
    )
    lines = [",".join(header)]
    # .tolist() hands out Python floats, which repr formats far faster
    for t, currents, fluxes, energy, b in zip(
            traj.times.tolist(), traj.currents.tolist(), traj.fluxes.tolist(),
            traj.energies.tolist(), traj.balance_residuals.tolist(),
            strict=True):
        row = [repr(t)]
        row += ["" if math.isnan(v) else repr(v) for v in currents]
        row += [repr(v) for v in fluxes]
        row.append(repr(energy))
        row.append("" if math.isnan(b) else repr(b))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_field_vtk(mesh, a, path):
    """Legacy-ASCII VTK unstructured grid with the scalar field and labels.

    POINT_DATA carries the out-of-plane potential ``A_z`` (boundary
    vertices filled with their fixed zero value), CELL_DATA the
    conducting/insulating subdomain label.
    """
    a_vert = np.zeros(mesh.n_vertices)
    a_vert[mesh.dof_to_vertex] = a
    lines = [
        "# vtk DataFile Version 3.0",
        "mqsflow field",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines.extend(f"{x!r} {y!r} 0.0" for x, y in mesh.vertices.tolist())
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    lines.extend(f"3 {i} {j} {k}" for i, j, k in mesh.triangles.tolist())
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend(["5"] * mesh.n_elements)
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    lines.append("SCALARS A_z double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(map(repr, a_vert.tolist()))
    lines.append(f"CELL_DATA {mesh.n_elements}")
    lines.append("SCALARS subdomain int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(map(str, mesh.element_labels.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_summary(results, out_dir):
    """Plain-text table plus machine-readable key=value file."""
    os.makedirs(out_dir, exist_ok=True)
    name_w = max(len(r.name) for r in results)
    table = [f"{'experiment'.ljust(name_w)}  result  measured"]
    kv = []
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        measured = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in r.measured.items()
        )
        table.append(f"{r.name.ljust(name_w)}  {verdict}    {measured}")
        kv.append(f"{r.name}.pass={str(r.passed).lower()}")
        kv.extend(f"{r.name}.{k}={v!r}" for k, v in r.measured.items())
    table_path = os.path.join(out_dir, "summary.txt")
    kv_path = os.path.join(out_dir, "summary.kv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(table) + "\n")
    with open(kv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(kv) + "\n")
    return table_path, kv_path

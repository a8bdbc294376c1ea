"""Acceptance criteria: one test and one printed pass/fail line each.

All checks run at desk scale (mesh n <= 64, one or two windings, unit
horizon) and verify the structural properties of the model: certified
material constants, discrete monotonicity, energy bounds, derivative
consistency, coercivity, weak-solution residuals, equivalence of the two
step formulations, the power-balance identity, uniqueness and
initializability, regularity monitors, manufactured convergence orders,
and the generic stepper against brute-force oracles.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from mqsflow import core, diagnostics, fem, material, system


def _report(number, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def default_build():
    cfg = system.MQSConfig(n=32, tau=1.0 / 64.0, T=1.0)
    ops, phi, E = system.build_system(cfg)
    return cfg, ops, phi, E


@pytest.fixture(scope="module")
def default_traj(default_build):
    cfg, ops, _, _ = default_build
    return system.solve(cfg, ops)


def test_criterion_01_material_certification():
    t0 = time.perf_counter()
    report = material.estimate_constants(
        material.rational_saturation_model(1.0, 5.0))
    elapsed = time.perf_counter() - t0
    ok = (
        0.49 <= report.m_hat <= 0.51
        and 4.99 <= report.L_hat <= 5.01
        and elapsed < 1.0
    )
    _report(1, "material-certification", ok,
            f"(m_hat={report.m_hat:.6f}, L_hat={report.L_hat:.6f}, "
            f"{elapsed:.2f}s)")


def test_criterion_02_discrete_monotonicity(default_build):
    _, ops, _, _ = default_build
    t0 = time.perf_counter()
    report = diagnostics.monotonicity_probe(ops, n_pairs=200, seed=42)
    elapsed = time.perf_counter() - t0
    min_ratio = report.measured["min_ratio"]
    ok = min_ratio >= 1.0 - 1e-10 and elapsed < 5.0
    _report(2, "discrete-monotonicity", ok,
            f"(min_ratio={min_ratio:.6f}, {elapsed:.2f}s)")


def test_criterion_03_energy_bounds_and_lipschitz(default_build):
    _, ops, phi, _ = default_build
    rng = np.random.default_rng(42)
    K = ops.stiffness
    min_slack = np.inf
    for _ in range(200):
        a = rng.standard_normal(ops.n_dofs)
        b = rng.standard_normal(ops.n_dofs)
        qa = float(a @ (K @ a))
        qb = float(b @ (K @ b))
        pa, pb = phi.eval(a), phi.eval(b)
        # two-sided bound for a, Lipschitz estimate for the pair
        min_slack = min(
            min_slack,
            pa - 0.5 * ops.m_hat * qa,
            0.5 * ops.L_hat * qa - pa,
            0.5 * ops.L_hat * (np.sqrt(qa) + np.sqrt(qb))
            * np.sqrt(float((a - b) @ (K @ (a - b)))) - abs(pa - pb),
        )
    ok = min_slack >= -1e-10
    _report(3, "energy-bounds-lipschitz", ok, f"(min_slack={min_slack:.3e})")


def test_criterion_04_gateaux_consistency():
    cfg = system.MQSConfig(n=16)
    ops, phi, _ = system.build_system(cfg)
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        a = 0.3 * rng.standard_normal(ops.n_dofs)
        v = rng.standard_normal(ops.n_dofs)
        v /= np.linalg.norm(v)
        fd = (phi.eval(a + h * v) - phi.eval(a - h * v)) / (2 * h)
        exact = float(phi.gateaux(a) @ v)
        worst = max(worst, abs(fd - exact) / (1e-300 + abs(exact)))
    ok = worst <= 1e-6
    _report(4, "gateaux-consistency", ok, f"(max_rel_err={worst:.3e})")


def test_criterion_05_coercivity_constant(default_build):
    _, ops, _, _ = default_build
    mesh = fem.build_mesh(64, None)  # no conducting subdomain
    mass_C, mass = fem.assemble_sigma_mass(mesh, 1.0)
    L_C = fem.estimate_coercivity_constant(
        mass_C, fem.assemble_stiffness(mesh), mass)
    target = 1.0 / (2.0 * np.pi ** 2)
    rel = abs(L_C - target) / target
    sampled = diagnostics.coercivity_bound_check(ops, n_samples=100, seed=42)
    ok = rel <= 0.05 and sampled.passed
    _report(5, "coercivity-constant", ok,
            f"(L_C={L_C:.6f}, target={target:.6f}, rel={rel:.2%}, "
            f"sampled_min_slack={sampled.measured['min_slack']:.3e})")


def test_criterion_06_weak_solution_residuals(default_build, default_traj):
    cfg, ops, _, _ = default_build
    report = system.check_weak_solution(ops, default_traj)
    bound = 10.0 * cfg.newton_tol * diagnostics.trajectory_scale(
        ops, default_traj
    )
    worst = max(report.max_field_residual, report.max_circuit_residual)
    ok = worst <= bound
    _report(6, "weak-solution-residuals", ok,
            f"(max_residual={worst:.3e}, bound={bound:.3e})")


def test_criterion_07_schur_equivalence(default_build):
    cfg, ops, _, _ = default_build
    tight = replace(cfg, newton_tol=1e-12)
    traj = system.solve(tight, ops)
    fields_schur = system.solve_schur(tight, ops)
    scale = diagnostics.trajectory_scale(ops, traj)
    worst = float(np.max(np.linalg.norm(traj.fields - fields_schur, axis=1)))
    ok = worst <= 1e-10 * scale and traj.n_steps == 64
    _report(7, "schur-equivalence", ok,
            f"(max_step_diff={worst:.3e}, bound={1e-10 * scale:.3e}, "
            f"steps={traj.n_steps})")


def test_criterion_08_power_balance_order(default_build):
    cfg, ops, _, _ = default_build
    t0 = time.perf_counter()
    result = diagnostics.balance_order_study(
        cfg, ops, taus=(1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256)
    )
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 120.0
    _report(8, "power-balance-order", ok,
            f"(observed_order={result.measured['observed_order']:.3f}, "
            f"{elapsed:.1f}s)")


def test_criterion_09_uniqueness_and_initializability(default_build,
                                                      default_traj):
    cfg, ops, _, _ = default_build
    uniq = diagnostics.perturbation_experiments(
        cfg, ops, default_traj, "uniqueness")
    init = diagnostics.perturbation_experiments(
        cfg, ops, default_traj, "initializability")
    adv = diagnostics.perturbation_experiments(
        cfg, ops, default_traj, "initializability", adversarial=True
    )
    ok = uniq.passed and init.passed and not adv.passed
    _report(9, "uniqueness-initializability", ok,
            f"(uniq={uniq.measured['discrepancy']:.3e}, "
            f"init={init.measured['discrepancy']:.3e}, "
            f"adversarial_detected={not adv.passed})")


def test_criterion_10_regularity_monitors():
    taus = [2.0 ** -p for p in range(4, 9)]

    def monitor_series(cfg):
        ops = system.build_system(cfg)[0]
        rows = []
        for tau in taus:
            traj = system.solve(replace(cfg, tau=tau), ops)
            mon = core.regularity_monitors(traj.core_trajectory)
            mon["I2"] = float(tau * np.nansum(traj.currents[1:] ** 2))
            rows.append(mon)
        return rows

    def bounded(values):
        ratios = np.array(values[1:]) / np.array(values[:-1])
        return bool(np.all(ratios[2:] <= 1.1))

    rough = monitor_series(system.MQSConfig(n=16, a0_kind="random", seed=7))
    smooth = monitor_series(system.MQSConfig(n=16, a0_kind="zero"))
    ok = (
        bounded([r["W1"] for r in rough])
        and bounded([r["S1"] for r in rough])
        and bounded([r["W0"] for r in smooth])
        and bounded([r["I2"] for r in smooth])
    )
    _report(10, "regularity-monitors", ok,
            f"(rough_W1={rough[-1]['W1']:.4f}, rough_S1={rough[-1]['S1']:.4f}, "
            f"smooth_W0={smooth[-1]['W0']:.4f}, smooth_I2={smooth[-1]['I2']:.4f})")


def test_criterion_11_manufactured_convergence():
    r_tau = diagnostics.convergence_study(
        diagnostics.manufactured_config(n=16, tau=1.0 / 16.0), 4, "tau"
    )
    r_h = diagnostics.convergence_study(
        diagnostics.manufactured_config(n=8, tau=1.0 / 256.0), 3, "h"
    )
    ok = r_tau.passed and r_h.passed
    _report(11, "manufactured-convergence", ok,
            f"(tau_order={r_tau.measured['observed_order']:.3f}, "
            f"h_order={r_h.measured['observed_order']:.3f})")


def test_criterion_12_core_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_prox = 0.0
    worst_phi_e = 0.0
    for n in (2, 4, 6, 8):
        A = rng.standard_normal((n, n))
        Q = A @ A.T + n * np.eye(n)
        b = rng.standard_normal(n)
        phi = core.EllipticFunctional(
            eval=lambda x, Q=Q, b=b: 0.5 * float(x @ (Q @ x)) - float(b @ x),
            gateaux=lambda x, Q=Q, b=b: Q @ x - b,
            hessian=lambda x, Q=Q: Q,
        )
        Em = rng.standard_normal((max(1, n - 2), n))
        E = core.LinearMapE(Em)
        x_prev = rng.standard_normal(n)
        f_k = rng.standard_normal(Em.shape[0])
        tau = 0.2
        x = core.prox_step(phi, E, x_prev, f_k, tau, newton_tol=1e-13)
        rhs = b + Em.T @ (Em @ x_prev + tau * f_k) / tau
        x_star = np.linalg.solve(Q + Em.T @ Em / tau, rhs)
        worst_prox = max(worst_prox, float(np.linalg.norm(x - x_star)))

        z = Em @ rng.standard_normal(n)
        out = core.eval_phi_E(phi, E, z)
        k = Em.shape[0]
        KKT = np.block([[Q, Em.T], [Em, np.zeros((k, k))]])
        sol = np.linalg.solve(KKT, np.concatenate([b, z]))
        worst_phi_e = max(
            worst_phi_e,
            float(np.linalg.norm(out["argmin"] - sol[:n])),
            abs(out["value"] - phi.eval(sol[:n])),
        )

    # nonquadratic instance against a generic high-precision minimizer
    n = 5
    phi_nl = core.EllipticFunctional(
        eval=lambda x: 0.25 * float(x @ x) ** 2 + 0.5 * float(x @ x),
        gateaux=lambda x: (float(x @ x) + 1.0) * x,
        hessian=lambda x: (float(x @ x) + 1.0) * np.eye(n)
        + 2.0 * np.outer(x, x),
    )
    Em = rng.standard_normal((3, n))
    E = core.LinearMapE(Em)
    x_prev = rng.standard_normal(n)
    f_k = rng.standard_normal(3)
    tau = 0.25
    x = core.prox_step(phi_nl, E, x_prev, f_k, tau, newton_tol=1e-13)
    bb = Em @ x_prev + tau * f_k

    def J(x):
        mis = Em @ x - bb
        return phi_nl.eval(x) + 0.5 / tau * float(mis @ mis)

    res = scipy.optimize.minimize(J, x_prev, method="BFGS",
                                  options={"gtol": 1e-12, "maxiter": 500})
    worst_prox = max(worst_prox, float(np.linalg.norm(x - res.x)))

    ok = worst_prox <= 1e-6 and worst_phi_e <= 1e-8
    _report(12, "core-oracle-equivalence", ok,
            f"(max_prox_diff={worst_prox:.3e}, max_phi_E_diff={worst_phi_e:.3e})")

"""Coupled field-circuit system: operators, solve paths, and probes."""

import numpy as np
import pytest
import scipy.sparse as sp

from mqsflow import core, fem, material, system
from mqsflow.errors import ValidationFailure


@pytest.fixture(scope="module")
def default_small():
    cfg = system.MQSConfig(n=16, tau=1.0 / 16.0)
    ops, phi, E = system.build_system(cfg)
    return cfg, ops, phi, E


def test_build_system_defaults(default_small):
    _, ops, phi, E = default_small
    assert ops.n_dofs == 15 * 15
    assert ops.m == 1
    assert ops.m_hat > 0.49 and ops.L_hat < 5.01
    assert ops.coercivity_constant > 0
    assert E.dim_X == ops.n_dofs


def test_metric_map_gram_identity(default_small):
    """E^T E must equal sigma_C M_C + C R^{-1} C^T to rounding."""
    _, ops, _, E = default_small
    gram = (E.matrix.T @ E.matrix).toarray()
    ref = ops.msigma.toarray() + ops.coupling @ ops.R_inv @ ops.coupling.T
    assert np.abs(gram - ref).max() < 1e-14


def test_principal_inverse_square_root():
    R = np.array([[2.0, 0.5], [0.5, 1.0]])
    S = system._principal_inv_sqrt(R)
    assert np.abs(S @ S @ R - np.eye(2)).max() < 1e-12
    assert np.abs(S - S.T).max() < 1e-13
    with pytest.raises(ValidationFailure):
        system._principal_inv_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_non_spd_resistance_rejected():
    cfg = system.MQSConfig(R=np.array([[-1.0]]))
    with pytest.raises(ValidationFailure):
        system.build_system(cfg)


def test_resistance_winding_count_mismatch_rejected():
    cfg = system.MQSConfig(R=np.eye(2))
    with pytest.raises(ValidationFailure):
        system.build_system(cfg)


def test_energy_gateaux_finite_difference(default_small):
    _, ops, phi, _ = default_small
    rng = np.random.default_rng(0)
    a = 0.3 * rng.standard_normal(ops.n_dofs)
    v = rng.standard_normal(ops.n_dofs)
    h = 1e-6
    fd = (phi.eval(a + h * v) - phi.eval(a - h * v)) / (2 * h)
    assert fd == pytest.approx(float(phi.gateaux(a) @ v), rel=1e-6)


def test_constant_reluctivity_energy_is_quadratic():
    cfg = system.MQSConfig(n=8, model=material.constant_model(2.0))
    ops, phi, _ = system.build_system(cfg)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(ops.n_dofs)
    assert phi.eval(a) == pytest.approx(
        float(a @ (ops.stiffness @ a)), rel=1e-12
    )


def test_zero_voltage_zero_initial_stays_zero(default_small):
    cfg, ops, phi, E = default_small
    from dataclasses import replace

    quiet = replace(
        cfg, voltage=system.VoltageSignal("constant", np.array([0.0]))
    )
    traj = system.solve(quiet, ops, phi, E)
    assert np.all(traj.fields == 0.0)
    assert np.all(traj.currents[1:] == 0.0)
    assert np.all(traj.energies == 0.0)


def test_zero_winding_decouples_circuit():
    winding = fem.WindingSpec(rectangles=(((0.1, 0.2, 0.4, 0.6, 0.0),),))
    cfg = system.MQSConfig(n=8, tau=1.0 / 8.0, winding=winding)
    ops, phi, E = system.build_system(cfg)
    assert np.all(ops.coupling == 0.0)
    traj = system.solve(cfg, ops, phi, E)
    # i_k = R^{-1} v_k once flux linkage is identically constant
    assert np.allclose(traj.currents[1:], 1.0, atol=1e-14)
    assert np.all(traj.fields == 0.0)


def test_linear_step_response_reaches_steady_state():
    """Long-horizon linear run: currents approach v/R monotonically in
    flux, with steady-state circuit residual below 1e-6."""
    cfg = system.MQSConfig(
        n=16, model=material.constant_model(2.0), T=24.0, tau=1.0 / 16.0
    )
    traj = system.solve(cfg)
    assert np.all(np.diff(traj.fluxes[:, 0]) >= -1e-12)
    assert abs(traj.currents[-1][0] - 1.0) <= 1e-6


def test_initial_field_kinds(tmp_path):
    cfg = system.MQSConfig(n=8)
    ops, _, _ = system.build_system(cfg)
    from dataclasses import replace

    assert np.all(system.initial_field(cfg, ops) == 0.0)
    rnd = system.initial_field(replace(cfg, a0_kind="random", seed=5), ops)
    rnd2 = system.initial_field(replace(cfg, a0_kind="random", seed=5), ops)
    assert np.array_equal(rnd, rnd2) and rnd.std() > 0
    path = tmp_path / "a0.npy"
    np.save(path, rnd)
    loaded = system.initial_field(
        replace(cfg, a0_kind="file", a0_path=str(path)), ops
    )
    assert np.array_equal(loaded, rnd)



def test_solve_with_a0_matches_file_initial_field(tmp_path):
    from dataclasses import replace

    cfg = system.MQSConfig(n=8, T=0.25, tau=1.0 / 16.0)
    ops, phi, E = system.build_system(cfg)
    x = system.initial_field(replace(cfg, a0_kind="random", seed=3), ops)
    path = tmp_path / "a0.npy"
    np.save(path, x)
    from_file = system.solve(
        replace(cfg, a0_kind="file", a0_path=str(path)), ops, phi, E
    )
    in_memory = system.solve(cfg, ops, phi, E, a0=x)
    assert np.array_equal(from_file.fields, in_memory.fields)
    assert np.array_equal(from_file.currents[1:], in_memory.currents[1:])


def test_solve_rejects_wrong_shape_initial_field():
    cfg = system.MQSConfig(n=8, T=0.25, tau=1.0 / 16.0)
    ops, phi, E = system.build_system(cfg)
    with pytest.raises(ValidationFailure, match="shape"):
        system.solve(cfg, ops, phi, E, a0=np.zeros(ops.n_dofs + 1))

def test_config_rejects_horizon_not_a_whole_number_of_steps():
    with pytest.raises(ValidationFailure, match="not a whole number"):
        system.MQSConfig(n=8, T=1.0, tau=0.3)
    # rounding in T / tau is tolerated
    assert system.MQSConfig(n=8, T=0.3, tau=0.1).n_steps == 3
    assert system.MQSConfig(n=8, T=1.0, tau=1.0 / 64.0).n_steps == 64


def test_voltage_signals():
    step = system.VoltageSignal("step", np.array([2.0]))
    assert step(0.0) == np.array([0.0])
    assert step(0.5) == np.array([2.0])
    const = system.VoltageSignal("constant", np.array([3.0, 1.0]))
    assert const.m == 2
    table = system.VoltageSignal(
        "table", table=np.array([[0.0, 0.0], [1.0, 2.0]])
    )
    assert table(0.5) == pytest.approx(1.0)


def test_schur_equivalence_random_steps(default_small):
    """Both step formulations solve the same stationarity condition."""
    cfg, ops, phi, E = default_small
    rng = np.random.default_rng(7)
    prox_cfg = core.ProxConfig(tau=cfg.tau, n_steps=1, newton_tol=1e-12)
    for _ in range(20):
        a_prev = 0.2 * rng.standard_normal(ops.n_dofs)
        v_k = rng.standard_normal(1)
        f_k = np.zeros(E.dim_Z)
        f_k[-1:] = ops.R_inv_sqrt @ v_k
        a_prox = core.prox_step(phi, E, a_prev, f_k, cfg.tau,
                                newton_tol=1e-12)
        a_schur = system.schur_step(ops, a_prev, v_k, cfg.tau,
                                    newton_tol=1e-12)
        scale = 1.0 + np.linalg.norm(a_prox)
        assert np.linalg.norm(a_prox - a_schur) <= 1e-10 * scale


def test_schur_large_tau_magnetostatic_limit(default_small):
    """tau -> infinity: the step solves K(a) = C R^{-1} v."""
    _, ops, _, _ = default_small
    a = system.schur_step(ops, np.zeros(ops.n_dofs), np.array([1.0]), 1e12)
    rhs = ops.coupling @ (ops.R_inv @ np.array([1.0]))
    assert np.linalg.norm(ops.K(a) - rhs) < 1e-9 * (1 + np.linalg.norm(rhs))


def test_schur_no_coupling_is_mass_parabolic_step():
    winding = fem.WindingSpec(rectangles=(((0.1, 0.2, 0.4, 0.6, 0.0),),))
    cfg = system.MQSConfig(
        n=8, winding=winding, model=material.constant_model(1.0)
    )
    ops, _, _ = system.build_system(cfg)
    rng = np.random.default_rng(8)
    a_prev = 0.1 * rng.standard_normal(ops.n_dofs)
    tau = 0.125
    a = system.schur_step(ops, a_prev, np.array([0.0]), tau,
                          newton_tol=1e-13)
    # direct linear solve of (M_sigma / tau + K_lin) a = M_sigma a_prev / tau
    A = (ops.msigma / tau + ops.stiffness).toarray()
    a_star = np.linalg.solve(A, ops.msigma @ a_prev / tau)
    assert np.linalg.norm(a - a_star) < 1e-10 * (1 + np.linalg.norm(a_star))


def test_weak_solution_residuals_small(default_small):
    cfg, ops, phi, E = default_small
    traj = system.solve(cfg, ops, phi, E)
    report = system.check_weak_solution(ops, traj)
    from mqsflow.diagnostics import trajectory_scale

    bound = 10.0 * cfg.newton_tol * trajectory_scale(ops, traj)
    assert report.max_field_residual <= bound
    assert report.max_circuit_residual <= bound


def test_weak_residual_detects_corrupted_current(default_small):
    cfg, ops, phi, E = default_small
    traj = system.solve(cfg, ops, phi, E)
    corrupted = traj.currents.copy()
    corrupted[3, 0] += 1e-3
    bad = system.MQSTrajectory(
        times=traj.times, fields=traj.fields, currents=corrupted,
        energies=traj.energies, fluxes=traj.fluxes,
        balance_residuals=traj.balance_residuals, voltages=traj.voltages,
        core_trajectory=traj.core_trajectory,
    )
    report = system.check_weak_solution(ops, bad)
    assert report.circuit_residuals[2] == pytest.approx(1e-3, rel=1e-6)


def test_weak_solution_zero_trajectory(default_small):
    cfg, ops, phi, E = default_small
    from dataclasses import replace

    quiet = replace(
        cfg, voltage=system.VoltageSignal("constant", np.array([0.0]))
    )
    traj = system.solve(quiet, ops, phi, E)
    report = system.check_weak_solution(ops, traj)
    assert report.max_field_residual == 0.0
    assert report.max_circuit_residual == 0.0


def test_monotonicity_constant_model_is_equality():
    cfg = system.MQSConfig(n=8, model=material.constant_model(2.0))
    ops, _, _ = system.build_system(cfg)
    report = system.monotonicity_probe(ops, n_pairs=50, seed=0)
    # constant nu: <a-b, K(a)-K(b)> = nu (a-b)^T K_lin (a-b), m_hat = nu
    assert report.min_ratio == pytest.approx(1.0, rel=1e-12)


def test_monotonicity_probe_default(default_small):
    _, ops, _, _ = default_small
    report = system.monotonicity_probe(ops, n_pairs=200, seed=42)
    assert report.min_ratio >= 1.0 - 1e-10
    assert report.n_checked == 200


def test_monotonicity_probe_counts_trivial_pairs(default_small):
    _, ops, _, _ = default_small
    report = system.monotonicity_probe(ops, n_pairs=1, seed=0, scale=0.0)
    assert report.n_checked == 0
    assert report.n_trivial == 1
    assert report.min_ratio == np.inf


def test_coercivity_bound_sampled(default_small):
    _, ops, phi, E = default_small
    out = system.coercivity_bound_check(ops, phi, E, n_samples=100, seed=0)
    assert out["passed"]
    assert out["c"] == pytest.approx(
        min(ops.m_hat, ops.sigma_C) / (2 * ops.L_C)
    )


def test_power_balance_zero_trajectory(default_small):
    cfg, ops, phi, E = default_small
    from dataclasses import replace

    quiet = replace(
        cfg, voltage=system.VoltageSignal("constant", np.array([0.0]))
    )
    traj = system.solve(quiet, ops, phi, E)
    assert np.all(traj.balance_residuals[1:] == 0.0)
    assert np.isnan(traj.balance_residuals[0])


def test_power_balance_equals_generic_energy_identity(default_small):
    """The circuit-level power balance and the abstract dissipation
    identity are the same defect, computed from different arrays."""
    cfg, ops, phi, E = default_small
    traj = system.solve(cfg, ops, phi, E)
    rho = core.energy_identity_residual(traj.core_trajectory)
    assert np.allclose(traj.balance_residuals[1:], rho, atol=1e-12)


def test_current_recovery_row0_is_undefined(default_small):
    cfg, ops, phi, E = default_small
    traj = system.solve(cfg, ops, phi, E)
    assert np.all(np.isnan(traj.currents[0]))
    assert np.all(np.isfinite(traj.currents[1:]))


def test_initial_data_reproduced_in_metric_image(default_small):
    cfg, ops, phi, E = default_small
    from dataclasses import replace

    rough = replace(cfg, a0_kind="random", seed=3)
    a0 = system.initial_field(rough, ops)
    traj = system.solve(rough, ops, phi, E)
    assert np.array_equal(traj.fields[0], a0)
    assert np.allclose(traj.fluxes[0], ops.coupling.T @ a0)

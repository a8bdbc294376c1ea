"""Generic prox stepper and property checks on small dense instances."""

import numpy as np
import pytest
import scipy.optimize

from mqsflow import core
from mqsflow.errors import (
    InfeasibleLevelSet,
    NonConvergence,
    OracleLimitExceeded,
    SingularStep,
    ValidationFailure,
)


def quadratic(Q, b=None):
    """phi(x) = x^T Q x / 2 - b . x as an EllipticFunctional."""
    n = Q.shape[0]
    if b is None:
        b = np.zeros(n)
    return core.EllipticFunctional(
        eval=lambda x: 0.5 * float(x @ (Q @ x)) - float(b @ x),
        gateaux=lambda x: Q @ x - b,
        hessian=lambda x: Q,
    )


def quartic(n):
    """phi(x) = ||x||^4 / 4 + ||x||^2 / 2, smooth and strictly convex."""
    return core.EllipticFunctional(
        eval=lambda x: 0.25 * float(x @ x) ** 2 + 0.5 * float(x @ x),
        gateaux=lambda x: (float(x @ x) + 1.0) * x,
        hessian=lambda x: (float(x @ x) + 1.0) * np.eye(n)
        + 2.0 * np.outer(x, x),
    )


def random_spd(n, rng):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_linear_map_adjoint_consistency():
    rng = np.random.default_rng(0)
    E = core.LinearMapE(rng.standard_normal((3, 5)))
    x = rng.standard_normal(5)
    z = rng.standard_normal(3)
    assert float(z @ E.apply(x)) == pytest.approx(
        float(E.apply_adjoint(z) @ x), rel=1e-12
    )
    assert np.allclose(E.gram, E.matrix.T @ E.matrix)


def test_prox_step_matches_kkt_oracle_quadratic():
    """Implicit-Euler step against the closed-form normal-equations solve."""
    rng = np.random.default_rng(1)
    for n in (2, 4, 8):
        Q = random_spd(n, rng)
        b = rng.standard_normal(n)
        E = core.LinearMapE(rng.standard_normal((n - 1, n)))
        x_prev = rng.standard_normal(n)
        f_k = rng.standard_normal(n - 1)
        tau = 0.1
        x = core.prox_step(quadratic(Q, b), E, x_prev, f_k, tau,
                           newton_tol=1e-13)
        # oracle: (Q + E^T E / tau) x = b + E^T (E x_prev + tau f) / tau
        rhs = b + E.matrix.T @ (E.matrix @ x_prev + tau * f_k) / tau
        x_star = np.linalg.solve(Q + E.matrix.T @ E.matrix / tau, rhs)
        assert np.linalg.norm(x - x_star) < 1e-6


def test_prox_step_matches_brute_force_on_nonquadratic():
    """Damped Newton against a high-precision generic minimizer."""
    rng = np.random.default_rng(2)
    n = 5
    phi = quartic(n)
    E = core.LinearMapE(rng.standard_normal((3, n)))
    x_prev = rng.standard_normal(n)
    f_k = rng.standard_normal(3)
    tau = 0.25
    x = core.prox_step(phi, E, x_prev, f_k, tau, newton_tol=1e-13)
    b = E.apply(x_prev) + tau * f_k

    def J(x):
        mis = E.apply(x) - b
        return phi.eval(x) + 0.5 / tau * float(mis @ mis)

    res = scipy.optimize.minimize(J, x_prev, method="BFGS",
                                  options={"gtol": 1e-12, "maxiter": 500})
    assert np.linalg.norm(x - res.x) < 1e-6
    assert J(x) <= res.fun + 1e-12


def test_prox_step_stationary_at_minimizer():
    Q = np.diag([2.0, 3.0])
    phi = quadratic(Q)
    E = core.LinearMapE(np.eye(2))
    x = core.prox_step(phi, E, np.zeros(2), np.zeros(2), 0.5)
    assert np.all(x == 0.0)


def test_prox_step_concave_functional_raises():
    phi = core.EllipticFunctional(
        eval=lambda x: -float(x @ x),
        gateaux=lambda x: -2.0 * x,
        hessian=lambda x: -2.0 * np.eye(2),
    )
    # with tau large the Hessian -2 I + I/tau is negative: not a descent setup
    with pytest.raises((SingularStep, NonConvergence)):
        core.prox_step(phi, core.LinearMapE(np.eye(2)), np.array([1.0, 1.0]),
                       np.zeros(2), 10.0)


def test_solve_trajectory_zero_input_decays_energy():
    rng = np.random.default_rng(3)
    n = 4
    phi = quadratic(random_spd(n, rng))
    E = core.LinearMapE(np.eye(n))
    cfg = core.ProxConfig(tau=0.1, n_steps=20)
    traj = core.solve_trajectory(phi, E, rng.standard_normal(n), None, cfg)
    assert traj.states.shape == (21, n)
    assert np.all(np.diff(traj.energies) <= 1e-12)
    assert traj.energies[-1] < 1e-6 * traj.energies[0]


def test_energy_identity_residual_nonpositive_and_consistent():
    """The per-step dissipation defect is the convexity gap, hence <= 0,
    and must match an independent recomputation from the stored arrays."""
    rng = np.random.default_rng(4)
    n = 4
    phi = quartic(n)
    E = core.LinearMapE(rng.standard_normal((3, n)))
    f = rng.standard_normal((11, 3))
    cfg = core.ProxConfig(tau=0.05, n_steps=10)
    traj = core.solve_trajectory(phi, E, rng.standard_normal(n), f, cfg)
    rho = core.energy_identity_residual(traj)
    assert np.all(rho <= 1e-10)
    manual = (
        np.diff(traj.energies)
        - cfg.tau * np.einsum("kj,kj->k", traj.inputs, traj.rates)
        + cfg.tau * np.einsum("kj,kj->k", traj.rates, traj.rates)
    )
    assert np.allclose(rho, manual, atol=1e-14)


def test_resolve_inputs_shapes_and_modes():
    f = np.arange(8.0).reshape(4, 2)
    right = core.resolve_inputs(f, 3, 2, "right")
    assert np.array_equal(right, f[1:])
    avg = core.resolve_inputs(f, 3, 2, "average")
    assert np.allclose(avg, 0.5 * (f[:-1] + f[1:]))
    assert np.array_equal(core.resolve_inputs(f[1:], 3, 2), f[1:])
    assert np.all(core.resolve_inputs(None, 3, 2) == 0.0)
    with pytest.raises(ValueError):
        core.resolve_inputs(f, 5, 2)


def test_prox_config_validation():
    with pytest.raises(ValueError):
        core.ProxConfig(tau=0.0, n_steps=1)
    with pytest.raises(ValueError):
        core.ProxConfig(tau=0.1, n_steps=0)
    with pytest.raises(ValueError):
        core.ProxConfig(tau=0.1, n_steps=1, input_sampling="left")
    phi = quadratic(np.eye(2))
    phi.ellipticity_omega = 2.0
    with pytest.raises(ValidationFailure):
        core.ProxConfig(tau=0.6, n_steps=1).check_against(phi)
    core.ProxConfig(tau=0.4, n_steps=1).check_against(phi)


def test_eval_phi_E_matches_kkt_oracle():
    """Constrained minimum against the dense saddle-point (KKT) solve."""
    rng = np.random.default_rng(5)
    n, k = 6, 3
    Q = random_spd(n, rng)
    b = rng.standard_normal(n)
    A = rng.standard_normal((k, n))
    phi = quadratic(Q, b)
    E = core.LinearMapE(A)
    z = A @ rng.standard_normal(n)  # guaranteed feasible
    out = core.eval_phi_E(phi, E, z)
    KKT = np.block([[Q, A.T], [A, np.zeros((k, k))]])
    sol = np.linalg.solve(KKT, np.concatenate([b, z]))
    x_star = sol[:n]
    assert np.linalg.norm(out["argmin"] - x_star) < 1e-8
    assert out["value"] == pytest.approx(phi.eval(x_star), abs=1e-8)


def test_eval_phi_E_infeasible_target():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    E = core.LinearMapE(np.vstack([A, A]))  # rank 2 map into R^4
    phi = quadratic(np.eye(3))
    with pytest.raises(InfeasibleLevelSet):
        core.eval_phi_E(phi, E, np.array([1.0, 0.0, 0.0, 1.0]))


def test_eval_phi_E_dimension_limit():
    n = 70
    phi = quadratic(np.eye(n))
    E = core.LinearMapE(np.eye(n))
    with pytest.raises(OracleLimitExceeded):
        core.eval_phi_E(phi, E, np.zeros(n), dim_limit=64)


def test_eval_phi_E_injective_map_returns_preimage():
    phi = quadratic(np.diag([1.0, 2.0]))
    E = core.LinearMapE(np.array([[2.0, 0.0], [0.0, 4.0]]))
    z = np.array([1.0, 2.0])
    out = core.eval_phi_E(phi, E, z)
    assert np.allclose(out["argmin"], [0.5, 0.5])


def test_regularity_monitors_zero_trajectory():
    phi = quadratic(np.eye(2))
    E = core.LinearMapE(np.eye(2))
    cfg = core.ProxConfig(tau=0.1, n_steps=5)
    traj = core.solve_trajectory(phi, E, np.zeros(2), None, cfg)
    mon = core.regularity_monitors(traj)
    assert mon["W1"] == 0.0 and mon["S1"] == 0.0 and mon["W0"] == 0.0


def test_check_E_ellipticity_convex_passes():
    rng = np.random.default_rng(6)
    phi = quadratic(random_spd(3, rng))
    E = core.LinearMapE(np.eye(3))
    report = core.check_E_ellipticity(phi, E, 1.0, samples=50, seed=0)
    assert report.passed


def test_check_E_ellipticity_detects_concavity():
    phi = core.EllipticFunctional(
        eval=lambda x: -float(x @ x) ** 2,
        gateaux=lambda x: -4.0 * float(x @ x) * x,
        hessian=lambda x: None,
    )
    E = core.LinearMapE(np.eye(3))
    report = core.check_E_ellipticity(phi, E, 0.1, samples=50, seed=0)
    assert not report.passed


def test_singular_newton_system_raises():
    with pytest.raises(SingularStep):
        core._solve_newton_system(np.zeros((2, 2)), np.ones(2))


def test_trajectory_error_annotated_with_step():
    phi = core.EllipticFunctional(
        eval=lambda x: -float(x @ x),
        gateaux=lambda x: -2.0 * x,
        hessian=lambda x: -2.0 * np.eye(1),
    )
    E = core.LinearMapE(np.eye(1))
    cfg = core.ProxConfig(tau=10.0, n_steps=3)
    with pytest.raises((SingularStep, NonConvergence)) as exc_info:
        core.solve_trajectory(phi, E, np.array([1.0]), None, cfg)
    assert exc_info.value.step == 1


def test_newton_minimize_one_iteration_on_quadratic():
    rng = np.random.default_rng(7)
    Q = random_spd(4, rng)
    b = rng.standard_normal(4)
    phi = quadratic(Q, b)
    hessian_calls = []

    def hessian(x):
        hessian_calls.append(x)
        return Q

    x = core.newton_minimize(phi.eval, phi.gateaux, hessian, np.zeros(4),
                             1e-10)
    assert len(hessian_calls) == 1
    assert np.allclose(x, np.linalg.solve(Q, b), atol=1e-12)


def test_newton_minimize_concave_objective_raises_singular_step():
    with pytest.raises(SingularStep):
        core.newton_minimize(
            lambda x: -float(x @ x), lambda x: -2.0 * x,
            lambda x: -2.0 * np.eye(2), np.ones(2), 1e-10,
        )


def test_newton_minimize_exhausted_budget_raises():
    phi = quadratic(np.eye(2))
    with pytest.raises(NonConvergence):
        core.newton_minimize(phi.eval, phi.gateaux, phi.hessian, np.ones(2),
                             1e-10, max_iter=0)


def cosh_sum(c):
    """phi(x) = sum cosh(x_i - c_i), strictly convex and not quadratic."""
    return core.EllipticFunctional(
        eval=lambda x: float(np.sum(np.cosh(x - c))),
        gateaux=lambda x: np.sinh(x - c),
        hessian=lambda x: np.diag(np.cosh(x - c)),
    )


def test_eval_phi_E_exhausted_budget_raises():
    phi = cosh_sum(np.array([2.0, -1.0, 0.5]))
    E = core.LinearMapE(np.ones((1, 3)))
    with pytest.raises(NonConvergence):
        core.eval_phi_E(phi, E, np.zeros(1), max_iter=1)
    # with the default budget the reduced gradient vanishes: equal sinh
    x = core.eval_phi_E(phi, E, np.zeros(1))["argmin"]
    assert abs(x.sum()) < 1e-12
    assert np.ptp(phi.gateaux(x)) < 1e-10

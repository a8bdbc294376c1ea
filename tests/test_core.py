"""Generic prox stepper and property checks on small dense instances."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


@pytest.mark.parametrize("kwargs, name", [
    ({"tau": float("nan")}, "tau"),
    ({"tau": float("inf")}, "tau"),
    ({"tau": 0.1, "newton_tol": float("nan")}, "newton_tol"),
])
def test_prox_config_rejects_non_finite_tau_and_tolerance(kwargs, name):
    with pytest.raises(ValidationFailure, match=f"^{name} must be finite"):
        core.ProxConfig(n_steps=1, **kwargs)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_prox_config_rejects_nonpositive_tolerance(tol):
    with pytest.raises(ValueError, match="newton_tol must be positive"):
        core.ProxConfig(tau=0.1, n_steps=1, newton_tol=tol)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_prox_step_rejects_non_finite_tau(tau):
    with pytest.raises(ValidationFailure, match="^tau must be finite"):
        core.prox_step(quadratic(np.eye(2)), core.LinearMapE(np.eye(2)),
                       np.ones(2), np.zeros(2), tau)


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


def sparse_spd(n, rng, density=0.3):
    """Sparse SPD CSC matrix on a random symmetric pattern with a full diagonal."""
    A = sp.random(n, n, density=density, random_state=rng, format="csc")
    return (A @ A.T + n * sp.eye(n, format="csc")).tocsc()


def thin_map(rng, n=12, k=2):
    """Sparse E whose last k rows are dense: E^T E = sparse part + rank k."""
    lead = sp.random(n, n, density=0.15, random_state=rng, format="csr")
    thin = sp.csr_matrix(rng.standard_normal((k, n)))
    return sp.vstack([lead, thin]).tocsr()


def test_linear_map_thin_block_splits_the_gram():
    rng = np.random.default_rng(20)
    matrix = thin_map(rng)
    E = core.LinearMapE(matrix, k=2)
    assert E.k == 2 and core.LinearMapE(matrix).k == 0
    assert np.allclose(E.thin, matrix[-2:].toarray())
    split = E.lead_gram.toarray() + E.thin.T @ E.thin
    assert np.abs(split - E.gram.toarray()).max() < 1e-13
    for k in (-1, matrix.shape[0] + 1):
        with pytest.raises(ValueError):
            core.LinearMapE(matrix, k=k)


def test_add_lead_gram_keeps_the_pattern_that_holds_it():
    rng = np.random.default_rng(21)
    E = core.LinearMapE(thin_map(rng), k=2)
    G = E.lead_gram
    # H's pattern holds G's plus explicit zeros
    H = (sparse_spd(12, rng) + (G != 0).astype(float)).tocsc()
    H.sort_indices()
    H.data[::3] = 0.0
    for _ in range(2):  # found once, then reused
        S = E.add_lead_gram(H, 0.1)
        assert S.nnz == H.nnz and np.array_equal(S.indices, H.indices)
        assert np.abs((S - H - G / 0.1).toarray()).max() < 1e-12
    # a pattern without G's entries gets the plain sum
    D = sp.eye(12, format="csc")
    S = E.add_lead_gram(D, 0.1)
    assert np.abs((S - D - G / 0.1).toarray()).max() < 1e-12


def test_woodbury_direction_matches_factoring_the_full_matrix():
    rng = np.random.default_rng(22)
    E = core.LinearMapE(thin_map(rng), k=2)
    H = sparse_spd(12, rng)
    rhs = rng.standard_normal(12)
    tau = 0.05
    d = core._solve_newton_system(E.add_lead_gram(H, tau), rhs, (E.thin, tau))
    ref = np.linalg.solve((H + E.gram / tau).toarray(), rhs)
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


def test_dense_map_and_empty_thin_block_take_the_full_matrix_path():
    """k = 0, or a dense E with any k, factors hessian + E^T E / tau as is:
    bit for bit the plain Newton loop on that matrix."""
    rng = np.random.default_rng(23)
    n = 6
    dense = rng.standard_normal((4, n))
    x_prev = rng.standard_normal(n)
    f_k = rng.standard_normal(4)
    tau = 0.2
    quart = quartic(n)
    sparse_quart = core.EllipticFunctional(
        eval=quart.eval, gateaux=quart.gateaux,
        hessian=lambda x: sp.csc_matrix(quart.hessian(x)))

    def plain(phi, E):
        b = E.apply(x_prev) + tau * f_k
        metric = E.gram / tau

        def objective(x):
            mis = E.apply(x) - b
            return phi.eval(x) + 0.5 / tau * float(mis @ mis)

        def residual(x):
            return phi.gateaux(x) + E.apply_adjoint(E.apply(x) - b) / tau

        g_prev = residual(x_prev)
        return core.newton_minimize(
            objective, residual, lambda x: phi.hessian(x) + metric, x_prev,
            1e-12 * (1.0 + np.linalg.norm(g_prev)), g0=g_prev,
        )

    for phi, E, E0 in ((quart, core.LinearMapE(dense), core.LinearMapE(dense)),
                       (quart, core.LinearMapE(dense, k=2), core.LinearMapE(dense)),
                       (sparse_quart, core.LinearMapE(sp.csr_matrix(dense)),
                        core.LinearMapE(sp.csr_matrix(dense)))):
        x = core.prox_step(phi, E, x_prev, f_k, tau, newton_tol=1e-12)
        assert np.array_equal(x, plain(phi, E0))


class _FailingSplu:
    """Stands in for scipy.sparse.linalg: splu raises like SuperLU on a
    zero pivot, in symmetric mode only or always."""

    def __init__(self, always):
        self.always = always
        self.calls = []

    def splu(self, A, **kwargs):
        self.calls.append(kwargs)
        if self.always or kwargs.get("options", {}).get("SymmetricMode"):
            raise RuntimeError("Factor is exactly singular")
        return spla.splu(A, **kwargs)


def test_symmetric_factor_failure_falls_back_then_raises(monkeypatch):
    rng = np.random.default_rng(24)
    E = core.LinearMapE(thin_map(rng), k=2)
    H = E.add_lead_gram(sparse_spd(12, rng), 0.05)
    rhs = rng.standard_normal(12)
    d = core._solve_newton_system(H, rhs, (E.thin, 0.05))

    stub = _FailingSplu(always=False)
    monkeypatch.setattr(core, "spla", stub)
    d_fallback = core._solve_newton_system(H, rhs, (E.thin, 0.05))
    assert len(stub.calls) == 2 and stub.calls[1] == {}
    assert np.linalg.norm(d_fallback - d) <= 1e-12 * np.linalg.norm(d)

    monkeypatch.setattr(core, "spla", _FailingSplu(always=True))
    with pytest.raises(SingularStep, match="not solvable"):
        core._solve_newton_system(H, rhs, (E.thin, 0.05))


def smooth_core_problems():
    """(phi, E, x0, f) on a dense map and on a sparse map with a thin block,
    each driven by a smooth input."""
    rng = np.random.default_rng(30)
    n, t = 6, np.linspace(0.0, 1.0, 21)
    dense = (quartic(n), core.LinearMapE(rng.standard_normal((4, n))),
             rng.standard_normal(n), np.outer(np.sin(3.0 * t), np.ones(4)))
    c = rng.standard_normal(12)
    cosh = cosh_sum(c)
    sparse_cosh = core.EllipticFunctional(
        eval=cosh.eval, gateaux=cosh.gateaux,
        hessian=lambda x: sp.diags(np.cosh(x - c), format="csc"))
    thin = (sparse_cosh, core.LinearMapE(thin_map(rng), k=2), np.zeros(12),
            np.outer(np.cos(2.0 * t), rng.standard_normal(14)))
    return [dense, thin]


_UNPATCHED = (core.prox_step, core.newton_minimize, core._solve_newton_system)


def record_steps(monkeypatch):
    """Per prox step: its Newton start and its number of Newton solves."""
    steps = []
    real_step, real_newton, real_solve = _UNPATCHED

    def prox_step(*args, **kwargs):
        steps.append({"solves": 0})
        return real_step(*args, **kwargs)

    def newton_minimize(objective, gradient, hessian, x0, *args, **kwargs):
        steps[-1]["start"] = np.array(x0)
        return real_newton(objective, gradient, hessian, x0, *args, **kwargs)

    def solve(*args, **kwargs):
        steps[-1]["solves"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(core, "prox_step", prox_step)
    monkeypatch.setattr(core, "newton_minimize", newton_minimize)
    monkeypatch.setattr(core, "_solve_newton_system", solve)
    return steps


def last_state_run(phi, E, x0, f, cfg):
    """States of plain prox steps, each starting Newton at x_{k-1}."""
    fk = core.resolve_inputs(f, cfg.n_steps, E.dim_Z)
    states = [np.asarray(x0, dtype=float)]
    for k in range(1, cfg.n_steps + 1):
        states.append(core.prox_step(phi, E, states[-1], fk[k - 1], cfg.tau,
                                     newton_tol=cfg.newton_tol))
    return np.array(states)


def test_extrapolation_is_the_polynomial_through_the_last_four_states():
    t = np.arange(6.0)
    states = np.column_stack([t ** 3 - 2.0 * t, np.exp(t)])
    x = states[::-1]  # x[1] = x_4, x[2] = x_3, ... before step 5
    assert np.array_equal(core._extrapolate(states, 1), states[0])
    assert np.allclose(core._extrapolate(states, 2), 2.0 * x[4] - x[5])
    assert np.allclose(core._extrapolate(states, 3),
                       3.0 * x[3] - 3.0 * x[4] + x[5])
    cubic = core._extrapolate(states, 5)
    assert np.allclose(cubic, 4.0 * x[1] - 6.0 * x[2] + 4.0 * x[3] - x[4])
    assert cubic[0] == pytest.approx(5.0 ** 3 - 2.0 * 5.0)


@pytest.mark.parametrize("problem", range(2))
def test_extrapolated_start_agrees_with_last_state_start_and_saves_iterations(
        problem, monkeypatch):
    phi, E, x0, f = smooth_core_problems()[problem]
    cfg = core.ProxConfig(tau=0.05, n_steps=20, newton_tol=1e-12)
    steps = record_steps(monkeypatch)
    reference = last_state_run(phi, E, x0, f, cfg)
    n_reference = sum(s["solves"] for s in steps)
    steps.clear()
    traj = core.solve_trajectory(phi, E, x0, f, cfg)
    scale = 1.0 + np.abs(reference).max()
    assert np.abs(traj.states - reference).max() <= 1e-10 * scale
    assert np.abs(traj.rates - np.diff(reference @ E.matrix.T, axis=0)
                  / cfg.tau).max() <= 1e-10 * scale
    assert sum(s["solves"] for s in steps) < n_reference


def test_bad_prediction_falls_back_to_the_last_state(monkeypatch):
    """A sign-reversing input makes every extrapolation overshoot: the guard
    starts each step at x_{k-1}, so the run is the plain prox-step loop bit
    for bit, with the same Newton solves per step."""
    n = 3
    phi, E = quartic(n), core.LinearMapE(np.eye(n))
    f = np.outer([(-1.0) ** k for k in range(11)], 4.0 * np.ones(n))
    cfg = core.ProxConfig(tau=0.1, n_steps=10)
    steps = record_steps(monkeypatch)
    reference = last_state_run(phi, E, np.zeros(n), f, cfg)
    reference_solves = [s["solves"] for s in steps]
    steps.clear()
    traj = core.solve_trajectory(phi, E, np.zeros(n), f, cfg)
    for k in range(2, cfg.n_steps + 1):
        assert np.array_equal(steps[k - 1]["start"], traj.states[k - 1])
    assert [s["solves"] for s in steps] == reference_solves
    assert min(reference_solves) > 1
    assert np.array_equal(traj.states, reference)


def test_guarded_step_keeps_a_last_state_that_meets_the_tolerance():
    """x_prev within the tolerance is the step's answer, even when the
    prediction is the exact minimizer: no objective is evaluated."""
    phi, E, tau = quadratic(np.eye(2)), core.LinearMapE(np.eye(2)), 0.1
    x_prev = np.array([1.0, -2.0])
    f_k = x_prev + 1e-12  # residual at x_prev: 1.4e-12 < 1e-10
    exact = (x_prev / tau + f_k) / (1.0 + 1.0 / tau)
    calls = []
    counted = core.EllipticFunctional(
        eval=lambda x: calls.append(1) or phi.eval(x), gateaux=phi.gateaux,
        hessian=phi.hessian)
    x = core.prox_step(counted, E, x_prev, f_k, tau, x_start=exact, guard=True)
    assert np.array_equal(x, x_prev) and not calls
    unguarded = core.prox_step(phi, E, x_prev, f_k, tau, x_start=exact)
    assert np.array_equal(unguarded, exact)


def test_unknown_newton_start_raises():
    phi, E = quadratic(np.eye(2)), core.LinearMapE(np.eye(2))
    cfg = core.ProxConfig(tau=0.1, n_steps=2)
    with pytest.raises(ValueError, match="extrapolate, zero, got 'prev'"):
        core.solve_trajectory(phi, E, np.ones(2), None, cfg, start="prev")

"""Generic prox stepper and property checks on small dense instances."""

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mqsflow import core
from mqsflow.errors import NonConvergence, SingularStep, ValidationFailure


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


def gram(E):
    """E^T E, sparse iff E is."""
    return E.matrix.T @ E.matrix


def test_linear_map_adjoint_consistency():
    rng = np.random.default_rng(0)
    E = core.LinearMapE(rng.standard_normal((3, 5)))
    x = rng.standard_normal(5)
    z = rng.standard_normal(3)
    assert float(z @ E.apply(x)) == pytest.approx(
        float(E.apply_adjoint(z) @ x), rel=1e-12
    )


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
    assert np.array_equal(core.resolve_inputs(f, 3, 2), f[1:])
    assert np.all(core.resolve_inputs(None, 3, 2) == 0.0)
    with pytest.raises(ValidationFailure, match=r"input samples must have "
                       r"shape \(6, 2\), got \(4, 2\)"):
        core.resolve_inputs(f, 5, 2)


def test_prox_config_validation():
    with pytest.raises(ValidationFailure, match="^tau must be positive"):
        core.ProxConfig(tau=0.0, n_steps=1)
    with pytest.raises(ValidationFailure, match="^n_steps must be positive"):
        core.ProxConfig(tau=0.1, n_steps=0)
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


@pytest.mark.parametrize("kwargs, message", [
    ({"n_steps": 2.5}, "n_steps must be an integer, got 2.5"),
    ({"newton_max_iter": 2.5}, "newton_max_iter must be an integer, got 2.5"),
    ({"newton_max_iter": 0}, "newton_max_iter must be at least 1, got 0"),
])
def test_prox_config_checks_its_counts(kwargs, message):
    with pytest.raises(ValidationFailure, match=f"^{message}$"):
        core.ProxConfig(**{"tau": 0.1, "n_steps": 1, **kwargs})


def test_prox_config_accepts_numpy_integer_counts():
    cfg = core.ProxConfig(tau=0.1, n_steps=np.int64(3),
                          newton_max_iter=np.uint8(5))
    traj = core.solve_trajectory(quadratic(np.eye(2)), core.LinearMapE(
        np.eye(2)), np.ones(2), None, cfg)
    assert traj.n_steps == 3


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_prox_config_rejects_nonpositive_tolerance(tol):
    with pytest.raises(ValidationFailure, match="newton_tol must be positive"):
        core.ProxConfig(tau=0.1, n_steps=1, newton_tol=tol)


def test_prox_config_rejects_a_tolerance_below_the_rounding_floor():
    with pytest.raises(ValidationFailure,
                       match="^newton_tol must be at least 1e-14, .*got 1e-16$"):
        core.ProxConfig(tau=0.05, n_steps=1, newton_tol=1e-16)
    cfg = core.ProxConfig(tau=0.05, n_steps=1, newton_tol=1e-14)
    assert cfg.newton_tol == core.MIN_NEWTON_TOL
    for phi, E, x0, f in smooth_core_problems():
        assert core.solve_trajectory(phi, E, x0, f[:2], cfg).n_steps == 1


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -0.1])
def test_prox_step_rejects_non_finite_tau(tau):
    reason = "finite" if not np.isfinite(tau) else "positive"
    with pytest.raises(ValidationFailure, match=f"^tau must be {reason}"):
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
    with pytest.raises(ValidationFailure):
        core.eval_phi_E(phi, E, np.array([1.0, 0.0, 0.0, 1.0]))


def test_eval_phi_E_dimension_limit():
    n = 70
    phi = quadratic(np.eye(n))
    E = core.LinearMapE(np.eye(n))
    with pytest.raises(ValidationFailure):
        core.eval_phi_E(phi, E, np.zeros(n))


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
    assert str(exc_info.value).startswith("step 1: ")


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
    U = matrix[-2:].toarray()
    split = E.lead_gram.toarray() + U.T @ U
    assert np.abs(split - gram(E).toarray()).max() < 1e-13
    for k in (-1, matrix.shape[0] + 1):
        with pytest.raises(ValidationFailure,
                           match=f"^thin block of {k} rows in a map with 14$"):
            core.LinearMapE(matrix, k=k)


def constant_block(E, tau):
    """C = [[E_1^T E_1 / tau, U^T], [U, -tau I_k]] for the thin block U."""
    U = E.matrix[E.dim_Z - E.k:]
    return sp.bmat([[E.lead_gram / tau, U.T],
                    [U, -tau * sp.identity(E.k)]], format="csc")


def test_newton_system_adds_the_lead_gram_on_the_pattern_that_holds_it(
        monkeypatch):
    """The pattern of K = [[H, 0], [0, 0]] + C is found once per pattern
    of H: H's own in the leading block where it holds E_1^T E_1's entries
    (explicit zeros too), the union where it does not.  Either way the
    first factor is that sum and the next its symmetric permutation by the
    first one's perm_c."""
    rng = np.random.default_rng(21)
    E = core.LinearMapE(thin_map(rng), k=2)
    G, tau = E.lead_gram, 0.1
    C = constant_block(E, tau)
    H = (sparse_spd(12, rng) + (G != 0).astype(float)).tocsc()
    H.sort_indices()
    H.data[::3] = 0.0
    D = sp.eye(12, format="csc")  # a pattern without G's entries
    rhs = rng.standard_normal(12)
    stub = _RecordingSplu()
    monkeypatch.setattr(core, "spla", stub)
    searches = []
    real_keys = core._csc_keys

    def counted(A, n_rows):
        searches.append(A.nnz)
        return real_keys(A, n_rows)

    monkeypatch.setattr(core, "_csc_keys", counted)
    newton = core.NewtonSystem(E, tau)
    for M in (H, D):
        ref = np.linalg.solve(M.toarray() + gram(E).toarray() / tau, rhs)
        for _ in range(2):  # found once, then reused
            d = newton.solve(M, rhs)
            assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
        first, second = stub.matrices[-2:]
        padded = sp.block_diag([M, sp.csc_matrix((2, 2))])
        assert np.abs((first - padded - C).toarray()).max() < 1e-12
        perm = stub.factors[-2].perm_c
        assert np.array_equal(second.toarray()[np.ix_(perm, perm)],
                              first.toarray())
    assert searches == [H.nnz, C.nnz, D.nnz, C.nnz]
    lead = stub.matrices[0][:12, :12]
    assert np.array_equal(lead.indptr, H.indptr)
    assert np.array_equal(lead.indices, H.indices)
    assert stub.matrices[0].nnz == H.nnz + C.nnz - G.nnz
    assert stub.matrices[2][:12, :12].nnz > D.nnz
    assert [c["permc_spec"] for c in stub.calls] == [
        "MMD_AT_PLUS_A", "NATURAL", "MMD_AT_PLUS_A", "NATURAL"]


def _coo_pattern(keys, n):
    """Oracle of _csc_pattern: the pattern by COO and the slots by a search
    in its sorted keys, with the key n * n left out at slot nnz."""
    kept = keys < n * n
    P = sp.csc_matrix((np.ones(kept.sum()), (keys[kept] % n, keys[kept] // n)),
                      shape=(n, n))
    return P, np.where(kept, np.searchsorted(core._csc_keys(P, n), keys),
                       P.nnz)


@pytest.mark.parametrize("keys", [
    [5, 0, 5, 16, 3, 16, 15, 0, 9],  # duplicates and the left-out key
    np.random.default_rng(23).integers(0, 17, 200),
    [],
    [16, 16, 16],
], ids=["duplicates", "random", "empty", "all_left_out"])
def test_csc_pattern_matches_the_coo_and_search_oracle(keys):
    n = 4
    keys = np.asarray(keys, dtype=np.int64)
    P, slots = core._csc_pattern(keys, n)
    want, want_slots = _coo_pattern(keys, n)
    assert P.format == "csc" and P.shape == (n, n)
    assert P.indices.dtype == np.int32 and P.has_canonical_format
    assert np.array_equal(P.indptr, want.indptr)
    assert np.array_equal(P.indices, want.indices)
    assert not P.data.any()
    assert np.array_equal(slots, want_slots)
    assert np.all(slots[keys == n * n] == P.nnz)
    if not np.any(keys < n * n):
        assert P.nnz == 0 and np.all(slots == 0)


def test_newton_system_patterns_match_the_union_and_rank_oracle(monkeypatch):
    """K on the union of H's and C's keys, found by np.union1d and
    searchsorted, and A = P^T K P with each entry at the rank
    argsort(argsort) of its moved key."""
    rng = np.random.default_rng(22)
    E = core.LinearMapE(thin_map(rng), k=2)
    H = sparse_spd(12, rng)
    H.sum_duplicates()
    stub = _RecordingSplu()
    monkeypatch.setattr(core, "spla", stub)
    newton = core.NewtonSystem(E, 0.1)
    newton.solve(H, rng.standard_normal(12))
    C = newton._block[1]
    N = C.shape[0]
    both = [core._csc_keys(H, N), core._csc_keys(C, N)]
    keys = np.union1d(*both)
    h_slots, c_slots = (np.searchsorted(keys, k) for k in both)
    K = sp.csc_matrix((np.zeros(keys.size), (keys % N, keys // N)),
                      shape=(N, N))
    K.data[h_slots] = H.data
    K.data[c_slots] += C.data
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(stub.matrices[0], name),
                              getattr(K, name)), name

    perm = stub.factors[0].perm_c.astype(np.int64)
    moved = perm[keys // N] * N + perm[keys % N]
    lands = np.argsort(np.argsort(moved))
    A = sp.csc_matrix((np.zeros(keys.size), (moved % N, moved // N)),
                      shape=(N, N))
    got, h_lands, c_lands, got_perm, inverse = newton._pattern[2:]
    assert np.array_equal(got.indptr, A.indptr)
    assert np.array_equal(got.indices, A.indices)
    assert np.array_equal(h_lands, lands[h_slots])
    assert np.array_equal(c_lands, lands[c_slots])
    assert np.array_equal(got_perm, perm)
    assert np.array_equal(inverse, np.argsort(perm))


def test_quasi_definite_direction_matches_factoring_the_full_matrix():
    rng = np.random.default_rng(22)
    E = core.LinearMapE(thin_map(rng), k=2)
    H = sparse_spd(12, rng)
    rhs = rng.standard_normal(12)
    tau = 0.05
    d = core._solve_newton_system(H, rhs, core.NewtonSystem(E, tau))
    ref = np.linalg.solve((H + gram(E) / tau).toarray(), rhs)
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


def test_prox_step_rejects_a_newton_system_of_another_map_or_step():
    rng = np.random.default_rng(26)
    E = core.LinearMapE(thin_map(rng), k=2)
    other = core.LinearMapE(thin_map(rng), k=2)
    phi = quadratic(sparse_spd(12, rng))
    x_prev, f_k = rng.standard_normal(12), rng.standard_normal(14)
    for newton in (core.NewtonSystem(other, 0.05),
                   core.NewtonSystem(E, 0.1)):
        with pytest.raises(ValidationFailure, match="another E or tau"):
            core.prox_step(phi, E, x_prev, f_k, 0.05, newton_system=newton)
    x = core.prox_step(phi, E, x_prev, f_k, 0.05,
                       newton_system=core.NewtonSystem(E, 0.05))
    assert np.array_equal(x, core.prox_step(phi, E, x_prev, f_k, 0.05))


def test_dense_map_and_empty_thin_block_match_the_plain_newton_loop():
    """k = 0, or a dense E with any k, goes through the NewtonSystem too:
    within 1e-12 of the plain Newton loop on hessian + E^T E / tau."""
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
        metric = gram(E) / tau

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
        ref = plain(phi, E0)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dense_hessian_on_a_sparse_thin_block_map():
    """A hessian returning an ndarray, with a sparse E whose last two rows
    are a thin block: the prox step is the dense normal-equations solve."""
    rng = np.random.default_rng(27)
    n, tau = 6, 0.2
    Q, b = random_spd(n, rng), rng.standard_normal(n)
    dense = rng.standard_normal((4, n))
    E = core.LinearMapE(sp.csr_matrix(dense), k=2)
    x_prev, f_k = rng.standard_normal(n), rng.standard_normal(4)
    x = core.prox_step(quadratic(Q, b), E, x_prev, f_k, tau, newton_tol=1e-13)
    rhs = b + dense.T @ (dense @ x_prev + tau * f_k) / tau
    ref = np.linalg.solve(Q + dense.T @ dense / tau, rhs)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


class _RecordingSplu:
    """Stands in for scipy.sparse.linalg: records each splu's keywords, a
    copy of the matrix it factors, and the factor."""

    def __init__(self):
        self.calls, self.matrices, self.factors = [], [], []

    def splu(self, A, **kwargs):
        self.calls.append(kwargs)
        self.matrices.append(A.copy())
        self.factors.append(spla.splu(A, **kwargs))
        return self.factors[-1]


class _FailingSplu(_RecordingSplu):
    """Records like _RecordingSplu, and splu raises like SuperLU on a zero
    pivot, in symmetric mode only or always."""

    def __init__(self, always):
        super().__init__()
        self.always = always

    def splu(self, A, **kwargs):
        if self.always or kwargs.get("options", {}).get("SymmetricMode"):
            self.calls.append(kwargs)
            raise RuntimeError("Factor is exactly singular")
        return super().splu(A, **kwargs)


def test_symmetric_factor_failure_falls_back_then_raises(monkeypatch):
    rng = np.random.default_rng(24)
    E = core.LinearMapE(thin_map(rng), k=2)
    H = sparse_spd(12, rng)
    rhs = rng.standard_normal(12)
    d = core._solve_newton_system(H, rhs, core.NewtonSystem(E, 0.05))

    stub = _FailingSplu(always=False)
    monkeypatch.setattr(core, "spla", stub)
    newton = core.NewtonSystem(E, 0.05)
    d_fallback = core._solve_newton_system(H, rhs, newton)
    assert len(stub.calls) == 2 and stub.calls[1] == {}
    assert np.linalg.norm(d_fallback - d) <= 1e-12 * np.linalg.norm(d)
    # the fallback's column order is kept for the next system on the pattern
    d_fallback = core._solve_newton_system(H, rhs, newton)
    assert [c.get("permc_spec") for c in stub.calls[2:]] == ["NATURAL", None]
    assert np.linalg.norm(d_fallback - d) <= 1e-12 * np.linalg.norm(d)

    # a zero pivot in the natural-order factor of a kept ordering
    newton = core.NewtonSystem(E, 0.05)
    monkeypatch.setattr(core, "spla", spla)
    core._solve_newton_system(H, rhs, newton)
    stub = _FailingSplu(always=False)
    monkeypatch.setattr(core, "spla", stub)
    d_fallback = core._solve_newton_system(H, rhs, newton)
    assert len(stub.calls) == 2 and stub.calls[1] == {}
    assert stub.calls[0]["permc_spec"] == "NATURAL"
    assert np.linalg.norm(d_fallback - d) <= 1e-12 * np.linalg.norm(d)

    monkeypatch.setattr(core, "spla", _FailingSplu(always=True))
    with pytest.raises(SingularStep, match="not solvable"):
        core._solve_newton_system(H, rhs, core.NewtonSystem(E, 0.05))


def test_a_kept_ordering_orders_each_new_pattern_afresh(monkeypatch):
    """Factors on a kept pattern are in natural order, a changed pattern
    gets a fresh MMD ordering, and every direction is the dense one."""
    rng = np.random.default_rng(25)
    E = core.LinearMapE(thin_map(rng), k=2)
    tau = 0.05
    first = sparse_spd(12, rng)
    second = sparse_spd(12, rng, density=0.5)
    assert first.nnz != second.nnz
    # in the order A @ A.T leaves them: each solve sorts a copy
    assert not (first.has_sorted_indices or second.has_sorted_indices)
    rhs = rng.standard_normal(12)
    stub = _RecordingSplu()
    monkeypatch.setattr(core, "spla", stub)
    newton = core.NewtonSystem(E, tau)
    for H in (first, first, second, 2.0 * second, first):
        d = core._solve_newton_system(H, rhs, newton)
        ref = np.linalg.solve((H + gram(E) / tau).toarray(), rhs)
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
    assert [c["permc_spec"] for c in stub.calls] == [
        "MMD_AT_PLUS_A", "NATURAL", "MMD_AT_PLUS_A", "NATURAL",
        "MMD_AT_PLUS_A"]
    assert not (first.has_sorted_indices or second.has_sorted_indices)


def lagged_problem(seed, n=core.PCG_MIN_DIM + 100, tau=0.1):
    """A sparse E with a two-row thin block, a sparse SPD hessian, a
    right-hand side and a NewtonSystem, at n unknowns."""
    rng = np.random.default_rng(seed)
    lead = sp.random(n, n, density=3.0 / n, random_state=rng, format="csr")
    E = core.LinearMapE(sp.vstack([lead, sp.csr_matrix(
        rng.standard_normal((2, n)))]).tocsr(), k=2)
    H = sparse_spd(n, rng, density=3.0 / n)
    return E, H, rng.standard_normal(n), core.NewtonSystem(E, tau)


def dense_direction(E, tau, H, rhs):
    return np.linalg.solve((H + gram(E) / tau).toarray(), rhs)


def test_a_run_of_equal_newton_matrices_factors_once(monkeypatch):
    """Above the cutoff, after the ordering factor, one natural-order
    factor serves every later equal system: PCG preconditioned by that
    exact factor converges in one iteration."""
    E, H, rhs, newton = lagged_problem(40)
    stub = _RecordingSplu()
    monkeypatch.setattr(core, "spla", stub)
    ref = dense_direction(E, newton.tau, H, rhs)
    for _ in range(6):
        d = newton.solve(H, rhs)
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
    assert [c["permc_spec"] for c in stub.calls] == ["MMD_AT_PLUS_A",
                                                     "NATURAL"]
    assert (newton.factors, newton.pcg_systems, newton.cg_iters) == (2, 4, 4)


def nearby_system(spread):
    """lagged_problem(44) with a kept factor of its H, and a matrix within
    ``spread`` of H (H rescaled symmetrically by a random diagonal)."""
    E, H, rhs, newton = lagged_problem(44)
    for _ in range(2):
        newton.solve(H, rhs)
    scale = sp.diags(np.random.default_rng(45).uniform(
        1.0 - spread, 1.0 + spread, H.shape[0]))
    return E, (scale @ H @ scale).tocsc(), rhs, newton


def test_a_nearby_matrix_is_solved_by_pcg_to_the_tolerance():
    """A matrix within 2 % of the factored one takes a few CG iterations on
    the kept factor, and its residual is within 1e-10 of the rhs.  One
    within 5 % needs more than PCG_MAX_ITER of them, so it is refactored,
    and its direction is the exact one."""
    for spread, counts in ((0.02, (2, 1)), (0.05, (3, 0))):
        E, nearby, rhs, newton = nearby_system(spread)
        d = newton.solve(nearby, rhs)
        M = (nearby + gram(E) / newton.tau).toarray()
        assert np.linalg.norm(M @ d - rhs) <= 1e-10 * np.linalg.norm(rhs)
        assert (newton.factors, newton.pcg_systems) == counts
        assert 1 < newton.cg_iters <= core.PCG_MAX_ITER
    ref = dense_direction(E, newton.tau, nearby, rhs)
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


def test_a_newton_tolerance_stops_pcg_at_a_tenth_of_it():
    """Given Newton's tolerance tol, PCG stops once the Newton-matrix
    residual is at most tol / 10, in fewer iterations than to 1e-10 of the
    rhs.  At tol = 1e-5 ||rhs|| the third iterate's residual lies between
    tol / 10 and tol, so a stop at tol itself would miss tol / 10."""
    iters = []
    for rel in (None, 1e-5):
        E, nearby, rhs, newton = nearby_system(0.02)
        before = newton.cg_iters
        tol = None if rel is None else rel * np.linalg.norm(rhs)
        d = core._solve_newton_system(nearby, rhs, newton, tol)
        M = (nearby + gram(E) / newton.tau).toarray()
        bound = 1e-10 * np.linalg.norm(rhs) if rel is None else tol / 10
        assert np.linalg.norm(M @ d - rhs) <= bound
        assert (newton.factors, newton.pcg_systems) == (2, 1)
        iters.append(newton.cg_iters - before)
    assert iters[1] < iters[0] <= core.PCG_MAX_ITER


def test_pcg_bounds_the_newton_residual_under_a_strong_thin_block():
    """With ||U|| / tau >= 1e4 a small residual r = (r_1, r_2) of K can
    hide a large one of the Newton matrix, r_1 + U^T r_2 / tau.  PCG
    accepts on the latter, which is the dense Newton-matrix residual for
    any [d; mu], so its direction meets 1e-10 ||rhs|| against that matrix."""
    E, H, rhs, newton = lagged_problem(46, tau=1e-3)
    U = E.matrix[-2:].toarray()
    assert np.linalg.norm(U, 2) / newton.tau >= 1e4
    for _ in range(2):
        newton.solve(H, rhs)
    rng = np.random.default_rng(47)
    A, _, _, _, inverse = newton._pattern[2:]
    d, mu = rng.standard_normal(H.shape[0]), rng.standard_normal(2)
    r = np.r_[rhs, 0.0, 0.0].take(inverse) - A @ np.r_[d, mu].take(inverse)
    M = (H + gram(E) / newton.tau).toarray()
    expected = np.linalg.norm(rhs - M @ d)
    assert abs(newton._newton_residual(r) - expected) <= 1e-12 * expected
    wide, narrow = (sp.diags(rng.uniform(1.0 - w, 1.0 + w, H.shape[0]))
                    for w in (0.05, 0.02))
    # within 2 % PCG solves it; within 5 % it is refactored
    for scale, counts in ((narrow, (2, 1)), (wide, (3, 1))):
        nearby = (scale @ H @ scale).tocsc()
        d = newton.solve(nearby, rhs)
        M = (nearby + gram(E) / newton.tau).toarray()
        assert np.linalg.norm(M @ d - rhs) <= 1e-10 * np.linalg.norm(rhs)
        assert (newton.factors, newton.pcg_systems) == counts


def test_a_sudden_change_refactors_after_dropping_the_kept_factor(
        monkeypatch):
    """A matrix the kept factor no longer preconditions within the budget
    is refactored, the kept factor dropped first, and solved directly."""
    E, H, rhs, newton = lagged_problem(41)
    for _ in range(3):
        newton.solve(H, rhs)
    assert (newton.factors, newton.pcg_systems) == (2, 1)
    scale = sp.diags(np.random.default_rng(42).uniform(1.0, 100.0, H.shape[0]))
    changed = (scale @ H @ scale).tocsc()
    changed.sort_indices()
    kept_at_factor = []

    class Spla:
        def splu(self, A, **kwargs):
            kept_at_factor.append(newton._lagged)
            return spla.splu(A, **kwargs)

    monkeypatch.setattr(core, "spla", Spla())
    d = newton.solve(changed, rhs)
    ref = dense_direction(E, newton.tau, changed, rhs)
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
    assert kept_at_factor == [None]
    assert (newton.factors, newton.pcg_systems, newton.cg_iters) == (
        3, 1, 1 + core.PCG_MAX_ITER)
    newton.solve(changed, rhs)  # the new factor serves the next system
    assert (newton.factors, newton.pcg_systems) == (3, 2)


def test_a_newton_matrix_not_positive_definite_raises_above_the_cutoff():
    """CG breaks down on p^T A p <= 0, the system is refactored, and the
    direction is no descent direction: SingularStep, as on a fresh
    NewtonSystem, which solves directly."""
    E, H, rhs, newton = lagged_problem(43)
    for _ in range(2):
        newton.solve(H, rhs)
    concave = -100.0 * H
    M = concave + gram(E) / newton.tau
    assert np.linalg.eigvalsh(M.toarray()).max() < 0.0
    x0 = np.ones(H.shape[0])
    for ns, pcg in ((core.NewtonSystem(E, newton.tau), False),
                    (newton, True)):
        with pytest.raises(SingularStep, match="not a descent direction"):
            core.newton_minimize(lambda x: 0.5 * float(x @ (M @ x) - rhs @ x),
                                 lambda x: M @ x - rhs, lambda x: concave,
                                 x0, 1e-10, newton_system=ns)
        assert (ns._lagged is not None) == pcg
    assert (newton.factors, newton.pcg_systems, newton.cg_iters) == (3, 0, 1)


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


def test_every_newton_system_of_a_trajectory_goes_through_a_newton_system(
        monkeypatch):
    """A dense map, a sparse map with no thin block and one with a thin
    block: solve_trajectory passes its NewtonSystem to every solve."""
    dense, thin = smooth_core_problems()
    phi, E, x0, f = dense
    no_thin_block = (phi, core.LinearMapE(sp.csr_matrix(E.matrix)), x0, f)
    seen, real_solve = [], core._solve_newton_system

    def solve(H, rhs, newton_system=None, tol=None):
        seen.append(newton_system)
        return real_solve(H, rhs, newton_system, tol)

    monkeypatch.setattr(core, "_solve_newton_system", solve)
    cfg = core.ProxConfig(tau=0.05, n_steps=20)
    for phi, E, x0, f in (dense, no_thin_block, thin):
        seen.clear()
        core.solve_trajectory(phi, E, x0, f, cfg)
        assert len(seen) >= cfg.n_steps
        assert all(isinstance(ns, core.NewtonSystem) and ns.E is E
                   for ns in seen)
        assert len({id(ns) for ns in seen}) == 1


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

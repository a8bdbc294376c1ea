"""Coupled field-circuit system: operators, solve paths, and probes."""

import functools
import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mqsflow import cli, core, diagnostics, fem, material, system
from mqsflow.errors import (
    NonConvergence, SingularStep, StepFailure, ValidationFailure,
)


@pytest.fixture(scope="module")
def default_small():
    cfg = system.MQSConfig(n=16, tau=1.0 / 16.0)
    ops, phi, E = system.build_system(cfg)
    return cfg, ops, phi, E


def test_build_system_defaults(default_small):
    _, ops, _, E = default_small
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


def test_metric_factor_lead_rows_equal_a_coo_build():
    """E_1's rows of E are the COO triplet build of the element factors,
    on a dof numbering derived here from the boundary flags."""
    ops, _, E = system.build_system(system.MQSConfig(n=16, sigma_C=2.5))
    mesh = ops.mesh
    interior = ~mesh.boundary_vertex_flags
    element_dofs = np.where(interior, np.cumsum(interior) - 1,
                            -1)[mesh.triangles]
    areas, _ = mesh.geometry
    c_elems = np.flatnonzero(mesh.element_labels == fem.LABEL_C)
    blocks = (np.sqrt(2.5 * areas[c_elems])[:, None, None]
              * np.linalg.cholesky(fem._LOCAL_MASS).T)
    rows, cols = np.broadcast_arrays(
        np.arange(3 * c_elems.size).reshape(-1, 3, 1),
        element_dofs[c_elems][:, None, :])
    keep = (cols >= 0) & (blocks != 0.0)
    E1 = sp.csr_matrix((blocks[keep], (rows[keep], cols[keep])),
                       shape=(3 * c_elems.size, mesh.n_dofs))
    lead = E.matrix[:E.dim_Z - E.k]
    assert E1.nnz > 0 and lead.shape == E1.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(lead, name), getattr(E1, name)), name


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
    cfg, ops, _, _ = default_small
    from dataclasses import replace

    quiet = replace(
        cfg, voltage=system.VoltageSignal("constant", np.array([0.0]))
    )
    traj = system.solve(quiet, ops)
    assert np.all(traj.fields == 0.0)
    assert np.all(traj.currents[1:] == 0.0)
    assert np.all(traj.energies == 0.0)


def test_zero_winding_decouples_circuit():
    winding = fem.WindingSpec(rectangles=(((0.1, 0.2, 0.4, 0.6, 0.0),),))
    cfg = system.MQSConfig(n=8, tau=1.0 / 8.0, winding=winding)
    ops = system.build_system(cfg)[0]
    assert np.all(ops.coupling == 0.0)
    traj = system.solve(cfg, ops)
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
    ops = system.build_system(cfg)[0]
    x = system.initial_field(replace(cfg, a0_kind="random", seed=3), ops)
    path = tmp_path / "a0.npy"
    np.save(path, x)
    from_file = system.solve(
        replace(cfg, a0_kind="file", a0_path=str(path)), ops
    )
    in_memory = system.solve(cfg, ops, a0=x)
    assert np.array_equal(from_file.fields, in_memory.fields)
    assert np.array_equal(from_file.currents[1:], in_memory.currents[1:])


def test_solve_rejects_wrong_shape_initial_field():
    cfg = system.MQSConfig(n=8, T=0.25, tau=1.0 / 16.0)
    ops = system.build_system(cfg)[0]
    with pytest.raises(ValidationFailure, match="shape"):
        system.solve(cfg, ops, a0=np.zeros(ops.n_dofs + 1))

def test_solve_on_given_operators_matches_solve_from_config():
    cfg = system.MQSConfig(n=8, T=0.25, tau=1.0 / 16.0)
    given = system.solve(cfg, system.build_system(cfg)[0])
    built = system.solve(cfg)
    for name in ("fields", "currents", "fluxes", "energies",
                 "balance_residuals"):
        np.testing.assert_array_equal(getattr(given, name),
                                      getattr(built, name), err_msg=name)


def test_operators_are_freed_without_the_cycle_collector():
    """ops.phi is built per access, so ops holds no reference to itself,
    and the field points a solve leaves on the mesh go with the mesh."""
    cfg = system.MQSConfig(n=8, T=4.0 / 64.0)
    gc.disable()
    try:
        ops = system.build_system(cfg)[0]
        assert ops.phi.eval(np.zeros(ops.n_dofs)) == 0.0
        system.solve(cfg, ops)
        refs = weakref.ref(ops), weakref.ref(ops.mesh)
        del ops
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_solve_shares_element_passes_between_energy_K_and_tangent(
        monkeypatch):
    """At most two element passes per Newton system, one per step for its
    extrapolated start, and one for the initial state."""
    cfg = system.MQSConfig(n=8)
    ops = system.build_system(cfg)[0]
    passes = _count_calls(monkeypatch, fem, "_element_state")
    newton_systems = _count_calls(monkeypatch, core, "_solve_newton_system")
    system.solve(cfg, ops)
    assert 0 < len(newton_systems)
    assert len(passes) <= 2 * len(newton_systems) + cfg.n_steps + 1


def test_a_solve_is_bit_identical_without_shared_passes(monkeypatch):
    cfg = system.MQSConfig(n=16)
    ops = system.build_system(cfg)[0]
    shared = system.solve(cfg, ops)
    monkeypatch.setattr(
        fem, "_field_point",
        lambda mesh, model, a: fem._FieldPoint(
            mesh, model, np.asarray(a, dtype=float)))
    unshared = system.solve(cfg, ops)
    for name in ("fields", "currents", "energies"):
        assert np.array_equal(getattr(shared, name), getattr(unshared, name),
                              equal_nan=True), name


def test_L_C_is_computed_once_on_first_read(monkeypatch):
    calls = _count_calls(monkeypatch, fem, "estimate_coercivity_constant")
    ops = system.build_system(system.MQSConfig(n=8))[0]
    assert calls == []
    values = {ops.L_C for _ in range(3)}
    assert ops.coercivity_constant > 0
    assert len(calls) == 1
    assert values == {fem.estimate_coercivity_constant(
        ops.mass_C, ops.stiffness, ops.mass)}


def test_unreadable_initial_field_file_is_a_validation_failure(tmp_path):
    cfg = system.MQSConfig(n=8)
    ops = system.build_system(cfg)[0]
    garbage = tmp_path / "a0.npy"
    garbage.write_bytes(b"not an array\n" * 8)
    archive = tmp_path / "a0.npz"
    np.savez(archive, a0=np.zeros(ops.n_dofs))
    for path in (garbage, archive, tmp_path):
        with pytest.raises(ValidationFailure, match=str(path)):
            system.initial_field(
                replace(cfg, a0_kind="file", a0_path=str(path)), ops)
    with pytest.raises(FileNotFoundError):
        system.initial_field(
            replace(cfg, a0_kind="file", a0_path=str(tmp_path / "no.npy")),
            ops)


def test_config_rejects_negative_seed_and_bad_newton_settings():
    with pytest.raises(ValidationFailure, match="seed"):
        system.MQSConfig(n=8, seed=-1)
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValidationFailure, match="newton_tol"):
            system.MQSConfig(n=8, newton_tol=tol)
    # below the prox gradient's rounding floor Newton could never stop
    for tol in (1e-15, 1e-16, 1e-17):
        with pytest.raises(ValidationFailure,
                           match="newton_tol must be at least 1e-14"):
            system.MQSConfig(n=8, newton_tol=tol)
    assert system.MQSConfig(n=8, newton_tol=1e-14).newton_tol == 1e-14
    with pytest.raises(ValidationFailure, match="newton_max_iter"):
        system.MQSConfig(n=8, newton_max_iter=0)
    assert system.MQSConfig(n=8, seed=0, newton_max_iter=1).seed == 0


@pytest.mark.parametrize("field, value", [
    ("T", float("inf")), ("tau", float("nan")),
    ("conductor_center", (float("nan"), 0.5)),
    ("conductor_radius", float("nan")), ("sigma_C", float("inf")),
    ("R", np.array([[float("nan")]])),
])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValidationFailure, match=f"{field} must be finite"):
        system.MQSConfig(n=8, **{field: value})


def test_signals_windings_and_materials_reject_non_finite_numbers():
    nan = float("nan")
    with pytest.raises(ValidationFailure, match="voltage value"):
        system.VoltageSignal("step", np.array([nan]))
    with pytest.raises(ValidationFailure, match="voltage table"):
        system.VoltageSignal("table", table=np.array([[0.0, 0.0], [1.0, np.inf]]))
    with pytest.raises(ValidationFailure, match="winding w2"):
        fem.WindingSpec(rectangles=(((0.1, 0.2, 0.4, 0.6, 1.0),),
                                    ((0.1, 0.2, 0.4, nan, 1.0),)))
    for make, key in ((lambda: material.constant_model(np.inf), "nu0"),
                      (lambda: material.rational_saturation_model(nan, 5.0),
                       "nu_min"),
                      (lambda: material.tabulated_model([[0.0, 1.0], [1.0, nan]]),
                       "table")):
        with pytest.raises(ValidationFailure, match=f"reluctivity {key}"):
            make()


def test_config_enforces_desk_scale_caps():
    with pytest.raises(ValidationFailure, match="n must be at most 256"):
        system.MQSConfig(n=257)
    with pytest.raises(ValidationFailure, match="cap of 100000"):
        system.MQSConfig(n=8, T=2.0, tau=1e-5)
    with pytest.raises(ValidationFailure, match="newton_tol"):
        system.MQSConfig(n=8, newton_tol=2e-3)
    with pytest.raises(ValidationFailure, match="T and tau must be positive"):
        system.MQSConfig(n=8, tau=0.0)
    with pytest.raises(ValidationFailure,
                       match=r"65025 dofs \* 100000 steps exceeds the cap"):
        system.MQSConfig(n=256, T=1.0, tau=1e-5, newton_tol=1e-3)
    assert system.MQSConfig(n=256).n_steps == 64


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


@pytest.mark.parametrize("kind", ["constant", "step", "table"])
@pytest.mark.parametrize("m", [1, 3])
def test_voltage_signal_on_a_time_grid_equals_its_scalar_calls(kind, m):
    """One call on an array of times returns (len(t), m), bit for bit the
    rows of the scalar calls, below 0, at 0 and past the last table row."""
    amp = np.array([1.5, -2.0, 0.25])[:m]
    if kind == "table":
        ts = np.array([0.0, 0.25, 0.5])
        signal = system.VoltageSignal(
            kind, table=np.column_stack([ts, np.outer(ts - 0.1, amp)]))
    else:
        signal = system.VoltageSignal(kind, amp)
    times = np.array([-0.5, -0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 2.0])
    grid = signal(times)
    rows = np.array([signal(t) for t in times])
    assert grid.shape == rows.shape == (times.size, m)
    assert grid.tobytes() == rows.tobytes()
    assert signal(0.3).shape == (m,)


def test_voltage_table_times_must_increase():
    for times in ((0.0, 0.5, 0.25), (0.0, 0.5, 0.5)):
        table = np.column_stack([times, [0.0, 1.0, 2.0]])
        with pytest.raises(ValidationFailure, match="strictly increasing"):
            system.VoltageSignal("table", table=table)


@pytest.mark.parametrize("make, fragment", [
    (lambda: system.VoltageSignal("ramp", np.array([1.0])),
     "voltage kind must be one of constant, step, table, got 'ramp'"),
    (lambda: system.VoltageSignal("step"),
     "voltage value is required for kind 'step'"),
    (lambda: system.VoltageSignal("constant", table=np.ones((2, 2))),
     "voltage value is required for kind 'constant'"),
    (lambda: system.VoltageSignal("table", np.array([1.0])),
     "voltage table is required for kind 'table'"),
    (lambda: system.MQSConfig(
        n=8, voltage=system.VoltageSignal("step", np.ones(2))),
     "voltage has 2 channels but there are 1 windings"),
    (lambda: system.MQSConfig(
        n=8, winding=THREE_WINDINGS, R=np.eye(3),
        voltage=system.VoltageSignal("table", table=np.array([[0.0, 0.0],
                                                              [1.0, 1.0]]))),
     "voltage has 1 channels but there are 3 windings"),
    (lambda: system.VoltageSignal("table", table=np.array([0.0, 1.0])),
     "voltage table must be 2-D with at least one row, a time column and a "
     "voltage column, got shape (2,)"),
    (lambda: system.VoltageSignal("table", table=np.array([[0.0], [1.0]])),
     "voltage table must be 2-D"),
    (lambda: system.VoltageSignal("table", table=np.empty((0, 2))),
     "voltage table must be 2-D"),
    (lambda: system.VoltageSignal("step", np.ones((2, 1))),
     "voltage value must be 1-D, got shape (2, 1)"),
    (lambda: system.VoltageSignal("constant", np.array(1.0)),
     "voltage value must be 1-D, got shape ()"),
], ids=["unknown_kind", "step_without_value", "constant_without_value",
        "table_without_table", "two_channels_one_winding",
        "one_channel_three_windings", "table_1d", "table_without_voltage",
        "table_without_rows", "value_2d", "value_0d"])
def test_voltage_kind_data_and_channels_are_checked(make, fragment):
    """An unknown kind, missing or misshapen data or a channel count other
    than the winding count is rejected when the signal or config is made."""
    with pytest.raises(ValidationFailure) as info:
        make()
    assert fragment in str(info.value)


def test_voltage_lists_behave_as_the_same_arrays():
    rows = [[0.0, 0.0], [0.5, 2.0], [1.0, -1.0]]
    listed = system.VoltageSignal("table", table=rows)
    arrayed = system.VoltageSignal("table", table=np.array(rows))
    assert listed.table.dtype == float and listed.m == arrayed.m == 1
    for t in (-1.0, 0.0, 0.25, 0.5, 0.9, 2.0):
        assert np.array_equal(listed(t), arrayed(t))
    for kind in ("constant", "step"):
        listed = system.VoltageSignal(kind, [1, -2])
        arrayed = system.VoltageSignal(kind, np.array([1.0, -2.0]))
        assert listed.value.dtype == float and listed.m == 2
        for t in (0.0, 0.5):
            assert np.array_equal(listed(t), arrayed(t))
    with pytest.raises(ValidationFailure, match="strictly increasing"):
        system.VoltageSignal("table", table=[[0.0, 0.0], [0.0, 1.0]])


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


def test_schur_step_keeps_the_winding_block_sparse():
    """M_red is built from sparse factors, never as a dense n_dofs^2 array."""
    ops, _, _ = system.build_system(system.MQSConfig(n=32))
    a_prev = 0.1 * np.random.default_rng(9).standard_normal(ops.n_dofs)
    tracemalloc.start()
    try:
        system.schur_step(ops, a_prev, np.array([1.0]), 1.0 / 64.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense 961 x 961 product alone takes 7.4 MB
    assert peak < 2 * 2**20


def test_p1_operators_and_newton_matrix_are_csc():
    cfg = system.MQSConfig(n=8)
    ops = system.build_system(cfg)[0]
    a = 0.3 * np.random.default_rng(10).standard_normal(ops.n_dofs)
    for name in ("mass", "msigma", "mass_C", "stiffness"):
        assert getattr(ops, name).format == "csc", name
    assert ops.K_tangent(a).format == "csc"


def test_tangent_at_zero_field_is_scaled_stiffness():
    """s = 0 everywhere: the rank-one part drops and nu(0) K_lin remains."""
    ops, _, _ = system.build_system(system.MQSConfig(n=8))
    nu0, _, _ = material.model_eval(ops.model, "*", 0.0)
    J = ops.K_tangent(np.zeros(ops.n_dofs)).toarray()
    ref = nu0 * ops.stiffness.toarray()
    assert np.abs(J - ref).max() <= 1e-15 * np.abs(ref).max()


def test_tabulated_solve_matches_closed_form_model():
    """A 2001-point table of the default curve solves like the curve.

    The table interpolates g = nu s with error eps <= h^2/8 max|g''| on
    its range.  Testing the two step equations with their difference
    delta_k and using the strong monotonicity m_hat of the closed-form
    curve gives ||grad delta_k|| <= sqrt(k) eps / m_hat.
    """
    rational = material.rational_saturation_model(1.0, 5.0)
    knots = np.linspace(0.0, 20.0, 2001)
    nu, _, _ = material.model_eval(rational, "*", knots)
    tabulated = material.tabulated_model(np.column_stack([knots, nu]))
    fine = np.linspace(0.0, 20.0, 200001)
    g_second = 8.0 * fine * (fine ** 2 - 3.0) / (1.0 + fine ** 2) ** 3
    eps = (knots[1] - knots[0]) ** 2 / 8.0 * np.abs(g_second).max()

    cfg = system.MQSConfig(n=16, tau=1.0 / 16.0)
    ops = system.build_system(cfg)[0]
    ref = system.solve(cfg, ops)
    tab_cfg = replace(cfg, model=tabulated)
    tab_ops = system.build_system(tab_cfg)[0]
    traj = system.solve(tab_cfg, tab_ops)

    for a in traj.fields:
        _, s = fem._element_state(tab_ops.mesh, a)
        assert s.max() < knots[-1]  # inside the tabulated range
    delta = traj.fields - ref.fields
    grad_err = np.sqrt(np.einsum("ki,ki->k", delta, (ops.stiffness @ delta.T).T))
    k = np.arange(cfg.n_steps + 1)
    assert np.all(grad_err <= np.sqrt(k) * eps / ops.m_hat)

    report = system.check_weak_solution(tab_ops, traj)
    bound = 10.0 * cfg.newton_tol * diagnostics.trajectory_scale(tab_ops, traj)
    assert max(report.max_field_residual, report.max_circuit_residual) <= bound
    assert diagnostics.balance_order_study(
        tab_cfg, tab_ops, taus=(1 / 16, 1 / 32, 1 / 64, 1 / 128)).passed


def test_weak_solution_residuals_small(default_small):
    cfg, ops, _, _ = default_small
    traj = system.solve(cfg, ops)
    report = system.check_weak_solution(ops, traj)
    from mqsflow.diagnostics import trajectory_scale

    bound = 10.0 * cfg.newton_tol * trajectory_scale(ops, traj)
    assert report.max_field_residual <= bound
    assert report.max_circuit_residual <= bound


def test_weak_residual_detects_corrupted_current(default_small):
    cfg, ops, _, _ = default_small
    traj = system.solve(cfg, ops)
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
    cfg, ops, _, _ = default_small
    from dataclasses import replace

    quiet = replace(
        cfg, voltage=system.VoltageSignal("constant", np.array([0.0]))
    )
    traj = system.solve(quiet, ops)
    report = system.check_weak_solution(ops, traj)
    assert report.max_field_residual == 0.0
    assert report.max_circuit_residual == 0.0


def test_monotonicity_constant_model_is_equality():
    cfg = system.MQSConfig(n=8, model=material.constant_model(2.0))
    ops, _, _ = system.build_system(cfg)
    report = diagnostics.monotonicity_probe(ops, n_pairs=50, seed=0)
    # constant nu: <a-b, K(a)-K(b)> = nu (a-b)^T K_lin (a-b), m_hat = nu
    assert report.measured["min_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_monotonicity_probe_default(default_small):
    _, ops, _, _ = default_small
    report = diagnostics.monotonicity_probe(ops, n_pairs=200, seed=42)
    assert report.measured["min_ratio"] >= 1.0 - 1e-10
    assert report.measured["n_checked"] == 200


def test_monotonicity_probe_counts_trivial_pairs(default_small):
    _, ops, _, _ = default_small
    report = diagnostics.monotonicity_probe(ops, n_pairs=1, seed=0, scale=0.0)
    assert report.measured["n_checked"] == 0
    assert report.measured["min_ratio"] == np.inf


def test_coercivity_bound_sampled(default_small):
    _, ops, _, _ = default_small
    out = diagnostics.coercivity_bound_check(ops, n_samples=100, seed=0)
    assert out.passed
    assert out.measured["c"] == pytest.approx(
        min(ops.m_hat, ops.sigma_C) / (2 * ops.L_C)
    )


def test_power_balance_zero_trajectory(default_small):
    cfg, ops, _, _ = default_small
    from dataclasses import replace

    quiet = replace(
        cfg, voltage=system.VoltageSignal("constant", np.array([0.0]))
    )
    traj = system.solve(quiet, ops)
    assert np.all(traj.balance_residuals[1:] == 0.0)
    assert np.isnan(traj.balance_residuals[0])


def test_power_balance_equals_generic_energy_identity(default_small):
    """The circuit-level power balance and the abstract dissipation
    identity are the same defect, computed from different arrays."""
    cfg, ops, _, _ = default_small
    traj = system.solve(cfg, ops)
    rho = core.energy_identity_residual(traj.core_trajectory)
    assert np.allclose(traj.balance_residuals[1:], rho, atol=1e-12)


def test_current_recovery_row0_is_undefined(default_small):
    cfg, ops, _, _ = default_small
    traj = system.solve(cfg, ops)
    assert np.all(np.isnan(traj.currents[0]))
    assert np.all(np.isfinite(traj.currents[1:]))


def test_initial_data_reproduced_in_metric_image(default_small):
    cfg, ops, _, _ = default_small
    from dataclasses import replace

    rough = replace(cfg, a0_kind="random", seed=3)
    a0 = system.initial_field(rough, ops)
    traj = system.solve(rough, ops)
    assert np.array_equal(traj.fields[0], a0)
    assert np.allclose(traj.fluxes[0], ops.coupling.T @ a0)


THREE_WINDINGS = fem.WindingSpec(rectangles=(
    ((0.1, 0.2, 0.4, 0.6, 100.0), (0.8, 0.9, 0.4, 0.6, -100.0)),
    ((0.4, 0.6, 0.8, 0.9, 100.0), (0.4, 0.6, 0.1, 0.2, -100.0)),
    ((0.1, 0.2, 0.1, 0.2, 100.0), (0.8, 0.9, 0.8, 0.9, -100.0)),
))


@pytest.mark.parametrize("winding, R", [
    (system.DEFAULT_WINDING, np.array([[1.0]])),
    (THREE_WINDINGS, np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])),
])
def test_field_circuit_newton_direction_matches_full_factor(winding, R):
    """Solving the field-circuit system with the m winding unknowns kept
    gives the direction of one factor of the whole Newton matrix."""
    voltage = system.VoltageSignal("step", np.ones(winding.m))
    cfg = system.MQSConfig(n=8, winding=winding, R=R, voltage=voltage)
    ops, _, E = system.build_system(cfg)
    assert E.k == ops.m == winding.m
    rng = np.random.default_rng(11)
    a = 0.3 * rng.standard_normal(ops.n_dofs)
    rhs = rng.standard_normal(ops.n_dofs)
    H = ops.K_tangent(a)
    d = core._solve_newton_system(H, rhs, core.NewtonSystem(E, cfg.tau))
    ref = sp.linalg.splu((H + E.matrix.T @ E.matrix / cfg.tau).tocsc()).solve(
        rhs)
    assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


def test_thin_block_stays_out_of_the_factor(monkeypatch):
    """Every prox-step factor is of the field-circuit matrix: the P1
    pattern bordered by the m winding rows U, their columns U^T and an
    m x m diagonal.  That is sparser than the pattern of the whole Newton
    matrix, where U^T U fills in, and there is one factor per Newton
    system."""
    cfg = system.MQSConfig(n=16, T=4.0 / 64.0)
    ops, _, E = system.build_system(cfg)
    factored, shapes = [], set()
    newton_systems = []
    real_splu, real_solve = core.spla.splu, core._solve_newton_system

    class Spla:
        def splu(self, A, **kwargs):
            factored.append(A.nnz)
            shapes.add(A.shape)
            return real_splu(A, **kwargs)

    def counted(*args):
        newton_systems.append(1)
        return real_solve(*args)

    monkeypatch.setattr(core, "spla", Spla())
    monkeypatch.setattr(core, "_solve_newton_system", counted)
    system.solve(cfg, ops)
    assert len(factored) == len(newton_systems) > 0
    assert shapes == {(ops.n_dofs + ops.m,) * 2}
    winding_nnz = np.count_nonzero(E.matrix[-ops.m:].toarray())
    bordered = ops.mesh.pattern.nnz + 2 * winding_nnz + ops.m
    assert set(factored) == {bordered}
    stored = ops.mesh.pattern.copy()  # with the P1 stiffness's exact zeros
    stored.data[:] = 1.0
    full = stored + abs(E.matrix.T @ E.matrix)  # that of H + E^T E / tau
    assert bordered < full.nnz


def test_a_solve_sorts_each_sparse_pattern_once(monkeypatch):
    """One solve at n = 16 finds its mesh's pattern with one _csc_pattern
    call and each Newton pattern with two, K's and its permutation A's."""
    calls, specs = [], []
    real_pattern, real_splu = core._csc_pattern, core.spla.splu
    for module in (core, fem):
        def counted(keys, n, name=module.__name__):
            calls.append(name)
            return real_pattern(keys, n)

        monkeypatch.setattr(module, "_csc_pattern", counted)

    class Spla:
        def splu(self, A, **kwargs):
            specs.append(kwargs.get("permc_spec"))
            return real_splu(A, **kwargs)

    monkeypatch.setattr(core, "spla", Spla())
    system.solve(system.MQSConfig(n=16))
    assert specs.count("MMD_AT_PLUS_A") == 1
    assert calls == ["mqsflow.fem", "mqsflow.core", "mqsflow.core"]


def test_a_solve_orders_the_newton_pattern_once(monkeypatch):
    """The first factor of a solve runs the MMD ordering and every later
    one factors in natural order, one factor per Newton system, within
    1e-12 scale of a run that orders every factor afresh."""
    cfg = system.MQSConfig(n=16)
    ops = system.build_system(cfg)[0]
    specs, newton_systems = [], []
    real_splu, real_solve = core.spla.splu, core._solve_newton_system

    class Spla:
        def splu(self, A, **kwargs):
            specs.append(kwargs.get("permc_spec"))
            return real_splu(A, **kwargs)

    def counted(*args):
        newton_systems.append(1)
        return real_solve(*args)

    monkeypatch.setattr(core, "spla", Spla())
    monkeypatch.setattr(core, "_solve_newton_system", counted)
    kept = system.solve(cfg, ops)
    assert specs[0] == "MMD_AT_PLUS_A" and set(specs[1:]) == {"NATURAL"}
    assert len(specs) == len(newton_systems) > 1

    def afresh(H, rhs, newton_system, tol):
        return real_solve(H, rhs, core.NewtonSystem(newton_system.E,
                                                    newton_system.tau), tol)

    monkeypatch.setattr(core, "_solve_newton_system", afresh)
    specs.clear()
    fresh = system.solve(cfg, ops)
    assert set(specs) == {"MMD_AT_PLUS_A"}
    scale = diagnostics.trajectory_scale(ops, fresh)
    assert np.abs(kept.fields - fresh.fields).max() <= 1e-12 * scale
    assert np.abs(kept.currents[1:] - fresh.currents[1:]).max() <= 1e-12 * scale


def test_a_solve_leaves_the_metric_map_unchanged():
    """The per-solve Newton state lives outside E: after a solve, E holds
    what it held before plus its cached properties."""
    cfg = system.MQSConfig(n=8)
    ops = system.build_system(cfg)[0]
    before = dict(vars(ops.E))
    system.solve(cfg, ops)
    after = vars(ops.E)
    cached = {name for name, attr in vars(core.LinearMapE).items()
              if isinstance(attr, functools.cached_property)}
    assert all(after[name] is value for name, value in before.items())
    assert set(after) - set(before) <= cached


class _FactorEverySystem:
    """A plain reference for NewtonSystem: every system's whole Newton
    matrix H + E^T E / tau factored by splu with SuperLU's defaults."""

    def __init__(self, E, tau):
        self.E, self.tau = E, tau
        self._metric = E.matrix.T @ E.matrix / tau

    def solve(self, H, rhs, tol=None):
        return sp.linalg.splu((H + self._metric).tocsc()).solve(rhs)


def record_newton_systems(monkeypatch):
    """The NewtonSystem each solve makes, and a count of splu calls and of
    Newton systems solved."""
    made, counts = [], {"splu": 0, "systems": 0}
    real_splu, real_solve = core.spla.splu, core._solve_newton_system

    class Recorded(core.NewtonSystem):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    class Spla:
        def splu(self, A, **kwargs):
            counts["splu"] += 1
            return real_splu(A, **kwargs)

    def counted(*args):
        counts["systems"] += 1
        return real_solve(*args)

    monkeypatch.setattr(core, "NewtonSystem", Recorded)
    monkeypatch.setattr(core, "spla", Spla())
    monkeypatch.setattr(core, "_solve_newton_system", counted)
    return made, counts


@pytest.mark.parametrize("n", [8, 16])
def test_below_the_cutoff_every_newton_system_is_factored_as_before(
        n, monkeypatch):
    """One factor per Newton system, none kept, and the trajectory within
    1e-12 scale of factoring every system's whole Newton matrix."""
    cfg = system.MQSConfig(n=n)
    ops = system.build_system(cfg)[0]
    assert ops.n_dofs < core.PCG_MIN_DIM
    made, counts = record_newton_systems(monkeypatch)
    traj = system.solve(cfg, ops)
    (newton,) = made
    assert counts["splu"] == newton.factors == counts["systems"] > 0
    assert newton.pcg_systems == newton.cg_iters == 0
    assert newton._lagged is None
    monkeypatch.setattr(core, "NewtonSystem", _FactorEverySystem)
    before = system.solve(cfg, ops)
    scale = diagnostics.trajectory_scale(ops, before)
    assert np.abs(traj.fields - before.fields).max() <= 1e-12 * scale
    assert np.abs(traj.currents[1:] - before.currents[1:]).max() <= (
        1e-12 * scale)


@pytest.mark.parametrize("n", [16, 32])
def test_a_run_with_no_conductor_solves_and_passes_the_self_check(
        n, monkeypatch):
    """conductor_radius = 0 leaves E_1 with no rows, so the field-circuit
    matrix is [[H, U^T], [U, -tau I]]: on each side of the cutoff it is
    solved, by PCG above it, and the run passes mqsflow run's self-check."""
    cfg = system.MQSConfig(n=n, conductor_radius=0.0)
    ops, _, E = system.build_system(cfg)
    assert E.dim_Z == E.k == ops.m and E.lead_gram.nnz == 0
    made, counts = record_newton_systems(monkeypatch)
    traj = system.solve(cfg, ops)
    cli._check_run(cfg, ops, traj)
    (newton,) = made
    assert newton.factors + newton.pcg_systems == counts["systems"] > 0
    assert (newton.pcg_systems > 0) == (ops.n_dofs >= core.PCG_MIN_DIM) == (
        n == 32)


def multiwinding_config(**kwargs):
    """Three windings coupled through a full-rank R, driven by table
    voltages that reverse sign, from a random initial field, at n = 32."""
    table = [[0.0, 0.0, 0.0, 0.0], [0.25, 4.0, -4.0, 4.0],
             [0.5, -4.0, 4.0, -4.0], [0.75, 4.0, 4.0, -4.0],
             [1.0, -4.0, -4.0, 4.0]]
    return system.MQSConfig(
        n=32, winding=THREE_WINDINGS,
        R=[[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]],
        voltage=system.VoltageSignal("table", table=table),
        model=material.rational_saturation_model(1.0, 8.0),
        a0_kind="random", seed=1, **kwargs)


def test_a_lagged_factor_solve_is_repeatable(monkeypatch):
    """Above the cutoff most Newton systems are solved by PCG on a kept
    factor, and two solves on one set of operators agree bit for bit."""
    cfg = multiwinding_config()
    ops = system.build_system(cfg)[0]
    assert ops.n_dofs >= core.PCG_MIN_DIM
    made, counts = record_newton_systems(monkeypatch)
    first, second = system.solve(cfg, ops), system.solve(cfg, ops)
    assert np.array_equal(first.fields, second.fields)
    assert np.array_equal(first.currents[1:], second.currents[1:])
    for newton in made:
        assert newton.factors + newton.pcg_systems == counts["systems"] // 2
        assert newton.pcg_systems > newton.factors
        assert newton.cg_iters <= core.PCG_MAX_ITER * counts["systems"] // 2


@pytest.mark.parametrize("newton_tol", [1e-10, 1e-14])
def test_a_lagged_factor_solve_matches_factoring_every_system(
        newton_tol, monkeypatch):
    """PCG's residual of 1e-10 ||rhs|| leaves the trajectory within
    1e-10 scale, and the Newton systems within 1 %, of a solve that
    factors every Newton system, down to a Newton tolerance of 1e-14."""
    cfg = multiwinding_config(newton_tol=newton_tol)
    ops = system.build_system(cfg)[0]
    _, counts = record_newton_systems(monkeypatch)
    lagged = system.solve(cfg, ops)
    n_lagged = counts["systems"]
    monkeypatch.setattr(core, "PCG_MIN_DIM", ops.n_dofs + 1)
    direct = system.solve(cfg, ops)
    n_direct = counts["systems"] - n_lagged
    assert abs(n_lagged - n_direct) <= 0.01 * n_direct
    scale = diagnostics.trajectory_scale(ops, direct)
    assert np.abs(lagged.fields - direct.fields).max() <= 1e-10 * scale
    assert np.abs(lagged.currents[1:] - direct.currents[1:]).max() <= (
        1e-10 * scale)


def test_pcg_to_a_tenth_of_the_newton_tolerance_costs_no_newton_system(
        monkeypatch):
    """On the default problem above the cutoff, PCG stopped at
    max(1e-10 ||rhs||, tol / 10) takes exactly the Newton systems of a
    solve that factors every one, and stays within 1e-10 scale of it."""
    cfg = system.MQSConfig(n=32)
    ops = system.build_system(cfg)[0]
    assert ops.n_dofs >= core.PCG_MIN_DIM
    made, counts = record_newton_systems(monkeypatch)
    lagged = system.solve(cfg, ops)
    n_lagged = counts["systems"]
    assert made[0].pcg_systems > 0
    monkeypatch.setattr(core, "NewtonSystem", _FactorEverySystem)
    direct = system.solve(cfg, ops)
    assert counts["systems"] - n_lagged == n_lagged
    scale = diagnostics.trajectory_scale(ops, direct)
    assert np.abs(lagged.fields - direct.fields).max() <= 1e-10 * scale
    assert np.abs(lagged.currents[1:] - direct.currents[1:]).max() <= (
        1e-10 * scale)


def test_newton_system_counts_on_the_default_problem_at_n32(monkeypatch):
    """A guard on the work PCG does, with no timing involved: 69 Newton
    systems, 3 factors, 66 PCG solves and at most 350 CG iterations (339
    when this was written; PCG to 1e-10 ||rhs|| within 10 iterations took
    4 factors and 501)."""
    cfg = system.MQSConfig(n=32)
    ops = system.build_system(cfg)[0]
    made, counts = record_newton_systems(monkeypatch)
    system.solve(cfg, ops)
    (newton,) = made
    assert counts["systems"] == 69
    assert (newton.factors, newton.pcg_systems) == (3, 66)
    assert newton.cg_iters <= 350


def test_extrapolated_start_cuts_newton_solves_on_the_default_problem(
        monkeypatch):
    """Against a predictor stuck at x_{k-1}, which starts every step where
    a plain prox step does: fields and currents within 1e-10 scale."""
    cfg = system.MQSConfig(n=16)
    ops = system.build_system(cfg)[0]
    real_solve, real_extrapolate = core._solve_newton_system, core._extrapolate
    runs = {}
    for name, predictor in (("last", lambda states, k: states[k - 1]),
                            ("extrapolate", real_extrapolate)):
        calls = []

        def counted(*args, calls=calls):
            calls.append(1)
            return real_solve(*args)

        monkeypatch.setattr(core, "_solve_newton_system", counted)
        monkeypatch.setattr(core, "_extrapolate", predictor)
        runs[name] = (system.solve(cfg, ops), len(calls))
    (last, n_last), (extra, n_extra) = runs["last"], runs["extrapolate"]
    assert n_extra <= 0.7 * n_last
    scale = diagnostics.trajectory_scale(ops, last)
    assert np.abs(extra.fields - last.fields).max() <= 1e-10 * scale
    assert np.abs(extra.currents[1:] - last.currents[1:]).max() <= 1e-10 * scale


def test_config_rejects_unknown_newton_start():
    assert system.MQSConfig(n=8).newton_start == "extrapolate"
    with pytest.raises(ValidationFailure,
                       match="newton_start must be one of extrapolate, zero, "
                             "got 'prev'"):
        system.MQSConfig(n=8, newton_start="prev")


@pytest.mark.parametrize("make, fragment", [
    (lambda: system.VoltageSignal("table", table=[[0.0, 0.0], [1.0]]),
     "voltage table must be a numeric array"),
    (lambda: system.VoltageSignal("step", value=["a"]),
     "voltage value must be real numbers"),
    (lambda: system.MQSConfig(R=[[1.0], [1.0, 2.0]]),
     "R must be a numeric array"),
    (lambda: material.ReluctivityModel(
        "user_tabulated", {"*": {"table": [[0.0, 1.0], [1.0]]}}),
     "reluctivity table must be a numeric array"),
    (lambda: fem.WindingSpec(rectangles=([[0.1, 0.2, 0.4, 0.6, 1.0], [0.8]],)),
     "winding w1 must be a numeric array"),
    (lambda: system.MQSConfig(n=8, conductor_center="0.5 0.5"),
     "conductor_center must be real numbers"),
], ids=["ragged_table", "string_value", "ragged_R", "ragged_reluctivity_table",
        "ragged_rectangles", "string_center"])
def test_ragged_and_non_numeric_inputs_are_validation_failures(make, fragment):
    """A ragged nesting or a string is rejected naming the input, never
    with numpy's own conversion error."""
    with pytest.raises(ValidationFailure) as info:
        make()
    assert fragment in str(info.value)


def test_validation_failure_is_a_value_error():
    with pytest.raises(ValueError):
        system.MQSConfig(n=8, tau=-1.0)
    with pytest.raises(ValidationFailure,
                       match="reluctivity kind must be one"):
        material.ReluctivityModel("mystery", {"*": {}})


@pytest.mark.parametrize("field, value", [
    ("n", 8.5), ("n", "8"), ("newton_max_iter", 2.5), ("seed", 1.5),
    ("seed", np.float64(3.0)),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationFailure, match=f"{field} must be an integer"):
        system.MQSConfig(**{"n": 8, field: value})


def test_config_accepts_numpy_integer_counts():
    cfg = system.MQSConfig(n=np.int64(8), seed=np.int32(3),
                           newton_max_iter=np.uint8(5), T=0.25, tau=0.0625)
    traj = system.solve(cfg)
    assert traj.n_steps == 4 and traj.fields.shape == (5, 49)


@pytest.mark.parametrize("kwargs, fragment", [
    ({"conductor_center": (0.5,)},
     "conductor_center needs two numbers, got shape (1,)"),
    ({"conductor_center": (0.5, 0.5, 0.5)}, "got shape (3,)"),
    ({"a0_kind": "telepathic"}, "initial field kind must be one of zero, "
     "random, file, got 'telepathic'"),
    ({"T": "1.0"}, "T must be a real number, got '1.0'"),
    ({"sigma_C": np.ones(2)}, "sigma_C must be a real number"),
    ({"T": 1e-300, "tau": 1e300}, "is not a whole number of steps"),
])
def test_config_checks_moved_from_the_parser(kwargs, fragment):
    with pytest.raises(ValidationFailure) as info:
        system.MQSConfig(**{"n": 8, **kwargs})
    assert fragment in str(info.value)


@pytest.mark.parametrize("rectangles, fragment", [
    ((((0.1, 0.2, 0.4, 0.6),),), "winding w1 needs rectangles 'x0 x1 y0 y1 "
     "kappa', got shape (1, 4)"),
    ((((0.1, 0.2, 0.4, 0.6, 1.0),), ()), "winding w2 needs rectangles"),
    (((0.1, 0.2, 0.4, 0.6, 1.0),), "winding w1 needs rectangles"),
    ((), "must list a winding"),
    (5, "must list a winding"),
])
def test_winding_rectangles_need_five_numbers(rectangles, fragment):
    with pytest.raises(ValidationFailure) as info:
        fem.WindingSpec(rectangles)
    assert fragment in str(info.value)


def test_winding_rectangles_are_kept_as_float_tuples():
    listed = fem.WindingSpec([np.array([[0.1, 0.2, 0.4, 0.6, 100]])])
    assert listed == fem.WindingSpec((((0.1, 0.2, 0.4, 0.6, 100.0),),))
    assert hash(listed) == hash(fem.WindingSpec(listed.rectangles))


def test_resistance_must_be_a_matrix():
    cfg = system.MQSConfig(n=8, R=np.ones((1, 1, 1)))
    with pytest.raises(ValidationFailure, match="R must be square"):
        system.build_system(cfg)


def test_huge_resistance_is_checked_without_overflow():
    """Symmetry is tested on R scaled to unit size, so the squares of its
    entries cannot overflow."""
    report = material.validate_assumptions(
        material.constant_model(1.0), 1.0, np.array([[1e308]]))
    assert report.passed
    with pytest.raises(ValidationFailure) as info:
        material.validate_assumptions(
            material.constant_model(1.0), 1.0,
            np.array([[1e308, -1e308], [1e308, 1e308]]))
    assert "resistance matrix R must be symmetric" in info.value.reasons


@pytest.mark.parametrize("field, value", [
    ("seed", 10 ** 23), ("n", -10 ** 20), ("newton_max_iter", 2 ** 64),
])
def test_config_names_an_integer_beyond_64_bits(field, value):
    with pytest.raises(ValidationFailure,
                       match=f"^{field} is out of range, got {value}$"):
        system.MQSConfig(**{field: value})
    with pytest.raises(ValidationFailure, match="out of range"):
        system.VoltageSignal("constant", [1.0, value])


def test_reluctivity_overflow_is_named():
    """A curve whose certification overflows is a ValidationFailure naming
    the kind and the region, not a warning and a false verdict."""
    model = material.tabulated_model([[0.0, 1.0], [1e200, 1e200]])
    with pytest.raises(ValidationFailure) as exc:
        system.build_system(system.MQSConfig(n=8, model=model))
    assert str(exc.value) == (
        "overflow encountered in multiply while certifying the reluctivity "
        "curve of kind 'user_tabulated' on region '*'")
    with pytest.raises(ValidationFailure, match="region 'C'"):
        material.estimate_constants(model, "C")


_NOT_MONOTONE = "reluctivity curve on region '\\*' is not strongly monotone"


@pytest.mark.parametrize("rows, message", [
    (None, _NOT_MONOTONE),
    ([[0.0, 2.0], [50.0, 2.0], [150.0, 2.0], [200.0, 1.0], [300.0, 1.0]],
     _NOT_MONOTONE),
    ([[0.0, 0.0], [10.0, 50.0]], _NOT_MONOTONE),
    ([[0.01, 5.0], [1.0, 4.0], [2.0, 3.0]],
     "reluctivity table of region '\\*' s-column must start at 0, got 0.01"),
], ids=["rational_1_9.001", "falls_past_s_100", "nu0_zero", "late_start"])
def test_build_system_rejects_a_curve_that_is_not_monotone(rows, message):
    """Each curve passed the sampled certification; now none is solved."""
    with pytest.raises(ValidationFailure, match=message):
        model = material.rational_saturation_model(1.0, 9.001) \
            if rows is None else material.tabulated_model(rows)
        system.build_system(system.MQSConfig(n=8, model=model))


def test_certified_constants_bound_every_region():
    """m_hat is the least over the regions and L_hat the largest, so the
    energy bounds and Lipschitz estimate of criterion 03 hold on a model
    whose regions differ."""
    model = material.ReluctivityModel(
        "constant", {"C": {"nu0": 1.0}, "I": {"nu0": 3.0}})
    ops, phi, _ = system.build_system(system.MQSConfig(n=16, model=model))
    assert (ops.m_hat, ops.L_hat) == (1.0, 3.0)
    K = ops.stiffness
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(ops.n_dofs)
        b = rng.standard_normal(ops.n_dofs)
        qa, qb = float(a @ (K @ a)), float(b @ (K @ b))
        pa, pb = phi.eval(a), phi.eval(b)
        assert 0.5 * ops.m_hat * qa <= pa <= 0.5 * ops.L_hat * qa
        assert abs(pa - pb) <= 0.5 * ops.L_hat * (np.sqrt(qa) + np.sqrt(qb)) \
            * np.sqrt(float((a - b) @ (K @ (a - b))))


def test_step_failures_share_one_base():
    assert issubclass(NonConvergence, StepFailure)
    assert issubclass(SingularStep, StepFailure)
    exc = SingularStep("no pivot", step=3)
    assert (str(exc), exc.step) == ("no pivot", 3)
    assert NonConvergence("stalled").step is None


def test_overflow_in_a_step_is_a_newton_failure():
    cfg = system.MQSConfig(n=8, T=0.25, tau=0.0625,
                           voltage=system.VoltageSignal("step", [1e200]))
    with pytest.raises(NonConvergence,
                       match="step 1: overflow encountered"):
        system.solve(cfg)


def test_an_overflow_from_a_forcing_load_names_no_input():
    """With the voltage, R^-1, winding density and initial field all O(1),
    an overflow from a huge manufactured load blames none of them."""
    cfg = system.MQSConfig(
        n=8, T=0.25, tau=0.0625,
        forcing=lambda mesh, t: np.full((t.size, mesh.n_dofs), 1e300))
    with pytest.raises(NonConvergence) as info:
        system.solve(cfg)
    assert str(info.value) == (
        "step 1: overflow encountered in dot: the problem data is out of "
        "floating-point range")
    assert info.value.step == 1


@pytest.mark.parametrize("value, match", [
    (np.nan, "^initial field must be finite, got nan at flat index 5 of 49"),
    (np.inf, "^initial field must be finite, got inf at flat index 5 of 49"),
    (1j, "^initial field must be real numbers, got complex128$"),
], ids=["nan", "inf", "complex"])
def test_solve_checks_the_initial_field_before_the_first_step(
        monkeypatch, value, match):
    cfg = system.MQSConfig(n=8, T=0.25, tau=0.0625)
    ops = system.build_system(cfg)[0]
    steps = _count_calls(monkeypatch, core, "solve_trajectory")
    a0 = np.zeros(ops.n_dofs, dtype=complex if value == 1j else float)
    a0[5] = value
    with pytest.raises(ValidationFailure, match=match):
        system.solve(cfg, ops, a0=a0)
    assert steps == []


def test_manufactured_loads_are_assembled_once_per_solve(monkeypatch):
    cfg = diagnostics.manufactured_config(n=8, tau=1.0 / 16.0)
    ops = system.build_system(cfg)[0]
    calls = []
    real = fem.assemble_load

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble_load", counted)
    system.solve(cfg, ops)
    assert len(calls) == 2
    system.solve_schur(cfg, ops)
    assert len(calls) == 4


def test_forced_schur_path_matches_the_prox_solve():
    """The Schur-reduced path with a manufactured forcing load: the same
    fields as the prox solve, to the criterion-07 bound."""
    cfg = replace(diagnostics.manufactured_config(n=16), newton_tol=1e-12)
    ops = system.build_system(cfg)[0]
    traj = system.solve(cfg, ops)
    fields_schur = system.solve_schur(cfg, ops)
    scale = diagnostics.trajectory_scale(ops, traj)
    assert np.abs(traj.fields[-1]).max() > 0.1  # the forcing drives the field
    worst = float(np.max(np.linalg.norm(traj.fields - fields_schur, axis=1)))
    assert worst <= 1e-10 * scale

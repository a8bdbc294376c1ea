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
    """The problem-data check returns R^{-1/2} from the same decomposition
    that certifies R positive definite."""
    winding = fem.WindingSpec(THREE_WINDINGS.rectangles[:2])
    cfg = system.MQSConfig(n=8, winding=winding,
                           R=np.array([[2.0, 0.5], [0.5, 1.0]]),
                           voltage=system.VoltageSignal("step", np.ones(2)))
    S = system._admissible_data(cfg)[2]
    assert np.abs(S @ S @ cfg.R - np.eye(2)).max() < 1e-12
    assert np.abs(S - S.T).max() < 1e-13
    with pytest.raises(ValidationFailure) as info:
        system._admissible_data(
            replace(cfg, R=np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert info.value.reasons == [
        "resistance matrix R must be positive definite"]


def test_non_spd_resistance_rejected():
    cfg = system.MQSConfig(R=np.array([[-1.0]]))
    with pytest.raises(ValidationFailure):
        system.build_system(cfg)


def test_resistance_winding_count_mismatch_rejected():
    cfg = system.MQSConfig(R=np.eye(2))
    with pytest.raises(ValidationFailure):
        system.build_system(cfg)


def test_build_system_names_every_failed_assumption_before_the_mesh(
        monkeypatch):
    """sigma_C, R's row count and the curve fail together; one failure
    names all three, and no mesh is built for it."""
    meshes = []
    monkeypatch.setattr(fem, "build_mesh",
                        lambda *args: meshes.append(args))
    cfg = system.MQSConfig(
        n=8, sigma_C=0.0, R=np.eye(2),
        model=material.rational_saturation_model(1.0, 9.001))
    with pytest.raises(ValidationFailure) as info:
        system.build_system(cfg)
    assert info.value.reasons == [
        "conductivity sigma_C must be positive",
        "R is 2x2 but there are 1 windings",
        "reluctivity curve on region '*' is not strongly monotone "
        "(m_hat = -1.250e-04)"]
    assert meshes == []


def test_conducting_mass_is_assembled_not_recovered():
    """ops.mass_C is the assembled unit-conductivity mass, not
    (sigma_C M_C) / sigma_C, and msigma is sigma_C times it."""
    ops = system.build_system(system.MQSConfig(n=16, sigma_C=7.3))[0]
    expected = fem._assemble_mass(
        ops.mesh, ops.mesh.element_labels == fem.LABEL_C)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(ops.mass_C, name),
                              getattr(expected, name)), name
    assert np.array_equal(ops.msigma.data, 7.3 * expected.data)


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
        cfg, voltage=system.VoltageSignal("step", np.array([0.0]))
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


@pytest.mark.parametrize("a0, reason", [
    (np.zeros(5), "initial field has shape (5,), expected (49,)"),
    (np.full(49, np.nan), "initial field must be finite"),
], ids=["wrong_shape", "nan"])
def test_both_solve_paths_reject_a_bad_initial_field_alike(tmp_path, a0,
                                                          reason):
    path = tmp_path / "a0.npy"
    np.save(path, a0)
    cfg = system.MQSConfig(n=8, T=0.125, tau=1.0 / 16.0, a0_kind="file",
                           a0_path=str(path))
    ops = system.build_system(cfg)[0]
    messages = []
    for solve in (system.solve, system.solve_schur):
        with pytest.raises(ValidationFailure) as exc:
            solve(cfg, ops)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(reason)


def test_build_system_rejects_a_step_beyond_the_ellipticity_bound():
    """tau < 1 / omega (omega = 1) is checked at build, in ProxConfig's
    words, as every solve checks it."""
    with pytest.raises(ValidationFailure) as exc:
        system.build_system(system.MQSConfig(n=8, T=1.0, tau=1.0))
    assert str(exc.value) == "tau = 1.0 too large for ellipticity omega = 1.0"
    system.build_system(system.MQSConfig(n=8, T=1.0, tau=0.5))


def test_solve_returns_the_core_trajectory_with_the_circuit_added():
    """One record: the solve's DaeTrajectory arrays, fields being states."""
    cfg = system.MQSConfig(n=8, T=0.25, tau=1.0 / 16.0)
    ops = system.build_system(cfg)[0]
    traj = system.solve(cfg, ops)
    assert isinstance(traj, core.DaeTrajectory)
    assert traj.fields is traj.states
    assert traj.n_steps == 4 and traj.tau == 1.0 / 16.0
    assert traj.rates.shape == traj.inputs.shape == (4, ops.E.dim_Z)
    assert traj.subgradients.shape == (5, ops.n_dofs)
    with pytest.raises(AttributeError):
        traj.fields = traj.states.copy()


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
    assert system.MQSConfig(n=8, seed=0).seed == 0


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
    two = system.VoltageSignal("step", np.array([3.0, 1.0]))
    assert two.m == 2 and np.array_equal(two(1.0), [3.0, 1.0])
    table = system.VoltageSignal(
        "table", table=np.array([[0.0, 0.0], [1.0, 2.0]])
    )
    assert table(0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["step", "table"])
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
     "voltage kind must be one of step, table, got 'ramp'"),
    (lambda: system.VoltageSignal("step"),
     "voltage value is required for kind 'step'"),
    (lambda: system.VoltageSignal("step", table=np.ones((2, 2))),
     "voltage value is required for kind 'step'"),
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
    (lambda: system.VoltageSignal("step", np.array(1.0)),
     "voltage value must be 1-D, got shape ()"),
], ids=["unknown_kind", "step_without_value", "step_with_only_a_table",
        "table_without_table", "two_channels_one_winding",
        "one_channel_three_windings", "table_1d", "table_without_voltage",
        "table_without_rows", "value_2d", "value_0d"])
def test_voltage_kind_data_and_channels_are_checked(make, fragment):
    """An unknown kind, missing or misshapen data or a channel count other
    than the winding count is rejected when the signal or config is made."""
    with pytest.raises(ValidationFailure) as info:
        make()
    assert fragment in str(info.value)


def test_a_voltage_held_for_all_time_is_no_kind():
    """A value held from t = 0 is a step, since the scheme samples v(t_k)
    only for k >= 1."""
    with pytest.raises(ValidationFailure) as info:
        system.VoltageSignal("constant", [1.0])
    assert str(info.value) == (
        "voltage kind must be one of step, table, got 'constant'")


@pytest.mark.parametrize("newton", ["prox_step", "schur_step", "eval_phi_E"])
def test_every_newton_loop_stops_at_the_one_budget(monkeypatch, newton):
    """core.NEWTON_MAX_ITER is the budget of the prox step, the Schur
    witness step and the oracle alike."""
    cfg = system.MQSConfig(n=8, T=0.25, tau=0.0625)
    ops = system.build_system(cfg)[0]
    a0, v1 = np.zeros(ops.n_dofs), cfg.voltage(cfg.tau)
    z = ops.E.apply(np.random.default_rng(5).standard_normal(ops.n_dofs))
    call = {
        "prox_step": lambda: core.prox_step(
            ops.phi, ops.E, a0, system._metric_input(ops, v1[None])[0],
            cfg.prox),
        "schur_step": lambda: system.schur_step(ops, a0, v1, cfg.prox),
        "eval_phi_E": lambda: core.eval_phi_E(ops.phi, ops.E, z),
    }[newton]
    call()  # converges within the default budget
    monkeypatch.setattr(core, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NonConvergence) as info:
        call()
    assert str(info.value).startswith("Newton did not reach tolerance ")
    assert str(info.value).endswith(" in 1 iterations")


def test_voltage_lists_behave_as_the_same_arrays():
    rows = [[0.0, 0.0], [0.5, 2.0], [1.0, -1.0]]
    listed = system.VoltageSignal("table", table=rows)
    arrayed = system.VoltageSignal("table", table=np.array(rows))
    assert listed.table.dtype == float and listed.m == arrayed.m == 1
    for t in (-1.0, 0.0, 0.25, 0.5, 0.9, 2.0):
        assert np.array_equal(listed(t), arrayed(t))
    listed = system.VoltageSignal("step", [1, -2])
    arrayed = system.VoltageSignal("step", np.array([1.0, -2.0]))
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
        a_prox = core.prox_step(phi, E, a_prev, f_k, prox_cfg)
        a_schur = system.schur_step(ops, a_prev, v_k, prox_cfg)
        scale = 1.0 + np.linalg.norm(a_prox)
        assert np.linalg.norm(a_prox - a_schur) <= 1e-10 * scale


def test_schur_large_tau_magnetostatic_limit(default_small):
    """tau -> infinity: the step solves K(a) = C R^{-1} v."""
    _, ops, _, _ = default_small
    a = system.schur_step(ops, np.zeros(ops.n_dofs), np.array([1.0]),
                          core.ProxConfig(1e12, 1))
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
    a = system.schur_step(ops, a_prev, np.array([0.0]),
                          core.ProxConfig(tau, 1, newton_tol=1e-13))
    # direct linear solve of (M_sigma / tau + K_lin) a = M_sigma a_prev / tau
    A = (ops.msigma / tau + ops.stiffness).toarray()
    a_star = np.linalg.solve(A, ops.msigma @ a_prev / tau)
    assert np.linalg.norm(a - a_star) < 1e-10 * (1 + np.linalg.norm(a_star))


def test_witness_and_oracle_solve_through_newton_system(default_small,
                                                         monkeypatch):
    """Every Newton direction of a Schur step and of the oracle comes from
    NewtonSystem.solve, as a prox step's does."""
    _, ops, _, _ = default_small
    calls = {"directions": 0, "solves": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core, "_solve_newton_system",
                        counted("directions", core._solve_newton_system))
    monkeypatch.setattr(core.NewtonSystem, "solve",
                        counted("solves", core.NewtonSystem.solve))
    a_prev = 0.1 * np.random.default_rng(11).standard_normal(ops.n_dofs)
    system.schur_step(ops, a_prev, np.array([1.0]),
                      core.ProxConfig(1.0 / 16.0, 1))
    witness = dict(calls)
    assert witness["directions"] > 0
    assert witness["solves"] == witness["directions"]
    b = np.array([1.0, -1.0, 0.5])  # off the min-norm point of E x = 2
    phi = core.EllipticFunctional(  # a quartic, so Newton takes a few steps
        eval=lambda x: 0.25 * float(x @ x) ** 2 + 0.5 * float(x @ x)
        - float(b @ x),
        gateaux=lambda x: (float(x @ x) + 1.0) * x - b,
        hessian=lambda x: (float(x @ x) + 1.0) * np.eye(3)
        + 2.0 * np.outer(x, x),
    )
    core.eval_phi_E(phi, core.LinearMapE([[1.0, 1.0, 0.0]]), [2.0])
    assert calls["directions"] > witness["directions"]
    assert calls["solves"] == calls["directions"]


def test_schur_step_forms_one_reduced_mass_product_per_point(default_small,
                                                           monkeypatch):
    """The witness's merit and residual share M_red (a - a_prev) at each
    point, so a step takes one M_sigma product per merit evaluation (a_prev's
    included), and counting them leaves the step the same bit for bit."""
    _, ops, _, _ = default_small
    a_prev = 0.1 * np.random.default_rng(12).standard_normal(ops.n_dofs)
    cfg = core.ProxConfig(1.0 / 16.0, 1)

    class Counted:
        products = 0

        def __matmul__(self, x):
            self.products += 1
            return ops.msigma @ x

    merits, real_newton = [], core.newton_minimize

    def newton_minimize(objective, *args, **kwargs):
        def counted(a):
            merits.append(1)
            return objective(a)
        return real_newton(counted, *args, **kwargs)

    monkeypatch.setattr(core, "newton_minimize", newton_minimize)
    counted_mass = Counted()
    a = system.schur_step(replace(ops, msigma=counted_mass), a_prev,
                          np.array([1.0]), cfg)
    assert len(merits) >= 2
    assert counted_mass.products == 1 + len(merits)
    assert np.array_equal(a, system.schur_step(ops, a_prev, np.array([1.0]),
                                               cfg))


def test_schur_step_refuses_a_newton_system_of_another_map_or_step(
        default_small):
    """As prox_step does, schur_step takes only a NewtonSystem of ops.E and
    its own tau: one of another tau, or one on a map with no rows, whose
    Newton matrix would lack M_red / tau, is a ValidationFailure.  One of
    ops.E and tau gives the default step bit for bit."""
    _, ops, _, _ = default_small
    a_prev = 0.1 * np.random.default_rng(13).standard_normal(ops.n_dofs)
    cfg, v = core.ProxConfig(1.0 / 16.0, 1), np.array([1.0])
    no_rows = core.LinearMapE(np.zeros((0, ops.n_dofs)))
    for other in (core.NewtonSystem(ops.E, 2.0 * cfg.tau),
                  core.NewtonSystem(no_rows, cfg.tau)):
        with pytest.raises(ValidationFailure, match="another E or tau"):
            system.schur_step(ops, a_prev, v, cfg, newton_system=other)
    own = system.schur_step(ops, a_prev, v, cfg,
                            newton_system=core.NewtonSystem(ops.E, cfg.tau))
    assert own.tobytes() == system.schur_step(ops, a_prev, v, cfg).tobytes()


def test_schur_step_keeps_the_winding_block_sparse():
    """The witness applies C R^{-1} C^T through C, never as a dense
    n_dofs^2 array."""
    ops, _, _ = system.build_system(system.MQSConfig(n=32))
    a_prev = 0.1 * np.random.default_rng(9).standard_normal(ops.n_dofs)
    tracemalloc.start()
    try:
        system.schur_step(ops, a_prev, np.array([1.0]),
                          core.ProxConfig(1.0 / 64.0, 1))
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
    bad = replace(traj, currents=corrupted)
    report = system.check_weak_solution(ops, bad)
    assert report.circuit_residuals[2] == pytest.approx(1e-3, rel=1e-6)


def test_weak_solution_zero_trajectory(default_small):
    cfg, ops, _, _ = default_small
    from dataclasses import replace

    quiet = replace(
        cfg, voltage=system.VoltageSignal("step", np.array([0.0]))
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
        cfg, voltage=system.VoltageSignal("step", np.array([0.0]))
    )
    traj = system.solve(quiet, ops)
    assert np.all(traj.balance_residuals[1:] == 0.0)
    assert np.isnan(traj.balance_residuals[0])


def test_power_balance_equals_generic_energy_identity(default_small):
    """The circuit-level power balance and the abstract dissipation
    identity are the same defect, computed from different arrays."""
    cfg, ops, _, _ = default_small
    traj = system.solve(cfg, ops)
    rho = core.energy_identity_residual(traj)
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
    system below the PCG cutoff."""
    cfg = system.MQSConfig(n=10, T=4.0 / 64.0)
    assert (cfg.n - 1) ** 2 < core.PCG_MIN_DIM
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
    one factors in natural order, one factor per Newton system below the
    PCG cutoff, within 1e-12 scale of a run that orders every factor
    afresh."""
    cfg = system.MQSConfig(n=10)
    ops = system.build_system(cfg)[0]
    assert ops.n_dofs < core.PCG_MIN_DIM
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


@pytest.mark.parametrize("n", [8, 10])
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


@pytest.mark.parametrize("n", [10, 32])
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


@pytest.mark.parametrize("newton_tol", [1e-10, 1e-14])
def test_a_lagged_factor_solve_at_n16_matches_factoring_every_system(
        newton_tol, monkeypatch):
    """On the default problem at n = 16, above the cutoff, PCG leaves the
    trajectory within 1e-10 scale, and the Newton systems within 1 %, of
    a solve that factors every Newton system."""
    cfg = system.MQSConfig(n=16, newton_tol=newton_tol)
    ops = system.build_system(cfg)[0]
    assert ops.n_dofs >= core.PCG_MIN_DIM
    made, counts = record_newton_systems(monkeypatch)
    lagged = system.solve(cfg, ops)
    n_lagged = counts["systems"]
    assert made[0].pcg_systems > 0
    monkeypatch.setattr(core, "NewtonSystem", _FactorEverySystem)
    direct = system.solve(cfg, ops)
    n_direct = counts["systems"] - n_lagged
    assert abs(n_lagged - n_direct) <= 0.01 * n_direct
    scale = diagnostics.trajectory_scale(ops, direct)
    assert np.abs(lagged.fields - direct.fields).max() <= 1e-10 * scale
    assert np.abs(lagged.currents[1:] - direct.currents[1:]).max() <= (
        1e-10 * scale)


@pytest.mark.parametrize("n", [8, 16])
def test_each_newton_system_is_one_factor_or_one_pcg_solve(
        n, monkeypatch, tmp_path):
    """Every NewtonSystem of the experiment battery, on each side of the
    cutoff, took exactly one factor or one PCG solve per Newton system
    passed to it: factors + pcg_systems counts the Newton systems."""
    made, _ = record_newton_systems(monkeypatch)
    passed, real_solve = {}, core._solve_newton_system

    def counted(H, rhs, newton_system, tol=None):
        passed[id(newton_system)] = passed.get(id(newton_system), 0) + 1
        return real_solve(H, rhs, newton_system, tol)

    monkeypatch.setattr(core, "_solve_newton_system", counted)
    assert cli.dispatch(["experiment", "--set", f"mesh.n={n}",
                         "--out", str(tmp_path)]) == 0
    assert len(made) > 1
    assert (sum(ns.pcg_systems for ns in made) > 0) == (
        (n - 1) ** 2 >= core.PCG_MIN_DIM)
    for newton in made:
        assert newton.factors + newton.pcg_systems == passed.get(id(newton), 0)


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
    systems, 2 factors, 67 PCG solves and at most 200 CG iterations (191
    when this was written, with the projected start; 3 factors and 339
    from 0; PCG to 1e-10 ||rhs|| within 10 iterations took 4 factors and
    501)."""
    cfg = system.MQSConfig(n=32)
    ops = system.build_system(cfg)[0]
    made, counts = record_newton_systems(monkeypatch)
    system.solve(cfg, ops)
    (newton,) = made
    assert counts["systems"] == 69
    assert (newton.factors, newton.pcg_systems) == (2, 67)
    assert newton.cg_iters <= 200


@pytest.mark.parametrize("make_cfg, counts, max_cg_iters", [
    (multiwinding_config, (54, 108), 520),
    (lambda: system.MQSConfig(n=32), (2, 67), 350),
])
def test_a_predicted_pcg_miss_moves_no_factor_and_no_field(
        make_cfg, counts, max_cg_iters, monkeypatch):
    """Ending a CG attempt once its contraction shows it will miss changes
    neither the factors nor the PCG systems of a solve run to the full
    budget, and the fields stay within 1e-12 scale of it.  A guard on the
    CG iterations: the three-winding problem took 653 to the full budget
    and 449 with the early miss once step 1 could start at 0 (770 and 489
    when it started at a0)."""
    cfg = make_cfg()
    ops = system.build_system(cfg)[0]
    made, _ = record_newton_systems(monkeypatch)
    early = system.solve(cfg, ops)
    monkeypatch.setattr(core, "_pcg_will_miss", lambda *args: False)
    full = system.solve(cfg, ops)
    assert [(ns.factors, ns.pcg_systems) for ns in made] == [counts] * 2
    assert made[0].cg_iters <= max_cg_iters
    assert made[0].cg_iters <= made[1].cg_iters
    scale = diagnostics.trajectory_scale(ops, full)
    assert np.abs(early.fields - full.fields).max() <= 1e-12 * scale
    assert np.abs(early.currents[1:] - full.currents[1:]).max() <= (
        1e-12 * scale)


def test_projected_pcg_starts_keep_every_direction_a_descent_direction(
        monkeypatch):
    """On the three-winding problem, whose random a0 and sign-reversing
    voltages leave successive directions unrelated, every Newton direction
    d, projected start or not, has g^T d <= -1/2 d^T M d < 0: the prox
    quadratic 1/2 d^T M d + g^T d is at most 0 at d."""
    cfg = multiwinding_config()
    ops = system.build_system(cfg)[0]
    made, _ = record_newton_systems(monkeypatch)
    real_solve, margins = core._solve_newton_system, []

    def checked(H, rhs, newton_system, tol=None):
        d = real_solve(H, rhs, newton_system, tol)
        E = newton_system.E
        dMd = float(d @ (H @ d)) + float(np.sum(E.apply(d) ** 2)) / (
            newton_system.tau)
        margins.append(-float(rhs @ d) / (0.5 * dMd))  # g = -rhs
        return d

    monkeypatch.setattr(core, "_solve_newton_system", checked)
    system.solve(cfg, ops)
    (newton,) = made
    assert newton.projections > 0
    assert len(margins) == newton.factors + newton.pcg_systems
    assert max(margins) <= -1.0


def test_newton_system_counts_on_the_default_problem_at_n64(monkeypatch):
    """A guard on the projected start where it pays, the smooth transient
    of the default problem at n = 64: 68 Newton systems, at most 2
    factors and at most 200 CG iterations (2 and 188 when this was
    written; 4 factors and 301 from 0)."""
    cfg = system.MQSConfig(n=64)
    ops = system.build_system(cfg)[0]
    made, counts = record_newton_systems(monkeypatch)
    system.solve(cfg, ops)
    (newton,) = made
    assert counts["systems"] == 68
    assert newton.factors <= 2
    assert newton.cg_iters <= 200


def test_newton_system_counts_on_the_default_problem_at_n10(monkeypatch):
    """Below the cutoff every Newton system is factored: 69 systems, 69
    factors, no PCG solve."""
    cfg = system.MQSConfig(n=10)
    ops = system.build_system(cfg)[0]
    assert ops.n_dofs < core.PCG_MIN_DIM
    made, counts = record_newton_systems(monkeypatch)
    system.solve(cfg, ops)
    (newton,) = made
    assert counts["systems"] == 69
    assert (newton.factors, newton.pcg_systems) == (69, 0)


def test_newton_system_counts_on_the_default_problem_at_n16(monkeypatch):
    """Above the cutoff: the 69 Newton systems of factoring every one,
    in 2 factors and 67 PCG solves, with at most 170 CG iterations (158
    when this was written)."""
    cfg = system.MQSConfig(n=16)
    ops = system.build_system(cfg)[0]
    assert ops.n_dofs >= core.PCG_MIN_DIM
    made, counts = record_newton_systems(monkeypatch)
    system.solve(cfg, ops)
    (newton,) = made
    assert counts["systems"] == 69
    assert (newton.factors, newton.pcg_systems) == (2, 67)
    assert newton.cg_iters <= 170


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_direct_solves_of_default_newton_matrices_are_accurate(
        monkeypatch, n):
    """Factored with the supernode settings, the first Newton matrices of
    the default problem, MMD-ordered and then in natural order, leave a
    relative residual of at most 1e-12."""
    cfg = system.MQSConfig(n=n, T=2.0 / 64.0)
    ops = system.build_system(cfg)[0]
    systems, real_solve = [], core._solve_newton_system

    def recorded(H, rhs, newton_system, tol=None):
        systems.append((H, rhs, newton_system))
        return real_solve(H, rhs, newton_system, tol)

    monkeypatch.setattr(core, "_solve_newton_system", recorded)
    system.solve(cfg, ops)
    E, tau = systems[0][2].E, systems[0][2].tau
    newton = core.NewtonSystem(E, tau)
    for H, rhs, _ in systems[:2]:
        d = newton.solve(H, rhs)
        residual = H @ d + E.apply_adjoint(E.apply(d)) / tau - rhs
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)
    assert (newton.factors, newton.pcg_systems) == (2, 0)


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


_UNPATCHED_STEP = core.prox_step, core.newton_minimize, core._solve_newton_system


def record_prox_steps(monkeypatch, start_at_a0=False):
    """Per prox step of a solve: the candidate start it is given, Newton's
    start and its Newton systems.  With ``start_at_a0`` the first step
    recorded gets no candidate, so that Newton starts it at a0."""
    steps = []
    real_step, real_newton, real_solve = _UNPATCHED_STEP

    def prox_step(*args, x_start=None, **kwargs):
        if start_at_a0 and not steps:
            x_start = None
        steps.append({"x_start": x_start, "solves": 0})
        return real_step(*args, x_start=x_start, **kwargs)

    def newton_minimize(objective, gradient, hessian, x0, *args, **kwargs):
        steps[-1]["start"] = x0
        return real_newton(objective, gradient, hessian, x0, *args, **kwargs)

    def solve(*args, **kwargs):
        steps[-1]["solves"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(core, "prox_step", prox_step)
    monkeypatch.setattr(core, "newton_minimize", newton_minimize)
    monkeypatch.setattr(core, "_solve_newton_system", solve)
    return steps


def rough_three_windings():
    """The three-winding problem at n = 16, from its random a0."""
    return replace(multiwinding_config(), n=16)


def test_step_one_starts_a_rough_initial_field_at_zero(monkeypatch):
    """A random a0 is rough where E does not see it, so step 1's prox
    objective is lower at 0 and the guard starts Newton there: at most 4
    Newton systems (22 from a0 at n = 32, 16 at n = 16), with fields and
    currents within 1e-10 scale of a run whose step 1 starts at a0."""
    cfg = rough_three_windings()
    ops = system.build_system(cfg)[0]
    steps = record_prox_steps(monkeypatch)
    from_zero = system.solve(cfg, ops)
    first = steps[0]
    assert not first["x_start"].any() and not first["start"].any()
    assert first["solves"] <= 4
    steps = record_prox_steps(monkeypatch, start_at_a0=True)
    from_a0 = system.solve(cfg, ops)
    assert np.array_equal(steps[0]["start"], from_a0.fields[0])
    assert steps[0]["solves"] > 2 * first["solves"]
    scale = diagnostics.trajectory_scale(ops, from_a0)
    assert np.abs(from_zero.fields - from_a0.fields).max() <= 1e-10 * scale
    assert np.abs(from_zero.currents[1:] - from_a0.currents[1:]).max() <= (
        1e-10 * scale)


def test_step_one_keeps_a_consistent_initial_field(monkeypatch):
    """From the last field of a default solve the prox objective is lower
    at a0 than at the candidate 0, so the guard keeps a0 and step 1 takes
    the Newton systems it takes with no candidate."""
    cfg = system.MQSConfig(n=16)
    ops = system.build_system(cfg)[0]
    a0 = system.solve(cfg, ops).fields[-1]
    counts = {}
    for start_at_a0 in (False, True):
        steps = record_prox_steps(monkeypatch, start_at_a0)
        system.solve(cfg, ops, a0=a0)
        assert np.array_equal(steps[0]["start"], a0)
        counts[start_at_a0] = steps[0]["solves"]
        if not start_at_a0:
            assert not steps[0]["x_start"].any()  # the candidate 0
    assert counts[False] == counts[True] == 2


def test_step_one_of_a_zero_initial_field_gets_no_candidate(monkeypatch):
    """a0 = 0 is its own candidate: step 1 is given none, evaluates no
    extra objective, and starts Newton at a0."""
    cfg = system.MQSConfig(n=16)
    ops = system.build_system(cfg)[0]
    steps = record_prox_steps(monkeypatch)
    system.solve(cfg, ops)
    assert steps[0]["x_start"] is None
    assert steps[1]["x_start"] is not None


def _scaled(voltage, factor):
    if voltage.kind == "table":
        table = voltage.table.copy()
        table[:, 1:] *= factor
        return system.VoltageSignal("table", table=table)
    return system.VoltageSignal(voltage.kind, value=factor * voltage.value)


@pytest.mark.parametrize("make_cfg", [
    rough_three_windings,
    lambda: system.MQSConfig(n=8),
    lambda: system.MQSConfig(n=8, a0_kind="random", seed=5),
], ids=["three_windings_n16_random", "default_n8", "default_n8_random"])
def test_negated_voltage_and_initial_field_negate_the_run_bit_for_bit(
        make_cfg):
    """The energy is even and K odd, so v -> -v with a0 -> -a0 gives
    exactly -a and -i: every step, guard and factor sees negated data, and
    rounding to nearest commutes with negation.  A sign-asymmetric start or
    guard breaks it."""
    cfg = make_cfg()
    ops = system.build_system(cfg)[0]
    run = system.solve(cfg, ops)
    mirrored = system.solve(replace(cfg, voltage=_scaled(cfg.voltage, -1.0)),
                            ops,
                            a0=-run.fields[0])
    assert np.array_equal(mirrored.fields, -run.fields)
    assert np.array_equal(mirrored.currents[1:], -run.currents[1:])


def _relabeled(cfg, perm):
    """``cfg`` with winding j the old winding perm[j]: its rectangles, R's
    rows and columns and the voltage table's columns."""
    perm = list(perm)
    table = cfg.voltage.table[:, [0] + [1 + j for j in perm]]
    return replace(
        cfg, winding=fem.WindingSpec(
            tuple(cfg.winding.rectangles[j] for j in perm)),
        R=cfg.R[np.ix_(perm, perm)],
        voltage=system.VoltageSignal("table", table=table))


@pytest.mark.parametrize("perm", [(2, 0, 1), (1, 0, 2)], ids=["201", "102"])
@pytest.mark.parametrize("n", [8, 16])
def test_relabeled_windings_give_the_same_fields_and_permuted_currents(
        n, perm):
    """Numbering the windings otherwise is no change to the problem: the
    fields agree and current j is the old current perm[j], to rounding
    (the ordering of the circuit block may change).  An index slip
    between C, R and v breaks it."""
    cfg = replace(multiwinding_config(), n=n, seed=7)
    ops = system.build_system(cfg)[0]
    run = system.solve(cfg, ops)
    other = system.solve(_relabeled(cfg, perm))
    scale = diagnostics.trajectory_scale(ops, run)
    assert np.abs(other.fields - run.fields).max() <= 1e-12 * scale
    assert np.abs(other.currents[1:] - run.currents[1:, list(perm)]).max() <= (
        1e-12 * scale)


@pytest.mark.parametrize("make_cfg", [
    lambda n: system.MQSConfig(n=n, a0_kind="random", seed=3),
    lambda n: replace(multiwinding_config(), n=n),
], ids=["default_random", "three_windings_random"])
@pytest.mark.parametrize("n", [8, 16])
def test_a_linear_run_superposes(n, make_cfg):
    """With a constant reluctivity each step is linear in (a_{k-1}, v_k),
    so the run from (a0, 3.5 v) is the run from (a0, v) minus the run from
    (0, -2.5 v), to Newton's tolerance.  Any state dependence leaking into
    the linear path, or an affine term in the input, breaks it."""
    cfg = replace(make_cfg(n), model=material.constant_model(3.0))
    ops = system.build_system(cfg)[0]
    run = system.solve(cfg, ops)

    def driven(factor, a0):
        return system.solve(
            replace(cfg, voltage=_scaled(cfg.voltage, factor)), ops, a0=a0)

    whole = driven(3.5, run.fields[0])
    part = driven(-2.5, np.zeros(ops.n_dofs))
    scale = diagnostics.trajectory_scale(ops, whole)
    assert np.abs(whole.fields - (run.fields - part.fields)).max() <= (
        1e-11 * scale)
    assert np.abs(whole.currents[1:] - (run.currents[1:] - part.currents[1:])
                  ).max() <= 1e-11 * scale


def test_config_builds_one_prox_record_and_replace_rebuilds_it():
    """MQSConfig.prox is the ProxConfig of its fields, rebuilt by the
    uniqueness experiment's and the balance study's replace."""
    cfg = system.MQSConfig(n=8, T=0.5, tau=1.0 / 16.0, newton_tol=1e-9)
    assert cfg.prox == core.ProxConfig(1.0 / 16.0, 8, 1e-9)
    other = replace(cfg, newton_tol=1e-12)
    assert other.prox == core.ProxConfig(1.0 / 16.0, 8, 1e-12)
    finer = replace(cfg, tau=1.0 / 32.0)
    assert finer.prox == core.ProxConfig(1.0 / 32.0, 16, 1e-9)
    assert cfg.prox == core.ProxConfig(1.0 / 16.0, 8, 1e-9)
    assert "prox" not in repr(cfg)


def test_both_solve_paths_take_the_config_record(monkeypatch):
    """solve hands config.prox to solve_trajectory, solve_schur to every
    schur_step."""
    cfg = system.MQSConfig(n=8, T=0.25, tau=1.0 / 16.0)
    ops = system.build_system(cfg)[0]
    seen = []
    for module, name, at in ((core, "solve_trajectory", 4),
                             (system, "schur_step", 3)):
        real = getattr(module, name)

        def spy(*args, real=real, at=at, **kwargs):
            seen.append(args[at])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    system.solve(cfg, ops)
    system.solve_schur(cfg, ops)
    assert len(seen) == 1 + cfg.n_steps
    assert all(record is cfg.prox for record in seen)


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
    ("n", 8.5), ("n", "8"), ("seed", 1.5),
    ("seed", np.float64(3.0)),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValidationFailure, match=f"{field} must be an integer"):
        system.MQSConfig(**{"n": 8, field: value})


@pytest.mark.parametrize("make, message", [
    (lambda: core.ProxConfig(True, True),
     "n_steps must be an integer, got True"),
    (lambda: core.ProxConfig(0.1, 1, newton_tol=True),
     "newton_tol must be a real number, got True"),
    (lambda: system.MQSConfig(n=8, T=True, tau=0.5),
     "T must be a real number, got True"),
    (lambda: system.MQSConfig(n=8, tau=True), "tau must be a real number, "
     "got True"),
    (lambda: system.MQSConfig(n=True), "n must be an integer, got True"),
], ids=["prox-counts", "prox-newton_tol", "mqs-T", "mqs-tau", "mqs-n"])
def test_settings_refuse_bool_for_numbers_and_counts(make, message):
    """bool is a numbers.Integral, yet True is no count, step or size."""
    with pytest.raises(ValidationFailure) as info:
        make()
    assert str(info.value) == message


def test_config_accepts_numpy_integer_counts():
    cfg = system.MQSConfig(n=np.int64(8), seed=np.int32(3), T=0.25,
                           tau=0.0625)
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
    cfg = system.MQSConfig(n=8, model=material.constant_model(1.0),
                           R=np.array([[1e308]]))
    assert system._admissible_data(cfg)[2][0, 0] == pytest.approx(1e-154)
    with pytest.raises(ValidationFailure) as info:
        system._admissible_data(
            replace(cfg, R=np.array([[1e308, -1e308], [1e308, 1e308]])))
    assert "resistance matrix R must be symmetric" in info.value.reasons


@pytest.mark.parametrize("field, value", [
    ("seed", 10 ** 23), ("n", -10 ** 20),
])
def test_config_names_an_integer_beyond_64_bits(field, value):
    with pytest.raises(ValidationFailure,
                       match=f"^{field} is out of range, got {value}$"):
        system.MQSConfig(**{field: value})
    with pytest.raises(ValidationFailure, match="out of range"):
        system.VoltageSignal("step", [1.0, value])


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


def test_solve_schur_keeps_one_newton_system_for_all_its_steps(monkeypatch):
    """One NewtonSystem, of ops.E and the step tau, as the prox path's,
    serves every step of solve_schur, and every Newton matrix lies on one
    pattern, the one at a0 = 0 included, whose tangent has exact zeros:
    the pattern is ordered once, and every later factor is in natural
    order."""
    cfg = system.MQSConfig(n=8, T=8.0 / 64.0)
    ops = system.build_system(cfg)[0]
    made, _ = record_newton_systems(monkeypatch)
    specs, real_splu = [], core.spla.splu

    class Spla:
        def splu(self, A, **kwargs):
            specs.append(kwargs.get("permc_spec"))
            return real_splu(A, **kwargs)

    monkeypatch.setattr(core, "spla", Spla())
    system.solve_schur(cfg, ops)
    assert len(made) == 1
    assert made[0].E is ops.E and made[0].tau == cfg.tau
    assert specs[0] == "MMD_AT_PLUS_A"
    assert set(specs[1:]) == {"NATURAL"} and len(specs) > cfg.n_steps

SUBGRADIENT_CONFIGS = {
    "default": lambda: system.MQSConfig(n=16),
    "random_a0": lambda: system.MQSConfig(n=16, a0_kind="random", seed=7),
    "manufactured": diagnostics.manufactured_config,
    "multiwinding": multiwinding_config,
}


@pytest.fixture(scope="module")
def solved():
    """(cfg, ops, traj) of a SUBGRADIENT_CONFIGS problem by name, each
    solved once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            cfg = SUBGRADIENT_CONFIGS[name]()
            ops = system.build_system(cfg)[0]
            runs[name] = cfg, ops, system.solve(cfg, ops)
        return runs[name]
    return run


@pytest.mark.parametrize("name", sorted(SUBGRADIENT_CONFIGS))
def test_stored_subgradients_are_K_of_the_stored_fields(solved, name):
    """check_weak_solution reads eta_k from the trajectory, so it must be
    K of the stored field bit for bit at every k, also for the forced
    problem, whose prox steps minimize Phi minus a load."""
    _, ops, traj = solved(name)
    assert traj.subgradients.shape == traj.fields.shape
    for k in range(traj.n_steps + 1):
        assert np.array_equal(traj.subgradients[k], ops.K(traj.fields[k])), k


@pytest.mark.parametrize("name", ["default", "random_a0"])
def test_each_step_meets_the_discrete_subgradient_inclusion(solved, name):
    """E^T (f_k - r_k) = eta_k to Newton's tolerance newton_tol (1 +
    ||g(x_{k-1})||), g being step k's prox gradient, recomputed here."""
    cfg, ops, traj = solved(name)
    adjoint = ops.E.apply_adjoint
    for k in range(1, traj.n_steps + 1):
        f_k, r_k = traj.inputs[k - 1], traj.rates[k - 1]
        g_prev = ops.K(traj.fields[k - 1]) - adjoint(f_k)
        bound = cfg.newton_tol * (1.0 + np.linalg.norm(g_prev))
        defect = traj.subgradients[k] - adjoint(f_k - r_k)
        assert np.linalg.norm(defect) <= bound, k


def _loop_weak_residuals(ops, traj):
    """check_weak_solution's residuals formed one step at a time: the
    reference for its block products."""
    tau = traj.tau
    r1, r2 = np.empty(traj.n_steps), np.empty(traj.n_steps)
    for k in range(1, traj.n_steps + 1):
        da = traj.fields[k] - traj.fields[k - 1]
        field_res = ((ops.msigma @ da) / tau + traj.subgradients[k]
                     - ops.coupling @ traj.currents[k])
        r1[k - 1] = np.max(np.abs(field_res))
        flux_rate = (traj.fluxes[k] - traj.fluxes[k - 1]) / tau
        r2[k - 1] = np.linalg.norm(
            flux_rate + ops.R @ traj.currents[k] - traj.voltages[k])
    return r1, r2


@pytest.mark.parametrize("name", sorted(SUBGRADIENT_CONFIGS))
def test_weak_check_blocks_match_the_step_loop(solved, name, monkeypatch):
    """With one winding, the block products give every step's residuals
    bit for bit, in blocks of one step, of five and of the default size;
    with three, the coupling's and R's dense sums may round apart, within
    1e-15 of the trajectory scale."""
    _, ops, traj = solved(name)
    r1, r2 = _loop_weak_residuals(ops, traj)
    scale = diagnostics.trajectory_scale(ops, traj)
    for block_bytes in (1, 5 * 8 * ops.n_dofs, system.WEAK_CHECK_BLOCK_BYTES):
        monkeypatch.setattr(system, "WEAK_CHECK_BLOCK_BYTES", block_bytes)
        report = system.check_weak_solution(ops, traj)
        got = report.field_residuals, report.circuit_residuals
        if ops.m == 1:
            assert got[0].tobytes() == r1.tobytes()
            assert got[1].tobytes() == r2.tobytes()
        else:
            assert np.abs(got[0] - r1).max() <= 1e-15 * scale
            assert np.abs(got[1] - r2).max() <= 1e-15 * scale
        assert report.max_field_residual == got[0].max()


@pytest.mark.parametrize("n", [8, 16])
def test_direct_kernel_products_are_the_scipy_products(n):
    """core._matvec of every sparse operator of the Newton path, on a
    vector, a block, a column and non-contiguous or integer inputs, has the
    bytes of A @ x: a SciPy whose private kernels stop matching its public
    product fails here."""
    cfg = system.MQSConfig(n=n)
    ops, _, E = system.build_system(cfg)
    mesh, rng = ops.mesh, np.random.default_rng(n)
    a = 0.3 * rng.standard_normal(ops.n_dofs)
    newton = core.NewtonSystem(E, cfg.tau)
    newton.solve(ops.K_tangent(a), rng.standard_normal(ops.n_dofs))
    operators = {
        "E": E.matrix, "E^T": E.adjoint, "G": mesh.gradient_operator,
        "G^T": mesh.gradient_transpose, "S": mesh.slot_operator,
        "A": newton._pattern[2], "tangent": ops.K_tangent(a),
        "M_sigma": ops.msigma,
    }
    assert {A.format for A in operators.values()} == {"csr", "csc"}
    for name, A in operators.items():
        wide = rng.standard_normal((A.shape[1], 6))
        inputs = {
            "vector": wide[:, 0].copy(), "block": wide[:, :3].copy(),
            "strided vector": wide[:, 1], "strided block": wide[:, ::2],
            "F-ordered block": np.asfortranarray(wide), "column": wide[:, :1],
            "integer vector": np.arange(A.shape[1]),
        }
        for kind, x in inputs.items():
            got, want = core._matvec(A, x), A @ x
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (name, kind)


def test_direct_kernel_products_reject_a_wrong_length():
    """The compiled kernel checks no length, so _matvec hands a wrong one
    to A @ x, which raises SciPy's ValueError."""
    ops = system.build_system(system.MQSConfig(n=8))[0]
    for A in (ops.mesh.gradient_operator, ops.mesh.gradient_transpose,
              ops.msigma):
        n_col = A.shape[1]
        for shape in ((n_col + 1,), (n_col - 1,), (n_col - 1, 3),
                      (n_col + 1, 1)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                core._matvec(A, np.ones(shape))


def test_a_tangent_on_the_kept_pattern_is_known_by_identity(monkeypatch):
    """NewtonSystem knows a tangent's pattern by its shared read-only index
    arrays: with the byte comparison patched out, a second tangent keeps
    the pattern and its ordering, and its direction has the bytes of one
    whose index arrays are copies, which the byte comparison matches."""
    cfg = system.MQSConfig(n=8)
    ops, _, E = system.build_system(cfg)
    rng = np.random.default_rng(17)
    a1, a2 = 0.3 * rng.standard_normal((2, ops.n_dofs))
    rhs = rng.standard_normal(ops.n_dofs)

    def copied(J):
        return sp.csc_matrix((J.data, J.indices.copy(), J.indptr.copy()),
                             shape=J.shape)

    by_bytes = core.NewtonSystem(E, cfg.tau)
    by_bytes.solve(copied(ops.K_tangent(a1)), rhs)
    want = by_bytes.solve(copied(ops.K_tangent(a2)), rhs)
    assert by_bytes._shared is None
    shared = core.NewtonSystem(E, cfg.tau)
    shared.solve(ops.K_tangent(a1), rhs)
    kept = shared._pattern

    def no_bytes(H):
        raise AssertionError("the kept pattern was compared by its bytes")

    monkeypatch.setattr(core, "_index_bytes", no_bytes)
    got = shared.solve(ops.K_tangent(a2), rhs)
    assert shared._pattern is kept and shared.factors == 2
    assert got.tobytes() == want.tobytes()

"""Experiments, convergence studies, and the CSV/VTK writers."""

import numpy as np
import pytest

from mqsflow import core, diagnostics, fem, system
from mqsflow.errors import InsufficientLevels


@pytest.fixture(scope="module")
def small_run():
    cfg = system.MQSConfig(n=16, tau=1.0 / 16.0)
    ops = system.build_system(cfg)[0]
    traj = system.solve(cfg, ops)
    return cfg, ops, traj


def test_observed_order_on_synthetic_sequence():
    errors = [2.0 ** -k for k in range(6)]
    assert diagnostics.observed_order(errors) == pytest.approx(1.0)
    errors = [4.0 ** -k for k in range(5)]
    assert diagnostics.observed_order(errors) == pytest.approx(2.0)


def test_power_balance_series(small_run, tmp_path):
    _, _, traj = small_run
    out = diagnostics.power_balance_series(traj, tmp_path / "pb.csv")
    assert out["delta"].shape == (traj.n_steps,)
    assert out["max_abs"] == pytest.approx(
        np.max(np.abs(traj.balance_residuals[1:]))
    )
    assert np.allclose(out["cumulative"], np.cumsum(out["delta"]))
    assert (tmp_path / "pb.csv").exists()


def test_balance_order_needs_three_levels(small_run):
    cfg, ops, _ = small_run
    with pytest.raises(InsufficientLevels):
        diagnostics.balance_order_study(cfg, ops, taus=(0.1, 0.05))


def test_invisible_perturbation_properties(small_run):
    """The constructed perturbation must vanish in the metric image."""
    _, ops, _ = small_run
    w = diagnostics._invisible_perturbation(ops, seed=11)
    assert np.linalg.norm(w) > 0
    assert np.abs(ops.msigma @ w).max() < 1e-14
    assert np.abs(ops.coupling.T @ w).max() < 1e-12 * (1 + np.abs(w).max())


def test_uniqueness_experiment(small_run):
    result = diagnostics.perturbation_experiments(*small_run, "uniqueness")
    assert result.passed
    assert result.measured["discrepancy"] <= result.measured["bound"]


def test_initializability_experiment(small_run):
    result = diagnostics.perturbation_experiments(*small_run,
                                                  "initializability")
    assert result.passed


def test_adversarial_initializability_fails_as_designed(small_run):
    result = diagnostics.perturbation_experiments(
        *small_run, "initializability", adversarial=True
    )
    assert not result.passed
    assert result.measured["discrepancy"] > result.measured["bound"]


def test_unknown_experiment_kind_rejected(small_run):
    with pytest.raises(ValueError):
        diagnostics.perturbation_experiments(*small_run, "telepathy")


def test_convergence_study_insufficient_levels():
    cfg = diagnostics.manufactured_config(n=8)
    with pytest.raises(InsufficientLevels):
        diagnostics.convergence_study(cfg, 2, "tau")
    with pytest.raises(ValueError):
        diagnostics.convergence_study(cfg, 3, "sideways")


def test_manufactured_field_boundary_and_growth():
    assert diagnostics.manufactured_field(0.0, 0.5, 1.0) == pytest.approx(0.0)
    assert diagnostics.manufactured_field(0.5, 1.0, 1.0) == pytest.approx(
        0.0, abs=1e-15
    )
    v1 = diagnostics.manufactured_field(0.5, 0.5, 0.5)
    v2 = diagnostics.manufactured_field(0.5, 0.5, 2.0)
    assert 0 < v1 < v2 < 1.0


def test_energy_norm_error_vanishes_for_interpolant_limit():
    """The measured energy error of the solved field decreases with n."""
    e = []
    for n in (8, 16):
        cfg = diagnostics.manufactured_config(n=n, tau=1.0 / 64.0, T=0.5)
        ops = system.build_system(cfg)[0]
        traj = system.solve(cfg, ops)
        e.append(diagnostics.energy_norm_error(ops, traj.fields[-1], 0.5))
    assert e[1] < 0.7 * e[0]


def test_timeseries_csv_round_trip(small_run, tmp_path):
    """Floats survive the write-read cycle bit-exactly."""
    _, _, traj = small_run
    path = tmp_path / "run.csv"
    diagnostics.write_timeseries_csv(traj, path)
    cols = diagnostics.read_timeseries_csv(path)
    assert np.array_equal(cols["t"], traj.times)
    assert np.array_equal(cols["energy"], traj.energies)
    assert np.array_equal(cols["flux_1"], traj.fluxes[:, 0])
    assert np.array_equal(
        cols["i_1"], traj.currents[:, 0], equal_nan=True
    )
    assert np.array_equal(
        cols["balance_residual"], traj.balance_residuals, equal_nan=True
    )


def test_timeseries_csv_header_and_empty_fields(small_run, tmp_path):
    _, _, traj = small_run
    path = tmp_path / "run.csv"
    diagnostics.write_timeseries_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,i_1,flux_1,energy,balance_residual"
    first = lines[1].split(",")
    assert first[1] == ""  # current undefined at k = 0
    assert first[4] == ""  # balance residual undefined at k = 0


def test_timeseries_csv_single_state_trajectory(tmp_path):
    """A trajectory holding only the initial state yields header + 1 row
    with the undefined fields empty."""
    traj = system.MQSTrajectory(
        times=np.array([0.0]),
        fields=np.zeros((1, 4)),
        currents=np.full((1, 2), np.nan),
        energies=np.zeros(1),
        fluxes=np.zeros((1, 2)),
        balance_residuals=np.array([np.nan]),
        voltages=np.zeros((1, 2)),
        core_trajectory=None,
    )
    path = tmp_path / "tiny.csv"
    diagnostics.write_timeseries_csv(traj, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "t,i_1,i_2,flux_1,flux_2,energy,balance_residual"
    assert lines[1] == "0.0,,,0.0,0.0,0.0,"


def test_csv_writes_are_deterministic(small_run, tmp_path):
    _, _, traj = small_run
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    diagnostics.write_timeseries_csv(traj, p1)
    diagnostics.write_timeseries_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_vtk_writer_zero_field(tmp_path):
    mesh, dofs = fem.build_mesh(8, (0.5, 0.5, 0.2))
    path = tmp_path / "field.vtk"
    diagnostics.write_field_vtk(mesh, dofs, np.zeros(dofs.n_dofs), path)
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in text
    i = text.index("SCALARS A_z double 1")
    values = text[i + 2:i + 2 + mesh.n_vertices]
    assert all(v == "0.0" for v in values)
    assert "SCALARS subdomain int 1" in text
    j = text.index("SCALARS subdomain int 1")
    labels = {int(v) for v in text[j + 2:j + 2 + mesh.n_elements]}
    assert labels == {0, 1}


def test_vtk_point_data_matches_field(small_run, tmp_path):
    _, ops, traj = small_run
    path = tmp_path / "field.vtk"
    diagnostics.write_field_vtk(ops.mesh, ops.dofs, traj.fields[-1], path)
    text = path.read_text().splitlines()
    i = text.index("SCALARS A_z double 1")
    values = np.array(
        [float(v) for v in text[i + 2:i + 2 + ops.mesh.n_vertices]]
    )
    a_vert = np.zeros(ops.mesh.n_vertices)
    a_vert[ops.dofs.dof_to_vertex] = traj.fields[-1]
    assert np.array_equal(values, a_vert)


def test_summary_writers(tmp_path):
    results = [
        diagnostics.ExperimentResult("alpha", True, {"x": 1.0}),
        diagnostics.ExperimentResult("beta", False, {"y": 2.5}),
    ]
    table_path, kv_path = diagnostics.write_summary(results, tmp_path)
    table = open(table_path).read()
    assert "PASS" in table and "FAIL" in table
    kv = open(kv_path).read().splitlines()
    assert "alpha.pass=true" in kv
    assert "beta.pass=false" in kv
    assert "beta.y=2.5" in kv


def test_trajectory_scale(small_run):
    _, ops, traj = small_run
    s = diagnostics.trajectory_scale(ops, traj)
    assert s > 1.0
    norms = np.sqrt(np.einsum(
        "ki,ki->k", traj.fields, (ops.stiffness @ traj.fields.T).T
    ))
    assert s >= 1.0 + norms.max()

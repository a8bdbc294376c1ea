"""Experiments, convergence studies, and the CSV/VTK writers."""

from pathlib import Path

import numpy as np
import pytest

from mqsflow import diagnostics, fem, material, system
from mqsflow.errors import ValidationFailure


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


def test_balance_order_needs_three_levels(small_run):
    cfg, ops, _ = small_run
    with pytest.raises(ValidationFailure):
        diagnostics.balance_order_study(cfg, ops, taus=(0.1, 0.05))


def test_balance_order_study_reuses_the_trajectory_at_its_step_size(
        monkeypatch):
    cfg = system.MQSConfig(n=8)
    assert cfg.tau in diagnostics.BALANCE_TAUS
    ops = system.build_system(cfg)[0]
    traj = system.solve(cfg, ops)
    alone = diagnostics.balance_order_study(cfg, ops)
    solves = []
    real = system.solve

    def counted(*args, **kwargs):
        solves.append(args[0].tau)
        return real(*args, **kwargs)

    monkeypatch.setattr(system, "solve", counted)
    reused = diagnostics.balance_order_study(cfg, ops, traj=traj)
    assert len(solves) == 4 and cfg.tau not in solves
    assert reused == alone


def test_invisible_perturbation_properties(small_run):
    """The constructed perturbation must vanish in the metric image."""
    _, ops, _ = small_run
    w = diagnostics._invisible_perturbation(ops, seed=11)
    assert np.linalg.norm(w) > 0
    assert np.abs(ops.msigma @ w).max() < 1e-14
    assert np.abs(ops.coupling.T @ w).max() < 1e-12 * (1 + np.abs(w).max())


def test_invisible_perturbation_lives_on_the_dofs_off_the_conductor(
        small_run):
    """Its support is exactly the dofs that touch no conducting element."""
    ops = small_run[1]
    no_conductor = system.build_system(
        system.MQSConfig(n=8, conductor_radius=0.0))[0]
    supports = []
    for ops in (ops, no_conductor):
        mesh = ops.mesh
        off = np.ones(mesh.n_vertices, dtype=bool)
        off[mesh.triangles[mesh.element_labels == fem.LABEL_C]] = False
        supports.append(off[mesh.dof_to_vertex])
        for visible in (False, True):
            w = diagnostics._invisible_perturbation(ops, seed=11,
                                                    visible=visible)
            assert np.array_equal(w != 0.0, supports[-1])
    assert not supports[0].all() and supports[1].all()


def test_uniqueness_experiment(small_run):
    result = diagnostics.perturbation_experiments(*small_run, "uniqueness")
    assert result.passed
    assert result.measured["discrepancy"] <= result.measured["bound"]


def test_uniqueness_partner_is_one_tight_schur_witness(small_run,
                                                       monkeypatch):
    """The partner is system.solve_schur at newton_tol 1e-12, never a
    second prox solve, and the bound's scale is the first run's alone."""
    cfg, ops, traj = small_run
    real, tols = system.solve_schur, []

    def schur(config, ops):
        tols.append(config.newton_tol)
        return real(config, ops)

    def solve(*args, **kwargs):
        raise AssertionError("system.solve reached")

    monkeypatch.setattr(system, "solve_schur", schur)
    monkeypatch.setattr(system, "solve", solve)
    result = diagnostics.perturbation_experiments(cfg, ops, traj, "uniqueness")
    assert result.passed and tols == [1e-12]
    assert result.measured["scale"] == diagnostics.trajectory_scale(ops, traj)


def test_uniqueness_fails_on_a_witness_one_step_off(small_run, monkeypatch):
    """A witness whose field at one step is moved by 1e-6 * scale, far
    beyond the bound of 100 * newton_tol * scale, fails the experiment."""
    cfg, ops, traj = small_run
    scale = diagnostics.trajectory_scale(ops, traj)
    real = system.solve_schur

    def moved(config, ops):
        fields = real(config, ops)
        fields[5, 0] += 1e-6 * scale
        return fields

    monkeypatch.setattr(system, "solve_schur", moved)
    result = diagnostics.perturbation_experiments(cfg, ops, traj, "uniqueness")
    assert not result.passed
    assert result.measured["discrepancy"] == pytest.approx(1e-6 * scale,
                                                           rel=1e-2)


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
    with pytest.raises(ValidationFailure):
        diagnostics.convergence_study(cfg, 2, "tau")
    with pytest.raises(ValueError):
        diagnostics.convergence_study(cfg, 3, "sideways")


@pytest.mark.parametrize("n, refine, fragment", [
    (80, "both", "n must be at most 256, got 320"),
    (80, "h", "n must be at most 256, got 320"),
    (256, "tau", "exceeds the cap of 10000000 dof-steps"),
])
def test_convergence_study_checks_every_level_before_solving(
        monkeypatch, n, refine, fragment):
    """An over-cap level is rejected before the first solve, and with
    refine="both" before the tau study too."""
    def solve(*args, **kwargs):
        raise AssertionError("solved before every level was checked")

    monkeypatch.setattr(system, "solve", solve)
    with pytest.raises(ValidationFailure, match=fragment):
        diagnostics.convergence_study(
            diagnostics.manufactured_config(n=n), 3, refine)


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
    cols = np.genfromtxt(path, delimiter=",", names=True)
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
        states=np.zeros((1, 4)),
        rates=np.zeros((0, 3)),
        energies=np.zeros(1),
        inputs=np.zeros((0, 3)),
        subgradients=np.zeros((1, 4)),
        currents=np.full((1, 2), np.nan),
        fluxes=np.zeros((1, 2)),
        balance_residuals=np.array([np.nan]),
        voltages=np.zeros((1, 2)),
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
    mesh = fem.build_mesh(8, (0.5, 0.5, 0.2))
    path = tmp_path / "field.vtk"
    diagnostics.write_field_vtk(mesh, np.zeros(mesh.n_dofs), path)
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
    diagnostics.write_field_vtk(ops.mesh, traj.fields[-1], path)
    text = path.read_text().splitlines()
    i = text.index("SCALARS A_z double 1")
    values = np.array(
        [float(v) for v in text[i + 2:i + 2 + ops.mesh.n_vertices]]
    )
    a_vert = np.zeros(ops.mesh.n_vertices)
    a_vert[ops.mesh.dof_to_vertex] = traj.fields[-1]
    assert np.array_equal(values, a_vert)


def _element_wise_csv(traj):
    """The CSV text formatted one numpy scalar at a time."""
    fmt = lambda x: repr(float(x))  # noqa: E731
    m = traj.currents.shape[1]
    lines = [",".join(["t"] + [f"i_{j + 1}" for j in range(m)]
                      + [f"flux_{j + 1}" for j in range(m)]
                      + ["energy", "balance_residual"])]
    for k in range(traj.times.shape[0]):
        row = [fmt(traj.times[k])]
        row += ["" if np.isnan(v) else fmt(v) for v in traj.currents[k]]
        row += [fmt(v) for v in traj.fluxes[k]]
        row.append(fmt(traj.energies[k]))
        b = traj.balance_residuals[k]
        row.append("" if np.isnan(b) else fmt(b))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _element_wise_vtk(mesh, a, title):
    """The VTK text formatted one numpy scalar at a time."""
    fmt = lambda x: repr(float(x))  # noqa: E731
    a_vert = np.zeros(mesh.n_vertices)
    a_vert[mesh.dof_to_vertex] = a
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{fmt(x)} {fmt(y)} 0.0")
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    for tri in mesh.triangles:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend(["5"] * mesh.n_elements)
    lines += [f"POINT_DATA {mesh.n_vertices}", "SCALARS A_z double 1",
              "LOOKUP_TABLE default"]
    lines.extend(fmt(v) for v in a_vert)
    lines += [f"CELL_DATA {mesh.n_elements}", "SCALARS subdomain int 1",
              "LOOKUP_TABLE default"]
    lines.extend(str(int(lab)) for lab in mesh.element_labels)
    return "\n".join(lines) + "\n"


def test_writers_match_element_wise_formatting(tmp_path):
    cfg = system.MQSConfig(n=8, a0_kind="random")
    ops = system.build_system(cfg)[0]
    traj = system.solve(cfg, ops)
    csv_path, vtk_path = tmp_path / "run.csv", tmp_path / "run.vtk"
    diagnostics.write_timeseries_csv(traj, csv_path)
    diagnostics.write_field_vtk(ops.mesh, traj.fields[-1], vtk_path)
    assert csv_path.read_bytes() == _element_wise_csv(traj).encode()
    assert vtk_path.read_bytes() == _element_wise_vtk(
        ops.mesh, traj.fields[-1], "mqsflow field").encode()


def test_summary_writers(tmp_path):
    results = [
        diagnostics.ExperimentResult("alpha", True, {"x": 1.0}),
        diagnostics.ExperimentResult("beta", False, {"y": 2.5}),
    ]
    table_path, kv_path = diagnostics.write_summary(results, tmp_path)
    table = Path(table_path).read_text()
    assert "PASS" in table and "FAIL" in table
    kv = Path(kv_path).read_text().splitlines()
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


def _pairwise_probe(ops, n_pairs, seed, scale=1.0):
    """The monotonicity probe's measured values, one K per field."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_pairs):
        a = scale * rng.standard_normal(ops.n_dofs)
        b = scale * rng.standard_normal(ops.n_dofs)
        d = a - b
        denom = ops.m_hat * float(d @ (ops.stiffness @ d))
        if denom > 0:
            ratios.append(float(d @ (ops.K(a) - ops.K(b))) / denom)
    return {"min_ratio": float(min(ratios)) if ratios else np.inf,
            "n_checked": len(ratios)}


@pytest.mark.parametrize("block_bytes", [1, diagnostics.PROBE_BLOCK_BYTES])
def test_the_blocked_probe_measures_what_one_k_per_field_does(
        block_bytes, monkeypatch):
    """Blocks of pairs, one pair each or many with the last one partial,
    give the probe's min_ratio and count bit for bit, on a model with
    distinct curves per region."""
    model = material.ReluctivityModel("rational_saturation", {
        "C": {"nu_min": 1.0, "nu_max": 5.0},
        "I": {"nu_min": 2.0, "nu_max": 3.0}})
    ops = system.build_system(system.MQSConfig(n=12, model=model))[0]
    monkeypatch.setattr(diagnostics, "PROBE_BLOCK_BYTES", block_bytes)
    for n_pairs in (1, 7, 200):
        result = diagnostics.monotonicity_probe(ops, n_pairs=n_pairs, seed=5)
        assert result.measured == _pairwise_probe(ops, n_pairs, seed=5)

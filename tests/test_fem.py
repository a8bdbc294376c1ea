"""Mesh construction and P1 assembly against independent oracles."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mqsflow import fem, material
from mqsflow.errors import GeometryError, WindingOverlapsConductor

DISK = (0.5, 0.5, 0.2)


def test_mesh_counts_and_dofs():
    n = 8
    mesh, dofs = fem.build_mesh(n, DISK)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_elements == 2 * n * n
    assert dofs.n_dofs == (n - 1) ** 2


def test_mesh_areas_sum_to_unit_square():
    mesh, _ = fem.build_mesh(8, DISK)
    areas, _ = fem._geometry(mesh)
    assert np.all(areas > 0)
    assert np.sum(areas) == pytest.approx(1.0, abs=1e-14)


def test_refined_mesh_vertices_are_nested():
    coarse, _ = fem.build_mesh(8, DISK)
    fine, _ = fem.build_mesh(16, DISK)
    fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
    assert all(tuple(np.round(v, 12)) in fine_set for v in coarse.vertices)


def test_conductor_labeling_area():
    mesh, _ = fem.build_mesh(64, DISK)
    areas, _ = fem._geometry(mesh)
    c_area = areas[mesh.element_labels == fem.LABEL_C].sum()
    assert c_area == pytest.approx(np.pi * 0.2 ** 2, rel=0.02)


def test_geometry_errors():
    with pytest.raises(GeometryError):
        fem.build_mesh(2, DISK)
    with pytest.raises(GeometryError):
        fem.build_mesh(8, (0.5, 0.5, 0.49))  # violates boundary clearance
    with pytest.raises(GeometryError):
        fem.build_mesh(8, (0.5, 0.5, -0.1))


def test_mass_matrix_row_sums_are_hat_integrals():
    """M row sums equal int phi_i = (sum of incident element areas) / 3."""
    n = 8
    mesh, dofs = fem.build_mesh(n, DISK)
    _, M = fem.assemble_sigma_mass(mesh, dofs, 1.0)
    row_sums = np.asarray(M.sum(axis=1)).ravel()
    areas, _ = fem._geometry(mesh)
    expected = np.zeros(mesh.n_vertices)
    for e, tri in enumerate(mesh.triangles):
        expected[tri] += areas[e] / 3.0
    # boundary columns are eliminated, so the identity holds only for dofs
    # whose hat support contains no boundary vertex
    adj = np.zeros(mesh.n_vertices, dtype=bool)
    for tri in mesh.triangles:
        if np.any(mesh.boundary_vertex_flags[tri]):
            adj[tri] = True
    strict = ~adj[dofs.dof_to_vertex]
    assert np.allclose(
        row_sums[strict], expected[dofs.dof_to_vertex][strict], atol=1e-14
    )


def test_sigma_mass_restricted_to_conductor():
    mesh, dofs = fem.build_mesh(16, DISK)
    M_sigma, M = fem.assemble_sigma_mass(mesh, dofs, 2.0)
    areas, _ = fem._geometry(mesh)
    c_area = areas[mesh.element_labels == fem.LABEL_C].sum()
    ones = np.ones(dofs.n_dofs)
    # conductor is interior, so 1^T M_sigma 1 = sigma * |Omega_C|
    assert ones @ (M_sigma @ ones) == pytest.approx(2.0 * c_area, rel=1e-12)
    assert (M - M_sigma / 2.0).min() is not None  # shapes compatible


def test_stiffness_matches_laplace_eigenvalue():
    """Smallest pencil eigenvalue K x = lambda M x approximates 2 pi^2."""
    mesh, dofs = fem.build_mesh(32, None)
    K = fem.assemble_stiffness(mesh, dofs)
    _, M = fem.assemble_sigma_mass(mesh, dofs, 1.0)
    w = spla.eigsh(K.tocsc(), k=1, M=M.tocsc(), sigma=0.0, which="LM",
                   return_eigenvectors=False)
    assert w[0] == pytest.approx(2 * np.pi ** 2, rel=0.01)


def test_stiffness_exact_on_linear_field():
    """K applied to the interpolant of x + 2y gives boundary-only residual:
    interior rows must vanish since linear fields are harmonic."""
    mesh, dofs = fem.build_mesh(8, None)
    coords = mesh.vertices[dofs.dof_to_vertex]
    a = coords[:, 0] + 2.0 * coords[:, 1]
    K = fem.assemble_stiffness(mesh, dofs)
    r = K @ a
    # rows of strictly interior dofs (vertices not adjacent to boundary)
    adj = np.zeros(mesh.n_vertices, dtype=bool)
    for tri in mesh.triangles:
        if np.any(mesh.boundary_vertex_flags[tri]):
            adj[tri] = True
    strict = ~adj[dofs.dof_to_vertex]
    assert np.max(np.abs(r[strict])) < 1e-12


def test_curlcurl_residual_linear_case():
    mesh, dofs = fem.build_mesh(8, DISK)
    model = material.constant_model(3.0)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(dofs.n_dofs)
    K = fem.assemble_stiffness(mesh, dofs)
    assert np.allclose(
        fem.curlcurl_residual(mesh, dofs, model, a), 3.0 * (K @ a),
        atol=1e-12,
    )


def test_curlcurl_jacobian_matches_finite_difference():
    mesh, dofs = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    rng = np.random.default_rng(2)
    a = 0.2 * rng.standard_normal(dofs.n_dofs)
    v = rng.standard_normal(dofs.n_dofs)
    J = fem.curlcurl_jacobian(mesh, dofs, model, a)
    h = 1e-6
    fd = (
        fem.curlcurl_residual(mesh, dofs, model, a + h * v)
        - fem.curlcurl_residual(mesh, dofs, model, a - h * v)
    ) / (2 * h)
    assert np.linalg.norm(J @ v - fd) < 1e-6 * (1 + np.linalg.norm(fd))


def test_magnetic_energy_linear_case():
    mesh, dofs = fem.build_mesh(8, DISK)
    model = material.constant_model(2.0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(dofs.n_dofs)
    K = fem.assemble_stiffness(mesh, dofs)
    assert fem.magnetic_energy(mesh, dofs, model, a) == pytest.approx(
        a @ (K @ a), rel=1e-12
    )


def test_energy_zero_at_zero_field():
    mesh, dofs = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    assert fem.magnetic_energy(mesh, dofs, model, np.zeros(dofs.n_dofs)) == 0.0
    assert np.all(
        fem.curlcurl_residual(mesh, dofs, model, np.zeros(dofs.n_dofs)) == 0.0
    )


def test_coupling_column_integral():
    """Sum over all rows of C_ij recovers int chi_j for windings whose
    support avoids boundary-adjacent elements (hat functions sum to 1)."""
    winding = fem.WindingSpec(rectangles=((
        (0.25, 0.375, 0.25, 0.375, 8.0),
    ),))
    mesh, dofs = fem.build_mesh(16, None)
    C = fem.assemble_coupling(mesh, dofs, winding)
    assert C.sum() == pytest.approx(8.0 * 0.125 * 0.125, rel=1e-12)


def test_zero_strength_winding_gives_zero_coupling():
    winding = fem.WindingSpec(rectangles=(((0.1, 0.2, 0.4, 0.6, 0.0),),))
    mesh, dofs = fem.build_mesh(8, DISK)
    C = fem.assemble_coupling(mesh, dofs, winding)
    assert np.all(C == 0.0)


def test_winding_overlapping_conductor_rejected():
    winding = fem.WindingSpec(rectangles=(((0.4, 0.6, 0.4, 0.6, 1.0),),))
    mesh, dofs = fem.build_mesh(8, DISK)
    with pytest.raises(WindingOverlapsConductor):
        fem.assemble_coupling(mesh, dofs, winding)


def test_load_vector_constant_function():
    """For f = 1 the load entries are the exact hat integrals, which on the
    alternating-diagonal mesh are (incident area)/3 per vertex."""
    mesh, dofs = fem.build_mesh(8, None)
    load = fem.assemble_load(mesh, dofs, lambda x, y: np.ones_like(x))
    areas, _ = fem._geometry(mesh)
    expected = np.zeros(mesh.n_vertices)
    for e, tri in enumerate(mesh.triangles):
        expected[tri] += areas[e] / 3.0
    assert np.allclose(load, expected[dofs.dof_to_vertex], atol=1e-14)
    assert load.sum() == pytest.approx(
        expected[dofs.dof_to_vertex].sum(), abs=1e-14
    )


def test_coercivity_constant_no_conductor_approaches_analytic():
    values = [
        fem.estimate_coercivity_constant(*fem.build_mesh(n, None))
        for n in (8, 16, 32)
    ]
    target = 1.0 / (2 * np.pi ** 2)
    # monotone from below on nested meshes, converging to 1/(2 pi^2)
    assert values[0] < values[1] < values[2] < target
    assert values[2] == pytest.approx(target, rel=0.01)


def test_coercivity_constant_with_conductor_is_smaller():
    plain = fem.estimate_coercivity_constant(*fem.build_mesh(16, None))
    with_c = fem.estimate_coercivity_constant(*fem.build_mesh(16, DISK))
    assert 0 < with_c < plain


def test_coercivity_constant_is_deterministic():
    # n = 16 has 225 dofs, above the dense cutoff: the ARPACK path
    mesh, dofs = fem.build_mesh(16, DISK)
    values = {fem.estimate_coercivity_constant(mesh, dofs) for _ in range(5)}
    assert len(values) == 1


def test_filtered_load_vanishes_off_the_filter():
    mesh, dofs = fem.build_mesh(8, DISK)
    conducting = mesh.element_labels == fem.LABEL_C

    def one(x, y):
        return np.ones_like(x)

    inside = fem.assemble_load(mesh, dofs, one, element_filter=conducting)
    outside = fem.assemble_load(mesh, dofs, one, element_filter=~conducting)
    total = fem.assemble_load(mesh, dofs, one)
    assert np.allclose(inside + outside, total, atol=1e-15)
    areas, _ = fem._geometry(mesh)
    assert inside.sum() == pytest.approx(areas[conducting].sum(), abs=1e-14)

"""Mesh construction and P1 assembly against independent oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
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


def _coercivity_constant(n, disk):
    mesh, dofs = fem.build_mesh(n, disk)
    mass_C, mass = fem.assemble_sigma_mass(mesh, dofs, 1.0)
    return fem.estimate_coercivity_constant(
        mass_C, fem.assemble_stiffness(mesh, dofs), mass)


def test_coercivity_constant_no_conductor_approaches_analytic():
    values = [_coercivity_constant(n, None) for n in (8, 16, 32)]
    target = 1.0 / (2 * np.pi ** 2)
    # monotone from below on nested meshes, converging to 1/(2 pi^2)
    assert values[0] < values[1] < values[2] < target
    assert values[2] == pytest.approx(target, rel=0.01)


def test_coercivity_constant_with_conductor_is_smaller():
    plain = _coercivity_constant(16, None)
    with_c = _coercivity_constant(16, DISK)
    assert 0 < with_c < plain


def test_coercivity_constant_is_deterministic():
    # ARPACK from a fixed start vector, at 49 and at 225 dofs
    for n in (8, 16):
        mesh, dofs = fem.build_mesh(n, DISK)
        mass_C, mass = fem.assemble_sigma_mass(mesh, dofs, 1.0)
        stiffness = fem.assemble_stiffness(mesh, dofs)
        values = {fem.estimate_coercivity_constant(mass_C, stiffness, mass)
                  for _ in range(5)}
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


# Reference assembly by independent COO triplets and np.add.at scatters.
def _coo_matrix(mesh, dofs, local, elems=None):
    if elems is None:
        elems = np.arange(mesh.n_elements)
    gdofs = dofs.vertex_to_dof[mesh.triangles[elems]]
    rows = np.repeat(gdofs, 3, axis=1).ravel()
    cols = np.tile(gdofs, (1, 3)).ravel()
    vals = local[elems].reshape(len(elems), 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(dofs.n_dofs, dofs.n_dofs)
    ).tocsr()


def _add_at_vector(mesh, dofs, contrib):
    out = np.zeros(dofs.n_dofs)
    gdofs = dofs.vertex_to_dof[mesh.triangles]
    for i in range(3):
        sel = gdofs[:, i] >= 0
        np.add.at(out, gdofs[sel, i], contrib[sel, i])
    return out


def _assert_same_csr(A, B):
    A, B = A.tocsr(), B.tocsr()
    A.sort_indices()
    B.sort_indices()
    assert A.nnz == B.nnz
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def test_dofmap_assembly_matches_coo_and_add_at_oracle():
    mesh, dofs = fem.build_mesh(8, DISK)
    areas, grads = fem._geometry(mesh)
    conducting = mesh.element_labels == fem.LABEL_C
    mass_local = areas[:, None, None] * fem._LOCAL_MASS
    stiff_local = areas[:, None, None] * np.einsum("eik,ejk->eij", grads, grads)

    M_sigma, M = fem.assemble_sigma_mass(mesh, dofs, 1.0)
    _assert_same_csr(M, _coo_matrix(mesh, dofs, mass_local))
    _assert_same_csr(M_sigma, _coo_matrix(mesh, dofs, mass_local,
                                          np.flatnonzero(conducting)))
    _assert_same_csr(fem.assemble_stiffness(mesh, dofs),
                     _coo_matrix(mesh, dofs, stiff_local))

    model = material.rational_saturation_model(1.0, 5.0)
    a = 0.3 * np.random.default_rng(4).standard_normal(dofs.n_dofs)
    a_vert = np.zeros(mesh.n_vertices)
    a_vert[dofs.dof_to_vertex] = a
    g = np.einsum("ei,eik->ek", a_vert[mesh.triangles], grads)
    nu = fem._element_nu(mesh, model, np.hypot(g[:, 0], g[:, 1]))
    flux = (nu * areas)[:, None] * g
    assert np.array_equal(
        fem.curlcurl_residual(mesh, dofs, model, a),
        _add_at_vector(mesh, dofs, np.einsum("ek,eik->ei", flux, grads)),
    )

    def f(x, y):
        return np.sin(3 * x) * np.cos(2 * y)

    pts = mesh.vertices[mesh.triangles]
    mids = 0.5 * (pts[:, [1, 2, 0]] + pts[:, [2, 0, 1]])
    vals = f(mids[..., 0], mids[..., 1])
    load = (areas / 3.0)[:, None] * np.einsum(
        "eq,iq->ei", vals, 0.5 * (1.0 - np.eye(3)))
    assert np.array_equal(fem.assemble_load(mesh, dofs, f),
                          _add_at_vector(mesh, dofs, load))

    winding = fem.WindingSpec(rectangles=(
        ((0.1, 0.2, 0.4, 0.6, 100.0), (0.8, 0.9, 0.4, 0.6, -100.0)),
        ((0.3, 0.7, 0.05, 0.15, 7.0),),
    ))
    centroids = pts.mean(axis=1)
    C = fem.assemble_coupling(mesh, dofs, winding)
    for j in range(winding.m):
        w = areas / 3.0 * fem._winding_density(winding, j, centroids)
        assert np.array_equal(
            C[:, j], _add_at_vector(mesh, dofs, np.repeat(w[:, None], 3, axis=1)))


def test_dofmap_tangent_matches_coo_oracle():
    mesh, dofs = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    a = 0.3 * np.random.default_rng(5).standard_normal(dofs.n_dofs)
    areas, grads = fem._geometry(mesh)
    a_vert = np.zeros(mesh.n_vertices)
    a_vert[dofs.dof_to_vertex] = a
    g = np.einsum("ei,eik->ek", a_vert[mesh.triangles], grads)
    s = np.hypot(g[:, 0], g[:, 1])
    nu, dgds = fem._element_nu(mesh, model, s, derivative=True)
    T = nu[:, None, None] * np.eye(2) + ((dgds - nu) / s ** 2)[:, None, None] \
        * np.einsum("ek,el->ekl", g, g)
    local = areas[:, None, None] * np.einsum("eik,ekl,ejl->eij", grads, T, grads)
    ref = _coo_matrix(mesh, dofs, local)
    J = fem.curlcurl_jacobian(mesh, dofs, model, a)
    _assert_same_csr(J != 0, ref != 0)
    assert np.allclose(J.toarray(), ref.toarray(), rtol=1e-14, atol=0.0)


def test_geometry_computed_once_per_mesh(monkeypatch):
    calls = []
    real = fem._geometry

    def counted(mesh):
        calls.append(mesh)
        return real(mesh)

    monkeypatch.setattr(fem, "_geometry", counted)
    mesh, dofs = fem.build_mesh(8, DISK)
    assert len(calls) == 1
    model = material.rational_saturation_model(1.0, 5.0)
    a = np.random.default_rng(6).standard_normal(dofs.n_dofs)
    for _ in range(3):
        fem.curlcurl_residual(mesh, dofs, model, a)
        fem.curlcurl_jacobian(mesh, dofs, model, a)
        fem.magnetic_energy(mesh, dofs, model, a)
        fem.assemble_load(mesh, dofs, lambda x, y: x * y)
    fem.assemble_sigma_mass(mesh, dofs, 1.0)
    fem.assemble_stiffness(mesh, dofs)
    assert len(calls) == 1
    fem.build_mesh(8, DISK)
    assert len(calls) == 2


def _relabelled(elements):
    base, _ = fem.build_mesh(8, None)
    labels = np.full(base.n_elements, fem.LABEL_I)
    labels[list(elements)] = fem.LABEL_C
    return fem.Mesh2D(base.vertices, base.triangles, labels,
                      base.boundary_vertex_flags)


def _element_in_cell(i, j, k=0):
    """Index of triangle k of grid cell (i, j) on the n = 8 mesh."""
    return 2 * (j * 8 + i) + k


def test_check_mesh_conducting_region_branches():
    # the two triangles of one interior cell share its diagonal
    fem._check_mesh(_relabelled([_element_in_cell(3, 3, 0),
                                 _element_in_cell(3, 3, 1)]))
    # cells (3, 3) and (4, 4) meet only at the vertex (4, 4)
    vertex_only = _relabelled([_element_in_cell(3, 3, 0),
                               _element_in_cell(4, 4, 0)])
    shared = set(vertex_only.triangles[_element_in_cell(3, 3, 0)]) & set(
        vertex_only.triangles[_element_in_cell(4, 4, 0)])
    assert len(shared) == 1
    with pytest.raises(GeometryError, match="edge-connected"):
        fem._check_mesh(vertex_only)
    with pytest.raises(GeometryError, match="edge-connected"):
        fem._check_mesh(_relabelled([_element_in_cell(2, 2),
                                     _element_in_cell(5, 5)]))
    with pytest.raises(GeometryError, match="boundary"):
        fem._check_mesh(_relabelled([_element_in_cell(0, 3)]))

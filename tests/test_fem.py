"""Mesh construction and P1 assembly against independent oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mqsflow import core, fem, material
from mqsflow.errors import ValidationFailure

DISK = (0.5, 0.5, 0.2)


def test_mesh_counts_and_dofs():
    n = 8
    mesh = fem.build_mesh(n, DISK)
    assert mesh.n_vertices == (n + 1) ** 2
    assert mesh.n_elements == 2 * n * n
    assert mesh.n_dofs == (n - 1) ** 2


def test_mesh_areas_sum_to_unit_square():
    mesh = fem.build_mesh(8, DISK)
    areas, _ = fem._geometry(mesh)
    assert np.all(areas > 0)
    assert np.sum(areas) == pytest.approx(1.0, abs=1e-14)


def test_geometry_gradients_match_an_edge_loop():
    """grad phi_i is the edge opposite vertex i, rotated, over 2 area."""
    mesh = fem.build_mesh(8, DISK)
    areas, grads = fem._geometry(mesh)
    pts = mesh.vertices[mesh.triangles]
    for i in range(3):
        e = pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
        expected = np.column_stack([-e[:, 1], e[:, 0]]) / (2.0 * areas)[:, None]
        assert np.array_equal(grads[:, i], expected)


def test_refined_mesh_vertices_are_nested():
    coarse = fem.build_mesh(8, DISK)
    fine = fem.build_mesh(16, DISK)
    fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
    assert all(tuple(np.round(v, 12)) in fine_set for v in coarse.vertices)


def test_conductor_labeling_area():
    mesh = fem.build_mesh(64, DISK)
    areas, _ = fem._geometry(mesh)
    c_area = areas[mesh.element_labels == fem.LABEL_C].sum()
    assert c_area == pytest.approx(np.pi * 0.2 ** 2, rel=0.02)


def test_geometry_errors():
    with pytest.raises(ValidationFailure):
        fem.build_mesh(2, DISK)
    with pytest.raises(ValidationFailure):
        fem.build_mesh(8, (0.5, 0.5, 0.49))  # violates boundary clearance
    with pytest.raises(ValidationFailure):
        fem.build_mesh(8, (0.5, 0.5, -0.1))


def test_mass_matrix_row_sums_are_hat_integrals():
    """M row sums equal int phi_i = (sum of incident element areas) / 3."""
    n = 8
    mesh = fem.build_mesh(n, DISK)
    _, M = fem.assemble_sigma_mass(mesh, 1.0)
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
    strict = ~adj[mesh.dof_to_vertex]
    assert np.allclose(
        row_sums[strict], expected[mesh.dof_to_vertex][strict], atol=1e-14
    )


def test_sigma_mass_restricted_to_conductor():
    mesh = fem.build_mesh(16, DISK)
    M_sigma, M = fem.assemble_sigma_mass(mesh, 2.0)
    areas, _ = fem._geometry(mesh)
    c_area = areas[mesh.element_labels == fem.LABEL_C].sum()
    ones = np.ones(mesh.n_dofs)
    # conductor is interior, so 1^T M_sigma 1 = sigma * |Omega_C|
    assert ones @ (M_sigma @ ones) == pytest.approx(2.0 * c_area, rel=1e-12)
    assert (M - M_sigma / 2.0).min() is not None  # shapes compatible


def test_stiffness_matches_laplace_eigenvalue():
    """Smallest pencil eigenvalue K x = lambda M x approximates 2 pi^2."""
    mesh = fem.build_mesh(32, None)
    K = fem.assemble_stiffness(mesh)
    _, M = fem.assemble_sigma_mass(mesh, 1.0)
    w = spla.eigsh(K.tocsc(), k=1, M=M.tocsc(), sigma=0.0, which="LM",
                   return_eigenvectors=False)
    assert w[0] == pytest.approx(2 * np.pi ** 2, rel=0.01)


def test_stiffness_exact_on_linear_field():
    """K applied to the interpolant of x + 2y gives boundary-only residual:
    interior rows must vanish since linear fields are harmonic."""
    mesh = fem.build_mesh(8, None)
    coords = mesh.vertices[mesh.dof_to_vertex]
    a = coords[:, 0] + 2.0 * coords[:, 1]
    K = fem.assemble_stiffness(mesh)
    r = K @ a
    # rows of strictly interior dofs (vertices not adjacent to boundary)
    adj = np.zeros(mesh.n_vertices, dtype=bool)
    for tri in mesh.triangles:
        if np.any(mesh.boundary_vertex_flags[tri]):
            adj[tri] = True
    strict = ~adj[mesh.dof_to_vertex]
    assert np.max(np.abs(r[strict])) < 1e-12


def test_curlcurl_residual_linear_case():
    mesh = fem.build_mesh(8, DISK)
    model = material.constant_model(3.0)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(mesh.n_dofs)
    K = fem.assemble_stiffness(mesh)
    assert np.allclose(
        fem.curlcurl_residual(mesh, model, a), 3.0 * (K @ a),
        atol=1e-12,
    )


def test_curlcurl_jacobian_matches_finite_difference():
    mesh = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    rng = np.random.default_rng(2)
    a = 0.2 * rng.standard_normal(mesh.n_dofs)
    v = rng.standard_normal(mesh.n_dofs)
    J = fem.curlcurl_jacobian(mesh, model, a)
    h = 1e-6
    fd = (
        fem.curlcurl_residual(mesh, model, a + h * v)
        - fem.curlcurl_residual(mesh, model, a - h * v)
    ) / (2 * h)
    assert np.linalg.norm(J @ v - fd) < 1e-6 * (1 + np.linalg.norm(fd))


def test_magnetic_energy_linear_case():
    mesh = fem.build_mesh(8, DISK)
    model = material.constant_model(2.0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(mesh.n_dofs)
    K = fem.assemble_stiffness(mesh)
    assert fem.magnetic_energy(mesh, model, a) == pytest.approx(
        a @ (K @ a), rel=1e-12
    )


def test_energy_zero_at_zero_field():
    mesh = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    assert fem.magnetic_energy(mesh, model, np.zeros(mesh.n_dofs)) == 0.0
    assert np.all(
        fem.curlcurl_residual(mesh, model, np.zeros(mesh.n_dofs)) == 0.0
    )


def test_coupling_column_integral():
    """Sum over all rows of C_ij recovers int chi_j for windings whose
    support avoids boundary-adjacent elements (hat functions sum to 1)."""
    winding = fem.WindingSpec(rectangles=((
        (0.25, 0.375, 0.25, 0.375, 8.0),
    ),))
    mesh = fem.build_mesh(16, None)
    C = fem.assemble_coupling(mesh, winding)
    assert C.sum() == pytest.approx(8.0 * 0.125 * 0.125, rel=1e-12)


def test_zero_strength_winding_gives_zero_coupling():
    winding = fem.WindingSpec(rectangles=(((0.1, 0.2, 0.4, 0.6, 0.0),),))
    mesh = fem.build_mesh(8, DISK)
    C = fem.assemble_coupling(mesh, winding)
    assert np.all(C == 0.0)


def test_winding_overlapping_conductor_rejected():
    winding = fem.WindingSpec(rectangles=(((0.4, 0.6, 0.4, 0.6, 1.0),),))
    mesh = fem.build_mesh(8, DISK)
    with pytest.raises(ValidationFailure):
        fem.assemble_coupling(mesh, winding)


def test_load_vector_constant_function():
    """For f = 1 the load entries are the exact hat integrals, which on the
    alternating-diagonal mesh are (incident area)/3 per vertex."""
    mesh = fem.build_mesh(8, None)
    load = fem.assemble_load(mesh, lambda x, y: np.ones_like(x))
    areas, _ = fem._geometry(mesh)
    expected = np.zeros(mesh.n_vertices)
    for e, tri in enumerate(mesh.triangles):
        expected[tri] += areas[e] / 3.0
    assert np.allclose(load, expected[mesh.dof_to_vertex], atol=1e-14)
    assert load.sum() == pytest.approx(
        expected[mesh.dof_to_vertex].sum(), abs=1e-14
    )


def _coercivity_constant(n, disk):
    mesh = fem.build_mesh(n, disk)
    mass_C, mass = fem.assemble_sigma_mass(mesh, 1.0)
    return fem.estimate_coercivity_constant(
        mass_C, fem.assemble_stiffness(mesh), mass)


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
        mesh = fem.build_mesh(n, DISK)
        mass_C, mass = fem.assemble_sigma_mass(mesh, 1.0)
        stiffness = fem.assemble_stiffness(mesh)
        values = {fem.estimate_coercivity_constant(mass_C, stiffness, mass)
                  for _ in range(5)}
        assert len(values) == 1


def test_filtered_load_vanishes_off_the_filter():
    mesh = fem.build_mesh(8, DISK)
    conducting = mesh.element_labels == fem.LABEL_C

    def one(x, y):
        return np.ones_like(x)

    inside = fem.assemble_load(mesh, one, element_filter=conducting)
    outside = fem.assemble_load(mesh, one, element_filter=~conducting)
    total = fem.assemble_load(mesh, one)
    assert np.allclose(inside + outside, total, atol=1e-15)
    areas, _ = fem._geometry(mesh)
    assert inside.sum() == pytest.approx(areas[conducting].sum(), abs=1e-14)


# Reference assembly by independent COO triplets and np.add.at scatters,
# on a dof numbering derived here from the boundary flags.
def _oracle_element_dofs(mesh):
    interior = ~mesh.boundary_vertex_flags
    return np.where(interior, np.cumsum(interior) - 1, -1)[mesh.triangles]


def _coo_matrix(mesh, local, elems=None):
    if elems is None:
        elems = np.arange(mesh.n_elements)
    gdofs = _oracle_element_dofs(mesh)[elems]
    rows = np.repeat(gdofs, 3, axis=1).ravel()
    cols = np.tile(gdofs, (1, 3)).ravel()
    vals = local[elems].reshape(len(elems), 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(mesh.n_dofs, mesh.n_dofs)
    ).tocsr()


def _add_at_vector(mesh, contrib):
    out = np.zeros(mesh.n_dofs)
    gdofs = _oracle_element_dofs(mesh)
    for i in range(3):
        sel = gdofs[:, i] >= 0
        np.add.at(out, gdofs[sel, i], contrib[sel, i])
    return out


def _dof_entries(mesh):
    """(n_dofs,) number of local element entries at each dof."""
    dofs = mesh.element_dofs
    return np.bincount(dofs[dofs >= 0], minlength=mesh.n_dofs)


def _element_nu(mesh, model, s):
    """(nu, d(nu s)/ds) per element, one model_eval per region."""
    nu = np.empty_like(s)
    dgds = np.empty_like(s)
    for region, mask in mesh.regions:
        nu[mask], dgds[mask], _ = material.model_eval(model, region, s[mask])
    return nu, dgds


def _oracle_tangent_basis(grads):
    """(M, 3, 9) products d_x phi_i d_x phi_j, d_y phi_i d_y phi_j and
    d_x phi_i d_y phi_j + d_y phi_i d_x phi_j per element."""
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    return np.stack([np.einsum("ei,ej->eij", gx, gx),
                     np.einsum("ei,ej->eij", gy, gy),
                     np.einsum("ei,ej->eij", gx, gy)
                     + np.einsum("ei,ej->eij", gy, gx)], axis=1).reshape(-1, 3, 9)


def _assert_sums_agree(got, ref, magnitudes, m):
    """``got`` and ``ref`` evaluate the same sums of at most m products in
    two orders; ``magnitudes`` holds each sum of the products' absolute
    values.  An order is within gamma_m = m u / (1 - m u) of the exact
    sum, relative to its magnitude, with u the unit roundoff (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1),
    so two orders are within twice that of each other."""
    mu = m * np.finfo(float).eps / 2
    assert np.all(np.abs(got - ref) <= 2.0 * mu / (1.0 - mu) * magnitudes)


def _assert_same_csr(A, B):
    A, B = A.tocsr(), B.tocsr()
    A.sort_indices()
    B.sort_indices()
    assert A.nnz == B.nnz
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def test_dofmap_assembly_matches_coo_and_add_at_oracle():
    mesh = fem.build_mesh(8, DISK)
    areas, grads = fem._geometry(mesh)
    conducting = mesh.element_labels == fem.LABEL_C
    mass_local = areas[:, None, None] * fem._LOCAL_MASS
    stiff_local = areas[:, None, None] * np.einsum("eik,ejk->eij", grads, grads)

    M_sigma, M = fem.assemble_sigma_mass(mesh, 1.0)
    _assert_same_csr(M, _coo_matrix(mesh, mass_local))
    _assert_same_csr(M_sigma, _coo_matrix(mesh, mass_local,
                                          np.flatnonzero(conducting)))
    _assert_same_csr(fem.assemble_stiffness(mesh),
                     _coo_matrix(mesh, stiff_local))

    model = material.rational_saturation_model(1.0, 5.0)
    a = 0.3 * np.random.default_rng(4).standard_normal(mesh.n_dofs)
    a_vert = np.zeros(mesh.n_vertices)
    a_vert[mesh.dof_to_vertex] = a
    g = np.einsum("ei,eik->ek", a_vert[mesh.triangles], grads)
    assert np.array_equal(fem._element_state(mesh, a)[0], g)
    nu, _ = _element_nu(mesh, model, np.hypot(g[:, 0], g[:, 1]))
    flux = (nu * areas)[:, None] * g
    # K = G^T f sums the products flux_k d_k phi_i in its own order
    _assert_sums_agree(
        fem.curlcurl_residual(mesh, model, a),
        _add_at_vector(mesh, np.einsum("ek,eik->ei", flux, grads)),
        _add_at_vector(mesh, np.einsum("ek,eik->ei", abs(flux), abs(grads))),
        2 * _dof_entries(mesh).max(),
    )

    def f(x, y):
        return np.sin(3 * x) * np.cos(2 * y)

    pts = mesh.vertices[mesh.triangles]
    mids = 0.5 * (pts[:, [1, 2, 0]] + pts[:, [2, 0, 1]])
    vals = f(mids[..., 0], mids[..., 1])
    load = (areas / 3.0)[:, None] * np.einsum(
        "eq,iq->ei", vals, 0.5 * (1.0 - np.eye(3)))
    assert np.array_equal(fem.assemble_load(mesh, f),
                          _add_at_vector(mesh, load))

    winding = fem.WindingSpec(rectangles=(
        ((0.1, 0.2, 0.4, 0.6, 100.0), (0.8, 0.9, 0.4, 0.6, -100.0)),
        ((0.3, 0.7, 0.05, 0.15, 7.0),),
    ))
    centroids = pts.mean(axis=1)
    C = fem.assemble_coupling(mesh, winding)
    for j in range(winding.m):
        w = areas / 3.0 * fem._winding_density(winding, j, centroids)
        assert np.array_equal(
            C[:, j], _add_at_vector(mesh, np.repeat(w[:, None], 3, axis=1)))


def test_dofmap_tangent_matches_coo_oracle():
    mesh = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    a = 0.3 * np.random.default_rng(5).standard_normal(mesh.n_dofs)
    areas, grads = fem._geometry(mesh)
    a_vert = np.zeros(mesh.n_vertices)
    a_vert[mesh.dof_to_vertex] = a
    g = np.einsum("ei,eik->ek", a_vert[mesh.triangles], grads)
    s = np.hypot(g[:, 0], g[:, 1])
    nu, dgds = _element_nu(mesh, model, s)
    T = nu[:, None, None] * np.eye(2) + ((dgds - nu) / s ** 2)[:, None, None] \
        * np.einsum("ek,el->ekl", g, g)
    local = areas[:, None, None] * np.einsum("eik,ekl,ejl->eij", grads, T, grads)
    ref = _coo_matrix(mesh, local)
    J = fem.curlcurl_jacobian(mesh, model, a)
    _assert_same_csr(J != 0, ref != 0)
    assert np.allclose(J.toarray(), ref.toarray(), rtol=1e-14, atol=0.0)


def _tabulated_rational():
    knots = np.linspace(0.0, 20.0, 201)
    nu, _, _ = material.model_eval(
        material.rational_saturation_model(1.0, 5.0), "*", knots)
    return material.tabulated_model(np.column_stack([knots, nu]))


@pytest.mark.parametrize("conductor", [DISK, (0.5, 0.5, 0.0)])
@pytest.mark.parametrize("make_model", [
    lambda: material.constant_model(3.0),
    lambda: material.rational_saturation_model(1.0, 5.0),
    _tabulated_rational,
], ids=["constant", "rational", "tabulated"])
def test_residual_and_tangent_operators_match_the_einsum_oracle(
        conductor, make_model):
    """G^T f and S w against the element arrays they replace, scattered by
    bincount, within the bound on two summation orders."""
    mesh = fem.build_mesh(8, conductor)
    model = make_model()
    a = 0.3 * np.random.default_rng(11).standard_normal(mesh.n_dofs)
    a[: mesh.n_dofs // 2] = 0.0  # elements with s = 0, the isotropic limit
    areas, grads = fem._geometry(mesh)
    g, s = fem._element_state(mesh, a)
    assert np.any(s == 0.0) and np.any(s > 0.0)
    nu, dgds = _element_nu(mesh, model, s)
    dof_terms = 2 * _dof_entries(mesh).max()
    slot_terms = 3 * np.bincount(mesh.matrix_slots)[:-1].max()

    flux = (nu * areas)[:, None] * g
    _assert_sums_agree(
        fem.curlcurl_residual(mesh, model, a),
        mesh.assemble_vector(np.einsum("ek,eik->ei", flux, grads)),
        mesh.assemble_vector(np.einsum("ek,eik->ei", abs(flux), abs(grads))),
        dof_terms)

    big = s >= 1e-12
    coef = np.zeros_like(s)
    coef[big] = areas[big] * (dgds[big] - nu[big]) / (s[big] * s[big])
    iso = nu * areas
    weights = np.column_stack([iso + coef * g[:, 0] * g[:, 0],
                               iso + coef * g[:, 1] * g[:, 1],
                               coef * g[:, 0] * g[:, 1]])
    basis = _oracle_tangent_basis(grads)

    def oracle(w, b):
        return mesh.assemble_matrix(
            np.einsum("ek,ekj->ej", w, b).reshape(-1, 3, 3)).data

    J = fem.curlcurl_jacobian(mesh, model, a)
    _assert_sums_agree(J.data, oracle(weights, basis),
                       oracle(abs(weights), abs(basis)), slot_terms)

    # the unit stiffness is S (area, area, 0): over n elements, either path
    # rounds each term at most 3 n times, so the same bound holds
    iso = np.column_stack([areas, areas, np.zeros_like(areas)])
    _assert_sums_agree(mesh.slot_operator @ iso.ravel(),
                       fem.assemble_stiffness(mesh).data,
                       oracle(iso, abs(basis)), slot_terms)


def test_slot_operator_build_peaks_near_twice_its_size():
    """S is built as S^T and converted once, with the products freed
    first; a COO or transposing build peaks higher."""
    mesh = fem.build_mesh(64, DISK)
    mesh.matrix_slots
    tracemalloc.start()
    try:
        S = mesh.slot_operator
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert S.shape == (mesh.pattern.nnz, 3 * mesh.n_elements)
    assert np.all(S.data != 0.0)
    assert peak <= 2.5 * (S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)


def test_geometry_computed_once_per_mesh(monkeypatch):
    calls = []
    real = fem._geometry

    def counted(mesh):
        calls.append(mesh)
        return real(mesh)

    monkeypatch.setattr(fem, "_geometry", counted)
    mesh = fem.build_mesh(8, DISK)
    assert len(calls) == 1
    model = material.rational_saturation_model(1.0, 5.0)
    a = np.random.default_rng(6).standard_normal(mesh.n_dofs)
    for _ in range(3):
        fem.curlcurl_residual(mesh, model, a)
        fem.curlcurl_jacobian(mesh, model, a)
        fem.magnetic_energy(mesh, model, a)
        fem.assemble_load(mesh, lambda x, y: x * y)
    fem.assemble_sigma_mass(mesh, 1.0)
    fem.assemble_stiffness(mesh)
    assert len(calls) == 1
    fem.build_mesh(8, DISK)
    assert len(calls) == 2


def test_element_operators_built_once_per_mesh(monkeypatch):
    calls = []
    real = fem.Mesh2D.element_operator

    def counted(mesh, blocks, elements=None):
        calls.append(mesh)
        return real(mesh, blocks, elements)

    monkeypatch.setattr(fem.Mesh2D, "element_operator", counted)
    built = {"gradient_transpose": [], "slot_operator": []}
    for name, meshes in built.items():
        prop = fem.Mesh2D.__dict__[name]

        def counted_build(mesh, meshes=meshes, build=prop.func):
            meshes.append(mesh)
            return build(mesh)

        monkeypatch.setattr(prop, "func", counted_build)
    mesh = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    rng = np.random.default_rng(7)
    for _ in range(3):
        a = rng.standard_normal(mesh.n_dofs)
        fem.curlcurl_residual(mesh, model, a)
        fem.curlcurl_jacobian(mesh, model, a)
        fem.magnetic_energy(mesh, model, a)
    assert len(calls) == 1 and calls[0] is mesh
    assert all(meshes == [mesh] for meshes in built.values())

    # a second mesh builds its own, with the same values
    other = fem.build_mesh(8, DISK)
    a = rng.standard_normal(mesh.n_dofs)
    assert np.array_equal(fem.curlcurl_residual(other, model, a),
                          fem.curlcurl_residual(mesh, model, a))
    assert np.array_equal(fem.curlcurl_jacobian(other, model, a).data,
                          fem.curlcurl_jacobian(mesh, model, a).data)
    assert len(calls) == 2 and calls[1] is other
    assert all(meshes == [mesh, other] for meshes in built.values())
    assert other.gradient_operator is not mesh.gradient_operator
    assert other.slot_operator is not mesh.slot_operator
    assert len(calls) == 2


def test_element_operator_drops_boundary_columns_and_zeros_in_vertex_order():
    mesh = fem.build_mesh(4, None)
    dofs = mesh.element_dofs
    # two boundary vertices, one, and none with dofs out of increasing order
    interior = np.flatnonzero(np.all(dofs >= 0, axis=1)
                              & np.any(np.diff(dofs, axis=1) < 0, axis=1))
    elements = np.array([0, 9, interior[0]])
    assert [np.count_nonzero(dofs[e] < 0) for e in elements] == [2, 1, 0]
    blocks = np.arange(1.0, 19.0).reshape(3, 2, 3)
    blocks[2, 1, 1] = 0.0
    op = mesh.element_operator(blocks, elements)
    assert op.format == "csr" and op.shape == (6, mesh.n_dofs)
    indptr, indices, data = [0], [], []
    for q, e in enumerate(elements):
        for i in range(2):
            for j in range(3):
                if dofs[e, j] >= 0 and blocks[q, i, j] != 0.0:
                    indices.append(dofs[e, j])
                    data.append(blocks[q, i, j])
            indptr.append(len(indices))
    assert np.array_equal(op.indptr, indptr)
    assert np.array_equal(op.indices, indices)
    assert np.array_equal(op.data, data)
    assert not op.has_sorted_indices


def _fresh_point(model, a):
    """K, tangent and energy at ``a`` on a mesh that has seen no other point."""
    mesh = fem.build_mesh(8, DISK)
    return (fem.curlcurl_residual(mesh, model, a),
            fem.curlcurl_jacobian(mesh, model, a).toarray(),
            fem.magnetic_energy(mesh, model, a))


def _assert_point(mesh, model, a, expected):
    K, J, energy = expected
    assert np.array_equal(fem.curlcurl_residual(mesh, model, a), K)
    assert np.array_equal(fem.curlcurl_jacobian(mesh, model, a).toarray(), J)
    assert fem.magnetic_energy(mesh, model, a) == energy


def test_shared_pass_follows_a_field_mutated_in_place():
    mesh = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    rng = np.random.default_rng(7)
    a = 0.3 * rng.standard_normal(mesh.n_dofs)
    b = 0.3 * rng.standard_normal(mesh.n_dofs)
    at_b = _fresh_point(model, b)
    _assert_point(mesh, model, a, _fresh_point(model, a))
    a[:] = b
    _assert_point(mesh, model, a, at_b)


def test_shared_pass_keeps_reluctivity_models_apart():
    mesh = fem.build_mesh(8, DISK)
    soft = material.rational_saturation_model(1.0, 5.0)
    hard = material.constant_model(3.0)
    a = 0.3 * np.random.default_rng(8).standard_normal(mesh.n_dofs)
    expected = {id(m): _fresh_point(m, a) for m in (soft, hard)}
    for model in (soft, hard, soft, hard):
        _assert_point(mesh, model, a, expected[id(model)])
    # an equal but distinct model is a different key, with the same values
    twin = material.constant_model(3.0)
    _assert_point(mesh, twin, a, expected[id(hard)])


def test_shared_pass_hands_out_fresh_residuals():
    mesh = fem.build_mesh(8, DISK)
    model = material.rational_saturation_model(1.0, 5.0)
    a = 0.3 * np.random.default_rng(9).standard_normal(mesh.n_dofs)
    first = fem.curlcurl_residual(mesh, model, a)
    kept = first.copy()
    first += 1.0
    again = fem.curlcurl_residual(mesh, model, a)
    assert again is not first
    assert np.array_equal(again, kept)


def _per_region_rational():
    return material.ReluctivityModel("rational_saturation", {
        "C": {"nu_min": 1.0, "nu_max": 5.0},
        "I": {"nu_min": 2.0, "nu_max": 3.0}})


_ONE_PASS_MODELS = {
    "constant": lambda: material.constant_model(3.0),
    "rational": lambda: material.rational_saturation_model(1.0, 5.0),
    "per_region": _per_region_rational,
    "tabulated": _tabulated_rational,
}


def _two_value_model_eval(model, region, s):
    """nu and d(nu s)/ds as material evaluated them before theta joined."""
    p = model.region_params(region)
    if model.kind == "constant":
        return np.full_like(s, p["nu0"]), np.full_like(s, p["nu0"])
    if model.kind == "rational_saturation":
        delta = p["nu_max"] - p["nu_min"]
        one_p = 1.0 + s * s
        return (p["nu_min"] + delta / one_p,
                p["nu_min"] + delta * (1.0 - s * s) / (one_p * one_p))
    table = p["table"]
    g, dgds, _ = material._tab_curve(table, s)
    return np.where(s > 0, g / np.where(s > 0, s, 1.0), table[0, 1]), dgds


def _rho_theta_eval(model, region, rho):
    """theta(rho) as material evaluated it from rho on its own."""
    p = model.region_params(region)
    if model.kind == "constant":
        return 0.5 * p["nu0"] * rho
    if model.kind == "rational_saturation":
        delta = p["nu_max"] - p["nu_min"]
        return 0.5 * p["nu_min"] * rho + 0.5 * delta * np.log1p(rho)
    return material._tab_curve(p["table"], np.sqrt(rho))[2]


def _two_call_point(mesh, model, a):
    """K, tangent and energy from one call of each of the two evaluators
    above per region, in the element arithmetic of ``fem``."""
    areas, _ = mesh.geometry
    g, s = fem._element_state(mesh, a)
    nu, dgds = np.empty_like(s), np.empty_like(s)
    energy = 0.0
    for region, mask in mesh.regions:
        nu[mask], dgds[mask] = _two_value_model_eval(model, region, s[mask])
        energy += float(np.dot(areas[mask], _rho_theta_eval(
            model, region, (s * s)[mask])))
    K = mesh.gradient_transpose @ ((nu * areas)[:, None] * g).ravel()
    coef = np.divide(areas * (dgds - nu), s * s, out=np.zeros_like(s),
                     where=s >= 1e-12)
    iso = nu * areas
    weights = np.column_stack([iso + coef * g[:, 0] * g[:, 0],
                               iso + coef * g[:, 1] * g[:, 1],
                               coef * g[:, 0] * g[:, 1]])
    return K, mesh.slot_operator @ weights.ravel(), energy


@pytest.mark.parametrize("conductor", [DISK, (0.5, 0.5, 0.0)])
@pytest.mark.parametrize("name", list(_ONE_PASS_MODELS))
def test_one_pass_matches_the_two_call_oracle_exactly(conductor, name):
    """K, the tangent's data and the energy from one model_eval per region
    equal those of a separate nu pass and theta pass, bit for bit."""
    mesh = fem.build_mesh(12, conductor)
    model = _ONE_PASS_MODELS[name]()
    a = 0.3 * np.random.default_rng(13).standard_normal(mesh.n_dofs)
    a[: mesh.n_dofs // 2] = 0.0  # elements with s = 0
    s = fem._element_state(mesh, a)[1]
    assert np.any(s == 0.0)
    for region, mask in mesh.regions:  # per element, before any sum
        got = material.model_eval(model, region, s[mask])
        want = (*_two_value_model_eval(model, region, s[mask]),
                _rho_theta_eval(model, region, (s * s)[mask]))
        assert all(np.array_equal(x, y) for x, y in zip(got, want, strict=True))
    K, data, energy = _two_call_point(mesh, model, a)
    assert np.array_equal(fem.curlcurl_residual(mesh, model, a), K)
    assert np.array_equal(fem.curlcurl_jacobian(mesh, model, a).data, data)
    assert fem.magnetic_energy(mesh, model, a) == energy


@pytest.mark.parametrize("conductor, n_regions", [(DISK, 2),
                                                  ((0.5, 0.5, 0.0), 1)])
def test_a_field_point_evaluates_the_material_once_per_region(
        conductor, n_regions, monkeypatch):
    calls = {"model_eval": 0, "theta_eval": 0}

    def counted(name):
        fn = getattr(fem, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fem, name, counted(name))
    mesh = fem.build_mesh(8, conductor)
    model = material.rational_saturation_model(1.0, 5.0)
    a = 0.3 * np.random.default_rng(14).standard_normal(mesh.n_dofs)
    fem.magnetic_energy(mesh, model, a)
    fem.curlcurl_residual(mesh, model, a)
    fem.curlcurl_jacobian(mesh, model, a)
    assert calls == {"model_eval": n_regions, "theta_eval": 0}


def _relabelled(elements):
    base = fem.build_mesh(8, None)
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
    with pytest.raises(ValidationFailure, match="edge-connected"):
        fem._check_mesh(vertex_only)
    with pytest.raises(ValidationFailure, match="edge-connected"):
        fem._check_mesh(_relabelled([_element_in_cell(2, 2),
                                     _element_in_cell(5, 5)]))
    with pytest.raises(ValidationFailure, match="boundary"):
        fem._check_mesh(_relabelled([_element_in_cell(0, 3)]))


@pytest.mark.parametrize("make_mesh", [
    lambda: fem.build_mesh(8, DISK),
    lambda: fem.build_mesh(8, None),
    lambda: _relabelled([_element_in_cell(3, 3, 0), _element_in_cell(3, 3, 1)]),
], ids=["conductor", "no_conductor", "hand_built"])
def test_pattern_and_slots_match_the_coo_and_search_oracle(make_mesh):
    """The P1 pattern by COO over the local entries, the slots by a search
    in its sorted keys, boundary entries at slot nnz."""
    mesh = make_mesh()
    n, gdofs = mesh.n_dofs, mesh.element_dofs
    rows = np.repeat(gdofs, 3, axis=1).ravel()
    cols = np.tile(gdofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    want = sp.csc_matrix((np.ones(keep.sum()), (rows[keep], cols[keep])),
                         shape=(n, n))
    slots = np.searchsorted(core._csc_keys(want, n), cols * n + rows)
    slots = np.where(keep, slots, want.nnz)
    assert mesh.pattern.format == "csc"
    assert mesh.pattern.indices.dtype == np.int32
    assert np.array_equal(mesh.pattern.indptr, want.indptr)
    assert np.array_equal(mesh.pattern.indices, want.indices)
    assert mesh.matrix_slots.dtype == np.int32
    assert np.array_equal(mesh.matrix_slots, slots)


def test_hand_built_mesh_derives_the_dofs_of_build_mesh():
    base = fem.build_mesh(8, None)
    hand = _relabelled([_element_in_cell(3, 3, 0), _element_in_cell(3, 3, 1)])
    assert "element_dofs" not in hand.__dict__
    for name in ("vertex_to_dof", "dof_to_vertex", "element_dofs",
                 "matrix_slots"):
        got, want = getattr(hand, name), getattr(base, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(_dof_entries(hand), _dof_entries(base))
    assert hand.matrix_slots.dtype == np.int32
    _assert_same_csr(hand.pattern, base.pattern)
    assert hand.pattern.indices.dtype == np.int32
    _assert_same_csr(fem.assemble_stiffness(hand), fem.assemble_stiffness(base))
    areas, grads = hand.geometry
    local = areas[:, None, None] * np.einsum("eik,ejk->eij", grads, grads)
    _assert_same_csr(fem.assemble_stiffness(hand), _coo_matrix(hand, local))

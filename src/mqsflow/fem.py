"""2D cross-section geometry and P1 finite-element assembly.

The domain is the unit square with a disk-shaped conducting subdomain
strictly inside it.  The out-of-plane vector potential reduces to a scalar
nodal field with zero boundary values; its gradient plays the role of the
curl, so the quasilinear curl-curl form becomes int nu(|grad a|) grad a .
grad phi_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import (
    EigenSolveFailure, GeometryError, WindingOverlapsConductor, check_finite,
)
from .material import REGION_CONDUCTOR, REGION_INSULATOR, model_eval, theta_eval

LABEL_I = 0
LABEL_C = 1


@dataclass(frozen=True)
class Mesh2D:
    vertices: np.ndarray      # (n_vertices, 2)
    triangles: np.ndarray     # (n_elements, 3), positively oriented
    element_labels: np.ndarray  # (n_elements,), LABEL_C / LABEL_I
    boundary_vertex_flags: np.ndarray  # (n_vertices,), bool

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.triangles.shape[0]

    @cached_property
    def geometry(self):
        """(areas, grads) of the elements, computed once per mesh."""
        return _geometry(self)

    @cached_property
    def local_stiffness(self):
        """Element blocks area grad phi_i . grad phi_j, shape (M, 3, 3)."""
        areas, grads = self.geometry
        return areas[:, None, None] * np.einsum("eik,ejk->eij", grads, grads)


@dataclass(frozen=True)
class DofMap:
    """Interior vertices carry dofs; boundary vertices are fixed to zero.

    All element-to-dof assembly goes through ``assemble_vector`` and
    ``assemble_matrix``; local entries at boundary vertices land in one
    extra slot past the end, which is dropped.  Every assembled matrix is
    CSC on the one P1 pattern, the format SuperLU and ARPACK factor.
    """

    vertex_to_dof: np.ndarray  # (n_vertices,), -1 at boundary vertices
    dof_to_vertex: np.ndarray  # (n_dofs,)
    vector_slots: np.ndarray   # (3 M,) int32, local vertex-major
    pattern: sp.csc_matrix     # P1 sparsity pattern, int32 indices
    matrix_slots: np.ndarray   # (9 M,) int32, element-major into pattern.data

    @property
    def n_dofs(self):
        return self.dof_to_vertex.shape[0]

    def assemble_vector(self, local):
        """Global vector from element contributions ``local`` (M, 3)."""
        return np.bincount(self.vector_slots, weights=local.ravel(order="F"),
                           minlength=self.n_dofs + 1)[:-1]

    def assemble_matrix(self, local):
        """CSC matrix on the P1 pattern from element blocks ``local`` (M, 3, 3)."""
        nnz = self.pattern.nnz
        data = np.bincount(self.matrix_slots, weights=local.ravel(),
                           minlength=nnz + 1)[:-1]
        # own index arrays: callers may prune the result in place
        return sp.csc_matrix(
            (data, self.pattern.indices.copy(), self.pattern.indptr.copy()),
            shape=self.pattern.shape,
        )


@dataclass(frozen=True)
class WindingSpec:
    """Stranded windings given by signed axis-aligned support rectangles.

    ``rectangles[j]`` lists the rectangles of winding j as tuples
    (x0, x1, y0, y1, kappa) with kappa the out-of-plane current density
    per unit lumped current (A-turns per unit area).
    """

    rectangles: tuple  # tuple over windings of tuples of rectangles

    def __post_init__(self):
        for j, rects in enumerate(self.rectangles):
            check_finite(f"winding w{j + 1}", rects)

    @property
    def m(self):
        return len(self.rectangles)


def _geometry(mesh):
    """Element areas and constant P1 basis gradients, vectorized."""
    pts = mesh.vertices[mesh.triangles]       # (M, 3, 2)
    d1 = pts[:, 1] - pts[:, 0]
    d2 = pts[:, 2] - pts[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    # grad phi_i = rotated opposite edge / (2 * area)
    e0 = pts[:, 2] - pts[:, 1]
    e1 = pts[:, 0] - pts[:, 2]
    e2 = pts[:, 1] - pts[:, 0]
    grads = np.empty((mesh.n_elements, 3, 2))
    for i, e in enumerate((e0, e1, e2)):
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= det[:, None, None]
    return areas, grads


def build_mesh(n, conductor=None):
    """Structured triangulation of the unit square on an n x n grid.

    Each grid cell is split along a diagonal, with the diagonal direction
    alternating in a checkerboard pattern so that uniformly refined meshes
    are nested.  A triangle is labeled conducting iff its centroid lies in
    the given disk ``conductor = (cx, cy, radius)``; radius 0 or None means
    no conductor.
    """
    if n < 4:
        raise GeometryError("grid resolution n must be at least 4")
    if conductor is not None:
        cx, cy, radius = conductor
        if radius < 0:
            raise GeometryError("conductor radius must be nonnegative")
        if radius > 0:
            clearance = 2.0 / n
            if (cx - radius < clearance or cx + radius > 1 - clearance
                    or cy - radius < clearance or cy + radius > 1 - clearance):
                raise GeometryError(
                    "conductor disk must stay inside the unit square with "
                    f"clearance >= {clearance:.4g}"
                )

    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # cells in row-major order (i fastest), two triangles per cell
    i, j = (idx.ravel() for idx in np.meshgrid(np.arange(n), np.arange(n)))
    v00 = j * (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    even = (i + j) % 2 == 0
    first = np.where(even, [v00, v10, v11], [v00, v10, v01])  # (3, n * n)
    second = np.where(even, [v00, v11, v01], [v10, v11, v01])
    triangles = np.stack([first, second]).transpose(2, 0, 1).reshape(-1, 3)

    centroids = vertices[triangles].mean(axis=1)
    labels = np.full(triangles.shape[0], LABEL_I, dtype=np.int64)
    if conductor is not None and conductor[2] > 0:
        cx, cy, radius = conductor
        inside = (centroids[:, 0] - cx) ** 2 + (centroids[:, 1] - cy) ** 2 < radius ** 2
        labels[inside] = LABEL_C

    boundary = (
        np.isclose(vertices[:, 0], 0.0) | np.isclose(vertices[:, 0], 1.0)
        | np.isclose(vertices[:, 1], 0.0) | np.isclose(vertices[:, 1], 1.0)
    )
    mesh = Mesh2D(vertices, triangles, labels, boundary)
    _check_mesh(mesh)

    interior = np.flatnonzero(~boundary)
    n_dofs = interior.size
    vertex_to_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vertex_to_dof[interior] = np.arange(n_dofs)
    gdofs = vertex_to_dof[triangles]  # (M, 3), -1 at boundary
    vector_slots = np.where(gdofs >= 0, gdofs, n_dofs).ravel(order="F")
    rows = np.repeat(gdofs, 3, axis=1).ravel()
    cols = np.tile(gdofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    pattern = sp.csc_matrix(
        (np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n_dofs, n_dofs)
    )
    # a canonical CSC lists its (col, row) keys in sorted order
    keys = np.repeat(np.arange(n_dofs) * n_dofs, np.diff(pattern.indptr))
    keys += pattern.indices
    matrix_slots = np.where(
        keep, np.searchsorted(keys, cols * n_dofs + rows), pattern.nnz
    )
    dofs = DofMap(
        vertex_to_dof=vertex_to_dof, dof_to_vertex=interior,
        vector_slots=vector_slots.astype(np.int32), pattern=pattern,
        matrix_slots=matrix_slots.astype(np.int32),
    )
    return mesh, dofs


def _check_mesh(mesh):
    areas, _ = mesh.geometry
    if np.any(areas < 1e-14):
        raise GeometryError("degenerate triangle (area < 1e-14)")
    c_elems = np.flatnonzero(mesh.element_labels == LABEL_C)
    if c_elems.size == 0:
        return
    c_tris = mesh.triangles[c_elems]
    if np.any(mesh.boundary_vertex_flags[c_tris]):
        raise GeometryError("conducting region touches the outer boundary")
    # conducting elements are linked through the edges they share
    ends = np.sort(c_tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, edge = np.unique(ends[:, 0] * mesh.n_vertices + ends[:, 1],
                        return_inverse=True)
    incidence = sp.csr_matrix(
        (np.ones(edge.size), (np.arange(edge.size) // 3, edge.ravel()))
    )
    n_parts, _ = connected_components(incidence @ incidence.T, directed=False)
    if n_parts > 1:
        raise GeometryError("conducting region is not edge-connected")


_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _assemble_mass(mesh, dofs, element_filter=None):
    areas, _ = mesh.geometry
    if element_filter is not None:
        areas = np.where(element_filter, areas, 0.0)
    M = dofs.assemble_matrix(areas[:, None, None] * _LOCAL_MASS)
    M.eliminate_zeros()  # a filtered mass keeps only its elements' pattern
    return M


def assemble_sigma_mass(mesh, dofs, sigma_C):
    """Conductivity-weighted mass on the conducting region and full mass.

    Returns (M_sigma, M) with (M_sigma)_ij = sigma_C * int_{Omega_C}
    phi_i phi_j and M the plain mass matrix over the whole domain.
    """
    if sigma_C <= 0:
        raise ValueError("sigma_C must be positive")
    mass_C = _assemble_mass(mesh, dofs, mesh.element_labels == LABEL_C)
    mass = _assemble_mass(mesh, dofs)
    return sigma_C * mass_C, mass


def assemble_stiffness(mesh, dofs):
    """Unit-coefficient stiffness matrix (the linear curl-curl form)."""
    return dofs.assemble_matrix(mesh.local_stiffness)


def _winding_density(winding, j, points):
    """chi_j evaluated at sample points (k, 2)."""
    out = np.zeros(points.shape[0])
    for (x0, x1, y0, y1, kappa) in winding.rectangles[j]:
        inside = (
            (points[:, 0] >= x0) & (points[:, 0] <= x1)
            & (points[:, 1] >= y0) & (points[:, 1] <= y1)
        )
        out += kappa * inside
    return out


def assemble_coupling(mesh, dofs, winding):
    """Winding coupling matrix C with C_ij = int chi_j phi_i.

    The density is sampled at element centroids and paired with the exact
    hat-function integral (area/3 per vertex), so the result is exact for
    every element not cut by a support-rectangle edge; centroids never lie
    on grid-aligned rectangle edges, avoiding tie-breaking artifacts.  The
    overlap guard is conservative: it also probes edge midpoints, so a
    winding merely touching the conducting region is rejected.
    """
    c_elems = mesh.element_labels == LABEL_C
    if np.any(c_elems):
        pts = mesh.vertices[mesh.triangles[c_elems]]
        probes = np.concatenate(
            [pts.mean(axis=1)] + [0.5 * (pts[:, a] + pts[:, b]) for a, b in ((0, 1), (1, 2), (2, 0))]
        )
        for j in range(winding.m):
            if np.any(_winding_density(winding, j, probes) != 0.0):
                raise WindingOverlapsConductor(
                    f"winding {j + 1} support intersects the conducting region"
                )

    areas, _ = mesh.geometry
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    C = np.zeros((dofs.n_dofs, winding.m))
    w = areas / 3.0  # exact int of each hat over its element
    for j in range(winding.m):
        contrib = w * _winding_density(winding, j, centroids)
        C[:, j] = dofs.assemble_vector(np.repeat(contrib[:, None], 3, axis=1))
    return C


def _element_state(mesh, dofs, a):
    """Per-element field gradient (M, 2) and its magnitude (M,)."""
    _, grads = mesh.geometry
    a_vert = np.zeros(mesh.n_vertices)
    a_vert[dofs.dof_to_vertex] = a
    coeffs = a_vert[mesh.triangles]  # (M, 3)
    g = np.einsum("ei,eik->ek", coeffs, grads)  # (M, 2)
    s = np.hypot(g[:, 0], g[:, 1])
    return g, s


def _element_nu(mesh, model, s, derivative=False):
    labels = mesh.element_labels
    nu = np.empty_like(s)
    dg = np.empty_like(s)
    for lab, region in ((LABEL_C, REGION_CONDUCTOR), (LABEL_I, REGION_INSULATOR)):
        mask = labels == lab
        if np.any(mask):
            nu[mask], dg[mask] = model_eval(model, region, s[mask])
    if derivative:
        return nu, dg
    return nu


def curlcurl_residual(mesh, dofs, model, a):
    """Nonlinear form K(a)_i = sum_e nu(|grad a|_e) grad a . grad phi_i area_e."""
    areas, grads = mesh.geometry
    g, s = _element_state(mesh, dofs, a)
    nu = _element_nu(mesh, model, s)
    flux = (nu * areas)[:, None] * g  # (M, 2)
    return dofs.assemble_vector(np.einsum("ek,eik->ei", flux, grads))


def curlcurl_jacobian(mesh, dofs, model, a):
    """Consistent tangent of the nonlinear curl-curl form, sparse symmetric.

    Per element it is nu times the local stiffness plus the rank-one term
    area (d[nu s]/ds - nu) / s^2 q q^T with q_i = grad phi_i . grad a; the
    rank-one term vanishes in the isotropic limit s = 0.
    """
    areas, grads = mesh.geometry
    g, s = _element_state(mesh, dofs, a)
    nu, dgds = _element_nu(mesh, model, s, derivative=True)
    big = s >= 1e-12
    coef = np.zeros_like(s)
    coef[big] = areas[big] * (dgds[big] - nu[big]) / (s[big] * s[big])
    q = np.einsum("eik,ek->ei", grads, g)
    local = nu[:, None, None] * mesh.local_stiffness
    local += (coef[:, None] * q)[:, :, None] * q[:, None, :]
    return dofs.assemble_matrix(local)


def magnetic_energy(mesh, dofs, model, a):
    """Discrete magnetic energy sum_e area_e theta(region_e, |grad a|_e^2)."""
    areas, _ = mesh.geometry
    _, s = _element_state(mesh, dofs, a)
    rho = s * s
    out = 0.0
    for lab, region in ((LABEL_C, REGION_CONDUCTOR), (LABEL_I, REGION_INSULATOR)):
        mask = mesh.element_labels == lab
        if np.any(mask):
            out += float(np.dot(areas[mask], theta_eval(model, region, rho[mask])))
    return out


def assemble_load(mesh, dofs, func, t=None, element_filter=None):
    """Load vector l_i = int f phi_i by the edge-midpoint rule.

    ``func(x, y)`` or ``func(x, y, t)`` is evaluated pointwise.  With a
    boolean ``element_filter``, f is taken as zero on the other elements.
    """
    areas, _ = mesh.geometry
    pts = mesh.vertices[mesh.triangles]
    mids = 0.5 * (pts[:, [1, 2, 0]] + pts[:, [2, 0, 1]])  # [:, q] faces vertex q
    flat = mids.reshape(-1, 2)
    if t is None:
        vals = func(flat[:, 0], flat[:, 1])
    else:
        vals = func(flat[:, 0], flat[:, 1], t)
    vals = np.asarray(vals, dtype=float).reshape(-1, 3)
    if element_filter is not None:
        vals = np.where(element_filter[:, None], vals, 0.0)
    basis_at_mid = 0.5 * (1.0 - np.eye(3))
    return dofs.assemble_vector(
        (areas / 3.0)[:, None] * np.einsum("eq,iq->ei", vals, basis_at_mid)
    )


def estimate_coercivity_constant(mass_C, stiffness, mass):
    """Discrete optimal constant in ||a||^2 <= L_C (||a||_C^2 + ||grad a||^2).

    Computed as 1/lambda_min of the pencil (M_C + K) x = lambda M x with
    M_C the unit-conductivity conducting mass, K the unit stiffness, and
    M the full mass, all CSC on one dof numbering.
    """
    try:
        # fixed v0: ARPACK's random default start makes L_C vary per call
        w = spla.eigsh(mass_C + stiffness, k=1, M=mass, sigma=0.0, which="LM",
                       v0=np.ones(mass.shape[0]), return_eigenvectors=False)
        lam_min = float(w[0])
    except Exception as exc:  # arpack / factorization failures
        raise EigenSolveFailure(str(exc)) from exc
    if lam_min <= 0:
        raise EigenSolveFailure(f"nonpositive smallest eigenvalue {lam_min:.3e}")
    return 1.0 / lam_min

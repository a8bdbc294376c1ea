"""2D cross-section geometry and P1 finite-element assembly.

The domain is the unit square with a disk-shaped conducting subdomain
strictly inside it.  The out-of-plane vector potential reduces to a scalar
nodal field with zero boundary values; its gradient plays the role of the
curl, so the quasilinear curl-curl form becomes int nu(|grad a|) grad a .
grad phi_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenSolveFailure, GeometryError, WindingOverlapsConductor
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


@dataclass(frozen=True)
class DofMap:
    """Interior vertices carry dofs; boundary vertices are fixed to zero."""

    vertex_to_dof: np.ndarray  # (n_vertices,), -1 at boundary vertices
    dof_to_vertex: np.ndarray  # (n_dofs,)

    @property
    def n_dofs(self):
        return self.dof_to_vertex.shape[0]


@dataclass(frozen=True)
class WindingSpec:
    """Stranded windings given by signed axis-aligned support rectangles.

    ``rectangles[j]`` lists the rectangles of winding j as tuples
    (x0, x1, y0, y1, kappa) with kappa the out-of-plane current density
    per unit lumped current (A-turns per unit area).
    """

    rectangles: tuple  # tuple over windings of tuples of rectangles

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

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
            else:
                tris.append((v00, v10, v01))
                tris.append((v10, v11, v01))
    triangles = np.asarray(tris, dtype=np.int64)

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
    vertex_to_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vertex_to_dof[interior] = np.arange(interior.size)
    dofs = DofMap(vertex_to_dof=vertex_to_dof, dof_to_vertex=interior)
    return mesh, dofs


def _check_mesh(mesh):
    areas, _ = _geometry(mesh)
    if np.any(areas < 1e-14):
        raise GeometryError("degenerate triangle (area < 1e-14)")
    c_elems = np.flatnonzero(mesh.element_labels == LABEL_C)
    if c_elems.size == 0:
        return
    c_verts = np.unique(mesh.triangles[c_elems])
    if np.any(mesh.boundary_vertex_flags[c_verts]):
        raise GeometryError("conducting region touches the outer boundary")
    # edge-connectivity of the conducting region
    edge_owner = {}
    adj = [[] for _ in range(c_elems.size)]
    for k, e in enumerate(c_elems):
        t = mesh.triangles[e]
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(a, b), max(a, b))
            if key in edge_owner:
                other = edge_owner[key]
                adj[k].append(other)
                adj[other].append(k)
            else:
                edge_owner[key] = k
    seen = np.zeros(c_elems.size, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for o in adj[k]:
            if not seen[o]:
                seen[o] = True
                stack.append(o)
    if not seen.all():
        raise GeometryError("conducting region is not edge-connected")


_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _assemble_mass(mesh, dofs, element_filter=None):
    areas, _ = _geometry(mesh)
    if element_filter is None:
        elems = np.arange(mesh.n_elements)
    else:
        elems = np.flatnonzero(element_filter)
    tri = mesh.triangles[elems]
    gdofs = dofs.vertex_to_dof[tri]  # (M, 3), -1 at boundary
    local = areas[elems, None, None] * _LOCAL_MASS[None, :, :]
    rows = np.repeat(gdofs, 3, axis=1).ravel()
    cols = np.tile(gdofs, (1, 3)).ravel()
    vals = local.reshape(len(elems), 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    M = sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(dofs.n_dofs, dofs.n_dofs)
    )
    return M.tocsr()


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
    areas, grads = _geometry(mesh)
    local = areas[:, None, None] * np.einsum("eik,ejk->eij", grads, grads)
    gdofs = dofs.vertex_to_dof[mesh.triangles]
    rows = np.repeat(gdofs, 3, axis=1).ravel()
    cols = np.tile(gdofs, (1, 3)).ravel()
    vals = local.reshape(mesh.n_elements, 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    K = sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(dofs.n_dofs, dofs.n_dofs)
    )
    return K.tocsr()


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

    areas, _ = _geometry(mesh)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    C = np.zeros((dofs.n_dofs, winding.m))
    gdofs = dofs.vertex_to_dof[mesh.triangles]
    w = areas / 3.0  # exact int of each hat over its element
    for j in range(winding.m):
        chi = _winding_density(winding, j, centroids)
        contrib = w * chi
        for i in range(3):
            sel = gdofs[:, i] >= 0
            np.add.at(C[:, j], gdofs[sel, i], contrib[sel])
    return C


def _element_state(mesh, dofs, a):
    """Per-element gradient, magnitude, and region label string."""
    _, grads = _geometry(mesh)
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
    areas, grads = _geometry(mesh)
    g, s = _element_state(mesh, dofs, a)
    nu = _element_nu(mesh, model, s)
    flux = (nu * areas)[:, None] * g  # (M, 2)
    contrib = np.einsum("ek,eik->ei", flux, grads)  # (M, 3)
    out = np.zeros(dofs.n_dofs)
    gdofs = dofs.vertex_to_dof[mesh.triangles]
    for i in range(3):
        sel = gdofs[:, i] >= 0
        np.add.at(out, gdofs[sel, i], contrib[sel, i])
    return out


def curlcurl_jacobian(mesh, dofs, model, a):
    """Consistent tangent of the nonlinear curl-curl form, sparse symmetric."""
    areas, grads = _geometry(mesh)
    g, s = _element_state(mesh, dofs, a)
    nu, dgds = _element_nu(mesh, model, s, derivative=True)
    # tangent tensor nu I + (d[nu s]/ds - nu) g g^T / s^2, isotropic limit at s = 0
    T = np.zeros((mesh.n_elements, 2, 2))
    T[:, 0, 0] = nu
    T[:, 1, 1] = nu
    big = s >= 1e-12
    coef = np.zeros_like(s)
    coef[big] = (dgds[big] - nu[big]) / (s[big] * s[big])
    T += coef[:, None, None] * np.einsum("ek,el->ekl", g, g)
    local = areas[:, None, None] * np.einsum("eik,ekl,ejl->eij", grads, T, grads)
    gdofs = dofs.vertex_to_dof[mesh.triangles]
    rows = np.repeat(gdofs, 3, axis=1).ravel()
    cols = np.tile(gdofs, (1, 3)).ravel()
    vals = local.reshape(mesh.n_elements, 9).ravel()
    keep = (rows >= 0) & (cols >= 0)
    J = sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(dofs.n_dofs, dofs.n_dofs)
    )
    return J.tocsr()


def magnetic_energy(mesh, dofs, model, a):
    """Discrete magnetic energy sum_e area_e theta(region_e, |grad a|_e^2)."""
    areas, _ = _geometry(mesh)
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
    areas, _ = _geometry(mesh)
    pts = mesh.vertices[mesh.triangles]
    mids = np.stack(
        [0.5 * (pts[:, 1] + pts[:, 2]),
         0.5 * (pts[:, 2] + pts[:, 0]),
         0.5 * (pts[:, 0] + pts[:, 1])], axis=1
    )
    flat = mids.reshape(-1, 2)
    if t is None:
        vals = func(flat[:, 0], flat[:, 1])
    else:
        vals = func(flat[:, 0], flat[:, 1], t)
    vals = np.asarray(vals, dtype=float).reshape(-1, 3)
    if element_filter is not None:
        vals = np.where(element_filter[:, None], vals, 0.0)
    basis_at_mid = 0.5 * (1.0 - np.eye(3))
    contrib = (areas / 3.0)[:, None] * np.einsum("eq,iq->ei", vals, basis_at_mid)
    out = np.zeros(dofs.n_dofs)
    gdofs = dofs.vertex_to_dof[mesh.triangles]
    for i in range(3):
        sel = gdofs[:, i] >= 0
        np.add.at(out, gdofs[sel, i], contrib[sel, i])
    return out


def estimate_coercivity_constant(mesh, dofs):
    """Discrete optimal constant in ||a||^2 <= L_C (||a||_C^2 + ||grad a||^2).

    Computed as 1/lambda_min of the pencil (M_C + K) x = lambda M x with
    M_C the unit-conductivity conducting mass, K the unit stiffness, and
    M the full mass.
    """
    mass_C = _assemble_mass(mesh, dofs, mesh.element_labels == LABEL_C)
    mass = _assemble_mass(mesh, dofs)
    K = assemble_stiffness(mesh, dofs)
    A = (mass_C + K).tocsc()
    n = dofs.n_dofs
    try:
        if n <= 200:
            from scipy.linalg import eigh

            w = eigh(A.toarray(), mass.toarray(), eigvals_only=True)
            lam_min = float(w[0])
        else:
            # fixed v0: ARPACK's random default start makes L_C vary per call
            w = spla.eigsh(A, k=1, M=mass.tocsc(), sigma=0.0, which="LM",
                           v0=np.ones(n), return_eigenvectors=False)
            lam_min = float(w[0])
    except Exception as exc:  # arpack / factorization failures
        raise EigenSolveFailure(str(exc)) from exc
    if lam_min <= 0:
        raise EigenSolveFailure(f"nonpositive smallest eigenvalue {lam_min:.3e}")
    return 1.0 / lam_min

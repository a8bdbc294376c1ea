"""2D cross-section geometry and P1 finite-element assembly.

The domain is the unit square with a disk-shaped conducting subdomain
strictly inside it.  The out-of-plane vector potential reduces to a scalar
nodal field with zero boundary values; its gradient plays the role of the
curl, so the quasilinear curl-curl form becomes int nu(|grad a|) grad a .
grad phi_i.  K, its tangent and the magnetic energy at a field point
share one element pass, with one ``material.model_eval`` per distinct
curve: one in all when every region resolves to the same parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .core import _csc_pattern, _freeze_pattern, _matvec, _on_frozen_pattern
from .errors import EigenSolveFailure, ValidationFailure, check_finite
# theta_eval is unused here, but perfbench's measure.SPANS patches it here
from .material import REGION_CONDUCTOR, REGION_INSULATOR, model_eval, theta_eval

LABEL_I = 0
LABEL_C = 1
_REGIONS = ((LABEL_C, REGION_CONDUCTOR), (LABEL_I, REGION_INSULATOR))


@dataclass(frozen=True)
class Mesh2D:
    """P1 mesh and its dof numbering: interior vertices carry dofs, in
    vertex order; boundary vertices are fixed to zero.

    The numbering and all data derived from it are cached properties of
    the mesh.  Element-to-dof assembly takes one of two forms.  Sparse
    operators, built once per mesh without boundary entries, serve the
    field: ``element_operator`` builds the gradient G and the metric
    factor E_1 of the conducting mass, the residual K is G^T f, and the
    tangent's data is ``slot_operator`` times three weights per element;
    both take their element rows from ``_block_rows``.  The scatters
    ``assemble_vector`` and ``assemble_matrix`` serve the mass, stiffness,
    load and coupling; local entries at boundary vertices land in one extra
    bin, which is dropped.  The P1 pattern and the slot of each local
    matrix entry in it come from one sort of the entries' keys
    (``core._csc_pattern``).  Every assembled matrix is CSC on that
    pattern, the format SuperLU and ARPACK factor.  The pattern's index
    arrays are read-only, and the mass, the stiffness and the tangent
    share them; the conducting mass ``mass_C`` is a copy pruned to the
    conducting elements' pattern.
    """

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

    @property
    def n_dofs(self):
        return self.dof_to_vertex.shape[0]

    @cached_property
    def dof_to_vertex(self):
        """(n_dofs,) vertex of each dof: the interior vertices in order."""
        return np.flatnonzero(~self.boundary_vertex_flags)

    @cached_property
    def vertex_to_dof(self):
        """(n_vertices,) dof of each vertex, -1 at boundary vertices."""
        flags = self.boundary_vertex_flags
        return np.where(flags, -1, np.cumsum(~flags) - 1)

    @cached_property
    def element_dofs(self):
        """(M, 3) dof of each element's vertices, -1 at boundary vertices."""
        return self.vertex_to_dof[self.triangles]

    @cached_property
    def _p1_pattern(self):
        """``_csc_pattern`` of the 9 M local matrix entries, element-major;
        an entry at a boundary vertex is left out."""
        gdofs, n = self.element_dofs, self.n_dofs
        rows = np.repeat(gdofs, 3, axis=1).ravel()
        cols = np.tile(gdofs, (1, 3)).ravel()
        keys = np.where((rows >= 0) & (cols >= 0), cols * n + rows, n * n)
        P, slots = _csc_pattern(keys, n)
        return _freeze_pattern(P), slots.astype(np.int32)

    @property
    def pattern(self):
        """P1 sparsity pattern, canonical CSC with int32 indices, which are
        read-only (``core._freeze_pattern``)."""
        return self._p1_pattern[0]

    @property
    def matrix_slots(self):
        """(9 M,) int32 slot of each local entry in ``pattern.data``,
        ``pattern.nnz`` at a boundary vertex."""
        return self._p1_pattern[1]

    @cached_property
    def gradient_operator(self):
        """CSR G (2 M, n_dofs) with (G a)[2 e + k] = d_k a on element e."""
        _, grads = self.geometry
        return self.element_operator(grads.transpose(0, 2, 1))

    @cached_property
    def geometry(self):
        """(areas, grads) of the elements, computed once per mesh."""
        return _geometry(self)

    @cached_property
    def gradient_transpose(self):
        """CSR G^T (n_dofs, 2 M), which scatters per-element vectors to
        dofs.  Kept apart from G: the zero-copy ``G.T`` is a CSC, whose
        matvec is slower."""
        return self.gradient_operator.T.tocsr()

    @cached_property
    def slot_operator(self):
        """CSR S (pattern nnz, 3 M) whose product with weights w (M, 3) is
        the data, on ``pattern``, of sum_e sum_k w[e, k] B_k(e).  B_k(e)
        holds d_x phi_i d_x phi_j, d_y phi_i d_y phi_j and d_x phi_i d_y
        phi_j + d_y phi_i d_x phi_j (k = 0, 1, 2) at the slot of each local
        entry (i, j) of element e.

        Built by ``_block_rows`` as S^T, whose row 3 e + k is B_k(e) with
        boundary entries and exact zeros dropped, and converted once.  The
        products are freed before the conversion, so the build peaks near
        twice S's bytes.
        """
        _, grads = self.geometry
        basis = np.empty((self.n_elements, 3, 3, 3))
        for k, (p, q) in enumerate(((0, 0), (1, 1), (0, 1))):
            np.multiply(grads[:, :, None, p], grads[:, None, :, q],
                        out=basis[:, k])
        # numpy buffers the overlapping transposed operand
        basis[:, 2] += basis[:, 2].transpose(0, 2, 1)
        St = _block_rows(basis.reshape(-1, 3, 9),
                         self.matrix_slots.reshape(-1, 1, 9), self.pattern.nnz)
        del basis
        return St.T.tocsr()

    @cached_property
    def regions(self):
        """(region name, element mask) for each region with elements."""
        out = []
        for lab, region in _REGIONS:
            mask = self.element_labels == lab
            if np.any(mask):
                out.append((region, mask))
        return tuple(out)

    @cached_property
    def _region_areas(self):
        """(elements, their areas) of each region of ``regions``, in order."""
        areas, _ = self.geometry
        return tuple((elements, areas[elements]) for elements in (
            np.flatnonzero(mask) for _, mask in self.regions))

    def element_operator(self, blocks, elements=None):
        """CSR with r rows per element from ``blocks`` (|elements|, r, 3):
        row r q + i holds blocks[q, i, j] at the dof of local vertex j of
        element ``elements[q]`` (default: every element, in order).

        Each row lists its entries in local-vertex order, so a product with
        it sums in the order of an element-wise contraction over the local
        vertices; boundary columns and exact zeros are dropped.
        """
        dofs = self.element_dofs
        dofs = dofs if elements is None else dofs[elements]
        return _block_rows(blocks, dofs[:, None, :], self.n_dofs)

    def assemble_vector(self, local):
        """Global vector from element contributions ``local`` (M, 3)."""
        # boundary dofs, -1, land in bin 0, which is dropped
        return np.bincount(self.element_dofs.ravel(order="F") + 1,
                           weights=local.ravel(order="F"),
                           minlength=self.n_dofs + 1)[1:]

    def assemble_matrix(self, local):
        """CSC matrix on the P1 pattern from element blocks ``local`` (M, 3, 3),
        sharing the pattern's read-only index arrays."""
        return _on_frozen_pattern(self.pattern, np.bincount(
            self.matrix_slots, weights=local.ravel(),
            minlength=self.pattern.nnz + 1)[:-1])


def _block_rows(blocks, cols, n_cols):
    """CSR with n_cols columns from ``blocks`` (R, r, b): row r q + i holds
    blocks[q, i, j] at column cols[q, i, j], in order of j, with ``cols``
    broadcast to blocks' shape.  Columns outside [0, n_cols) and exact
    zeros are dropped."""
    # the column test on cols' own shape, before broadcasting (build peak)
    keep = ((cols >= 0) & (cols < n_cols)) & (blocks != 0.0)
    indptr = np.zeros(keep.shape[0] * keep.shape[1] + 1, dtype=cols.dtype)
    np.cumsum(keep.sum(axis=2).ravel(), out=indptr[1:])
    return sp.csr_matrix(
        (blocks[keep], np.broadcast_to(cols, keep.shape)[keep], indptr),
        shape=(indptr.size - 1, n_cols))


@dataclass(frozen=True)
class WindingSpec:
    """Stranded windings given by signed axis-aligned support rectangles.

    ``rectangles[j]`` lists the rectangles of winding j as tuples
    (x0, x1, y0, y1, kappa) with kappa the out-of-plane current density
    per unit lumped current (A-turns per unit area).
    """

    rectangles: tuple  # tuple over windings of tuples of rectangles

    def __post_init__(self):
        checked = []  # kept as tuples of float tuples
        windings = self.rectangles if np.iterable(self.rectangles) else ()
        for j, rects in enumerate(windings):
            what = f"winding w{j + 1}"
            rects = check_finite(what, rects)
            if rects.ndim != 2 or rects.shape[0] < 1 or rects.shape[1] != 5:
                raise ValidationFailure(
                    f"{what} needs rectangles 'x0 x1 y0 y1 kappa', got shape "
                    f"{rects.shape}")
            checked.append(tuple(map(tuple, rects.tolist())))
        if not checked:
            raise ValidationFailure("winding rectangles must list a winding")
        object.__setattr__(self, "rectangles", tuple(checked))

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
    # grad phi_i = rotated edge opposite vertex i / (2 * area)
    e = pts[:, [2, 0, 1]] - pts[:, [1, 2, 0]]
    grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) / det[:, None, None]
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
        raise ValidationFailure("grid resolution n must be at least 4")
    if conductor is not None:
        cx, cy, radius = conductor
        if radius < 0:
            raise ValidationFailure("conductor radius must be nonnegative")
        if radius > 0:
            clearance = 2.0 / n
            if min(cx, cy) - radius < clearance or max(cx, cy) + radius > 1 - clearance:
                raise ValidationFailure(
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

    boundary = np.any(np.isclose(vertices, 0.0) | np.isclose(vertices, 1.0), axis=1)
    mesh = Mesh2D(vertices, triangles, labels, boundary)
    _check_mesh(mesh)
    return mesh


def _check_mesh(mesh):
    areas, _ = mesh.geometry
    if np.any(areas < 1e-14):
        raise ValidationFailure("degenerate triangle (area < 1e-14)")
    c_elems = np.flatnonzero(mesh.element_labels == LABEL_C)
    if c_elems.size == 0:
        return
    c_tris = mesh.triangles[c_elems]
    if np.any(mesh.boundary_vertex_flags[c_tris]):
        raise ValidationFailure("conducting region touches the outer boundary")
    # conducting elements are linked through the edges they share
    ends = np.sort(c_tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, edge = np.unique(ends[:, 0] * mesh.n_vertices + ends[:, 1],
                            return_inverse=True)
    incidence = _block_rows(np.ones((c_elems.size, 1, 3)),
                            edge.reshape(-1, 1, 3), edges.size)
    n_parts, _ = connected_components(incidence @ incidence.T, directed=False)
    if n_parts > 1:
        raise ValidationFailure("conducting region is not edge-connected")


_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _assemble_mass(mesh, element_filter=None):
    areas, _ = mesh.geometry
    if element_filter is not None:
        areas = np.where(element_filter, areas, 0.0)
    M = mesh.assemble_matrix(areas[:, None, None] * _LOCAL_MASS)
    if element_filter is None:
        return M
    M = M.copy()  # index arrays of its own, pruned to its elements' pattern
    M.eliminate_zeros()
    return M


def assemble_sigma_mass(mesh, sigma_C):
    """Conductivity-weighted mass on the conducting region and full mass.

    Returns (M_sigma, M) with (M_sigma)_ij = sigma_C * int_{Omega_C}
    phi_i phi_j and M the plain mass matrix over the whole domain.
    """
    mass_C = _assemble_mass(mesh, mesh.element_labels == LABEL_C)
    mass = _assemble_mass(mesh)
    return sigma_C * mass_C, mass


def assemble_stiffness(mesh):
    """Unit-coefficient stiffness matrix (the linear curl-curl form)."""
    areas, grads = mesh.geometry
    return mesh.assemble_matrix(
        areas[:, None, None] * np.einsum("eik,ejk->eij", grads, grads))


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


def assemble_coupling(mesh, winding):
    """Winding coupling matrix C with C_ij = int chi_j phi_i.

    The density is sampled at element centroids and paired with the exact
    hat-function integral (area/3 per vertex), so the result is exact for
    every element not cut by a support-rectangle edge; centroids never lie
    on grid-aligned rectangle edges, avoiding tie-breaking artifacts.  The
    overlap guard is conservative: it also probes edge midpoints, so a
    winding merely touching the conducting region is rejected.
    """
    pts = mesh.vertices[mesh.triangles[mesh.element_labels == LABEL_C]]
    probes = np.concatenate(
        [pts.mean(axis=1)] + [0.5 * (pts[:, a] + pts[:, b]) for a, b in ((0, 1), (1, 2), (2, 0))]
    )
    for j in range(winding.m):
        if np.any(_winding_density(winding, j, probes) != 0.0):
            raise ValidationFailure(
                f"winding {j + 1} support intersects the conducting region"
            )

    areas, _ = mesh.geometry
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    C = np.zeros((mesh.n_dofs, winding.m))
    w = areas / 3.0  # exact int of each hat over its element
    for j in range(winding.m):
        contrib = w * _winding_density(winding, j, centroids)
        C[:, j] = mesh.assemble_vector(np.repeat(contrib[:, None], 3, axis=1))
    return C


def _element_state(mesh, a):
    """Per-element field gradient (M, 2) and its magnitude (M,) of a dof
    vector ``a``; (M, 2, P) and (M, P) of a block (n_dofs, P) of them."""
    g = _matvec(mesh.gradient_operator, a).reshape(mesh.n_elements, 2,
                                                   *a.shape[1:])
    s = np.hypot(g[:, 0], g[:, 1])
    return g, s


def _material_pass(mesh, model, s):
    """nu, d(nu s)/ds and theta(s^2) per element of the magnitudes ``s``
    (M, ...): one ``model_eval`` over all elements when every region
    resolves to the same parameter dict, one per region otherwise."""
    regions = mesh.regions
    first = regions[0][0]
    params = model.region_params(first)
    if all(model.region_params(r) is params for r, _ in regions[1:]):
        return model_eval(model, first, s)
    out = tuple(np.empty_like(s) for _ in range(3))
    for region, mask in regions:
        for whole, part in zip(out, model_eval(model, region, s[mask])):
            whole[mask] = part
    return out


def _flux_residual(mesh, nu, g):
    """K = G^T (nu area g) of an element pass, nu (M, ...) and g (M, 2,
    ...): each column of a block is bit for bit the K of that column alone,
    as csr_matvecs sums each row in csr_matvec's order."""
    areas, _ = mesh.geometry
    flux = (nu * areas.reshape(-1, *(1,) * (nu.ndim - 1)))[:, None] * g
    return _matvec(mesh.gradient_transpose, flux.reshape(-1, *nu.shape[1:]))


def curlcurl_residuals(mesh, model, a):
    """K of each column of a block ``a`` (n_dofs, P) in one element pass,
    each bit for bit ``curlcurl_residual`` of the column; it leaves the
    shared field point as it was."""
    g, s = _element_state(mesh, np.asarray(a, dtype=float))
    return _flux_residual(mesh, _material_pass(mesh, model, s)[0], g)


class _FieldPoint:
    """One element pass at a field point a: g = grad a and s = |g| per
    element, then ``_material_pass`` for nu, d(nu s)/ds and theta(s^2)
    per element, and the energy sum_e area_e theta(s_e^2), summed region
    by region; K is filled in on first use.

    It holds no reference to its mesh, which holds it (see ``_field_point``).
    """

    __slots__ = ("model", "shape", "key", "g", "s", "nu", "dgds", "energy",
                 "_K")

    def __init__(self, mesh, model, a):
        self.model, self.shape, self.key = model, a.shape, a.tobytes()
        self.g, self.s = _element_state(mesh, a)
        self.nu, self.dgds, theta = _material_pass(mesh, model, self.s)
        self.energy = 0.0
        for elements, areas in mesh._region_areas:
            self.energy += float(np.dot(areas, theta[elements]))
        self._K = None

    def K(self, mesh):
        if self._K is None:
            self._K = _flux_residual(mesh, self.nu, self.g)
        return self._K


def _field_point(mesh, model, a):
    """The element pass at ``a``, shared by K, K_tangent and the energy.

    Damped Newton asks for all three at nearly the same few iterates, so
    the last point is kept in the mesh's ``__dict__``, as its cached
    properties are, and lives exactly as long as the mesh.  One suffices:
    a prox step evaluates x_{k-1} before its candidate start, so Newton's
    first iterate is the last point evaluated.  A point matches on
    ``model`` identity, on the shape of ``a`` and on the exact bits of its
    values, compared with the stored ``a.tobytes()``, so an array mutated
    in place is a new point, and so are -0.0 against 0.0 and NaNs of
    different payloads: a match is never looser than value equality.
    The bytes cost less than ``np.array_equal`` (0.15 against 2.0 us at
    225 values, 1.4 against 2.8 us at 3969, the n = 64 mesh; 2-core x86
    VM).  Models and meshes are treated as immutable, as the cached
    properties of ``Mesh2D`` already assume.
    """
    a = np.asarray(a, dtype=float)
    pt = mesh.__dict__.get("_field_point")
    if (pt is None or pt.model is not model or pt.shape != a.shape
            or pt.key != a.tobytes()):
        pt = mesh.__dict__["_field_point"] = _FieldPoint(mesh, model, a)
    return pt


def curlcurl_residual(mesh, model, a):
    """Nonlinear form K(a)_i = sum_e nu(|grad a|_e) grad a . grad phi_i area_e."""
    return _field_point(mesh, model, a).K(mesh).copy()


def curlcurl_jacobian(mesh, model, a):
    """Consistent tangent of the nonlinear curl-curl form, sparse symmetric.

    Per element it is nu times the local stiffness plus the rank-one term
    c q q^T with c = area (d[nu s]/ds - nu) / s^2 and q_i = grad phi_i .
    grad a; the rank-one term vanishes in the isotropic limit s = 0.  With
    g = grad a its data is ``Mesh2D.slot_operator`` applied to the weights
    nu area + c g_x^2, nu area + c g_y^2 and c g_x g_y of each element.
    The result shares ``mesh.pattern``'s read-only index arrays, so no
    sparse matrix is built per call; an in-place prune of it raises.
    """
    areas, _ = mesh.geometry
    pt = _field_point(mesh, model, a)
    s, g, nu, dgds = pt.s, pt.g, pt.nu, pt.dgds
    coef = np.divide(areas * (dgds - nu), s * s, out=np.zeros_like(s),
                     where=s >= 1e-12)
    iso = nu * areas
    # written in place into one (M, 3) buffer, each weight evaluated as
    # (coef g_x) g_x + iso, (coef g_y) g_y + iso and (coef g_x) g_y
    gx, gy = g[:, 0], g[:, 1]
    weights = np.empty((s.size, 3))
    w_xx, w_yy, w_xy = weights.T
    np.multiply(coef, gx, out=w_xy)
    np.multiply(w_xy, gx, out=w_xx)
    w_xx += iso
    np.multiply(coef, gy, out=w_yy)
    w_yy *= gy
    w_yy += iso
    w_xy *= gy
    return _on_frozen_pattern(mesh.pattern,
                              _matvec(mesh.slot_operator, weights.ravel()))


def magnetic_energy(mesh, model, a):
    """Discrete magnetic energy sum_e area_e theta(region_e, |grad a|_e^2)."""
    return _field_point(mesh, model, a).energy


def assemble_load(mesh, func, element_filter=None):
    """Load vector l_i = int f phi_i by the edge-midpoint rule.

    ``func(x, y)`` is evaluated pointwise.  With a boolean
    ``element_filter``, f is taken as zero on the other elements.
    """
    areas, _ = mesh.geometry
    pts = mesh.vertices[mesh.triangles]
    mids = 0.5 * (pts[:, [1, 2, 0]] + pts[:, [2, 0, 1]])  # [:, q] faces vertex q
    flat = mids.reshape(-1, 2)
    vals = np.asarray(func(flat[:, 0], flat[:, 1]), dtype=float).reshape(-1, 3)
    if element_filter is not None:
        vals = np.where(element_filter[:, None], vals, 0.0)
    basis_at_mid = 0.5 * (1.0 - np.eye(3))
    return mesh.assemble_vector(
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

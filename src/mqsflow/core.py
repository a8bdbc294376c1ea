"""Generic solver and property checks for degenerate gradient evolutions.

The evolution reads  E* f(t) - E* d/dt (E x(t)) in dPhi(x(t))  with a
linear map E between coordinate spaces and a convex functional Phi that is
E-elliptic (convex and coercive after adding (omega/2) ||E x||^2).  Time
stepping is implicit Euler realized as one convex minimization per step:

    x_k = argmin  Phi(x) + 1/(2 tau) || E x - (E x_{k-1} + tau f_k) ||^2

solved by damped Newton.  Minimizing the E-misfit implicitly projects the
data onto the closure of range(E), so the degenerate directions never need
an explicit basis.  A solve's settings are one checked ProxConfig, which
solve_trajectory and each of its prox_steps take.

Every Newton system in the package, (hessian + E^T E / tau) d = rhs, goes
through NewtonSystem: a prox step's and a Schur witness step's, on the
same E, and that of the oracle eval_phi_E, whose newton_minimize makes
one on a map with no rows, so that the Newton matrix is the hessian
itself (as for any newton_minimize given none).  For a dense or
sparse E whose last k >= 0 rows form a thin block U (k << dim_X), it is
solved as the symmetric quasi-definite field-circuit system
K [d; mu] = [rhs; 0], with K = [[hessian + E_1^T E_1 / tau, U^T],
[U, -tau I_k]]: the k unknowns mu = U d / tau stay beside d, and the dense
U^T U / tau is never formed.  K has an LDL^T factor in every symmetric
order (Vanderbei, SIAM J. Optim. 5(1), 1995; stability: Gill, Saunders &
Shinnerl, SIAM J. Matrix Anal. Appl. 17(1), 1996), so SuperLU factors it
in symmetric mode without pivoting.  The K of a solve share one pattern
(on the field-circuit problem, always), so a NewtonSystem, made per
solve, finds a pattern and its MMD ordering at the first factor on it and
keeps K symmetrically permuted by that ordering; every later K on the
pattern fills the kept one and is factored in natural order.

The Newton matrix M is SPD (E-ellipticity) and, from the extrapolated
start, changes little from one Newton system to the next.  So from
PCG_MIN_DIM = 100 unknowns on, a NewtonSystem keeps its last factor and
solves a later system by conjugate gradients on K preconditioned with it
(a lagged preconditioner inside Newton; Knoll & Keyes, J. Comput. Phys.
193, 2004, sec. 3).  CG from 0 keeps mu = U d / tau in every iterate, as
K and the kept factor share their last k rows, and there K acts as M.

The PCG stop: CG stops once the residual of M, rhs - M d = r_1 +
U^T r_2 / tau read off K's residual (r_1, r_2), is at most
max(PCG_RTOL ||rhs||, tol / 10), where PCG_RTOL = 1e-10 and tol is
Newton's own absolute stopping tolerance, which newton_minimize passes
down (PCG_RTOL ||rhs|| alone when a caller gives no tol), first on the
recursive residual and then on the true one; K's own residual can be
smaller by ||U|| / tau.  When CG misses that within PCG_MAX_ITER = 6
iterations, or breaks down, the system is refactored and the new factor
kept.  A miss is called as soon as it shows: from iteration j = 2 on, CG
ends once the Newton residual ||r_j||, carried on at its mean contraction
rho = (||r_j|| / ||r_0||)^(1/j) so far, would still be above the stop
after PCG_MAX_ITER iterations (||r_j|| rho^(PCG_MAX_ITER - j) > bound).
The system is then refactored as after a full miss, so a miss called
right gives the same direction; a residual of a lagged factor falls at a
near-steady rate, and j = 1 alone misjudges systems that CG finishes.
Below 100 unknowns every system is factored and no factor kept.

The Newton directions of a smooth transient are nearly parallel, so PCG
starts from a Galerkin projection on the last ones (Fischer, Comput.
Methods Appl. Mech. Engrg. 163, 1998).  Above the cutoff a NewtonSystem
keeps, in the kept permuted order, the last PCG_HISTORY = 4 solutions X
of its pattern's systems, direct or PCG, and forgets them on a new
pattern; x_0 = X (X^T K X)^{-1} X^T [rhs; 0] is accepted with no CG
iteration when its true residual already meets the PCG stop (a solution
so found lies in span X and is not kept), and is CG's start otherwise.
The stop's bound stays the one taken from ||rhs||; the miss test
measures its contraction from the residual of x_0.  A gate keeps the
projection only while it pays for itself: it stays open while the cut of
the Newton residual, ||r(x_0)|| / ||rhs||, is at least that of one CG
iteration of the last attempt, its mean contraction (1 before the first
attempt).  A projection that cuts less closes the gate until
PCG_HISTORY new solutions have replaced the history, and each further
one in a row on a full history doubles that wait, so a solve whose
directions are unrelated forms a handful of projections in all.
Why x_0 keeps descent: every past solution keeps mu = U d / tau, so
x_0 does too and K acts there as M; with rhs = -g the quadratic
q(x) = 1/2 x^T K x - [rhs; 0]^T x is 1/2 d^T M d + g^T d, and at the
Galerkin x_0 it is -1/2 c^T y <= 0 (y the Gram solve, c = X^T [rhs; 0]).
A start whose computed q(x_0) is positive is dropped for 0.  CG from x_0
lowers q further, so its d has g^T d <= -1/2 d^T M d < 0.

Such a residual cannot stop Newton early: the stopping test reads the
gradient recomputed at the new iterate, never the linear residual.  Nor
can it make Newton miss newton_tol, down to MIN_NEWTON_TOL.  With rhs = -g, a
direction d with ||M d + g|| <= max(1e-10 ||g||, tol / 10) is inexact
Newton with forcing term max(1e-10, tol / (10 ||g||)) (Dembo, Eisenstat
& Steihaug, SIAM J. Numer. Anal. 19(2), 1982), a forcing term sized to
Newton's own test as Eisenstat & Walker (SIAM J. Sci. Comput. 17(1),
1996) size theirs to the convergence seen.  Its full step leaves a
gradient of at most tol / 10 (or 1e-10 ||g||) plus the quadratic term any
Newton step leaves, so wherever that term is below 0.9 tol the step meets
tol, as an exact solve's would.  And d is a descent direction (CG from 0 gives
g^T d = -d^T M d < 0, from x_0 g^T d < 0 as above), so the line search
and the local convergence of Newton are kept; Newton still checks it.
Against factoring every system, at newton_tol 1e-10 and 1e-14, the
default problem at n = 64 took 68/68 and 125/125 Newton systems, and the
three-winding one at n = 32 181/181 and 219/219, with fields and
currents within 2.1e-12 of the problem scale; with the projected start,
181/181 and 217/219, within 2.3e-12, and the default problem at n = 16
69/69 and 127/126, within 5.6e-13.

Each step's Newton solve starts from the extrapolation of the past
states (the standard starting value for Newton inside implicit
integrators): the polynomial through the last min(k, 4) states, taken one
step ahead, so 2 x_1 - x_0 at step 2, the parabola at step 3 and the
cubic from step 4 on.  A guard keeps it only if its prox objective is no
higher than that of x_{k-1}; otherwise Newton starts at x_{k-1}.  Step 1
has nothing to extrapolate, and its candidate is 0 (none when x_0 = 0).
The source paper writes the coupled system as a gradient system in the
metric of E, whose trajectory for t > 0 depends on x_0 only through
E x_0; likewise a prox step reads x_{k-1} only through
b = E x_{k-1} + tau f_k.  A rough x_0, random where E does not see it,
only slows Newton: on the three-winding problem at n = 32 (perfbench
multiwinding_n32, seed 9301), step 1's prox objective is 31 at the random
x_0, 0.36 at 0 and 0.054 at its minimizer, and Newton took 21 systems
from x_0 and 3 from 0.  A consistent x_0, such as the field of an
earlier step, has the lower objective and is kept (0.17 against 3.6 on
the default problem at n = 16).  The prox objective is strictly convex,
so the minimizer does not depend on the start: a start changes a step's
cost, never its answer, and is no setting.  The stopping tolerance,
newton_tol (1 + ||g(x_{k-1})||), is the same from any start, and a step
whose x_{k-1} already meets it returns x_{k-1}.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import null_space
# private: the compiled kernels behind A @ x (see _matvec); pyproject.toml
# bounds scipy below 1.18, and tests/test_system.py checks the kernels
# against A @ x bit for bit
from scipy.sparse import _sparsetools

from .errors import (
    NonConvergence, SingularStep, StepFailure, ValidationFailure, check_finite,
)

# Below MIN_NEWTON_TOL the tolerance sits under the rounding floor of the
# prox gradient, so Newton spends its whole budget and fails: 1e-15 did at
# n = 8 and n = 32 on the field-circuit problem, 1e-14 converges.
MIN_NEWTON_TOL = 1e-14
# Above MAX_NEWTON_TOL Newton would stop before it moved.
MAX_NEWTON_TOL = 1e-3
# Every Newton loop's iteration budget.  Each step is a strictly convex
# minimization, so the budget changes no answer of a step that passes.
NEWTON_MAX_ITER = 50

# eval_phi_E builds a dense null-space basis, so it refuses larger maps
ORACLE_DIM_LIMIT = 64

# NewtonSystem solves a Newton system of at least PCG_MIN_DIM unknowns by
# PCG on its last kept factor, to the PCG stop (module docstring) within
# PCG_MAX_ITER iterations; a smaller one is factored.  PCG_MIN_DIM is the
# smallest size from which PCG won this sweep: solve on the default
# problem, PCG against factoring every system, in alternated in-process
# pairs (2-core x86 VM, one BLAS thread); median time ratio, PCG's wins:
#   n = 8   (49 unknowns)   +4.9 %  10/25      n = 12  (121)  -3.6 %  15/25
#   n = 9   (64)            +3.6 %   8/25      n = 13  (144)  -8.0 %  21/25
#   n = 10  (81)            +3.0 %   6/25      n = 16  (225)   -20 %  14/15
#   n = 11  (100)           -4.1 %  16/25      n = 20  (361)   -29 %  13/15
# The budget: with the tol / 10 target a kept factor serves longer and
# ages, and CG gains about 3x an iteration, not 10x, so an aged factor is
# replaced after 6; solve at n = 64 took 0.410 s, 0.405 and 0.413 s with
# budgets of 5 and 7, and 0.469 s with 10.
PCG_MIN_DIM = 100
PCG_MAX_ITER = 6
# PCG starts from the Galerkin projection on the last PCG_HISTORY
# solutions behind its gate (module docstring).  Factors/PCG systems/CG
# iterations at seed 9301, from 0 -> from the projection, with the Newton
# systems unchanged: perfbench transient_n64 4/64/301 -> 2/66/188 (60
# projections), the default problem at n = 32 3/66/339 -> 2/67/191 and at
# n = 128 4/64/322 -> 2/66/215, perfbench multiwinding_n32 71/113/486 ->
# 70/114/493 (10 projections in 184 Newton systems).  A gate that opens
# again after PCG_HISTORY solutions each time, with no doubling, formed 50
# projections there (70/114/492) for the same transient_n64 counts;
# doubling from the first closing on took transient_n64 to 2/66/200.
PCG_HISTORY = 4
PCG_RTOL = 1e-10

# NewtonSystem's symmetric-mode factors take SuperLU's supernode settings
# relax = 1 (no relaxed supernodes) and panel_size = 1 at every size, in
# place of its defaults relax = 10 and panel_size = 20, which are sized for
# large matrices (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix
# Anal. Appl. 20(3), 1999); the zero-pivot fallback keeps the defaults.
# One factor plus one solve of a Newton matrix of the default problem, ms,
# defaults -> these, median of 9 interleaved rounds in-process (2-core x86
# VM, one BLAS thread), natural order on the kept ordering | the first,
# MMD-ordered factor of a solve, with K's unknowns in parentheses:
#   n = 8    (50)            0.086 -> 0.081 | 0.112 -> 0.101
#   n = 16   (226)           0.399 -> 0.288 | 0.485 -> 0.439
#   n = 32   (962)           1.54  -> 0.86  | 2.61  -> 1.89
#   n = 64   (3970)          8.02  -> 5.63  | 7.78  -> 6.87
#   n = 128  (16130)         38.4  -> 27.9  | 45.4  -> 35.8
# Of relax in {1, 2, 4, default} x panel_size in {1, 2, 4, default}, the
# best with panel_size 1 was within 6 % of the fastest on each matrix;
# these were within 14 %, and no setting was faster than these at more
# than three of the five sizes, so no size rule is taken.
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 1


# the kernels behind A @ x of a CSR and a CSC A: (matvec, matvecs)
_KERNELS = {fmt: (getattr(_sparsetools, fmt + "_matvec"),
                  getattr(_sparsetools, fmt + "_matvecs"))
            for fmt in ("csr", "csc")}


def _matvec(A, x):
    """A @ x, bit for bit, without SciPy's Python dispatch.

    For a CSR or CSC A of float64 data and a float64 ndarray x of shape
    (N,) or (N, P), P != 1, of A's N columns, this is what A @ x runs
    behind ``_spbase._matmul_dispatch`` in SciPy 1.17:
    ``_cs_matrix._matmul_vector`` or ``_matmul_multivector`` in
    ``scipy/sparse/_compressed.py``, which zero a result and call
    ``_sparsetools.<fmt>_matvec`` or ``<fmt>_matvecs`` on A's own indptr,
    indices and data (a block raveled in C order).  The kernels check no
    length, so the shape is checked here; every other input, (N, 1)
    included, goes to A @ x, which raises SciPy's ValueError on a wrong
    one.  On the default
    problem at n = 16, the products of E, E^T, G, G^T, S and PCG's A took
    2.2-10.3 us this way against 3.9-13.4 us through A @ x (best of 7
    timeit rounds, 2-core x86 VM).
    """
    kernels = _KERNELS.get(A.format)
    if (kernels is None or x.__class__ is not np.ndarray
            or x.dtype != np.float64 or A.dtype != np.float64):
        return A @ x
    n_row, n_col = A.shape
    if x.shape == (n_col,):
        y = np.zeros(n_row)
        kernels[0](n_row, n_col, A.indptr, A.indices, A.data, x, y)
        return y
    if x.ndim == 2 and x.shape[0] == n_col and x.shape[1] != 1:
        y = np.zeros((n_row, x.shape[1]))
        kernels[1](n_row, n_col, x.shape[1], A.indptr, A.indices, A.data,
                   x.ravel(), y.ravel())
        return y
    return A @ x


class LinearMapE:
    """Linear metric map E : R^dim_X -> R^dim_Z, dense or sparse, immutable.

    The last ``k`` rows may form a thin block U (default k = 0), whose k
    unknowns prox steps keep beside x in the Newton system (see
    NewtonSystem).
    """

    def __init__(self, matrix, k=0):
        if not sp.issparse(matrix):
            matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.matrix = matrix
        self._sparse = sp.issparse(matrix)
        self.dim_Z, self.dim_X = matrix.shape
        if not 0 <= k <= self.dim_Z:
            raise ValidationFailure(
                f"thin block of {k} rows in a map with {self.dim_Z}")
        self.k = k

    def apply(self, x):
        return _matvec(self.matrix, x) if self._sparse else self.matrix @ x

    def apply_adjoint(self, z):
        return _matvec(self.adjoint, z) if self._sparse else self.adjoint @ z

    @cached_property
    def adjoint(self):
        """E^T, CSR iff the map is sparse."""
        return self.matrix.T.tocsr() if sp.issparse(self.matrix) else self.matrix.T

    @cached_property
    def lead_gram(self):
        """E_1^T E_1 of the rows above the thin block, canonical CSC."""
        lead = sp.csr_matrix(self.matrix)[:self.dim_Z - self.k]
        gram = (lead.T @ lead).tocsc()
        gram.sum_duplicates()
        return gram


def _csc_keys(A, n_rows):
    """col * n_rows + row of each stored entry of a CSC matrix."""
    cols = np.repeat(np.arange(A.shape[1], dtype=np.int64), np.diff(A.indptr))
    return cols * n_rows + A.indices


def _csc_pattern(keys, n):
    """The n x n pattern P of the keys col * n + row, and the slot of each
    key in ``P.data``.

    P is a canonical CSC with int32 indices and zero data: a canonical CSC
    stores its entries in the order of their sorted keys, so one sort finds
    both.  The key n * n stands for a left-out entry; it gets slot P.nnz.
    """
    keys, slots = np.unique(keys, return_inverse=True)
    if keys.size and keys[-1] == n * n:
        keys = keys[:-1]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return sp.csc_matrix((np.zeros(keys.size), (keys % n).astype(np.int32),
                          indptr), shape=(n, n)), slots


def _freeze_pattern(P):
    """Make the index arrays of the canonical CSC P read-only and set its
    canonical flag, so that ``_on_frozen_pattern`` may share them: an
    in-place prune of P or of such a matrix raises instead of changing P."""
    P.indptr.flags.writeable = P.indices.flags.writeable = False
    P.has_canonical_format = True
    return P


def _on_frozen_pattern(P, data):
    """A canonical CSC with ``data`` on the pattern P of
    ``_freeze_pattern``, sharing P's index arrays: a shallow copy of P,
    with neither SciPy's format checks nor an index copy."""
    A = copy.copy(P)
    A.data = data
    return A


@dataclass
class EllipticFunctional:
    """Convex functional with value, Gateaux derivative and tangent.

    ``hessian`` returns the matrix of second derivatives at a point, dense
    or sparse; every prox step and eval_phi_E take their Newton matrices
    from it.
    """

    eval: Callable[[np.ndarray], float]
    gateaux: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], object]
    ellipticity_omega: float = 0.0


@dataclass(frozen=True)
class ProxConfig:
    """A solve's settings, checked here and nowhere else."""

    tau: float
    n_steps: int
    newton_tol: float = 1e-10

    def __post_init__(self):
        check_finite("n_steps", self.n_steps, numbers.Integral)
        for name in ("tau", "newton_tol", "n_steps"):
            if not check_finite(name, getattr(self, name), numbers.Real) > 0:
                raise ValidationFailure(
                    f"{name} must be positive, got {getattr(self, name)}")
        if self.newton_tol < MIN_NEWTON_TOL:
            raise ValidationFailure(
                f"newton_tol must be at least {MIN_NEWTON_TOL:g}, the rounding "
                f"floor of the prox gradient, got {self.newton_tol}")
        if self.newton_tol > MAX_NEWTON_TOL:
            raise ValidationFailure(
                f"newton_tol must be at least {MIN_NEWTON_TOL:g} and at "
                f"most {MAX_NEWTON_TOL:g}, got {self.newton_tol}")

    def check_against(self, phi):
        omega = phi.ellipticity_omega
        if omega > 0 and not self.tau < 1.0 / omega:
            raise ValidationFailure(
                f"tau = {self.tau} too large for ellipticity omega = {omega}"
            )


@dataclass
class DaeTrajectory:
    times: np.ndarray     # (N+1,)
    states: np.ndarray    # (N+1, dim_X)
    rates: np.ndarray     # (N, dim_Z), (E x_k - E x_{k-1}) / tau
    energies: np.ndarray  # (N+1,), Phi(x_k)
    inputs: np.ndarray    # (N, dim_Z), the per-step samples f_k
    subgradients: np.ndarray  # (N+1, dim_X), eta_k = dPhi(x_k)

    @property
    def tau(self):
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self):
        return self.rates.shape[0]


class NewtonSystem:
    """The Newton matrices H + E^T E / tau of one solve, for dense or sparse
    hessians H, taken in canonical CSC; E is not changed.

    Each is solved through K = [[H, 0], [0, 0]] + C (module docstring),
    where C = [[E_1^T E_1 / tau, U^T], [U, -tau I_k]] is built once.  The
    first H on a pattern fills K on the union of its and C's patterns and
    factors it with SuperLU's symmetric MMD_AT_PLUS_A ordering; right then
    A = P^T K P by that factor's ``perm_c`` is kept, with the slots of H's
    and C's entries in it, the permutation and its inverse.  Both patterns
    and their slots come from ``_csc_pattern`` of H's and C's keys, the
    second time moved by the permutation.  Every later H
    on that pattern fills A, which is factored in natural order (the same
    pivots without the ordering's cost), with the right-hand side gathered
    in and the solution back as one vector each.  An H is on the kept
    pattern when its index arrays are the kept ones themselves, read-only
    (the tangent's share ``fem.Mesh2D.pattern``'s), or have their exact
    bytes.

    From PCG_MIN_DIM unknowns on, the last natural-order factor is kept for
    PCG, which ends at the PCG stop (module docstring).  When
    PCG fails (p^T A p <= 0 or a non-finite value breaks it down), the kept
    factor is dropped, so that two are never alive at once, and A is
    refactored, solved directly, and its factor kept.  Each solution on
    the pattern, from then on, goes into an (N, PCG_HISTORY) buffer over
    the oldest, and PCG starts from the Galerkin projection on them while
    its gate is open (module docstring): A X as one sparse-by-dense
    product, and the PCG_HISTORY x PCG_HISTORY Gram system solved densely.
    PCG reads the Newton residual off A's residual in A's order, with U^T
    moved to that order once per pattern.

    ``factors``, ``pcg_systems``, ``cg_iters`` and ``projections`` count
    the factors taken, the systems PCG solved (those the projected start
    solved outright included), every CG iteration, failed attempts
    included, and the projected starts formed; an attempt ends early, from
    its second iteration on, once its contraction so far shows that it
    would miss (``_pcg_will_miss``).
    A factor is one ``splu`` call, or a second with SuperLU's defaults on
    a zero pivot, whose column order is then the one kept.
    """

    def __init__(self, E, tau):
        self.E, self.tau = E, tau
        self._pattern = None  # H's indptr, indices; A, slots, perm, inverse
        self._shared = None   # H's index arrays themselves, when read-only
        self._thin = None     # U's places in A, and U^T (k, N) in A's order
        self._lagged = None   # a natural-order factor of A
        self._clear_history()
        self.factors = self.pcg_systems = self.cg_iters = 0
        self.projections = 0

    def _clear_history(self):
        """Forget the past solutions and open the gate, for a new pattern."""
        self._past = None       # (N, PCG_HISTORY) past solutions of A
        self._stored = 0        # solutions recorded on the pattern
        self._closed_until = 0  # the gate is closed below this many
        self._misses = 0        # gate closings in a row on a full history
        self._rho = 1.0         # the last CG attempt's mean contraction

    @cached_property
    def _block(self):
        """U^T, dense, and C, canonical CSC (bmat sums and sorts)."""
        E, tau = self.E, self.tau
        Ut = sp.csr_matrix(E.matrix)[E.dim_Z - E.k:].T.toarray()
        C = sp.bmat([[E.lead_gram / tau, Ut], [Ut.T, -tau * sp.identity(E.k)]],
                    format="csc")
        return Ut, C

    def solve(self, H, rhs, tol=None):
        """(H + E^T E / tau)^{-1} rhs; by PCG to the PCG stop (module
        docstring) set by Newton's tolerance ``tol``, if given."""
        C = self._block[1]
        H = H.tocsc() if sp.issparse(H) else sp.csc_matrix(H)
        if not H.has_canonical_format:  # sorted and summed, in a copy
            H = H.copy()
            H.sum_duplicates()
        n, N = H.shape[0], C.shape[0]
        b = np.zeros(N)
        b[:n] = rhs
        kept, shared = self._pattern, self._shared
        if kept is None or not (
                (shared is not None and H.indptr is shared[0]
                 and H.indices is shared[1])
                or _index_bytes(H) == kept[:2]):
            keys = np.concatenate([_csc_keys(H, N), _csc_keys(C, N)])
            K, slots = _csc_pattern(keys, N)
            K.data[slots[:H.nnz]] = H.data
            K.data[slots[H.nnz:]] += C.data
            self._pattern = self._lagged = None
            self._clear_history()
            lu = self._factor(K, "MMD_AT_PLUS_A")
            x, perm = lu.solve(b)[:n], lu.perm_c.astype(np.int64)
            del lu, K  # A is built while no factor is alive (peak RSS)
            A, lands = _symmetric_permutation(perm, keys)
            self._pattern = (*_index_bytes(H), A, lands[:H.nnz],
                             lands[H.nnz:], perm, np.argsort(perm))
            self._shared = None
            if not (H.indptr.flags.writeable or H.indices.flags.writeable):
                self._shared = H.indptr, H.indices
            Ut = np.zeros((N - n, N))  # U^T's columns in A's order
            Ut[:, perm[:n]] = self._block[0].T
            self._thin = perm[n:], Ut
            return x
        A, h_slots, c_slots, perm, inverse = kept[2:]
        A.data[:] = 0.0
        A.data[h_slots] = H.data
        A.data[c_slots] += C.data
        b = b.take(inverse)
        x = None if self._lagged is None else self._pcg(A, b, tol)
        if x is None:
            self._lagged = None
            lu = self._factor(A, "NATURAL")
            x = lu.solve(b)
            if n >= PCG_MIN_DIM:
                self._lagged = lu
                self._record(x)
        return x.take(perm)[:n]

    def _factor(self, A, permc_spec):
        """SuperLU's symmetric-mode factor of A with SUPERLU_RELAX and
        SUPERLU_PANEL_SIZE, or its default one (COLAMD, partial pivoting,
        default supernodes) on a zero pivot."""
        try:
            lu = spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                           relax=SUPERLU_RELAX, panel_size=SUPERLU_PANEL_SIZE,
                           options={"SymmetricMode": True})
        except RuntimeError:  # a zero pivot: SuperLU's defaults
            lu = spla.splu(A)
        self.factors += 1
        return lu

    def _newton_residual(self, r):
        """||r_1 + U^T r_2 / tau|| of a residual r of A, summed in A's
        order: r plus U^T r_2 / tau, with the places of r_2 zeroed."""
        thin, Ut = self._thin
        v = (r[thin] / self.tau).dot(Ut)
        v += r
        v[thin] = 0.0
        return math.sqrt(v.dot(v))

    def _record(self, x):
        """Keep the solution x of A in the history, over the oldest."""
        if self._past is None:
            self._past = np.empty((x.size, PCG_HISTORY))
        self._past[:, self._stored % PCG_HISTORY] = x
        self._stored += 1

    def _projected_start(self, A, b):
        """The Galerkin start x0 = X (X^T A X)^{-1} X^T b on the history X
        and its residual b - A x0, or None while the gate is closed or
        when x0 would not lower 1/2 x^T A x - b^T x below its value at 0."""
        m = min(self._stored, PCG_HISTORY)
        if m == 0 or self._stored < self._closed_until:
            return None
        self.projections += 1
        X = self._past[:, :m]
        AX = _matvec(A, X)
        gram, c = X.T @ AX, b.dot(X)
        try:
            y = np.linalg.solve(gram, c)
        except np.linalg.LinAlgError:
            return None
        if not c.dot(y) >= 0.5 * y.dot(gram.dot(y)):  # or not finite
            return None
        return X @ y, b - AX @ y

    def _pcg(self, A, b, tol):
        """PCG on A x = b preconditioned by the kept factor, from the
        projected start while the gate is open and from 0 otherwise (module
        docstring); None when it breaks down or misses the PCG stop within
        PCG_MAX_ITER iterations, or is bound to miss it."""
        lu = self._lagged
        res0 = math.sqrt(b.dot(b))  # the Newton residual of x = 0, ||rhs||
        bound = PCG_RTOL * res0
        if tol is not None:
            bound = max(bound, 0.1 * tol)
        with np.errstate(all="ignore"):  # a non-finite value breaks down
            start = self._projected_start(A, b)
            if start is None:
                x, r = np.zeros_like(b), b.copy()
            else:
                x, r = start
                cut = self._newton_residual(r)
                if cut <= bound:  # r is the true residual of x
                    self.pcg_systems += 1
                    return x
                if cut > self._rho * res0:
                    self._closed_until = self._stored + (
                        PCG_HISTORY << self._misses)
                    self._misses += self._stored >= PCG_HISTORY
                else:
                    self._misses = 0
                res0 = cut
            p = z = lu.solve(r)
            rz = r.dot(z)
            for j in range(1, PCG_MAX_ITER + 1):
                self.cg_iters += 1
                q = _matvec(A, p)
                pq = p.dot(q)
                if not (0.0 < pq < math.inf and 0.0 < rz < math.inf):
                    return None
                alpha = rz / pq
                x += alpha * p
                r -= alpha * q
                res = self._newton_residual(r)
                self._rho = (res / res0) ** (1.0 / j)
                if res <= bound:  # then the true one
                    if not self._newton_residual(b - _matvec(A, x)) <= bound:
                        return None
                    self.pcg_systems += 1
                    self._record(x)
                    return x
                if j >= 2 and _pcg_will_miss(res, res0, j, bound):
                    return None
                z = lu.solve(r)
                rz, rz_old = r.dot(z), rz
                p = z + (rz / rz_old) * p
        return None


def _index_bytes(H):
    """The exact bytes of a CSC H's indptr and indices."""
    return H.indptr.tobytes(), H.indices.tobytes()


def _pcg_will_miss(res, res0, j, bound):
    """Whether CG, whose Newton residual fell from ``res0`` to ``res`` in
    its first j iterations, misses ``bound`` within PCG_MAX_ITER of them
    if it keeps its mean contraction (res / res0)^(1 / j) so far."""
    rho = (res / res0) ** (1.0 / j)
    return res * rho ** (PCG_MAX_ITER - j) > bound


def _symmetric_permutation(perm, keys):
    """P^T S P, which moves entry (i, j) of the pattern S of ``keys`` to
    (perm[i], perm[j]): the pattern, data zero, and the slot each key
    lands in (``_csc_pattern`` of the moved keys)."""
    n = perm.size
    return _csc_pattern(perm[keys // n] * n + perm[keys % n], n)


def _newton_system_for(E, tau, newton_system=None):
    """``newton_system``, which must be a NewtonSystem of this E and tau
    (one made for others is a ValidationFailure), or a new one of them."""
    if newton_system is None:
        return NewtonSystem(E, tau)
    if newton_system.E is not E or newton_system.tau != tau:
        raise ValidationFailure("newton_system is for another E or tau")
    return newton_system


def _solve_newton_system(H, rhs, newton_system, tol=None):
    """The Newton direction d of (H + E^T E / tau) d = rhs, for the hessian
    H, solved through ``newton_system`` (a NewtonSystem) to the PCG stop
    (module docstring) set by Newton's tolerance ``tol`` if given."""
    try:
        d = newton_system.solve(H, rhs, tol)
    except RuntimeError as exc:
        raise SingularStep(f"Newton linear system not solvable: {exc}")
    if not np.all(np.isfinite(d)):
        raise SingularStep("Newton linear system produced non-finite direction")
    return d


def armijo_search(objective, x, d, J, slope):
    """Backtracking line search on a descent direction: halve the step
    until the objective falls by 1e-4 of the predicted decrease.

    When the predicted decrease is below the rounding floor of the
    objective the full step is accepted: sufficient decrease can no longer
    be resolved in floating point, and the (Newton) direction is already
    inside its quadratic-convergence basin.
    """
    if -slope <= 1e-14 * (1.0 + abs(J)):
        x_new = x + d
        return x_new, objective(x_new)
    step = 1.0
    while True:
        x_trial = x + step * d
        J_trial = objective(x_trial)
        if J_trial <= J + 1e-4 * step * slope:
            return x_trial, J_trial
        step *= 0.5
        if step < 1e-14:
            raise NonConvergence("line search stalled")


def newton_minimize(objective, gradient, hessian, x0, tol, *, g0=None,
                    J0=None, newton_system=None):
    """Damped Newton with Armijo backtracking for a smooth convex objective.

    Iterates from x0 until ||gradient(x)|| <= tol.  ``g0`` and ``J0`` are
    the gradient and the objective at x0 when the caller already has them.
    The Newton matrix hessian(x) + E^T E / tau is solved through
    ``newton_system`` (see _solve_newton_system) to the PCG stop (module
    docstring) set by ``tol``; by default one on a map with no rows, so
    that it is hessian(x) itself.
    Raises SingularStep on a non-descent Newton direction and
    NonConvergence when NEWTON_MAX_ITER iterations do not reach the
    tolerance.
    """
    x = np.asarray(x0, dtype=float).copy()
    if newton_system is None:
        newton_system = NewtonSystem(LinearMapE(np.zeros((0, x.size))), 1.0)
    g = gradient(x) if g0 is None else g0
    J = objective(x) if J0 is None else J0
    for _ in range(NEWTON_MAX_ITER):
        if math.sqrt(g.dot(g)) <= tol:
            return x
        d = _solve_newton_system(hessian(x), -g, newton_system, tol)
        slope = float(g @ d)
        if slope >= 0:
            raise SingularStep("Newton direction is not a descent direction")
        x, J = armijo_search(objective, x, d, J, slope)
        g = gradient(x)
    if math.sqrt(g.dot(g)) <= tol:
        return x
    raise NonConvergence(
        f"Newton did not reach tolerance {tol:.3e} in {NEWTON_MAX_ITER} "
        "iterations"
    )


def prox_step(phi, E, x_prev, f_k, config, *, x_start=None,
              newton_system=None):
    """One implicit-Euler step as a proximal minimization in the E-metric.

    ``config``, a ProxConfig, gives tau and newton_tol.
    Newton starts from ``x_start`` if its prox objective is no higher than
    at x_prev (one extra objective evaluation), and from x_prev otherwise.
    Returns x_k with
    || dPhi(x_k) + (1/tau) E^T (E x_k - E x_prev - tau f_k) ||
    <= newton_tol * (1 + residual norm at x_prev), and x_prev itself when
    x_prev already meets that bound.
    Every Newton system goes through ``newton_system``, a NewtonSystem of
    this E and tau (one made for others is a ValidationFailure); a solve
    passes one to all its steps, and by default the step makes its own.
    """
    tau = config.tau
    x_prev = np.asarray(x_prev, dtype=float)
    image = E.apply(x_prev)  # E x_prev, for b and for x_prev's misfit
    b = image + tau * np.asarray(f_k, dtype=float)
    last = [x_prev, image - b]  # the last iterate and its misfit E x - b

    def misfit(x):
        """E x - b, formed once per point: newton_minimize takes the
        gradient at the very array whose objective the line search accepted,
        and neither it nor this step changes an array once evaluated."""
        if x is not last[0]:
            last[:] = x, E.apply(x) - b
        return last[1]

    def objective(x):
        mis = misfit(x)
        return phi.eval(x) + 0.5 / tau * float(mis @ mis)

    def residual(x):
        return phi.gateaux(x) + E.apply_adjoint(misfit(x)) / tau

    g_prev = residual(x_prev)
    g0_norm = math.sqrt(g_prev.dot(g_prev))
    tol = config.newton_tol * (1.0 + g0_norm)
    if g0_norm <= tol:
        return x_prev.copy()
    x0, g0, J0 = x_prev, g_prev, objective(x_prev)  # on g_prev's misfit
    if x_start is not None:
        # after x_prev, so a kept x_start's residual reuses its misfit
        x_start = np.asarray(x_start, dtype=float)
        J_start = objective(x_start)
        if J_start <= J0:
            x0, g0, J0 = x_start, residual(x_start), J_start
    return newton_minimize(
        objective, residual, phi.hessian, x0, tol, g0=g0, J0=J0,
        newton_system=_newton_system_for(E, tau, newton_system),
    )


def resolve_inputs(f, n_steps, dim_Z):
    """Per-step inputs f_k, k = 1..N: the right-endpoint samples of ``f``,
    an (n_steps+1, dim_Z) array on the time grid, or zero for None."""
    if f is None:
        return np.zeros((n_steps, dim_Z))
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape != (n_steps + 1, dim_Z):
        raise ValidationFailure(
            f"input samples must have shape ({n_steps + 1}, {dim_Z}), "
            f"got {f.shape}"
        )
    return f[1:]


def _with_load(phi, load):
    """Phi shifted by the linear term -<load, x>."""
    return EllipticFunctional(
        eval=lambda x: phi.eval(x) - float(load @ x),
        gateaux=lambda x: phi.gateaux(x) - load,
        hessian=phi.hessian,
        ellipticity_omega=phi.ellipticity_omega,
    )


def _extrapolate(states, k):
    """Newton start for step k: the polynomial through the last min(k, 4)
    states, one step ahead, summed from its backward differences."""
    recent = states[max(k - 4, 0):k]
    x = recent[-1].copy()
    for _ in range(len(recent) - 1):
        recent = np.diff(recent, axis=0)
        x += recent[-1]
    return x


def solve_trajectory(phi, E, x0, f, config, loads=None):
    """Run the prox stepper from x0 over the steps of ``config``, a
    ProxConfig, each a prox_step with that record.

    ``loads`` (n_steps, dim_X), if given, adds the linear term -<load_k, x>
    to Phi in step k; the recorded energies Phi(x_k) and subgradients
    eta_k = dPhi(x_k) are those of the unloaded Phi.  Newton's last point
    evaluated is x_k, so a Phi that keeps its last point (the field-circuit
    one does) records both without a new evaluation.
    A failed step raises its NonConvergence or SingularStep with the step
    in ``step`` and its message led by "step k: ".  A floating-point
    overflow, at x0 or in a step, is a NonConvergence that says the data
    is out of floating-point range and names the step.
    Each Newton solve's candidate start is the polynomial through the
    last min(k, 4) states, one step ahead (2 x_1 - x_0, 3 x_2 - 3 x_1 + x_0,
    then 4 x_{k-1} - 6 x_{k-2} + 4 x_{k-3} - x_{k-4}), and 0 at step 1
    unless x0 = 0; prox_step falls back to x_{k-1} whenever the candidate's
    prox objective is higher.  The trajectory depends on x0 only through
    E x0, so a rough x0 slows step 1 only where Newton starts from it
    (module docstring); the guard keeps a consistent one.
    """
    config.check_against(phi)
    x0 = np.asarray(x0, dtype=float)
    n = config.n_steps
    fk = resolve_inputs(f, n, E.dim_Z)
    states = np.empty((n + 1, E.dim_X))
    images = np.empty((n + 1, E.dim_Z))
    energies = np.empty(n + 1)
    subgradients = np.empty((n + 1, E.dim_X))
    states[0] = x0
    # step 1's candidate start 0 (module docstring); a zero x0 needs none
    x_start = np.zeros(E.dim_X) if x0.any() else None
    newton_system = NewtonSystem(E, config.tau)
    k = 0
    try:
        with np.errstate(all="raise", under="ignore"):
            images[0] = E.apply(x0)
            energies[0] = phi.eval(x0)
            subgradients[0] = phi.gateaux(x0)
            for k in range(1, n + 1):
                phi_k = phi if loads is None else _with_load(phi, loads[k - 1])
                if k > 1:
                    x_start = _extrapolate(states, k)
                states[k] = prox_step(
                    phi_k, E, states[k - 1], fk[k - 1], config,
                    x_start=x_start, newton_system=newton_system,
                )
                images[k] = E.apply(states[k])
                energies[k] = phi.eval(states[k])
                subgradients[k] = phi.gateaux(states[k])
    except StepFailure as exc:
        raise type(exc)(f"step {k}: {exc}", step=k) from exc
    except FloatingPointError as exc:
        at = f"step {k}: " if k else ""
        raise NonConvergence(
            f"{at}{exc}: the problem data is out of floating-point range",
            step=k or None) from exc
    times = config.tau * np.arange(n + 1)
    rates = np.diff(images, axis=0) / config.tau
    return DaeTrajectory(times, states, rates, energies, fk, subgradients)


def energy_identity_residual(traj):
    """Per-step defects of the dissipation identity.

    rho_k = Phi(x_k) - Phi(x_{k-1}) - tau <f_k, r_k> + tau ||r_k||^2.
    """
    tau = traj.tau
    power = np.einsum("kj,kj->k", traj.inputs, traj.rates)
    dissip = np.einsum("kj,kj->k", traj.rates, traj.rates)
    return np.diff(traj.energies) - tau * power + tau * dissip


def regularity_monitors(traj):
    """Discrete weighted/unweighted regularity functionals of a trajectory.

    W1 = sum tau * t_k ||r_k||^2, S1 = max t_k Phi(x_k),
    W0 = sum tau ||r_k||^2 (finite under refinement only for initial data
    in the image of the effective domain).
    """
    tau = traj.tau
    tk = traj.times[1:]
    r2 = np.einsum("kj,kj->k", traj.rates, traj.rates)
    return {
        "W1": float(tau * np.dot(tk, r2)),
        "S1": float(np.max(traj.times * traj.energies)),
        "W0": float(tau * r2.sum()),
    }


def eval_phi_E(phi, E, z):
    """Pushforward functional: inf of Phi over the affine set {x : E x = z}.

    Computed by a null-space parameterization plus Newton.  Returns a dict
    with "value" and "argmin"; raises NonConvergence when NEWTON_MAX_ITER
    Newton iterations do not reach the tolerance.
    """
    if E.dim_X > ORACLE_DIM_LIMIT:
        raise ValidationFailure(
            f"dim_X = {E.dim_X} exceeds oracle limit {ORACLE_DIM_LIMIT}"
        )
    A = E.matrix.toarray() if sp.issparse(E.matrix) else E.matrix
    z = np.asarray(z, dtype=float)
    x_p, *_ = np.linalg.lstsq(A, z, rcond=None)
    if np.linalg.norm(A @ x_p - z) > 1e-10 * (1.0 + np.linalg.norm(z)):
        raise ValidationFailure("z is not in the range of E within tolerance")
    N = null_space(A)
    if N.shape[1] == 0:
        return {"value": float(phi.eval(x_p)), "argmin": x_p}

    y = newton_minimize(
        lambda y: phi.eval(x_p + N @ y),
        lambda y: N.T @ phi.gateaux(x_p + N @ y),
        lambda y: N.T @ (phi.hessian(x_p + N @ y) @ N),
        np.zeros(N.shape[1]), 1e-12 * (1.0 + abs(phi.eval(x_p))),
    )
    x = x_p + N @ y
    return {"value": float(phi.eval(x)), "argmin": x}

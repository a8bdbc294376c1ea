"""Generic solver and property checks for degenerate gradient evolutions.

The evolution reads  E* f(t) - E* d/dt (E x(t)) in dPhi(x(t))  with a
linear map E between coordinate spaces and a convex functional Phi that is
E-elliptic (convex and coercive after adding (omega/2) ||E x||^2).  Time
stepping is implicit Euler realized as one convex minimization per step:

    x_k = argmin  Phi(x) + 1/(2 tau) || E x - (E x_{k-1} + tau f_k) ||^2

solved by damped Newton.  Minimizing the E-misfit implicitly projects the
data onto the closure of range(E), so the degenerate directions never need
an explicit basis.

Every Newton system (hessian + E^T E / tau) d = rhs, for a dense or
sparse E whose last k >= 0 rows form a thin block U (k << dim_X), is
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
PCG_MIN_DIM = 400 unknowns on, a NewtonSystem keeps its last factor and
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
kept.  Below 400 unknowns every system is factored and no factor kept.

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
g^T d = -d^T M d < 0), so the line search and the local convergence of
Newton are kept.  Against factoring every system, at newton_tol 1e-10
and 1e-14, the default problem at n = 64 took 68/68 and 125/125 Newton
systems, and the three-winding one at n = 32 181/181 and 219/219, with
fields and currents within 2.1e-12 of the problem scale.

Each step's Newton solve starts, by default, from the extrapolation of
the past states (the standard starting value for Newton inside implicit
integrators): the polynomial through the last min(k, 4) states, taken one
step ahead, so x_0 at step 1, 2 x_1 - x_0 at step 2, the parabola at step
3 and the cubic from step 4 on.  A guard keeps it only if its prox
objective is no higher than that of x_{k-1}; otherwise Newton starts at
x_{k-1}.  The stopping tolerance is the same either way, and a step whose
x_{k-1} already meets it returns x_{k-1}.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import null_space

from .errors import (
    NonConvergence, SingularStep, StepFailure, ValidationFailure, check_choice,
    check_finite,
)

NEWTON_STARTS = ("extrapolate", "zero")

# Below MIN_NEWTON_TOL the tolerance sits under the rounding floor of the
# prox gradient, so Newton spends its whole budget and fails: 1e-15 did at
# n = 8 and n = 32 on the field-circuit problem, 1e-14 converges.
MIN_NEWTON_TOL = 1e-14

# eval_phi_E builds a dense null-space basis, so it refuses larger maps
ORACLE_DIM_LIMIT = 64

# NewtonSystem solves a Newton system of at least PCG_MIN_DIM unknowns by
# PCG on its last kept factor, to the PCG stop (module docstring) within
# PCG_MAX_ITER iterations; a smaller one is factored.  Solve
# on the default problem, PCG against factoring every system, in-process,
# median of 9 (2-core x86 VM, one BLAS thread): n = 12 (121 unknowns) 0.087
# -> 0.092 s, n = 16 (225) 0.122 -> 0.109 s, n = 20 (361) 0.148 -> 0.127 s,
# n = 24 (529) 0.194 -> 0.155 s, n = 64 0.98 -> 0.60 s.  So the gain below
# 400 is at most 0.02 s a solve, and end to end it is none: with the cutoff
# at 200 the n = 16 experiment battery (perfbench battery_n16) ran 1.10/1.04
# s against 1.02/1.02 s at 400, and its peak RSS rose by 1 MB, for the
# factor held across systems.  With the tol / 10 target alone a kept
# factor serves longer and ages, and CG then gains about 3x an iteration
# instead of 10x; so the budget is 6, not 10, and an aged factor is replaced
# sooner.  Factors/PCG systems/CG iterations, to 1e-10 ||rhs|| within 10 ->
# this target within 6, with the Newton systems unchanged: the default
# problem at n = 32 4/65/501 -> 3/66/339, at n = 64 5/63/503 -> 4/64/301,
# the three-winding perfbench run at n = 32 43/139/1463 -> 70/112/757.
# Solve at n = 64, median of 5 in-process: 0.507 s as before, 0.469 s with
# the target alone, 0.514 s (14 factors) with the budget alone, 0.410 s
# with both; budgets of 5 and 7 took 0.405 and 0.413 s.
PCG_MIN_DIM = 400
PCG_MAX_ITER = 6
PCG_RTOL = 1e-10


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
        self.dim_Z, self.dim_X = matrix.shape
        if not 0 <= k <= self.dim_Z:
            raise ValidationFailure(
                f"thin block of {k} rows in a map with {self.dim_Z}")
        self.k = k

    def apply(self, x):
        return self.matrix @ x

    def apply_adjoint(self, z):
        return self.adjoint @ z

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
    tau: float
    n_steps: int
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        for name in ("n_steps", "newton_max_iter"):
            check_finite(name, getattr(self, name), numbers.Integral)
        for name in ("tau", "newton_tol", "n_steps"):
            if not check_finite(name, getattr(self, name)) > 0:
                raise ValidationFailure(f"{name} must be positive")
        if self.newton_tol < MIN_NEWTON_TOL:
            raise ValidationFailure(
                f"newton_tol must be at least {MIN_NEWTON_TOL:g}, the rounding "
                f"floor of the prox gradient, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValidationFailure(
                f"newton_max_iter must be at least 1, got {self.newton_max_iter}")

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
    in and the solution back as one vector each.

    From PCG_MIN_DIM unknowns on, the last natural-order factor is kept for
    PCG, which ends at the PCG stop (module docstring).  When
    PCG fails (p^T A p <= 0 or a non-finite value breaks it down), the kept
    factor is dropped, so that two are never alive at once, and A is
    refactored, solved directly, and its factor kept.

    ``factors``, ``pcg_systems`` and ``cg_iters`` count the factors taken,
    the systems PCG solved, and every CG iteration, failed attempts
    included.  A factor is one ``splu`` call, or a second with SuperLU's
    defaults on a zero pivot, whose column order is then the one kept.
    """

    def __init__(self, E, tau):
        self.E, self.tau = E, tau
        self._pattern = None  # H's indptr, indices; A, slots, perm, inverse
        self._lagged = None   # a natural-order factor of A
        self.factors = self.pcg_systems = self.cg_iters = 0

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
        kept = self._pattern
        if kept is None or not (np.array_equal(H.indptr, kept[0])
                                and np.array_equal(H.indices, kept[1])):
            keys = np.concatenate([_csc_keys(H, N), _csc_keys(C, N)])
            K, slots = _csc_pattern(keys, N)
            K.data[slots[:H.nnz]] = H.data
            K.data[slots[H.nnz:]] += C.data
            self._pattern = self._lagged = None
            lu = self._factor(K, "MMD_AT_PLUS_A")
            x, perm = lu.solve(b)[:n], lu.perm_c.astype(np.int64)
            del lu, K  # A is built while no factor is alive (peak RSS)
            A, lands = _symmetric_permutation(perm, keys)
            self._pattern = (H.indptr.copy(), H.indices.copy(), A,
                             lands[:H.nnz], lands[H.nnz:], perm,
                             np.argsort(perm))
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
            if n >= PCG_MIN_DIM:
                self._lagged = lu
            x = lu.solve(b)
        return x.take(perm)[:n]

    def _factor(self, A, permc_spec):
        """SuperLU's symmetric-mode factor of A, or its default one (COLAMD,
        partial pivoting) on a zero pivot."""
        try:
            lu = spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:  # a zero pivot: SuperLU's defaults
            lu = spla.splu(A)
        self.factors += 1
        return lu

    def _newton_residual(self, r):
        """||r_1 + U^T r_2 / tau|| of a residual r of A, in A's order."""
        Ut = self._block[0]
        r, n = r.take(self._pattern[5]), Ut.shape[0]  # by perm, to K's order
        return np.linalg.norm(r[:n] + Ut.dot(r[n:] / self.tau))

    def _pcg(self, A, b, tol):
        """PCG from 0 on A x = b, preconditioned by the kept factor; None
        when it breaks down or misses the PCG stop (module docstring)
        within PCG_MAX_ITER iterations."""
        lu = self._lagged
        bound = PCG_RTOL * np.linalg.norm(b)
        if tol is not None:
            bound = max(bound, 0.1 * tol)
        with np.errstate(all="ignore"):  # a non-finite value breaks down
            x, r = np.zeros_like(b), b.copy()
            p = z = lu.solve(r)
            rz = float(r @ z)
            for _ in range(PCG_MAX_ITER):
                self.cg_iters += 1
                q = A @ p
                pq = float(p @ q)
                if not (0.0 < pq < np.inf and 0.0 < rz < np.inf):
                    return None
                alpha = rz / pq
                x += alpha * p
                r -= alpha * q
                if self._newton_residual(r) <= bound:  # then the true one
                    if not self._newton_residual(b - A @ x) <= bound:
                        return None
                    self.pcg_systems += 1
                    return x
                z = lu.solve(r)
                rz, rz_old = float(r @ z), rz
                p = z + (rz / rz_old) * p
        return None


def _symmetric_permutation(perm, keys):
    """P^T S P, which moves entry (i, j) of the pattern S of ``keys`` to
    (perm[i], perm[j]): the pattern, data zero, and the slot each key
    lands in (``_csc_pattern`` of the moved keys)."""
    n = perm.size
    return _csc_pattern(perm[keys // n] * n + perm[keys % n], n)


def _solve_newton_system(H, rhs, newton_system=None, tol=None):
    """The Newton direction d.

    With ``newton_system`` (a NewtonSystem, as every prox step passes) H is
    the functional's hessian and (H + E^T E / tau) d = rhs is solved
    through it, to the PCG stop (module docstring) set by Newton's
    tolerance ``tol`` if given.  Without one H is the whole Newton matrix,
    dense or sparse CSC (SuperLU's defaults: COLAMD, partial pivoting).
    """
    try:
        if newton_system is not None:
            d = newton_system.solve(H, rhs, tol)
        elif sp.issparse(H):
            d = spla.splu(H).solve(rhs)
        else:
            d = np.linalg.solve(H, rhs)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
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
                    J0=None, max_iter=50, newton_system=None):
    """Damped Newton with Armijo backtracking for a smooth convex objective.

    Iterates from x0 until ||gradient(x)|| <= tol.  ``g0`` and ``J0`` are
    the gradient and the objective at x0 when the caller already has them.
    With ``newton_system`` (a NewtonSystem) the Newton matrix is
    hessian(x) + E^T E / tau, solved through it (see _solve_newton_system)
    to the PCG stop (module docstring) set by ``tol``.
    Raises SingularStep on a non-descent Newton direction and
    NonConvergence when ``max_iter`` iterations do not reach the tolerance.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = gradient(x) if g0 is None else g0
    J = objective(x) if J0 is None else J0
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol:
            return x
        d = _solve_newton_system(hessian(x), -g, newton_system, tol)
        slope = float(g @ d)
        if slope >= 0:
            raise SingularStep("Newton direction is not a descent direction")
        x, J = armijo_search(objective, x, d, J, slope)
        g = gradient(x)
    if np.linalg.norm(g) <= tol:
        return x
    raise NonConvergence(
        f"Newton did not reach tolerance {tol:.3e} in {max_iter} iterations"
    )


def prox_step(phi, E, x_prev, f_k, tau, *, x_start=None, guard=False,
              newton_tol=1e-10, newton_max_iter=50, newton_system=None):
    """One implicit-Euler step as a proximal minimization in the E-metric.

    Newton starts from ``x_start`` (default x_prev).  With ``guard`` it
    keeps x_start only if the prox objective there is no higher than at
    x_prev, and starts at x_prev otherwise (one extra objective evaluation).
    Returns x_k with
    || dPhi(x_k) + (1/tau) E^T (E x_k - E x_prev - tau f_k) ||
    <= newton_tol * (1 + residual norm at x_prev), and x_prev itself when
    x_prev already meets that bound (unless an unguarded x_start is given).
    Every Newton system goes through ``newton_system``, a NewtonSystem of
    this E and tau (one made for others is a ValidationFailure); a solve
    passes one to all its steps, and by default the step makes its own.
    """
    if not check_finite("tau", tau) > 0:
        raise ValidationFailure("tau must be positive")
    x_prev = np.asarray(x_prev, dtype=float)
    b = E.apply(x_prev) + tau * np.asarray(f_k, dtype=float)

    def objective(x):
        mis = E.apply(x) - b
        return phi.eval(x) + 0.5 / tau * float(mis @ mis)

    def residual(x):
        return phi.gateaux(x) + E.apply_adjoint(E.apply(x) - b) / tau

    g_prev = residual(x_prev)
    g0_norm = float(np.linalg.norm(g_prev))
    tol = newton_tol * (1.0 + g0_norm)
    if g0_norm <= tol and (x_start is None or guard):
        return x_prev.copy()
    x0, g0, J0 = x_prev, g_prev, None
    if x_start is not None:
        x0, g0 = np.asarray(x_start, dtype=float), None
        if guard:  # x_prev first, so Newton starts at the last point evaluated
            J_prev, J0 = objective(x_prev), objective(x0)
            if not J0 <= J_prev:
                x0, g0, J0 = x_prev, g_prev, J_prev
    if newton_system is None:
        newton_system = NewtonSystem(E, tau)
    elif newton_system.E is not E or newton_system.tau != tau:
        raise ValidationFailure("newton_system is for another E or tau")
    return newton_minimize(
        objective, residual, phi.hessian, x0, tol, g0=g0, J0=J0,
        max_iter=newton_max_iter, newton_system=newton_system,
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


def solve_trajectory(phi, E, x0, f, config, loads=None, start="extrapolate"):
    """Run the prox stepper from x0 over n_steps of size tau.

    ``loads`` (n_steps, dim_X), if given, adds the linear term -<load_k, x>
    to Phi in step k; the recorded energies are those of the unloaded Phi.
    A failed step raises its NonConvergence or SingularStep with the step
    in ``step`` and its message led by "step k: ".  A floating-point
    overflow, at x0 or in a step, is a NonConvergence that says the data
    is out of floating-point range and names the step.
    ``start`` picks each Newton solve's starting point: "extrapolate"
    (default) the polynomial through the last min(k, 4) states, one step
    ahead (x_0, 2 x_1 - x_0, 3 x_2 - 3 x_1 + x_0, then
    4 x_{k-1} - 6 x_{k-2} + 4 x_{k-3} - x_{k-4}), which falls back to
    x_{k-1} whenever its prox objective is higher; "zero" x = 0, unguarded.
    """
    check_choice("start", start, NEWTON_STARTS)
    config.check_against(phi)
    x0 = np.asarray(x0, dtype=float)
    n = config.n_steps
    fk = resolve_inputs(f, n, E.dim_Z)
    states = np.empty((n + 1, E.dim_X))
    images = np.empty((n + 1, E.dim_Z))
    energies = np.empty(n + 1)
    states[0] = x0
    x_start = np.zeros(E.dim_X) if start == "zero" else None
    newton_system = NewtonSystem(E, config.tau)
    k = 0
    try:
        with np.errstate(all="raise", under="ignore"):
            images[0] = E.apply(x0)
            energies[0] = phi.eval(x0)
            for k in range(1, n + 1):
                phi_k = phi if loads is None else _with_load(phi, loads[k - 1])
                if start == "extrapolate" and k > 1:
                    x_start = _extrapolate(states, k)
                states[k] = prox_step(
                    phi_k, E, states[k - 1], fk[k - 1], config.tau,
                    x_start=x_start, guard=start == "extrapolate",
                    newton_tol=config.newton_tol,
                    newton_max_iter=config.newton_max_iter,
                    newton_system=newton_system,
                )
                images[k] = E.apply(states[k])
                energies[k] = phi.eval(states[k])
    except StepFailure as exc:
        raise type(exc)(f"step {k}: {exc}", step=k) from exc
    except FloatingPointError as exc:
        at = f"step {k}: " if k else ""
        raise NonConvergence(
            f"{at}{exc}: the problem data is out of floating-point range",
            step=k or None) from exc
    times = config.tau * np.arange(n + 1)
    rates = np.diff(images, axis=0) / config.tau
    return DaeTrajectory(times, states, rates, energies, fk)


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


def eval_phi_E(phi, E, z, *, max_iter=100):
    """Pushforward functional: inf of Phi over the affine set {x : E x = z}.

    Computed by a null-space parameterization plus Newton.  Returns a dict
    with "value" and "argmin"; raises NonConvergence when ``max_iter``
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
        max_iter=max_iter,
    )
    x = x_p + N @ y
    return {"value": float(phi.eval(x)), "argmin": x}

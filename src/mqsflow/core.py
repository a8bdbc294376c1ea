"""Generic solver and property checks for degenerate gradient evolutions.

The evolution reads  E* f(t) - E* d/dt (E x(t)) in dPhi(x(t))  with a
linear map E between coordinate spaces and a convex functional Phi that is
E-elliptic (convex and coercive after adding (omega/2) ||E x||^2).  Time
stepping is implicit Euler realized as one convex minimization per step:

    x_k = argmin  Phi(x) + 1/(2 tau) || E x - (E x_{k-1} + tau f_k) ||^2

solved by damped Newton.  Minimizing the E-misfit implicitly projects the
data onto the closure of range(E), so the degenerate directions never need
an explicit basis.

When the last k rows of a sparse E form a thin block U (k << dim_X), the
Newton matrix  hessian + E^T E / tau  is a sparse SPD part  H_s = hessian +
E_1^T E_1 / tau  plus the rank-k term  U^T U / tau.  Only H_s is factored,
in SuperLU's symmetric mode, and the rank-k term is added back by the
Sherman-Morrison-Woodbury identity.

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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import null_space

from .errors import (
    InfeasibleLevelSet,
    NonConvergence,
    OracleLimitExceeded,
    SingularStep,
    ValidationFailure,
    check_choice,
    check_finite,
)

NEWTON_STARTS = ("extrapolate", "zero")

# eval_phi_E builds a dense null-space basis, so it refuses larger maps
ORACLE_DIM_LIMIT = 64


class LinearMapE:
    """Linear metric map E : R^dim_X -> R^dim_Z, dense or sparse.

    The last ``k`` rows may form a thin block U (default k = 0): for a
    sparse E (and a functional with a sparse hessian), prox steps then
    factor only the leading block's part of the Newton matrix and add
    U^T U by the Woodbury identity.
    """

    def __init__(self, matrix, k=0):
        if not sp.issparse(matrix):
            matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.matrix = matrix
        self.dim_Z, self.dim_X = matrix.shape
        if not 0 <= k <= self.dim_Z:
            raise ValueError(f"thin block of {k} rows in a map with {self.dim_Z}")
        self.k = k
        self._adjoint = None
        self._gram = None
        self._lead_gram = None
        self._thin = None
        self._slots = None  # (indptr, indices, slots) of the last H pattern

    def apply(self, x):
        return self.matrix @ x

    def apply_adjoint(self, z):
        if self._adjoint is None:  # E^T, cached as gram is
            self._adjoint = (self.matrix.T.tocsr() if sp.issparse(self.matrix)
                             else self.matrix.T)
        return self._adjoint @ z

    @property
    def gram(self):
        """E^T E, cached; sparse iff the map is sparse."""
        if self._gram is None:
            if sp.issparse(self.matrix):
                self._gram = (self.matrix.T @ self.matrix).tocsc()
            else:
                self._gram = self.matrix.T @ self.matrix
        return self._gram

    @property
    def lead_gram(self):
        """E_1^T E_1 of the rows above the thin block, cached, canonical CSC."""
        if self._lead_gram is None:
            lead = sp.csr_matrix(self.matrix)[:self.dim_Z - self.k]
            self._lead_gram = (lead.T @ lead).tocsc()
            self._lead_gram.sum_duplicates()
        return self._lead_gram

    @property
    def thin(self):
        """The thin block U, the last k rows, as a dense (k, dim_X) array."""
        if self._thin is None:
            self._thin = sp.csr_matrix(self.matrix)[self.dim_Z - self.k:].toarray()
        return self._thin

    def add_lead_gram(self, H, tau):
        """H + E_1^T E_1 / tau.

        For H in CSC on a pattern that holds E_1^T E_1's, the result keeps
        H's pattern: the lead gram's slots in it are found once and its data
        is added into a copy of H's.  Otherwise it is the plain sum.
        """
        G = self.lead_gram
        slots = self._slots_in(H) if sp.issparse(H) and H.format == "csc" \
            else None
        if slots is None:
            return H + G / tau
        data = H.data.copy()
        data[slots] += G.data / tau
        return sp.csc_matrix((data, H.indices, H.indptr), shape=H.shape)

    def _slots_in(self, H):
        """Positions of the lead gram's entries in H.data, or None."""
        if self._slots is not None:
            indptr, indices, slots = self._slots
            if np.array_equal(H.indptr, indptr) and np.array_equal(H.indices, indices):
                return slots
        G = self.lead_gram
        if H.shape != G.shape:
            return None
        h_keys, g_keys = _csc_keys(H), _csc_keys(G)
        if np.any(np.diff(h_keys) <= 0):  # not canonical: unsorted or repeated
            return None
        slots = np.searchsorted(h_keys, g_keys)
        if np.any(slots == h_keys.size) or np.any(h_keys[slots] != g_keys):
            return None
        self._slots = (H.indptr.copy(), H.indices.copy(), slots)
        return slots


def _csc_keys(A):
    """col * n_rows + row of each stored entry of a CSC matrix."""
    cols = np.repeat(np.arange(A.shape[1], dtype=np.int64), np.diff(A.indptr))
    return cols * A.shape[0] + A.indices


@dataclass
class EllipticFunctional:
    """Convex functional with value, Gateaux derivative and tangent.

    ``hessian`` returns the matrix of second derivatives at a point, dense
    or sparse CSC like ``LinearMapE.gram``; it is required by the
    Newton-based prox step.
    """

    eval: Callable[[np.ndarray], float]
    gateaux: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[Callable[[np.ndarray], object]] = None
    ellipticity_omega: float = 0.0


@dataclass(frozen=True)
class ProxConfig:
    tau: float
    n_steps: int
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        for name in ("tau", "newton_tol", "n_steps"):
            if not check_finite(name, getattr(self, name)) > 0:
                raise ValueError(f"{name} must be positive")

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


def _solve_newton_system(H, rhs, thin=None):
    """Solve (H + U^T U / tau) d = rhs, with ``thin = (U, tau)`` or no U term.

    H is dense or sparse CSC (SuperLU's format).  Without a thin block a
    sparse H gets SuperLU's default (COLAMD, partial pivoting).  With one,
    H is the sparse SPD part: it is factored with a symmetric ordering and
    diagonal pivots (once more with the defaults if SuperLU meets a zero
    pivot), [rhs, U^T] is solved in one call, and the k x k capacitance
    system tau I + U H^{-1} U^T adds the rank-k term (Woodbury).
    """
    try:
        if thin is None:
            if sp.issparse(H):
                d = spla.splu(H).solve(rhs)
            else:
                d = np.linalg.solve(H, rhs)
        else:
            U, tau = thin
            try:
                lu = spla.splu(H, permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
            except RuntimeError:
                lu = spla.splu(H)
            Y = lu.solve(np.column_stack([rhs, U.T]))
            y, W = Y[:, 0], Y[:, 1:]
            capacitance = tau * np.eye(U.shape[0]) + U @ W
            d = y - W @ np.linalg.solve(capacitance, U @ y)
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
                    J0=None, max_iter=50, thin=None):
    """Damped Newton with Armijo backtracking for a smooth convex objective.

    Iterates from x0 until ||gradient(x)|| <= tol.  ``g0`` and ``J0`` are
    the gradient and the objective at x0 when the caller already has them.
    ``thin = (U, tau)`` makes the Newton matrix hessian(x) + U^T U / tau
    (see _solve_newton_system).
    Raises SingularStep on a non-descent Newton direction and
    NonConvergence when ``max_iter`` iterations do not reach the tolerance.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = gradient(x) if g0 is None else g0
    J = objective(x) if J0 is None else J0
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol:
            return x
        d = _solve_newton_system(hessian(x), -g, thin)
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
              newton_tol=1e-10, newton_max_iter=50):
    """One implicit-Euler step as a proximal minimization in the E-metric.

    Newton starts from ``x_start`` (default x_prev).  With ``guard`` it
    keeps x_start only if the prox objective there is no higher than at
    x_prev, and starts at x_prev otherwise (one extra objective evaluation).
    Returns x_k with
    || dPhi(x_k) + (1/tau) E^T (E x_k - E x_prev - tau f_k) ||
    <= newton_tol * (1 + residual norm at x_prev), and x_prev itself when
    x_prev already meets that bound (unless an unguarded x_start is given).
    """
    if not check_finite("tau", tau) > 0:
        raise ValueError("tau must be positive")
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
        if guard:
            J0, J_prev = objective(x0), objective(x_prev)
            if not J0 <= J_prev:
                x0, g0, J0 = x_prev, g_prev, J_prev
    if E.k and sp.issparse(E.matrix):
        thin = (E.thin, tau)

        def hessian(x):
            return E.add_lead_gram(phi.hessian(x), tau)
    else:
        thin, metric = None, E.gram / tau

        def hessian(x):
            return phi.hessian(x) + metric
    return newton_minimize(
        objective, residual, hessian, x0, tol,
        g0=g0, J0=J0, max_iter=newton_max_iter, thin=thin,
    )


def resolve_inputs(f, n_steps, dim_Z):
    """Per-step inputs f_k, k = 1..N: the right-endpoint samples of ``f``,
    an (n_steps+1, dim_Z) array on the time grid, or zero for None."""
    if f is None:
        return np.zeros((n_steps, dim_Z))
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape != (n_steps + 1, dim_Z):
        raise ValueError(
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
    images[0] = E.apply(x0)
    energies[0] = phi.eval(x0)
    x_start = np.zeros(E.dim_X) if start == "zero" else None
    for k in range(1, n + 1):
        phi_k = phi if loads is None else _with_load(phi, loads[k - 1])
        if start == "extrapolate" and k > 1:
            x_start = _extrapolate(states, k)
        try:
            with np.errstate(all="raise", under="ignore"):
                states[k] = prox_step(
                    phi_k, E, states[k - 1], fk[k - 1], config.tau,
                    x_start=x_start, guard=start == "extrapolate",
                    newton_tol=config.newton_tol,
                    newton_max_iter=config.newton_max_iter,
                )
        except FloatingPointError as exc:  # data far out of range
            raise NonConvergence(f"step {k}: {exc}", step=k) from exc
        except (NonConvergence, SingularStep) as exc:
            exc.step = k
            raise
        images[k] = E.apply(states[k])
        energies[k] = phi.eval(states[k])
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
        raise OracleLimitExceeded(
            f"dim_X = {E.dim_X} exceeds oracle limit {ORACLE_DIM_LIMIT}"
        )
    A = E.matrix.toarray() if sp.issparse(E.matrix) else E.matrix
    z = np.asarray(z, dtype=float)
    x_p, *_ = np.linalg.lstsq(A, z, rcond=None)
    if np.linalg.norm(A @ x_p - z) > 1e-10 * (1.0 + np.linalg.norm(z)):
        raise InfeasibleLevelSet("z is not in the range of E within tolerance")
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


@dataclass
class EllipticityReport:
    passed: bool
    convexity_ok: bool
    coercivity_ok: bool
    first_violation: object = None


def check_E_ellipticity(phi, E, omega, samples, seed=0):
    """Sampled convexity and coercivity check of Phi_omega.

    Phi_omega(x) = (omega/2) ||E x||^2 + Phi(x) is tested for midpoint
    convexity on random pairs and for growth along random directions.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)

    def phi_omega(x):
        Ex = E.apply(x)
        return phi.eval(x) + 0.5 * omega * float(Ex @ Ex)

    first = None
    convex_ok = True
    for _ in range(samples):
        x = rng.standard_normal(E.dim_X)
        y = rng.standard_normal(E.dim_X)
        lhs = phi_omega(0.5 * (x + y))
        rhs = 0.5 * (phi_omega(x) + phi_omega(y))
        if lhs > rhs + 1e-10 * (1.0 + abs(rhs)):
            convex_ok = False
            first = ("convexity", x, y, lhs - rhs)
            break

    coercive_ok = True
    if convex_ok:
        for _ in range(samples):
            d = rng.standard_normal(E.dim_X)
            d /= np.linalg.norm(d)
            base = phi_omega(d)
            far = phi_omega(1024.0 * d)
            if not (far > base and far > 1.0):
                coercive_ok = False
                first = ("coercivity", d, far)
                break

    passed = convex_ok and coercive_ok
    return EllipticityReport(passed, convex_ok, coercive_ok, first)

"""Generic solver and property checks for degenerate gradient evolutions.

The evolution reads  E* f(t) - E* d/dt (E x(t)) in dPhi(x(t))  with a
linear map E between coordinate spaces and a convex functional Phi that is
E-elliptic (convex and coercive after adding (omega/2) ||E x||^2).  Time
stepping is implicit Euler realized as one convex minimization per step:

    x_k = argmin  Phi(x) + 1/(2 tau) || E x - (E x_{k-1} + tau f_k) ||^2

solved by damped Newton.  Minimizing the E-misfit implicitly projects the
data onto the closure of range(E), so the degenerate directions never need
an explicit basis.
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
)


class LinearMapE:
    """Linear metric map E : R^dim_X -> R^dim_Z, dense or sparse."""

    def __init__(self, matrix):
        if not sp.issparse(matrix):
            matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.matrix = matrix
        self.dim_Z, self.dim_X = matrix.shape
        self._gram = None

    def apply(self, x):
        return self.matrix @ x

    def apply_adjoint(self, z):
        return self.matrix.T @ z

    @property
    def gram(self):
        """E^T E, cached; sparse iff the map is sparse."""
        if self._gram is None:
            if sp.issparse(self.matrix):
                self._gram = (self.matrix.T @ self.matrix).tocsc()
            else:
                self._gram = self.matrix.T @ self.matrix
        return self._gram


@dataclass
class EllipticFunctional:
    """Convex functional with value, Gateaux derivative and tangent.

    ``hessian`` returns the matrix (dense or sparse) of second derivatives
    at a point; it is required by the Newton-based prox step.
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
    input_sampling: str = "right"  # "right" endpoint or interval "average"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        if self.input_sampling not in ("right", "average"):
            raise ValueError("input_sampling must be 'right' or 'average'")

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
    images: np.ndarray    # (N+1, dim_Z), z_k = E x_k
    rates: np.ndarray     # (N, dim_Z), (z_k - z_{k-1}) / tau
    energies: np.ndarray  # (N+1,), Phi(x_k)
    inputs: np.ndarray    # (N, dim_Z), the per-step samples f_k

    @property
    def tau(self):
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self):
        return self.rates.shape[0]


def _combine(A, B):
    """Sum of two operator matrices, densifying on a sparse/dense mix."""
    if sp.issparse(A) and not sp.issparse(B):
        return A.toarray() + B
    if sp.issparse(B) and not sp.issparse(A):
        return A + B.toarray()
    return A + B


def _solve_newton_system(H, rhs):
    try:
        if sp.issparse(H):
            lu = spla.splu(sp.csc_matrix(H))
            d = lu.solve(rhs)
        else:
            d = np.linalg.solve(H, rhs)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise SingularStep(f"Newton linear system not solvable: {exc}")
    if not np.all(np.isfinite(d)):
        raise SingularStep("Newton linear system produced non-finite direction")
    return d


def armijo_search(objective, x, d, J, slope, c=1e-4, shrink=0.5):
    """Backtracking line search on a descent direction.

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
        if J_trial <= J + c * step * slope:
            return x_trial, J_trial
        step *= shrink
        if step < 1e-14:
            raise NonConvergence("line search stalled")


def newton_minimize(objective, gradient, hessian, x0, tol, *, g0=None,
                    max_iter=50):
    """Damped Newton with Armijo backtracking for a smooth convex objective.

    Iterates from x0 until ||gradient(x)|| <= tol.  ``g0`` is the gradient
    at x0 when the caller already has it.  Raises SingularStep on a
    non-descent Newton direction and NonConvergence when ``max_iter``
    iterations do not reach the tolerance.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = gradient(x) if g0 is None else g0
    J = objective(x)
    for _ in range(max_iter):
        if np.linalg.norm(g) <= tol:
            return x
        d = _solve_newton_system(hessian(x), -g)
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


def prox_step(phi, E, x_prev, f_k, tau, *, x_start=None, newton_tol=1e-10,
              newton_max_iter=50):
    """One implicit-Euler step as a proximal minimization in the E-metric.

    Newton starts from ``x_start`` (default x_prev).  Returns x_k with
    || dPhi(x_k) + (1/tau) E^T (E x_k - E x_prev - tau f_k) ||
    <= newton_tol * (1 + residual norm at x_prev).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    x_prev = np.asarray(x_prev, dtype=float)
    b = E.apply(x_prev) + tau * np.asarray(f_k, dtype=float)

    def objective(x):
        mis = E.apply(x) - b
        return phi.eval(x) + 0.5 / tau * float(mis @ mis)

    def residual(x):
        return phi.gateaux(x) + E.apply_adjoint(E.apply(x) - b) / tau

    x0 = x_prev if x_start is None else np.asarray(x_start, dtype=float)
    g_prev = residual(x_prev)
    g0_norm = float(np.linalg.norm(g_prev))
    if g0_norm == 0.0 and np.array_equal(x0, x_prev):
        return x0.copy()
    metric = E.gram / tau
    return newton_minimize(
        objective, residual, lambda x: _combine(phi.hessian(x), metric),
        x0, newton_tol * (1.0 + g0_norm),
        g0=g_prev if x_start is None else None, max_iter=newton_max_iter,
    )


def resolve_inputs(f, n_steps, dim_Z, mode="right"):
    """Turn grid samples of the input into per-step values f_k, k = 1..N.

    ``f`` may be None (zero input), an (n_steps+1, dim_Z) array of samples
    on the time grid, or an (n_steps, dim_Z) array of already-resolved
    per-step values.
    """
    if f is None:
        return np.zeros((n_steps, dim_Z))
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape == (n_steps, dim_Z):
        return f
    if f.shape != (n_steps + 1, dim_Z):
        raise ValueError(
            f"input samples must have shape ({n_steps + 1}, {dim_Z}) "
            f"or ({n_steps}, {dim_Z}), got {f.shape}"
        )
    if mode == "right":
        return f[1:]
    return 0.5 * (f[:-1] + f[1:])


def _with_load(phi, load):
    """Phi shifted by the linear term -<load, x>."""
    return EllipticFunctional(
        eval=lambda x: phi.eval(x) - float(load @ x),
        gateaux=lambda x: phi.gateaux(x) - load,
        hessian=phi.hessian,
        ellipticity_omega=phi.ellipticity_omega,
    )


def solve_trajectory(phi, E, x0, f, config, loads=None, zero_start=False):
    """Run the prox stepper from x0 over n_steps of size tau.

    ``loads`` (n_steps, dim_X), if given, adds the linear term -<load_k, x>
    to Phi in step k; the recorded energies are those of the unloaded Phi.
    ``zero_start`` starts every Newton solve at x = 0 instead of x_{k-1}.
    """
    config.check_against(phi)
    x0 = np.asarray(x0, dtype=float)
    n = config.n_steps
    fk = resolve_inputs(f, n, E.dim_Z, config.input_sampling)
    states = np.empty((n + 1, E.dim_X))
    images = np.empty((n + 1, E.dim_Z))
    energies = np.empty(n + 1)
    states[0] = x0
    images[0] = E.apply(x0)
    energies[0] = phi.eval(x0)
    x_start = np.zeros(E.dim_X) if zero_start else None
    for k in range(1, n + 1):
        phi_k = phi if loads is None else _with_load(phi, loads[k - 1])
        try:
            states[k] = prox_step(
                phi_k, E, states[k - 1], fk[k - 1], config.tau,
                x_start=x_start,
                newton_tol=config.newton_tol,
                newton_max_iter=config.newton_max_iter,
            )
        except (NonConvergence, SingularStep) as exc:
            exc.step = k
            raise
        images[k] = E.apply(states[k])
        energies[k] = phi.eval(states[k])
    times = config.tau * np.arange(n + 1)
    rates = np.diff(images, axis=0) / config.tau
    return DaeTrajectory(times, states, images, rates, energies, fk)


def energy_identity_residual(traj, f=None):
    """Per-step defects of the dissipation identity.

    rho_k = Phi(x_k) - Phi(x_{k-1}) - tau <f_k, r_k> + tau ||r_k||^2.
    """
    tau = traj.tau
    fk = traj.inputs if f is None else resolve_inputs(
        f, traj.n_steps, traj.rates.shape[1]
    )
    power = np.einsum("kj,kj->k", fk, traj.rates)
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


def eval_phi_E(phi, E, z, *, dim_limit=64, feas_tol=1e-10, newton_tol=1e-12,
               max_iter=100):
    """Pushforward functional: inf of Phi over the affine set {x : E x = z}.

    Computed by a null-space parameterization plus Newton.  Returns a dict
    with "value" and "argmin"; raises NonConvergence when ``max_iter``
    Newton iterations do not reach the tolerance.
    """
    if E.dim_X > dim_limit:
        raise OracleLimitExceeded(
            f"dim_X = {E.dim_X} exceeds oracle limit {dim_limit}"
        )
    A = E.matrix.toarray() if sp.issparse(E.matrix) else E.matrix
    z = np.asarray(z, dtype=float)
    x_p, *_ = np.linalg.lstsq(A, z, rcond=None)
    if np.linalg.norm(A @ x_p - z) > feas_tol * (1.0 + np.linalg.norm(z)):
        raise InfeasibleLevelSet("z is not in the range of E within tolerance")
    N = null_space(A)
    if N.shape[1] == 0:
        return {"value": float(phi.eval(x_p)), "argmin": x_p}

    y = newton_minimize(
        lambda y: phi.eval(x_p + N @ y),
        lambda y: N.T @ phi.gateaux(x_p + N @ y),
        lambda y: N.T @ (phi.hessian(x_p + N @ y) @ N),
        np.zeros(N.shape[1]), newton_tol * (1.0 + abs(phi.eval(x_p))),
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


def check_E_ellipticity(phi, E, omega, samples, seed=0, scale=1.0):
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
        x = scale * rng.standard_normal(E.dim_X)
        y = scale * rng.standard_normal(E.dim_X)
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
            base = phi_omega(scale * d)
            far = phi_omega(1024.0 * scale * d)
            if not (far > base and far > 1.0):
                coercive_ok = False
                first = ("coercivity", d, far)
                break

    passed = convex_ok and coercive_ok
    return EllipticityReport(passed, convex_ok, coercive_ok, first)

"""Coupled field-circuit system: discrete operators, energy, and solve paths.

The lumped circuit injects current through winding densities; the metric
map stacks the square-root conducting mass with the resistance-weighted
flux-linkage map, so one prox step minimizes

    J(a) = Phi(a) + 1/(2 tau) sigma_C ||a - a_prev||^2_{M_C}
         + 1/(2 tau) || R^{-1/2} (C^T a - C^T a_prev - tau v_k) ||^2.

Currents are recovered per step as i_k = R^{-1} (v_k - d/dt C^T a).
An independent Schur-reduced Newton path eliminates the current unknown
up front and serves as an equivalence witness.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import core, fem, material
from .errors import NonConvergence, ValidationFailure, check_choice, check_finite


@dataclass(frozen=True)
class VoltageSignal:
    """Applied winding voltages as a function of time.

    kinds: "constant" (value for all t), "step" (0 at t <= 0, value for
    t > 0), "table" (piecewise-linear interpolation of (t, v) samples).
    """

    kind: str
    value: np.ndarray = None          # (m,) for constant/step
    table: np.ndarray = None          # (k, 1+m) rows of t, v_1..v_m

    def __post_init__(self):
        check_choice("voltage kind", self.kind, ("constant", "step", "table"))
        name = "table" if self.kind == "table" else "value"
        data = getattr(self, name)
        if data is None:
            raise ValidationFailure(
                f"voltage {name} is required for kind {self.kind!r}")
        data = check_finite(f"voltage {name}", data)  # kept as a float array
        object.__setattr__(self, name, data)
        if self.kind != "table":
            if data.ndim != 1:
                raise ValidationFailure(
                    f"voltage value must be 1-D, got shape {data.shape}")
            return
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 2:
            raise ValidationFailure(
                "voltage table must be 2-D with at least one row, a time "
                f"column and a voltage column, got shape {data.shape}")
        if np.any(np.diff(data[:, 0]) <= 0):
            raise ValidationFailure(
                "voltage table times must be strictly increasing, got "
                f"{data[:, 0].tolist()}")

    def __call__(self, t):
        """v(t): (m,) for a scalar time, (len(t), m) for an array of times."""
        t = np.asarray(t, dtype=float)
        if self.kind == "table":
            ts = self.table[:, 0]
            return np.stack([np.interp(t, ts, vs) for vs in self.table[:, 1:].T],
                            axis=-1)
        on = np.full(t.shape, True) if self.kind == "constant" else t > 0
        return np.where(on[..., None], self.value, 0.0)

    @property
    def m(self):
        if self.kind == "table":
            return self.table.shape[1] - 1
        return len(self.value)


DEFAULT_WINDING = fem.WindingSpec(
    rectangles=(
        ((0.1, 0.2, 0.4, 0.6, 100.0), (0.8, 0.9, 0.4, 0.6, -100.0)),
    )
)


# Desk-scale caps: a run above them would not finish at desk scale (mesh,
# steps, stored states: 80 MB at the dof-step cap) or would stop Newton
# before it moved (tolerance; its floor is core.MIN_NEWTON_TOL).
MAX_MESH_N = 256
MAX_STEPS = 100_000
MAX_DOF_STEPS = 10_000_000
MAX_NEWTON_TOL = 1e-3


@dataclass(frozen=True)
class MQSConfig:
    n: int = 32
    conductor_center: tuple = (0.5, 0.5)
    conductor_radius: float = 0.2
    winding: fem.WindingSpec = DEFAULT_WINDING
    model: material.ReluctivityModel = field(
        default_factory=lambda: material.rational_saturation_model(1.0, 5.0)
    )
    sigma_C: float = 1.0
    R: np.ndarray = field(default_factory=lambda: np.array([[1.0]]))
    T: float = 1.0
    tau: float = 1.0 / 64.0
    voltage: VoltageSignal = field(
        default_factory=lambda: VoltageSignal("step", np.array([1.0]))
    )
    a0_kind: str = "zero"       # zero | random | file
    a0_path: str = ""
    seed: int = 42
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    newton_start: str = "extrapolate"  # extrapolate | zero, see core
    # optional manufactured volumetric forcing added to the field equation;
    # callable (mesh, times) -> one load vector per time, for convergence
    forcing: Optional[Callable] = None

    def __post_init__(self):
        for name in ("n", "seed", "newton_max_iter"):
            check_finite(name, getattr(self, name), numbers.Integral)
        for name in ("conductor_radius", "sigma_C", "T", "tau", "newton_tol"):
            check_finite(name, getattr(self, name), numbers.Real)
        center = check_finite("conductor_center", self.conductor_center)
        if center.shape != (2,):
            raise ValidationFailure(
                f"conductor_center needs two numbers, got shape {center.shape}")
        # kept as a float pair and a float array (R's shape: build_system)
        object.__setattr__(self, "conductor_center", tuple(center.tolist()))
        object.__setattr__(self, "R", np.atleast_2d(check_finite("R", self.R)))
        if self.seed < 0:
            raise ValidationFailure(f"seed must be nonnegative, got {self.seed}")
        if not core.MIN_NEWTON_TOL <= self.newton_tol <= MAX_NEWTON_TOL:
            raise ValidationFailure(
                f"newton_tol must be at least {core.MIN_NEWTON_TOL:g} and at "
                f"most {MAX_NEWTON_TOL:g}, got {self.newton_tol}")
        check_choice("newton_start", self.newton_start, core.NEWTON_STARTS)
        check_choice("initial field kind", self.a0_kind,
                     ("zero", "random", "file"))
        if self.voltage.m != self.winding.m:
            raise ValidationFailure(
                f"voltage has {self.voltage.m} channels but there are "
                f"{self.winding.m} windings")
        if self.newton_max_iter < 1:
            raise ValidationFailure(
                f"newton_max_iter must be at least 1, got {self.newton_max_iter}")
        if self.n > MAX_MESH_N:
            raise ValidationFailure(f"n must be at most {MAX_MESH_N}, got {self.n}")
        if not (self.T > 0 and self.tau > 0):
            raise ValidationFailure(
                f"T and tau must be positive, got T = {self.T}, tau = {self.tau}")
        steps = self.T / self.tau
        if steps > MAX_STEPS:
            raise ValidationFailure(
                f"T / tau = {steps:.6g} steps exceeds the cap of {MAX_STEPS}")
        if steps < 0.5 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ValidationFailure(
                f"T = {self.T} is not a whole number of steps tau = "
                f"{self.tau} (T / tau = {steps:.6g})")
        dofs = max(self.n - 1, 0) ** 2
        if dofs * steps > MAX_DOF_STEPS:
            raise ValidationFailure(
                f"(n - 1)^2 * T / tau = {dofs} dofs * {steps:.6g} steps "
                f"exceeds the cap of {MAX_DOF_STEPS} dof-steps")

    @property
    def n_steps(self):
        return int(round(self.T / self.tau))


@dataclass
class MQSOperators:
    """The assembled operators of one configuration.

    ``L_C`` is computed on first read, by a shift-invert eigensolve that
    no solve needs, so its ``EigenSolveFailure`` surfaces there and not
    when the operators are built.
    """

    mesh: fem.Mesh2D
    model: material.ReluctivityModel
    sigma_C: float
    R: np.ndarray
    R_inv: np.ndarray
    R_inv_sqrt: np.ndarray
    msigma: sp.csc_matrix      # sigma_C-weighted conducting mass
    mass_C: sp.csc_matrix      # unit-conductivity conducting mass
    mass: sp.csc_matrix        # full mass
    stiffness: sp.csc_matrix   # unit-coefficient stiffness K_lin
    coupling: np.ndarray       # C, (n_dofs, m)
    m_hat: float
    L_hat: float
    E: core.LinearMapE         # metric map, E^T E = msigma + C R^{-1} C^T;
                               # its last m rows R^{-1/2} C^T are the thin block

    @cached_property
    def L_C(self):
        """Discrete constant in ||a||^2 <= L_C (||a||_C^2 + ||grad a||^2)."""
        return fem.estimate_coercivity_constant(
            self.mass_C, self.stiffness, self.mass)

    @property
    def phi(self):
        """The energy as an omega = 1 elliptic functional.  Built per access:
        a stored one would refer back to ``self``, a reference cycle."""
        return core.EllipticFunctional(
            eval=self.energy, gateaux=self.K, hessian=self.K_tangent,
            ellipticity_omega=1.0,
        )

    @property
    def m(self):
        return self.coupling.shape[1]

    @property
    def n_dofs(self):
        return self.mesh.n_dofs

    def K(self, a):
        return fem.curlcurl_residual(self.mesh, self.model, a)

    def K_tangent(self, a):
        return fem.curlcurl_jacobian(self.mesh, self.model, a)

    def energy(self, a):
        return fem.magnetic_energy(self.mesh, self.model, a)

    @property
    def coercivity_constant(self):
        """Certified lower-bound constant for the omega=1 shifted energy."""
        return min(self.m_hat, self.sigma_C) / (2.0 * self.L_C)


@dataclass
class MQSTrajectory:
    times: np.ndarray       # (N+1,)
    fields: np.ndarray      # (N+1, n_dofs)
    currents: np.ndarray    # (N+1, m); row 0 is nan (undefined by the scheme)
    energies: np.ndarray    # (N+1,)
    fluxes: np.ndarray      # (N+1, m), C^T a_k
    balance_residuals: np.ndarray  # (N+1,); row 0 is nan
    voltages: np.ndarray    # (N+1, m), samples v(t_k)
    core_trajectory: core.DaeTrajectory

    @property
    def tau(self):
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self):
        return self.times.shape[0] - 1


def _principal_inv_sqrt(R):
    w, V = np.linalg.eigh(R)
    if np.any(w <= 0):
        raise ValidationFailure("resistance matrix R must be positive definite")
    return (V * (1.0 / np.sqrt(w))) @ V.T


def _metric_matrix(mesh, sigma_C, coupling, R_inv_sqrt):
    """Sparse factor E with E^T E = sigma_C M_C + C R^{-1} C^T.

    The conducting-mass part is factored element by element through the
    Cholesky factors of the 3x3 local mass blocks, so the adjoint identity
    holds exactly in floating point up to rounding.
    """
    areas, _ = mesh.geometry
    c_elems = np.flatnonzero(mesh.element_labels == fem.LABEL_C)
    local_chol = np.linalg.cholesky(fem._LOCAL_MASS)  # M_loc = L L^T
    # block_r^T block_r = sigma area M_loc for the r-th conducting element
    blocks = np.sqrt(sigma_C * areas[c_elems])[:, None, None] * local_chol.T
    E1 = mesh.element_operator(blocks, c_elems)
    E1.sort_indices()  # canonical CSR: E sums each row in dof order
    E2 = sp.csr_matrix(R_inv_sqrt @ coupling.T)
    return sp.vstack([E1, E2]).tocsr()


def build_system(config):
    """Assemble the operators; returns ``(ops, ops.phi, ops.E)``.

    ``ops.L_C`` is left to its first read, which runs the eigensolve and
    raises any ``EigenSolveFailure``.
    """
    report = material.validate_assumptions(config.model, config.sigma_C, config.R)
    mesh = fem.build_mesh(
        config.n, (*config.conductor_center, config.conductor_radius)
    )
    msigma, mass = fem.assemble_sigma_mass(mesh, config.sigma_C)
    mass_C = msigma / config.sigma_C
    stiffness = fem.assemble_stiffness(mesh)
    coupling = fem.assemble_coupling(mesh, config.winding)
    R = config.R
    if R.shape[0] != config.winding.m:
        raise ValidationFailure(
            f"R is {R.shape[0]}x{R.shape[1]} but there are {config.winding.m} windings"
        )
    R_inv = np.linalg.inv(R)
    R_inv_sqrt = _principal_inv_sqrt(R)
    ops = MQSOperators(
        mesh=mesh, model=config.model, sigma_C=config.sigma_C,
        R=R, R_inv=R_inv, R_inv_sqrt=R_inv_sqrt,
        msigma=msigma, mass_C=mass_C, mass=mass, stiffness=stiffness,
        coupling=coupling,
        m_hat=report.m_hat, L_hat=report.L_hat,
        E=core.LinearMapE(
            _metric_matrix(mesh, config.sigma_C, coupling, R_inv_sqrt),
            k=coupling.shape[1]),
    )
    return ops, ops.phi, ops.E


def initial_field(config, ops):
    if config.a0_kind == "zero":
        return np.zeros(ops.n_dofs)
    if config.a0_kind == "random":
        rng = np.random.default_rng(config.seed)
        return 0.1 * rng.standard_normal(ops.n_dofs)
    try:  # a0_kind "file", .npy only: np.load would hand back an .npz as is
        with open(config.a0_path, "rb") as fh:
            return np.lib.format.read_array(fh)
    except FileNotFoundError:
        raise
    except (ValueError, OSError) as exc:
        raise ValidationFailure(
            f"cannot read initial field {config.a0_path!r}: {exc}") from exc


def _metric_input(ops, v_samples):
    """Input in metric coordinates: (0 field block, R^{-1/2} v)."""
    n_rows = ops.E.dim_Z
    m = ops.m
    f = np.zeros((v_samples.shape[0], n_rows))
    f[:, n_rows - m:] = v_samples @ ops.R_inv_sqrt.T
    return f


def recover_currents(ops, fields, v_samples, tau):
    """i_k = R^{-1} (v_k - (C^T a_k - C^T a_{k-1}) / tau), i_0 undefined."""
    fluxes = fields @ ops.coupling
    currents = np.full((fields.shape[0], ops.m), np.nan)
    rates = np.diff(fluxes, axis=0) / tau
    currents[1:] = (v_samples[1:] - rates) @ ops.R_inv.T
    return currents, fluxes


def power_balance(ops, fields, currents, voltages, energies, tau):
    """Per-step defect of the discrete power balance, nan at k = 0.

    delta_k = Phi_k - Phi_{k-1} - tau (i_k . v_k - i_k . R i_k
              - sigma_C || (a_k - a_{k-1}) / tau ||^2_{M_C}).
    """
    da = np.diff(fields, axis=0) / tau
    ohmic_field = ops.sigma_C * np.einsum(
        "ki,ki->k", da, (ops.mass_C @ da.T).T
    )
    i = currents[1:]
    supplied = np.einsum("kj,kj->k", i, voltages[1:])
    ohmic_wind = np.einsum("kj,kj->k", i, i @ ops.R.T)
    out = np.full(fields.shape[0], np.nan)
    out[1:] = np.diff(energies) - tau * (supplied - ohmic_wind - ohmic_field)
    return out


def solve(config, ops=None, a0=None):
    """Run the coupled system over [0, T] with the prox stepper.

    ``ops`` defaults to ``build_system(config)[0]``; ``a0`` overrides the
    configured initial field.  A solve that overflows is a NonConvergence
    that also names the largest input when its magnitude is itself beyond
    the square root of the largest float.
    """
    if ops is None:
        ops = build_system(config)[0]
    if a0 is None:
        a0 = initial_field(config, ops)
    a0 = check_finite("initial field", a0)
    if a0.shape != (ops.n_dofs,):
        raise ValidationFailure(
            f"initial field has shape {a0.shape}, expected ({ops.n_dofs},)"
        )
    times = config.tau * np.arange(config.n_steps + 1)
    v_samples = config.voltage(times)
    prox_cfg = core.ProxConfig(
        tau=config.tau, n_steps=config.n_steps,
        newton_tol=config.newton_tol, newton_max_iter=config.newton_max_iter,
    )
    loads = None if config.forcing is None else config.forcing(ops.mesh, times[1:])
    try:
        traj = core.solve_trajectory(
            ops.phi, ops.E, a0, _metric_input(ops, v_samples), prox_cfg,
            loads=loads, start=config.newton_start,
        )
    except NonConvergence as exc:
        sizes = {name: np.abs(data).max(initial=0.0) for name, data in (
            ("voltage", v_samples), ("inverse resistance R^-1", ops.R_inv),
            ("winding density", [r[4] for rects in config.winding.rectangles
                                 for r in rects]), ("initial field", a0))}
        name = max(sizes, key=sizes.get)
        if not (isinstance(exc.__cause__, FloatingPointError)
                and sizes[name] > np.sqrt(np.finfo(float).max)):
            raise
        raise NonConvergence(
            f"{exc}; its largest input is the {name}, of magnitude "
            f"{sizes[name]:.3g}", step=exc.step) from exc
    currents, fluxes = recover_currents(ops, traj.states, v_samples, config.tau)
    return MQSTrajectory(
        times=traj.times, fields=traj.states, currents=currents,
        energies=traj.energies, fluxes=fluxes,
        balance_residuals=power_balance(ops, traj.states, currents, v_samples,
                                        traj.energies, config.tau),
        voltages=v_samples, core_trajectory=traj,
    )


# perfbench/measure.py names this attribute when it instruments prox steps.
_prox_from = core.prox_step


def schur_step(ops, a_prev, v_k, tau, *, newton_tol=1e-10, newton_max_iter=50,
               forcing_load=None):
    """Field-only implicit step after eliminating the circuit unknown.

    Solves (M_red / tau)(a - a_prev) + K(a) = C R^{-1} v_k with
    M_red = sigma_C M_C + C R^{-1} C^T by damped Newton.
    """
    a_prev = np.asarray(a_prev, dtype=float)
    C = sp.csc_matrix(ops.coupling)
    M_red = ops.msigma + C @ sp.csc_matrix(ops.R_inv) @ C.T
    rhs_const = ops.coupling @ (ops.R_inv @ np.atleast_1d(v_k))
    if forcing_load is not None:
        rhs_const = rhs_const + forcing_load

    def residual(a):
        return (M_red @ (a - a_prev)) / tau + ops.K(a) - rhs_const

    def merit(a):
        d = a - a_prev
        return (
            ops.energy(a) + 0.5 / tau * float(d @ (M_red @ d))
            - float(rhs_const @ a)
        )

    g = residual(a_prev)
    g0_norm = float(np.linalg.norm(g))
    return core.newton_minimize(
        merit, residual, lambda a: ops.K_tangent(a) + M_red / tau, a_prev,
        newton_tol * (1.0 + g0_norm), g0=g, max_iter=newton_max_iter,
    )


def solve_schur(config, ops):
    """Full trajectory through the Schur-reduced path (equivalence witness)."""
    n = config.n_steps
    times = config.tau * np.arange(n + 1)
    v_samples = config.voltage(times)
    fields = np.empty((n + 1, ops.n_dofs))
    fields[0] = initial_field(config, ops)
    loads = None if config.forcing is None else config.forcing(ops.mesh, times[1:])
    for k in range(1, n + 1):
        fields[k] = schur_step(
            ops, fields[k - 1], v_samples[k], config.tau,
            newton_tol=config.newton_tol,
            newton_max_iter=config.newton_max_iter,
            forcing_load=None if loads is None else loads[k - 1],
        )
    return fields


@dataclass
class WeakResidualReport:
    max_field_residual: float
    max_circuit_residual: float
    field_residuals: np.ndarray    # (N,)
    circuit_residuals: np.ndarray  # (N,)


def check_weak_solution(ops, traj):
    """Residuals of both coupled equations tested against every basis function."""
    tau = traj.tau
    n = traj.n_steps
    r1 = np.empty(n)
    r2 = np.empty(n)
    for k in range(1, n + 1):
        da = traj.fields[k] - traj.fields[k - 1]
        field_res = (
            (ops.msigma @ da) / tau + ops.K(traj.fields[k])
            - ops.coupling @ traj.currents[k]
        )
        r1[k - 1] = np.max(np.abs(field_res))
        flux_rate = (traj.fluxes[k] - traj.fluxes[k - 1]) / tau
        r2[k - 1] = np.linalg.norm(
            flux_rate + ops.R @ traj.currents[k] - traj.voltages[k]
        )
    return WeakResidualReport(float(r1.max()), float(r2.max()), r1, r2)

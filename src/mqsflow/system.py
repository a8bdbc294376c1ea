"""Coupled field-circuit system: discrete operators, energy, and solve paths.

The lumped circuit injects current through winding densities; the metric
map stacks the square-root conducting mass with the resistance-weighted
flux-linkage map, so one prox step minimizes

    J(a) = Phi(a) + 1/(2 tau) sigma_C ||a - a_prev||^2_{M_C}
         + 1/(2 tau) || R^{-1/2} (C^T a - C^T a_prev - tau v_k) ||^2.

Currents are recovered per step as i_k = R^{-1} (v_k - d/dt C^T a) and
returned in an ``MQSTrajectory``: a ``core.DaeTrajectory`` plus the circuit.
An independent Schur-reduced Newton path, from the same checked setup,
eliminates the current unknown up front and serves as an equivalence
witness.  Its equation and merit are built from sigma_C M_C, C and R^{-1},
not from E; its Newton matrices, K_tangent + M_red / tau with
M_red = E^T E, are solved by the prox path's NewtonSystem.
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


# the kinds of VoltageSignal and of MQSConfig's initial field
VOLTAGE_KINDS = ("step", "table")
A0_KINDS = ("zero", "random", "file")


@dataclass(frozen=True)
class VoltageSignal:
    """Applied winding voltages as a function of time.

    kinds: "step" (0 at t <= 0, value for t > 0), "table" (piecewise-
    linear interpolation of (t, v) samples).  The scheme samples v(t_k)
    only for k >= 1, so a value held for all t is a step.
    """

    kind: str
    value: np.ndarray = None          # (m,) for step
    table: np.ndarray = None          # (k, 1+m) rows of t, v_1..v_m

    def __post_init__(self):
        check_choice("voltage kind", self.kind, VOLTAGE_KINDS)
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
        return np.where((t > 0)[..., None], self.value, 0.0)

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
# steps, the stored record: states and subgradients, 160 MB at the dof-step
# cap).  Newton's tolerance bounds are core.ProxConfig's.
MAX_MESH_N = 256
MAX_STEPS = 100_000
MAX_DOF_STEPS = 10_000_000


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
    # optional manufactured volumetric forcing added to the field equation;
    # callable (mesh, times) -> one load vector per time, for convergence
    forcing: Optional[Callable] = None
    prox: core.ProxConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "seed"):
            check_finite(name, getattr(self, name), numbers.Integral)
        for name in ("conductor_radius", "sigma_C", "T", "tau"):
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
        check_choice("initial field kind", self.a0_kind, A0_KINDS)
        if self.voltage.m != self.winding.m:
            raise ValidationFailure(
                f"voltage has {self.voltage.m} channels but there are "
                f"{self.winding.m} windings")
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
        object.__setattr__(self, "prox", core.ProxConfig(
            self.tau, self.n_steps, self.newton_tol))

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
class MQSTrajectory(core.DaeTrajectory):
    """A core.DaeTrajectory, its states the fields a_k, plus the circuit."""

    currents: np.ndarray    # (N+1, m); row 0 is nan (undefined by the scheme)
    fluxes: np.ndarray      # (N+1, m), C^T a_k
    balance_residuals: np.ndarray  # (N+1,); row 0 is nan
    voltages: np.ndarray    # (N+1, m), samples v(t_k)

    @property
    def fields(self):
        """The fields a_k, (N+1, n_dofs): ``states`` itself, read-only."""
        return self.states


def _admissible_data(config):
    """The one check of the problem data: sigma_C > 0; R square, symmetric,
    positive definite, one row per winding; each region's curve strongly
    monotone.  Raises one ValidationFailure naming every failure; else
    returns the least m_hat, the largest L_hat, and R^{-1/2}."""
    reasons = []
    if not config.sigma_C > 0:
        reasons.append("conductivity sigma_C must be positive")
    R = config.R
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        reasons.append("resistance matrix R must be square")
    else:
        S = R / max(np.abs(R).max(initial=0.0), 1e-300)  # no overflow
        if np.linalg.norm(S - S.T) > 1e-12 * np.linalg.norm(S):
            reasons.append("resistance matrix R must be symmetric")
        else:
            try:
                np.linalg.cholesky(R)
                w, V = np.linalg.eigh(R)  # for R^{-1/2} below
            except np.linalg.LinAlgError:
                w = np.zeros(1)  # not positive definite
            if np.any(w <= 0):
                reasons.append("resistance matrix R must be positive definite")
    if R.shape[0] != config.winding.m:
        reasons.append(f"R is {R.shape[0]}x{R.shape[1]} but there are "
                       f"{config.winding.m} windings")
    reports = {}
    for region in sorted(config.model.params):
        try:  # through the module: perfbench wraps estimate_constants
            reports[region] = material.estimate_constants(config.model, region)
        except ValidationFailure as exc:  # a curve whose bounds overflow
            reasons += exc.reasons
    reasons += [f"reluctivity curve on region {region!r} is not strongly "
                f"monotone (m_hat = {rep.m_hat:.3e})"
                for region, rep in reports.items() if not rep.passed]
    if reasons:
        raise ValidationFailure(reasons)
    return (min(r.m_hat for r in reports.values()),
            max(r.L_hat for r in reports.values()),
            (V * (1.0 / np.sqrt(w))) @ V.T)


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

    The problem data are checked first, by ``_admissible_data``.  A step
    too large for the energy's ellipticity fails here as in a solve.
    ``ops.L_C`` is left to its first read, which runs the eigensolve and
    raises any ``EigenSolveFailure``.
    """
    m_hat, L_hat, R_inv_sqrt = _admissible_data(config)
    mesh = fem.build_mesh(
        config.n, (*config.conductor_center, config.conductor_radius)
    )
    mass_C, mass = fem.assemble_sigma_mass(mesh, 1.0)
    msigma = config.sigma_C * mass_C
    stiffness = fem.assemble_stiffness(mesh)
    coupling = fem.assemble_coupling(mesh, config.winding)
    R = config.R
    R_inv = np.linalg.inv(R)
    ops = MQSOperators(
        mesh=mesh, model=config.model, sigma_C=config.sigma_C,
        R=R, R_inv=R_inv, R_inv_sqrt=R_inv_sqrt,
        msigma=msigma, mass_C=mass_C, mass=mass, stiffness=stiffness,
        coupling=coupling, m_hat=m_hat, L_hat=L_hat,
        E=core.LinearMapE(
            _metric_matrix(mesh, config.sigma_C, coupling, R_inv_sqrt),
            k=coupling.shape[1]),
    )
    config.prox.check_against(ops.phi)
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


def _setup(config, ops, a0=None):
    """Both solve paths' start: the checked initial field (``a0`` or the
    configured one), v(t_k) at t_k = k tau, and the loads (None unforced)."""
    if a0 is None:
        a0 = initial_field(config, ops)
    a0 = check_finite("initial field", a0)
    if a0.shape != (ops.n_dofs,):
        raise ValidationFailure(
            f"initial field has shape {a0.shape}, expected ({ops.n_dofs},)"
        )
    times = config.tau * np.arange(config.n_steps + 1)
    loads = None if config.forcing is None else config.forcing(ops.mesh, times[1:])
    return a0, config.voltage(times), loads


def solve(config, ops=None, a0=None):
    """Run the coupled system over [0, T] with the prox stepper.

    ``ops`` defaults to ``build_system(config)[0]``; ``a0`` overrides the
    configured initial field.  A solve that overflows is a NonConvergence
    that also names the largest input when its magnitude is itself beyond
    the square root of the largest float.
    """
    if ops is None:
        ops = build_system(config)[0]
    a0, v_samples, loads = _setup(config, ops, a0)
    try:
        traj = core.solve_trajectory(
            ops.phi, ops.E, a0, _metric_input(ops, v_samples), config.prox,
            loads=loads)
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
        **vars(traj), currents=currents, fluxes=fluxes,
        balance_residuals=power_balance(ops, traj.states, currents, v_samples,
                                        traj.energies, config.tau),
        voltages=v_samples,
    )


# perfbench/measure.py names this attribute when it instruments prox steps.
_prox_from = core.prox_step


def schur_step(ops, a_prev, v_k, config, *, forcing_load=None,
               newton_system=None):
    """Field-only implicit step after eliminating the circuit unknown.

    Solves (M_red / tau)(a - a_prev) + K(a) = C R^{-1} v_k with
    M_red = sigma_C M_C + C R^{-1} C^T by damped Newton, with tau and
    Newton's tolerance from ``config``, a core.ProxConfig.  Its Newton
    matrices K_tangent + E^T E / tau = K_tangent + M_red / tau are the
    prox path's: they go through ``newton_system``, a core.NewtonSystem
    of ``ops.E`` and tau (one made for others is a ValidationFailure; by
    default the step makes its own), in the quasi-definite form.

    The witness stays independent of E where it matters: the equation
    above, Newton's stop, and the merit the line search descends are
    built from sigma_C M_C, C and R^{-1}, never through E.  The Newton
    matrix only steers the iteration, so a wrong E moves the prox
    solution, which minimizes in E's metric, and not this one: criterion
    07 sees the difference.
    """
    tau = config.tau
    newton_system = core._newton_system_for(ops.E, tau, newton_system)
    a_prev = np.asarray(a_prev, dtype=float)
    C, R_inv = ops.coupling, ops.R_inv
    rhs_const = C @ (R_inv @ np.atleast_1d(v_k))
    if forcing_load is not None:
        rhs_const = rhs_const + forcing_load
    last = [None, None]  # the last point and its mass_step

    def mass_step(a):
        """a - a_prev and M_red (a - a_prev), formed once per point, as
        prox_step forms its misfit."""
        if a is not last[0]:
            d = a - a_prev
            last[:] = a, (d, ops.msigma @ d + C @ (R_inv @ (C.T @ d)))
        return last[1]

    def residual(a):
        return mass_step(a)[1] / tau + ops.K(a) - rhs_const

    def merit(a):
        d, Md = mass_step(a)
        return (ops.energy(a) + 0.5 / tau * float(d @ Md)
                - float(rhs_const @ a))

    g, J = residual(a_prev), merit(a_prev)
    tol = config.newton_tol * (1.0 + float(np.linalg.norm(g)))
    return core.newton_minimize(
        merit, residual, ops.K_tangent, a_prev, tol, g0=g, J0=J,
        newton_system=newton_system,
    )


def solve_schur(config, ops):
    """Full trajectory through the Schur-reduced path: the equivalence
    witness of criterion 07 and the partner of the uniqueness experiment
    (diagnostics.perturbation_experiments).

    One NewtonSystem of ``ops.E`` serves every step, as solve_trajectory's
    serves its prox steps: the Newton pattern is sorted and ordered once
    per solve.  Each step starts Newton at a_{k-1}, with no extrapolation
    and no guard, so its Newton path is not the prox path's (core's module
    docstring); both solve the same step.
    """
    a0, v_samples, loads = _setup(config, ops)
    n = config.n_steps
    fields = np.empty((n + 1, ops.n_dofs))
    fields[0] = a0
    newton_system = core.NewtonSystem(ops.E, config.tau)
    for k in range(1, n + 1):
        fields[k] = schur_step(
            ops, fields[k - 1], v_samples[k], config.prox,
            forcing_load=None if loads is None else loads[k - 1],
            newton_system=newton_system,
        )
    return fields


@dataclass
class WeakResidualReport:
    max_field_residual: float
    max_circuit_residual: float
    field_residuals: np.ndarray    # (N,)
    circuit_residuals: np.ndarray  # (N,)


# check_weak_solution forms the field residuals of a block of steps at a
# time, each block array about this many bytes, so its memory stays flat
# in the number of steps (at least one step per block).  On the default
# problem at n = 64 (64 steps), median of 15 interleaved in-process rounds
# (2-core x86 VM, one BLAS thread): 4.6 ms one step at a time; blocks of
# 256 KB 4.0 ms, of 1 MB (33 steps) 3.2 ms, of 2 MB 3.8 ms, of 4 MB 3.5 ms.
WEAK_CHECK_BLOCK_BYTES = 2 ** 20


def check_weak_solution(ops, traj):
    """Residuals of both coupled equations tested against every basis function.

    K(a_k) is the trajectory's stored eta_k, ``traj.subgradients[k]``, which
    the solve recorded at Newton's last point; the rest (M_sigma, C, R and
    the currents) is computed here from the stored fields.  The Tier-1 test
    ``test_system.py::test_stored_subgradients_are_K_of_the_stored_fields``
    pins eta_k to ``ops.K(traj.fields[k])`` bit for bit, so this stays a
    check of the stored fields.  Each operator acts on a block of steps in
    one product, a step per column: M_sigma's block columns sum as its
    single products do, so with one winding every residual is that of the
    step alone, bit for bit.
    """
    tau = traj.tau
    n = traj.n_steps
    fields, currents = traj.fields, traj.currents
    per_block = max(1, WEAK_CHECK_BLOCK_BYTES // (8 * ops.n_dofs))
    r1 = np.empty(n)
    for first in range(0, n, per_block):
        last = min(first + per_block, n)
        steps = slice(first + 1, last + 1)
        da = fields[steps] - fields[first:last]
        field_res = core._matvec(ops.msigma, da.T)  # (n_dofs, steps)
        field_res /= tau
        field_res += traj.subgradients[steps].T
        field_res -= ops.coupling @ currents[steps].T
        r1[first:last] = np.abs(field_res).max(axis=0)
    flux_rate = np.diff(traj.fluxes, axis=0) / tau
    r2 = np.linalg.norm(
        flux_rate + currents[1:] @ ops.R.T - traj.voltages[1:], axis=1)
    return WeakResidualReport(float(r1.max()), float(r2.max()), r1, r2)

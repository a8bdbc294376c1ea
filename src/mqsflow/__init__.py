"""Desk-scale simulator for a quasilinear magnetic field coupled to a
lumped circuit, time-stepped as proximal minimizations in a degenerate
metric, with diagnostics that check the model's structural properties."""

from .core import (
    DaeTrajectory,
    EllipticFunctional,
    LinearMapE,
    ProxConfig,
    energy_identity_residual,
    eval_phi_E,
    prox_step,
    regularity_monitors,
    solve_trajectory,
)
from .diagnostics import (
    ExperimentResult,
    convergence_study,
    monotonicity_probe,
    perturbation_experiments,
    write_field_vtk,
    write_timeseries_csv,
)
from .errors import MqsflowError
from .fem import Mesh2D, WindingSpec, build_mesh, estimate_coercivity_constant
from .material import (
    ReluctivityModel,
    constant_model,
    estimate_constants,
    rational_saturation_model,
    tabulated_model,
    theta_eval,
    validate_assumptions,
)
from .system import (
    MQSConfig,
    MQSOperators,
    MQSTrajectory,
    VoltageSignal,
    build_system,
    check_weak_solution,
    schur_step,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "DaeTrajectory", "EllipticFunctional", "LinearMapE", "ProxConfig",
    "energy_identity_residual", "eval_phi_E", "prox_step",
    "regularity_monitors", "solve_trajectory", "ExperimentResult",
    "convergence_study", "perturbation_experiments", "write_field_vtk",
    "write_timeseries_csv", "MqsflowError", "Mesh2D", "WindingSpec",
    "build_mesh", "estimate_coercivity_constant", "ReluctivityModel",
    "constant_model", "estimate_constants", "rational_saturation_model",
    "tabulated_model", "theta_eval", "validate_assumptions", "MQSConfig",
    "MQSOperators", "MQSTrajectory", "VoltageSignal", "build_system",
    "check_weak_solution", "monotonicity_probe", "schur_step", "solve",
]

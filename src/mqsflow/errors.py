"""Exception types shared across the package."""

import numpy as np


class MqsflowError(Exception):
    """Base class for all package errors."""


class NonConvergence(MqsflowError):
    """Newton exceeded its iteration budget.

    Usually signals a too-large step size or a functional violating its
    declared convexity.
    """

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


class SingularStep(MqsflowError):
    """The Newton linear system was not solvable (loss of coercivity)."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


class InfeasibleLevelSet(MqsflowError):
    """Target point is not in the range of the metric map."""


class OracleLimitExceeded(MqsflowError):
    """Problem dimension above the configured oracle limit."""


class NegativeFieldMagnitude(MqsflowError):
    """Field magnitude argument must be nonnegative."""


class NegativeArgument(MqsflowError):
    """Energy-density argument must be nonnegative."""


class GeometryError(MqsflowError):
    """Invalid geometry (conductor touching the boundary, clearance, ...)."""


class WindingOverlapsConductor(MqsflowError):
    """Winding support intersects the conducting subdomain."""


class EigenSolveFailure(MqsflowError):
    """Generalized eigenvalue solve did not converge."""


class ValidationFailure(MqsflowError):
    """A model or configuration assumption check failed."""

    def __init__(self, reasons):
        if isinstance(reasons, str):
            reasons = [reasons]
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


def check_finite(what, value):
    """Raise ValidationFailure naming ``what`` unless every entry of
    ``value`` is a finite number."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationFailure(f"{what} must be finite, got {arr.tolist()}")


class InsufficientLevels(MqsflowError):
    """A refinement study needs at least three levels."""


class ConfigError(MqsflowError):
    """Malformed run configuration file or override."""

"""Exception types shared across the package."""

import numbers

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


class ValidationFailure(MqsflowError, ValueError):
    """A model or configuration assumption check failed (a bad value)."""

    def __init__(self, reasons):
        if isinstance(reasons, str):
            reasons = [reasons]
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


def check_finite(what, value, kind=None):
    """``value`` as a float array; raises ValidationFailure naming ``what``
    unless it is a regular (non-ragged) array, or a scalar, of finite real
    numbers, and a single number of ``kind`` if given (``numbers.Real``, or
    ``numbers.Integral`` for a count, numpy integers included)."""
    if kind is not None and not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        shown = " ".join(repr(value).split())
        raise ValidationFailure(f"{what} must be {noun}, got {shown}")
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # a ragged nesting, say
        raise ValidationFailure(
            f"{what} must be a numeric array: {exc}") from exc
    if arr.dtype.kind not in "biuf":
        raise ValidationFailure(
            f"{what} must be real numbers, got {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise ValidationFailure(f"{what} must be finite, got {arr.tolist()}")
    return np.asarray(arr, dtype=float)


def check_choice(what, value, choices):
    """Raise ValidationFailure naming ``what`` unless ``value`` is one of
    ``choices``."""
    if value not in choices:
        raise ValidationFailure(
            f"{what} must be one of {', '.join(choices)}, got {value!r}")


class InsufficientLevels(MqsflowError):
    """A refinement study needs at least three levels."""


class ConfigError(MqsflowError):
    """Malformed run configuration file or override."""

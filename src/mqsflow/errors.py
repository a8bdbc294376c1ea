"""Exception types shared across the package."""

import numbers

import numpy as np


class MqsflowError(Exception):
    """Base class for all package errors."""


class StepFailure(MqsflowError):
    """A time step could not be taken; ``step`` is its index once known."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


class NonConvergence(StepFailure):
    """Newton exceeded its iteration budget.

    Usually signals a too-large step size or a functional violating its
    declared convexity.
    """


class SingularStep(StepFailure):
    """The Newton linear system was not solvable (loss of coercivity)."""


class EigenSolveFailure(MqsflowError):
    """Generalized eigenvalue solve did not converge."""


class ValidationFailure(MqsflowError, ValueError):
    """Bad input: a value, geometry, model or study setting the package
    rejects.  ``reasons`` names every cause found."""

    def __init__(self, reasons):
        if isinstance(reasons, str):
            reasons = [reasons]
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


def check_finite(what, value, kind=None):
    """``value`` as a float array; raises ValidationFailure naming ``what``
    unless it is a regular (non-ragged) array, or a scalar, of finite real
    numbers, and a single number of ``kind`` if given (``numbers.Real``, or
    ``numbers.Integral`` for a count, numpy integers included; never a
    ``bool``)."""
    if kind is not None and (isinstance(value, bool)
                             or not isinstance(value, kind)):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        shown = " ".join(repr(value).split())
        raise ValidationFailure(f"{what} must be {noun}, got {shown}")
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # a ragged nesting, say
        raise ValidationFailure(
            f"{what} must be a numeric array: {exc}") from exc
    if arr.dtype.kind == "O" and all(isinstance(v, numbers.Real)
                                     for v in arr.flat):
        raise ValidationFailure(  # an integer beyond int64 and uint64
            f"{what} is out of range, got {value}")
    if arr.dtype.kind not in "biuf":
        raise ValidationFailure(
            f"{what} must be real numbers, got {arr.dtype}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        shown = arr.tolist() if arr.size <= 16 else (
            f"{arr.flat[bad[0]]} at flat index {bad[0]} of {arr.size} values")
        raise ValidationFailure(f"{what} must be finite, got {shown}")
    return np.asarray(arr, dtype=float)


def check_choice(what, value, choices):
    """Raise ValidationFailure naming ``what`` unless ``value`` is one of
    ``choices``."""
    if value not in choices:
        raise ValidationFailure(
            f"{what} must be one of {', '.join(choices)}, got {value!r}")


class ConfigError(MqsflowError):
    """Malformed run configuration file or override."""

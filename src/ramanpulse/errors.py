"""Exception types shared across the package, and the input checks."""

import cmath

import numpy as np


class RamanPulseError(Exception):
    """Base class for all library errors."""


class ValidationError(RamanPulseError, ValueError):
    """Invalid arguments, configuration, or input files."""


def finite(value, name: str, kind=float):
    """value converted by kind (float or complex); must be a finite number."""
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if not cmath.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return out


def finite_times(t, name: str = "t"):
    """t as a float numpy scalar or array of any shape; must be finite."""
    try:
        out = np.asarray(t, dtype=float)[()]
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of numbers") from None
    if not np.isfinite(out).all():
        raise ValidationError(f"{name} must be finite")
    return out


def time_grid(grid, name: str = "t_grid") -> np.ndarray:
    """grid as a float array; must be one-dimensional, finite and sorted."""
    out = np.asarray(finite_times(grid, name))
    if out.ndim != 1:
        raise ValidationError(f"{name} must be a one-dimensional array")
    if np.any(np.diff(out) < 0):
        raise ValidationError(f"{name} must be sorted")
    return out


class DomainError(RamanPulseError, ValueError):
    """Operation is mathematically undefined for the given inputs."""


class NumericError(RamanPulseError, RuntimeError):
    """Quadrature or integration failed to reach the requested accuracy."""


class PoleError(DomainError):
    """Drive synthesis got too close to the Rabi-frequency pole.

    Raised when the target efficiency empties the ground state at the
    depletion maximum (E at or above E_max), or when the ground-state
    amplitude vanishes while the drive numerator does not.
    """


class ProtocolError(RamanPulseError):
    """Illegal operation in a gate-level protocol replay."""


class LayoutError(ProtocolError):
    """A gate refers to a register the state does not carry."""


class ModelError(NumericError):
    """Simulation left the regime where the truncated model is valid."""

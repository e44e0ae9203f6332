"""Exception types shared across the package, and the input number check."""

import cmath


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

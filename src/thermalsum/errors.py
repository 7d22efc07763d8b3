"""Exception types shared across the package, and the integer-argument check."""

import operator


class ThermalSumError(Exception):
    """Base class for all errors raised by thermalsum."""


class ParameterError(ThermalSumError, ValueError):
    """A parameter violates a documented precondition."""


class ApproximationDomainError(ThermalSumError):
    """Requested closed form is outside its domain of validity."""


class HorizonExceeded(ThermalSumError):
    """A simulated path failed to cross the threshold within simulate.MAX_HORIZON days."""


class InsufficientData(ThermalSumError):
    """Too few non-missing days in an estimation window."""


class MissingHeader(ThermalSumError):
    """Input CSV does not start with the expected header."""


class EmptyFile(ThermalSumError):
    """Input CSV is empty."""


class SingularFit(ThermalSumError):
    """Fit impossible: all forcing temperatures are identical."""


class NonPositiveEstimate(ThermalSumError):
    """A fitted quantity that must be positive came out non-positive."""


def require_integer(name: str, value: object, least: int) -> int:
    """operator.index(value), or ParameterError unless that exists and is >= least.

    Python and numpy integers pass; floats, even integral ones, do not.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if n < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return n

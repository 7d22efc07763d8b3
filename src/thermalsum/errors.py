"""Exception types shared across the package."""


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

"""Exception types shared across the package."""


class BnlsError(Exception):
    """Base class for package-specific errors."""


class InvalidFieldError(BnlsError, ValueError):
    """Field samples are non-finite or inconsistent with their grid."""


class RegimeError(BnlsError, ValueError):
    """Parameters fall outside the admissible exponent window."""


class ConfigurationError(BnlsError, ValueError):
    """Required configuration (for instance a frequency omega) is missing or invalid."""


class DegenerateQuotientError(BnlsError, ValueError):
    """A variational quotient is undefined for this input (zero denominator)."""


class PreconditionError(BnlsError, ValueError):
    """A documented operation precondition was violated."""


class DivergenceError(BnlsError, RuntimeError):
    """An iterative solver failed to converge.

    Carries the last residual and the residual history so callers can dump
    diagnostics.
    """

    def __init__(self, message, last_residual=None, history=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.history = list(history) if history is not None else []


class VanishingError(BnlsError, RuntimeError):
    """An iterative solver collapsed toward the zero field."""


class FieldFormatError(BnlsError, ValueError):
    """A stored field file is malformed; carries the failing byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

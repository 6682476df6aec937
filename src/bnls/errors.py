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

    ``cause`` says how, so a caller can act on it without reading the
    message: ``"box"`` (a residual floor set by truncated tails: enlarge the
    box), ``"grid"`` (a floor set by the resolution: use more points),
    ``"iterations"`` (max_iters ran out), ``"blow-up"`` (the iterate or its
    residual left the finite numbers) or ``"vanishing"`` (the iterate
    collapsed toward the zero field: :class:`VanishingError`).  ``history`` is
    the residual of every iteration, so the last residual is ``history[-1]``.
    """

    def __init__(self, message, cause=None, history=None):
        super().__init__(message)
        self.cause = cause
        self.history = list(history) if history is not None else []


class VanishingError(DivergenceError):
    """An iterative solver collapsed toward the zero field: cause ``"vanishing"``."""

    def __init__(self, message):
        super().__init__(message, cause="vanishing")


class FieldFormatError(BnlsError, ValueError):
    """A stored field file is malformed; carries the failing byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset

"""Exception types shared across the package."""


class SqbathError(Exception):
    """Base class for all package-specific errors.

    Carries the best available partial value and solver diagnostics.
    """

    def __init__(self, message, partial_value=None, diagnostics=None):
        super().__init__(message)
        self.partial_value = partial_value
        self.diagnostics = diagnostics or {}


class DomainError(SqbathError, ValueError):
    """An argument lies outside the physically meaningful domain."""


class InvalidStateError(DomainError):
    """A covariance matrix violates the Robertson-Schrodinger bound."""


class UnsupportedRegimeError(DomainError):
    """Parameters outside the regime the closed forms are valid in
    (overdamped oscillator, field mass at or above the resonance, ...)."""


class ConfigurationError(SqbathError):
    """A run or quadrature configuration is inconsistent, e.g. a
    UV-divergent integral was requested without any regulator."""


class ResolutionError(ConfigurationError):
    """A sampled squeeze spectrum cannot support the requested accuracy."""


class ConvergenceError(SqbathError):
    """Adaptive integration or root finding did not converge."""

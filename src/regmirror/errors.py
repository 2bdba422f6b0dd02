"""Exception types shared across the package."""


class RegmirrorError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(RegmirrorError):
    """Linear system has no reliable solution (pivot below tolerance)."""


class DimensionMismatchError(RegmirrorError):
    """Vector/matrix shapes are inconsistent with the operation."""


class DomainError(RegmirrorError):
    """Argument lies outside the domain of the potential function."""


class EmptyBatchError(RegmirrorError):
    """A mini-batch update was requested with no sample indices."""


class NonFiniteError(RegmirrorError):
    """A weight or auxiliary variable became NaN or infinite."""


class NewtonDivergenceError(RegmirrorError):
    """Damped Newton failed to reach the target residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class MaxIterationsError(RegmirrorError):
    """Iterative solver hit its iteration cap before converging."""

    def __init__(self, message, grad_norm=None):
        super().__init__(message)
        self.grad_norm = grad_norm


class ConfigError(RegmirrorError):
    """Experiment configuration could not be parsed or validated."""


class WorkerError(RegmirrorError):
    """A grid helper process failed without returning its cells."""

"""Exception types shared across the package."""


class RegmirrorError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrixError(RegmirrorError):
    """Linear system has no reliable solution (condition number above its bound,
    or a non-finite matrix entry)."""


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


class ConfigError(RegmirrorError):
    """Experiment configuration could not be parsed or validated."""


class WorkerError(RegmirrorError):
    """A grid helper process exited without returning its cells, or raised an
    exception that cannot be rebuilt in the calling process."""

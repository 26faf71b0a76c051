"""Exception types shared across the package."""


class ScmaVlcError(Exception):
    """Base class for all package errors."""


class DimensionError(ScmaVlcError):
    """Structural dimensions are inconsistent (too many users, wrong vector length, ...)."""


class DomainError(ScmaVlcError):
    """A numeric argument is outside its valid domain (negative intensity, zero power, ...)."""


class CapacityError(ScmaVlcError):
    """An enumeration would exceed the configured size budget."""


class ConvergenceError(ScmaVlcError):
    """An iterative solver failed to produce a feasible/converged result."""


class ConfigError(ScmaVlcError):
    """Invalid run configuration (missing stop rule, empty sweep grid, ...)."""


class UnsupportedError(ScmaVlcError):
    """The operation is not defined for this input shape (e.g. ellipses need N=2)."""

"""Exception types shared across the package, and its checks of settings, arrays and sequences."""

from math import isfinite
from numbers import Integral, Real

import numpy as np


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


class ConfigError(ScmaVlcError, ValueError):
    """Invalid run configuration (missing stop rule, empty sweep grid, ...); also a ValueError."""


class UnsupportedError(ScmaVlcError):
    """The operation is not defined for this input shape (e.g. ellipses need N=2)."""


def check_integer(name: str, v, error: type, least: int | None = None,
                  most: int | None = None) -> None:
    """Raise error unless v is an integer (numpy's, not a bool) in [least, most]."""
    if ((type(v) is int or type(v) is not bool and isinstance(v, Integral))
            and (least is None or v >= least) and (most is None or v <= most)):
        return
    bounds = " and ".join(f"{op} {b}" for op, b in ((">=", least), ("<=", most)) if b is not None)
    raise error(f"{name} must be an integer{' ' + bounds if bounds else ''}, got {v!r}")


def check_real(name: str, v, error: type, least: float | None = None,
               above: float | None = None, below: float | None = None) -> None:
    """Raise error unless v is a finite real (numpy's, not a bool) >= least, > above, < below."""
    try:  # floats (np.float64 too) and ints skip the abstract class's isinstance
        if ((isinstance(v, float) or type(v) is int or type(v) is not bool and isinstance(v, Real))
                and isfinite(v) and (least is None or v >= least)
                and (above is None or v > above) and (below is None or v < below)):
            return
    except OverflowError:  # an integer too large for a float
        pass
    bounds = "".join(f" and {op} {b}" for op, b in ((">=", least), (">", above), ("<", below))
                     if b is not None)
    raise error(f"{name} must be a real number, finite{bounds}, got {v!r}")


def check_array(name: str, x, error: type, nonnegative: bool = False,
                finite: bool = True) -> np.ndarray:
    """x as a float array; raise error unless its dtype is an integer or a float (so
    bool, string, object, complex and ragged input fail), its entries are finite (unless
    finite is False, for a caller that bounds them itself) and, with nonnegative, >= 0."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged sequence
        raise error(f"{name} must be an array of integers or floats, not ragged") from None
    if a.dtype.kind not in "iuf":
        raise error(f"{name} must be an array of integers or floats, got dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if finite and not np.isfinite(a).all() or nonnegative and (a < 0).any():
        raise error(f"{name} must be finite{' and nonnegative' if nonnegative else ''}")
    return a


def check_sequence(name: str, x, error: type) -> tuple:
    """x as a tuple; raise error unless it is iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise error(f"{name} must be a sequence, got {type(x).__name__}") from None

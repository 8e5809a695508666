"""Exception types shared across the package, and the one check on counts,
the one on stable exponents and the one on the shape of point arrays."""

import numbers

import numpy as np


class StableGapError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(StableGapError, ValueError):
    """Invalid user input: malformed domain, out-of-range parameter, bad grid."""


class UnsupportedConfigurationError(StableGapError, ValueError):
    """A domain/exponent combination the solver deliberately does not handle."""


class NumericalBudgetError(StableGapError, RuntimeError):
    """A requested accuracy or truncation budget cannot be met."""


class EstimationError(StableGapError, RuntimeError):
    """A statistical estimate could not be formed (no stable window, too few survivors)."""


def require_count(value, name, least=1):
    """Raise ValidationError unless value is an integer >= least: numpy's
    integers too, but not a bool, which is an Integral yet no count, nor a
    float, even one that holds a whole number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def require_alpha(alpha):
    """Raise ValidationError unless alpha, the stable exponent, lies in (0, 2]."""
    if not 0 < alpha <= 2:
        raise ValidationError("alpha must lie in (0, 2]")


def as_points(x, dim):
    """x as a float array of points of R^dim, shape (..., dim); ValidationError
    on any other last axis. A single point is as_points(np.ravel(x), dim):
    anything that reshapes to (dim,), a scalar in 1D among them."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValidationError(f"points of R^{dim} need shape (..., {dim}), got {x.shape}")
    return x

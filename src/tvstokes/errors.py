"""Exception hierarchy shared by all modules, and the one positive-number check."""

import math

import numpy as np

__all__ = [
    "TvStokesError",
    "DimensionError",
    "ParameterError",
    "VolumeFormatError",
    "DivergenceError",
]

# True and np.True_ would pass every numeric range check as 1
_BOOLS = (bool, np.bool_)


class TvStokesError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(TvStokesError, ValueError):
    """An array shape or axis length violates an operator's requirements."""


class ParameterError(TvStokesError, ValueError):
    """A solver or CLI parameter is outside its admissible range."""


class VolumeFormatError(TvStokesError, RuntimeError):
    """A raw payload or JSON header is malformed or inconsistent."""


class DivergenceError(TvStokesError, ArithmeticError):
    """Non-finite values appeared during an iterative solve."""


def _check_positive(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a positive finite number, not a bool."""
    if isinstance(value, _BOOLS) or not 0 < value < math.inf:  # NaN fails every comparison
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")

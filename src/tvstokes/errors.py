"""Exception hierarchy shared by all modules, the one number predicate and positive-number check."""

import math
from numbers import Real

__all__ = [
    "TvStokesError",
    "DimensionError",
    "ParameterError",
    "VolumeFormatError",
    "DivergenceError",
]


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


def _is_number(value, kind=Real) -> bool:
    """Whether ``value`` is a ``kind`` (``Real`` or ``Integral``) but no bool, which passes as 1."""
    return isinstance(value, kind) and not isinstance(value, bool)  # np.True_ is not Real


def _check_positive(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a positive finite number, not a bool."""
    if not (_is_number(value) and 0 < value < math.inf):  # NaN fails every comparison
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")

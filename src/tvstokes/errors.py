"""Exception hierarchy shared by all modules and the checks they share: the one number
predicate, positive-number check and shape check."""

import math
from numbers import Integral, Real

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


def _shape(dims, minimum: int, error) -> tuple:
    """``dims`` as a tuple of ints, each an integer >= ``minimum``, or raise ``error``.

    A bool is no integer here.  A positive ``minimum`` asks for a grid shape,
    which also needs an axis; a shape with ``minimum`` 0 may be empty.
    """
    try:
        shape = tuple(dims)
    except TypeError:  # not a sequence
        shape = None
    if shape is None or (minimum > 0 and not shape) or not all(
            _is_number(n, Integral) and n >= minimum for n in shape):
        need = "a nonempty sequence" if minimum > 0 else "a sequence"
        raise error(f"dims {dims!r} invalid: need {need} of integers, every one >= {minimum}")
    return tuple(int(n) for n in shape)


def _check_positive(name: str, value) -> None:
    """Raise :class:`ParameterError` unless ``value`` is a positive finite number, not a bool."""
    if not (_is_number(value) and 0 < value < math.inf):  # NaN fails every comparison
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")

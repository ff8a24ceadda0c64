"""Reproducible synthetic Gaussian noise.

The generator is pinned so that noise volumes are bit-identical across
platforms and sessions: a PCG64 stream seeded with the given integer
produces 53-bit uniform doubles, which a Box-Muller transform turns into
standard normal pairs ``r*cos(2*pi*u2)`` and ``r*sin(2*pi*u2)`` with
``r = sqrt(-2*ln(u1))``.  The cosine halves of all pairs come first, then
the sine halves, truncated to the field size.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import DimensionError, ParameterError, _is_number, _shape

__all__ = ["add_gaussian_noise", "standard_normal_field"]


def _check_seed(seed) -> None:
    """Raise unless ``seed`` is a nonnegative integer; 1.7 and ``True`` would seed as 1."""
    if not _is_number(seed, Integral) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")


def standard_normal_field(shape, seed: int) -> np.ndarray:
    """Deterministic standard normal samples of the given shape."""
    _check_seed(seed)
    shape = _shape(shape, 0, DimensionError)
    size = math.prod(shape)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]: keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    samples = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return samples[:size].reshape(shape)


def add_gaussian_noise(u: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Add zero-mean Gaussian noise of standard deviation ``sigma``.

    Identical ``(u, sigma, seed)`` triples produce bitwise identical output.
    """
    if not (_is_number(sigma) and 0 <= sigma < np.inf):
        raise ParameterError(f"sigma must be nonnegative and finite, got {sigma!r}")
    _check_seed(seed)  # checked here too: sigma == 0 never draws
    u = np.asarray(u, dtype=np.float64)
    if sigma == 0:
        return u.copy()
    return u + sigma * standard_normal_field(u.shape, seed)

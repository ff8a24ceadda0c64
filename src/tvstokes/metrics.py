"""Quality metrics for denoising runs."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError

__all__ = ["psnr", "staircase_metric"]


def psnr(reference: np.ndarray, test: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; ``inf`` for identical inputs."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise DimensionError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if not 0 < peak < math.inf:
        raise ParameterError(f"peak must be positive and finite, got {peak}")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return math.inf
    return float(10.0 * np.log10(peak * peak / mse))


def staircase_metric(u: np.ndarray) -> float:
    """Mean interior magnitude of the second-difference tuple.

    At every interior grid point the centered second differences along all
    axes form a tuple; the metric averages the Euclidean norms of those
    tuples.  It vanishes on affine ramps, ignores constant offsets, and grows
    on flat-patch artifacts, which makes it a usable smoothness proxy.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or any(n < 3 for n in u.shape):
        raise DimensionError(
            f"staircase metric needs every axis >= 3, got shape {u.shape}"
        )
    core = tuple(slice(1, -1) for _ in range(u.ndim))
    acc = np.zeros(tuple(n - 2 for n in u.shape))
    for axis in range(u.ndim):
        lo = list(core)
        lo[axis] = slice(None, -2)
        hi = list(core)
        hi[axis] = slice(2, None)
        dd = u[tuple(hi)] - 2.0 * u[core] + u[tuple(lo)]
        acc += dd * dd
    return float(np.mean(np.sqrt(acc)))

"""Quality metrics for denoising runs."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, _check_positive

__all__ = ["psnr", "staircase_metric"]


def psnr(reference: np.ndarray, test: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; ``inf`` for identical inputs only.

    ``10*log10(peak*peak/mse)``, or ``20*log10(peak) - 10*log10(mse)`` where
    the ratio leaves the float range, so distinct inputs score finite.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise DimensionError(f"shape mismatch: {reference.shape} vs {test.shape}")
    _check_positive("peak", peak)
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return math.inf
    peak = float(peak)
    ratio = peak * peak / mse  # Python floats: an overflow is inf, an underflow 0, no warning
    if 0.0 < ratio < math.inf:
        return float(10.0 * np.log10(ratio))
    return 20.0 * math.log10(peak) - 10.0 * math.log10(mse)


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
    shape = tuple(n - 2 for n in u.shape)
    acc, dd = np.zeros(shape), np.empty(shape)
    for axis in range(u.ndim):
        lo = list(core)
        lo[axis] = slice(None, -2)
        hi = list(core)
        hi[axis] = slice(2, None)
        # u[hi] - 2.0*u[core] + u[lo], rounded as written, in the one scratch grid
        np.multiply(u[core], 2.0, out=dd)
        np.subtract(u[tuple(hi)], dd, out=dd)
        dd += u[tuple(lo)]
        acc += np.multiply(dd, dd, out=dd)
    return float(np.mean(np.sqrt(acc, out=acc)))

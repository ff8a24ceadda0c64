"""Peak numpy allocation of each solver, as a multiple of the input bytes."""

import tracemalloc

import numpy as np
import pytest

from tvstokes import (
    ReconstructionConfig,
    RofConfig,
    SmoothingConfig,
    add_gaussian_noise,
    grad,
    reconstruct,
    rof_denoise,
    run_denoise,
    save_volume,
    smooth_gradient_field,
)

NOISY = add_gaussian_noise(np.random.default_rng(0).random((32, 32, 32)), 0.1, seed=1)


@pytest.mark.parametrize("solve, bound", [
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 46.5),
    (lambda u: reconstruct(u, grad(u), ReconstructionConfig(lam=0.1, max_iters=2)), 19.5),
    (lambda u: rof_denoise(u, RofConfig(lam=0.1, max_iters=2)), 15.5),
    # tighter: the dual loop works in place and the diagnostics channel by channel
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 36.0),
    (lambda u: rof_denoise(u, RofConfig(lam=0.1, max_iters=2)), 13.5),
    # the smoothing loop holds two packed 6-channel duals and one potential-sized data grid
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 23.5),
    # the diagnostics read the packed dual; the loop's norm grids are slab-sized
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 19.5),
], ids=["smoothing", "reconstruction", "rof", "smoothing-in-place", "rof-in-place",
        "smoothing-packed", "smoothing-packed-tail"])
def test_solver_peak_memory_per_input_byte(solve, bound):
    solve(NOISY)  # warm up so one-time allocations are not counted
    tracemalloc.start()
    try:
        solve(NOISY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / NOISY.nbytes <= bound


def test_smoothing_peak_memory_per_input_byte_at_64():
    """Step 1 at 64^3, where the Poisson solve multiplies by dense DCT matrices.

    The plan's one 64x64 matrix is 1/64 of a grid here (19.00x with the
    scipy.fft solve, 19.02x with the matrix); at 64^2 the matrix is a whole
    grid, and the 2-d peak rises by about 1x (13.2x to 14.2x).
    """
    noisy = add_gaussian_noise(np.random.default_rng(0).random((64, 64, 64)), 0.1, seed=1)
    cfg = SmoothingConfig(lam=0.1, max_iters=2)
    smooth_gradient_field(noisy, cfg)  # warm up
    tracemalloc.start()
    try:
        smooth_gradient_field(noisy, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / noisy.nbytes <= 19.5


def test_run_denoise_peak_memory_per_input_byte(tmp_path):
    """The whole two-step run; step 2 runs after the step-1 dual is dropped."""
    path = tmp_path / "noisy.raw"
    save_volume(NOISY, path)
    run_denoise("tvstokes", path, max_iters=2)  # warm up
    tracemalloc.start()
    try:
        run_denoise("tvstokes", path, max_iters=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / NOISY.nbytes <= 24.5

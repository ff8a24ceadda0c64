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


def noisy_cube(n):
    return add_gaussian_noise(np.random.default_rng(0).random((n, n, n)), 0.1, seed=1)


NOISY = noisy_cube(32)


def peak_x_input(run, data):
    """Peak traced bytes of one call of ``run`` over ``data.nbytes``.

    A first, untraced call warms up, so one-time allocations are not counted.
    """
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / data.nbytes
    finally:
        tracemalloc.stop()


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
    assert peak_x_input(lambda: solve(NOISY), NOISY) <= bound


def test_smoothing_peak_memory_per_input_byte_at_64():
    """Step 1 at 64^3, where the Poisson solve multiplies by dense DCT matrices.

    The plan's one 64x64 matrix is 1/64 of a grid here (19.00x with the
    scipy.fft solve, 19.02x with the matrix); at 64^2 the matrix is a whole
    grid, and the 2-d peak rises by about 1x (13.2x to 14.2x).
    """
    noisy = noisy_cube(64)
    cfg = SmoothingConfig(lam=0.1, max_iters=2)
    assert peak_x_input(lambda: smooth_gradient_field(noisy, cfg), noisy) <= 19.5


def test_smoothing_peak_memory_near_the_dual_floor_at_64():
    """Step 1 alone: its objective runs beside the packed dual in two work
    grids, and the full tensor is unpacked in the packed dual's own buffer."""
    noisy = noisy_cube(64)
    cfg = SmoothingConfig(lam=0.1, max_iters=2)
    assert peak_x_input(lambda: smooth_gradient_field(noisy, cfg), noisy) <= 16.0


@pytest.mark.parametrize("solve, bound", [
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 13.5),
    (lambda u: reconstruct(u, grad(u), ReconstructionConfig(lam=0.1, max_iters=2)), 12.0),
], ids=["smoothing", "reconstruction"])
def test_solver_peak_memory_at_one_dual_at_64(solve, bound):
    """One dual per solve: the loop writes each slab's step straight back into the
    dual, and the diagnostics and objectives work one slab or one channel at a time."""
    noisy = noisy_cube(64)
    assert peak_x_input(lambda: solve(noisy), noisy) <= bound


def test_run_denoise_peak_memory_per_input_byte(tmp_path):
    """The whole two-step run; step 2 runs after the step-1 dual is dropped."""
    path = tmp_path / "noisy.raw"
    save_volume(NOISY, path)
    assert peak_x_input(lambda: run_denoise("tvstokes", path, max_iters=2), NOISY) <= 24.5


@pytest.mark.parametrize("n, model, bound", [
    (64, "tvstokes", 17.0),
    # 32^3 cannot reach 16x: dual._SLAB = 1 << 15 is exactly 32^3 entries, so one
    # slab spans the grid and its residual scratch is dual-sized (1/8 dual at 64^3)
    (32, "tvstokes", 18.5),
    (32, "rof", 12.5),
    # one dual per solve: the peak is the unpacked (3, 3) result, g and the input
    (64, "tvstokes", 14.0),
], ids=["tvstokes-64", "tvstokes-32", "rof-32", "tvstokes-64-one-dual"])
def test_run_denoise_peak_memory_near_the_dual_floor(tmp_path, n, model, bound):
    """A whole run at one dual plus a few grids: the loop writes each slab's
    step back into the dual, step 1 unpacks its full tensor in place, the
    objectives work one channel at a time and ROF holds no zero shift."""
    noisy = noisy_cube(n)
    path = tmp_path / "noisy.raw"
    save_volume(noisy, path)
    assert peak_x_input(lambda: run_denoise(model, path, max_iters=2), noisy) <= bound

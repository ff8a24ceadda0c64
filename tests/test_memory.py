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
from tvstokes import dual, fields


def noisy_volume(shape):
    return add_gaussian_noise(np.random.default_rng(0).random(shape), 0.1, seed=1)


def noisy_cube(n):
    return noisy_volume((n, n, n))


NOISY = noisy_cube(32)


def peak_x_input(run, data):
    """Peak traced bytes of one call of ``run`` over ``data.nbytes``, the larger of the
    peaks on one and on two threads (a grid of four slabs or more splits its update).

    A first, untraced call warms up, so one-time allocations are not counted.
    """
    peaks = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual, "_workers", lambda: workers)
            run()
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] / data.nbytes)
            finally:
                tracemalloc.stop()
    return max(peaks)


@pytest.mark.parametrize("solve, bound", [
    # the KKT value and the recovery read one potential of the final dual
    (lambda u: reconstruct(u, grad(u), ReconstructionConfig(lam=0.1, max_iters=2)), 11.0),
    # the dual loop works in place, its potential keeps no u0/lam grid, and the
    # recovery and the objective work in slab-sized scratch
    (lambda u: rof_denoise(u, RofConfig(lam=0.1, max_iters=2)), 7.0),
    # the diagnostics read the packed dual; the loop's norm grids are slab-sized
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 14.0),
], ids=["reconstruction", "rof-in-place", "smoothing-packed-tail"])
def test_solver_peak_memory_per_input_byte(solve, bound):
    assert peak_x_input(lambda: solve(NOISY), NOISY) <= bound


@pytest.mark.parametrize("solve, bound", [
    # a split step-1 group's kernel work grid shares its residual and norm scratch
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 10.15),
    (lambda u: reconstruct(u, grad(u), ReconstructionConfig(lam=0.1, max_iters=2)), 9.4),
], ids=["smoothing", "reconstruction"])
def test_solver_peak_memory_at_one_dual_at_64(solve, bound):
    """One dual per solve: the loop writes each slab's step straight back into the
    dual, the transposed operators work in slab-sized scratch, and the diagnostics
    work one slab or one channel at a time, the objectives one slab at a time.

    Step 1's Poisson solve multiplies by dense DCT matrices here; the plan's one
    64x64 matrix is 1/64 of a grid (a whole grid at 64^2)."""
    noisy = noisy_cube(64)
    assert peak_x_input(lambda: solve(noisy), noisy) <= bound


@pytest.mark.parametrize("solve, bound", [
    (lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=2)), 12.5),
    (lambda u: reconstruct(u, grad(u), ReconstructionConfig(lam=0.1, max_iters=2)), 10.5),
    (lambda u: rof_denoise(u, RofConfig(lam=0.1, max_iters=2)), 7.5),
], ids=["smoothing", "reconstruction", "rof"])
def test_solver_peak_memory_on_a_64x64_frame(solve, bound):
    """The benchmark's frame size, where one slab spans the grid: the clip divides
    channel by channel, so numpy allocates no iterator buffer of two frame grids,
    and the vector potential divides ``u0`` by ``lam`` into slab-sized scratch."""
    frame = noisy_volume((64, 64))
    assert peak_x_input(lambda: solve(frame), frame) <= bound


@pytest.mark.parametrize("shape, model, volume, bound", [
    # 32^3 is two slabs of fields._SLAB = 1 << 14 entries, so a slab's residual scratch
    # is half a dual (1/16 at 64^3), and its update never splits; the second slab's
    # Hessian takes its work grid in the first slab's norm grids
    ((32, 32, 32), "tvstokes", {}, 14.5),
    ((32, 32, 32), "rof", {}, 8.0),
    # one dual per solve: the peak is the packed dual, g and the input, and the split
    # step-1 update's scratch, which holds no kernel work grid of its own
    ((64, 64, 64), "tvstokes", {}, 11.15),
    # an f32 volume with a value range is widened and then normalized in place
    ((16, 32, 32), "rof", {"dtype": "f32", "value_range": (-1.0, 2.0)}, 10.5),
    # a video-shaped block of 1-row slabs: the run's tail, which frees the final
    # dual and rescales and scores the output in place, stays below the ROF loop,
    # and the solve's recovery and objective below its final KKT value
    ((16, 160, 160), "rof", {"dtype": "f32", "value_range": (0.0, 1.0)}, 5.5),
    # sixteen slabs: ROF peaks at its final KKT value, the input, the final dual
    # and the final potential, plus slabs
    ((64, 64, 64), "rof", {}, 5.6),
], ids=["tvstokes-32", "rof-32", "tvstokes-64-one-dual", "rof-f32-value-range",
        "rof-video-tail", "rof-64-kkt-floor"])
def test_run_denoise_peak_memory_near_the_dual_floor(tmp_path, shape, model, volume, bound):
    """A whole run at one dual plus a few grids: the loop writes each slab's
    step back into the dual, step 1 keeps its dual packed, the transposed
    operators, the recovery and the objectives work in slab-sized scratch and
    ROF holds no zero shift.  Six steps, four of them lazy, so a
    grid that splits steps chunks of its slabs in place too."""
    noisy = noisy_volume(shape)
    path = tmp_path / "noisy.raw"
    save_volume(noisy, path, **volume)
    assert peak_x_input(lambda: run_denoise(model, path, max_iters=6, tol=0.0), noisy) <= bound


def test_the_objective_holds_two_slabs_and_its_row_sums():
    """One objective call on a 64^3 three-channel field with a shift allocates its two
    slab-sized grids and one vector of row sums per term (TV, three fits, the shift),
    and no whole grid."""
    dims = (64, 64, 64)
    rng = np.random.default_rng(2)
    x, x0, m = rng.random((3,) + dims), rng.random((3,) + dims), rng.random(dims)

    def run():
        return dual._objective(x, lambda k, span, out: x0[k, slice(*span)], 0.2, m)

    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * fields._SLAB * 8 + 5 * dims[0] * 8 + (16 << 10)

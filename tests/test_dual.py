"""Shared dual-projection core: config validation, the in-place loop, diagnostics."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tvstokes import (
    DimensionError,
    DivergenceError,
    ParameterError,
    ReconstructionConfig,
    RofConfig,
    SmoothingConfig,
    add_gaussian_noise,
    adjoint_grad,
    adjoint_grad_tensor,
    grad,
    grad_vec,
    matching_kkt_residual,
    matching_objective,
    psnr,
    reconstruct,
    rof_denoise,
    smooth_gradient_field,
    smoothing_kkt_residual,
    smoothing_objective,
)
from tvstokes import PoissonPlan, dual, fields, matching_field, reconstruction, smoothing
from tvstokes.dual import iterate, kkt_residual, stationarity_residual
from tvstokes.reconstruction import dual_step as reconstruction_step
from tvstokes.smoothing import dual_step as smoothing_step

from oracles import (
    feasible_tensor, feasible_vector, rand_scalar, rand_tensor, rand_vector, reference_iterate,
    symmetric_packing,
)

U = np.zeros((4, 4))
SOLVERS = {
    "smoothing": (SmoothingConfig, lambda cfg: smooth_gradient_field(U, cfg)),
    "reconstruction": (ReconstructionConfig, lambda cfg: reconstruct(U, np.zeros((2, 4, 4)), cfg)),
    "rof": (RofConfig, lambda cfg: rof_denoise(U, cfg)),
}
BAD = {
    "lam=0": {"lam": 0.0},
    "lam<0": {"lam": -1.0},
    "max_iters=0": {"max_iters": 0},
    "tol<0": {"tol": -1e-3},
    "tau=0": {"tau": 0.0},
    "tau<0": {"tau": -0.1},
    "lam=nan": {"lam": float("nan")},
    "lam=inf": {"lam": float("inf")},
    "tau=nan": {"tau": float("nan")},
    "tau=inf": {"tau": float("inf")},
    "tol=nan": {"tol": float("nan")},
    "max_iters=2.5": {"max_iters": 2.5},
    "max_iters=True": {"max_iters": True},
    "lam=True": {"lam": True},
    "tau=True": {"tau": True},
    "tol=True": {"tol": True},
    "lam=np.True_": {"lam": np.True_},
    "tau=np.True_": {"tau": np.True_},  # a step of 1.0 at d = 2, four times the bound
    "tol=np.True_": {"tol": np.True_},
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("bad", BAD)
def test_solver_rejects_out_of_range_config(solver, bad):
    config_cls, solve = SOLVERS[solver]
    with pytest.raises(ParameterError):
        solve(config_cls(**BAD[bad]))


@pytest.mark.parametrize("config_cls", [SmoothingConfig, ReconstructionConfig, RofConfig],
                         ids=["smoothing", "reconstruction", "rof"])
@pytest.mark.parametrize("bad", BAD)
def test_a_config_checks_itself_when_built(config_cls, bad):
    """A bad value raises where the config is built, so it never reaches a solver."""
    with pytest.raises(ParameterError):
        config_cls(**BAD[bad])


BAD_FIELDS = {**BAD, **{f"eps={v!r}": {"eps": v} for v in (
    0.0, -1e-8, float("nan"), float("inf"), True, np.True_, "1", None)}}


@pytest.mark.parametrize("bad", BAD_FIELDS)
def test_replacing_a_field_with_a_bad_value_raises(bad):
    with pytest.raises(ParameterError):
        dataclasses.replace(ReconstructionConfig(), **BAD_FIELDS[bad])


# every real-number parameter's check; tau=None is the automatic step, so tau has no None case
NOT_A_NUMBER = {
    "lam": lambda v: RofConfig(lam=v),
    "tau": lambda v: RofConfig(tau=v),
    "tol": lambda v: RofConfig(tol=v),
    "eps": lambda v: ReconstructionConfig(eps=v),
    "peak": lambda v: psnr(U, U + 0.5, v),
    "sigma": lambda v: add_gaussian_noise(U, v, 0),
}


@pytest.mark.parametrize("param, value", [
    pytest.param(param, value, id=f"{param}={value!r}")
    for param in NOT_A_NUMBER for value in ("1", None) if (param, value) != ("tau", None)
])
def test_a_parameter_that_is_not_a_number_raises_parameter_error(param, value):
    """A string or ``None`` is rejected as a :class:`ParameterError`, not a bare ``TypeError``."""
    with pytest.raises(ParameterError, match=param):
        NOT_A_NUMBER[param](value)


@pytest.mark.parametrize("solver", SOLVERS)
def test_solver_accepts_default_config(solver):
    config_cls, solve = SOLVERS[solver]
    assert solve(config_cls()).iters == 1


# ------------------------------------------------------------ the in-place loop

GRIDS = [(9,), (6, 5), (5, 4, 3), (3, 3, 2, 3), (70, 33, 16)]  # the last: slabs of 31, 31 and 8 rows


def _stacked(p, channel_ndim):
    """``p`` with its ``channel_ndim`` channel axes stacked along axis 0, as ``iterate``
    stores it."""
    return p.reshape((-1,) + p.shape[channel_ndim:])


def _rows_of(full):
    """A kernel for ``kkt_residual``: rows ``[a, b)`` of the first grid axis of ``full(y)``,
    whose channels are stacked along axis 0, returned fresh."""
    return lambda y, out, rows: full(y)[:, slice(*rows)].copy()


ORDERS = {1: grad, 2: fields.hessian}  # the kernels by their order of derivative


def _residual(dims, kernel=grad):
    """``(residual, potential)`` of ``A(p) = K(K^* p - f)``, ``K`` the ``kernel``, ``grad`` or
    ``fields.hessian``, on a dual that stacks ``K``'s channels, each counted once in the norm:
    ``residual`` takes that dual, and ``iterate`` runs ``kernel`` on ``potential``."""
    f = 3.0 * np.random.default_rng(len(dims)).standard_normal(dims)
    adjoint = adjoint_grad if kernel is grad else fields.adjoint_hessian

    def potential(p):
        return adjoint(p) - f

    return lambda p: kernel(potential(p)), potential


def _start(dims, channel_ndim):
    return (feasible_vector if channel_ndim == 1 else feasible_tensor)(dims, 7, scale=0.9)


def _stack_start(dims, kernel):
    """A feasible dual of ``kernel``'s channels: a vector field for ``grad``; for the Hessian,
    the packed channels of a feasible tensor field, whose norms bound theirs."""
    if kernel is grad:
        return _start(dims, 1)
    rows, cols, _ = symmetric_packing(len(dims))
    return _start(dims, 2)[rows, cols]


def _assert_same_run(got, want):
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_iterate_matches_reference_loop_bitwise(dims, order):
    """``grad``'s vector dual, or the Hessian's channels as a plain stack (``order`` 2)."""
    kernel = ORDERS[order]
    (residual, potential), p0 = _residual(dims, kernel), _stack_start(dims, kernel)
    tau = 1.0 / (2 * len(dims))
    want = reference_iterate(residual, p0, 1, tau, 12, 0.0)
    _assert_same_run(iterate(potential, kernel, p0, tau, 12, 0.0), want)
    # a tol reached after a few steps stops both loops early, at the same step
    tol = reference_iterate(residual, p0, 1, tau, 5, 0.0)[2]
    want = reference_iterate(residual, p0, 1, tau, 40, tol)
    assert want[1] < 40
    _assert_same_run(iterate(potential, kernel, p0, tau, 40, tol), want)


def test_iterate_raises_on_a_nan_in_a_later_slab():
    """A NaN in the last row of ``y`` makes the residual NaN in the last slab alone."""
    dims = (70, 33, 16)
    assert fields._SLAB < 33 * 16 * 70
    potential = _spoiled_row(lambda p: np.zeros(dims), dims[0] - 1, 1, np.nan)
    with pytest.raises(DivergenceError):
        iterate(potential, grad, np.zeros((3,) + dims), 0.1, 5, 0.0)


@pytest.mark.parametrize("kernel", [grad_vec, lambda y, out, rows: grad(y, out, rows)],
                         ids=["grad_vec", "a-wrapper-of-grad"])
def test_iterate_refuses_a_kernel_without_a_step_table_before_the_potential(kernel):
    """``iterate`` runs ``fields.grad`` and ``fields.hessian`` from their step tables, so it
    and :func:`dual.solve` refuse any other kernel before the first potential, a wrapper of
    ``grad`` too."""
    dims, calls = (6, 5), []

    def potential(p):
        calls.append(1)
        return adjoint_grad(p)

    with pytest.raises(ParameterError, match="fields.grad or fields.hessian"):
        iterate(potential, kernel, np.zeros((2,) + dims), 0.25, 3, 0.0)
    with pytest.raises(ParameterError, match="fields.grad or fields.hessian"):
        dual.solve(potential, kernel, (2,) + dims, dual.DualConfig(max_iters=3))
    assert calls == []


def test_iterate_runs_the_kernel_that_a_functools_wrapper_wraps():
    """A profiler's wrapper of ``grad``, made by ``functools.wraps``, stands for ``grad``: the
    update runs ``grad``'s table, and the wrapper is not called."""
    (_, potential), p0 = _residual((6, 5)), _start((6, 5), 1)
    calls = []

    @functools.wraps(grad)
    def traced(*args, **kwargs):
        calls.append(1)
        return grad(*args, **kwargs)

    _assert_same_run(iterate(potential, traced, p0, 0.25, 5, 0.0),
                     iterate(potential, grad, p0, 0.25, 5, 0.0))
    assert calls == []


@pytest.mark.parametrize("max_iters", [1, 2])
@pytest.mark.parametrize("order", ORDERS)
def test_iterate_leaves_its_start_unmodified(order, max_iters):
    dims, kernel = (5, 4), ORDERS[order]
    (_, potential), p0 = _residual(dims, kernel), _stack_start(dims, kernel)
    before = p0.copy()
    p = iterate(potential, kernel, p0, 0.25, max_iters, 0.0)[0]
    assert not np.shares_memory(p, p0)
    assert p0.tobytes() == before.tobytes()


@pytest.mark.parametrize("dims, kernel, stored, channels", [
    ((70, 33, 16), grad, 3, None),
    ((70, 33, 16), fields.hessian, 6, fields._layout(3)[1]),
    ((64, 64), grad, 2, None),
    ((64, 64), fields.hessian, 3, fields._layout(2)[1]),
    ((64, 64, 64), None, 3, None),
], ids=["slabs-vector", "slabs-packed", "frame-vector", "frame-packed", "chunks-row-potential"])
def test_iterate_holds_one_dual_and_slab_sized_scratch(dims, kernel, stored, channels,
                                                        monkeypatch):
    """No second dual: the step is written back slab by slab from slab-sized scratch.

    One slab spans a 64x64 frame, so its residual is dual-sized there; the clip
    divides channel by channel, as a norm grid broadcast over the channels makes
    numpy allocate an iterator buffer of two frame grids.  On several slabs the
    Hessian's work grid, a slab and a row, goes where the norm grids go, once
    they exist: only the first slab's call allocates one, before them.  The
    vector model's row potential (``kernel`` ``None``, on one thread) holds no
    whole-grid ``y`` in the loop: a chunk's window of it, a quarter of the grid
    here, with a residual scratch that serves as the row function's, and the
    row where a lazy step's run starts, with its scratch row."""
    monkeypatch.setattr(dual, "_workers", lambda: 1)
    peak, grid, slab = _loop_peak(dims, kernel, stored, channels)
    window, row = (_window(dims, grid, slab) if kernel is None else 0), grid // dims[0]
    assert window < grid // 2
    edge = 2 * row if kernel is None else 0
    # the slab's residual and the two norm grids; 16 KiB for Python objects
    assert peak <= (stored * grid + max(stored * slab, window) + 2 * slab + window + edge
                    + (1 << 14))


def _window(dims, grid, slab):
    """The bytes of a row potential's window of ``y``: a chunk of whole slabs of about
    ``dual._CHUNK`` entries, or one slab, and a halo row."""
    return min(max(1, dual._CHUNK * 8 // slab) * slab + grid // dims[0], grid)


def _loop_peak(dims, kernel, stored, channels):
    """``(peak, grid, slab)``: the traced peak of four steps from a zero dual (lazy and exact)
    with a held potential, and the bytes of one grid and of one slab of it.  Without a
    ``kernel``, the potential is the vector model's row potential on held data and the
    kernel ``grad``."""
    y = rand_scalar(dims, 9)
    potential = reconstruction._bind(y, rand_scalar(dims, 10), 0.3) if kernel is None else (
        lambda p: y)
    kernel = kernel or grad
    p0 = np.broadcast_to(0.0, (stored,) + dims)  # iterate's own copy is the one dual
    tau = 1.0 / (2 * len(dims))
    iterate(potential, kernel, p0, tau, 4, 0.0, channels)  # warm-up: one-time allocations
    tracemalloc.start()
    try:
        iterate(potential, kernel, p0, tau, 4, 0.0, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, y.nbytes, fields._spans(dims)[0][1] * y.nbytes // dims[0]


@pytest.mark.parametrize("dims, kernel, stored, channels", [
    ((16, 160, 160), grad, 3, None),
    ((24, 48, 48), fields.hessian, 6, fields._layout(3)[1]),
    ((16, 160, 160), None, 3, None),
], ids=["video-vector", "slabs-packed", "video-row-potential"])
def test_two_groups_hold_a_slab_sized_scratch_each(dims, kernel, stored, channels, monkeypatch):
    """Split over two threads, each group has its own residual and norm grids, and the
    Hessian kernel its own work grid of a slab and a halo row: the bytes of one scratch
    of slabs twice the size.  A row potential's groups each hold a window of a chunk of
    two 1-row slabs and a halo row, and a residual scratch that serves as the row
    function's, and the step the two rows where their runs start, each with a scratch
    row, in place of a whole-grid ``y``."""
    submitted = _splits(monkeypatch)
    peak, grid, slab = _loop_peak(dims, kernel, stored, channels)
    assert submitted
    row = grid // dims[0]
    if kernel is None:
        window = _window(dims, grid, slab)
        group = max(stored * slab, window) + 2 * slab + window
        assert peak <= stored * grid + 2 * group + 4 * row + (1 << 14)
    else:
        work = slab + row if kernel is fields.hessian else 0
        assert peak <= stored * grid + 2 * ((stored + 2) * slab + work) + (1 << 14)


def test_a_split_packed_group_holds_no_work_grid_of_the_kernels_own(monkeypatch):
    """Twenty 1-row slabs of packed step 1 on two threads, exact and lazy steps: each group
    holds one allocation, a slab's residual and norm grids, which the kernel's first
    difference shares on the slab step and which holds a chunk's work and block grids in
    place; a ``hessian`` call's own work grid of a slab and a row is never beside it."""
    dims, stored = (20, 100, 100), 6
    submitted = _splits(monkeypatch)
    chunks = _in_place(monkeypatch)
    peak, grid, slab = _loop_peak(dims, fields.hessian, stored, fields._layout(3)[1])
    assert submitted and chunks
    row = grid // dims[0]
    assert peak <= stored * grid + 2 * ((stored + 2) * slab + row) + (1 << 14)


@pytest.mark.parametrize("kernel, stored, channels", [
    (grad, 3, None),
    (fields.hessian, 6, fields._layout(3)[1]),
], ids=["vector", "packed"])
def test_no_loop_scratch_is_alive_while_the_potential_runs(kernel, stored, channels):
    """The slab's residual and the norm grids live for one step, after its potential."""
    dims = (70, 33, 16)
    assert fields._SLAB < math.prod(dims)  # several slabs
    y = rand_scalar(dims, 9)
    p0 = np.broadcast_to(0.0, (stored,) + dims)  # iterate's own copy is the one dual
    readings = []

    def potential(p):
        readings.append(tracemalloc.get_traced_memory()[0])
        return y

    iterate(potential, kernel, p0, 1.0 / 6, 4, 0.0, channels)  # warm-up
    readings.clear()
    tracemalloc.start()
    try:
        iterate(potential, kernel, p0, 1.0 / 6, 4, 0.0, channels)
    finally:
        tracemalloc.stop()
    assert len(readings) == 4
    assert max(readings) <= stored * y.nbytes + (1 << 14)  # 16 KiB for Python objects


U5 = rand_scalar((5, 6), 3)
CALLS = {
    "smoothing.dual_step": (
        lambda p, g0: smoothing_step(p, g0, SmoothingConfig(lam=0.3)),
        lambda: (feasible_tensor((5, 6), 4), grad(U5))),
    "reconstruction.dual_step": (
        lambda p, u0, m: reconstruction_step(p, u0, m, ReconstructionConfig(lam=0.3)),
        lambda: (feasible_vector((5, 6), 5), U5.copy(), rand_scalar((5, 6), 6))),
    "smooth_gradient_field": (
        lambda u: smooth_gradient_field(u, SmoothingConfig(lam=0.3, max_iters=3)),
        lambda: (U5.copy(),)),
    "reconstruct": (
        lambda u, g: reconstruct(u, g, ReconstructionConfig(lam=0.3, max_iters=3)),
        lambda: (U5.copy(), grad(rand_scalar((5, 6), 7)))),
    "rof_denoise": (
        lambda u: rof_denoise(u, RofConfig(lam=0.3, max_iters=3)),
        lambda: (U5.copy(),)),
}


@pytest.mark.parametrize("call", CALLS)
def test_solvers_leave_their_inputs_unmodified(call):
    fn, make = CALLS[call]
    args = make()
    before = [a.copy() for a in args]
    fn(*args)
    for a, b in zip(args, before):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("channel", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("holder", ["w", "p"])
@pytest.mark.parametrize("channel_ndim", [1, 2])
def test_stationarity_residual_propagates_nan(channel_ndim, holder, channel):
    dims = (4, 5)
    w = 0.1 * (rand_vector(dims, 8) if channel_ndim == 1 else rand_tensor(dims, 8))
    p = _start(dims, channel_ndim)
    arrays = {"w": _stacked(w, channel_ndim), "p": _stacked(p, channel_ndim)}
    arrays[holder][channel][1, 2] = np.nan
    assert math.isnan(stationarity_residual(arrays["w"], arrays["p"]))


@pytest.mark.parametrize("value", [5.0, np.nan], ids=["largest", "nan"])
def test_kkt_residual_reads_every_slab(value):
    dims = (70, 33, 16)  # slabs of 31, 31 and 8 rows
    w = 0.1 * rand_vector(dims, 10)
    w[0, -1, -1, -1] = value  # in the last slab
    p = _start(dims, 1)
    got, want = kkt_residual(_rows_of(lambda y: y), w, p), stationarity_residual(w, p)
    if math.isnan(value):
        assert math.isnan(got) and math.isnan(want)
    else:
        assert got == want


G0 = grad(U5)
LAM_CALLS = {
    "smoothing_objective": lambda lam: smoothing_objective(G0, G0, lam),
    "smoothing_kkt_residual": lambda lam: smoothing_kkt_residual(np.zeros((2, 2, 5, 6)), G0, lam),
    "matching_objective": lambda lam: matching_objective(U5, U5, G0, lam, 1e-8),
    "matching_kkt_residual": lambda lam: matching_kkt_residual(
        np.zeros((2, 5, 6)), np.ones((5, 6)), np.zeros((5, 6)), lam),
}


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf"), True,
                                 pytest.param(np.True_, id="np.True_")], ids=str)
@pytest.mark.parametrize("call", LAM_CALLS)
def test_diagnostics_reject_non_finite_lam(call, lam):
    with pytest.raises(ParameterError):
        LAM_CALLS[call](lam)


SHAPE_CALLS = {
    "smoothing_objective": lambda: smoothing_objective(G0, G0[:, :1, :], 0.1),
    "smoothing_kkt_residual[data]": lambda: smoothing_kkt_residual(
        np.zeros((2, 2, 5, 6)), G0[:, :1, :], 0.1),
    "smoothing_kkt_residual[vector dual]": lambda: smoothing_kkt_residual(
        np.zeros((2, 5, 6)), G0, 0.1),
    "matching_objective": lambda: matching_objective(U5, U5, G0[:1], 0.1, 1e-8),
    "matching_kkt_residual": lambda: matching_kkt_residual(
        np.zeros((2, 5, 6)), U5, np.zeros((1, 6)), 0.1),
}


@pytest.mark.parametrize("call", SHAPE_CALLS)
def test_diagnostics_reject_mis_shaped_fields(call):
    with pytest.raises(DimensionError):
        SHAPE_CALLS[call]()


@pytest.mark.parametrize("call", ["smoothing.dual_step", "reconstruction.dual_step"])
def test_dual_step_rejects_nan_dual(call):
    fn, make = CALLS[call]
    p, *data = make()
    p.reshape(-1)[17] = np.nan
    with pytest.raises(ParameterError):
        fn(p, *data)


# ------------------------------------------------- a packed symmetric dual

def _packed_case(dims):
    """``(potential, forward, p0, rows, cols, index)``: a symmetric tensor dual ``p0``, full, with
    its potential and the full residual's kernel, ``fields.hessian``'s channels unpacked,
    bitwise symmetric, as the packed layout needs; ``potential(q[index])`` is the packed dual's
    potential, whose kernel is ``fields.hessian``."""
    rows, cols, index = symmetric_packing(len(dims))
    f = 3.0 * np.random.default_rng(len(dims)).standard_normal(dims)

    def potential(p):  # of the full tensor dual
        return adjoint_grad(adjoint_grad_tensor(p)) - f

    t = _start(dims, 2)
    return (potential, lambda y: fields.hessian(y)[index], 0.5 * (t + t.swapaxes(0, 1)), rows,
            cols, index)


@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_packed_iterate_matches_full_tensor_loop_bitwise(dims):
    """Off-diagonal channels listed twice, in C order, give the full tensor's norms exactly."""
    potential, forward, p0, rows, cols, index = _packed_case(dims)
    residual, packed, channels = (lambda p: forward(potential(p)), lambda q: potential(q[index]),
                                  index.ravel().tolist())
    tau = 1.0 / (2 * len(dims))
    want = reference_iterate(residual, p0, 2, tau, 12, 0.0)
    got = iterate(packed, fields.hessian, p0[rows, cols], tau, 12, 0.0, channels)
    _assert_same_run((got[0][index],) + got[1:], want)
    tol = reference_iterate(residual, p0, 2, tau, 5, 0.0)[2]
    stopped = reference_iterate(residual, p0, 2, tau, 40, tol)
    assert stopped[1] < 40
    got = iterate(packed, fields.hessian, p0[rows, cols], tau, 40, tol, channels)
    _assert_same_run((got[0][index],) + got[1:], stopped)
    w, q = residual(want[0]), want[0][rows, cols]
    full_kkt = stationarity_residual(_stacked(w, 2), _stacked(want[0], 2))
    # a dual stored packed like w: duplicated entries give identical terms
    assert full_kkt == stationarity_residual(w[rows, cols], q, channels)
    # and slab by slab, through the kernel
    assert full_kkt == kkt_residual(fields.hessian, packed(q), q, channels)


# ------------------------------------------- the increment, computed only when it decides

def _dual_case(kind, dims):
    """``(reference, stored, unpack)``: the reference loop's potential, the kernel of its
    residual, its start and channel axes; ``iterate``'s potential, kernel, start and channel
    list; and the map back.  ``vector`` is ``grad``'s dual; ``tensor`` the Hessian's channels
    as a plain stack, each counted once; ``packed`` the symmetric tensor dual that they pack,
    the off-diagonal channels counted twice."""
    if kind == "packed":
        potential, forward, p0, rows, cols, index = _packed_case(dims)
        stored = (lambda q: potential(q[index]), fields.hessian, p0[rows, cols],
                  index.ravel().tolist())
        return (potential, forward, p0, 2), stored, lambda p: p[index]
    kernel = grad if kind == "vector" else fields.hessian
    (_, potential), p0 = _residual(dims, kernel), _stack_start(dims, kernel)
    return (potential, kernel, p0, 1), (potential, kernel, p0, None), lambda p: p


def _run_both(kind, dims, max_iters, tol, spoil=lambda potential: potential):
    """``iterate`` and then the reference loop, each on its potential as ``spoil`` wraps it."""
    (potential, forward, p0, channel_ndim), (stored, kernel, start, channels), unpack = (
        _dual_case(kind, dims))
    tau = 1.0 / (2 * len(dims))
    got = iterate(spoil(stored), kernel, start, tau, max_iters, tol, channels)
    full = spoil(potential)
    want = reference_iterate(lambda p: forward(full(p)), p0, channel_ndim, tau, max_iters, tol)
    return (unpack(got[0]),) + got[1:], want


KINDS = ["vector", "tensor", "packed"]
STOP_GRIDS = [(70, 33, 16), (6, 5)]  # three slabs, one slab


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims", STOP_GRIDS, ids=str)
def test_iterate_stops_at_the_reference_step_for_every_tol(kind, dims):
    """A ``tol`` equal to the increment of step k, for k in 1..12, stops both loops alike."""
    _stops_at_the_reference_step(kind, dims)


@pytest.mark.parametrize("kind", KINDS)
def test_a_split_update_stops_at_the_reference_step_for_every_tol(kind, monkeypatch):
    """Five slabs: a lazy step runs the witness's slab, then a group of two on this thread
    and one on the worker, which writes nothing before the witness's verdict, so a step
    the witness leaves exact gets the increment of every slab."""
    submitted = _splits(monkeypatch)
    _stops_at_the_reference_step(kind, (20, 64, 64))
    assert submitted


def _stops_at_the_reference_step(kind, dims):
    (potential, forward, p, channel_ndim), _, _ = _dual_case(kind, dims)
    tau = 1.0 / (2 * len(dims))
    changes = []
    for _ in range(12):  # the loop is memoryless: one step at a time gives each step's increment
        p, _, change = reference_iterate(lambda q: forward(potential(q)), p, channel_ndim, tau, 1,
                                         0.0)
        changes.append(change)
    for tol in changes:
        got, want = _run_both(kind, dims, 40, tol)
        _assert_same_run(got, want)


SPOILED = (70, 33, 16)  # three slabs: rows [0, 31), [31, 62) and [62, 70)


def _kernel_spy(monkeypatch):
    """Record the rows of each slab that the update runs the kernel on: ``rows[k]`` lists those
    of step ``k``, in order, the steps counted by the calls of the potentials that ``count``
    wraps, in ``steps``."""
    spy, forward = SimpleNamespace(steps=0, rows={}), dual._forward

    def count(potential):
        def counted(p):
            spy.steps += 1
            return potential(p)

        return counted

    def kernel(u, out, rows, table, scratch):
        spy.rows.setdefault(spy.steps, []).append(rows)
        return forward(u, out, rows, table, scratch)

    monkeypatch.setattr(dual, "_forward", kernel)
    spy.count = count
    return spy


def _second_slab(kind, monkeypatch):
    """The last row of the slab that the lazy third step on ``SPOILED`` writes second, after the
    witness's.  Spoiling a row of ``y`` spoils the residual of the slab that holds it and of
    the rows that read it, up to two rows before it, in the same slab here."""
    _, (potential, kernel, start, channels), _ = _dual_case(kind, SPOILED)
    spy = _kernel_spy(monkeypatch)
    iterate(spy.count(potential), kernel, start, 1.0 / 6, 4, 0.0, channels)
    return spy.rows[3][1][1] - 1


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_raises_at_the_iteration_a_later_slab_goes_nan(kind):
    _, (potential, kernel, start, channels), _ = _dual_case(kind, SPOILED)
    spoiled = _spoiled_row(potential, SPOILED[0] - 1, 3, np.nan)  # in the slab that ends the grid
    with pytest.raises(DivergenceError, match=r"^dual update diverged at iteration 3$"):
        iterate(spoiled, kernel, start, 1.0 / 6, 12, 0.0, channels)


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_raises_when_a_slab_written_after_the_first_goes_nan(kind, monkeypatch):
    """One slab of the lazy step is already written in place when the next one goes NaN."""
    row = _second_slab(kind, monkeypatch)
    _, (potential, kernel, start, channels), _ = _dual_case(kind, SPOILED)
    spy = _kernel_spy(monkeypatch)
    with pytest.raises(DivergenceError, match=r"^dual update diverged at iteration 3$"):
        iterate(spy.count(_spoiled_row(potential, row, 3, np.nan)), kernel, start, 1.0 / 6, 12,
                0.0, channels)
    assert len(spy.rows[3]) == 2 and spy.rows[3][1][0] <= row < spy.rows[3][1][1]


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_matches_the_reference_when_the_clip_norm_overflows(kind):
    """A finite step whose tuple norm overflows clips to zero there, without raising."""
    with np.errstate(over="ignore"):
        got, want = _run_both(kind, SPOILED, 8, 0.0,
                              lambda potential: _spoiled_row(potential, SPOILED[0] - 1, 3, 1e200))
    _assert_same_run(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_a_lazy_step_takes_the_exact_increment_of_an_overflowing_later_slab(kind, monkeypatch):
    """The slab written after the witness's overflows: it alone gets its exact increment,
    before it is written, and the step stays lazy."""
    row = _second_slab(kind, monkeypatch)
    spy, increment, steps = _kernel_spy(monkeypatch), dual._increment, []

    def exact(*args):
        steps.append(spy.steps)
        return increment(*args)

    monkeypatch.setattr(dual, "_increment", exact)
    with np.errstate(over="ignore"):
        got, want = _run_both(kind, SPOILED, 8, 0.0,
                              lambda potential: spy.count(_spoiled_row(potential, row, 3, 1e200)))
    _assert_same_run(got, want)
    assert len(spy.rows[3]) == len(fields._spans(SPOILED)) and steps.count(3) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_a_capped_solve_computes_the_full_increment_twice(kind, monkeypatch):
    """Once for the first witness and once at the cap: every other step only checks its witness."""
    dims = (70, 33, 16)
    calls, increment = [], dual._increment

    def spy(*args):
        calls.append(1)
        return increment(*args)

    monkeypatch.setattr(dual, "_increment", spy)
    got, want = _run_both(kind, dims, 40, 1e-9)
    _assert_same_run(got, want)
    assert got[1] == 40
    slabs = -(-dims[0] // (fields._SLAB // (dims[1] * dims[2])))
    assert slabs == 3 and len(calls) <= 2 * slabs


# ------------------------------------------------------------- every solve's end

def _model(kind, dims):
    """``(potential, kernel, shape, channels)`` of step 2's vector dual or step 1's packed one."""
    u0, d = rand_scalar(dims, 12), len(dims)
    if kind == "vector":
        m = matching_field(grad(rand_scalar(dims, 13)), 1e-8)
        return reconstruction._bind(u0, m, 0.3), grad, (d,) + dims, None
    potential = smoothing._bind(grad(u0), 0.3, PoissonPlan(dims))
    return potential, fields.hessian, (d * (d + 1) // 2,) + dims, fields._layout(d)[1]


@pytest.mark.parametrize("stop", ["cap", "tol"])
@pytest.mark.parametrize("kind", ["vector", "packed"])
@pytest.mark.parametrize("dims", STOP_GRIDS, ids=str)
def test_solve_is_iterate_from_zero_then_one_potential_and_its_kkt_value(dims, kind, stop):
    potential, kernel, shape, channels = _model(kind, dims)
    zero, tau = np.zeros(shape), 1.0 / (2 * len(dims))
    tol = iterate(potential, kernel, zero, tau, 5, 0.0, channels)[2] if stop == "tol" else 0.0
    cfg = dual.DualConfig(max_iters=40 if stop == "tol" else 7, tol=tol)
    p, y, stats = dual.solve(potential, kernel, shape, cfg, channels)
    want_p, iters, change = iterate(potential, kernel, zero, tau, cfg.max_iters, tol, channels)
    want_y = potential(want_p)
    assert iters == (5 if stop == "tol" else 7)
    assert (p.tobytes(), y.tobytes()) == (want_p.tobytes(), want_y.tobytes())
    assert stats == {"iters": iters, "final_change": change,
                     "kkt_residual": kkt_residual(kernel, want_y, want_p, channels)}
    # a new DualResult field has to come through solve
    assert set(stats) | {"objective"} == {f.name for f in dataclasses.fields(dual.DualResult)}


def test_solve_frees_the_potential_and_its_data_on_return():
    dims, data = (6, 5), []

    def bind():  # the potential alone holds its data grid
        grid = rand_scalar(dims, 8)
        data.append(weakref.ref(grid))
        return lambda p: adjoint_grad(p) - grid

    dual.solve(bind(), grad, (2,) + dims, dual.DualConfig(max_iters=3))
    assert data[0]() is None


# ---------------------------------------------------------- per-step dispatch

def _calls_into_the_package(run) -> np.ndarray:
    """``[calling thread, worker threads]``: the Python calls of functions in ``tvstokes``
    modules that each side makes while ``run()`` runs; the numpy version does not move the
    counts.  A solve starts its worker after the profile is set, so it is profiled too."""
    calls, caller = [0, 0], threading.get_ident()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("tvstokes"):
            calls[threading.get_ident() != caller] += 1  # one worker at a time

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        run()
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    return np.array(calls)


DISPATCH = {  # solve: (potential, kernel, stored channels, channel list) on a 16x16 frame
    "step1": lambda u: (smoothing._bind(grad(u), 0.3, PoissonPlan(u.shape)), fields.hessian, 3,
                        fields._layout(2)[1]),
    "rof": lambda u: (reconstruction._bind(u, None, 0.3), grad, 2, None),
    "step2": lambda u: (reconstruction._bind(u, rand_scalar(u.shape, 15), 0.3), grad, 2, None),
}


@pytest.mark.parametrize("solve, budget", [("step1", 17), ("rof", 8), ("step2", 8)])
def test_a_lazy_step_calls_a_pinned_number_of_package_functions(solve, budget):
    """A lazy step of a one-slab frame calls the potential, the kernel and their helpers, and
    nothing per call that a table could hold: a new helper in the loop shows here."""
    potential, kernel, stored, channels = DISPATCH[solve](rand_scalar((16, 16), 14))
    p0 = np.zeros((stored, 16, 16))

    def steps(n):  # the first and the last step are exact, the ones between lazy
        return _calls_into_the_package(
            lambda: iterate(potential, kernel, p0, 0.25, n, 0.0, channels))

    steps(4)  # builds the kernels' tables
    assert list(steps(4) - steps(3)) == [budget, 0]  # one slab: no worker


def _split_lazy_step_calls(solve, dims):
    """The package calls that the calling thread and the worker make on a lazy step of
    ``solve`` on ``dims``, split over two workers."""
    u, d = rand_scalar(dims, 14), len(dims)
    if solve == "step1":
        potential = smoothing._bind(grad(u), 0.3, PoissonPlan(dims))
        kernel, shape, channels = fields.hessian, (d * (d + 1) // 2,) + dims, fields._layout(d)[1]
    else:
        potential, kernel, shape, channels = reconstruction._bind(u, None, 0.3), grad, (d,) + dims, None
    p0 = np.zeros(shape)

    def steps(n):
        return _calls_into_the_package(
            lambda: iterate(potential, kernel, p0, 1.0 / (2 * d), n, 0.0, channels))

    steps(4)
    return list(steps(4) - steps(3))


# the calling thread made 87 and 242 calls when every slab took its own kernel call and clip
@pytest.mark.parametrize("solve, dims, budget", [("rof", (160, 160, 16), [54, 46]),
                                                 ("step1", (64, 64, 64), [201, 41])], ids=str)
def test_a_split_lazy_step_calls_a_pinned_number_of_package_functions(solve, dims, budget,
                                                                      monkeypatch):
    """Two workers, sixteen slabs or more: each thread steps one slab, the calling thread the
    witness's, then the rest of its group in place, a call per kernel block and a tuple norm
    per chunk.  Step 1's calling thread also runs the potential and its Poisson solve."""
    submitted = _splits(monkeypatch)
    assert _split_lazy_step_calls(solve, dims) == budget
    assert submitted


# ------------------------------------------------------ the update on two threads

def _drivers(u, lam=0.3, **stop):
    """Every driver's arrays and diagnostics on ``u``: step 1, step 2 on its field, and ROF."""
    r1 = smooth_gradient_field(u, SmoothingConfig(lam=lam, **stop))
    r2 = reconstruct(u, r1.g, ReconstructionConfig(lam=lam, **stop))
    return [r1.g.tobytes(), r1.packed.tobytes(), r2.u.tobytes(), r2.p.tobytes(),
            _diagnostics(r1), _diagnostics(r2)] + _rof(u, lam, **stop)


def _rof(u, lam=0.3, **stop):
    r = rof_denoise(u, RofConfig(lam=lam, **stop))
    return [r.u.tobytes(), r.p.tobytes(), _diagnostics(r)]


def _diagnostics(r):
    return r.iters, r.final_change, r.kkt_residual, r.objective


def _splits(monkeypatch) -> list:
    """Force two workers; the returned list counts the groups handed to the worker thread."""
    submitted, submit = [], dual._Worker.submit

    def spy(*args):
        submitted.append(1)
        return submit(*args)

    monkeypatch.setattr(dual, "_workers", lambda: 2)
    monkeypatch.setattr(dual._Worker, "submit", spy)
    return submitted


# a packed step-1 grid of four slabs, one of three, and a video-shaped ROF block of
# sixteen 1-row slabs, where the two steps would add nothing
@pytest.mark.parametrize("dims, solve", [((24, 48, 48), _drivers), ((70, 33, 16), _drivers),
                                         ((16, 160, 160), _rof)], ids=str)
@pytest.mark.parametrize("stop", ["cap", "tol"])
def test_every_driver_gives_the_same_bytes_on_one_and_two_workers(dims, solve, stop,
                                                                  monkeypatch):
    u = rand_scalar(dims, 15)
    limits = {"max_iters": 6, "tol": 0.0} if stop == "cap" else {"max_iters": 30, "tol": 2e-2}
    monkeypatch.setattr(dual, "_workers", lambda: 1)
    want = solve(u, **limits)
    submitted = _splits(monkeypatch)
    assert solve(u, **limits) == want
    # the three-slab grid never splits: a group holds two slabs or more
    assert (len(submitted) > 0) == (len(fields._spans(dims)) >= 4)


# ------------------------------------------------ a row potential inside the update

def _planted(dims, row, shift):
    """The vector model's row potential on data whose first step peaks in grid row ``row``
    (a spike there, above a little noise), with a small shift ``m`` or none (ROF)."""
    rng = np.random.default_rng(row + 20)
    u0 = 0.01 * rng.random(dims)
    u0[(row,) + tuple(n // 2 for n in dims[1:])] += 1.0
    return reconstruction._bind(u0, 0.01 * rng.standard_normal(dims) if shift else None, 1.0)


def _places(dims):
    """Rows where a witness sits: the first and the last slab and, on a grid of several
    slabs, the rows either side of the exact step's cut between the two groups."""
    spans = fields._spans(dims)
    places = {"first": 0, "last": dims[0] - 1}
    if len(spans) > 1:
        cut = spans[len(spans) // 2][0]
        places.update({"before-cut": cut - 1, "after-cut": cut})
    return places


# ROF on sixteen 1-row slabs (chunks of two), on the benchmark video's 27 slabs of 6 rows
# (chunks of four, the last slab ragged), step 2 on four slabs, three slabs that never
# split, and one slab in 2-d and 1-d
ROW_GRIDS = {(16, 160, 160): False, (160, 160, 16): False, (24, 48, 48): True,
             (70, 33, 16): True, (64, 64): True, (40,): False}
ROW_CASES = [(dims, place) for dims in ROW_GRIDS for place in _places(dims)]


@pytest.mark.parametrize("stop", ["cap", "tol"])
@pytest.mark.parametrize("dims, place", ROW_CASES, ids=str)
def test_a_row_potential_gives_the_whole_grid_potentials_bytes(dims, place, stop, monkeypatch):
    """Each slab's rows of ``y`` computed in its update, with the rows where runs meet
    computed before the step writes, give the bytes of the potential computed whole
    before each step, on one worker and on two."""
    row = _places(dims)[place]
    potential = _planted(dims, row, ROW_GRIDS[dims])
    whole = lambda q: potential(q)  # noqa: E731 -- a plain potential: y whole, every step
    assert not isinstance(whole, dual.RowPotential)
    p0, tau = np.zeros((len(dims),) + dims), 1.0 / (2 * len(dims))
    monkeypatch.setattr(dual, "_workers", lambda: 1)
    first = iterate(whole, grad, p0, tau, 1, 0.0)[0]  # its largest increment is the witness
    peak = np.unravel_index(np.argmax(np.sum(first * first, axis=0)), dims)[0]
    assert [a <= peak < b for a, b in fields._spans(dims)] == [a <= row < b
                                                              for a, b in fields._spans(dims)]
    tol = iterate(whole, grad, p0, tau, 5, 0.0)[2] if stop == "tol" else 0.0
    max_iters = 40 if stop == "tol" else 8
    want = iterate(whole, grad, p0, tau, max_iters, tol)
    assert want[1] < max_iters if stop == "tol" else want[1] == max_iters
    _assert_same_run(iterate(potential, grad, p0, tau, max_iters, tol), want)
    submitted = _splits(monkeypatch)
    _assert_same_run(iterate(potential, grad, p0, tau, max_iters, tol), want)
    assert (len(submitted) > 0) == (len(fields._spans(dims)) >= 4)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("step", [1, 3], ids=["exact", "lazy"])
@pytest.mark.parametrize("row", [7, 8], ids=["before-cut", "at-cut"])
def test_an_overflowing_potential_row_at_a_run_boundary_raises_at_the_same_iteration(
        row, step, workers, monkeypatch):
    """Sixteen 1-row ROF slabs with the witness in the first: on every step the groups'
    runs meet at row 8, a row computed before the step writes, and row 7 ends this
    thread's run.  A potential row that overflows there raises at the iteration the
    whole-grid potential raises at."""
    dims = (16, 160, 160)
    p0 = np.zeros((3,) + dims)
    monkeypatch.setattr(dual, "_workers", lambda: workers)
    # the row potential of _planted with its first row peaking, inside the update and whole
    fused, whole = (_spoiled_row(_planted(dims, 0, False), row, step, np.inf) for _ in "ab")
    for potential in (fused, lambda q: whole(q)):
        with np.errstate(invalid="ignore"), pytest.raises(
                DivergenceError, match=rf"^dual update diverged at iteration {step}$"):
            iterate(potential, grad, p0, 1.0 / 6, 5, 0.0)


@pytest.mark.parametrize("dims", [(16, 16), (70, 33, 16)], ids=str)
def test_a_row_potential_paired_with_the_hessian_is_refused_before_any_row(dims):
    """A row potential's window gives its kernel one halo row, and the Hessian reads two, so
    the last row of every slab but the last would get the Neumann zero: rows 30 and 61 of a
    (70, 33, 16) step-1 dual after one step.  ``iterate`` refuses the pairing before it
    computes a row, also where one slab spans the grid and the rows would agree."""
    d, calls = len(dims), []
    whole = smoothing._bind(grad(rand_scalar(dims, 16)), 0.3, PoissonPlan(dims))

    def rows(q, out, span, scratch):  # rows of the whole-grid step-1 potential
        calls.append(span)
        out[...] = whole(q)[slice(*span)]

    p0 = np.zeros((d * (d + 1) // 2,) + dims)
    with pytest.raises(ParameterError, match="one halo row"):
        iterate(dual.RowPotential(rows), fields.hessian, p0, 1.0 / (2 * d), 6, 0.0,
                fields._layout(d)[1])
    assert calls == []


# ------------------------------------------ a split lazy step in place, a chunk per call

def _spiked(kind, dims, row):
    """``(potential, kernel, shape, channels)`` of ROF, step 2 with a small shift ``m`` or packed
    step 1, on data whose first step peaks in grid row ``row``: a spike there, above a little
    noise."""
    rng = np.random.default_rng(row + 30)
    u0 = 0.01 * rng.random(dims)
    u0[(row,) + tuple(n // 2 for n in dims[1:])] += 1.0
    d = len(dims)
    if kind == "packed":
        return (smoothing._bind(grad(u0), 1.0, PoissonPlan(dims)), fields.hessian,
                (d * (d + 1) // 2,) + dims, fields._layout(d)[1])
    m = 0.01 * rng.standard_normal(dims) if kind == "shifted" else None
    return reconstruction._bind(u0, m, 1.0), grad, (d,) + dims, None


def _one_step_at_a_time(potential, kernel, p, tau, steps, channels):
    """``steps`` calls of ``iterate`` with ``max_iters=1``, each an exact step."""
    for _ in range(steps):
        p = iterate(potential, kernel, p, tau, 1, 0.0, channels)[0]
    return p


def _in_place(monkeypatch) -> list:
    """The rows of every chunk stepped in place, as the update runs them."""
    chunks, run = [], dual._subtract_scaled

    def spy(table, u, a, scratch, grid, tau, pc):
        chunks.append(pc.shape[1])
        return run(table, u, a, scratch, grid, tau, pc)

    monkeypatch.setattr(dual, "_subtract_scaled", spy)
    return chunks


# ROF on sixteen 1-row slabs (in-place chunks of two), the benchmark clip's layout, 6-row slabs
# with a ragged last one (chunks of four), step 2 on four slabs, whose lazy steps never split,
# packed step 1 on twenty 1-row slabs (chunks of four, three or more per group) and three
# slabs that never split
SPLIT_GRIDS = {(16, 160, 160): "rof", (40, 160, 16): "rof", (24, 48, 48): "shifted",
               (20, 100, 100): "packed", (70, 33, 16): "rof"}


def _split_places(dims):
    """:func:`_places`, and the slab before the last: its run wraps after two slabs."""
    return {**_places(dims), "wrap": fields._spans(dims)[-2][0]}


SPLIT_CASES = [(dims, place) for dims in SPLIT_GRIDS for place in _split_places(dims)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dims, place", SPLIT_CASES, ids=str)
def test_lazy_steps_give_the_bytes_of_exact_steps_one_at_a_time(dims, place, workers,
                                                                monkeypatch):
    """Six steps, four of them lazy, equal six one-step calls bit for bit, whether the groups
    of a split lazy step run their chunks in place or not.  The witness sits in the first or
    the last slab, either side of the exact step's cut, or in the slab before the last, so
    some chunks end at the wrap of the rotated order and some at the grid's end."""
    row = _split_places(dims)[place]
    potential, kernel, shape, channels = _spiked(SPLIT_GRIDS[dims], dims, row)
    p0, tau = np.zeros(shape), 1.0 / (2 * len(dims))
    spans = fields._spans(dims)
    first = iterate(potential, kernel, p0, tau, 1, 0.0, channels)[0]
    peak = np.unravel_index(np.argmax(sum(first[c] ** 2 for c in channels or range(len(first)))),
                            dims)[0]
    assert [a <= peak < b for a, b in spans] == [a <= row < b for a, b in spans]
    want = _one_step_at_a_time(potential, kernel, p0, tau, 6, channels)
    monkeypatch.setattr(dual, "_workers", lambda: workers)
    chunks = _in_place(monkeypatch)
    got, iters, _ = iterate(potential, kernel, p0, tau, 6, 0.0, channels)
    assert iters == 6 and got.tobytes() == want.tobytes()
    # a lazy step splits when the slabs after the witness's make two groups of two or more
    assert bool(chunks) == (workers == 2 and len(spans) >= 5)


def _spoiled_row(potential, row, step, value, where=None):
    """``potential`` with row ``row`` of ``y`` set to ``value`` on step ``step``.

    A row potential computes each row once a step, in one call, so the calls
    that compute the row count the steps, across calls of ``iterate`` too; a
    whole-grid potential is called once a step.  Given a list ``where``, a
    row potential appends the thread that sets the value.
    """
    seen = [0]
    if not isinstance(potential, dual.RowPotential):
        def whole(q):
            y = potential(q)
            seen[0] += 1
            if seen[0] == step:
                y[row] = value
            return y

        return whole

    def rows(q, out, span, scratch):
        potential.rows(q, out, span, scratch)
        if span[0] <= row < span[1]:
            seen[0] += 1
            if seen[0] == step:
                out[row - span[0]] = value
                if where is not None:
                    where.append(threading.current_thread())

    return dual.RowPotential(rows)


# the witness in row 0: the calling thread's group holds the first half of the slabs, the
# worker's the second; the rows lie in neither group's first slab nor where two runs meet
DIVERGING = {(16, 160, 160): ("rof", (3, 12)), (20, 100, 100): ("packed", (5, 15))}
DIVERGING_CASES = [(dims, row) for dims, (_, rows) in DIVERGING.items() for row in rows]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dims, row", DIVERGING_CASES, ids=str)
def test_an_overflowing_row_in_an_in_place_chunk_raises_at_the_one_step_loops_iteration(
        dims, row, workers, monkeypatch):
    """A row of ``y`` that overflows on the third, lazy step, inside a chunk stepped in
    place: the chunk is divided and then checked, and raises at the iteration where one exact
    step at a time raises."""
    kind = DIVERGING[dims][0]
    potential, kernel, shape, channels = _spiked(kind, dims, 0)
    p0, tau = np.zeros(shape), 1.0 / (2 * len(dims))
    spoiled = _spoiled_row(potential, row, 3, np.inf)
    with np.errstate(invalid="ignore"):
        for call in range(1, 4):
            if call < 3:
                p0 = iterate(spoiled, kernel, p0, tau, 1, 0.0, channels)[0]
                continue
            with pytest.raises(DivergenceError, match=r"^dual update diverged at iteration 1$"):
                iterate(spoiled, kernel, p0, tau, 1, 0.0, channels)
        p0 = np.zeros(shape)
        monkeypatch.setattr(dual, "_workers", lambda: workers)
        chunks = _in_place(monkeypatch)
        with pytest.raises(DivergenceError, match=r"^dual update diverged at iteration 3$"):
            iterate(_spoiled_row(potential, row, 3, np.inf), kernel, p0, tau, 5, 0.0, channels)
    assert bool(chunks) == (workers == 2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dims, row", DIVERGING_CASES, ids=str)
def test_a_step_whose_squares_overflow_in_an_in_place_chunk_clips_to_zero_there(
        dims, row, workers, monkeypatch):
    """A finite row of ``y`` so large that the squares of its differences overflow: the clip
    norm is infinite, the chunk's new entries there are zero and finite, and no error is
    raised; the bytes are those of one exact step at a time."""
    kind = DIVERGING[dims][0]
    potential, kernel, shape, channels = _spiked(kind, dims, 0)
    p0, tau = np.zeros(shape), 1.0 / (2 * len(dims))
    with np.errstate(over="ignore"):
        want = _one_step_at_a_time(_spoiled_row(potential, row, 3, 1e200), kernel, p0, tau, 5,
                                   channels)
        monkeypatch.setattr(dual, "_workers", lambda: workers)
        chunks = _in_place(monkeypatch)
        got = iterate(_spoiled_row(potential, row, 3, 1e200), kernel, p0, tau, 5, 0.0, channels)
    assert got[0].tobytes() == want.tobytes() and np.isfinite(want).all()
    assert bool(chunks) == (workers == 2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("step", [1, 3], ids=["exact", "lazy"])
def test_a_divergence_on_the_worker_thread_raises_at_the_same_iteration(workers, step,
                                                                        monkeypatch):
    """Row 15 of ``y`` goes NaN on step ``step``; the first row peaks, so the witness's slab is
    the first, and on two workers the thread that computes row 15 is the worker."""
    dims = (16, 160, 160)  # 1-row slabs: the last goes to the worker's group
    monkeypatch.setattr(dual, "_workers", lambda: workers)
    where = []
    potential = _spoiled_row(_planted(dims, 0, False), 15, step, np.nan, where)
    threads = threading.active_count()
    with pytest.raises(DivergenceError, match=rf"^dual update diverged at iteration {step}$"):
        iterate(potential, grad, np.zeros((3,) + dims), 0.01, 5, 0.0)
    assert (where[0] is threading.main_thread()) == (workers == 1)
    assert threading.active_count() == threads  # the worker is joined


@pytest.mark.parametrize("workers", [1, 2])
def test_the_worker_runs_under_the_callers_numpy_error_state(workers, monkeypatch):
    """An overflow in the worker's group raises as it would on the calling thread."""
    monkeypatch.setattr(dual, "_workers", lambda: workers)
    dims = (16, 160, 160)
    # the squares of row 15's differences overflow; the worker's group holds it
    potential = _spoiled_row(_planted(dims, 0, False), 15, 1, 1e200)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        iterate(potential, grad, np.zeros((3,) + dims), 0.1, 2, 0.0)


# rows 0-8 here and 8-16 on the worker on the exact first step; on the lazy third step
# the witness's row 0 here, then rows 1-8 here and 8-16 on the worker, which started first.
# Row 8, where the runs meet, is computed here before the step's worker starts; the worker
# computes rows 9-16 a chunk of two slabs and its halo row at a time.
@pytest.mark.parametrize("step", [1, 3], ids=["exact", "lazy-witness"])
def test_an_error_on_the_calling_thread_joins_the_workers_group_first(step, monkeypatch):
    dims = (16, 160, 160)
    submitted, done = _splits(monkeypatch), []  # one group handed to the worker a step
    potential = _planted(dims, 0, False)  # the first row peaks: the witness's slab is the first

    def rows(q, out, span, scratch):
        if len(submitted) == step:
            if threading.current_thread() is threading.main_thread():
                raise ValueError("row function failed")
            time.sleep(0.02)  # the worker's rows outlast this thread's error
            done.append(span)
        potential.rows(q, out, span, scratch)

    threads = threading.active_count()
    with pytest.raises(ValueError, match="row function failed"):
        iterate(dual.RowPotential(rows), grad, np.zeros((3,) + dims), 0.01, 5, 0.0)
    assert done == [(9, 11), (11, 13), (13, 15), (15, 16)]  # all of them, before the raise
    assert threading.active_count() == threads  # the worker is joined


def test_threads_solving_at_once_get_the_sequential_bytes(monkeypatch):
    """Three solves at once, each splitting its updates onto a worker thread of its own: six
    threads on two CPUs, switching every 10 us, write disjoint slabs and get the bytes of
    one solve at a time."""
    inputs = [rand_scalar((24, 48, 48), seed) for seed in (16, 17, 18)]
    want = [_drivers(u, max_iters=5, tol=0.0) for u in inputs]
    submitted = _splits(monkeypatch)
    got = [None] * len(inputs)

    def solve(k):
        got[k] = _drivers(inputs[k], max_iters=5, tol=0.0)

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want and submitted


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_solves_after_the_parent_used_the_worker(monkeypatch):
    """The parent's solve joins its worker before it returns, so the fork runs beside no
    thread of the package's, and the child's solve starts a worker of its own.

    What this checks is that no ``tvstokes-dual`` thread is alive after the parent's solve,
    and that the child's solve gives the parent's bytes.  The warning filter around the fork
    cannot fail: CPython 3.12 and later swallow the error it raises inside ``os.fork()``, and
    earlier versions issue no such warning."""
    u = rand_scalar((16, 160, 160), 18)
    submitted = _splits(monkeypatch)

    def solve():
        return rof_denoise(u, RofConfig(lam=0.3, max_iters=4)).u.tobytes()

    want = solve()
    assert submitted and all(t.name != dual._WORKER for t in threading.enumerate())
    with warnings.catch_warnings():
        # cannot fail: CPython 3.12+ swallows this error inside os.fork(); the checks are the
        # thread count above and the child's bytes below
        warnings.simplefilter("error", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child
        code = 1
        try:
            code = 0 if solve() == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:  # a child stuck on the parent's queue
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its solve")
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_a_row_function_in_a_group_sees_no_worker(monkeypatch):
    """A solve that a row function runs inside the update shares no worker, on the worker
    thread or on the calling thread: the worker never waits for itself, nor for a solve
    nested in the group that the calling thread runs beside it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []

    def rows(q, out, span, scratch):
        if sys._getframe(1).f_code.co_name == "_update":  # a group's rows, not where runs meet
            seen.append((threading.current_thread() is threading.main_thread(),
                         dual._LOCAL.worker is not None))
        out[...] = 0.0

    iterate(dual.RowPotential(rows), grad, np.zeros((3, 16, 160, 160)), 0.1, 1, 0.0)
    assert dict(seen) == {True: False, False: False} and dual._LOCAL.worker is None


def test_a_solve_nested_in_a_lazy_step_starts_a_worker_of_its_own(monkeypatch):
    """A row function that runs a splitting solve on the calling thread during a lazy step's
    witness chunk, while the step's worker waits for that witness's verdict, finishes: the
    nested solve starts its own worker, and the outer dual gets the bytes of the run without
    it.  The run goes in a daemon thread, so a hang fails the test and does not block the
    suite."""
    submitted = _splits(monkeypatch)  # one group handed to the worker a step
    u = rand_scalar((16, 160, 160), 19)
    bind = reconstruction._bind(u, None, 0.3)
    p0 = np.zeros((3, 16, 160, 160))
    nested = []

    def rows(q, out, span, scratch):  # a step's rows in a group come after its worker starts
        if len(submitted) == 3 and not nested and threading.current_thread().name != dual._WORKER:
            nested.append(rof_denoise(u, RofConfig(lam=0.3, max_iters=3)).u)
        bind.rows(q, out, span, scratch)

    done = []
    runner = threading.Thread(target=lambda: done.append(
        iterate(dual.RowPotential(rows), grad, p0, 1 / 6, 5, 0.0)), daemon=True)
    runner.start()
    runner.join(20)
    assert not runner.is_alive(), "the nested solve hung"
    assert nested and done
    want = iterate(bind, grad, p0, 1 / 6, 5, 0.0)
    assert done[0][0].tobytes() == want[0].tobytes() and done[0][1:] == want[1:]


@pytest.mark.parametrize("cpus, workers", [({0}, 1), ({3}, 1), ({0, 1}, 2), ({0, 1, 2, 3}, 2)])
def test_the_worker_count_follows_the_affinity_mask(cpus, workers, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert dual._workers() == workers


def test_importing_the_cli_starts_no_thread_and_loads_no_executor():
    """A solve that splits starts its worker thread, plain ``threading``, and joins it
    before it returns."""
    script = (
        "import sys, threading\n"
        "import numpy as np\n"
        "import tvstokes.cli\n"
        "from tvstokes import RofConfig, dual, rof_denoise\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
        "dual._workers = lambda: 2\n"
        "started, start = [], threading.Thread.start\n"
        "def start_named(thread):\n"
        "    started.append(thread.name)\n"
        "    start(thread)\n"
        "threading.Thread.start = start_named\n"
        "rof_denoise(np.zeros((16, 160, 160)), RofConfig(max_iters=2))\n"
        "assert started == [dual._WORKER] and threading.active_count() == 1\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = str(Path(dual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

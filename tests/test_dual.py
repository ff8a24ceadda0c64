"""Shared dual-projection core: config validation, the in-place loop, diagnostics."""

import dataclasses
import math
import sys
import tracemalloc
import weakref
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

GRIDS = [(9,), (6, 5), (5, 4, 3), (3, 3, 2, 3), (70, 33, 16)]  # the last: slabs of 62 and 8 rows


def _stacked(p, channel_ndim):
    """``p`` with its ``channel_ndim`` channel axes stacked along axis 0, as ``iterate``
    stores it."""
    return p.reshape((-1,) + p.shape[channel_ndim:])


def _rows_of(full):
    """A kernel for ``iterate``: rows ``[a, b)`` of the first grid axis of ``full(y)``, whose
    channels are stacked along axis 0, copied into ``out`` or returned fresh."""
    def kernel(y, out, rows):
        w = full(y)[:, slice(*rows)]
        if out is None:
            return w.copy()
        out[...] = w
        return out

    return kernel


def _residual(dims, channel_ndim):
    """``(residual, potential, kernel)`` of ``A(p) = D(D^T p - f)``, ``D`` the gradient (vector
    dual, whose kernel is ``grad``'s row range) or ``grad_vec`` (tensor dual).  ``residual``
    takes the dual with its ``channel_ndim`` channel axes; ``potential`` takes it, and
    ``kernel`` writes ``A(p)``, stacked as ``iterate`` stores them."""
    rng = np.random.default_rng(len(dims))
    if channel_ndim == 1:
        f, fwd, adj, kernel = 3.0 * rng.standard_normal(dims), grad, adjoint_grad, grad
    else:
        f, fwd, adj = 3.0 * rng.standard_normal((len(dims),) + dims), grad_vec, adjoint_grad_tensor
        kernel = _rows_of(lambda y: _stacked(grad_vec(y), 2))

    def potential(p):
        return adj(p.reshape((len(dims),) * channel_ndim + dims)) - f

    return lambda p: fwd(potential(p)), potential, kernel


def _start(dims, channel_ndim):
    return (feasible_vector if channel_ndim == 1 else feasible_tensor)(dims, 7, scale=0.9)


def _assert_same_run(got, want):
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


def _iterate(model, p0, channel_ndim, *args):
    """``iterate`` from ``p0`` stacked along axis 0; its dual comes back in ``p0``'s shape."""
    p, *rest = iterate(*model, _stacked(p0, channel_ndim), *args)
    return (p.reshape(p0.shape), *rest)


@pytest.mark.parametrize("channel_ndim", [1, 2])
@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_iterate_matches_reference_loop_bitwise(dims, channel_ndim):
    (residual, *model), p0 = _residual(dims, channel_ndim), _start(dims, channel_ndim)
    tau = 1.0 / (2 * len(dims))
    want = reference_iterate(residual, p0, channel_ndim, tau, 12, 0.0)
    _assert_same_run(_iterate(model, p0, channel_ndim, tau, 12, 0.0), want)
    # a tol reached after a few steps stops both loops early, at the same step
    tol = reference_iterate(residual, p0, channel_ndim, tau, 5, 0.0)[2]
    want = reference_iterate(residual, p0, channel_ndim, tau, 40, tol)
    assert want[1] < 40
    _assert_same_run(_iterate(model, p0, channel_ndim, tau, 40, tol), want)


def test_iterate_raises_on_a_nan_in_a_later_slab():
    dims = (70, 33, 16)
    assert fields._SLAB < 33 * 16 * 70

    def kernel(y, out, rows):
        out[...] = 0.0
        if rows[1] == dims[0]:
            out[-1, -1, -1, -1] = np.nan

    with pytest.raises(DivergenceError):
        iterate(lambda p: None, kernel, np.zeros((3,) + dims), 0.1, 5, 0.0)


@pytest.mark.parametrize("max_iters", [1, 2])
@pytest.mark.parametrize("channel_ndim", [1, 2])
def test_iterate_leaves_its_start_unmodified(channel_ndim, max_iters):
    dims = (5, 4)
    (_, *model), p0 = _residual(dims, channel_ndim), _start(dims, channel_ndim)
    before = p0.copy()
    p = _iterate(model, p0, channel_ndim, 0.25, max_iters, 0.0)[0]
    assert not np.shares_memory(p, p0)
    assert p0.tobytes() == before.tobytes()


@pytest.mark.parametrize("dims, kernel, stored, channels", [
    ((70, 33, 16), grad, 3, None),
    ((64, 64), grad, 2, None),
    ((64, 64), fields.hessian, 3, fields._layout(2)[1]),
], ids=["slabs-vector", "frame-vector", "frame-packed"])
def test_iterate_holds_one_dual_and_slab_sized_scratch(dims, kernel, stored, channels):
    """No second dual: the step is written back slab by slab from slab-sized scratch.

    One slab spans a 64x64 frame, so its residual is dual-sized there; the clip
    divides channel by channel, as a norm grid broadcast over the channels makes
    numpy allocate an iterator buffer of two frame grids."""
    y = rand_scalar(dims, 9)
    p0 = np.broadcast_to(0.0, (stored,) + dims)  # iterate's own copy is the one dual
    tau = 1.0 / (2 * len(dims))
    iterate(lambda p: y, kernel, p0, tau, 4, 0.0, channels)  # warm-up: one-time allocations
    tracemalloc.start()
    try:
        iterate(lambda p: y, kernel, p0, tau, 4, 0.0, channels)  # lazy and exact steps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slab = fields._spans(dims)[0][1] * y.nbytes // dims[0]  # bytes of one slab-sized grid
    # the slab's residual and the two norm grids; 16 KiB for Python objects
    assert peak <= stored * y.nbytes + (stored + 2) * slab + (1 << 14)


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
    dims = (70, 33, 16)  # slabs of 62 and 8 rows
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
    """``(residual, packed, p0, rows, cols, index)``: a symmetric tensor dual, full and packed;
    ``packed`` is the ``(potential, kernel)`` pair of the packed dual."""
    rows, cols, index = symmetric_packing(len(dims))
    f = 3.0 * np.random.default_rng(len(dims)).standard_normal(dims)

    def hessian_of(y):  # bitwise symmetric, as the packed layout needs
        a = grad_vec(grad(y))
        return 0.5 * (a + a.swapaxes(0, 1))

    def potential(p):  # of the full tensor dual
        return adjoint_grad(adjoint_grad_tensor(p)) - f

    def residual(p):
        return hessian_of(potential(p))

    packed = (lambda q: potential(q[index]), _rows_of(lambda y: hessian_of(y)[rows, cols]))
    t = _start(dims, 2)
    return residual, packed, 0.5 * (t + t.swapaxes(0, 1)), rows, cols, index


@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_packed_iterate_matches_full_tensor_loop_bitwise(dims):
    """Off-diagonal channels listed twice, in C order, give the full tensor's norms exactly."""
    residual, packed, p0, rows, cols, index = _packed_case(dims)
    tau = 1.0 / (2 * len(dims))
    want = reference_iterate(residual, p0, 2, tau, 12, 0.0)
    got = iterate(*packed, p0[rows, cols], tau, 12, 0.0, index.ravel().tolist())
    _assert_same_run((got[0][index],) + got[1:], want)
    tol = reference_iterate(residual, p0, 2, tau, 5, 0.0)[2]
    stopped = reference_iterate(residual, p0, 2, tau, 40, tol)
    assert stopped[1] < 40
    got = iterate(*packed, p0[rows, cols], tau, 40, tol, index.ravel().tolist())
    _assert_same_run((got[0][index],) + got[1:], stopped)
    w, q, channels = residual(want[0]), want[0][rows, cols], index.ravel().tolist()
    full_kkt = stationarity_residual(_stacked(w, 2), _stacked(want[0], 2))
    # a dual stored packed like w: duplicated entries give identical terms
    assert full_kkt == stationarity_residual(w[rows, cols], q, channels)
    # and slab by slab, through the kernel
    assert full_kkt == kkt_residual(packed[1], packed[0](q), q, channels)


# ------------------------------------------- the increment, computed only when it decides

def _dual_case(kind, dims):
    """``(reference, stored, unpack)``: the reference loop's residual, start and channel axes,
    then ``iterate``'s ``(potential, kernel)``, start and channel list, and the map back."""
    if kind == "packed":
        residual, packed, p0, rows, cols, index = _packed_case(dims)
        stored = (packed, p0[rows, cols], index.ravel().tolist())
        return (residual, p0, 2), stored, lambda p: p[index]
    channel_ndim = 1 if kind == "vector" else 2
    (residual, *model), p0 = _residual(dims, channel_ndim), _start(dims, channel_ndim)
    stored = (model, _stacked(p0, channel_ndim), None)
    return (residual, p0, channel_ndim), stored, lambda p: p.reshape(p0.shape)


def _run_both(kind, dims, max_iters, tol, spoil=None):
    """``iterate`` and then the reference loop, each on its residual as ``spoil`` wraps it."""
    reference, stored, unpack = _dual_case(kind, dims)
    (residual, p0, channel_ndim), (model, start, channels) = reference, stored
    tau = 1.0 / (2 * len(dims))
    if spoil is not None:
        model, residual = spoil.model(*model), spoil.reference(residual)
    got = iterate(*model, start, tau, max_iters, tol, channels)
    want = reference_iterate(residual, p0, channel_ndim, tau, max_iters, tol)
    return (unpack(got[0]),) + got[1:], want


KINDS = ["vector", "tensor", "packed"]
STOP_GRIDS = [(70, 33, 16), (6, 5)]  # two slabs, one slab


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims", STOP_GRIDS, ids=str)
def test_iterate_stops_at_the_reference_step_for_every_tol(kind, dims):
    """A ``tol`` equal to the increment of step k, for k in 1..12, stops both loops alike."""
    (residual, p, channel_ndim), _, _ = _dual_case(kind, dims)
    tau = 1.0 / (2 * len(dims))
    changes = []
    for _ in range(12):  # the loop is memoryless: one step at a time gives each step's increment
        p, _, change = reference_iterate(residual, p, channel_ndim, tau, 1, 0.0)
        changes.append(change)
    for tol in changes:
        got, want = _run_both(kind, dims, 40, tol)
        _assert_same_run(got, want)


SPOILED = (70, 33, 16)  # two slabs


def _spoiled(step, value, nth=None):
    """Wrappers that put ``value`` into the residual of step ``step`` on the grid ``SPOILED``.

    ``model`` wraps ``iterate``'s ``(potential, kernel)``: on that step it spoils
    the last entry of the first channel of the ``nth`` slab written, or, without
    ``nth``, of the slab that ends the grid, and records the grid point;
    ``reference`` then spoils the same entry, so ``iterate`` runs first.
    ``written`` lists the rows of the slabs written on that step, in order, and
    ``steps`` counts the steps begun.  The first channel is the diagonal
    ``(0, 0)`` of a tensor dual.
    """
    spoil = SimpleNamespace(spot=None, written=[], steps=0)

    def model(potential, kernel):
        def counted(p):
            spoil.steps += 1
            return potential(p)

        def spoiled(y, out, rows):
            out = kernel(y, out, rows)
            if spoil.steps == step:
                spoil.written.append(rows)
                ends = rows[1] == SPOILED[0] if nth is None else len(spoil.written) == nth
                if ends:
                    out[(0,) * (out.ndim - 3) + (-1, -1, -1)] = value
                    spoil.spot = (rows[1] - 1, -1, -1)
            return out

        return counted, spoiled

    def reference(residual):
        calls = [0]

        def spoiled(p):
            calls[0] += 1
            out = residual(p)
            if calls[0] == step:
                out[(0,) * (out.ndim - 3) + spoil.spot] = value
            return out

        return spoiled

    spoil.model, spoil.reference = model, reference
    return spoil


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_raises_at_the_iteration_a_later_slab_goes_nan(kind):
    _, (model, start, channels), _ = _dual_case(kind, SPOILED)
    with pytest.raises(DivergenceError, match=r"^dual update diverged at iteration 3$"):
        iterate(*_spoiled(3, np.nan).model(*model), start, 1.0 / 6, 12, 0.0, channels)


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_raises_when_a_slab_written_after_the_first_goes_nan(kind):
    """One slab of the lazy step is already written in place when the next one goes NaN."""
    _, (model, start, channels), _ = _dual_case(kind, SPOILED)
    spoil = _spoiled(3, np.nan, nth=2)
    with pytest.raises(DivergenceError, match=r"^dual update diverged at iteration 3$"):
        iterate(*spoil.model(*model), start, 1.0 / 6, 12, 0.0, channels)
    assert len(spoil.written) == 2 and spoil.spot is not None


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_matches_the_reference_when_the_clip_norm_overflows(kind):
    """A finite step whose tuple norm overflows clips to zero there, without raising."""
    with np.errstate(over="ignore"):
        got, want = _run_both(kind, SPOILED, 8, 0.0, _spoiled(3, 1e200))
    _assert_same_run(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_a_lazy_step_takes_the_exact_increment_of_an_overflowing_later_slab(kind, monkeypatch):
    """The slab written after the witness's overflows: it alone gets its exact increment,
    before it is written, and the step stays lazy."""
    spoil, increment, steps = _spoiled(3, 1e200, nth=2), dual._increment, []

    def spy(*args):
        steps.append(spoil.steps)
        return increment(*args)

    monkeypatch.setattr(dual, "_increment", spy)
    with np.errstate(over="ignore"):
        got, want = _run_both(kind, SPOILED, 8, 0.0, spoil)
    _assert_same_run(got, want)
    assert len(spoil.written) == 2 and steps.count(3) == 1


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
    assert slabs == 2 and len(calls) <= 2 * slabs


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

def _calls_into_the_package(run) -> int:
    """Python calls of functions in ``tvstokes`` modules while ``run()`` runs; the numpy
    version does not move the count."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("tvstokes"):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


DISPATCH = {  # solve: (potential, kernel, stored channels, channel list) on a 16x16 frame
    "step1": lambda u: (smoothing._bind(grad(u), 0.3, PoissonPlan(u.shape)), fields.hessian, 3,
                        fields._layout(2)[1]),
    "rof": lambda u: (reconstruction._bind(u, None, 0.3), grad, 2, None),
}


@pytest.mark.parametrize("solve, budget", [("step1", 18), ("rof", 9)])
def test_a_lazy_step_calls_a_pinned_number_of_package_functions(solve, budget):
    """A lazy step of a one-slab frame calls the potential, the kernel and their helpers, and
    nothing per call that a table could hold: a new helper in the loop shows here."""
    potential, kernel, stored, channels = DISPATCH[solve](rand_scalar((16, 16), 14))
    p0 = np.zeros((stored, 16, 16))

    def steps(n):  # the first and the last step are exact, the ones between lazy
        return _calls_into_the_package(
            lambda: iterate(potential, kernel, p0, 0.25, n, 0.0, channels))

    steps(4)  # builds the kernels' tables
    assert steps(4) - steps(3) == budget

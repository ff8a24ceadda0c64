"""Shared dual-projection core: config validation, the in-place loop, diagnostics."""

import math

import numpy as np
import pytest

from tvstokes import (
    DimensionError,
    DivergenceError,
    ParameterError,
    ReconstructionConfig,
    RofConfig,
    SmoothingConfig,
    adjoint_grad,
    adjoint_grad_tensor,
    grad,
    grad_vec,
    matching_kkt_residual,
    matching_objective,
    reconstruct,
    rof_denoise,
    smooth_gradient_field,
    smoothing_kkt_residual,
    smoothing_objective,
)
from tvstokes import dual
from tvstokes.dual import iterate, stationarity_residual
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
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("bad", BAD)
def test_solver_rejects_out_of_range_config(solver, bad):
    config_cls, solve = SOLVERS[solver]
    with pytest.raises(ParameterError):
        solve(config_cls(**BAD[bad]))


@pytest.mark.parametrize("solver", SOLVERS)
def test_solver_accepts_default_config(solver):
    config_cls, solve = SOLVERS[solver]
    assert solve(config_cls()).iters == 1


# ------------------------------------------------------------ the in-place loop

GRIDS = [(9,), (6, 5), (5, 4, 3), (3, 3, 2, 3), (70, 33, 16)]  # the last: slabs of 62 and 8 rows


def _residual(dims, channel_ndim):
    """``A(p) = D(D^T p - f)`` with ``D`` the gradient (vector dual) or ``grad_vec`` (tensor dual)."""
    rng = np.random.default_rng(len(dims))
    if channel_ndim == 1:
        f, fwd, adj = 3.0 * rng.standard_normal(dims), grad, adjoint_grad
    else:
        f, fwd, adj = 3.0 * rng.standard_normal((len(dims),) + dims), grad_vec, adjoint_grad_tensor

    def residual(p, out=None):
        return fwd(adj(p) - f, out=out)

    return residual


def _start(dims, channel_ndim):
    return (feasible_vector if channel_ndim == 1 else feasible_tensor)(dims, 7, scale=0.9)


def _assert_same_run(got, want):
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


@pytest.mark.parametrize("channel_ndim", [1, 2])
@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_iterate_matches_reference_loop_bitwise(dims, channel_ndim):
    residual, p0 = _residual(dims, channel_ndim), _start(dims, channel_ndim)
    tau = 1.0 / (2 * len(dims))
    want = reference_iterate(residual, p0, channel_ndim, tau, 12, 0.0)
    _assert_same_run(iterate(residual, p0, channel_ndim, tau, 12, 0.0), want)
    # a tol reached after a few steps stops both loops early, at the same step
    tol = reference_iterate(residual, p0, channel_ndim, tau, 5, 0.0)[2]
    want = reference_iterate(residual, p0, channel_ndim, tau, 40, tol)
    assert want[1] < 40
    _assert_same_run(iterate(residual, p0, channel_ndim, tau, 40, tol), want)


def test_iterate_raises_on_a_nan_in_a_later_slab():
    dims = (70, 33, 16)
    assert dual._SLAB < 33 * 16 * 70

    def residual(p, out):
        out[...] = 0.0
        out[-1, -1, -1, -1] = np.nan

    with pytest.raises(DivergenceError):
        iterate(residual, np.zeros((3,) + dims), 1, 0.1, 5, 0.0)


@pytest.mark.parametrize("max_iters", [1, 2])
@pytest.mark.parametrize("channel_ndim", [1, 2])
def test_iterate_leaves_its_start_unmodified(channel_ndim, max_iters):
    dims = (5, 4)
    residual, p0 = _residual(dims, channel_ndim), _start(dims, channel_ndim)
    before = p0.copy()
    p = iterate(residual, p0, channel_ndim, 0.25, max_iters, 0.0)[0]
    assert not np.shares_memory(p, p0)
    assert p0.tobytes() == before.tobytes()


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
    arrays = {"w": w, "p": _start(dims, channel_ndim)}
    arrays[holder].reshape((-1,) + dims)[channel][1, 2] = np.nan
    assert math.isnan(stationarity_residual(arrays["w"], arrays["p"], channel_ndim))


G0 = grad(U5)
LAM_CALLS = {
    "smoothing_objective": lambda lam: smoothing_objective(G0, G0, lam),
    "smoothing_kkt_residual": lambda lam: smoothing_kkt_residual(np.zeros((2, 2, 5, 6)), G0, lam),
    "matching_objective": lambda lam: matching_objective(U5, U5, G0, lam, 1e-8),
    "matching_kkt_residual": lambda lam: matching_kkt_residual(
        np.zeros((2, 5, 6)), np.ones((5, 6)), np.zeros((5, 6)), lam),
}


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")], ids=str)
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
    """``(residual, packed, p0, rows, cols, index)``: a symmetric tensor dual, full and packed."""
    rows, cols, index = symmetric_packing(len(dims))
    f = 3.0 * np.random.default_rng(len(dims)).standard_normal(dims)

    def residual(p):  # bitwise symmetric, as the packed layout needs
        a = grad_vec(grad(adjoint_grad(adjoint_grad_tensor(p)) - f))
        return 0.5 * (a + a.swapaxes(0, 1))

    def packed(q, out):
        out[...] = residual(q[index])[rows, cols]

    t = _start(dims, 2)
    return residual, packed, 0.5 * (t + t.swapaxes(0, 1)), rows, cols, index


@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_packed_iterate_matches_full_tensor_loop_bitwise(dims):
    """Off-diagonal channels listed twice, in C order, give the full tensor's norms exactly."""
    residual, packed, p0, rows, cols, index = _packed_case(dims)
    tau = 1.0 / (2 * len(dims))
    want = reference_iterate(residual, p0, 2, tau, 12, 0.0)
    got = iterate(packed, p0[rows, cols], 1, tau, 12, 0.0, index.ravel().tolist())
    _assert_same_run((got[0][index],) + got[1:], want)
    tol = reference_iterate(residual, p0, 2, tau, 5, 0.0)[2]
    stopped = reference_iterate(residual, p0, 2, tau, 40, tol)
    assert stopped[1] < 40
    got = iterate(packed, p0[rows, cols], 1, tau, 40, tol, index.ravel().tolist())
    _assert_same_run((got[0][index],) + got[1:], stopped)
    w = residual(want[0])
    packed_kkt = stationarity_residual(w[rows, cols], want[0], 2, index.ravel().tolist())
    assert packed_kkt == stationarity_residual(w, want[0], 2)
    # a dual stored packed like w: duplicated entries give identical terms
    assert packed_kkt == stationarity_residual(w[rows, cols], want[0][rows, cols], 1,
                                               index.ravel().tolist())


# ------------------------------------------- the increment, computed only when it decides

def _dual_case(kind, dims):
    """``(reference, stored, unpack)``: the reference loop's residual, start and channel axes,
    then ``iterate``'s residual, start, channel axes and channel list, and the map back."""
    if kind == "packed":
        residual, packed, p0, rows, cols, index = _packed_case(dims)
        stored = (packed, p0[rows, cols], 1, index.ravel().tolist())
        return (residual, p0, 2), stored, lambda p: p[index]
    channel_ndim = 1 if kind == "vector" else 2
    residual, p0 = _residual(dims, channel_ndim), _start(dims, channel_ndim)
    return (residual, p0, channel_ndim), (residual, p0, channel_ndim, None), lambda p: p


def _run_both(kind, dims, max_iters, tol, wrap=lambda residual: residual):
    """The reference loop and ``iterate``, each on a fresh ``wrap`` of its residual."""
    (residual, p0, channel_ndim), (stored, start, stored_ndim, channels), unpack = _dual_case(kind, dims)
    tau = 1.0 / (2 * len(dims))
    want = reference_iterate(wrap(residual), p0, channel_ndim, tau, max_iters, tol)
    got = iterate(wrap(stored), start, stored_ndim, tau, max_iters, tol, channels)
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


def _spoiled(step, value):
    """A wrapper whose residual's call ``step`` puts ``value`` at the first channel's last entry."""
    def wrap(residual):
        calls = [0]

        def spoiled(p, out=None):
            calls[0] += 1
            if out is None:
                out = residual(p)
            else:
                residual(p, out)
            if calls[0] == step:  # the first channel is the diagonal (0, 0) of a tensor dual
                out[np.unravel_index(out[(0,) * (out.ndim - 3)].size - 1, out.shape)] = value
            return out

        return spoiled

    return wrap


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_raises_at_the_iteration_a_later_slab_goes_nan(kind):
    _, (stored, start, channel_ndim, channels), _ = _dual_case(kind, (70, 33, 16))
    with pytest.raises(DivergenceError, match=r"^dual update diverged at iteration 3$"):
        iterate(_spoiled(3, np.nan)(stored), start, channel_ndim, 1.0 / 6, 12, 0.0, channels)


@pytest.mark.parametrize("kind", KINDS)
def test_iterate_matches_the_reference_when_the_clip_norm_overflows(kind):
    """A finite step whose tuple norm overflows clips to zero there, without raising."""
    with np.errstate(over="ignore"):
        got, want = _run_both(kind, (70, 33, 16), 8, 0.0, _spoiled(3, 1e200))
    _assert_same_run(got, want)


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
    slabs = -(-dims[0] // (dual._SLAB // (dims[1] * dims[2])))
    assert slabs == 2 and len(calls) <= 2 * slabs

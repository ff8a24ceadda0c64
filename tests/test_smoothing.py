"""Gradient-field smoothing solve: fixed points, feasibility, convergence."""

import sys

import numpy as np
import pytest

from tvstokes import (
    ParameterError,
    PoissonPlan,
    SmoothingConfig,
    adjoint_grad,
    adjoint_grad_tensor,
    grad,
    grad_vec,
    inner,
    l2_norm,
    max_tuple_norm,
    project_gradient_field,
    smooth_gradient_field,
    smoothing_kkt_residual,
    smoothing_objective,
    unit_clip,
)
from tvstokes import smoothing
from tvstokes.fields import adjoint_hessian, hessian
from tvstokes.smoothing import dual_step

from oracles import (
    constant_cases, feasible_tensor, full_tensor_residual, iso_l1_norm, rand_scalar,
    rand_tensor, reference_iterate, symmetric_packing,
)


def test_zero_dual_zero_data_is_fixed_point():
    g0 = np.zeros((2, 4, 4))
    p = np.zeros((2, 2, 4, 4))
    assert np.all(dual_step(p, g0, SmoothingConfig()) == 0.0)


def test_first_step_closed_form():
    u = rand_scalar((5, 6), 0)
    g0 = grad(u)
    cfg = SmoothingConfig(lam=0.3)
    tau = cfg.resolve_tau(2)
    p0 = np.zeros((2, 2, 5, 6))
    got = dual_step(p0, g0, cfg)
    want = unit_clip(tau * grad_vec(g0) / cfg.lam, channel_ndim=2)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_dual_step_nonexpansive_at_default_tau():
    dims = (8, 8)
    g0 = grad(rand_scalar(dims, 1))
    cfg = SmoothingConfig(lam=0.2)
    for seed in range(20):
        pa = feasible_tensor(dims, 2 * seed + 10)
        pb = feasible_tensor(dims, 2 * seed + 11)
        da = dual_step(pa, g0, cfg) - dual_step(pb, g0, cfg)
        assert l2_norm(da) <= l2_norm(pa - pb) * (1.0 + 1e-12)


def test_dual_step_rejects_infeasible_dual():
    g0 = np.zeros((2, 4, 4))
    p = np.full((2, 2, 4, 4), 1.0)  # tuple norms are 2
    with pytest.raises(ParameterError):
        dual_step(p, g0, SmoothingConfig())


def test_dual_step_rejects_mismatched_shapes():
    from tvstokes import DimensionError

    with pytest.raises(DimensionError):
        dual_step(np.zeros((2, 2, 4, 4)), np.zeros((3, 4, 4)), SmoothingConfig())
    with pytest.raises(DimensionError):
        dual_step(np.zeros((2, 2, 4, 5)), np.zeros((2, 4, 4)), SmoothingConfig())


def test_constant_input_converges_immediately():
    for value, lam in [(3.0, 0.1)] + constant_cases(seed=3):
        res = smooth_gradient_field(np.full((4, 4, 4), value), SmoothingConfig(lam=lam))
        assert res.iters == 1
        assert np.all(res.g == 0.0)
        assert res.final_change == 0.0


def test_small_lam_keeps_input_field():
    u = rand_scalar((6, 6), 2)
    res = smooth_gradient_field(u, SmoothingConfig(lam=1e-8, max_iters=50))
    g0 = grad(u)
    assert max_tuple_norm(res.g - g0) <= 1e-6 * max_tuple_norm(g0)


def test_tau_probe_agreement():
    u = rand_scalar((8, 8, 8), 3)
    base = dict(lam=0.1, max_iters=5000, tol=1e-8)
    res_a = smooth_gradient_field(u, SmoothingConfig(tau=1.0 / 6.0, **base))
    res_b = smooth_gradient_field(u, SmoothingConfig(tau=1.0 / 12.0, **base))
    assert res_a.iters < 5000 and res_b.iters < 5000
    assert np.max(np.abs(res_a.g - res_b.g)) <= 1e-4


def test_objective_examples():
    u = rand_scalar((5, 5), 4)
    g0 = grad(u)
    assert smoothing_objective(g0, g0, 0.5) == pytest.approx(
        iso_l1_norm(grad_vec(g0), channel_ndim=2)
    )
    assert smoothing_objective(np.zeros_like(g0), g0, 0.5) == pytest.approx(
        l2_norm(g0) ** 2 / 1.0
    )
    # a Python float, near the whole-field formula; the driver's value too
    res = smooth_gradient_field(u, SmoothingConfig(lam=0.5, max_iters=3))
    for g in (grad(rand_scalar((5, 5), 7)), res.g):
        got = smoothing_objective(g, g0, 0.5)
        assert type(got) is float and got == pytest.approx(
            iso_l1_norm(grad_vec(g), channel_ndim=2) + inner(g - g0, g - g0), rel=1e-12)
    assert type(res.objective) is float and res.objective == got
    with pytest.raises(ParameterError):
        smoothing_objective(g0, g0, 0.0)


def test_objective_reads_any_memory_layout():
    g0, g = grad(rand_scalar((6, 7, 8), 5)), grad(rand_scalar((6, 7, 8), 6))
    want = smoothing_objective(g, g0, 0.3)
    assert smoothing_objective(np.asfortranarray(g), g0, 0.3) == want
    assert smoothing_objective(np.repeat(g, 2, axis=-1)[..., ::2], g0, 0.3) == want


def test_solver_beats_trivial_candidates():
    u = rand_scalar((8, 8, 8), 5)
    cfg = SmoothingConfig(lam=0.15, max_iters=4000, tol=1e-10)
    res = smooth_gradient_field(u, cfg)
    g0 = grad(u)
    bound = min(
        smoothing_objective(g0, g0, cfg.lam),
        smoothing_objective(np.zeros_like(g0), g0, cfg.lam),
    )
    assert res.objective <= bound + 1e-9


def test_kkt_residual_examples():
    g0 = np.zeros((2, 4, 4))
    p0 = np.zeros((2, 2, 4, 4))
    assert smoothing_kkt_residual(p0, g0, 0.3) == 0.0

    u = rand_scalar((5, 4), 6)
    g0 = grad(u)
    lam = 0.25
    want = np.max(np.abs(grad_vec(g0))) / lam
    assert smoothing_kkt_residual(np.zeros((2, 2, 5, 4)), g0, lam) == pytest.approx(want, rel=1e-12)


def test_converged_run_satisfies_stationarity():
    u = rand_scalar((8, 8, 8), 7)
    res = smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=5000, tol=1e-10))
    assert res.final_change <= 1e-10
    assert res.kkt_residual <= 1e-6


def test_dual_feasible_along_trajectory_and_matches_driver():
    u = rand_scalar((6, 6), 8)
    cfg = SmoothingConfig(lam=0.2)
    g0 = grad(u)
    p = np.zeros((2, 2, 6, 6))
    for k in range(30):
        p = dual_step(p, g0, cfg)
        assert max_tuple_norm(p, channel_ndim=2) <= 1.0 + 1e-14
    res = smooth_gradient_field(u, SmoothingConfig(lam=0.2, max_iters=30, tol=0.0))
    np.testing.assert_array_equal(res.p, p)


def test_result_is_a_gradient_field():
    u = rand_scalar((6, 7, 5), 9)
    res = smooth_gradient_field(u, SmoothingConfig(lam=0.1, max_iters=80))
    assert max_tuple_norm(project_gradient_field(res.g) - res.g) <= 1e-8


def test_distance_descent_endpoint():
    u = rand_scalar((6, 6, 6), 10)
    cfg = SmoothingConfig(lam=0.2, max_iters=200)
    res = smooth_gradient_field(u, cfg)
    g0 = grad(u)
    dist = l2_norm(g0 - cfg.lam * project_gradient_field(adjoint_grad_tensor(res.p)))
    assert dist <= l2_norm(g0) + 1e-12


def test_config_validation():
    with pytest.raises(ParameterError):
        smooth_gradient_field(np.zeros((4, 4)), SmoothingConfig(lam=-1.0))
    with pytest.raises(ParameterError):
        smooth_gradient_field(np.zeros((4, 4)), SmoothingConfig(max_iters=0))
    with pytest.raises(ParameterError):
        smooth_gradient_field(np.zeros((4, 4)), SmoothingConfig(tol=-1e-3))
    with pytest.raises(ParameterError):
        smooth_gradient_field(np.zeros((4, 4)), SmoothingConfig(tau=-0.1))


def test_tau_override_is_flagged_not_rejected():
    cfg = SmoothingConfig(tau=0.9)
    assert cfg.tau_exceeds_bound(2)
    assert not SmoothingConfig().tau_exceeds_bound(2)


def test_non_finite_data_raises_divergence_error():
    from tvstokes import DivergenceError

    g0 = np.zeros((2, 4, 4))
    g0[0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
        dual_step(np.zeros((2, 2, 4, 4)), g0, SmoothingConfig())


# ------------------------------------------------- packed symmetric dual

# 1, 3, 6 and 10 packed channels; a last axis of 8 strides its slices by 64 bytes
GRIDS = [(9,), (6, 5), (5, 4, 3), (3, 3, 2, 3), (12, 8), (8, 8, 8)]


@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_packed_residual_matches_full_tensor_oracle(dims):
    d = len(dims)
    t = rand_tensor(dims, 20)
    p = t + t.swapaxes(0, 1)
    g0 = grad(rand_scalar(dims, 21))
    lam = 0.3
    plan = PoissonPlan(dims)
    rows, cols, index = symmetric_packing(d)
    got = hessian(smoothing._bind(g0, lam, plan)(p[rows, cols]))
    assert got.shape == (d * (d + 1) // 2,) + dims
    want = full_tensor_residual(p, g0, lam, plan)
    assert np.max(np.abs(got[index] - want)) <= 1e-12 * np.max(np.abs(want))


# an axis longer than spectral._DENSE_MAX also runs the scipy.fft solve
@pytest.mark.parametrize("dims", GRIDS + [(70, 3)], ids=str)
def test_residual_borrowing_its_output_equals_fresh_arrays(dims):
    """The potential's solve borrows a dead work grid of the adjoint; its Hessian, whole
    or slab by slab, equals one computed in fresh arrays bit for bit."""
    d = len(dims)
    q = np.random.default_rng(23).standard_normal((d * (d + 1) // 2,) + dims)
    g0 = grad(rand_scalar(dims, 24))
    plan = PoissonPlan(dims)
    fresh = hessian(plan.solve(adjoint_hessian(q) - adjoint_grad(g0) / 0.3))
    before = q.copy()
    y = smoothing._bind(g0, 0.3, plan)(q)
    out = np.full_like(q, np.nan)  # stale contents must not leak into the result
    assert hessian(y, out) is out
    assert out.tobytes() == fresh.tobytes()
    slabs = [hessian(y, rows=(a, min(a + 2, dims[0]))) for a in range(0, dims[0], 2)]
    assert np.concatenate(slabs, axis=1).tobytes() == fresh.tobytes()
    assert q.tobytes() == before.tobytes()


@pytest.mark.parametrize("dims", GRIDS[:4] + [(70, 3)], ids=str)
def test_field_read_off_the_potential_equals_the_poisson_recovery(dims):
    """``-lam*grad(y)`` is ``grad(u0 - lam*solve(adjoint_hessian(p)))``: ``-lam*y`` and
    ``u0 - lam*solve(adjoint_hessian(p))`` differ by ``mean(u0)``, since
    ``solve(adjoint_grad(grad(u0)))`` is ``u0 - mean(u0)``, and ``grad`` drops the constant."""
    u = rand_scalar(dims, 26)
    cfg = SmoothingConfig(lam=0.3, max_iters=20, tol=0.0)
    res = smooth_gradient_field(u, cfg)
    want = grad(u - cfg.lam * PoissonPlan(dims).solve(adjoint_hessian(res.packed)))
    assert np.max(np.abs(res.g - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_result_p_is_the_symmetric_tensor_of_the_packed_dual(dims):
    d = len(dims)
    res = smooth_gradient_field(rand_scalar(dims, 25), SmoothingConfig(lam=0.2, max_iters=3))
    assert res.packed.shape == (d * (d + 1) // 2,) + dims
    p = res.p
    assert p.shape == (d, d) + dims and p.tobytes() == p.swapaxes(0, 1).tobytes()
    assert smoothing._pack(p).tobytes() == res.packed.tobytes()


@pytest.mark.parametrize("dims", GRIDS, ids=str)
def test_driver_matches_reference_loop_on_full_tensor_oracle(dims):
    d = len(dims)
    u = rand_scalar(dims, 22)
    cfg = SmoothingConfig(lam=0.3, max_iters=40, tol=0.0)
    g0 = grad(u)
    plan = PoissonPlan(dims)
    p, iters, _ = reference_iterate(
        lambda p: full_tensor_residual(p, g0, cfg.lam, plan),
        np.zeros((d, d) + dims), 2, cfg.resolve_tau(d), 40, 0.0)
    want = g0 - cfg.lam * project_gradient_field(adjoint_grad_tensor(p), plan)
    res = smooth_gradient_field(u, cfg)
    assert res.iters == iters == 40
    assert np.max(np.abs(res.g - want)) <= 1e-10
    assert np.max(np.abs(res.p - p)) <= 1e-10
    # the driver's diagnostics, taken on the packed dual, equal the public functions'
    assert res.kkt_residual == smoothing_kkt_residual(res.p, g0, cfg.lam)
    assert res.objective == smoothing_objective(res.g, g0, cfg.lam)


def test_dual_step_acts_on_the_symmetric_part():
    dims = (6, 5)
    g0 = grad(rand_scalar(dims, 23))
    cfg = SmoothingConfig(lam=0.2)
    p = feasible_tensor(dims, 24)  # not symmetric
    got = dual_step(p, g0, cfg)
    assert got.tobytes() == got.swapaxes(0, 1).tobytes()
    assert got.tobytes() == dual_step(0.5 * (p + p.swapaxes(0, 1)), g0, cfg).tobytes()
    # the given dual is checked, not its symmetric part: here that part is zero
    skew = np.zeros((2, 2) + dims)
    skew[0, 1], skew[1, 0] = 2.0, -2.0
    with pytest.raises(ParameterError):
        dual_step(skew, g0, cfg)


@pytest.mark.parametrize("install", [sys.settrace, sys.setprofile], ids=["settrace", "setprofile"])
def test_driver_runs_under_a_trace_or_profile_function(install):
    """A trace or profile function (debuggers, coverage, cProfile) adds references
    to every live array and changes no byte of the result."""
    u = rand_scalar((8, 8, 8), 27)
    cfg = SmoothingConfig(lam=0.2, max_iters=5)
    want = smooth_gradient_field(u, cfg)

    def tracer(frame, event, arg):
        return tracer

    trace, profile = sys.gettrace(), sys.getprofile()
    install(tracer)
    try:
        got = smooth_gradient_field(u, cfg)
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)
    for name in ("g", "p"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert (got.iters, got.final_change, got.kkt_residual, got.objective) == (
        want.iters, want.final_change, want.kkt_residual, want.objective)


# the original (5, 4) case, then GRIDS and two slabs
@pytest.mark.parametrize("dims", [(5, 4)] + GRIDS + [(70, 33, 16)], ids=str)
def test_kkt_residual_checks_the_given_dual_against_the_symmetric_residual(dims):
    g0 = grad(rand_scalar(dims, 25))
    lam = 0.2
    p = feasible_tensor(dims, 26, scale=0.5)
    w = full_tensor_residual(0.5 * (p + p.swapaxes(0, 1)), g0, lam)
    norm = np.sqrt(np.sum(w * w, axis=(0, 1)))
    want = np.max(np.abs(w + norm * p))
    assert smoothing_kkt_residual(p, g0, lam) == pytest.approx(want, rel=1e-12)

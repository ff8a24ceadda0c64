"""Vector-matching reconstruction: matching field, dual solve, objectives."""

import numpy as np
import pytest

from tvstokes import (
    DimensionError,
    ParameterError,
    ReconstructionConfig,
    adjoint_grad,
    grad,
    inner,
    l2_norm,
    matching_field,
    matching_kkt_residual,
    matching_objective,
    max_tuple_norm,
    pointwise_normalize,
    reconstruct,
    unit_clip,
)
from tvstokes.reconstruction import dual_step

from oracles import constant_cases, feasible_vector, iso_l1_norm, rand_scalar, rand_vector


def test_matching_field_zero():
    assert np.all(matching_field(np.zeros((2, 4, 4)), 1e-8) == 0.0)


def test_matching_field_1d_example():
    g = np.array([[2.0, -1.0, 0.0]])
    np.testing.assert_allclose(matching_field(g, 1e-8), [1.0, -2.0, 1.0], atol=1e-12)


def test_matching_field_scale_invariant():
    g = rand_vector((5, 6), 0) + 0.5  # keep tuple norms well above eps
    m1 = matching_field(g, 1e-8)
    m10 = matching_field(10.0 * g, 1e-8)
    assert np.max(np.abs(m1 - m10)) <= 1e-10


def test_zero_fixed_point():
    u0 = np.zeros((4, 4))
    m = np.zeros((4, 4))
    p = np.zeros((2, 4, 4))
    assert np.all(dual_step(p, u0, m, ReconstructionConfig()) == 0.0)


def test_first_step_closed_form():
    u0 = rand_scalar((5, 6), 1)
    g = rand_vector((5, 6), 2)
    cfg = ReconstructionConfig(lam=0.4)
    m = matching_field(g, cfg.eps)
    tau = cfg.resolve_tau(2)
    got = dual_step(np.zeros((2, 5, 6)), u0, m, cfg)
    want = unit_clip(tau * grad(u0 / cfg.lam - m), channel_ndim=1)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_dual_step_nonexpansive_at_default_tau():
    dims = (8, 8)
    u0 = rand_scalar(dims, 3)
    m = matching_field(rand_vector(dims, 4), 1e-8)
    cfg = ReconstructionConfig(lam=0.2)
    for seed in range(20):
        pa = feasible_vector(dims, 2 * seed + 20)
        pb = feasible_vector(dims, 2 * seed + 21)
        da = dual_step(pa, u0, m, cfg) - dual_step(pb, u0, m, cfg)
        assert l2_norm(da) <= l2_norm(pa - pb) * (1.0 + 1e-12)


def test_reconstruct_degenerates_to_identity_for_small_lam():
    u0 = rand_scalar((6, 6), 5) + 2.0
    g = np.zeros((2, 6, 6))
    res = reconstruct(u0, g, ReconstructionConfig(lam=1e-8, max_iters=50))
    assert np.max(np.abs(res.u - u0)) <= 1e-6 * np.max(np.abs(u0))


def test_reconstruct_constant_input_exact():
    """The image is recovered as ``u0 - lam*(y + u0/lam)``, exact here; ``-lam*y`` is not."""
    for value, lam in [(1.25, 0.3)] + constant_cases(seed=2):
        u0 = np.full((4, 5), value)
        res = reconstruct(u0, np.zeros((2, 4, 5)), ReconstructionConfig(lam=lam))
        np.testing.assert_array_equal(res.u, u0, err_msg=f"value={value!r}, lam={lam!r}")
        assert np.all(res.p == 0.0)


def test_endpoint_beats_zero_dual_candidate():
    u0 = rand_scalar((8, 8, 8), 6)
    g = grad(rand_scalar((8, 8, 8), 7))
    cfg = ReconstructionConfig(lam=0.15, max_iters=4000, tol=1e-10)
    res = reconstruct(u0, g, cfg)
    m = matching_field(g, cfg.eps)
    candidate = u0 - cfg.lam * m
    assert res.objective <= matching_objective(candidate, u0, g, cfg.lam, cfg.eps) + 1e-9


@pytest.mark.parametrize("dims", [(9,), (5, 5), (5, 4, 3), (3, 3, 2, 3), (70, 9)], ids=str)
def test_objective_examples(dims):
    u0 = rand_scalar(dims, 8)
    g = rand_vector(dims, 9)
    g[(slice(None),) + (0,) * len(dims)] = 1e-10  # a tuple below eps: g/eps, not g/|g|
    lam = 0.4
    u_const = np.full(dims, 0.7)
    want = 0.5 / lam * l2_norm(u_const - u0) ** 2
    assert matching_objective(u_const, u0, g, lam, 1e-8) == pytest.approx(want, rel=1e-12)
    assert matching_objective(u0, u0, np.zeros_like(g), lam, 1e-8) == pytest.approx(
        iso_l1_norm(grad(u0))
    )
    # a Python float, near the whole-field formula; the driver's value too
    res = reconstruct(u0, g, ReconstructionConfig(lam=lam, max_iters=3))
    for u in (rand_scalar(dims, 10), res.u):
        got = matching_objective(u, u0, g, lam, 1e-8)
        assert type(got) is float and got == pytest.approx(
            iso_l1_norm(grad(u)) + 0.5 / lam * inner(u - u0, u - u0)
            - inner(grad(u), pointwise_normalize(g, 1e-8)), rel=1e-12)
    assert type(res.objective) is float and res.objective == got
    with pytest.raises(ParameterError):
        matching_objective(u0, u0, g, -0.1, 1e-8)


def test_objective_matches_completed_square_up_to_constant():
    dims = (5, 6)
    u0 = rand_scalar(dims, 10)
    g = rand_vector(dims, 11)
    lam = 0.3
    eps = 1e-8
    m = matching_field(g, eps)
    offsets = []
    for seed in range(5):
        u = rand_scalar(dims, 100 + seed)
        direct = matching_objective(u, u0, g, lam, eps)
        completed = iso_l1_norm(grad(u)) + 0.5 / lam * l2_norm(u + lam * m - u0) ** 2
        offsets.append(direct - completed)
    assert np.ptp(offsets) <= 1e-10


def test_kkt_residual_examples():
    u0 = np.zeros((4, 4))
    m = np.zeros((4, 4))
    assert matching_kkt_residual(np.zeros((2, 4, 4)), u0, m, 0.2) == 0.0

    u0 = rand_scalar((5, 4), 12)
    m = matching_field(rand_vector((5, 4), 13), 1e-8)
    lam = 0.25
    want = np.max(np.abs(grad(m - u0 / lam)))
    got = matching_kkt_residual(np.zeros((2, 5, 4)), u0, m, lam)
    assert got == pytest.approx(want, rel=1e-12)


def test_converged_run_satisfies_stationarity():
    u0 = rand_scalar((8, 8, 8), 14)
    g = grad(rand_scalar((8, 8, 8), 15))
    cfg = ReconstructionConfig(lam=0.1, max_iters=5000, tol=1e-10)
    res = reconstruct(u0, g, cfg)
    assert res.final_change <= 1e-10
    assert res.kkt_residual <= 1e-6


def test_dual_feasible_along_trajectory():
    u0 = rand_scalar((6, 6), 16)
    g = rand_vector((6, 6), 17)
    cfg = ReconstructionConfig(lam=0.2)
    m = matching_field(g, cfg.eps)
    p = np.zeros((2, 6, 6))
    for _ in range(30):
        p = dual_step(p, u0, m, cfg)
        assert max_tuple_norm(p) <= 1.0 + 1e-14


def test_endpoint_distance_descent():
    u0 = rand_scalar((6, 6, 6), 18)
    g = grad(rand_scalar((6, 6, 6), 19))
    cfg = ReconstructionConfig(lam=0.2, max_iters=300)
    res = reconstruct(u0, g, cfg)
    m = matching_field(g, cfg.eps)
    shifted = u0 - cfg.lam * m
    assert l2_norm(shifted - cfg.lam * adjoint_grad(res.p)) <= l2_norm(shifted) + 1e-12


def test_tau_probe_agreement():
    u0 = rand_scalar((8, 8), 20)
    g = grad(rand_scalar((8, 8), 21))
    base = dict(lam=0.15, max_iters=5000, tol=1e-8)
    res_a = reconstruct(u0, g, ReconstructionConfig(tau=0.25, **base))
    res_b = reconstruct(u0, g, ReconstructionConfig(tau=0.125, **base))
    assert np.max(np.abs(res_a.u - res_b.u)) <= 1e-4


def test_jump_location_preserved():
    n = 16
    clean = np.where(np.arange(n) < 8, 0.2, 0.9)
    gdir = pointwise_normalize(grad(clean), 1e-8)
    noisy = clean + 0.05 * np.random.default_rng(22).standard_normal(n)
    res = reconstruct(noisy, gdir, ReconstructionConfig(lam=0.2, max_iters=5000, tol=1e-10))
    assert np.argmax(np.abs(np.diff(res.u))) == np.argmax(np.abs(np.diff(clean)))


def test_four_dimensional_volume():
    u0 = rand_scalar((3, 3, 3, 3), 23) * 0.2 + 0.5
    from tvstokes import SmoothingConfig, smooth_gradient_field

    step1 = smooth_gradient_field(u0, SmoothingConfig(lam=0.1, max_iters=60))
    res = reconstruct(u0, step1.g, ReconstructionConfig(lam=0.1, max_iters=60))
    assert res.u.shape == u0.shape
    assert np.isfinite(res.u).all()
    assert max_tuple_norm(res.p) <= 1.0 + 1e-14


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        reconstruct(np.zeros((4, 4)), np.zeros((3, 4, 4)), ReconstructionConfig())
    with pytest.raises(DimensionError):
        dual_step(np.zeros((3, 4, 4)), np.zeros((4, 4)), np.zeros((4, 4)),
                  ReconstructionConfig())


def test_bad_eps_rejected():
    with pytest.raises(ParameterError):
        reconstruct(np.zeros((4, 4)), np.zeros((2, 4, 4)), ReconstructionConfig(eps=0.0))


def test_boolean_eps_rejected():
    """``True`` or ``np.True_`` would pass as 1.0, as it would for ``lam``, ``tau`` or ``tol``."""
    for eps in (True, np.True_):
        with pytest.raises(ParameterError):
            reconstruct(np.zeros((4, 4)), np.zeros((2, 4, 4)), ReconstructionConfig(eps=eps))
        with pytest.raises(ParameterError):
            ReconstructionConfig(eps=eps)
        with pytest.raises(ParameterError):
            matching_field(np.zeros((2, 4, 4)), eps)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_eps_rejected(eps):
    with pytest.raises(ParameterError):
        reconstruct(np.zeros((4, 4)), np.zeros((2, 4, 4)), ReconstructionConfig(eps=eps))
    with pytest.raises(ParameterError):
        pointwise_normalize(np.zeros((2, 4, 4)), eps)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_field_rejected(bad):
    g = np.zeros((2, 4, 4))
    g[1, 2, 3] = bad
    with pytest.raises(ParameterError):
        reconstruct(np.zeros((4, 4)), g, ReconstructionConfig())


@pytest.mark.parametrize("dims", [(9,), (6, 5), (5, 4, 3), (3, 3, 2, 3), (70, 3)], ids=str)
def test_image_read_off_the_potential_equals_the_dual_recovery(dims):
    """``u0 - lam*(y + u0/lam)`` is ``u0 - lam*(adjoint_grad(p) + m)`` up to roundoff, and the
    KKT value taken from ``y`` is the public function's, bit for bit."""
    u0, g = rand_scalar(dims, 24), rand_vector(dims, 25)
    cfg = ReconstructionConfig(lam=0.2, max_iters=20, tol=0.0)
    res = reconstruct(u0, g, cfg)
    m = matching_field(g, cfg.eps)
    want = u0 - cfg.lam * (adjoint_grad(res.p) + m)
    assert np.max(np.abs(res.u - want)) <= 1e-12 * np.max(np.abs(want))
    assert res.kkt_residual == matching_kkt_residual(res.p, u0, m, cfg.lam)


def test_dual_step_matches_driver():
    u0 = rand_scalar((6, 5, 4), 22)
    g = rand_vector((6, 5, 4), 23)
    cfg = ReconstructionConfig(lam=0.2, max_iters=500, tol=1e-4)
    res = reconstruct(u0, g, cfg)
    assert 1 < res.iters < cfg.max_iters
    m = matching_field(g, cfg.eps)
    p = np.zeros((3, 6, 5, 4))
    for _ in range(res.iters):
        p = dual_step(p, u0, m, cfg)
    assert p.tobytes() == res.p.tobytes()

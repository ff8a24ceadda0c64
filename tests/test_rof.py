"""TV baseline: exactness cases, TV reduction, independent convex oracle."""

import numpy as np
import pytest

from tvstokes import RofConfig, adjoint_grad, grad, matching_kkt_residual, rof_denoise
from tvstokes import ReconstructionConfig, reconstruct

from oracles import constant_cases, dense_diff, iso_l1_norm, rand_scalar


def rof_1d_dual_oracle(f, lam, gap_tol=1e-8, max_iters=2_000_000):
    """Projected (sub)gradient descent on the dual of 1-D TV denoising.

    Minimizes ``0.5 * ||f - lam * D^T q||^2`` over the box ``|q_i| <= 1``
    with a fixed step, stopping on the primal-dual gap.  Dense matrices
    throughout; independent of the package's iteration.
    """
    n = f.size
    D = dense_diff(n)
    lipschitz = lam * lam * float(np.linalg.eigvalsh(D @ D.T).max())
    step = 1.0 / lipschitz
    q = np.zeros(n)
    gap = np.inf
    for k in range(max_iters):
        u = f - lam * (D.T @ q)
        q = np.clip(q + step * lam * (D @ u), -1.0, 1.0)
        if k % 100 == 0:
            u = f - lam * (D.T @ q)
            primal = np.sum(np.abs(D @ u)) + 0.5 / lam * np.sum((u - f) ** 2)
            dual = (np.sum(f * f) - np.sum(u * u)) / (2.0 * lam)
            gap = primal - dual
            if gap <= gap_tol:
                break
    assert gap <= gap_tol, f"oracle failed to converge, gap={gap}"
    return f - lam * (D.T @ q)


def test_constant_input_exact():
    """The image is recovered as ``u0 - lam*(y + u0/lam)``, exact here; ``-lam*y`` is not."""
    for value, lam in [(0.8, 0.5)] + constant_cases(seed=1):
        u0 = np.full((5, 5), value)
        res = rof_denoise(u0, RofConfig(lam=lam))
        np.testing.assert_array_equal(res.u, u0, err_msg=f"value={value!r}, lam={lam!r}")
        assert res.iters == 1


def test_small_lam_near_identity():
    u0 = rand_scalar((6, 6), 0) + 3.0
    res = rof_denoise(u0, RofConfig(lam=1e-8, max_iters=50))
    assert np.max(np.abs(res.u - u0)) <= 1e-6 * np.max(np.abs(u0))


def test_total_variation_reduced():
    rng = np.random.default_rng(1)
    for dims in [(12, 12), (8, 8, 8)]:
        u0 = rng.random(dims)
        res = rof_denoise(u0, RofConfig(lam=0.1, max_iters=2000, tol=1e-8))
        assert iso_l1_norm(grad(res.u)) <= iso_l1_norm(grad(u0))


def test_maximum_principle():
    rng = np.random.default_rng(2)
    for lam in (0.05, 0.3):
        u0 = rng.random((10, 10))
        res = rof_denoise(u0, RofConfig(lam=lam, max_iters=1000, tol=1e-9))
        assert res.u.min() >= u0.min() - 1e-9
        assert res.u.max() <= u0.max() + 1e-9


def test_matches_independent_convex_oracle():
    n = 16
    clean = np.where(np.arange(n) < 6, 0.1, 0.7)
    noisy = clean + 0.08 * np.random.default_rng(3).standard_normal(n)
    lam = 0.25
    want = rof_1d_dual_oracle(noisy, lam)
    res = rof_denoise(noisy, RofConfig(lam=lam, max_iters=100000, tol=1e-12))
    assert np.max(np.abs(res.u - want)) <= 1e-4


def test_objective_reported():
    u0 = rand_scalar((6, 6), 4)
    cfg = RofConfig(lam=0.2, max_iters=500, tol=1e-9)
    res = rof_denoise(u0, cfg)
    want = iso_l1_norm(grad(res.u)) + 0.5 / cfg.lam * float(np.sum((res.u - u0) ** 2))
    assert res.objective == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dims", [(9,), (6, 5), (5, 4, 3), (3, 3, 2, 3), (70, 3)], ids=str)
def test_image_read_off_the_potential_equals_the_dual_recovery(dims):
    """``u0 - lam*(y + u0/lam)`` is ``u0 - lam*adjoint_grad(p)`` up to roundoff, and the KKT
    value taken from ``y`` is the public function's, bit for bit."""
    u0 = rand_scalar(dims, 6)
    cfg = RofConfig(lam=0.2, max_iters=20, tol=0.0)
    res = rof_denoise(u0, cfg)
    want = u0 - cfg.lam * adjoint_grad(res.p)
    assert np.max(np.abs(res.u - want)) <= 1e-12 * np.max(np.abs(want))
    assert res.kkt_residual == matching_kkt_residual(res.p, u0, np.zeros(dims), cfg.lam)


def test_equals_reconstruction_with_zero_field():
    u0 = rand_scalar((7, 6, 5), 5)
    params = dict(lam=0.2, max_iters=40, tol=1e-7)
    res = rof_denoise(u0, RofConfig(**params))
    rec = reconstruct(u0, np.zeros((3, 7, 6, 5)), ReconstructionConfig(**params))
    assert res.iters == rec.iters
    assert res.u.tobytes() == rec.u.tobytes()
    assert res.p.tobytes() == rec.p.tobytes()
    assert res.objective == rec.objective

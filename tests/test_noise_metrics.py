"""Noise generator determinism and quality metrics."""

import math

import numpy as np
import pytest

from tvstokes import (
    DimensionError,
    ParameterError,
    add_gaussian_noise,
    psnr,
    staircase_metric,
    standard_normal_field,
)

from oracles import rand_scalar


# ------------------------------------------------------------------- noise

def test_zero_sigma_is_identity():
    u = rand_scalar((6, 6), 0)
    out = add_gaussian_noise(u, 0.0, seed=5)
    np.testing.assert_array_equal(out, u)
    assert out is not u


def test_noise_sample_statistics():
    u = np.zeros((64, 64, 64))
    noisy = add_gaussian_noise(u, 0.1, seed=99)
    assert abs(noisy.mean()) <= 0.002
    assert abs(noisy.std() - 0.1) <= 0.002


def test_same_seed_bitwise_identical():
    u = rand_scalar((16, 16), 1)
    a = add_gaussian_noise(u, 0.3, seed=1234)
    b = add_gaussian_noise(u, 0.3, seed=1234)
    assert a.tobytes() == b.tobytes()
    c = add_gaussian_noise(u, 0.3, seed=1235)
    assert a.tobytes() != c.tobytes()


def test_negative_sigma_rejected():
    with pytest.raises(ParameterError):
        add_gaussian_noise(np.zeros((4, 4)), -0.1, seed=0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_non_finite_sigma_rejected(sigma):
    with pytest.raises(ParameterError):
        add_gaussian_noise(np.zeros((4, 4)), sigma, seed=0)


def test_negative_seed_rejected():
    with pytest.raises(ParameterError):
        standard_normal_field((4, 4), seed=-1)
    with pytest.raises(ParameterError):
        add_gaussian_noise(np.zeros((4, 4)), 0.1, seed=-1)
    with pytest.raises(ParameterError):
        add_gaussian_noise(np.zeros((4, 4)), 0.0, seed=-1)


def test_standard_normal_field_is_finite_and_shaped():
    z = standard_normal_field((7, 5), seed=3)
    assert z.shape == (7, 5)
    assert np.isfinite(z).all()


# -------------------------------------------------------------------- psnr

def test_psnr_identical_is_infinite():
    u = rand_scalar((5, 5), 2)
    assert math.isinf(psnr(u, u.copy()))


def test_psnr_closed_form():
    ref = np.zeros((8, 8))
    test = np.full((8, 8), 0.5)
    assert psnr(ref, test, peak=1.0) == pytest.approx(6.0206, abs=1e-4)


def test_psnr_symmetric():
    a = rand_scalar((6, 6), 3)
    b = rand_scalar((6, 6), 4)
    assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-14)


def test_psnr_validation():
    with pytest.raises(DimensionError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(ParameterError):
        psnr(np.zeros((4, 4)), np.zeros((4, 4)), peak=0.0)


@pytest.mark.parametrize("peak", [float("nan"), float("inf")])
def test_psnr_rejects_non_finite_peak(peak):
    with pytest.raises(ParameterError):
        psnr(np.zeros((4, 4)), np.ones((4, 4)), peak=peak)


# --------------------------------------------------------------- staircase

def test_staircase_zero_on_affine_ramp():
    i = np.arange(8, dtype=np.float64)
    u = 0.5 * i[:, None] + 0.25 * np.ones(8)[None, :]
    assert staircase_metric(u) == 0.0


def test_staircase_1d_example():
    # interior second differences of the stair are [1, -1, 1, -1]
    assert staircase_metric(np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])) == pytest.approx(1.0)


def test_staircase_constant_shift_invariant():
    u = rand_scalar((6, 7), 5)
    assert staircase_metric(u + 4.75) == pytest.approx(staircase_metric(u), abs=1e-12)


def test_staircase_needs_three_samples_per_axis():
    with pytest.raises(DimensionError):
        staircase_metric(np.zeros((2, 5)))


def test_staircase_prefers_smooth_ramp_over_stairs():
    i = np.arange(12, dtype=np.float64)
    ramp = i / 11.0
    stairs = np.floor(i / 3.0) * (3.0 / 11.0)
    assert staircase_metric(ramp) < staircase_metric(stairs)

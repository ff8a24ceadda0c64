"""Noise generator determinism and quality metrics."""

import math
import warnings

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

from oracles import rand_scalar, reference_staircase


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


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), True,
                                   pytest.param(np.True_, id="np.True_")])
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
    for seed in (1.7, 1.0, True, np.float64(1.0)):  # each would seed the stream as 1
        with pytest.raises(ParameterError):
            standard_normal_field((4, 4), seed=seed)
        with pytest.raises(ParameterError):
            add_gaussian_noise(np.zeros((4, 4)), 0.0, seed=seed)
    assert np.array_equal(standard_normal_field((4, 4), seed=np.int64(1)),
                          standard_normal_field((4, 4), seed=1))


def test_standard_normal_field_is_finite_and_shaped():
    z = standard_normal_field((7, 5), seed=3)
    assert z.shape == (7, 5)
    assert np.isfinite(z).all()
    assert standard_normal_field((np.int64(7), np.uint8(5)), seed=3).tobytes() == z.tobytes()


@pytest.mark.parametrize("shape", [(3.7, 2), (True, 2), (-1, 2), 5], ids=str)
def test_standard_normal_field_rejects_a_bad_shape(shape):
    """A non-integral entry would be truncated, ``True`` read as 1, and a negative one
    would reach numpy."""
    with pytest.raises(DimensionError):
        standard_normal_field(shape, seed=3)


# -------------------------------------------------------------------- psnr

def test_psnr_identical_is_infinite():
    u = rand_scalar((5, 5), 2)
    assert math.isinf(psnr(u, u.copy()))


def test_psnr_closed_form():
    ref = np.zeros((8, 8))
    test = np.full((8, 8), 0.5)
    assert psnr(ref, test, peak=1.0) == pytest.approx(6.0206, abs=1e-4)
    assert psnr(ref, test, peak=1.0) == float(10.0 * np.log10(1.0 / 0.25))  # bit for bit


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


def test_psnr_rejects_boolean_peak():
    for peak in (True, np.True_):  # either would score with peak 1
        with pytest.raises(ParameterError):
            psnr(np.zeros((4, 4)), np.ones((4, 4)), peak)


@pytest.mark.parametrize("peak, mse", [(1e160, 1e-6), (1e-170, 1.0), (1.0, 1e-320)],
                         ids=["square-overflows", "square-underflows", "quotient-overflows"])
def test_psnr_of_distinct_inputs_is_finite_where_the_ratio_is_not(peak, mse):
    """``peak*peak/mse`` leaves the float range; ``20*log10(peak) - 10*log10(mse)`` does not."""
    z = np.zeros((4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning either
        got = psnr(z, z + math.sqrt(mse), peak=peak)
        assert psnr(z, z.copy(), peak=peak) == math.inf  # identical inputs only
    want = 20.0 * math.log10(peak) - 10.0 * math.log10(float(np.mean((z + math.sqrt(mse)) ** 2)))
    assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12)


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


@pytest.mark.parametrize("dims", [(9,), (6, 7), (5, 4, 8), (3, 4, 3, 5), (16, 40, 40)], ids=str)
@pytest.mark.parametrize("kind", ["random", "integer", "f32"])
def test_staircase_equals_the_array_expression_bitwise(dims, kind):
    """Evaluated in one scratch grid, the metric keeps the expression's roundings;
    integer values give exact zeros, and the input is left as it was."""
    u = rand_scalar(dims, 11)
    if kind == "integer":
        u = np.round(3.0 * u)
    elif kind == "f32":
        u = (255.0 * u).astype(np.float32)
    before = u.copy()
    assert staircase_metric(u) == reference_staircase(u)
    assert u.tobytes() == before.tobytes()

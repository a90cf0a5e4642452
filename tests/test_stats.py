"""Tests for error propagation, the variance of a mean of estimates and the
overflow-free square."""

import numpy as np
import pytest

from dqsim import stats


def test_squared_saturates_at_infinity():
    assert stats.squared(0.251) == 0.251 ** 2
    assert stats.squared(-3.0) == 9.0
    assert stats.squared(1e200) == np.inf
    assert stats.squared(np.inf) == np.inf


def test_phase_variance_arithmetic():
    assert stats.phase_variance((0.01, 0.01), 0.0) == pytest.approx(0.00125)
    assert stats.phase_variance((0.0, 0.0), 1.0) == 0.0
    assert stats.phase_variance((0.01, 0.01), 2.0) == np.inf
    with pytest.raises(ValueError):
        stats.phase_variance((0.01, 0.01), 2.5)


@pytest.mark.parametrize("variances, mean_sum, match", [
    ((np.nan, 0.1), 0.0, "variances must be nonnegative"),
    ((0.1, np.nan), 0.0, "variances must be nonnegative"),
    ((0.1, 0.1), np.nan, "correlator mean sum cannot exceed 2"),
])
def test_phase_variance_refuses_nan(variances, mean_sum, match):
    # a NaN failed neither check and came back as the variance
    with pytest.raises(ValueError, match=match):
        stats.phase_variance(variances, mean_sum)


def test_phase_variance_monotone_in_inputs():
    base = stats.phase_variance((0.01, 0.02), 0.5)
    assert stats.phase_variance((0.02, 0.02), 0.5) > base
    assert stats.phase_variance((0.01, 0.03), 0.5) > base


def test_batch_statistics_constant_input():
    assert stats.batch_statistics(np.full(200, 3.25)) == 0.0


def test_batch_statistics_short_input_is_infinite():
    # fewer than two estimates say nothing about their spread
    for estimates in ([], [0.3], np.zeros(0)):
        assert stats.batch_statistics(estimates) == np.inf


def test_batch_statistics_iid_normal_chi_square_band():
    # synthetic oracle: the means of B batches of s iid N(0, sigma0^2) values
    # have variance sigma0^2/s, and their sample variance a chi-square law;
    # check the 4-sigma band for the variance-of-mean estimate
    rng = np.random.default_rng(202)
    sigma0 = 1.7
    batches, size = 200, 100
    means = rng.normal(0.0, sigma0, size=(batches, size)).mean(axis=1)
    expected_batch_var = sigma0 ** 2 / size
    # Var(sample variance of B iid normals) = 2 var^2 / (B - 1)
    sd = expected_batch_var * np.sqrt(2.0 / (batches - 1))
    assert abs(stats.batch_statistics(means) - expected_batch_var / batches) < 4 * sd / batches


def test_batch_statistics_mirrors_windowed_acquisition():
    # one phase estimate per window of rounds, as a sweep's var_emp takes
    # them: the result is the sample variance over the count, bit for bit
    rng = np.random.default_rng(7)
    for windows in (2, 3, 20, 200):
        estimates = rng.uniform(0.0, np.pi / 2, size=windows)
        assert stats.batch_statistics(estimates) == np.var(estimates, ddof=1) / windows

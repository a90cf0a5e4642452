"""Tests for error propagation, windowed statistics and the overflow-free square."""

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


def test_phase_variance_monotone_in_inputs():
    base = stats.phase_variance((0.01, 0.02), 0.5)
    assert stats.phase_variance((0.02, 0.02), 0.5) > base
    assert stats.phase_variance((0.01, 0.03), 0.5) > base


def test_batch_statistics_constant_input():
    summary = stats.batch_statistics(np.full(200, 3.25), 20)
    assert summary.mean == pytest.approx(3.25)
    assert summary.batch_variance == 0.0
    assert summary.variance_of_mean == 0.0


def test_batch_statistics_mean_matches_full_sample_mean():
    rng = np.random.default_rng(4)
    values = rng.normal(size=600)
    summary = stats.batch_statistics(values, 30)
    assert summary.mean == pytest.approx(values.mean(), abs=1e-12)
    assert summary.dropped == 0


def test_batch_statistics_reports_dropped_remainder():
    summary = stats.batch_statistics(np.arange(103, dtype=float), 10)
    assert summary.dropped == 3
    assert summary.batch_size == 10


def test_batch_statistics_rejects_short_input():
    with pytest.raises(ValueError):
        stats.batch_statistics([1.0, 2.0], 5)


def test_batch_statistics_iid_normal_chi_square_band():
    # synthetic oracle: for B batches of s iid N(0, sigma0^2) values the
    # across-batch variance of batch means is sigma0^2/s with a chi-square
    # distribution; check the 4-sigma band for the variance-of-mean estimate
    rng = np.random.default_rng(202)
    sigma0 = 1.7
    batches, size = 200, 100
    values = rng.normal(0.0, sigma0, size=batches * size)
    summary = stats.batch_statistics(values, batches)
    expected_batch_var = sigma0 ** 2 / size
    # Var(sample variance of B iid normals) = 2 var^2 / (B - 1)
    sd = expected_batch_var * np.sqrt(2.0 / (batches - 1))
    assert abs(summary.batch_variance - expected_batch_var) < 4 * sd
    assert abs(summary.variance_of_mean - expected_batch_var / batches) < 4 * sd / batches
    assert summary.within_batch_variance == pytest.approx(sigma0 ** 2, rel=0.1)


def test_batch_statistics_mirrors_windowed_acquisition():
    # 200 windows of ~100 events each, the acquisition pattern the module
    # is designed around
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 1.0], size=200 * 100)
    summary = stats.batch_statistics(values, 200)
    assert summary.batches == 200
    assert summary.batch_size == 100
    se = np.sqrt(summary.variance_of_mean)
    assert abs(summary.mean) < 5 * se

"""Finite-sample estimation helpers: error propagation for the phase
estimator, the variance of a mean of independent estimates and an
overflow-free square.  The correlators themselves are per-label signed sums
of a transcript's cell counts (``protocol.check_fidelity``,
``protocol.estimate_phase``)."""

from __future__ import annotations

import math

import numpy as np


def squared(x: float) -> float:
    """x ** 2, or inf where the square overflows a float."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def phase_variance(correlator_variances, mean_sum: float) -> float:
    """Propagated variance of the half-arccos phase estimator.

    ``correlator_variances`` are the variances of the two correlator means
    and ``mean_sum`` is the sum of the two means; the result is
    (v1 + v2) / (4 (4 - mean_sum^2)), infinite at |mean_sum| = 2.  A NaN
    input fails the checks.
    """
    v1, v2 = correlator_variances
    if not (v1 >= 0 and v2 >= 0):
        raise ValueError("variances must be nonnegative")
    if not abs(mean_sum) <= 2:
        raise ValueError("correlator mean sum cannot exceed 2 in magnitude")
    if v1 == 0.0 and v2 == 0.0:
        return 0.0
    denom = 4.0 * (4.0 - mean_sum ** 2)
    if denom == 0.0:
        return math.inf
    return (v1 + v2) / denom


def batch_statistics(estimates) -> float:
    """Variance of the mean of independent estimates, one per window: their
    sample variance over their number, or inf with fewer than two."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size < 2:
        return math.inf
    return float(estimates.var(ddof=1)) / estimates.size

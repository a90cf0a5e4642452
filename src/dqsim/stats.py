"""Finite-sample estimation helpers: error propagation for the phase
estimator, windowed batch statistics and an overflow-free square.  The
correlators themselves are per-label signed sums of a transcript's cell
counts (``protocol.check_fidelity``, ``protocol.estimate_phase``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    (v1 + v2) / (4 (4 - mean_sum^2)), infinite at |mean_sum| = 2.
    """
    v1, v2 = correlator_variances
    if v1 < 0 or v2 < 0:
        raise ValueError("variances must be nonnegative")
    if abs(mean_sum) > 2:
        raise ValueError("correlator mean sum cannot exceed 2 in magnitude")
    if v1 == 0.0 and v2 == 0.0:
        return 0.0
    denom = 4.0 * (4.0 - mean_sum ** 2)
    if denom == 0.0:
        return math.inf
    return (v1 + v2) / denom


@dataclass(frozen=True)
class BatchSummary:
    """Windowed estimates: overall mean, its variance, and both dispersion
    conventions (variance across window means, mean of within-window
    variances)."""

    mean: float
    variance_of_mean: float
    batch_variance: float
    within_batch_variance: float
    batches: int
    batch_size: int
    dropped: int


def batch_statistics(values, batches: int) -> BatchSummary:
    """Split a sample into equal windows and aggregate per-window estimates.

    A remainder that does not fill the last window is dropped and reported.
    ``batch_variance`` (the across-window sample variance of window means) is
    the default dispersion; the pooled within-window variance is also
    exposed.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if batches < 1:
        raise ValueError("need at least one batch")
    if values.size < batches:
        raise ValueError("fewer values than batches")
    size = values.size // batches
    dropped = values.size - size * batches
    trimmed = values[: size * batches].reshape(batches, size)
    means = trimmed.mean(axis=1)
    mean = float(means.mean())
    if batches > 1:
        batch_var = float(means.var(ddof=1))
    else:
        batch_var = 0.0
    if size > 1:
        within = float(trimmed.var(axis=1, ddof=1).mean())
    else:
        within = 0.0
    return BatchSummary(
        mean=mean,
        variance_of_mean=batch_var / batches,
        batch_variance=batch_var,
        within_batch_variance=within,
        batches=batches,
        batch_size=size,
        dropped=dropped,
    )

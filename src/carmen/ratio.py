"""Classifier-driven log density-ratio estimation.

A probabilistic classifier trained to separate model simulations from
observed data yields, through its out-of-fold log-odds, per-point
estimates of log p_model(x) - log p_truth(x).  Their negated mean
estimates the KL divergence from the data-generating process to the
model predictive, conditional on what the classifier can discriminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import TemperedPosterior, predictive_sample
from .data import Dataset
from .discriminator import DEFAULT_RIDGE, FeatureMap, cv_log_odds
from .numerics import RngStream


@dataclass(frozen=True)
class LogRatioEstimate:
    """Per-point log-ratio values with their sum, mean and count."""

    per_point: np.ndarray
    sum: float
    mean: float
    n: int

    @classmethod
    def from_per_point(cls, values: np.ndarray) -> "LogRatioEstimate":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("per-point values must be a non-empty 1-D array")
        total = float(values.sum())
        return cls(per_point=values, sum=total, mean=total / values.size, n=values.size)

    def std_error(self) -> float:
        """Standard error of the mean (n-1 divisor)."""
        if self.n < 2:
            return float("nan")
        return float(self.per_point.std(ddof=1) / math.sqrt(self.n))


def _simulate(
    post: TemperedPosterior, x_valid: Dataset, n_sim: int, rng: RngStream
) -> Dataset:
    # a regression draw discriminates conditional response behavior: it
    # reuses the observed covariates, resampled with replacement
    idx = rng.substream(0).generator().integers(0, len(x_valid), size=n_sim)
    return predictive_sample(post, rng.substream(1), n_sim, like=x_valid.take(idx))


def estimate_log_ratio(
    post: TemperedPosterior,
    x_valid: Dataset,
    fm: FeatureMap,
    k: int,
    rng: RngStream,
    n_sim: int | None = None,
    ridge: float = DEFAULT_RIDGE,
) -> LogRatioEstimate:
    """Estimated log p_model/p_truth at each validation point.

    Simulates ``n_sim`` points from the posterior predictive (default:
    as many as there are validation points), trains the cross-validated
    classifier, and converts out-of-fold log-odds into density log-ratios
    with the class-prior offset ln(n_obs/n_sim).
    """
    n_obs = len(x_valid)
    if n_sim is None:
        n_sim = n_obs
    if n_sim < k:
        raise ValueError("n_sim must be at least the number of folds")
    simulated = _simulate(post, x_valid, n_sim, rng)
    odds = cv_log_odds(x_valid, simulated, fm, k, ridge, rng.substream(2))
    return LogRatioEstimate.from_per_point(odds + math.log(n_obs / n_sim))


def estimate_reverse_log_ratio(
    post: TemperedPosterior,
    x_valid: Dataset,
    fm: FeatureMap,
    k: int,
    rng: RngStream,
    n_sim: int | None = None,
    ridge: float = DEFAULT_RIDGE,
) -> LogRatioEstimate:
    """Same pipeline scored on the simulated points instead.

    The sign is flipped so the mean estimates the negated reverse KL,
    -KL(model || truth), mirroring the forward estimate's orientation.
    """
    n_obs = len(x_valid)
    if n_sim is None:
        n_sim = n_obs
    if n_sim < k:
        raise ValueError("n_sim must be at least the number of folds")
    simulated = _simulate(post, x_valid, n_sim, rng)
    odds = cv_log_odds(x_valid, simulated, fm, k, ridge, rng.substream(2), score="simulated")
    return LogRatioEstimate.from_per_point(-(odds + math.log(n_obs / n_sim)))

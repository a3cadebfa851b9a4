"""Classifier-driven log density-ratio estimation.

A probabilistic classifier trained to separate model simulations from
observed data yields, through its out-of-fold log-odds, per-point
estimates of log p_model(x) - log p_truth(x).  Their negated mean
estimates the KL divergence from the data-generating process to the
model predictive, conditional on what the classifier can discriminate;
the same fits, scored at the simulated points, estimate the reverse one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conjugate import TemperedPosterior, predictive_sample
from .data import Dataset
from .discriminator import FeatureMap, check_integer, cv_log_odds
from .logistic import DEFAULT_RIDGE, DecisionFunction
from .numerics import RngStream


@dataclass(frozen=True)
class LogRatioEstimate:
    """Per-point log-ratio values with their sum, mean and count.

    A classifier-based estimate also keeps its last fold's ``decision``
    function, which a later estimate can start from, and the stream
    ``rng`` it drew from, which no output holds.
    """

    per_point: np.ndarray
    sum: float
    mean: float
    n: int
    decision: DecisionFunction | None = field(default=None, repr=False)
    rng: RngStream | None = None

    @classmethod
    def from_per_point(
        cls, values: np.ndarray, decision: DecisionFunction | None = None, rng: RngStream | None = None
    ) -> "LogRatioEstimate":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("per-point values must be a non-empty 1-D array")
        total = float(values.sum())
        return cls(per_point=values, sum=total, mean=total / values.size, n=values.size, decision=decision, rng=rng)


def estimate_draws(
    post: TemperedPosterior, x_valid: Dataset, n_sim: int, rng: RngStream
) -> tuple[Dataset, RngStream]:
    """An estimate's ``n_sim`` points simulated on ``rng``'s substream 1, and its fold stream, substream 2.

    A regression draw reuses the observed covariates, resampled with replacement on
    substream 0, so that the classifier discriminates conditional response behavior.
    """
    like = None
    if x_valid.is_regression:
        like = x_valid.take(rng.substream(0).generator().integers(0, len(x_valid), size=n_sim))
    return predictive_sample(post, rng.substream(1), n_sim, like=like), rng.substream(2)


def estimate_log_ratio(
    post: TemperedPosterior,
    x_valid: Dataset,
    fm: FeatureMap,
    k: int,
    rng: RngStream,
    n_sim: int | None = None,
    ridge: float = DEFAULT_RIDGE,
    start: DecisionFunction | None = None,
) -> tuple[LogRatioEstimate, LogRatioEstimate]:
    """Forward and reverse log-ratio estimates from one cross-validated classifier.

    Simulates ``n_sim`` points from the posterior predictive (default:
    as many as there are validation points), trains the cross-validated
    classifier, its first fold started from ``start`` when given, and
    converts out-of-fold log-odds into density log-ratios with the
    class-prior offset ln(n_obs/n_sim).  The forward estimate is
    log p_model/p_truth at each validation point; its mean estimates
    -KL(truth || model).  The reverse estimate is the same log-ratio at
    each simulated point with its sign flipped, so its mean estimates
    -KL(model || truth) in the same orientation.  Both carry the last
    fold's decision function and ``rng``, and each holds its own values,
    so a caller that keeps one estimate frees the other's.
    """
    check_integer("k", k, 2)
    n_obs = len(x_valid)
    if n_sim is None:
        n_sim = n_obs
    if n_sim < k:
        raise ValueError("n_sim must be at least the number of folds")
    simulated, folds = estimate_draws(post, x_valid, n_sim, rng)
    odds, decision = cv_log_odds(x_valid, simulated, fm, k, ridge, folds, start=start)
    odds += math.log(n_obs / n_sim)
    return (
        LogRatioEstimate.from_per_point(odds[:n_obs].copy(), decision, rng),
        LogRatioEstimate.from_per_point(-odds[n_obs:], decision, rng),
    )

"""Hypothesis test for misspecification from per-point log ratios.

The null is that the expected log ratio is zero (the model is as good as
the generating process, within the classifier's reach); the one-tailed
alternative is that it is negative.  A small p-value is evidence of
misspecification; a large one is not a confirmation of anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import student_t_cdf
from .ratio import LogRatioEstimate


@dataclass(frozen=True)
class MisspecTestResult:
    statistic: float
    df: int
    p_value: float
    method: str  # "t-test"


def t_test_logz(est: LogRatioEstimate) -> MisspecTestResult:
    """One-tailed one-sample t-test of mean log ratio = 0 against < 0.

    The statistic is xbar / (s / sqrt(n)) with the n-1 divisor for s; the
    p-value is P(T_{n-1} <= t).  Degenerate zero-spread inputs resolve by
    contract: all-zero values give p = 1 (no evidence), constant negative
    values give p = 0, constant positive values give p = 1.
    """
    if est.n < 2:
        raise ValueError("t-test needs at least two per-point values")
    xbar = est.mean
    s = float(est.per_point.std(ddof=1))
    df = est.n - 1
    if s == 0.0:
        if xbar == 0.0:
            return MisspecTestResult(statistic=0.0, df=df, p_value=1.0, method="t-test")
        stat = -math.inf if xbar < 0.0 else math.inf
        return MisspecTestResult(statistic=stat, df=df, p_value=0.0 if xbar < 0.0 else 1.0, method="t-test")
    stat = xbar / (s / math.sqrt(est.n))
    return MisspecTestResult(statistic=stat, df=df, p_value=student_t_cdf(stat, df), method="t-test")

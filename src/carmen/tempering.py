"""Tempering-level selection and diagnostic curves.

The optimal level t* maximizes the log predictive score of held-out
validation data under the tempered posterior: a coarse scan over a
log-spaced grid followed by golden-section refinement in log10(t).
The curve runner evaluates the analytic and classifier-based log-ratio
diagnostics along the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import Model, SufficientStats, TemperedPredictive
from .data import Dataset
from .discriminator import DEFAULT_RIDGE, FeatureMap
from .numerics import RngStream
from .ratio import LogRatioEstimate, estimate_log_ratio, estimate_reverse_log_ratio
from .testing import MisspecTestResult, t_test_logz
from .truths import TruthSpec, truth_logpdf

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID_LO = 1e-8
DEFAULT_GRID_HI = 1.0
DEFAULT_GRID_COUNT = 50

# substream allocation inside curve(): 1 = estimate at t*, 2 = reverse
# estimate at t*, 1000+i = grid point i
_SUB_T_STAR = 1
_SUB_REVERSE = 2
_SUB_GRID_BASE = 1000


@dataclass(frozen=True)
class TemperingGrid:
    """Strictly increasing tempering levels in (0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("grid must be a non-empty 1-D array")
        if np.any(v <= 0.0) or np.any(v > 1.0):
            raise ValueError("grid values must lie in (0, 1]")
        if v.size > 1 and np.any(np.diff(v) <= 0.0):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "values", v)

    @classmethod
    def log_uniform(
        cls,
        lo: float = DEFAULT_GRID_LO,
        hi: float = DEFAULT_GRID_HI,
        count: int = DEFAULT_GRID_COUNT,
    ) -> "TemperingGrid":
        if not 0.0 < lo < hi <= 1.0:
            raise ValueError("need 0 < lo < hi <= 1")
        if count < 2:
            raise ValueError("count must be >= 2")
        return cls(np.logspace(math.log10(lo), math.log10(hi), count))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TStarResult:
    t_star: float
    log_predictive: float
    at_boundary: bool


def _score(pred: TemperedPredictive, t: float) -> float:
    ((_, lp_vec),) = pred.levels([t])
    return float(lp_vec.sum())


def _refine(pred: TemperedPredictive, ts: np.ndarray, scores: np.ndarray) -> TStarResult:
    """Golden-section refinement around the best of the grid ``scores`` at levels ``ts``.

    Each new level is scored with a one-level ``pred`` call, inside the
    bracket around the best grid point, to an absolute tolerance of 1e-3
    on log10 t.  A maximum at a grid edge is returned as-is and flagged.
    """
    best = int(np.argmax(scores))
    if best == 0 or best == len(ts) - 1:
        return TStarResult(t_star=float(ts[best]), log_predictive=float(scores[best]), at_boundary=True)

    lo, hi = math.log10(ts[best - 1]), math.log10(ts[best + 1])
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = _score(pred, 10.0**c)
    fd = _score(pred, 10.0**d)
    while b - a > 1e-3:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = _score(pred, 10.0**c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = _score(pred, 10.0**d)
    u = c if fc >= fd else d
    fu = max(fc, fd)
    # never return a refinement worse than the best grid point
    if fu >= scores[best]:
        return TStarResult(t_star=float(10.0**u), log_predictive=float(fu), at_boundary=False)
    return TStarResult(t_star=float(ts[best]), log_predictive=float(scores[best]), at_boundary=False)


@dataclass(frozen=True)
class CurvePoint:
    """One grid level's diagnostics; the field order is the order of the written columns."""

    t: float
    log_predictive: float | None
    logz_approx_sum: float | None = None
    logz_true_sum: float | None = None
    t_stat: float | None = None
    p_value: float | None = None


@dataclass(frozen=True)
class TemperingCurve:
    points: tuple[CurvePoint, ...]
    t_star: float
    t_star_boundary: bool
    log_predictive_at_t_star: float
    estimate_at_t_star: LogRatioEstimate
    test_at_t_star: MisspecTestResult
    true_at_t_star: LogRatioEstimate | None = None
    reverse_at_t_star: LogRatioEstimate | None = None


def curve(
    model: Model,
    truth: TruthSpec | None,
    x_update: Dataset,
    x_valid: Dataset,
    grid: TemperingGrid,
    fm: FeatureMap,
    k: int,
    rng: RngStream,
    ridge: float = DEFAULT_RIDGE,
    full_curve: bool = False,
    reverse: bool = False,
) -> TemperingCurve:
    """Diagnostics along the tempering grid plus the headline result at t*.

    One batched pass over the grid evaluates each level's predictive
    density once; its sum is both the t* search's grid score and the
    curve's log predictive, and, less the truth density (evaluated once
    per call), the analytic log ratio.  Classifier-based estimates along
    the whole grid cost one cross-validated fit per point and are opt-in
    via ``full_curve``; the estimate at t* is always computed.  A level
    whose predictive cannot be evaluated aborts the run, since t* needs
    every level; any later failure at a level is recorded with missing
    fields.

    The classifier fits of a run form one chain: each grid level's
    cross-validated fit starts from the last good level's decision
    function, the estimate at t* from the one carried at the grid level
    nearest t* (in log t), and the reverse estimate from the estimate at
    t*.  So the levels are fitted in order.
    """
    pred = TemperedPredictive(model, SufficientStats.from_dataset(x_update), x_valid)
    truth_lp = None if truth is None else truth_logpdf(truth, x_valid)
    ts = grid.values
    scores = np.empty(ts.size)
    points: list[CurvePoint] = []
    decision = None  # the last good level's classifier
    carried = []  # the classifier carried out of each level
    for i, (post, lp_vec) in enumerate(pred.levels(ts)):
        scores[i] = lp = float(lp_vec.sum())
        try:
            true_sum = None if truth_lp is None else float((lp_vec - truth_lp).sum())
            approx_sum = t_stat = p_value = None
            if full_curve:
                est = estimate_log_ratio(
                    post, x_valid, fm, k, rng.substream(_SUB_GRID_BASE + i), ridge=ridge, start=decision
                )
                res = t_test_logz(est)
                approx_sum = est.sum
                t_stat = res.statistic
                p_value = res.p_value
                decision = est.decision
            points.append(
                CurvePoint(
                    t=post.t,
                    log_predictive=lp,
                    logz_approx_sum=approx_sum,
                    logz_true_sum=true_sum,
                    t_stat=t_stat,
                    p_value=p_value,
                )
            )
        except (ValueError, RuntimeError, np.linalg.LinAlgError):
            points.append(CurvePoint(t=post.t, log_predictive=None))
        carried.append(decision)

    opt = _refine(pred, ts, scores)
    ((post_star, lp_star),) = pred.levels([opt.t_star])
    nearest = int(np.argmin(np.abs(np.log(ts) - math.log(opt.t_star))))
    est_star = estimate_log_ratio(
        post_star, x_valid, fm, k, rng.substream(_SUB_T_STAR), ridge=ridge, start=carried[nearest]
    )
    test_star = t_test_logz(est_star)
    true_star = None
    if truth_lp is not None:
        true_star = LogRatioEstimate.from_per_point(lp_star - truth_lp)
    reverse_star = None
    if reverse:
        reverse_star = estimate_reverse_log_ratio(
            post_star, x_valid, fm, k, rng.substream(_SUB_REVERSE), ridge=ridge, start=est_star.decision
        )

    return TemperingCurve(
        points=tuple(points),
        t_star=opt.t_star,
        t_star_boundary=opt.at_boundary,
        log_predictive_at_t_star=opt.log_predictive,
        estimate_at_t_star=est_star,
        test_at_t_star=test_star,
        true_at_t_star=true_star,
        reverse_at_t_star=reverse_star,
    )

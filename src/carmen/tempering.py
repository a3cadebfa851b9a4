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

from .conjugate import Model, SufficientStats, TemperedPosterior, TemperedPredictive
from .data import Dataset
from .discriminator import FeatureMap
from .logistic import DEFAULT_RIDGE
from .numerics import RngStream
from .ratio import LogRatioEstimate, estimate_log_ratio
from .testing import MisspecTestResult, t_test_logz
from .truths import TruthSpec

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_GRID_LO = 1e-8
DEFAULT_GRID_HI = 1.0
DEFAULT_GRID_COUNT = 50


def call_stream(rng: RngStream, level: int | None = None, reverse: bool = False) -> RngStream:
    """The stream of one of ``curve``'s classifier calls, on the run's classifier stream ``rng``.

    Grid level ``level`` takes substream 1000 + level, the estimate at t*
    substream 1, and its ``reverse`` substream 2.
    """
    if level is not None:
        return rng.substream(1000 + level)
    return rng.substream(2 if reverse else 1)


@dataclass(frozen=True)
class TemperingGrid:
    """Strictly increasing tempering levels in (0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("grid must be a non-empty 1-D array")
        # written so that a NaN, which fails every comparison, fails them too
        if not np.all((v > 0.0) & (v <= 1.0)):
            raise ValueError("grid values must lie in (0, 1]")
        if not np.all(np.diff(v) > 0.0):
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


def _level_score(t: float, lp: float) -> float:
    """Level ``t``'s summed log predictive; t* cannot be chosen if it is not finite."""
    if not math.isfinite(lp):
        raise ValueError(f"the log predictive of the validation data at tempering level t={t:.6g} is {lp}")
    return lp


def _refine(pred: TemperedPredictive, ts: np.ndarray, scores: np.ndarray) -> tuple[float, float, bool]:
    """Golden-section refinement around the best of the grid ``scores`` at levels ``ts``.

    Each new level is scored by a one-level ``pred.sums`` call, inside the
    bracket around the best grid point, to an absolute tolerance of 1e-3
    on log10 t.  Returns ``(t_star, log_predictive, at_boundary)``: a
    maximum at a grid edge is returned as-is and flagged.
    """
    best = int(np.argmax(scores))
    if best == 0 or best == len(ts) - 1:
        return float(ts[best]), float(scores[best]), True

    def score(log10_t: float) -> float:
        ((post, lp),) = pred.sums([10.0**log10_t])
        return _level_score(post.t, lp)

    lo, hi = math.log10(ts[best - 1]), math.log10(ts[best + 1])
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = score(c), score(d)
    while b - a > 1e-3:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = score(d)
    u = c if fc >= fd else d
    fu = max(fc, fd)
    # never return a refinement worse than the best grid point
    if fu >= scores[best]:
        return float(10.0**u), float(fu), False
    return float(ts[best]), float(scores[best]), False


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


def _search(
    model: Model, truth: TruthSpec | None, x_update: Dataset, x_valid: Dataset, ts: np.ndarray
) -> tuple[list, tuple[float, float, bool], TemperedPosterior, LogRatioEstimate | None]:
    """The t* search and the exact log ratios, before any classifier is fitted.

    One batched call sums each grid level's predictive density, without
    building its per-point row; that sum is both the t* search's grid
    score and the curve's log predictive, and, less the truth density
    summed once per call, the exact log-ratio sum.  Returns each grid
    level's ``(posterior, log predictive, exact log-ratio sum or None)``,
    ``_refine``'s ``(t_star, log_predictive, at_boundary)``, the posterior
    at t* and the exact estimate there, the one level whose per-point row
    is built.  The search's per-point arrays live only in this call, so
    the classifier calls that follow do not hold them.
    """
    pred = TemperedPredictive(model, SufficientStats.from_dataset(x_update), x_valid)
    truth_lp = None if truth is None else truth.logpdf(x_valid)
    truth_sum = None if truth_lp is None else float(truth_lp.sum())
    levels = [
        (post, _level_score(post.t, lp), None if truth_sum is None else lp - truth_sum)
        for post, lp in pred.sums(ts)
    ]
    refined = _refine(pred, ts, np.array([lp for _, lp, _ in levels]))
    post_star, lp_star = pred.row(refined[0])
    true_star = None if truth_lp is None else LogRatioEstimate.from_per_point(lp_star - truth_lp)
    return levels, refined, post_star, true_star


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

    The t* search and the exact log ratios come first (``_search``), so
    the classifier fits that follow hold none of its per-point arrays.
    Classifier-based estimates along the whole grid cost one
    cross-validated fit per point and are opt-in via ``full_curve``; the
    estimate at t* is always computed.  A level whose log predictive
    cannot be evaluated, or is not finite, aborts the run, since t* needs
    every level; any later failure at a level is recorded with missing
    fields.

    The classifier fits of a run form one chain: each grid level's
    cross-validated fit starts from the last good level's decision
    function, the estimate at t* from the one carried at the grid level
    nearest t* (in log t), and the reverse estimate from the estimate at
    t*.  So the levels are fitted in order.
    """
    ts = grid.values
    levels, refined, post_star, true_star = _search(model, truth, x_update, x_valid, ts)
    t_star, lp_at_t_star, at_boundary = refined
    points: list[CurvePoint] = []
    decision = None  # the last good level's classifier
    carried = []  # the classifier carried out of each level
    for i, (post, lp, true_sum) in enumerate(levels):
        try:
            approx_sum = t_stat = p_value = None
            if full_curve:
                est = estimate_log_ratio(
                    post, x_valid, fm, k, call_stream(rng, i), ridge=ridge, start=decision
                )[0]
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
        except (ValueError, RuntimeError):  # np.linalg.LinAlgError is a ValueError
            points.append(CurvePoint(t=post.t, log_predictive=None))
        carried.append(decision)

    nearest = int(np.argmin(np.abs(np.log(ts) - math.log(t_star))))
    # Only the forward half is kept, so the reverse half is freed here.
    est_star = estimate_log_ratio(
        post_star, x_valid, fm, k, call_stream(rng), ridge=ridge, start=carried[nearest]
    )[0]
    test_star = t_test_logz(est_star)
    reverse_star = None
    if reverse:
        _, reverse_star = estimate_log_ratio(
            post_star, x_valid, fm, k, call_stream(rng, reverse=True), ridge=ridge, start=est_star.decision
        )

    return TemperingCurve(
        points=tuple(points),
        t_star=t_star,
        t_star_boundary=at_boundary,
        log_predictive_at_t_star=lp_at_t_star,
        estimate_at_t_star=est_star,
        test_at_t_star=test_star,
        true_at_t_star=true_star,
        reverse_at_t_star=reverse_star,
    )

"""Tempered conjugate updates and their analytic posterior predictives.

Three exponential-family models are supported, each with a closed-form
power update: the likelihood contribution enters every sufficient
statistic scaled by the tempering level ``t`` in [0, 1].  ``t = 0``
returns the prior exactly and ``t = 1`` is the standard Bayes update.
Each model declares the ``kind`` of data it describes: "real" values,
"count" values or "regression" (response, covariate) pairs.  Every posterior
scores a :class:`Dataset` with ``predictive_logpdf(data)`` and draws one with
``predictive_sample(rng, n, like)``, a regression draw at ``like.covariates``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .numerics import (
    CountTable, RngStream, _student_t_log_norm, require_finite_fields, require_gaussian_scales,
)


def _reject_covariates(like: Dataset | None) -> None:
    if like is not None and like.covariates is not None:
        raise ValueError("covariates are only meaningful for regression models")


def _check_t(t: float) -> float:
    t = float(t)
    if not (np.isfinite(t) and 0.0 <= t <= 1.0):
        raise ValueError(f"tempering level must lie in [0, 1], got {t!r}")
    return t


@dataclass(frozen=True)
class SufficientStats:
    """Sufficient statistics of an update batch.

    For univariate families ``sum_x``/``sum_xx`` are moments of the
    values; for regression they are moments of the covariates, and
    ``sum_xy``/``sum_yy`` carry the response.
    """

    n: int
    sum_x: float = 0.0
    sum_xx: float = 0.0
    sum_xy: float = 0.0
    sum_yy: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        for name in ("sum_x", "sum_xx", "sum_xy", "sum_yy"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n > 0:
            slack = 1e-9 * max(1.0, abs(self.sum_xx))
            if self.sum_xx < self.sum_x**2 / self.n - slack:
                raise ValueError("sum_xx inconsistent with sum_x")

    @classmethod
    def from_dataset(cls, data: Dataset) -> "SufficientStats":
        """The statistics of update data ``data``; a sum that overflows float64 is rejected, naming its terms."""
        y, x = data.values, data.covariates
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by its terms
            if x is None:
                sums = [("sum_x", "its values", y.sum()), ("sum_xx", "squares of its values", (y * y).sum())]
            else:
                sums = [("sum_x", "its covariates", x.sum()), ("sum_xx", "squares of its covariates", (x * x).sum()),
                        ("sum_xy", "products of its covariates and values", (x * y).sum()),
                        ("sum_yy", "squares of its values", (y * y).sum())]
        for _, terms, total in sums:
            if not math.isfinite(total):
                raise ValueError(f"update data overflows float64: the sum of {terms} is {total}")
        return cls(n=len(data), **{name: float(total) for name, _, total in sums})


# ---------------------------------------------------------------------------
# Gaussian with known observation noise, conjugate normal prior on the mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianKnownVarModel:
    """x ~ N(mu, noise_sd^2) with mu ~ N(prior_mean, prior_sd^2)."""

    kind = "real"
    noise_sd: float
    prior_mean: float
    prior_sd: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        require_gaussian_scales(self, "noise_sd", "prior_sd")

    def posterior(self, stats: SufficientStats, t: float) -> "GaussianPosterior":
        t = _check_t(t)
        noise_var = self.noise_sd**2
        precision = 1.0 / self.prior_sd**2 + t * stats.n / noise_var
        mean = (self.prior_mean / self.prior_sd**2 + t * stats.sum_x / noise_var) / precision
        return GaussianPosterior(noise_sd=self.noise_sd, mean=mean, precision=precision, t=t)


@dataclass(frozen=True)
class GaussianPosterior:
    """Tempered posterior N(mean, 1/precision) over the Gaussian mean."""

    noise_sd: float
    mean: float
    precision: float
    t: float

    @property
    def sd(self) -> float:
        return self.precision**-0.5

    @property
    def predictive_var(self) -> float:
        return self.noise_sd**2 + 1.0 / self.precision

    def predictive_logpdf(self, data: Dataset) -> np.ndarray:
        return _GaussianTerms(data).row(self)

    def predictive_sample(self, rng: RngStream, n: int, like: Dataset | None = None) -> Dataset:
        _reject_covariates(like)
        g = rng.generator()
        mus = g.normal(self.mean, self.sd, size=n)
        return Dataset(g.normal(mus, self.noise_sd))


# ---------------------------------------------------------------------------
# Poisson counts with conjugate gamma prior on the rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonGammaModel:
    """x ~ Poisson(lam) with lam ~ Gamma(shape, rate)."""

    kind = "count"
    shape: float
    rate: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not (self.shape > 0.0 and self.rate > 0.0):
            raise ValueError("shape and rate must be positive")

    def posterior(self, stats: SufficientStats, t: float) -> "PoissonGammaPosterior":
        t = _check_t(t)
        return PoissonGammaPosterior(
            shape=self.shape + t * stats.sum_x,
            rate=self.rate + t * stats.n,
            t=t,
        )


@dataclass(frozen=True)
class PoissonGammaPosterior:
    """Tempered posterior Gamma(shape, rate); negative-binomial predictive."""

    shape: float
    rate: float
    t: float

    def predictive_logpdf(self, data: Dataset) -> np.ndarray:
        return _CountTerms(data).row(self)

    def predictive_sample(self, rng: RngStream, n: int, like: Dataset | None = None) -> Dataset:
        _reject_covariates(like)
        g = rng.generator()
        lams = g.gamma(self.shape, 1.0 / self.rate, size=n)
        return Dataset(g.poisson(lams).astype(float))


class _CountTerms:
    """The t-independent per-point terms of the negative-binomial predictive of counts ``data``.

    The predictive is evaluated once per distinct count, by
    ``CountTable.negbinom_logpmf``, and gathered back to every point, so a
    row costs a table lookup per point.
    """

    def __init__(self, data: Dataset) -> None:
        self.table = CountTable(data.values)
        bad = data.values[~self.table.support]
        if bad.size:
            raise ValueError(f"counts must be whole numbers >= 0, got {float(bad[0])}")

    def _table(self, posts: Sequence[PoissonGammaPosterior]) -> np.ndarray:
        """The (levels x distinct counts) table of log masses, one row per posterior."""
        r = np.array([p.shape for p in posts])[:, None]
        # per-row math.log, not np.log on the column: np.log moves the last bits
        log_p = np.array([[math.log(p.rate / (1.0 + p.rate))] for p in posts])
        log_q = np.array([[math.log(1.0 / (1.0 + p.rate))] for p in posts])
        return self.table.negbinom_logpmf(r, log_p, log_q)

    def row(self, post: PoissonGammaPosterior) -> np.ndarray:
        """Each point's log mass under ``post``: its one-level table, gathered to every point."""
        return self._table([post])[0][self.table.inverse]  # every point is on the support (checked above)

    def sums(self, posts: Sequence[PoissonGammaPosterior]) -> np.ndarray:
        """Each posterior's summed log mass: its table row weighed by how often each count occurs."""
        return self._table(posts) @ self.table.multiplicity


# ---------------------------------------------------------------------------
# Univariate linear regression (no intercept) with normal-inverse-gamma prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NIGRegressionModel:
    """y ~ N(theta*x, sigma^2); theta | sigma^2 ~ N(coef_mean, sigma^2/precision_scale),
    sigma^2 ~ InvGamma(shape, scale)."""

    kind = "regression"
    coef_mean: float
    precision_scale: float
    shape: float
    scale: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if not (self.precision_scale > 0.0 and self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("precision_scale, shape and scale must be positive")

    def posterior(self, stats: SufficientStats, t: float) -> "NIGRegressionPosterior":
        t = _check_t(t)
        lam = self.precision_scale + t * stats.sum_xx
        coef = (self.precision_scale * self.coef_mean + t * stats.sum_xy) / lam
        shape = self.shape + 0.5 * t * stats.n
        scale = self.scale + 0.5 * (
            t * stats.sum_yy + self.precision_scale * self.coef_mean**2 - lam * coef**2
        )
        if scale <= 0.0:
            raise RuntimeError("posterior scale collapsed to a nonpositive value")
        return NIGRegressionPosterior(coef=coef, coef_precision=lam, shape=shape, scale=scale, t=t)


@dataclass(frozen=True)
class NIGRegressionPosterior:
    """Tempered normal-inverse-gamma posterior; Student-t predictive."""

    coef: float
    coef_precision: float
    shape: float
    scale: float
    t: float

    def predictive_logpdf(self, data: Dataset) -> np.ndarray:
        return _RegressionTerms(data).row(self)

    def predictive_sample(self, rng: RngStream, n: int, like: Dataset | None = None) -> Dataset:
        if like is None or like.covariates is None:
            raise ValueError("regression predictive sampling requires covariates")
        x = like.covariates
        if x.shape != (n,):
            raise ValueError(f"covariates must have shape ({n},), got {x.shape}")
        g = rng.generator()
        sigma_sq = 1.0 / g.gamma(self.shape, 1.0 / self.scale, size=n)
        theta = g.normal(self.coef, np.sqrt(sigma_sq / self.coef_precision))
        y = theta * x + g.normal(0.0, np.sqrt(sigma_sq))
        return Dataset(y, covariates=x)


class _RegressionTerms:
    """The t-independent per-point terms of the Student-t predictive of regression responses.

    A level with nu = 2 shape, squared scales s^2 = (scale/shape)(1 + x^2/lambda)
    and residuals e = y - coef x sums to n c(nu) - (nu+1)/2 sum log1p(e^2/s^2/nu)
    - sum ln(s^2)/2, c the log-normaliser: no square root per point, and one log
    of s^2 where the row takes ln s.  The squared residual is (e/s^2) e, which
    overflows where the row's (e/s)^2 does, and ln s^2 overflows where s^2 does,
    so a level whose row is not finite sums to -inf or nan as well.
    """

    def __init__(self, data: Dataset) -> None:
        if data.covariates is None:
            raise ValueError("regression predictive requires covariates")
        self.x, self.y = data.covariates, data.values
        self.xx = self.x * self.x

    def row(self, post: NIGRegressionPosterior) -> np.ndarray:
        """Each point's log density under ``post``."""
        df = 2.0 * post.shape
        s = np.sqrt((post.scale / post.shape) * (1.0 + self.xx / post.coef_precision))
        z = (self.y - post.coef * self.x) / s
        return (_student_t_log_norm(df) - 0.5 * (df + 1.0) * np.log1p(z * z / df)) - np.log(s)

    def sums(self, posts: Sequence[NIGRegressionPosterior]) -> np.ndarray:
        """Each posterior's summed log density, without its row; a sum that is not finite is left for the caller."""
        out = np.empty(len(posts))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for i, p in enumerate(posts):
                nu = 2.0 * p.shape
                s2 = (p.scale / p.shape) * (1.0 + self.xx / p.coef_precision)
                e = self.y - p.coef * self.x
                out[i] = (
                    self.y.size * _student_t_log_norm(nu)
                    - 0.5 * (nu + 1.0) * np.log1p(e / s2 * e / nu).sum() - 0.5 * np.log(s2).sum()
                )
        return out


class _GaussianTerms:
    """The Gaussian predictive per point, and level sums from three statistics of the data.

    A level with predictive N(m, v) sums to -n/2 ln(2 pi v) - (S/2)/v,
    where S = sum (x - xbar)^2 + n (xbar - m)^2.  The mean xbar is kept as
    its rounded value plus the mean residual about it, so that xbar - m
    stays exact to rounding when m is close to xbar.  Halving S before the
    division makes a level overflow to -inf where the sum of its row does.
    """

    def __init__(self, data: Dataset) -> None:
        self.values = data.values

    @cached_property
    def _moments(self) -> tuple[float, float, float]:
        """The mean, the mean residual about it and the centred sum of squares, on the first ``sums`` call."""
        x = self.values
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes every level -inf, as in the rows
            mean = float(x.mean())
            centred = x - mean
            mean_residual = float(centred.mean())
            ss = float(centred @ centred) - x.size * mean_residual * mean_residual
        return mean, mean_residual, math.inf if math.isnan(ss) else ss

    def row(self, post: GaussianPosterior) -> np.ndarray:
        """Each point's log density under ``post``; a residual too large for a tiny variance gives -inf, unwarned."""
        v = post.predictive_var
        with np.errstate(over="ignore"):
            return -0.5 * (np.log(2.0 * np.pi * v) + (self.values - post.mean) ** 2 / v)

    def sums(self, posts: Sequence[GaussianPosterior]) -> np.ndarray:
        """Each posterior's summed log density, from the statistics alone."""
        mean, mean_residual, centred_ss = self._moments
        n = self.values.size
        v = np.array([p.predictive_var for p in posts])
        shift = (mean - np.array([p.mean for p in posts])) + mean_residual
        with np.errstate(over="ignore"):
            return -0.5 * n * np.log(2.0 * np.pi * v) - (0.5 * (centred_ss + n * shift * shift)) / v


# The per-point terms of each kind of data.
_TERMS = {"real": _GaussianTerms, "count": _CountTerms, "regression": _RegressionTerms}

Model = GaussianKnownVarModel | PoissonGammaModel | NIGRegressionModel
TemperedPosterior = GaussianPosterior | PoissonGammaPosterior | NIGRegressionPosterior


def temper_update(model: Model, stats: SufficientStats, t: float) -> TemperedPosterior:
    """Closed-form tempered posterior for any of the three families."""
    return model.posterior(stats, t)


class TemperedPredictive:
    """Log predictive of fixed ``data`` under ``model`` tempered on fixed ``stats``.

    Built once per run, it computes the terms that do not depend on the
    tempering level.  :meth:`row` at level t is bitwise equal to the
    ``predictive_logpdf`` method of ``temper_update(model, stats, t)`` on
    ``data``.  :meth:`sums` scores a vector of levels, each entry that
    level's row summed without building it: a Gaussian sum comes from the
    data's count, mean and centred sum of squares, a count sum from a
    table over the distinct counts and a regression sum from sums of logs
    per point, so these differ from the row's sum by rounding only.
    """

    def __init__(self, model: Model, stats: SufficientStats, data: Dataset) -> None:
        self.model = model
        self.stats = stats
        self._terms = _TERMS[model.kind](data)

    def row(self, t: float) -> tuple[TemperedPosterior, np.ndarray]:
        """``(posterior, per-point log predictive)`` at level ``t``."""
        post = temper_update(self.model, self.stats, float(t))
        return post, self._terms.row(post)

    def sums(self, ts) -> Iterator[tuple[TemperedPosterior, float]]:
        """``(posterior, summed log predictive)`` for each level of ``ts``; a sum may be -inf or nan."""
        posts = [temper_update(self.model, self.stats, float(t)) for t in ts]
        return zip(posts, map(float, self._terms.sums(posts)))


def predictive_sample(
    post: TemperedPosterior, rng: RngStream, n: int, like: Dataset | None = None
) -> Dataset:
    """Ancestral draw of ``n`` predictive points; a regression draw is made at ``like.covariates``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return post.predictive_sample(rng, n, like)

"""Benchmark data-generating processes with exact log densities.

Every truth pairs a sampler with its closed-form log density,
``logpdf(data)`` per point and -inf off its support, so the
analytical log ratio against a model predictive can be computed as an
oracle alongside the classifier-based estimate.  Each truth declares the
``kind`` of data it generates: "real" values, "count" values or
"regression" (response, covariate) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .numerics import (
    CountTable, RngStream, _student_t_log_norm, log_beta, log_gamma, normal_cdf, require_finite_fields,
    require_gaussian_scales,
)


def _normal_logpdf(resid: np.ndarray, sd: float) -> np.ndarray:
    """Log density of residuals ``resid`` under N(0, sd^2)."""
    return -0.5 * (np.log(2.0 * np.pi * sd**2) + (resid / sd) ** 2)


@dataclass(frozen=True)
class GaussianTruth:
    kind = "real"
    mean: float
    sd: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        require_gaussian_scales(self, "sd")

    def sample(self, rng: RngStream, n: int) -> Dataset:
        return Dataset(rng.generator().normal(self.mean, self.sd, size=n))

    def logpdf(self, data: Dataset) -> np.ndarray:
        return _normal_logpdf(data.values - self.mean, self.sd)


@dataclass(frozen=True)
class LaplaceTruth:
    kind = "real"
    loc: float
    scale: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    def sample(self, rng: RngStream, n: int) -> Dataset:
        return Dataset(rng.generator().laplace(self.loc, self.scale, size=n))

    def logpdf(self, data: Dataset) -> np.ndarray:
        x = data.values
        return -math.log(2.0 * self.scale) - np.abs(x - self.loc) / self.scale


@dataclass(frozen=True)
class NegBinomialTruth:
    """Counts with pmf proportional to (1-p)^r p^x, so the mean is r p/(1-p)."""

    kind = "count"
    r: float
    p: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.r <= 0.0 or not 0.0 < self.p < 1.0:
            raise ValueError("need r > 0 and p in (0, 1)")

    def sample(self, rng: RngStream, n: int) -> Dataset:
        draws = rng.generator().negative_binomial(self.r, 1.0 - self.p, size=n)
        return Dataset(draws.astype(float))

    def logpdf(self, data: Dataset) -> np.ndarray:
        table = CountTable(data.values)
        return table.gather(table.negbinom_logpmf(self.r, math.log1p(-self.p), math.log(self.p)))


@dataclass(frozen=True)
class BetaBinomialTruth:
    kind = "count"
    a: float
    b: float
    trials: int

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.trials != int(self.trials):
            raise ValueError(f"trials must be a whole number, got {self.trials!r}")
        object.__setattr__(self, "trials", int(self.trials))
        if self.a <= 0.0 or self.b <= 0.0 or self.trials < 1:
            raise ValueError("need a, b > 0 and trials >= 1")

    def sample(self, rng: RngStream, n: int) -> Dataset:
        g = rng.generator()
        probs = g.beta(self.a, self.b, size=n)
        return Dataset(g.binomial(self.trials, probs).astype(float))

    def logpdf(self, data: Dataset) -> np.ndarray:
        table = CountTable(data.values, hi=self.trials)
        xu, m = table.counts, float(self.trials)
        return table.gather(
            log_gamma(m + 1.0) - table.log_factorial - log_gamma(m - xu + 1.0)
            + log_beta(xu + self.a, m - xu + self.b) - log_beta(self.a, self.b)
        )


def _covariates(data: Dataset) -> np.ndarray:
    if data.covariates is None:
        raise ValueError("regression truths need covariates")
    return data.covariates


def _uniform_covariates(g: np.random.Generator, n: int) -> np.ndarray:
    # covariates are drawn U(-1, 1) so the sigmoid mean traverses its
    # full dynamic range
    return g.uniform(-1.0, 1.0, size=n)


@dataclass(frozen=True)
class TNoiseRegressionTruth:
    """y = x + Student-t noise; density is conditional on the covariate."""

    kind = "regression"
    df: float = 3.0
    scale: float = 1.22

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.df <= 0.0 or self.scale <= 0.0:
            raise ValueError("df and scale must be positive")

    def sample(self, rng: RngStream, n: int) -> Dataset:
        g = rng.generator()
        x = _uniform_covariates(g, n)
        y = x + self.scale * g.standard_t(self.df, size=n)
        return Dataset(y, covariates=x)

    def logpdf(self, data: Dataset) -> np.ndarray:
        z = (data.values - _covariates(data)) / self.scale
        df = self.df
        return _student_t_log_norm(df) - math.log(self.scale) - 0.5 * (df + 1.0) * np.log1p(z * z / df)


@dataclass(frozen=True)
class SigmoidRegressionTruth:
    """y = amplitude*(Phi(steepness*x) - 1/2) + Gaussian noise."""

    kind = "regression"
    amplitude: float = 5.0
    steepness: float = 10.0
    noise_sd: float = 0.1

    def __post_init__(self) -> None:
        require_finite_fields(self)
        require_gaussian_scales(self, "noise_sd")

    def mean_fn(self, x) -> np.ndarray:
        return self.amplitude * (normal_cdf(self.steepness * np.asarray(x, float)) - 0.5)

    def sample(self, rng: RngStream, n: int) -> Dataset:
        g = rng.generator()
        x = _uniform_covariates(g, n)
        y = self.mean_fn(x) + g.normal(0.0, self.noise_sd, size=n)
        return Dataset(y, covariates=x)

    def logpdf(self, data: Dataset) -> np.ndarray:
        return _normal_logpdf(data.values - self.mean_fn(_covariates(data)), self.noise_sd)


TruthSpec = (
    GaussianTruth
    | LaplaceTruth
    | NegBinomialTruth
    | BetaBinomialTruth
    | TNoiseRegressionTruth
    | SigmoidRegressionTruth
)

"""Truth samplers, their exact densities, and the analytic log ratio."""

import dataclasses
import math

import numpy as np
import pytest

from carmen.conjugate import PoissonGammaModel, SufficientStats, temper_update
from carmen.data import Dataset
from carmen.numerics import RngStream
from carmen.truths import (
    BetaBinomialTruth,
    GaussianTruth,
    LaplaceTruth,
    NegBinomialTruth,
    SigmoidRegressionTruth,
    TNoiseRegressionTruth,
)
from oracles import GAUSS_MODEL, POISSON_MODEL, exact_log_ratio, gaussian_predictive_kl, nbinom_predictive_kl, std_error

ALL_TRUTHS = [
    GaussianTruth(0.0, 3.01),
    LaplaceTruth(0.0, 2.13),
    NegBinomialTruth(63.0, 0.488),
    BetaBinomialTruth(41.75, 78.25, 80),
    TNoiseRegressionTruth(),
    SigmoidRegressionTruth(),
]


class TestSamplers:
    def test_gaussian_sd(self):
        data = GaussianTruth(0.0, 3.01).sample(RngStream(0), 100000)
        assert data.values.std() == pytest.approx(3.01, rel=0.02)

    def test_betabinom_mean(self):
        data = BetaBinomialTruth(41.75, 78.25, 80).sample(RngStream(1), 100000)
        assert data.values.mean() == pytest.approx(80 * 41.75 / 120.0, rel=0.02)

    def test_negbinom_mean(self):
        data = NegBinomialTruth(63.0, 0.488).sample(RngStream(2), 100000)
        assert data.values.mean() == pytest.approx(63.0 * 0.488 / 0.512, rel=0.02)

    def test_sigmoid_zero_covariate_centered(self):
        truth = SigmoidRegressionTruth()
        assert truth.mean_fn(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_sigmoid_band(self):
        truth = SigmoidRegressionTruth()
        data = truth.sample(RngStream(3), 100000)
        resid = np.abs(data.values - truth.mean_fn(data.covariates))
        assert np.mean(resid <= 5 * 0.1) >= 0.9999

    def test_regression_covariates_in_unit_interval(self):
        data = TNoiseRegressionTruth().sample(RngStream(4), 10000)
        assert data.covariates.min() >= -1.0
        assert data.covariates.max() <= 1.0

    def test_n_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            GaussianTruth(0.0, 1.0).sample(RngStream(0), 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianTruth(0.0, -1.0)
        with pytest.raises(ValueError):
            NegBinomialTruth(63.0, 1.2)
        with pytest.raises(ValueError):
            BetaBinomialTruth(1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "truth,name",
        [(t, f.name) for t in ALL_TRUTHS for f in dataclasses.fields(t)],
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, truth, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            dataclasses.replace(truth, **{name: bad})

    @pytest.mark.parametrize(
        "make, message",
        [(lambda: LaplaceTruth(0.0, 0.0), "scale must be positive"),
         (lambda: TNoiseRegressionTruth(df=0.0), "df and scale must be positive"),
         (lambda: TNoiseRegressionTruth(scale=-1.0), "df and scale must be positive")],
        ids=["laplace-scale", "tnoise-df", "tnoise-scale"],
    )
    def test_nonpositive_scale_message(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_trials_must_be_whole(self):
        with pytest.raises(ValueError, match="trials must be a whole number"):
            BetaBinomialTruth(41.75, 78.25, 80.5)
        whole = BetaBinomialTruth(41.75, 78.25, 80.0)
        assert whole == BetaBinomialTruth(41.75, 78.25, 80)
        assert type(whole.trials) is int


class TestLogpdf:
    def test_laplace_mode(self):
        data = Dataset(np.array([0.0]))
        lp = LaplaceTruth(0.0, 2.13).logpdf(data)
        assert lp[0] == pytest.approx(math.log(1.0 / (2 * 2.13)), rel=1e-14)

    def test_negbinom_mass_sums_to_one(self):
        truth = NegBinomialTruth(63.0, 0.488)
        xs = Dataset(np.arange(0, 10001, dtype=float))
        assert np.exp(truth.logpdf(xs)).sum() == pytest.approx(1.0, abs=1e-10)

    def test_betabinom_mass_sums_to_one(self):
        truth = BetaBinomialTruth(41.75, 78.25, 80)
        xs = Dataset(np.arange(0, 81, dtype=float))
        assert np.exp(truth.logpdf(xs)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_outside_support_is_minus_inf(self):
        bb = BetaBinomialTruth(41.75, 78.25, 80)
        out = bb.logpdf(Dataset(np.array([81.0, -1.0, 40.0])))
        assert out[0] == -np.inf and out[1] == -np.inf and np.isfinite(out[2])
        # no count in the support leaves an empty CountTable
        none_inside = bb.logpdf(Dataset(np.array([81.0, -1.0, 200.0])))
        assert none_inside.shape == (3,) and np.all(none_inside == -np.inf)

    @pytest.mark.parametrize(
        "truth,mass_at_81",
        [(NegBinomialTruth(63.0, 0.488), True), (BetaBinomialTruth(41.75, 78.25, 80), False)],
        ids=["negbinom", "betabinom"],
    )
    def test_only_whole_counts_in_range_have_mass(self, truth, mass_at_81):
        out = truth.logpdf(Dataset(np.array([2.5, 40.5, -1.0, -0.5, 40.0, 81.0])))
        assert np.all(out[:4] == -np.inf) and np.isfinite(out[4])
        assert np.isfinite(out[5]) == mass_at_81  # 81 is above the beta-binomial's trials

    @pytest.mark.parametrize("truth", ALL_TRUTHS, ids=lambda t: type(t).__name__)
    def test_declared_kind_matches_samples(self, truth):
        data = truth.sample(RngStream(5), 50)
        assert data.is_regression == (truth.kind == "regression")
        assert bool(np.all(data.values == np.floor(data.values))) == (truth.kind == "count")
        if truth.kind == "regression":
            with pytest.raises(ValueError, match="regression truths need covariates"):
                truth.logpdf(Dataset(data.values))

    def test_tnoise_at_origin(self):
        truth = TNoiseRegressionTruth(df=3.0, scale=1.22)
        data = Dataset(np.array([0.0]), covariates=np.array([0.0]))
        # Student-t(3) scaled density at zero, closed form
        expected = math.lgamma(2.0) - math.lgamma(1.5) - 0.5 * math.log(3 * math.pi) - math.log(1.22)
        assert truth.logpdf(data)[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("truth", ALL_TRUTHS, ids=lambda t: type(t).__name__)
    def test_sampler_density_consistency(self, truth):
        # empirical mean log-likelihood of draws matches its own expectation
        # (negative entropy) within 4 standard errors
        data = truth.sample(RngStream(99), 100000)
        lp = truth.logpdf(data)
        half = lp[:50000], lp[50000:]
        se = lp.std(ddof=1) / math.sqrt(lp.size / 2)
        assert abs(half[0].mean() - half[1].mean()) < 4 * math.sqrt(2) * se


class TestTrueLogRatio:
    def test_identity_case_near_zero(self):
        # tempered predictive NB(63, 1.05) essentially equals the truth
        post = temper_update(
            PoissonGammaModel(3.0, 0.05),
            SufficientStats(n=1000, sum_x=60000.0, sum_xx=3.7e6),
            1e-3,
        )
        truth = NegBinomialTruth(63.0, 0.488)
        xv = truth.sample(RngStream(7), 20000)
        est = exact_log_ratio(post, truth, xv)
        assert abs(est.mean) < 0.003

    def test_single_matching_point_is_zero(self):
        post = temper_update(
            PoissonGammaModel(3.0, 0.05),
            SufficientStats(n=1000, sum_x=60000.0, sum_xx=3.7e6),
            1e-3,
        )
        truth = NegBinomialTruth(63.0, 1.0 / 2.05)
        xv = Dataset(np.array([60.0]))
        est = exact_log_ratio(post, truth, xv)
        assert est.n == 1
        assert est.sum == pytest.approx(0.0, abs=1e-10)

    def test_gauss_laplace_sum_matches_reported_level(self):
        from carmen.conjugate import GaussianKnownVarModel

        model = GaussianKnownVarModel(0.1, 0.0, 9.9)
        truth = LaplaceTruth(0.0, 2.13)
        xu = truth.sample(RngStream(8), 1000)
        xv = truth.sample(RngStream(9), 1000)
        stats = SufficientStats.from_dataset(xu)
        ts = np.logspace(-8, 0, 80)
        sums = [
            exact_log_ratio(temper_update(model, stats, float(t)), truth, xv).sum for t in ts
        ]
        best = max(sums)
        assert -71.8 * 1.3 <= best <= -71.8 * 0.7

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 1.0])
    @pytest.mark.parametrize(
        "truth", [GaussianTruth(0.0, 3.01), LaplaceTruth(0.0, 2.13)], ids=["gauss", "laplace"]
    )
    def test_mean_log_ratio_is_minus_closed_form_kl(self, truth, t):
        # the scenario's predictive against 200,000 truth draws: the mean
        # exact log ratio estimates -KL(truth || predictive)
        stats = SufficientStats.from_dataset(truth.sample(RngStream(50), 1000))
        post = temper_update(GAUSS_MODEL, stats, t)
        est = exact_log_ratio(post, truth, truth.sample(RngStream(51), 200000))
        assert abs(est.mean + gaussian_predictive_kl(post, truth)) < 4 * std_error(est)

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 1.0])
    def test_mean_log_ratio_is_minus_nbinom_series_kl(self, t):
        # poisson-nb's predictive against 200,000 truth draws: the mean
        # exact log ratio estimates -KL(truth || predictive), a series with
        # a bounded rest, and its spread the oracle's sd
        truth = NegBinomialTruth(63.0, 0.488)
        stats = SufficientStats.from_dataset(truth.sample(RngStream(50), 1000))
        post = temper_update(POISSON_MODEL, stats, t)
        kl, sd = nbinom_predictive_kl(post, truth)
        est = exact_log_ratio(post, truth, truth.sample(RngStream(51), 200000))
        assert abs(est.mean + kl) < 4 * std_error(est)
        assert est.per_point.std() == pytest.approx(sd, rel=0.02)

    @pytest.mark.parametrize(
        "truth,model,t",
        [
            (GaussianTruth(0.0, 3.01), None, 1e-6),
            (LaplaceTruth(0.0, 2.13), None, 1e-6),
            (NegBinomialTruth(63.0, 0.488), "poisson", 1e-3),
        ],
        ids=["gauss", "laplace", "negbinom"],
    )
    def test_gibbs_inequality(self, truth, model, t):
        # expected log ratio can never be positive beyond Monte Carlo noise
        from carmen.conjugate import GaussianKnownVarModel

        if model == "poisson":
            m = PoissonGammaModel(3.0, 0.05)
        else:
            m = GaussianKnownVarModel(0.1, 0.0, 9.9)
        xu = truth.sample(RngStream(40), 1000)
        xv = truth.sample(RngStream(41), 10000)
        post = temper_update(m, SufficientStats.from_dataset(xu), t)
        est = exact_log_ratio(post, truth, xv)
        assert est.mean < 3 * std_error(est)

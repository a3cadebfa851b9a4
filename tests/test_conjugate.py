"""Tempered conjugate updates against closed forms and quadrature oracles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from carmen.cli import SCENARIOS, ScenarioConfig, run_draws
from carmen.conjugate import (
    GaussianKnownVarModel,
    GaussianPosterior,
    NIGRegressionModel,
    NIGRegressionPosterior,
    PoissonGammaModel,
    PoissonGammaPosterior,
    SufficientStats,
    TemperedPredictive,
    _GaussianTerms,
    predictive_sample,
    temper_update,
)
from carmen.data import Dataset
from carmen.numerics import RngStream, log_gamma
from carmen.truths import (
    BetaBinomialTruth,
    GaussianTruth,
    NegBinomialTruth,
    SigmoidRegressionTruth,
    TNoiseRegressionTruth,
)

GAUSS = GaussianKnownVarModel(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9)
POIS = PoissonGammaModel(shape=3.0, rate=0.05)
NIG = NIGRegressionModel(coef_mean=0.0, precision_scale=1.0, shape=2.0, scale=2.0)


class TestTemperUpdate:
    def test_t_zero_returns_prior(self):
        stats = SufficientStats(n=1000, sum_x=2345.0, sum_xx=3e4)
        post = temper_update(GAUSS, stats, 0.0)
        assert post.mean == 0.0
        assert post.precision == pytest.approx(1.0 / 9.9**2, rel=1e-15)

        ppost = temper_update(POIS, stats, 0.0)
        assert (ppost.shape, ppost.rate) == (3.0, 0.05)

        rstats = SufficientStats(n=10, sum_x=1.0, sum_xx=3.0, sum_xy=2.0, sum_yy=9.0)
        rpost = temper_update(NIG, rstats, 0.0)
        assert (rpost.coef, rpost.coef_precision, rpost.shape, rpost.scale) == (0.0, 1.0, 2.0, 2.0)

    def test_poisson_closed_form(self):
        stats = SufficientStats(n=1000, sum_x=60000.0, sum_xx=60000.0**2 / 1000 + 1)
        post = temper_update(POIS, stats, 1e-3)
        assert post.shape == pytest.approx(63.0, rel=1e-12)
        assert post.rate == pytest.approx(1.05, rel=1e-12)

    def test_gaussian_full_update_sd(self):
        stats = SufficientStats(n=1000, sum_x=0.0, sum_xx=9000.0)
        post = temper_update(GAUSS, stats, 1.0)
        assert post.sd == pytest.approx((1.0 / 98.01 + 1e5) ** -0.5, rel=1e-10)

    def test_t_one_is_standard_conjugate(self):
        # textbook untempered updates, written out independently
        data = GaussianTruth(0.0, 3.01).sample(RngStream(0), 50)
        stats = SufficientStats.from_dataset(data)
        post = temper_update(GAUSS, stats, 1.0)
        n, xbar = 50, data.values.mean()
        prec = 1.0 / 9.9**2 + n / 0.01
        assert post.precision == pytest.approx(prec, rel=1e-14)
        assert post.mean == pytest.approx((n * xbar / 0.01) / prec, rel=1e-12)

        counts = NegBinomialTruth(63.0, 0.488).sample(RngStream(1), 50)
        cstats = SufficientStats.from_dataset(counts)
        cpost = temper_update(POIS, cstats, 1.0)
        assert cpost.shape == pytest.approx(3.0 + counts.values.sum(), rel=1e-14)
        assert cpost.rate == pytest.approx(0.05 + 50.0, rel=1e-14)

    def test_gaussian_precision_monotone_in_t(self):
        stats = SufficientStats(n=100, sum_x=30.0, sum_xx=400.0)
        ts = np.linspace(0.0, 1.0, 25)
        precs = [temper_update(GAUSS, stats, float(t)).precision for t in ts]
        assert np.all(np.diff(precs) > 0)

    def test_t_out_of_range(self):
        stats = SufficientStats(n=10, sum_x=1.0, sum_xx=1.0)
        with pytest.raises(ValueError):
            temper_update(GAUSS, stats, -0.1)
        with pytest.raises(ValueError):
            temper_update(GAUSS, stats, 1.1)

    def test_inconsistent_stats_rejected(self):
        with pytest.raises(ValueError):
            SufficientStats(n=10, sum_x=100.0, sum_xx=1.0)

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: SufficientStats(n=-1), ValueError, "n must be nonnegative"),
            (lambda: SufficientStats(n=2, sum_x=math.inf), ValueError, "sum_x must be finite"),
            (lambda: dataclasses.replace(POIS, shape=0.0), ValueError, "shape and rate must be positive"),
            (lambda: dataclasses.replace(NIG, scale=0.0), ValueError,
             "precision_scale, shape and scale must be positive"),
            # sum_yy = 0 under sum_xy^2 / sum_xx = 100 leaves the noise a
            # scale of 2 + (0 - 2 * 5^2) / 2 = -23.
            (lambda: temper_update(NIG, SufficientStats(n=1, sum_xx=1.0, sum_xy=10.0), 1.0), RuntimeError,
             "posterior scale collapsed to a nonpositive value"),
            (lambda: predictive_sample(temper_update(GAUSS, SufficientStats(n=0), 1.0), RngStream(0), 0),
             ValueError, "n must be >= 1"),
        ],
        ids=["negative-n", "non-finite-sum", "poisson-gamma", "nig", "nig-scale-collapsed", "no-draws"],
    )
    def test_bad_input_message(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    def test_response_sum_does_not_widen_the_covariate_check(self):
        # The slack scales with sum_xx alone: sum_xx = 9 against
        # sum_x**2 / n = 10 was accepted once sum_yy = 1e12 widened it.
        with pytest.raises(ValueError, match="sum_xx inconsistent with sum_x"):
            SufficientStats(n=10, sum_x=10.0, sum_xx=9.0, sum_yy=1e12)

    @pytest.mark.parametrize(
        "model,name",
        [(m, f.name) for m in (GAUSS, POIS, NIG) for f in dataclasses.fields(m)],
    )
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, model, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            dataclasses.replace(model, **{name: bad})


class TestPredictive:
    def test_negative_binomial_mass_sums_to_one(self):
        post = temper_update(POIS, SufficientStats(n=1000, sum_x=60000.0, sum_xx=3.7e6), 1e-3)
        xs = np.arange(0, 10001, dtype=float)
        total = np.exp(post.predictive_logpdf(Dataset(xs))).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_prior_predictive_density(self):
        post = temper_update(GAUSS, SufficientStats(n=0), 0.0)
        expected = -0.5 * math.log(2 * math.pi * (0.1**2 + 9.9**2))
        assert post.predictive_logpdf(Dataset(np.array([0.0])))[0] == pytest.approx(expected, rel=1e-12)

    def test_gaussian_predictive_integrates_to_one(self):
        post = temper_update(GAUSS, SufficientStats(n=30, sum_x=20.0, sum_xx=100.0), 0.5)
        total, _ = integrate.quad(
            lambda x: math.exp(post.predictive_logpdf(Dataset(np.array([x])))[0]), -60, 60, limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_regression_predictive_integrates_to_one(self):
        post = temper_update(NIG, SufficientStats(n=0), 0.0)
        total, _ = integrate.quad(
            lambda y: math.exp(post.predictive_logpdf(Dataset(np.array([y]), np.array([0.5])))[0]),
            -300, 300, limit=500,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_predictive_variance_decreasing_in_t(self):
        stats = SufficientStats(n=1000, sum_x=100.0, sum_xx=9200.0)
        ts = np.logspace(-8, 0, 30)
        variances = [temper_update(GAUSS, stats, float(t)).predictive_var for t in ts]
        assert np.all(np.diff(variances) < 0)

    def test_negative_count_rejected(self):
        post = temper_update(POIS, SufficientStats(n=0), 0.0)
        with pytest.raises(ValueError, match=r"^counts must be whole numbers >= 0, got -1\.0$"):
            post.predictive_logpdf(Dataset(np.array([-1.0])))

    # a non-finite value never becomes a Dataset, so no count check sees it
    @pytest.mark.parametrize(
        "bad,message",
        [
            (2.5, r"^counts must be whole numbers >= 0, got 2\.5$"),
            (math.nan, r"^values must be finite, got nan$"),
            (math.inf, r"^values must be finite, got inf$"),
            (-math.inf, r"^values must be finite, got -inf$"),
        ],
        ids=["non-integral", "nan", "inf", "-inf"],
    )
    def test_bad_count_rejected_where_it_enters(self, bad, message):
        counts = np.array([3.0, bad, 1.0])
        post = temper_update(POIS, SufficientStats(n=0), 0.0)
        with pytest.raises(ValueError, match=message):
            post.predictive_logpdf(Dataset(counts))
        stats = SufficientStats.from_dataset(Dataset(np.array([2.0, 4.0])))
        with pytest.raises(ValueError, match=message):
            TemperedPredictive(POIS, stats, Dataset(counts))


def _direct_logpdf(post, data):
    """The Gaussian, Poisson and NIG predictives written out over every point, one expression each."""
    if isinstance(post, GaussianPosterior):
        v = post.noise_sd**2 + 1.0 / post.precision
        return -0.5 * (np.log(2.0 * np.pi * v) + (data.values - post.mean) ** 2 / v)
    if isinstance(post, PoissonGammaPosterior):
        x, r = data.values, post.shape
        distinct = np.unique(x)
        if distinct[-1] <= 16 * distinct.size + 64:  # dense: ln G(x+r) - ln G(r) as the sum of ln(r + j), j < x
            rising = np.array([np.cumsum(np.log(r + np.arange(int(c))))[-1] if c else 0.0 for c in x])
        else:
            rising = log_gamma(x + r) - log_gamma(r)
        return (
            rising - log_gamma(x + 1.0)
            + r * math.log(post.rate / (1.0 + post.rate))
            + x * math.log(1.0 / (1.0 + post.rate))
        )
    assert isinstance(post, NIGRegressionPosterior)
    x, y, df = data.covariates, data.values, 2.0 * post.shape
    s = np.sqrt((post.scale / post.shape) * (1.0 + x * x / post.coef_precision))
    z = (y - post.coef * x) / s
    return (
        log_gamma(0.5 * (df + 1.0)) - log_gamma(0.5 * df) - 0.5 * math.log(df * math.pi)
        - 0.5 * (df + 1.0) * np.log1p(z * z / df)
    ) - np.log(s)


def _small_counts():
    counts = Dataset(RngStream(34).generator().poisson(0.7, size=300).astype(float))
    assert np.any(counts.values == 0.0)
    return counts


# one call with the default 50-level grid, then single levels: the grid's
# ends, the prior and two levels off the grid
_LEVEL_CALLS = [np.logspace(-8.0, 0.0, 50)] + [[t] for t in (1e-8, 1.0, 0.0, 3.3e-5, 0.123)]


class TestTemperedPredictive:
    """The row at each level is the per-level predictive, bit for bit."""

    @pytest.mark.parametrize(
        "model,update,valid",
        [
            (GAUSS, GaussianTruth(0.0, 3.01).sample(RngStream(30), 300),
             GaussianTruth(0.0, 3.01).sample(RngStream(31), 300)),
            (POIS, NegBinomialTruth(63.0, 0.488).sample(RngStream(32), 1000),
             NegBinomialTruth(63.0, 0.488).sample(RngStream(33), 300)),
            (POIS, BetaBinomialTruth(41.75, 78.25, 80).sample(RngStream(32), 1000),
             BetaBinomialTruth(41.75, 78.25, 80).sample(RngStream(33), 300)),
            (POIS, NegBinomialTruth(63.0, 0.488).sample(RngStream(32), 1000), _small_counts()),
            (POIS, NegBinomialTruth(63.0, 0.488).sample(RngStream(32), 1000), Dataset(np.full(40, 7.0))),
            (POIS, NegBinomialTruth(1e6, 0.999999).sample(RngStream(32), 1000),
             NegBinomialTruth(1e6, 0.999999).sample(RngStream(33), 300)),
            (NIG, TNoiseRegressionTruth(3.0, 1.22).sample(RngStream(35), 300),
             TNoiseRegressionTruth(3.0, 1.22).sample(RngStream(36), 300)),
            (NIG, SigmoidRegressionTruth().sample(RngStream(37), 300),
             SigmoidRegressionTruth().sample(RngStream(38), 300)),
        ],
        ids=["gauss", "poisson-nb", "poisson-betabinom", "counts-with-zeros", "counts-all-equal",
             "counts-near-1e12", "reg-tnoise", "reg-sigmoid"],
    )
    def test_rows_equal_per_level_predictive_bitwise(self, model, update, valid):
        stats = SufficientStats.from_dataset(update)
        pred = TemperedPredictive(model, stats, valid)
        for t in np.concatenate(_LEVEL_CALLS):
            post, row = pred.row(t)
            ref_post = temper_update(model, stats, float(t))
            ref = ref_post.predictive_logpdf(valid)
            assert post == ref_post
            assert row.shape == (len(valid),)
            assert row.tobytes() == ref.tobytes()
            assert ref.tobytes() == _direct_logpdf(ref_post, valid).tobytes()

    def test_regression_data_requires_covariates(self):
        stats = SufficientStats.from_dataset(TNoiseRegressionTruth().sample(RngStream(39), 50))
        with pytest.raises(ValueError, match="^regression predictive requires covariates$"):
            TemperedPredictive(NIG, stats, Dataset(np.ones(10)))


class TestPredictiveSample:
    def test_gaussian_prior_predictive_variance(self):
        post = temper_update(GAUSS, SufficientStats(n=0), 0.0)
        draws = predictive_sample(post, RngStream(10), 100000)
        assert draws.values.var() == pytest.approx(0.1**2 + 9.9**2, rel=0.05)

    def test_poisson_gamma_predictive_mean(self):
        post = temper_update(POIS, SufficientStats(n=1000, sum_x=60000.0, sum_xx=3.7e6), 1e-3)
        draws = predictive_sample(post, RngStream(11), 100000)
        assert draws.values.mean() == pytest.approx(60.0, rel=0.01)

    def test_regression_zero_covariates_centered(self):
        post = temper_update(NIG, SufficientStats(n=0), 0.0)
        draws = predictive_sample(post, RngStream(12), 50000, like=Dataset(np.zeros(50000), np.zeros(50000)))
        se = draws.values.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.values.mean()) < 4 * se

    def test_sampler_matches_density(self):
        # empirical CDF of predictive draws against the analytic predictive
        post = temper_update(GAUSS, SufficientStats(n=50, sum_x=30.0, sum_xx=200.0), 1e-4)
        draws = predictive_sample(post, RngStream(13), 40000).values
        grid = np.quantile(draws, [0.1, 0.25, 0.5, 0.75, 0.9])
        sd = math.sqrt(post.predictive_var)
        for q, g in zip([0.1, 0.25, 0.5, 0.75, 0.9], grid):
            from carmen.numerics import normal_cdf

            model_q = normal_cdf((g - post.mean) / sd)
            assert model_q == pytest.approx(q, abs=0.01)

    def test_regression_requires_covariates(self):
        post = temper_update(NIG, SufficientStats(n=0), 0.0)
        with pytest.raises(ValueError):
            predictive_sample(post, RngStream(0), 10)

    @pytest.mark.parametrize("like", [None, Dataset(np.ones(10))], ids=["no-like", "like-without-covariates"])
    def test_regression_without_covariates_message(self, like):
        post = temper_update(NIG, SufficientStats(n=0), 0.0)
        with pytest.raises(ValueError, match="^regression predictive sampling requires covariates$"):
            predictive_sample(post, RngStream(0), 10, like=like)

    def test_covariate_count_must_match_draw(self):
        post = temper_update(NIG, SufficientStats(n=0), 0.0)
        like = Dataset(np.ones(5), np.zeros(5))
        with pytest.raises(ValueError, match=r"^covariates must have shape \(10,\), got \(5,\)$"):
            predictive_sample(post, RngStream(0), 10, like=like)

    @pytest.mark.parametrize("model", [GAUSS, POIS], ids=["gauss", "poisson"])
    def test_covariates_rejected_on_non_regression_draw(self, model):
        post = temper_update(model, SufficientStats(n=0), 0.0)
        like = Dataset(np.ones(10), np.zeros(10))
        with pytest.raises(ValueError, match="^covariates are only meaningful for regression models$"):
            predictive_sample(post, RngStream(0), 10, like=like)
        # a like without covariates is accepted and does not change the draw
        draws = predictive_sample(post, RngStream(0), 10, like=Dataset(np.ones(10)))
        assert np.array_equal(draws.values, predictive_sample(post, RngStream(0), 10).values)


def _assert_sums_match_rows(model, update, valid):
    """Every level sum of the ``_LEVEL_CALLS`` is its per-point row's sum, within 1e-13 relative."""
    pred = TemperedPredictive(model, SufficientStats.from_dataset(update), valid)
    for ts in _LEVEL_CALLS:
        sums = list(pred.sums(ts))
        assert len(sums) == len(ts)
        for t, (post, lp) in zip(ts, sums):
            ref_post, row = pred.row(t)
            assert post == ref_post
            assert type(lp) is float
            assert lp == pytest.approx(float(row.sum()), rel=1e-13, abs=0.0)


class TestLevelSums:
    """A level's sum is the sum of its row, to rounding, without building the row."""

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_scenario_default_data(self, scenario):
        binding = SCENARIOS[scenario]
        update, valid, _ = run_draws(ScenarioConfig(scenario=scenario, seed=0), binding.truth)
        _assert_sums_match_rows(binding.model, update, valid)

    @pytest.mark.parametrize(
        "model,truth",
        [
            # the mean of the sum of squares is 1e12 times its spread, and
            # at t near 1 the predictive mean is within 0.1 of the data mean
            (GaussianKnownVarModel(noise_sd=1.0, prior_mean=0.0, prior_sd=1e3), GaussianTruth(1e6, 1.0)),
            (POIS, BetaBinomialTruth(2.0, 2.0, 10000)),  # about 900 distinct counts up to 1e4
            (POIS, NegBinomialTruth(1e6, 0.999999)),  # distinct counts near 1e12: the log_gamma table
        ],
        ids=["gauss-at-1e6-sd-1", "counts-to-1e4", "counts-near-1e12"],
    )
    def test_data_that_defeat_raw_moments(self, model, truth):
        _assert_sums_match_rows(model, truth.sample(RngStream(40), 1000), truth.sample(RngStream(41), 1000))

    def test_minus_inf_exactly_where_the_row_sum_is(self):
        # noise_sd**2 is a normal float, but above t ~ 5e-4 the predictive
        # variance is so small that the rows' squared residuals, or their
        # sum, overflow: the level sum must be -inf at the same levels
        model = GaussianKnownVarModel(noise_sd=1.5e-154, prior_mean=0.0, prior_sd=1.0)
        truth = GaussianTruth(0.0, 1.0)
        pred = TemperedPredictive(model, SufficientStats.from_dataset(truth.sample(RngStream(42), 100)),
                                  truth.sample(RngStream(43), 100))
        ts = np.logspace(-5.0, -2.0, 600)
        sums = np.array([lp for _, lp in pred.sums(ts)])
        with np.errstate(over="ignore"):
            row_sums = np.array([pred.row(t)[1].sum() for t in ts])
        assert np.isneginf(row_sums).any() and np.isfinite(row_sums).any()
        assert np.array_equal(np.isneginf(sums), np.isneginf(row_sums))
        assert np.isfinite(sums[np.isfinite(row_sums)]).all()

    def test_gaussian_moments_taken_on_the_first_sums_call(self):
        # a one-level row, as predictive_logpdf builds, reads no level statistics
        data = GaussianTruth(0.0, 3.01).sample(RngStream(46), 100)
        post = temper_update(GAUSS, SufficientStats.from_dataset(data), 1e-3)
        terms = _GaussianTerms(data)
        assert terms.row(post).tobytes() == post.predictive_logpdf(data).tobytes()
        assert "_moments" not in vars(terms)
        assert terms.sums([post])[0] == pytest.approx(float(terms.row(post).sum()), rel=1e-13, abs=0.0)
        assert "_moments" in vars(terms)

    @pytest.mark.parametrize(
        "prior_scale,outlier,covariate_scale",
        [
            # one response 2e154 off the line: the row's (e/s)^2 overflows at
            # the levels where s is below about 1.5 (e*e alone overflows at all)
            (2.0, 2e154, 1.0),
            # covariates near 100 under a prior scale of 1e305: the squared
            # scale s^2 overflows at the levels where the shape is still small
            (1e305, None, 100.0),
        ],
        ids=["squared-residual", "squared-scale"],
    )
    def test_regression_not_finite_exactly_where_the_row_sum_is(self, prior_scale, outlier, covariate_scale):
        model = dataclasses.replace(NIG, scale=prior_scale)
        truth = TNoiseRegressionTruth(3.0, 1.22)
        valid = truth.sample(RngStream(45), 100)
        y = valid.values.copy()
        if outlier is not None:
            y[0] = outlier
        pred = TemperedPredictive(model, SufficientStats.from_dataset(truth.sample(RngStream(44), 100)),
                                  Dataset(y, valid.covariates * covariate_scale))
        ts = np.logspace(-8.0, 0.0, 400)
        sums = np.array([lp for _, lp in pred.sums(ts)])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            row_sums = np.array([pred.row(t)[1].sum() for t in ts])
        assert np.isneginf(row_sums).any() and np.isfinite(row_sums).any()
        assert np.array_equal(np.isneginf(sums), np.isneginf(row_sums))
        assert np.array_equal(np.isfinite(sums), np.isfinite(row_sums))


def _scores(model, xu, xv, ts):
    """Validation log predictive score at each level of ``ts`` after a power-t update on ``xu``."""
    pred = TemperedPredictive(model, SufficientStats.from_dataset(xu), xv)
    return [float(pred.row(t)[1].sum()) for t in ts]


class TestLogTemperedPredictive:
    def test_t_zero_equals_prior_score(self):
        xu = GaussianTruth(0.0, 3.01).sample(RngStream(20), 100)
        xv = GaussianTruth(0.0, 3.01).sample(RngStream(21), 100)
        prior_post = temper_update(GAUSS, SufficientStats(n=0), 0.0)
        expected = float(prior_post.predictive_logpdf(xv).sum())
        assert _scores(GAUSS, xu, xv, [0.0]) == [pytest.approx(expected, rel=1e-14)]

    def test_gaussian_setup_maximized_near_1e6(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(22), 1000)
        xv = truth.sample(RngStream(23), 1000)
        ts = np.logspace(-8, 0, 120)
        t_best = ts[int(np.argmax(_scores(GAUSS, xu, xv, ts)))]
        assert 9.5e-7 / 3 <= t_best <= 9.5e-7 * 3

    def test_poisson_setup_maximized_near_1e3(self):
        truth = NegBinomialTruth(63.0, 0.488)
        xu = truth.sample(RngStream(24), 1000)
        xv = truth.sample(RngStream(25), 1000)
        ts = np.logspace(-6, 0, 120)
        t_best = ts[int(np.argmax(_scores(POIS, xu, xv, ts)))]
        assert 1.0e-3 / 3 <= t_best <= 1.0e-3 * 3


class TestQuadratureOracle:
    """Posterior densities must match likelihood^t x prior, normalized numerically."""

    @pytest.mark.parametrize("t", [0.0, 1e-3, 1.0])
    def test_gaussian(self, t):
        from oracles import gaussian_posterior_quadrature_relerr

        assert gaussian_posterior_quadrature_relerr(t) < 1e-6

    @pytest.mark.parametrize("t", [0.0, 1e-3, 1.0])
    def test_poisson_gamma(self, t):
        from oracles import poisson_posterior_quadrature_relerr

        assert poisson_posterior_quadrature_relerr(t) < 1e-6

    @pytest.mark.parametrize("t", [0.0, 1e-3, 1.0])
    def test_nig_regression(self, t):
        from oracles import nig_posterior_quadrature_relerr

        assert nig_posterior_quadrature_relerr(t) < 1e-6


class TestBetaBinomialKLOracle:
    """The divergence oracle must price the same predictive the pipeline uses."""

    @pytest.mark.parametrize("t", [0.0, 1e-3, 1.0])
    def test_nbinom_matches_predictive_logpdf(self, t):
        from oracles import nbinom_predictive

        data = BetaBinomialTruth(41.75, 78.25, 80).sample(RngStream(40), 1000)
        post = temper_update(POIS, SufficientStats.from_dataset(data), t)
        xs = np.arange(81.0)
        np.testing.assert_allclose(
            nbinom_predictive(post).logpmf(xs), post.predictive_logpdf(Dataset(xs)), rtol=1e-10, atol=1e-10
        )

"""The classifier-driven log-ratio estimator, forward and reverse."""

import math

import numpy as np
import pytest

from carmen.conjugate import (
    GaussianKnownVarModel,
    PoissonGammaModel,
    SufficientStats,
    temper_update,
)
from carmen.data import Dataset
from carmen.discriminator import FeatureMap
from carmen.numerics import RngStream
from carmen.ratio import LogRatioEstimate, estimate_log_ratio, estimate_reverse_log_ratio
from carmen.truths import GaussianTruth, NegBinomialTruth
from oracles import exact_log_ratio

# closed-form Gaussian KL divergences for the N(0,1) model vs N(0,4) truth:
# KL(truth||model) = ln(1/2) + 4/2 - 1/2, KL(model||truth) = ln 2 + 1/8 - 1/2
KL_FORWARD = math.log(0.5) + 2.0 - 0.5
KL_REVERSE = math.log(2.0) + 0.125 - 0.5


def _unit_gaussian_posterior():
    # near-degenerate prior makes the predictive an (effectively) fixed N(0,1)
    model = GaussianKnownVarModel(noise_sd=1.0, prior_mean=0.0, prior_sd=1e-8)
    return temper_update(model, SufficientStats(n=0), 0.0)


class TestLogRatioEstimate:
    def test_aggregates(self):
        est = LogRatioEstimate.from_per_point(np.array([1.0, -2.0, 4.0]))
        assert est.sum == pytest.approx(3.0)
        assert est.mean == pytest.approx(1.0)
        assert est.n == 3

    def test_single_value_ok(self):
        est = LogRatioEstimate.from_per_point(np.array([-0.5]))
        assert est.n == 1
        assert est.sum == pytest.approx(-0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LogRatioEstimate.from_per_point(np.array([]))


class TestEstimateLogRatio:
    def test_matched_predictive_near_zero(self):
        # tempered NB predictive coincides with the generating distribution
        post = temper_update(
            PoissonGammaModel(3.0, 0.05),
            SufficientStats(n=1000, sum_x=60000.0, sum_xx=3.7e6),
            1e-3,
        )
        truth = NegBinomialTruth(63.0, 1.0 / 2.05)
        xv = truth.sample(RngStream(100), 1000)
        est = estimate_log_ratio(post, xv, FeatureMap(("x", "x2", "x3", "x4")), 10, RngStream(101))
        assert abs(est.sum) < 3.0

    def test_duplicated_data_near_zero(self):
        values = RngStream(102).generator().normal(size=400)
        obs = Dataset(values)
        post = _unit_gaussian_posterior()
        # score the duplicated rows directly through the cv machinery
        from carmen.discriminator import cv_log_odds

        vals, _ = cv_log_odds(obs, Dataset(values.copy()), FeatureMap(("x", "x2")), 5, 1e-6, RngStream(103))
        assert abs(vals.mean()) < 0.2
        assert np.max(np.abs(vals)) < 1.0

    def test_gaussian_kl_oracle_forward_and_reverse(self):
        post = _unit_gaussian_posterior()
        truth = GaussianTruth(0.0, 2.0)
        xv = truth.sample(RngStream(104), 2000)
        fm = FeatureMap(("x", "x2"))
        fwd = estimate_log_ratio(post, xv, fm, 10, RngStream(105))
        rev = estimate_reverse_log_ratio(post, xv, fm, 10, RngStream(105))
        assert -fwd.mean == pytest.approx(KL_FORWARD, rel=0.3)
        assert -rev.mean == pytest.approx(KL_REVERSE, rel=0.3)
        assert fwd.mean < 0.0 and rev.mean < 0.0
        assert fwd.mean != rev.mean

    def test_class_prior_correction(self):
        post = _unit_gaussian_posterior()
        xv = GaussianTruth(0.0, 1.3).sample(RngStream(106), 800)
        fm = FeatureMap(("x", "x2"))
        est1 = estimate_log_ratio(post, xv, fm, 10, RngStream(107), n_sim=800)
        est2 = estimate_log_ratio(post, xv, fm, 10, RngStream(108), n_sim=1600)
        band = 3 * math.sqrt(est1.std_error() ** 2 + est2.std_error() ** 2)
        assert abs(est1.mean - est2.mean) < band

    def test_deterministic(self):
        post = _unit_gaussian_posterior()
        xv = GaussianTruth(0.0, 2.0).sample(RngStream(109), 300)
        fm = FeatureMap(("x", "x2"))
        a = estimate_log_ratio(post, xv, fm, 5, RngStream(110))
        b = estimate_log_ratio(post, xv, fm, 5, RngStream(110))
        assert np.array_equal(a.per_point, b.per_point)
        assert a.sum == b.sum

    def test_tracks_oracle_near_optimum(self):
        # around the matched tempering level the classifier estimate stays
        # within 0.01 per point of the analytic ratio; a large simulation
        # batch keeps the estimator's own Monte Carlo noise below that bar
        model = GaussianKnownVarModel(0.1, 0.0, 9.9)
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(111), 1000)
        xv = truth.sample(RngStream(112), 1000)
        stats = SufficientStats.from_dataset(xu)
        fm = FeatureMap(("x", "x2"))
        for i, t in enumerate((3e-7, 1e-6, 3e-6)):
            post = temper_update(model, stats, t)
            approx = estimate_log_ratio(
                post, xv, fm, 10, RngStream(113).substream(i), n_sim=30000
            )
            exact = exact_log_ratio(post, truth, xv)
            assert abs(approx.mean - exact.mean) <= 0.01

    def test_tracks_oracle_at_default_batch_at_optimum(self):
        model = GaussianKnownVarModel(0.1, 0.0, 9.9)
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(111), 1000)
        xv = truth.sample(RngStream(112), 1000)
        post = temper_update(model, SufficientStats.from_dataset(xu), 1e-6)
        approx = estimate_log_ratio(post, xv, FeatureMap(("x", "x2")), 10, RngStream(118))
        exact = exact_log_ratio(post, truth, xv)
        assert abs(approx.mean - exact.mean) <= 0.01

    def test_n_sim_must_cover_folds(self):
        post = _unit_gaussian_posterior()
        xv = GaussianTruth(0.0, 1.0).sample(RngStream(114), 100)
        with pytest.raises(ValueError):
            estimate_log_ratio(post, xv, FeatureMap(("x",)), 10, RngStream(115), n_sim=5)

    def test_regression_simulation_reuses_covariates(self):
        from carmen.conjugate import NIGRegressionModel
        from carmen.truths import TNoiseRegressionTruth

        truth = TNoiseRegressionTruth()
        xv = truth.sample(RngStream(116), 200)
        model = NIGRegressionModel(0.0, 1.0, 2.0, 2.0)
        post = temper_update(model, SufficientStats.from_dataset(xv), 0.01)
        est = estimate_log_ratio(post, xv, FeatureMap(("abs_y", "y2", "ln_abs_y", "yx")), 5, RngStream(117))
        assert est.n == 200
        assert np.all(np.isfinite(est.per_point))

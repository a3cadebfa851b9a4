"""Feature maps, the IRLS logistic fit, and cross-validated log-odds."""

import math
import tracemalloc

import numpy as np
import pytest

import carmen.discriminator
from carmen.cli import ScenarioConfig
from carmen.conjugate import GaussianKnownVarModel, SufficientStats, predictive_sample, temper_update
from carmen.data import Dataset
from carmen.discriminator import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DecisionFunction,
    FeatureMap,
    IrlsWorkspace,
    LabeledDesign,
    _fold_ids,
    _softplus_sigmoid,
    _standardized_design,
    cv_log_odds,
    fit_logistic,
    log_odds,
)
from carmen.numerics import RngStream
from carmen.ratio import _simulate
from carmen.tempering import _SUB_GRID_BASE, TemperingGrid
from carmen.truths import GaussianTruth


def _fold_indices(n: int, k: int, g: np.random.Generator) -> list[np.ndarray]:
    """The folds ``cv_log_odds`` cuts: one permutation of the n points, split by
    ``np.array_split`` into k near-equal runs, each run sorted."""
    return [np.sort(f) for f in np.array_split(g.permutation(n), k)]


def _labeled_design(observed: Dataset, simulated: Dataset, fm: FeatureMap) -> LabeledDesign:
    """Feature rows for both classes, standardization fitted on the union."""
    raw_t = np.hstack([fm.matrix(observed).T, fm.matrix(simulated).T])
    labels = np.concatenate([np.zeros(len(observed)), np.ones(len(simulated))])
    return _standardized_design(raw_t, labels)


class TestFeatureMap:
    def test_bookkeeping(self):
        design = _labeled_design(
            Dataset(np.array([1.0, 2.0])), Dataset(np.array([3.0, 4.0])), FeatureMap(("x",))
        )
        assert design.features.shape == (4, 1)
        assert np.array_equal(design.labels, [0.0, 0.0, 1.0, 1.0])

    def test_raw_polynomials(self):
        fm = FeatureMap(("x", "x2"))
        raw = fm.matrix(Dataset(np.array([3.0])))
        assert np.array_equal(raw, [[3.0, 9.0]])

    def test_log_clamp_at_zero(self):
        fm = FeatureMap(("ln_abs_x",))
        raw = fm.matrix(Dataset(np.array([0.0])))
        assert raw[0, 0] == pytest.approx(math.log(1e-12))

    def test_regression_transforms(self):
        fm = FeatureMap(("y", "abs_y", "y2", "yx", "abs_yx", "yx2"))
        data = Dataset(np.array([-2.0]), covariates=np.array([0.5]))
        assert np.allclose(fm.matrix(data), [[-2.0, 2.0, 4.0, -1.0, 1.0, 1.0]])

    def test_response_transform_needs_regression_data(self):
        with pytest.raises(ValueError):
            FeatureMap(("y2",)).matrix(Dataset(np.array([1.0])))

    def test_unknown_and_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(("x5",))
        with pytest.raises(ValueError):
            FeatureMap(())

    def test_standardization_on_union(self):
        obs = Dataset(np.array([1.0, 2.0, 3.0]))
        sim = Dataset(np.array([5.0, 6.0, 7.0]))
        design = _labeled_design(obs, sim, FeatureMap(("x",)))
        assert design.features[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert design.features[:, 0].std() == pytest.approx(1.0, rel=1e-12)

    def test_constant_feature_keeps_unit_sd(self):
        obs = Dataset(np.array([-1.0, 1.0]), np.array([0.0, 4.0]))
        sim = Dataset(np.array([1.0, -1.0]), np.array([4.0, 0.0]))
        design = _labeled_design(obs, sim, FeatureMap(("abs_y", "x")))
        assert np.array_equal(design.sd, [1.0, 2.0])
        assert np.array_equal(design.features[:, 0], np.zeros(4))

    def test_matrix_is_feature_major(self):
        raw = FeatureMap(("x", "x2", "x3")).matrix(Dataset(np.array([1.0, 2.0])))
        assert np.array_equal(raw, [[1.0, 1.0, 1.0], [2.0, 4.0, 8.0]])
        assert raw.T.flags.c_contiguous

    def test_standardized_design_works_in_place(self):
        g = RngStream(91).generator()
        raw_t = np.ascontiguousarray(g.normal(2.0, 3.0, size=(3, 40)))
        block = raw_t.copy()
        design = _standardized_design(block, np.repeat([0.0, 1.0], 20))
        assert np.shares_memory(design.features, block)
        assert design.features.T.flags.c_contiguous
        assert np.array_equal(design.mean, raw_t.mean(axis=1))
        assert np.allclose(design.sd, raw_t.std(axis=1), rtol=1e-14, atol=0.0)
        ref = (raw_t - design.mean[:, None]) / design.sd[:, None]
        assert np.allclose(block, ref, rtol=0.0, atol=1e-14)

    def test_standardization_exact_under_large_offset(self):
        # sd is taken from the centred rows, so a large common offset
        # leaves it exact: population sd of (-1, 0, 1, 0) is sqrt(1/2).
        block = 1e9 + np.array([[-1.0, 0.0, 1.0, 0.0]])
        design = _standardized_design(block, np.array([0.0, 0.0, 1.0, 1.0]))
        assert design.mean[0] == 1e9
        assert design.sd[0] == math.sqrt(0.5)
        assert np.array_equal(design.features[:, 0], np.array([-1.0, 0.0, 1.0, 0.0]) / math.sqrt(0.5))


class TestSoftplusSigmoid:
    ETA = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 36.0, -36.0, 40.0, -40.0, 745.0, -745.0, 1000.0, -1000.0])

    def test_matches_logaddexp_and_logistic(self):
        with np.errstate(over="ignore", under="ignore"):
            ref_soft = np.logaddexp(0.0, self.ETA)
            ref_p = 1.0 / (1.0 + np.exp(-self.ETA))
        with np.errstate(all="raise", under="ignore"):
            soft, p = _softplus_sigmoid(self.ETA)
        np.testing.assert_array_max_ulp(soft, ref_soft, maxulp=2)
        np.testing.assert_array_max_ulp(p, ref_p, maxulp=4)

    def test_saturated_values(self):
        with np.errstate(all="raise", under="ignore"):
            soft, p = _softplus_sigmoid(np.array([1000.0, -1000.0]))
        assert np.array_equal(soft, [1000.0, 0.0])
        assert np.array_equal(p, [1.0, 0.0])

    @pytest.mark.parametrize("n", [1, 2, 7, 1800, 18000])
    def test_zero_start_is_filled_exactly(self, n):
        # fit_logistic fills softplus(0) = ln 2 and sigmoid(0) = 1/2 instead
        # of evaluating them; both must be the evaluated values, bit for bit.
        with np.errstate(all="raise", under="ignore"):
            soft, p = _softplus_sigmoid(np.zeros(n))
        assert soft.tobytes() == np.full(n, math.log(2.0)).tobytes()
        assert p.tobytes() == np.full(n, 0.5).tobytes()
        if n >= 2:
            labels = (np.arange(n) % 2).astype(float)
            feats = RngStream(96).generator().normal(size=(n, 2))
            fit = fit_logistic(LabeledDesign(feats, labels, np.zeros(2), np.ones(2)), max_iter=1)
            evaluated = float(labels @ np.zeros(n) - soft.sum()) - 0.5 * 1e-6 * 0.0
            assert np.float64(fit.objective_path[0]).tobytes() == np.float64(evaluated).tobytes()


class TestFitLogistic:
    def test_no_signal_gives_zero_fit(self):
        feats = np.zeros((40, 2))
        labels = np.array([0.0, 1.0] * 20)
        design = LabeledDesign(feats, labels, np.zeros(2), np.ones(2))
        fit = fit_logistic(design)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(fit.weights, 0.0, atol=1e-9)

    def test_recovers_known_weights(self):
        g = RngStream(50).generator()
        n = 20000
        feats = g.normal(size=(n, 2))
        eta = 1.5 * feats[:, 0] - 0.7 * feats[:, 1]
        labels = (g.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        mu, sd = feats.mean(axis=0), feats.std(axis=0)
        design = LabeledDesign((feats - mu) / sd, labels, mu, sd)
        fit = fit_logistic(design, ridge=1e-6)
        assert fit.converged
        # weights are on standardized columns; sd is ~1 here
        assert abs(fit.weights[0] * 1.0 / sd[0] - 1.5) < 0.1
        assert abs(fit.weights[1] * 1.0 / sd[1] + 0.7) < 0.1

    def test_separable_classes_stay_finite(self):
        fit = fit_logistic(_separable_design(), ridge=1e-6)
        assert np.all(np.isfinite(fit.weights))
        assert np.isfinite(fit.intercept)

    def test_objective_path_non_decreasing(self):
        g = RngStream(51).generator()
        feats = g.normal(size=(500, 3))
        labels = (g.uniform(size=500) < 0.5).astype(float)
        design = LabeledDesign(feats, labels, np.zeros(3), np.ones(3))
        fit = fit_logistic(design)
        path = np.array(fit.objective_path)
        assert np.all(np.diff(path) >= -1e-12)

    def test_balanced_mean_probability_is_half(self):
        g = RngStream(52).generator()
        feats = np.concatenate([g.normal(-0.5, 1.0, 300), g.normal(0.5, 1.0, 300)])[:, None]
        labels = np.concatenate([np.zeros(300), np.ones(300)])
        mu, sd = feats.mean(axis=0), feats.std(axis=0)
        design = LabeledDesign((feats - mu) / sd, labels, mu, sd)
        fit = fit_logistic(design)
        eta = fit.intercept + design.features @ fit.weights
        probs = 1.0 / (1.0 + np.exp(-eta))
        assert probs.mean() == pytest.approx(0.5, abs=1e-6)

    def test_saturated_fit_flags_nothing(self):
        # A start that saturates every sigmoid makes exp underflow, in the
        # start's objective and again after the ridge bumps; the fit runs
        # under one errstate that ignores exactly that.
        feats = np.concatenate([-np.ones(20), np.ones(20)])[:, None]
        labels = np.concatenate([np.zeros(20), np.ones(20)])
        design = LabeledDesign(feats, labels, np.zeros(1), np.ones(1))
        with np.errstate(all="raise"):
            fit = fit_logistic(design, start=np.array([0.0, 1000.0]))
        assert fit.weights[0] == 1000.0
        assert fit.ridge > 1e-6 and not fit.converged

    @pytest.mark.parametrize(
        "setting, name",
        [
            (dict(ridge=math.nan), "ridge"),
            (dict(ridge=math.inf), "ridge"),
            (dict(ridge=-1e-6), "ridge"),
            (dict(max_iter=0), "max_iter"),
            (dict(tol=0.0), "tol"),
            (dict(tol=-1e-8), "tol"),
            (dict(tol=math.nan), "tol"),
            (dict(tol=math.inf), "tol"),
        ],
    )
    def test_bad_settings_rejected(self, setting, name):
        with pytest.raises(ValueError, match=name):
            fit_logistic(_overlapping_design(), **setting)

    def test_workspace_must_fit_the_design(self):
        design = _overlapping_design()
        for workspace in (IrlsWorkspace(3, 600), IrlsWorkspace(2, 599)):
            with pytest.raises(ValueError, match="workspace"):
                fit_logistic(design, workspace=workspace)

    def test_needs_both_classes(self):
        design = LabeledDesign(np.zeros((5, 1)), np.zeros(5), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            fit_logistic(design)

    @pytest.mark.parametrize(
        "labels",
        [[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 1.0], [0.0, 1.0, math.nan, 1.0]],
        ids=["one-class", "label-2", "label-nan"],
    )
    def test_labels_must_be_0_and_1(self, labels):
        design = LabeledDesign(np.zeros((4, 1)), np.array(labels), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            fit_logistic(design)


def _overlapping_design() -> LabeledDesign:
    g = RngStream(55).generator()
    feats = np.concatenate([g.normal(-0.5, 1.0, (300, 2)), g.normal(0.5, 1.0, (300, 2))])
    labels = np.concatenate([np.zeros(300), np.ones(300)])
    mu, sd = feats.mean(axis=0), feats.std(axis=0)
    return LabeledDesign((feats - mu) / sd, labels, mu, sd)


def _separable_design() -> LabeledDesign:
    feats = np.concatenate([np.linspace(-3, -1, 25), np.linspace(1, 3, 25)])[:, None]
    labels = np.concatenate([np.zeros(25), np.ones(25)])
    mu, sd = feats.mean(axis=0), feats.std(axis=0)
    return LabeledDesign((feats - mu) / sd, labels, mu, sd)


def _penalized_gradient(design: LabeledDesign, fit) -> np.ndarray:
    """Gradient of the penalized log-likelihood at a fit's coefficients."""
    eta = fit.intercept + design.features @ fit.weights
    resid = design.labels - 1.0 / (1.0 + np.exp(-eta))
    return np.concatenate([[resid.sum()], design.features.T @ resid - fit.ridge * fit.weights])


class TestConvergence:
    @pytest.mark.parametrize("make", [_overlapping_design, _separable_design])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-4])
    def test_converged_gradient_below_tol(self, make, tol):
        design = make()
        fit = fit_logistic(design, tol=tol)
        assert fit.converged
        # The final full step is not evaluated: the path holds the start
        # and every line-searched step.
        assert len(fit.objective_path) == fit.iterations
        n = design.labels.size
        assert np.linalg.norm(_penalized_gradient(design, fit)) < tol * math.sqrt(n)

    @pytest.mark.parametrize("make", [_overlapping_design, _separable_design])
    def test_max_iter_stop_is_not_converged(self, make):
        design = make()
        full = fit_logistic(design)
        assert full.converged and full.iterations > 2
        cut = fit_logistic(design, max_iter=full.iterations - 1)
        assert not cut.converged
        assert cut.iterations == full.iterations - 1
        # The same line-searched steps, without the decrement stop's last one.
        assert cut.objective_path == full.objective_path

    def test_line_search_that_gives_up_is_not_converged(self, monkeypatch):
        # Every evaluated objective falls by n below the zero start's, so
        # no halving of the first step is accepted.
        softplus_sigmoid = carmen.discriminator._softplus_sigmoid

        def raised(eta, soft=None, sig=None):
            soft, sig = softplus_sigmoid(eta, soft, sig)
            soft += 1.0
            return soft, sig

        monkeypatch.setattr(carmen.discriminator, "_softplus_sigmoid", raised)
        fit = fit_logistic(_overlapping_design())
        assert not fit.converged
        assert fit.iterations == 0 and len(fit.objective_path) == 1
        assert fit.intercept == 0.0 and not fit.weights.any()

    @pytest.mark.parametrize("scale", [-1e-30, math.nan], ids=["negative", "nan"])
    def test_negative_or_nan_decrement_is_not_convergence(self, monkeypatch, scale):
        # Scaling every Newton step makes lambda^2 tiny and negative, or NaN.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: scale * solve(a, b))
        fit = fit_logistic(_overlapping_design(), max_iter=5)
        assert not fit.converged


class TestWarmStart:
    def test_start_worse_than_zero_gives_cold_fit(self):
        design = _overlapping_design()
        cold = fit_logistic(design)
        warm = fit_logistic(design, start=np.array([3.0, -20.0, 20.0]))
        assert warm.intercept == cold.intercept
        assert np.array_equal(warm.weights, cold.weights)
        assert (warm.iterations, warm.converged, warm.ridge) == (cold.iterations, cold.converged, cold.ridge)
        assert warm.objective_path == cold.objective_path

    def test_start_at_optimum_stays_there(self):
        design = _overlapping_design()
        cold = fit_logistic(design)
        assert cold.converged and cold.iterations > 2
        warm = fit_logistic(design, start=np.concatenate([[cold.intercept], cold.weights]))
        assert warm.converged and warm.iterations <= 2
        assert warm.intercept == pytest.approx(cold.intercept, abs=1e-8)
        assert np.allclose(warm.weights, cold.weights, rtol=0.0, atol=1e-8)

    def test_objective_path_non_decreasing_from_start(self):
        design = _overlapping_design()
        start = np.array([0.1, 0.2, 0.2])
        cold = fit_logistic(design)
        warm = fit_logistic(design, start=start)
        path = np.array(warm.objective_path)
        assert path[0] > cold.objective_path[0]  # the start was taken
        assert np.all(np.diff(path) >= -1e-12)

    def test_start_shape_checked(self):
        with pytest.raises(ValueError):
            fit_logistic(_overlapping_design(), start=np.zeros(2))


class TestLogOdds:
    def test_zero_fit_is_zero(self):
        design = LabeledDesign(np.zeros((4, 2)), np.array([0.0, 0, 1, 1]), np.zeros(2), np.ones(2))
        fit = fit_logistic(design)
        assert log_odds(fit, np.zeros(2)) == pytest.approx(0.0, abs=1e-9)

    def test_intercept_only(self):
        from carmen.discriminator import LogisticFit

        fit = LogisticFit(math.log(3.0), np.zeros(2), 0.0, True, 1)
        assert log_odds(fit, np.array([5.0, -2.0])) == pytest.approx(math.log(3.0))

    def test_symmetric_classes_balanced_at_midpoint(self):
        g = RngStream(53).generator()
        obs = Dataset(g.normal(-1.0, 1.0, 4000))
        sim = Dataset(g.normal(1.0, 1.0, 4000))
        design = _labeled_design(obs, sim, FeatureMap(("x",)))
        fit = fit_logistic(design)
        mid = (np.array([[0.0]]) - design.mean) / design.sd
        assert abs(log_odds(fit, mid[0])) < 0.15

    def test_dimension_mismatch(self):
        design = LabeledDesign(np.zeros((4, 2)), np.array([0.0, 0, 1, 1]), np.zeros(2), np.ones(2))
        fit = fit_logistic(design)
        with pytest.raises(ValueError):
            log_odds(fit, np.zeros(3))

    def test_affine_rescaling_invariance(self):
        # with no penalty, standardization removes any affine feature map
        g = RngStream(54).generator()
        obs = Dataset(g.normal(0.0, 1.0, 400))
        sim = Dataset(g.normal(0.5, 1.2, 400))
        fm = FeatureMap(("x", "x2"))
        raw_obs, raw_sim = fm.matrix(obs), fm.matrix(sim)
        holdout = fm.matrix(Dataset(g.normal(0.0, 1.0, 50)))

        def fit_and_score(scale, shift):
            raw = np.vstack([raw_obs, raw_sim]) * scale + shift
            labels = np.concatenate([np.zeros(400), np.ones(400)])
            mu, sd = raw.mean(axis=0), raw.std(axis=0)
            design = LabeledDesign((raw - mu) / sd, labels, mu, sd)
            fit = fit_logistic(design, ridge=0.0)
            return log_odds(fit, (holdout * scale + shift - mu) / sd)

        base = fit_and_score(1.0, 0.0)
        rescaled = fit_and_score(np.array([3.0, 0.2]), np.array([-1.0, 7.0]))
        assert np.max(np.abs(base - rescaled)) < 1e-6


def _grid_level_draw(scenario: str, seed: int, level: int):
    """t and the ``cv_log_odds`` arguments of one grid level of a full-curve run.

    The data are drawn as ``run_scenario`` and ``curve()`` draw them.
    """
    cfg = ScenarioConfig(scenario=scenario, seed=seed, full_curve=True)
    binding = cfg.binding()
    rng = RngStream(cfg.seed)
    data = binding.truth.sample(rng.substream(0), cfg.n_update + cfg.n_validate)
    x_update, x_valid = data.split(cfg.n_update)
    t = float(TemperingGrid.log_uniform(cfg.grid_lo, cfg.grid_hi, cfg.grid_count).values[level])
    post = temper_update(binding.model, SufficientStats.from_dataset(x_update), t)
    point = rng.substream(1).substream(_SUB_GRID_BASE + level)
    sim = _simulate(post, x_valid, len(x_valid), point)
    return t, (x_valid, sim, FeatureMap(binding.features), cfg.folds, cfg.ridge, point.substream(2))


class TestCvLogOdds:
    def test_indistinguishable_classes_centered(self):
        obs = Dataset(RngStream(60, 0).generator().normal(size=1000))
        sim = Dataset(RngStream(60, 1).generator().normal(size=1000))
        vals, _ = cv_log_odds(obs, sim, FeatureMap(("x", "x2")), 10, 1e-6, RngStream(61))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) < 3 * se

    def test_every_point_scored_once(self):
        obs = Dataset(RngStream(62, 0).generator().normal(size=97))
        sim = Dataset(RngStream(62, 1).generator().normal(size=103))
        vals, _ = cv_log_odds(obs, sim, FeatureMap(("x",)), 5, 1e-6, RngStream(63))
        assert vals.shape == (97,)
        assert np.all(np.isfinite(vals))

    def test_every_simulated_point_scored_once(self):
        # Unequal classes: the simulated points sit behind the observed
        # ones in the gathered block.
        obs = Dataset(RngStream(62, 0).generator().normal(size=97))
        sim = Dataset(RngStream(62, 1).generator().normal(0.5, 1.0, size=103))
        args = (obs, sim, FeatureMap(("x", "x2")), 5, 1e-6, RngStream(63))
        vals, _ = cv_log_odds(*args, score="simulated")
        assert vals.shape == (103,)
        assert np.allclose(vals, _row_major_cv(*args, score="simulated"), rtol=1e-8, atol=1e-8)

    def test_k2_and_k10_agree_within_noise(self):
        obs = Dataset(RngStream(64, 0).generator().normal(size=1000))
        sim = Dataset(RngStream(64, 1).generator().normal(0.15, 1.0, size=1000))
        fm = FeatureMap(("x", "x2"))
        v2, _ = cv_log_odds(obs, sim, fm, 2, 1e-6, RngStream(65))
        v10, _ = cv_log_odds(obs, sim, fm, 10, 1e-6, RngStream(66))
        band = 3 * math.sqrt(v2.var(ddof=1) / v2.size + v10.var(ddof=1) / v10.size)
        assert abs(v2.mean() - v10.mean()) < band

    def test_well_calibrated_at_matched_tempering(self):
        # dispersed-prior Gaussian model tempered to match the truth
        model = GaussianKnownVarModel(0.1, 0.0, 9.9)
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(67), 1000)
        xv = truth.sample(RngStream(68), 1000)
        post = temper_update(model, SufficientStats.from_dataset(xu), 1e-6)
        sim = predictive_sample(post, RngStream(69), 1000)
        vals, _ = cv_log_odds(xv, sim, FeatureMap(("x", "x2")), 10, 1e-6, RngStream(70))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) < 4 * se

    def test_deterministic(self):
        obs = Dataset(RngStream(71, 0).generator().normal(size=100))
        sim = Dataset(RngStream(71, 1).generator().normal(size=100))
        a, _ = cv_log_odds(obs, sim, FeatureMap(("x",)), 5, 1e-6, RngStream(72))
        b, _ = cv_log_odds(obs, sim, FeatureMap(("x",)), 5, 1e-6, RngStream(72))
        assert np.array_equal(a, b)

    def test_near_separable_level_matches_tight_fits(self, monkeypatch):
        # reg-sigmoid, seed 0, grid level 23 of a full-curve run: where
        # stopping on the damped step |step * delta| < 1e-8 left a fold
        # 0.025 from its optimum in the training log-odds.  Each fold's
        # reference continues from its fit to lambda^2 <= 1e-24 n, close
        # to the rounding floor of these near-separable designs.
        fits = []
        fit = carmen.discriminator.fit_logistic

        def recording(design, **kwargs):
            result = fit(design, **kwargs)
            fits.append((design.features.copy(), design.labels.copy(), result))
            return result

        monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
        args = _grid_level_draw("reg-sigmoid", 0, 23)[1]
        cv_log_odds(*args)
        assert len(fits) == args[3]
        for X, y, result in fits:
            assert result.converged
            beta = np.concatenate([[result.intercept], result.weights])
            ref, stopped = _row_major_fit(X, y, result.ridge, beta, tol=1e-12)
            assert stopped
            eta, ref_eta = beta[0] + X @ beta[1:], ref[0] + X @ ref[1:]
            assert np.max(np.abs(eta - ref_eta)) < 1e-6

    def test_near_separable_counts_match_cold_folds(self):
        # poisson-betabinom, seed 7, grid point 11 (t ~ 6.25e-7) of a
        # full-curve run, rebuilt as run_scenario and curve() draw it.
        # The x..x4 classes are nearly separable there, with standardized
        # weights near 900.  Starting each fold from the previous fold's
        # standardized coefficients stalled the line search and turned
        # this sum from about -1358 into +23272.
        t, (x_valid, sim, fm, k, ridge, cv_rng) = _grid_level_draw("poisson-betabinom", 7, 11)
        assert t == pytest.approx(6.25e-7, rel=1e-3)
        vals, _ = cv_log_odds(x_valid, sim, fm, k, ridge, cv_rng)

        # reference: every fold fitted from beta = 0
        raw_obs, raw_sim = fm.matrix(x_valid), fm.matrix(sim)
        g = cv_rng.generator()
        folds_obs = _fold_indices(len(x_valid), k, g)
        folds_sim = _fold_indices(len(sim), k, g)
        ref = np.full(len(x_valid), np.nan)
        for held_obs, held_sim in zip(folds_obs, folds_sim):
            train_obs = np.delete(raw_obs, held_obs, axis=0)
            train_sim = np.delete(raw_sim, held_sim, axis=0)
            raw = np.vstack([train_obs, train_sim])
            labels = np.concatenate([np.zeros(len(train_obs)), np.ones(len(train_sim))])
            mu, sd = raw.mean(axis=0), raw.std(axis=0)
            sd = np.where(sd > 0.0, sd, 1.0)
            design = LabeledDesign((raw - mu) / sd, labels, mu, sd)
            fit = fit_logistic(design, ridge=ridge)
            ref[held_obs] = log_odds(fit, (raw_obs[held_obs] - mu) / sd)
        assert ref.sum() < -1000.0
        assert np.max(np.abs(vals - ref)) < 1e-5

    @pytest.mark.parametrize("t, share", [(1e-6, 1.0), (1e-3, 0.5)], ids=["matched", "separated"])
    def test_warm_folds_take_no_more_iterations(self, monkeypatch, t, share):
        iterations = []
        fit = carmen.discriminator.fit_logistic

        def recording(*args, **kwargs):
            result = fit(*args, **kwargs)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
        model = GaussianKnownVarModel(0.1, 0.0, 9.9)
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(67), 1000)
        xv = truth.sample(RngStream(68), 1000)
        post = temper_update(model, SufficientStats.from_dataset(xu), t)
        sim = predictive_sample(post, RngStream(69), 1000)
        k = 10
        cv_log_odds(xv, sim, FeatureMap(("x", "x2")), k, 1e-6, RngStream(70))
        assert len(iterations) == k
        cold, warm = iterations[0], iterations[1:]
        assert max(warm) <= cold
        assert sum(warm) <= share * (k - 1) * cold

    def test_fold_designs_are_feature_major_complements(self, monkeypatch):
        designs = []
        fit = carmen.discriminator.fit_logistic

        def recording(design, **kwargs):
            # The next fold reuses the work block, so keep copies.
            designs.append(
                (design.features.T.flags.c_contiguous, design.features.copy(), design.labels.copy(),
                 design.mean.copy(), design.sd.copy())
            )
            return fit(design, **kwargs)

        monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
        g = RngStream(80).generator()
        n_obs, n_sim, k = 53, 47, 5
        # |y| = 1.5 everywhere: a feature that is constant in every fold.
        obs = Dataset(1.5 * g.choice([-1.0, 1.0], n_obs), g.normal(size=n_obs))
        sim = Dataset(1.5 * g.choice([-1.0, 1.0], n_sim), g.normal(0.3, 1.2, n_sim))
        fm = FeatureMap(("abs_y", "x", "yx2"))
        cv_log_odds(obs, sim, fm, k, 1e-6, RngStream(81))
        assert len(designs) == k

        raw = np.vstack([fm.matrix(obs), fm.matrix(sim)])
        fold_rng = RngStream(81).generator()
        folds_obs = _fold_indices(n_obs, k, fold_rng)
        folds_sim = _fold_indices(n_sim, k, fold_rng)
        held_out = np.zeros(n_obs + n_sim, dtype=int)
        for j, (c_ordered, feats, labels, mu, sd) in enumerate(designs):
            assert c_ordered
            m_obs, m_sim = n_obs - folds_obs[j].size, n_sim - folds_sim[j].size
            assert np.array_equal(labels, np.concatenate([np.zeros(m_obs), np.ones(m_sim)]))
            train = np.ones(n_obs + n_sim, dtype=bool)
            train[folds_obs[j]] = False
            train[n_obs + folds_sim[j]] = False
            held_out[~train] += 1
            assert np.array_equal(feats, (raw[train] - mu) / sd)
            assert np.allclose(mu, raw[train].mean(axis=0), rtol=1e-12, atol=1e-12)
            assert np.allclose(feats.mean(axis=0), 0.0, rtol=0.0, atol=1e-12)
            assert sd[0] == 1.0 and np.array_equal(feats[:, 0], np.zeros(m_obs + m_sim))
            assert np.allclose(feats[:, 1:].std(axis=0), 1.0, rtol=0.0, atol=1e-12)
        assert np.array_equal(held_out, np.ones(n_obs + n_sim, dtype=int))

    def test_fold_ids_are_the_array_split_folds(self):
        for n, k in [(10, 2), (97, 5), (103, 10), (1000, 10), (11, 11)]:
            ids = _fold_ids(n, k, RngStream(82, n).generator())
            folds = _fold_indices(n, k, RngStream(82, n).generator())
            assert [np.flatnonzero(ids == j).tolist() for j in range(k)] == [f.tolist() for f in folds]

    @pytest.mark.parametrize("score", ["observed", "simulated"])
    @pytest.mark.parametrize(
        "scenario, seed, level", [("reg-sigmoid", 0, 23), ("poisson-betabinom", 7, 11)],
        ids=["reg-sigmoid", "poisson-betabinom"],
    )
    def test_start_from_previous_level_matches_cold_call(self, monkeypatch, scenario, seed, level, score):
        # Nearly separable levels of a full-curve run, where last-bit
        # changes moved the simulated-class mean by up to 6.4e-5 nat/pt.
        # A run starts each level's first fold from the previous level's
        # last fold; the result must be the cold call's.
        _, previous = cv_log_odds(*_grid_level_draw(scenario, seed, level - 1)[1])
        args = _grid_level_draw(scenario, seed, level)[1]
        fits = _record_fits(monkeypatch)
        cold, _ = cv_log_odds(*args, score=score)
        warm, _ = cv_log_odds(*args, score=score, start=previous)
        k = args[3]
        assert len(fits) == 2 * k
        assert all(fit.converged for _, fit in fits)
        # The carried start beat beta = 0, so the first warm fold began elsewhere.
        assert fits[k][1].objective_path[0] > fits[0][1].objective_path[0]
        assert np.max(np.abs(warm - cold)) <= 1e-5
        assert abs(warm.mean() - cold.mean()) <= 1e-7 * max(1.0, abs(cold.mean()))

    def test_start_worse_than_zero_is_ignored(self, monkeypatch):
        obs = Dataset(RngStream(83, 0).generator().normal(size=300))
        sim = Dataset(RngStream(83, 1).generator().normal(0.5, 1.5, size=300))
        args = (obs, sim, FeatureMap(("x", "x2")), 5, 1e-6, RngStream(84))
        _, decision = cv_log_odds(*args)
        fits = _record_fits(monkeypatch)
        cold, _ = cv_log_odds(*args)
        negated = DecisionFunction(-decision.intercept, -decision.weights)
        warm, _ = cv_log_odds(*args, start=negated)
        assert fits[5][0] is not None and fits[0][0] is None
        assert _fit_bytes(fits[5][1]) == _fit_bytes(fits[0][1])
        assert np.array_equal(warm, cold)

    def test_returns_last_folds_decision_function(self, monkeypatch):
        designs = []
        fit = carmen.discriminator.fit_logistic

        def recording(design, **kwargs):
            result = fit(design, **kwargs)
            designs.append((design.mean.copy(), design.sd.copy(), result))
            return result

        monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
        obs = Dataset(RngStream(85, 0).generator().normal(size=200))
        sim = Dataset(RngStream(85, 1).generator().normal(0.4, 1.2, size=200))
        _, decision = cv_log_odds(obs, sim, FeatureMap(("x", "x2")), 4, 1e-6, RngStream(86))
        mean, sd, last = designs[-1]
        x = np.array([[0.3, 0.09], [-2.0, 4.0]])
        expected = log_odds(last, (x - mean) / sd)
        assert np.allclose(decision.intercept + x @ decision.weights, expected, rtol=0.0, atol=1e-12)

    def test_unknown_score_rejected(self):
        obs = Dataset(np.arange(10.0))
        sim = Dataset(np.arange(10.0) + 0.5)
        with pytest.raises(ValueError, match="score"):
            cv_log_odds(obs, sim, FeatureMap(("x",)), 2, 1e-6, RngStream(0), score="both")

    def test_degenerate_folds_rejected(self):
        obs = Dataset(np.arange(5.0))
        sim = Dataset(np.arange(5.0))
        with pytest.raises(ValueError):
            cv_log_odds(obs, sim, FeatureMap(("x",)), 1, 1e-6, RngStream(0))
        with pytest.raises(ValueError):
            cv_log_odds(obs, sim, FeatureMap(("x",)), 6, 1e-6, RngStream(0))


def _row_major_fit(
    X: np.ndarray, y: np.ndarray, ridge: float, start, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, bool]:
    """IRLS on the row-major layout the package used before the feature-major one.

    Same start guard, line search and Newton-decrement stop as
    ``fit_logistic``, but with an (n, d+1) design, ``np.logaddexp`` and
    ``A.T @ (w * A)``.  Returns the coefficients and whether the
    decrement stop ended the fit.
    """
    n, d = X.shape
    A = np.column_stack([np.ones(n), X])

    def objective(eta, b):
        soft = np.logaddexp(0.0, eta)
        return float(y @ eta - soft.sum()) - 0.5 * ridge * float(b[1:] @ b[1:]), soft

    beta, eta = np.zeros(d + 1), np.zeros(n)
    obj, soft = objective(eta, beta)
    if start is not None:
        start_eta = A @ start
        start_obj, start_soft = objective(start_eta, start)
        if start_obj > obj:
            beta, eta, obj, soft = start, start_eta, start_obj, start_soft
    diagonal = np.arange(1, d + 1)
    for _ in range(DEFAULT_MAX_ITER):
        p = np.exp(eta - soft)
        grad = A.T @ (y - p)
        grad[1:] -= ridge * beta[1:]
        hess = A.T @ ((p * (1.0 - p))[:, None] * A)
        hess[diagonal, diagonal] += ridge
        delta = np.linalg.solve(hess, grad)
        if 0.0 <= grad @ delta <= n * tol**2:
            return beta + delta, True
        a_delta = A @ delta
        step = 1.0
        for _ in range(30):
            cand_eta, cand = eta + step * a_delta, beta + step * delta
            cand_obj, cand_soft = objective(cand_eta, cand)
            if cand_obj >= obj - 1e-13 * abs(obj):
                break
            step *= 0.5
        else:
            break
        beta, eta, obj, soft = cand, cand_eta, cand_obj, cand_soft
    return beta, False


def _row_major_cv(observed, simulated, fm, k, ridge, rng, score):
    """``cv_log_odds`` on row-major (n, d) features with ``std(axis=0)`` standardization."""
    raw_obs = np.column_stack(fm.matrix(observed).T)
    raw_sim = np.column_stack(fm.matrix(simulated).T)
    g = rng.generator()
    folds_obs = _fold_indices(len(observed), k, g)
    folds_sim = _fold_indices(len(simulated), k, g)
    target = raw_obs if score == "observed" else raw_sim
    out = np.full(len(target), np.nan)
    beta = prev = None
    for held_obs, held_sim in zip(folds_obs, folds_sim):
        train_obs = np.delete(raw_obs, held_obs, axis=0)
        train_sim = np.delete(raw_sim, held_sim, axis=0)
        raw = np.vstack([train_obs, train_sim])
        labels = np.concatenate([np.zeros(len(train_obs)), np.ones(len(train_sim))])
        mu, sd = raw.mean(axis=0), raw.std(axis=0)
        sd = np.where(sd > 0.0, sd, 1.0)
        start = None
        if beta is not None:
            w_raw = beta[1:] / prev[1]
            c = beta[0] - w_raw @ prev[0]
            start = np.concatenate([[c + w_raw @ mu], w_raw * sd])
        beta, _ = _row_major_fit((raw - mu) / sd, labels, ridge, start)
        prev = (mu, sd)
        held = held_obs if score == "observed" else held_sim
        out[held] = beta[0] + ((target[held] - mu) / sd) @ beta[1:]
    return out


class TestFeatureMajorLayout:
    def test_fit_bitwise_equal_for_c_and_f_ordered_features(self):
        g = RngStream(90).generator()
        feats = g.normal(size=(600, 3))
        eta = 0.8 * feats[:, 0] - 0.4 * feats[:, 1] * feats[:, 2]
        labels = (g.uniform(size=600) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        by_row, by_col = np.ascontiguousarray(feats), np.asfortranarray(feats)
        assert not by_col.flags.c_contiguous
        for start in (None, np.array([0.1, 0.5, -0.2, 0.0])):
            fits = [
                fit_logistic(LabeledDesign(f, labels, np.zeros(3), np.ones(3)), start=start)
                for f in (by_row, by_col)
            ]
            a, b = fits
            assert a.intercept == b.intercept
            assert a.weights.tobytes() == b.weights.tobytes()
            assert (a.iterations, a.converged, a.ridge) == (b.iterations, b.converged, b.ridge)
            assert a.objective_path == b.objective_path

    @pytest.mark.parametrize("level", [0, 11, 25, 47])
    @pytest.mark.parametrize(
        "scenario",
        ["gauss-gauss", "gauss-laplace", "poisson-nb", "poisson-betabinom", "reg-tnoise", "reg-sigmoid"],
    )
    def test_cv_agrees_with_row_major_reference(self, scenario, level):
        # A full-curve run scores the observed class at every grid level.
        args = _grid_level_draw(scenario, 0, level)[1]
        vals, _ = cv_log_odds(*args)
        ref = _row_major_cv(*args, score="observed")
        assert np.all(np.isfinite(vals))
        assert abs(vals.mean() - ref.mean()) < 1e-7

    @pytest.mark.parametrize("scenario", ["gauss-gauss", "poisson-nb", "reg-sigmoid"])
    def test_simulated_scoring_agrees_with_row_major_reference(self, scenario):
        # A reverse-KL run scores the simulated class, the tail of the block.
        args = _grid_level_draw(scenario, 1, 25)[1]
        vals, _ = cv_log_odds(*args, score="simulated")
        ref = _row_major_cv(*args, score="simulated")
        assert vals.shape == (len(args[1]),)
        assert np.all(np.isfinite(vals))
        # Near separation the simulated scores reach hundreds of nats, so
        # the bound scales with them.
        assert abs(vals.mean() - ref.mean()) < 1e-7 * max(1.0, abs(ref.mean()))


def _record_fits(monkeypatch) -> list:
    """Route ``cv_log_odds``'s fits through a wrapper that keeps each fit's start and result."""
    fits = []
    fit = carmen.discriminator.fit_logistic

    def recording(design, **kwargs):
        result = fit(design, **kwargs)
        fits.append((kwargs.get("start"), result))
        return result

    monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
    return fits


def _fit_bytes(fit) -> tuple:
    """Every ``LogisticFit`` field, floats as their bytes."""
    floats = np.array([fit.intercept, fit.ridge, *fit.objective_path])
    return floats.tobytes(), fit.weights.tobytes(), fit.converged, fit.iterations


class TestIrlsWorkspace:
    def test_shared_workspace_fits_equal_fresh_fits(self, monkeypatch):
        records = []

        def recording(design, **kwargs):
            workspace = kwargs["workspace"]
            fresh_design = LabeledDesign(design.features.copy(), design.labels, design.mean, design.sd)
            fit = fit_logistic(design, **kwargs)
            del kwargs["workspace"]
            fresh = fit_logistic(fresh_design, **kwargs)
            records.append((design.features.shape[0], workspace, fit, _fit_bytes(fit), fresh))
            return fit

        monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
        g = RngStream(97).generator()
        obs = Dataset(g.normal(size=1003))
        sim = Dataset(g.normal(0.3, 1.2, 997))
        cv_log_odds(obs, sim, FeatureMap(("x", "x2")), 10, 1e-6, RngStream(98))
        sizes = [r[0] for r in records]
        workspace = records[0][1]
        assert len(records) == 10 and len(set(sizes)) > 1
        assert all(r[1] is workspace for r in records)
        assert workspace.capacity == max(sizes)
        buffers = (workspace.design(max(sizes)), workspace.weighted(max(sizes)), workspace.vectors(max(sizes)))
        for _, _, fit, at_return, fresh in records:
            # Later folds overwrote the whole workspace; this fit is as it was returned.
            assert _fit_bytes(fit) == at_return
            assert _fit_bytes(fit) == _fit_bytes(fresh)
            assert not any(np.shares_memory(fit.weights, b) for b in buffers)

    def test_prepared_fit_allocates_no_n_vectors(self):
        n, d = 40_000, 3
        g = RngStream(99).generator()
        workspace = IrlsWorkspace(d, n)
        rows = workspace.design(n)[1:]
        rows[...] = g.normal(size=(d, n))
        eta = 0.8 * rows[0] - 0.5 * rows[1]
        labels = (g.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        design = LabeledDesign(rows.T, labels, np.zeros(d), np.ones(d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit = fit_logistic(design, start=np.full(d + 1, 0.1), workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged and fit.iterations > 2
        # Less than one float64 n-vector over the whole fit.
        assert peak - before < 8 * n

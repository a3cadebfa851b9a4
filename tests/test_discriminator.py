"""Feature maps, the IRLS logistic fit, and cross-validated log-odds."""

import importlib.util
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import carmen.discriminator
import carmen.logistic
import carmen.ratio
from carmen.cli import _PRESETS, ScenarioConfig, run_draws, run_scenario
from carmen.conjugate import GaussianKnownVarModel, SufficientStats, predictive_sample, temper_update
from carmen.data import Dataset
from carmen.discriminator import _LN_CLAMP, _TRANSFORMS, FeatureMap, _count_table, cv_log_odds
from carmen.logistic import (
    DEFAULT_RIDGE,
    MAX_ITER,
    TOL,
    DecisionFunction,
    FoldStack,
    LabeledDesign,
    _softplus_sigmoid,
    fit_logistic,
    fit_logistic_folds,
)
from carmen.numerics import RngStream
from carmen.ratio import estimate_draws
from carmen.tempering import TemperingGrid, call_stream
from carmen.truths import GaussianTruth, NegBinomialTruth
from oracles import (
    FEATURE_EXPRESSIONS,
    counted_fold,
    fold_ids,
    fold_scores,
    log_odds,
    point_design,
    raw_block_cv,
    raw_features,
    standardized_design,
)


def _fold_indices(n: int, k: int, g: np.random.Generator) -> list[np.ndarray]:
    """The folds ``cv_log_odds`` cuts: one permutation of the n points, split by
    ``np.array_split`` into k near-equal runs, each run sorted."""
    return [np.sort(f) for f in np.array_split(g.permutation(n), k)]


def _labeled_design(observed: Dataset, simulated: Dataset, fm: FeatureMap) -> LabeledDesign:
    """Feature rows for both classes, standardization fitted on the union."""
    raw_t = np.hstack([raw_features(fm, observed), raw_features(fm, simulated)])
    labels = np.concatenate([np.zeros(len(observed)), np.ones(len(simulated))])
    return standardized_design(raw_t, labels)


def _filled(fm: FeatureMap, data: Dataset) -> np.ndarray:
    """The (d, n) features that ``FeatureMap.fill`` writes for ``data``, one row per transform."""
    x, y = fm.columns(data)
    return fm.fill(x, y, np.empty((len(fm.transforms), len(data))))


class TestFeatureMap:
    def test_bookkeeping(self):
        design = _labeled_design(
            Dataset(np.array([1.0, 2.0])), Dataset(np.array([3.0, 4.0])), FeatureMap(("x",))
        )
        assert design.features.shape == (4, 1)
        assert np.array_equal(design.labels, [0.0, 0.0, 1.0, 1.0])

    def test_raw_polynomials(self):
        fm = FeatureMap(("x", "x2"))
        raw = _filled(fm, Dataset(np.array([3.0])))
        assert np.array_equal(raw, [[3.0], [9.0]])

    def test_log_clamp_at_zero(self):
        fm = FeatureMap(("ln_abs_x",))
        raw = _filled(fm, Dataset(np.array([0.0])))
        assert raw[0, 0] == pytest.approx(math.log(1e-12))

    def test_regression_transforms(self):
        fm = FeatureMap(("y", "abs_y", "y2", "yx", "abs_yx", "yx2"))
        data = Dataset(np.array([-2.0]), covariates=np.array([0.5]))
        assert np.allclose(_filled(fm, data), [[-2.0], [2.0], [4.0], [-1.0], [1.0], [1.0]])

    def test_response_transform_needs_regression_data(self):
        with pytest.raises(ValueError):
            FeatureMap(("y2",)).columns(Dataset(np.array([1.0])))

    def test_unknown_and_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(("x5",))
        with pytest.raises(ValueError):
            FeatureMap(())

    @pytest.mark.parametrize(
        "names,repeated",
        [(("x", "x", "x2"), "['x']"), (("x2", "x", "x2", "x", "x3"), "['x', 'x2']")],
        ids=["one", "two"],
    )
    def test_repeated_name_rejected(self, names, repeated):
        with pytest.raises(ValueError) as info:
            FeatureMap(names)
        assert str(info.value) == f"transforms {repeated} are repeated; each may appear once"

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

    def test_fill_writes_one_feature_per_row(self):
        out = np.empty((3, 2))
        assert FeatureMap(("x", "x2", "x3")).fill(np.array([1.0, 2.0]), None, out) is out
        assert np.array_equal(out, [[1.0, 2.0], [1.0, 4.0], [1.0, 8.0]])

    def test_standardized_design_is_one_feature_major_block(self):
        g = RngStream(91).generator()
        raw_t = np.ascontiguousarray(g.normal(2.0, 3.0, size=(3, 40)))
        block = raw_t.copy()
        design = standardized_design(block, np.repeat([0.0, 1.0], 20))
        assert block.tobytes() == raw_t.tobytes()
        assert design.design.shape == (4, 40) and design.design.flags.c_contiguous
        assert np.shares_memory(design.features, design.design)
        assert design.features.T.flags.c_contiguous
        assert np.array_equal(design.design[0], np.ones(40))
        assert np.array_equal(design.mean, raw_t.mean(axis=1))
        assert np.allclose(design.sd, raw_t.std(axis=1), rtol=1e-14, atol=0.0)
        assert design.ridge_sd is design.sd
        ref = (raw_t - design.mean[:, None]) / design.sd[:, None]
        assert np.allclose(design.design[1:], ref, rtol=0.0, atol=1e-14)

    def test_standardization_exact_under_large_offset(self):
        # sd is taken from the centred rows, so a large common offset
        # leaves it exact: population sd of (-1, 0, 1, 0) is sqrt(1/2).
        block = 1e9 + np.array([[-1.0, 0.0, 1.0, 0.0]])
        design = standardized_design(block, np.array([0.0, 0.0, 1.0, 1.0]))
        assert design.mean[0] == 1e9
        assert design.sd[0] == math.sqrt(0.5)
        assert np.array_equal(design.features[:, 0], np.array([-1.0, 0.0, 1.0, 0.0]) / math.sqrt(0.5))


def _softplus_and_sigmoid(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The softplus and sigmoid that ``_softplus_sigmoid`` writes for ``eta`` at label 0, where z = eta."""
    soft, sig = np.empty_like(eta), np.empty_like(eta)
    _softplus_sigmoid(eta, np.zeros_like(eta), soft, sig)
    return soft, sig


class TestSoftplusSigmoid:
    ETA = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 36.0, -36.0, 40.0, -40.0, 745.0, -745.0, 1000.0, -1000.0])

    def test_matches_logaddexp_and_logistic(self):
        with np.errstate(over="ignore", under="ignore"):
            ref_soft = np.logaddexp(0.0, self.ETA)
            ref_p = 1.0 / (1.0 + np.exp(-self.ETA))
        with np.errstate(all="raise", under="ignore"):
            soft, p = _softplus_and_sigmoid(self.ETA)
        np.testing.assert_array_max_ulp(soft, ref_soft, maxulp=2)
        np.testing.assert_array_max_ulp(p, ref_p, maxulp=4)

    def test_saturated_values(self):
        # Below eta = -37, e^eta is under half an ulp of 1, so the softplus
        # log1p(e^eta) and the sigmoid exp(eta - softplus) are e^eta itself,
        # subnormal band included; above 37, the softplus is eta and the
        # sigmoid 1.  A kernel that clamps its exponentials breaks this.
        eta = np.array([37.0, 40.0, 69.0, 300.0, 700.0, 708.5, 720.0, 744.0, 746.0, 1000.0])
        with np.errstate(all="raise", under="ignore"):
            soft, p = _softplus_and_sigmoid(np.concatenate([-eta, eta]))
            tail = np.exp(-eta)
        low, high = slice(0, eta.size), slice(eta.size, None)
        assert soft[low].tobytes() == tail.tobytes() and p[low].tobytes() == tail.tobytes()
        assert soft[high].tobytes() == eta.tobytes() and np.all(p[high] == 1.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 1800, 18000])
    def test_zero_start_is_filled_exactly(self, monkeypatch, n):
        # fit_logistic fills softplus(0) = ln 2 and sigmoid(0) = 1/2 instead
        # of evaluating them; both must be the evaluated values, bit for bit.
        with np.errstate(all="raise", under="ignore"):
            soft, p = _softplus_and_sigmoid(np.zeros(n))
        assert soft.tobytes() == np.full(n, math.log(2.0)).tobytes()
        assert p.tobytes() == np.full(n, 0.5).tobytes()
        if n >= 2:
            labels = (np.arange(n) % 2).astype(float)
            feats = RngStream(96).generator().normal(size=(n, 2))
            monkeypatch.setattr(carmen.logistic, "MAX_ITER", 1)
            fit = fit_logistic(point_design(feats, labels, np.zeros(2), np.ones(2)))
            evaluated = -float(soft.sum())  # less a ridge term of 0 at beta = 0
            assert np.float64(fit.objective_path[0]).tobytes() == np.float64(evaluated).tobytes()


class TestFitLogistic:
    def test_no_signal_gives_zero_fit(self):
        feats = np.zeros((40, 2))
        labels = np.array([0.0, 1.0] * 20)
        design = point_design(feats, labels, np.zeros(2), np.ones(2))
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
        design = point_design((feats - mu) / sd, labels, mu, sd)
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
        design = point_design(feats, labels, np.zeros(3), np.ones(3))
        fit = fit_logistic(design)
        path = np.array(fit.objective_path)
        assert np.all(np.diff(path) >= -1e-12)

    def test_balanced_mean_probability_is_half(self):
        g = RngStream(52).generator()
        feats = np.concatenate([g.normal(-0.5, 1.0, 300), g.normal(0.5, 1.0, 300)])[:, None]
        labels = np.concatenate([np.zeros(300), np.ones(300)])
        mu, sd = feats.mean(axis=0), feats.std(axis=0)
        design = point_design((feats - mu) / sd, labels, mu, sd)
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
        design = point_design(feats, labels, np.zeros(1), np.ones(1))
        with np.errstate(all="raise"):
            fit = fit_logistic(design, start=DecisionFunction(0.0, np.array([1000.0])))
        assert fit.weights[0] == 1000.0
        assert fit.ridge > 1e-6 and not fit.converged

    @pytest.mark.parametrize(
        "setting, name",
        [
            (dict(ridge=math.nan), "ridge"),
            (dict(ridge=math.inf), "ridge"),
            (dict(ridge=-1e-6), "ridge"),
        ],
    )
    def test_bad_settings_rejected(self, setting, name):
        with pytest.raises(ValueError, match=name):
            fit_logistic(_overlapping_design(), **setting)

    def test_needs_both_classes(self):
        design = point_design(np.zeros((5, 1)), np.zeros(5), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            fit_logistic(design)

    @pytest.mark.parametrize(
        "labels",
        [[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 1.0], [0.0, 1.0, math.nan, 1.0]],
        ids=["one-class", "label-2", "label-nan"],
    )
    def test_labels_must_be_0_and_1(self, labels):
        design = point_design(np.zeros((4, 1)), np.array(labels), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError):
            fit_logistic(design)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("labels", np.zeros(12), "LabeledDesign.labels has shape (12,), expected (10,) for a (2, 10) design"),
            ("mean", np.zeros(2), "LabeledDesign.mean has shape (2,), expected (1,) for a (2, 10) design"),
            ("sd", np.ones(2), "LabeledDesign.sd has shape (2,), expected (1,) for a (2, 10) design"),
            ("ridge_sd", np.ones((1, 1)),
             "LabeledDesign.ridge_sd has shape (1, 1), expected (1,) for a (2, 10) design"),
            ("design", np.linspace(-1.0, 1.0, 10),
             "LabeledDesign.design has shape (10,), expected a 2-D (d+1, n) design"),
        ],
        ids=["labels", "mean", "sd", "ridge_sd", "1-D-design"],
    )
    def test_shapes_checked_where_built(self, name, value, message):
        # A 10-point, one-feature design, one field replaced: the design
        # fails where it is built, not inside the fit.
        fields = dict(design=np.vstack([np.ones(10), np.linspace(-1.0, 1.0, 10)]), labels=np.repeat([0.0, 1.0], 5),
                      mean=np.zeros(1), sd=np.ones(1), ridge_sd=np.ones(1))
        with pytest.raises(ValueError) as info:
            LabeledDesign(**{**fields, name: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "owner, name", [(LabeledDesign, "sd"), (LabeledDesign, "ridge_sd"), (FoldStack, "sd"), (FoldStack, "ridge_sd")]
    )
    def test_sds_checked_where_built(self, owner, name, value):
        # A two-feature design or k = 2 stack, its last sd replaced: a fit
        # on an sd of 0 would divide by zero and decide nan.
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        if owner is LabeledDesign:
            built = point_design(np.zeros((4, 2)), labels, np.zeros(2), np.ones(2))
        else:
            built = _unit_stack(np.zeros((2, 4)), labels, np.ones((2, 4)))
        sds = getattr(built, name).copy()
        sds.flat[-1] = value
        with pytest.raises(ValueError) as info:
            replace(built, **{name: sds})
        assert str(info.value) == f"{owner.__name__}.{name} must be finite and positive, got {value!r}"


def _overlapping_design() -> LabeledDesign:
    g = RngStream(55).generator()
    feats = np.concatenate([g.normal(-0.5, 1.0, (300, 2)), g.normal(0.5, 1.0, (300, 2))])
    labels = np.concatenate([np.zeros(300), np.ones(300)])
    mu, sd = feats.mean(axis=0), feats.std(axis=0)
    return point_design((feats - mu) / sd, labels, mu, sd)


def _separable_design() -> LabeledDesign:
    feats = np.concatenate([np.linspace(-3, -1, 25), np.linspace(1, 3, 25)])[:, None]
    labels = np.concatenate([np.zeros(25), np.ones(25)])
    mu, sd = feats.mean(axis=0), feats.std(axis=0)
    return point_design((feats - mu) / sd, labels, mu, sd)


def _penalized_gradient(design: LabeledDesign, fit) -> np.ndarray:
    """Gradient of the penalized log-likelihood at a fit's coefficients."""
    eta = fit.intercept + design.features @ fit.weights
    resid = design.labels - 1.0 / (1.0 + np.exp(-eta))
    return np.concatenate([[resid.sum()], design.features.T @ resid - fit.ridge * fit.weights])


class TestConvergence:
    @pytest.mark.parametrize("make", [_overlapping_design, _separable_design])
    @pytest.mark.parametrize("tol", [TOL, 1e-4])
    def test_converged_gradient_below_tol(self, monkeypatch, make, tol):
        design = make()
        monkeypatch.setattr(carmen.logistic, "TOL", tol)
        fit = fit_logistic(design)
        assert fit.converged
        # The final full step is not evaluated: the path holds the start
        # and every line-searched step.
        assert len(fit.objective_path) == fit.iterations
        n = design.labels.size
        assert np.linalg.norm(_penalized_gradient(design, fit)) < tol * math.sqrt(n)

    @pytest.mark.parametrize("make", [_overlapping_design, _separable_design])
    def test_max_iter_stop_is_not_converged(self, monkeypatch, make):
        design = make()
        full = fit_logistic(design)
        assert full.converged and full.iterations > 2
        monkeypatch.setattr(carmen.logistic, "MAX_ITER", full.iterations - 1)
        cut = fit_logistic(design)
        assert not cut.converged
        assert cut.iterations == full.iterations - 1
        # The same line-searched steps, without the decrement stop's last one.
        assert cut.objective_path == full.objective_path

    @pytest.mark.parametrize(
        "fit_all",
        [lambda: [fit_logistic(_overlapping_design())], lambda: fit_logistic_folds(_counted_design(66, k=3))],
        ids=["points", "folds"],
    )
    def test_line_search_that_gives_up_is_not_converged(self, monkeypatch, fit_all):
        # The objective is minus the sum of the per-point softplus terms
        # that _softplus_sigmoid writes; raised by 1 there, every evaluated
        # objective falls by n (a fold's points) below the zero start's,
        # which is filled, not evaluated, so no halving of the first step is
        # accepted, and every fold stops where it started.
        softplus_sigmoid = carmen.logistic._softplus_sigmoid

        def raised(eta, y, soft, sig):
            softplus_sigmoid(eta, y, soft, sig)
            soft += 1.0

        monkeypatch.setattr(carmen.logistic, "_softplus_sigmoid", raised)
        for fit in fit_all():
            assert not fit.converged
            assert fit.iterations == 0 and len(fit.objective_path) == 1
            assert fit.intercept == 0.0 and not fit.weights.any()

    @pytest.mark.parametrize("scale", [-1e-30, math.nan], ids=["negative", "nan"])
    def test_negative_or_nan_decrement_is_not_convergence(self, monkeypatch, scale):
        # Scaling every Newton step makes lambda^2 tiny and negative, or NaN.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: scale * solve(a, b))
        monkeypatch.setattr(carmen.logistic, "MAX_ITER", 5)
        fit = fit_logistic(_overlapping_design())
        assert not fit.converged


class TestWarmStart:
    def test_start_worse_than_zero_gives_cold_fit(self):
        design = _overlapping_design()
        cold = fit_logistic(design)
        warm = fit_logistic(design, start=DecisionFunction(3.0, np.array([-20.0, 20.0])))
        assert warm.intercept == cold.intercept
        assert np.array_equal(warm.weights, cold.weights)
        assert (warm.iterations, warm.converged, warm.ridge) == (cold.iterations, cold.converged, cold.ridge)
        assert warm.objective_path == cold.objective_path

    def test_start_at_optimum_stays_there(self):
        design = _overlapping_design()
        cold = fit_logistic(design)
        assert cold.converged and cold.iterations > 2
        warm = fit_logistic(design, start=cold.decision)
        assert warm.converged and warm.iterations <= 2
        assert warm.intercept == pytest.approx(cold.intercept, abs=1e-8)
        assert np.allclose(warm.weights, cold.weights, rtol=0.0, atol=1e-8)

    def test_objective_path_non_decreasing_from_start(self):
        design = _overlapping_design()
        cold = fit_logistic(design)
        warm = fit_logistic(design, start=DecisionFunction(0.1, np.array([0.2, 0.2])))
        path = np.array(warm.objective_path)
        assert path[0] > cold.objective_path[0]  # the start was taken
        assert np.all(np.diff(path) >= -1e-12)

    def test_start_shape_checked(self):
        with pytest.raises(ValueError, match=r"start has \(1,\) weights, expected \(2,\)"):
            fit_logistic(_overlapping_design(), start=DecisionFunction(0.0, np.zeros(1)))


def _unit_stack(features: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> FoldStack:
    """A stack whose k folds share the (d, U) ``features`` as they are (every sd 1), weighted by the rows of ``counts``."""
    k, (d, u) = counts.shape[0], features.shape
    return FoldStack(np.vstack([np.ones(u), features]), labels, counts, np.zeros(d), np.ones(d), np.ones((k, d)))


def _off_centre_stack(raw: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> FoldStack:
    """The folds of ``counts`` over the raw (d, U) features on fold 0's own moments, each fold's ridge on its own sds."""
    folds = [counted_fold(raw, labels, row) for row in counts]
    mean, sd = folds[0].mean, folds[0].sd
    design = np.vstack([np.ones(raw.shape[1]), (raw - mean[:, None]) / sd[:, None]])
    return FoldStack(design, labels, counts, mean, sd, np.array([fold.sd for fold in folds]))


def _counted_design(seed: int, m: int = 80, d: int = 2, k: int = 1) -> FoldStack:
    """A k-fold stack of overlapping classes on m columns, with integer counts 1..6 per fold."""
    g = RngStream(seed).generator()
    feats = g.normal(size=(m, d))
    eta = 0.9 * feats[:, 0] - 0.4 * feats[:, -1]
    labels = (g.uniform(size=m) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return _unit_stack(feats.T, labels, g.integers(1, 7, size=(k, m)).astype(float))


def _separable_fold_0(stack: FoldStack) -> FoldStack:
    """``stack`` with fold 0 cut to the columns whose label is the sign of their first feature.

    That fold is separable, so it takes more steps than the others.
    """
    stack.counts[0, (stack.design[1] > 0.0) != (stack.labels == 1.0)] = 0.0
    return stack


def _first_decrement(stack: FoldStack, ridge: float = DEFAULT_RIDGE) -> float:
    """lambda^2 of the first Newton step of fold 0 from beta = 0, where p = 1/2."""
    A, c = stack.design.T, stack.counts[0]
    grad = A.T @ (c * (stack.labels - 0.5))
    hess = A.T @ ((0.25 * c)[:, None] * A)
    hess[np.arange(1, A.shape[1]), np.arange(1, A.shape[1])] += ridge * np.square(stack.ridge_sd[0] / stack.sd)
    return float(grad @ np.linalg.solve(hess, grad))


def _repeated_rows(stack: FoldStack, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold j's (n, d) features and labels, each column repeated by its count."""
    repeat = stack.counts[j].astype(int)
    return np.repeat(stack.design[1:].T, repeat, axis=0), np.repeat(stack.labels, repeat)


def _stuck_fold_stack() -> tuple[FoldStack, DecisionFunction]:
    """Three folds and a start under which fold 1, its 40 separable columns alone, has all its IRLS weights 0."""
    g = RngStream(64).generator()
    x = np.concatenate([-np.ones(20), np.ones(20), g.normal(size=40)])
    labels = np.concatenate([np.zeros(20), np.ones(20), (g.uniform(size=40) < 0.5).astype(float)])
    counts = np.ones((3, 80))
    counts[1, 40:] = 0.0
    return _unit_stack(x[None, :], labels, counts), DecisionFunction(0.0, np.array([1000.0]))


def _assert_folds_fit_alone(stack: FoldStack, fits: list, **kwargs) -> None:
    """Each fold's fit in ``fits`` is bit for bit ``fit_logistic_folds`` of that fold as a stack of its own."""
    for j, fit in enumerate(fits):
        alone = replace(stack, counts=stack.counts[j : j + 1], ridge_sd=stack.ridge_sd[j : j + 1])
        assert _fit_bytes(fit) == _fit_bytes(fit_logistic_folds(alone, **kwargs)[0])


class TestWeightedFit:
    def test_decrement_stop_scales_with_total_count(self, monkeypatch):
        # tol is set so that the first step's decrement lies between
        # columns * tol^2 and sum(c) * tol^2: only a stop that counts the
        # points takes that step as the last.
        stack = _counted_design(57)
        columns, points = len(stack.labels), float(stack.counts.sum())
        tol = math.sqrt(_first_decrement(stack) / points)
        assert columns * (tol * (1.0 + 1e-6)) ** 2 < _first_decrement(stack)
        monkeypatch.setattr(carmen.logistic, "TOL", tol * (1.0 + 1e-6))
        (stopped,) = fit_logistic_folds(stack)
        assert (stopped.iterations, stopped.converged) == (1, True)
        monkeypatch.setattr(carmen.logistic, "TOL", tol * (1.0 - 1e-6))
        (going_on,) = fit_logistic_folds(stack)
        assert going_on.converged and going_on.iterations > 1

    @pytest.mark.parametrize("n, d", [(600, 2), (18_000, 6)], ids=["one-block", "five-blocks"])
    def test_unit_counts_are_the_unweighted_fit(self, n, d):
        # fit_logistic sums its Hessian over blocks of at most GRAM_BLOCK =
        # 4,096 columns: 600 columns are one block, 18,000 columns five.
        # The stack of one fold with unit counts takes the same steps to the
        # same optimum.
        g = RngStream(58).generator()
        feats = g.normal(size=(n, d))
        eta = 0.8 * feats[:, 0] - 0.4 * feats[:, 1]
        labels = (g.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        plain = point_design(feats, labels, np.zeros(d), np.ones(d))
        for start in (None, DecisionFunction(0.1, np.full(d, 0.1))):
            fit = fit_logistic(plain, start=start)
            (unit,) = fit_logistic_folds(_unit_stack(feats.T, labels, np.ones((1, n))), start=start)
            assert (unit.iterations, unit.converged, unit.ridge) == (fit.iterations, fit.converged, fit.ridge)
            beta = np.concatenate([[unit.intercept], unit.weights])
            assert np.max(np.abs(beta - np.concatenate([[fit.intercept], fit.weights]))) < 1e-9
            ref, stopped = _row_major_fit(feats, labels, unit.ridge, beta, tol=1e-12)
            assert stopped and np.max(np.abs(ref - beta)) < 1e-9

    @pytest.mark.parametrize(
        "counts",
        [np.array([0.0, 2.0, 0.0, 1.0]), np.array([1.0, -1.0, 1.0, 1.0]), np.array([1.0, math.nan, 1.0, 1.0]),
         np.array([1.0, math.inf, 1.0, 1.0]), np.ones(3)],
        ids=["zero", "negative", "nan", "inf", "shape"],
    )
    def test_bad_counts_rejected(self, counts):
        # Zero counts are allowed, but not so many that a class leaves a fold.
        stack = _unit_stack(np.arange(4.0)[None, :], np.array([0.0, 1.0, 0.0, 1.0]), np.ones((2, 4)))
        stack.counts[1, : counts.size] = counts
        bad = replace(stack, counts=stack.counts[:, : counts.size])
        with pytest.raises(ValueError, match="count"):
            fit_logistic_folds(bad)

    @pytest.mark.parametrize(
        "ridge, labels, message",
        [(-1e-6, [0.0, 1.0, 0.0, 1.0], "ridge must be finite and nonnegative, got -1e-06"),
         (math.nan, [0.0, 1.0, 0.0, 1.0], "ridge must be finite and nonnegative, got nan"),
         (DEFAULT_RIDGE, [0.0, 1.0, 0.5, 1.0], "stack needs one label, 0 or 1, per column, got shape (4,)"),
         (DEFAULT_RIDGE, [0.0, 1.0, 0.0], "stack needs one label, 0 or 1, per column, got shape (3,)")],
        ids=["negative-ridge", "nan-ridge", "label-half", "labels-short"],
    )
    def test_bad_ridge_and_labels_rejected(self, ridge, labels, message):
        stack = replace(_unit_stack(np.arange(4.0)[None, :], np.array([0.0, 1.0, 0.0, 1.0]), np.ones((2, 4))),
                        labels=np.array(labels))
        with pytest.raises(ValueError) as info:
            fit_logistic_folds(stack, ridge=ridge)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("ridge_sd", np.ones((1, 1)),
             "FoldStack.ridge_sd has shape (1, 1), expected (2, 1) for a (2, 4) design"),
            ("mean", np.zeros(2), "FoldStack.mean has shape (2,), expected (1,) for a (2, 4) design"),
            ("sd", np.ones((2, 1)), "FoldStack.sd has shape (2, 1), expected (1,) for a (2, 4) design"),
            ("design", np.arange(4.0), "FoldStack.design has shape (4,), expected a 2-D (d+1, n) design"),
        ],
        ids=["one-fold-ridge-sd", "mean", "sd", "1-D-design"],
    )
    def test_shapes_checked_where_built(self, name, value, message):
        # A k = 2 stack, one field replaced.  With one fold's ridge sds the
        # fit used to broadcast them over both folds and report nothing.
        stack = _unit_stack(np.arange(4.0)[None, :], np.array([0.0, 1.0, 0.0, 1.0]), np.ones((2, 4)))
        with pytest.raises(ValueError) as info:
            replace(stack, **{name: value})
        assert str(info.value) == message

    def test_zero_count_leaves_the_column_out(self):
        # A column with count 0 in a fold fits as that fold without it.
        stack = _counted_design(59, k=3)
        stack.counts[1, ::3] = 0.0
        keep = np.flatnonzero(stack.counts[1] > 0.0)
        without = FoldStack(stack.design[:, keep].copy(), stack.labels[keep], stack.counts[1:2, keep].copy(),
                            stack.mean, stack.sd, stack.ridge_sd[1:2])
        (alone,) = fit_logistic_folds(without)
        folded = fit_logistic_folds(stack)[1]
        assert (folded.iterations, folded.converged) == (alone.iterations, alone.converged)
        assert np.max(np.abs(_fit_coefficients(folded) - _fit_coefficients(alone))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "start"])
    def test_each_fold_is_its_own_fit(self, warm, d):
        # Fitted together, every fold is bit for bit the fit of its stack
        # alone, and the stack is only read.  The last fold is separable and
        # stops passes after the others, which lie in front of it.  The raw
        # features are off centre, so the start is mapped through a nonzero
        # mean, and the folds share fold 0's moments, so the other folds'
        # ridges are rescaled to their own sds.
        unit = _separable_fold_0(_counted_design(60, d=d, k=4))
        stack = _off_centre_stack(3.0 + 2.0 * unit.design[1:], unit.labels, unit.counts[::-1].copy())
        # Half the log-odds the labels were drawn from, on the raw features.
        weights = np.zeros(d)
        weights[0], weights[-1] = 0.225, -0.1
        start = DecisionFunction(-3.0 * weights.sum(), weights) if warm else None
        arrays = (stack.design, stack.labels, stack.counts, stack.mean, stack.sd, stack.ridge_sd)
        before = [a.tobytes() for a in arrays]
        together = fit_logistic_folds(stack, start=start)
        assert [a.tobytes() for a in arrays] == before
        assert len({fit.iterations for fit in together}) > 1
        _assert_folds_fit_alone(stack, together, start=start)
        cold = fit_logistic_folds(stack)
        for j, fit in enumerate(together):
            assert warm == (fit.objective_path[0] > cold[j].objective_path[0])  # the start was taken
            # The fold's points, each column repeated by its count, take the
            # same steps to the same fit; the last fold's weights are near 130.
            points = point_design(*_repeated_rows(stack, j), stack.mean, stack.sd)
            points = replace(points, ridge_sd=stack.ridge_sd[j])
            repeated = fit_logistic(points, start=start)
            assert (fit.iterations, fit.converged) == (repeated.iterations, repeated.converged)
            scale = max(1.0, np.max(np.abs(_fit_coefficients(repeated))))
            assert np.max(np.abs(_fit_coefficients(fit) - _fit_coefficients(repeated))) < 1e-9 * scale

    def test_singular_fold_bumps_only_its_own_ridge(self):
        # At ridge 0 fold 2 holds only the columns whose first feature is 0,
        # so its Hessian is singular: it bumps its own ridge to 1e-6 and goes
        # on, while the other folds keep ridge 0 and the steps they take alone.
        stack = _counted_design(61, k=4)
        stack.design[1, ::2] = 0.0
        stack.counts[2, 1::2] = 0.0
        fits = fit_logistic_folds(stack, ridge=0.0)
        assert [fit.ridge for fit in fits] == [0.0, 0.0, 1e-6, 0.0]
        assert all(fit.converged for fit in fits)
        _assert_folds_fit_alone(stack, fits, ridge=0.0)
        assert fits[2].weights[0] == 0.0

    def test_fold_still_singular_after_three_bumps_stops_alone(self):
        # Fold 1 holds only the 40 separable columns, where the start
        # saturates every sigmoid: its IRLS weights are all 0, so its system
        # stays singular through three ridge bumps and it stops there,
        # unconverged at the start.  The start loses on the other folds,
        # which hold overlapping columns too; every fold fits as it does alone.
        stack, start = _stuck_fold_stack()
        with np.errstate(all="raise"):
            fits = fit_logistic_folds(stack, start=start)
        stuck = fits[1]
        assert not stuck.converged and stuck.iterations == 0
        assert stuck.ridge == pytest.approx(1e-3, rel=1e-12) and stuck.weights[0] == 1000.0
        assert all(fits[j].converged and fits[j].ridge == DEFAULT_RIDGE for j in (0, 2))
        _assert_folds_fit_alone(stack, fits, start=start)

    def test_stopped_singular_fold_leaves_the_stacked_solve(self, monkeypatch):
        # Fold 1 is singular in the four passes it is live (three ridge bumps
        # and the stop), and only those stacked solves fail and fall back to
        # one solve per live fold; once it has stopped, its row is the
        # identity and the other folds are solved together again.
        stack, start = _stuck_fold_stack()
        solve, stacked = np.linalg.solve, []

        def counting(a, b):
            try:
                x = solve(a, b)
            except np.linalg.LinAlgError:
                if a.ndim == 3:
                    stacked.append(False)
                raise
            if a.ndim == 3:
                stacked.append(True)
            return x

        monkeypatch.setattr(np.linalg, "solve", counting)
        fit_logistic_folds(stack, start=start)
        assert stacked[:4] == [False] * 4 and stacked[4:] and all(stacked[4:])

    def test_start_whose_penalty_overflows_is_dropped(self):
        # At ridge 1e300 a start with weights of 1e5 has a penalty beyond
        # the float range, an objective of -inf: the start loses to beta = 0
        # in every fold, and no RuntimeWarning escapes.
        stack = _counted_design(65, k=2)
        cold = fit_logistic_folds(stack, ridge=1e300)
        warm = fit_logistic_folds(stack, ridge=1e300, start=DecisionFunction(0.0, np.array([1e5, 1e5])))
        assert [_fit_bytes(fit) for fit in warm] == [_fit_bytes(fit) for fit in cold]

    def test_fold_cut_at_max_iter_leaves_the_others(self, monkeypatch):
        stack = _separable_fold_0(_counted_design(63, k=4))
        full = fit_logistic_folds(stack)
        iterations = [fit.iterations for fit in full]
        assert all(fit.converged for fit in full) and len(set(iterations)) > 1
        cap = max(iterations) - 1
        monkeypatch.setattr(carmen.logistic, "MAX_ITER", cap)
        cut = fit_logistic_folds(stack)
        for fit, whole in zip(cut, full):
            if whole.iterations > cap:
                assert not fit.converged and fit.iterations == cap
                # The same line-searched steps, without the decrement stop's last one.
                assert fit.objective_path == whole.objective_path
            else:
                assert _fit_bytes(fit) == _fit_bytes(whole)


# The two count scenarios of one cycle of each bench workload (bench/workloads.py):
# full-curve runs seed 0 along the whole curve, tstar seeds 0-9 at t* only, and
# large-n seeds 0 and 1 at 10,000 validation points with the reverse estimate.
_BENCH_COUNT_CYCLES = {
    "full-curve": ([0], dict(full_curve=True), (102, 1_020, 5_888)),
    "tstar": (range(10), {}, (20, 200, 803)),
    "large-n": ([0, 1], dict(n_validate=10_000, reverse_kl=True), (8, 80, 288)),
}


class TestBenchCountFolds:
    @pytest.mark.parametrize("workload", list(_BENCH_COUNT_CYCLES))
    def test_one_cycle_of_counted_folds(self, fold_fits, workload):
        # CI's traced bench step counts point fits only; these are the
        # batched fits of the count scenarios of one cycle: stacks, folds
        # and IRLS steps, none unconverged and no ridge bumped.
        seeds, options, expected = _BENCH_COUNT_CYCLES[workload]
        for seed in seeds:
            for scenario in ("poisson-nb", "poisson-betabinom"):
                run_scenario(ScenarioConfig(scenario=scenario, seed=seed, **options))
        folds = [fit for record in fold_fits for fit in record.fits]
        assert (len(fold_fits), len(folds), sum(fit.iterations for fit in folds)) == expected
        assert all(fit.converged and fit.ridge == DEFAULT_RIDGE for fit in folds)


def _bench_tracer_module():
    """``bench/tracer.py``, loaded from its file without putting ``bench/`` on the import path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTracer:
    def test_tracer_reads_each_fits_design(self):
        # The tracer records each point fit's (n, d) from
        # ``design.features.shape``: a golden-size reg-sigmoid run with the
        # reverse estimate makes two CV calls of 5 folds, each training on
        # 224 of 2 x 140 points with six features.  The spans it finds no
        # function for are those the run no longer calls by name.
        tracer = _bench_tracer_module().Tracer()
        tracer.install()
        try:
            run_scenario(ScenarioConfig(scenario="reg-sigmoid", seed=17, n_update=140, n_validate=140, folds=5,
                                        grid_lo=1e-7, grid_hi=1.0, grid_count=8, reverse_kl=True))
        finally:
            tracer.uninstall()
        assert [fit[:2] for fit in tracer.fits] == [(224, 6)] * 10
        assert tracer.missing == ["truths.true_log_ratio", "conjugate.predictive_logpdf",
                                  "tempering.optimize_t", "ratio.estimate_reverse_log_ratio"]


def _off_centre_kernels(n: int = 500, d: int = 3) -> tuple[LabeledDesign, FoldStack]:
    """One draw of off-centre raw features as a point design and as a one-fold stack with unit counts."""
    g = RngStream(66).generator()
    raw = g.normal(2.0, 3.0, size=(d, n))
    labels = (g.uniform(size=n) < 1.0 / (1.0 + np.exp(-0.3 * (raw[0] - 2.0) + 0.2 * (raw[-1] - 2.0)))).astype(float)
    return standardized_design(raw.copy(), labels), counted_fold(raw, labels, np.ones(n))


class TestKernelContract:
    """Both IRLS kernels take a start on raw features and return each fit's ``decision`` on raw features."""

    @pytest.mark.parametrize(
        "start, taken",
        [(DecisionFunction(-0.2, np.array([0.25, 0.0, -0.15])), True),
         (DecisionFunction(5.0, np.array([-2.0, 0.0, 2.0])), False)],
        ids=["taken", "dropped"],
    )
    def test_same_start_same_decision(self, start, taken):
        design, stack = _off_centre_kernels()
        cold = (fit_logistic(design), fit_logistic_folds(stack)[0])
        point, (fold,) = fit_logistic(design, start=start), fit_logistic_folds(stack, start=start)
        assert [warm.objective_path[0] > c.objective_path[0] for warm, c in zip((point, fold), cold)] == [taken] * 2
        for fit, mean, sd in ((point, design.mean, design.sd), (fold, stack.mean, stack.sd)):
            of = DecisionFunction.of(_fit_coefficients(fit), mean, sd)
            assert fit.decision.intercept == of.intercept and fit.decision.weights.tobytes() == of.weights.tobytes()
        assert abs(point.decision.intercept - fold.decision.intercept) < 1e-9
        assert np.max(np.abs(point.decision.weights - fold.decision.weights)) < 1e-9

    def test_start_with_wrong_weights_rejected_alike(self):
        design, stack = _off_centre_kernels()
        start, messages = DecisionFunction(0.0, np.zeros(2)), []
        for kernel, data in ((fit_logistic, design), (fit_logistic_folds, stack)):
            with pytest.raises(ValueError) as error:
                kernel(data, start=start)
            messages.append(str(error.value))
        assert messages == ["start has (2,) weights, expected (3,)"] * 2


class TestLogOdds:
    def test_zero_fit_is_zero(self):
        design = point_design(np.zeros((4, 2)), np.array([0.0, 0, 1, 1]), np.zeros(2), np.ones(2))
        fit = fit_logistic(design)
        assert log_odds(fit, np.zeros(2)) == pytest.approx(0.0, abs=1e-9)

    def test_intercept_only(self):
        from carmen.logistic import LogisticFit

        fit = LogisticFit(math.log(3.0), np.zeros(2), 0.0, True, 1, DecisionFunction(math.log(3.0), np.zeros(2)))
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
        design = point_design(np.zeros((4, 2)), np.array([0.0, 0, 1, 1]), np.zeros(2), np.ones(2))
        fit = fit_logistic(design)
        with pytest.raises(ValueError):
            log_odds(fit, np.zeros(3))

    def test_affine_rescaling_invariance(self):
        # with no penalty, standardization removes any affine feature map
        g = RngStream(54).generator()
        obs = Dataset(g.normal(0.0, 1.0, 400))
        sim = Dataset(g.normal(0.5, 1.2, 400))
        fm = FeatureMap(("x", "x2"))
        raw_obs, raw_sim = raw_features(fm, obs).T, raw_features(fm, sim).T
        holdout = raw_features(fm, Dataset(g.normal(0.0, 1.0, 50))).T

        def fit_and_score(scale, shift):
            raw = np.vstack([raw_obs, raw_sim]) * scale + shift
            labels = np.concatenate([np.zeros(400), np.ones(400)])
            mu, sd = raw.mean(axis=0), raw.std(axis=0)
            design = point_design((raw - mu) / sd, labels, mu, sd)
            fit = fit_logistic(design, ridge=0.0)
            return log_odds(fit, (holdout * scale + shift - mu) / sd)

        base = fit_and_score(1.0, 0.0)
        rescaled = fit_and_score(np.array([3.0, 0.2]), np.array([-1.0, 7.0]))
        assert np.max(np.abs(base - rescaled)) < 1e-6


def _grid_level_draw(scenario: str, seed: int, level: int, **custom):
    """t and the ``cv_log_odds`` arguments of one grid level of a full-curve run, drawn by the run's plan.

    ``custom`` holds further config fields, such as a custom scenario's.
    """
    cfg = ScenarioConfig(scenario=scenario, seed=seed, full_curve=True, **custom)
    binding = cfg.binding()
    x_update, x_valid, rng = run_draws(cfg, binding.truth)
    t = float(TemperingGrid.log_uniform(cfg.grid_lo, cfg.grid_hi, cfg.grid_count).values[level])
    post = temper_update(binding.model, SufficientStats.from_dataset(x_update), t)
    sim, folds = estimate_draws(post, x_valid, len(x_valid), call_stream(rng, level))
    return t, (x_valid, sim, FeatureMap(binding.features), cfg.folds, cfg.ridge, folds)


class TestCvLogOdds:
    @pytest.mark.parametrize("scenario", ["gauss-gauss", "poisson-nb", "reg-tnoise"])  # one of each data kind
    def test_grid_levels_replay_bit_for_bit(self, scenario):
        # A two-level full-curve run at default sizes: level 0 starts from
        # none and level 1 from level 0's last fold, so the replayed chain
        # gives each level's sum bit for bit.
        points = run_scenario(ScenarioConfig(scenario=scenario, seed=4, full_curve=True, grid_count=2)).curve.points
        start = None
        for level, point in enumerate(points):
            t, args = _grid_level_draw(scenario, 4, level, grid_count=2)
            odds, start = cv_log_odds(*args, start=start)
            assert t == point.t
            assert float(odds[: len(args[0])].sum()) == point.logz_approx_sum

    def test_indistinguishable_classes_centered(self):
        obs = Dataset(RngStream(60, 0).generator().normal(size=1000))
        sim = Dataset(RngStream(60, 1).generator().normal(size=1000))
        odds, _ = cv_log_odds(obs, sim, FeatureMap(("x", "x2")), 10, 1e-6, RngStream(61))
        vals = odds[: len(obs)]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) < 3 * se

    def test_every_point_scored_once(self):
        obs = Dataset(RngStream(62, 0).generator().normal(size=97))
        sim = Dataset(RngStream(62, 1).generator().normal(size=103))
        vals, _ = cv_log_odds(obs, sim, FeatureMap(("x",)), 5, 1e-6, RngStream(63))
        assert vals.shape == (97 + 103,)
        assert np.all(np.isfinite(vals))

    def test_every_simulated_point_scored_once(self):
        # Unequal classes: the simulated points sit behind the observed
        # ones in the gathered block.
        obs = Dataset(RngStream(62, 0).generator().normal(size=97))
        sim = Dataset(RngStream(62, 1).generator().normal(0.5, 1.0, size=103))
        args = (obs, sim, FeatureMap(("x", "x2")), 5, 1e-6, RngStream(63))
        vals, _ = cv_log_odds(*args)
        assert vals[97:].shape == (103,)
        assert np.allclose(vals, _row_major_cv(*args), rtol=1e-8, atol=1e-8)

    def test_k2_and_k10_agree_within_noise(self):
        obs = Dataset(RngStream(64, 0).generator().normal(size=1000))
        sim = Dataset(RngStream(64, 1).generator().normal(0.15, 1.0, size=1000))
        fm = FeatureMap(("x", "x2"))
        v2 = cv_log_odds(obs, sim, fm, 2, 1e-6, RngStream(65))[0][:1000]
        v10 = cv_log_odds(obs, sim, fm, 10, 1e-6, RngStream(66))[0][:1000]
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
        odds, _ = cv_log_odds(xv, sim, FeatureMap(("x", "x2")), 10, 1e-6, RngStream(70))
        vals = odds[: len(xv)]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) < 4 * se

    def test_deterministic(self):
        obs = Dataset(RngStream(71, 0).generator().normal(size=100))
        sim = Dataset(RngStream(71, 1).generator().normal(size=100))
        a, _ = cv_log_odds(obs, sim, FeatureMap(("x",)), 5, 1e-6, RngStream(72))
        b, _ = cv_log_odds(obs, sim, FeatureMap(("x",)), 5, 1e-6, RngStream(72))
        assert np.array_equal(a, b)

    def test_near_separable_level_matches_tight_fits(self, fits):
        # reg-sigmoid, seed 0, grid level 23 of a full-curve run: where
        # stopping on the damped step |step * delta| < 1e-8 left a fold
        # 0.025 from its optimum in the training log-odds.  Each fold's
        # reference continues from its fit to lambda^2 <= 1e-24 n, close
        # to the rounding floor of these near-separable designs.
        args = _grid_level_draw("reg-sigmoid", 0, 23)[1]
        cv_log_odds(*args)
        assert len(fits) == args[3]
        for record in fits:
            X, y, result = record.snapshot.features, record.snapshot.labels, record.fit
            assert result.converged
            beta = np.concatenate([[result.intercept], result.weights])
            ridge = result.ridge * np.square(record.snapshot.ridge_sd / record.snapshot.sd)
            ref, stopped = _row_major_fit(X, y, ridge, beta, tol=1e-12)
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
        odds, _ = cv_log_odds(x_valid, sim, fm, k, ridge, cv_rng)
        vals = odds[: len(x_valid)]

        # reference: every fold fitted from beta = 0
        raw_obs, raw_sim = raw_features(fm, x_valid).T, raw_features(fm, sim).T
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
            design = point_design((raw - mu) / sd, labels, mu, sd)
            fit = fit_logistic(design, ridge=ridge)
            ref[held_obs] = log_odds(fit, (raw_obs[held_obs] - mu) / sd)
        assert ref.sum() < -1000.0
        assert np.max(np.abs(vals - ref)) < 1e-5

    @pytest.mark.parametrize("t, share", [(1e-6, 1.0), (1e-3, 0.5)], ids=["matched", "separated"])
    def test_warm_folds_take_no_more_iterations(self, fits, t, share):
        model = GaussianKnownVarModel(0.1, 0.0, 9.9)
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(67), 1000)
        xv = truth.sample(RngStream(68), 1000)
        post = temper_update(model, SufficientStats.from_dataset(xu), t)
        sim = predictive_sample(post, RngStream(69), 1000)
        k = 10
        cv_log_odds(xv, sim, FeatureMap(("x", "x2")), k, 1e-6, RngStream(70))
        iterations = [record.fit.iterations for record in fits]
        assert len(iterations) == k
        cold, warm = iterations[0], iterations[1:]
        assert max(warm) <= cold
        assert sum(warm) <= share * (k - 1) * cold

    def test_fold_designs_are_feature_major_complements(self, fits):
        g = RngStream(80).generator()
        n_obs, n_sim, k = 53, 47, 5
        # |y| = 1.5 everywhere: a feature that is constant in every fold.
        obs = Dataset(1.5 * g.choice([-1.0, 1.0], n_obs), g.normal(size=n_obs))
        sim = Dataset(1.5 * g.choice([-1.0, 1.0], n_sim), g.normal(0.3, 1.2, n_sim))
        fm = FeatureMap(("abs_y", "x", "yx2"))
        cv_log_odds(obs, sim, fm, k, 1e-6, RngStream(81))
        assert len(fits) == k

        raw = np.hstack([raw_features(fm, obs), raw_features(fm, sim)]).T
        labels = np.concatenate([np.zeros(n_obs), np.ones(n_sim)])
        fold_rng = RngStream(81).generator()
        folds_obs = _fold_indices(n_obs, k, fold_rng)
        folds_sim = _fold_indices(n_sim, k, fold_rng)
        held_out = np.zeros(n_obs + n_sim, dtype=int)
        # Every fold's features are standardized by one basis, the same
        # arrays, and each is a prefix of one (d+1, n) design.
        mu, sd = fits[0].design.mean, fits[0].design.sd
        design = fits[0].design.design.base
        assert design.shape == (4, n_obs + n_sim) and design.flags.c_contiguous
        means, sds = [], []
        for j, record in enumerate(fits):
            assert record.design.mean is mu and record.design.sd is sd
            prefix = record.design.design
            assert prefix.base is design and prefix.strides == design.strides
            assert prefix.__array_interface__["data"] == design.__array_interface__["data"]
            train = np.ones(n_obs + n_sim, dtype=bool)
            train[folds_obs[j]] = False
            train[n_obs + folds_sim[j]] = False
            held_out[~train] += 1
            at_fit = record.snapshot
            # The fold's own sd sets its ridge; abs_y's is 0, kept as 1.
            own = np.where(np.arange(3) == 0, 1.0, raw[train].std(axis=0))
            assert np.allclose(at_fit.ridge_sd, own, rtol=1e-12, atol=0.0)
            means.append(raw[train].mean(axis=0))
            sds.append(own)
            # Its columns are its training points, in some order, with their labels.
            got = np.column_stack([at_fit.labels, at_fit.features])
            want = np.column_stack([labels[train], (raw[train] - mu) / sd])
            got, want = (a[np.lexsort(a.T[::-1])] for a in (got, want))
            assert np.array_equal(got, want)
            assert not at_fit.features[:, 0].any()
        assert np.array_equal(held_out, np.ones(n_obs + n_sim, dtype=int))
        # The basis is each feature's moments on the fold whose sd of it is least.
        least = np.argmin(sds, axis=0)
        assert np.allclose(mu, np.array(means)[least, np.arange(3)], rtol=1e-12, atol=1e-12)
        assert sd[0] == 1.0 and np.allclose(sd, np.array(sds)[least, np.arange(3)], rtol=1e-12, atol=0.0)

    def test_fold_ids_are_the_array_split_folds(self):
        for n, k in [(10, 2), (97, 5), (103, 10), (1000, 10), (11, 11)]:
            ids = fold_ids(n, k, RngStream(82, n).generator())
            folds = _fold_indices(n, k, RngStream(82, n).generator())
            assert [np.flatnonzero(ids == j).tolist() for j in range(k)] == [f.tolist() for f in folds]

    @pytest.mark.parametrize(
        "scenario, seed, level", [("reg-sigmoid", 0, 23), ("poisson-betabinom", 7, 11)],
        ids=["reg-sigmoid", "poisson-betabinom"],
    )
    def test_start_from_previous_level_matches_cold_call(self, fits, fold_fits, scenario, seed, level):
        # Nearly separable levels of a full-curve run, where last-bit
        # changes moved the simulated-class mean by up to 6.4e-5 nat/pt.
        # A run starts each level's first fold (each fold, for count
        # classes) from the previous level's last fold; the result must be
        # the cold call's.
        _, previous = cv_log_odds(*_grid_level_draw(scenario, seed, level - 1)[1])
        args = _grid_level_draw(scenario, seed, level)[1]
        fits.clear()  # watch only the two calls below
        fold_fits.clear()
        cold, _ = cv_log_odds(*args)
        warm, _ = cv_log_odds(*args, start=previous)
        k = args[3]
        if scenario == "poisson-betabinom":  # count classes: one batched fit of k folds per call
            assert not fits and len(fold_fits) == 2
            cold_fits, warm_fits = fold_fits[0].fits, fold_fits[1].fits
        else:
            assert not fold_fits and len(fits) == 2 * k
            cold_fits, warm_fits = [record.fit for record in fits[:k]], [record.fit for record in fits[k:]]
        assert all(fit.converged for fit in cold_fits + warm_fits)
        # The carried start beat beta = 0, so the first warm fold began elsewhere.
        assert warm_fits[0].objective_path[0] > cold_fits[0].objective_path[0]
        assert np.max(np.abs(warm - cold)) <= 1e-5
        n_obs = len(args[0])
        for half in (slice(None, n_obs), slice(n_obs, None)):
            assert abs(warm[half].mean() - cold[half].mean()) <= 1e-7 * max(1.0, abs(cold[half].mean()))

    def test_start_worse_than_zero_is_ignored(self, fits):
        obs = Dataset(RngStream(83, 0).generator().normal(size=300))
        sim = Dataset(RngStream(83, 1).generator().normal(0.5, 1.5, size=300))
        args = (obs, sim, FeatureMap(("x", "x2")), 5, 1e-6, RngStream(84))
        _, decision = cv_log_odds(*args)
        fits.clear()  # watch only the two calls below
        cold, _ = cv_log_odds(*args)
        negated = DecisionFunction(-decision.intercept, -decision.weights)
        warm, _ = cv_log_odds(*args, start=negated)
        assert fits[5].start is not None and fits[0].start is None
        assert _fit_bytes(fits[5].fit) == _fit_bytes(fits[0].fit)
        assert np.array_equal(warm, cold)

    def test_returns_last_folds_decision_function(self, fits):
        obs = Dataset(RngStream(85, 0).generator().normal(size=200))
        sim = Dataset(RngStream(85, 1).generator().normal(0.4, 1.2, size=200))
        _, decision = cv_log_odds(obs, sim, FeatureMap(("x", "x2")), 4, 1e-6, RngStream(86))
        last = fits[-1]
        x = np.array([[0.3, 0.09], [-2.0, 4.0]])
        expected = log_odds(last.fit, (x - last.snapshot.mean) / last.snapshot.sd)
        assert np.allclose(decision.intercept + x @ decision.weights, expected, rtol=0.0, atol=1e-12)

    def test_non_integer_k_rejected_by_name_before_any_draw(self, monkeypatch):
        obs, sim = Dataset(np.arange(10.0)), Dataset(np.arange(10.0) + 0.5)
        args = (obs, sim, FeatureMap(("x",)))
        with monkeypatch.context() as patch:
            patch.setattr(RngStream, "generator", lambda self: pytest.fail("drew before checking k"))
            with pytest.raises(ValueError) as info:
                cv_log_odds(*args, 2.5, 1e-6, RngStream(0))
        assert str(info.value) == "k must be an integer >= 2, got 2.5"
        odds, _ = cv_log_odds(*args, np.int64(3), 1e-6, RngStream(0))
        assert np.array_equal(odds, cv_log_odds(*args, 3, 1e-6, RngStream(0))[0])

    def test_degenerate_folds_rejected(self):
        obs = Dataset(np.arange(5.0))
        sim = Dataset(np.arange(5.0))
        with pytest.raises(ValueError):
            cv_log_odds(obs, sim, FeatureMap(("x",)), 1, 1e-6, RngStream(0))
        with pytest.raises(ValueError):
            cv_log_odds(obs, sim, FeatureMap(("x",)), 6, 1e-6, RngStream(0))


class TestCountClasses:
    @pytest.mark.parametrize(
        "scenario, seed, level",
        [("poisson-nb", 0, 0), ("poisson-nb", 0, 11), ("poisson-nb", 0, 25), ("poisson-nb", 7, 2),
         ("poisson-betabinom", 0, 0), ("poisson-betabinom", 0, 25), ("poisson-betabinom", 7, 11),
         ("poisson-betabinom", 1, 47)],
    )
    def test_distinct_counts_match_points(self, monkeypatch, fits, fold_fits, scenario, seed, level):
        # Near separation (poisson-betabinom at small t) the log-odds reach
        # 2e4 nats, and even fits converged to lambda^2 <= 1e-20 n differ by
        # 8e-8 between the two layouts, so the bound scales with the values.
        args = _grid_level_draw(scenario, seed, level)[1]
        counted, _ = cv_log_odds(*args)
        monkeypatch.setattr(carmen.discriminator, "_count_table", lambda data: None)
        points, _ = cv_log_odds(*args)
        k, n = args[3], len(args[0]) + len(args[1])
        # The counted call is one batched fit on fewer than n/4 columns, the point call k fits.
        ((record,), point_fits) = fold_fits, fits
        assert record.stack.counts.shape[0] == k and record.stack.counts.shape[1] < n // 4
        assert len(point_fits) == k
        assert np.max(np.abs(counted - points)) <= 1e-9 * max(1.0, np.max(np.abs(points)))

    def test_fold_designs_expand_to_complements(self, fits, fold_fits):
        g = RngStream(87).generator()
        n_obs, n_sim, k = 53, 47, 5
        obs = Dataset(g.poisson(3.0, n_obs).astype(float))
        sim = Dataset(g.poisson(4.0, n_sim).astype(float))
        fm = FeatureMap(("x", "x2"))
        cv_log_odds(obs, sim, fm, k, 1e-6, RngStream(88))
        assert not fits
        (record,) = fold_fits

        # The columns are each class's distinct counts, the observed ones
        # first, in one design on one basis.
        distinct = (np.unique(obs.values), np.unique(sim.values))
        stack = record.stack
        assert np.array_equal(stack.labels, np.repeat([0.0, 1.0], [d.size for d in distinct]))
        assert stack.design.shape == (3, stack.labels.size) and np.all(stack.design[0] == 1.0)
        feats, mu, sd = stack.design[1:].T, stack.mean, stack.sd
        values = np.concatenate([obs.values, sim.values])
        fold_rng = RngStream(88).generator()
        folds_obs = _fold_indices(n_obs, k, fold_rng)
        folds_sim = _fold_indices(n_sim, k, fold_rng)
        held_out = np.zeros(n_obs + n_sim, dtype=int)
        means = []
        for j in range(k):
            counts = stack.counts[j]
            train = np.ones(n_obs + n_sim, dtype=bool)
            train[folds_obs[j]] = False
            train[n_obs + folds_sim[j]] = False
            held_out[~train] += 1
            for cls, points, column in ((0.0, values[:n_obs][train[:n_obs]], distinct[0]),
                                        (1.0, values[n_obs:][train[n_obs:]], distinct[1])):
                rows = stack.labels == cls
                kept, taken = np.unique(points, return_counts=True)
                assert np.array_equal(column[counts[rows] > 0.0], kept)
                assert np.array_equal(counts[rows][counts[rows] > 0.0], taken)
                assert np.array_equal(np.repeat(column, counts[rows].astype(int)), np.sort(points))
                in_fold = rows & (counts > 0.0)
                assert np.array_equal(feats[in_fold], (raw_features(fm, Dataset(kept)).T - mu) / sd)
            expanded = raw_features(fm, Dataset(values[train])).T
            means.append(expanded.mean(axis=0))
            assert np.allclose(stack.ridge_sd[j], expanded.std(axis=0), rtol=1e-12, atol=1e-12)
        assert np.array_equal(held_out, np.ones(n_obs + n_sim, dtype=int))
        # Each feature's basis is the moments of the fold whose sd of it is least.
        least, features = stack.ridge_sd.argmin(axis=0), np.arange(2)
        assert np.allclose(mu, np.array(means)[least, features], rtol=1e-12, atol=1e-12)
        assert np.array_equal(sd, stack.ridge_sd[least, features])

    def test_count_held_in_one_fold_leaves_its_design(self, fold_fits):
        # The lone count's one point is in one fold, so the count weighs 0
        # there: that fold's moments are those of its other points.  The
        # count spreads x on every other fold, so they are the basis.
        g = RngStream(89).generator()
        n, k, lone = 60, 5, 40.0
        obs_values = g.poisson(3.0, n).astype(float)
        obs_values[17] = lone
        sim_values = g.poisson(4.0, n).astype(float)
        cv_log_odds(Dataset(obs_values), Dataset(sim_values), FeatureMap(("x",)), k, 1e-6, RngStream(90))
        fold_rng = RngStream(90).generator()
        folds_obs, folds_sim = _fold_indices(n, k, fold_rng), _fold_indices(n, k, fold_rng)
        holder = next(j for j, f in enumerate(folds_obs) if 17 in f)
        (record,) = fold_fits
        stack = record.stack
        column = int(np.searchsorted(np.unique(obs_values), lone))
        assert stack.labels[column] == 0.0
        assert np.array_equal(stack.counts[:, column], np.where(np.arange(k) == holder, 0.0, 1.0))
        train = np.concatenate([np.delete(obs_values, folds_obs[holder]), np.delete(sim_values, folds_sim[holder])])
        assert lone not in train
        assert stack.ridge_sd[holder, 0] == pytest.approx(train.std(), rel=1e-12)
        assert stack.mean[0] == pytest.approx(train.mean(), rel=1e-12)
        assert stack.sd[0] == stack.ridge_sd[holder, 0] < stack.ridge_sd[:, 0].max()

    def test_count_class_beside_point_class_fits_points(self, monkeypatch, fits, fold_fits):
        # Distinct counts only when both classes are whole counts: a count
        # class beside a point class is fitted, like it, one column per
        # training point, bit for bit as without any count table.
        g = RngStream(92).generator()
        obs, sim = Dataset(g.poisson(3.0, 200).astype(float)), Dataset(g.normal(3.0, 2.0, 200))
        assert _count_table(obs) is not None and _count_table(sim) is None
        args = (obs, sim, FeatureMap(("x", "x2")), 5, 1e-6, RngStream(93))
        mixed, _ = cv_log_odds(*args)
        monkeypatch.setattr(carmen.discriminator, "_count_table", lambda data: None)
        points, _ = cv_log_odds(*args)
        assert mixed.tobytes() == points.tobytes()
        assert len(fits) == 10 and not fold_fits
        for record in fits[:5]:
            labels = record.snapshot.labels
            assert np.count_nonzero(labels == 0.0) == np.count_nonzero(labels == 1.0) == 160

    def test_class_not_of_counts_gets_no_table_before_any_sort(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("np.unique ran")

        g = RngStream(94).generator()
        counts = Dataset(g.poisson(3.0, 50).astype(float))
        monkeypatch.setattr(np, "unique", no_sort)
        for values in (g.normal(size=50), np.array([1.0, 2.5, 3.0]), np.array([1.0, -1.0])):
            assert _count_table(Dataset(values)) is None
        assert _count_table(Dataset(g.normal(size=10), covariates=g.normal(size=10))) is None
        table = _count_table(counts)
        monkeypatch.undo()
        assert np.array_equal(table.counts, np.unique(counts.values))

    @pytest.mark.parametrize("constant_sim", [True, False], ids=["zero-sd", "beside-counts"])
    def test_single_distinct_count_fits_as_its_points(self, monkeypatch, fold_fits, constant_sim):
        # An observed class of one distinct count, beside the same constant
        # (so every feature has sd 0, kept as 1, and standardizes to 0) or
        # beside varied counts: its one column fits as its 40 points.
        g = RngStream(95).generator()
        obs = Dataset(np.full(40, 3.0))
        sim = Dataset(np.full(40, 3.0) if constant_sim else g.poisson(4.0, 40).astype(float))
        args = (obs, sim, FeatureMap(("x", "x2")), 5, 1e-6, RngStream(96))
        counted, _ = cv_log_odds(*args)
        (record,) = fold_fits
        assert np.count_nonzero(record.stack.labels == 0.0) == 1
        assert all(fit.converged for fit in record.fits)
        if constant_sim:
            assert np.all(record.stack.sd == 1.0) and np.all(record.stack.ridge_sd == 1.0)
            assert not record.stack.design[1:].any()
        monkeypatch.setattr(carmen.discriminator, "_count_table", lambda data: None)
        points, _ = cv_log_odds(*args)
        assert np.max(np.abs(counted - points)) <= 1e-9 * max(1.0, np.max(np.abs(points)))

    @pytest.mark.parametrize("sim_count", [3.0, 5.0], ids=["same", "apart"])
    def test_one_constant_count_per_class_stays_finite(self, fold_fits, sim_count):
        obs, sim = Dataset(np.full(20, 3.0)), Dataset(np.full(20, sim_count))
        vals, decision = cv_log_odds(obs, sim, FeatureMap(("x", "x2")), 5, 1e-6, RngStream(91))
        assert np.all(np.isfinite(vals))
        assert np.isfinite(decision.intercept) and np.all(np.isfinite(decision.weights))
        (record,) = fold_fits
        assert np.array_equal(record.stack.counts, np.full((5, 2), 16.0))
        if sim_count == 3.0:
            assert np.allclose(vals, 0.0, atol=1e-9)
        else:
            assert np.all(vals[20:] > vals[:20])

    @pytest.mark.parametrize("n, bound_mib", [(1_000, 2.4), (4_000, 9.4)])
    def test_sparse_counts_share_one_design(self, fold_fits, n, bound_mib):
        # Counts near 1e12 are almost all distinct, so a call has about 2n
        # columns and its fit's arrays are (k, U).  The folds share one
        # (d+1, U) design and their moments are freed before the fit: the
        # call's tracemalloc peak was 2.09 and 8.03 MiB at n = 1,000 and
        # 4,000 points per class, against 2.77 and 10.78 MiB with one
        # standardized design per fold.
        truth = NegBinomialTruth(1e6, 0.999999)
        args = (truth.sample(RngStream(120), n), truth.sample(RngStream(121), n), FeatureMap(("x", "x2", "x3", "x4")),
                10, 1e-6, RngStream(122))
        cv_log_odds(*args)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cv_log_odds(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fold_fits) == 2 and fold_fits[0].stack.labels.size > 1.9 * n
        assert peak - before < bound_mib * 2**20

    @pytest.mark.parametrize("scenario", ["poisson-nb", "poisson-betabinom"])
    def test_full_curve_folds_are_their_fits_alone(self, fold_fits, scenario):
        # Every count CV call of a --full-curve run at default sizes, each
        # warm-started from the level before: folds fitted together, which
        # stop on different passes, are bit for bit their fits alone.
        cfg = ScenarioConfig(scenario=scenario, seed=1, full_curve=True)
        run_scenario(cfg)
        assert len(fold_fits) == cfg.grid_count + 1  # one call per grid level, and one at t*
        assert any(len({fit.iterations for fit in record.fits}) > 1 for record in fold_fits)
        for record in fold_fits:
            _assert_folds_fit_alone(record.stack, record.fits, ridge=cfg.ridge, start=record.start)


def _row_major_fit(
    X: np.ndarray, y: np.ndarray, ridge, start, tol: float = TOL
) -> tuple[np.ndarray, bool]:
    """IRLS on the row-major layout the package used before the feature-major one.

    Same start guard, line search and Newton-decrement stop as
    ``fit_logistic``, but with an (n, d+1) design, ``np.logaddexp`` and
    ``A.T @ (w * A)``.  ``ridge`` is one penalty for every weight, or one
    per weight.  Returns the coefficients and whether the decrement stop
    ended the fit.
    """
    n, d = X.shape
    A = np.column_stack([np.ones(n), X])

    def objective(eta, b):
        soft = np.logaddexp(0.0, eta)
        return float(y @ eta - soft.sum()) - 0.5 * float(b[1:] @ (ridge * b[1:])), soft

    beta, eta = np.zeros(d + 1), np.zeros(n)
    obj, soft = objective(eta, beta)
    if start is not None:
        start_eta = A @ start
        start_obj, start_soft = objective(start_eta, start)
        if start_obj > obj:
            beta, eta, obj, soft = start, start_eta, start_obj, start_soft
    diagonal = np.arange(1, d + 1)
    for _ in range(MAX_ITER):
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


def _row_major_cv(observed, simulated, fm, k, ridge, rng):
    """``cv_log_odds`` on row-major (n, d) features with ``std(axis=0)`` standardization."""
    raw_obs = np.column_stack(raw_features(fm, observed))
    raw_sim = np.column_stack(raw_features(fm, simulated))
    g = rng.generator()
    folds_obs = _fold_indices(len(observed), k, g)
    folds_sim = _fold_indices(len(simulated), k, g)
    out_obs = np.full(len(observed), np.nan)
    out_sim = np.full(len(simulated), np.nan)
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
        out_obs[held_obs] = beta[0] + ((raw_obs[held_obs] - mu) / sd) @ beta[1:]
        out_sim[held_sim] = beta[0] + ((raw_sim[held_sim] - mu) / sd) @ beta[1:]
    return np.concatenate([out_obs, out_sim])


class TestFeatureMajorLayout:
    def test_fit_bitwise_equal_for_c_and_f_ordered_features(self):
        g = RngStream(90).generator()
        feats = g.normal(size=(600, 3))
        eta = 0.8 * feats[:, 0] - 0.4 * feats[:, 1] * feats[:, 2]
        labels = (g.uniform(size=600) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        by_row = point_design(feats, labels, np.zeros(3), np.ones(3))
        by_col = replace(by_row, design=np.asfortranarray(by_row.design))
        assert not by_col.design.flags.c_contiguous
        for start in (None, DecisionFunction(0.1, np.array([0.5, -0.2, 0.0]))):
            fits = [fit_logistic(design, start=start) for design in (by_row, by_col)]
            a, b = fits
            assert a.intercept == b.intercept
            assert a.weights.tobytes() == b.weights.tobytes()
            assert (a.iterations, a.converged, a.ridge) == (b.iterations, b.converged, b.ridge)
            assert a.objective_path == b.objective_path

    @pytest.mark.parametrize("offset", [0, 1, 401])
    def test_fit_bitwise_equal_for_a_design_and_a_column_run_of_a_wider_one(self, offset):
        # A cross-validation fits each fold on the leading columns of one
        # wider C-ordered design, read in place: its rows are contiguous,
        # but lie at other strides and alignments than a design of its own.
        g = RngStream(90).generator()
        feats = g.normal(size=(600, 3))
        eta = 0.8 * feats[:, 0] - 0.4 * feats[:, 1] * feats[:, 2]
        labels = (g.uniform(size=600) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        own = point_design(feats, labels, np.zeros(3), np.ones(3))
        wider = np.full((4, 1001), np.nan)
        wider[:, offset : offset + 600] = own.design
        run = replace(own, design=wider[:, offset : offset + 600])
        assert not run.design.flags.c_contiguous
        for start in (None, DecisionFunction(0.1, np.array([0.5, -0.2, 0.0]))):
            fits = [fit_logistic(design, start=start) for design in (own, run)]
            a, b = fits
            assert a.intercept == b.intercept
            assert a.weights.tobytes() == b.weights.tobytes()
            assert (a.iterations, a.converged, a.ridge) == (b.iterations, b.converged, b.ridge)
            assert a.objective_path == b.objective_path

    @pytest.mark.parametrize("seed, level", [(0, 0), (0, 11), (0, 25), (0, 47), (1, 25)])
    @pytest.mark.parametrize(
        "scenario",
        ["gauss-gauss", "gauss-laplace", "poisson-nb", "poisson-betabinom", "reg-tnoise", "reg-sigmoid"],
    )
    def test_cv_agrees_with_row_major_reference(self, scenario, seed, level):
        # A full-curve run reads the observed class at every grid level, a
        # reverse-KL run the simulated class, the tail of the block.
        args = _grid_level_draw(scenario, seed, level)[1]
        vals, _ = cv_log_odds(*args)
        ref = _row_major_cv(*args)
        n_obs, n_sim = len(args[0]), len(args[1])
        assert vals.shape == (n_obs + n_sim,)
        assert np.all(np.isfinite(vals))
        assert abs(vals[:n_obs].mean() - ref[:n_obs].mean()) < 1e-7
        # Near separation the simulated scores reach hundreds of nats, so
        # the bound scales with them.
        sim, ref_sim = vals[n_obs:].mean(), ref[n_obs:].mean()
        assert abs(sim - ref_sim) < 1e-7 * max(1.0, abs(ref_sim))


def _fit_bytes(fit) -> tuple:
    """Every ``LogisticFit`` field, floats as their bytes."""
    floats = np.array([fit.intercept, fit.ridge, *fit.objective_path])
    return floats.tobytes(), fit.weights.tobytes(), fit.converged, fit.iterations


class TestFitScratch:
    def test_cv_fold_fits_equal_fresh_fits_of_copies(self, monkeypatch):
        # Each fold's design is a prefix of the one design whose columns
        # later folds swap; its fit is bit for bit the fit of a copy.
        records = []

        def recording(design, **kwargs):
            fresh_design = replace(design, design=design.design.copy())
            fit = fit_logistic(design, **kwargs)
            fresh = fit_logistic(fresh_design, **kwargs)
            records.append((design.features.shape[0], fit, _fit_bytes(fit), fresh))
            return fit

        monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
        g = RngStream(97).generator()
        obs = Dataset(g.normal(size=1003))
        sim = Dataset(g.normal(0.3, 1.2, 997))
        cv_log_odds(obs, sim, FeatureMap(("x", "x2")), 10, 1e-6, RngStream(98))
        sizes = [r[0] for r in records]
        assert len(records) == 10 and len(set(sizes)) > 1
        for _, fit, at_return, fresh in records:
            # Later folds overwrote the design; this fit is as it was returned.
            assert _fit_bytes(fit) == at_return
            assert _fit_bytes(fit) == _fit_bytes(fresh)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_fit_leaves_the_callers_design_as_it_was(self, monkeypatch, layout):
        # Blocked products, a separable design's 18 steps, a taken start
        # and ridge bumps all read the design; none writes to it, and none
        # to the labels, the basis or the ridge's sds.
        monkeypatch.setattr(carmen.logistic, "GRAM_BLOCK", 16)
        cases = [(_separable_design(), None), (_overlapping_design(), DecisionFunction(0.1, np.array([0.2, -0.1])))]
        feats = np.concatenate([-np.ones(20), np.ones(20)])[:, None]
        cases.append((point_design(feats, np.repeat([0.0, 1.0], 20), np.zeros(1), np.ones(1)),
                      DecisionFunction(0.0, np.array([1000.0]))))
        for design, start in cases:
            design = replace(design, design=np.array(design.design, order=layout))
            arrays = (design.design, design.labels, design.mean, design.sd, design.ridge_sd)
            before = [a.tobytes() for a in arrays]
            fit = fit_logistic(design, start=start)
            assert [a.tobytes() for a in arrays] == before
        assert fit.ridge > DEFAULT_RIDGE  # the saturating start's system stayed singular

    def test_fit_holds_its_scratch_and_less_than_one_n_vector(self):
        # Ten blocks of 4,096 columns: the scratch is allocated once per
        # fit, and no step or line search allocates an n-vector.
        n, d = 40_000, 3
        g = RngStream(99).generator()
        rows = g.normal(size=(d, n))
        eta = 0.8 * rows[0] - 0.5 * rows[1]
        labels = (g.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        design = point_design(rows.T, labels, np.zeros(d), np.ones(d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit = fit_logistic(design, start=DecisionFunction(0.1, np.full(d, 0.1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged and fit.iterations > 2
        scratch = 8 * (4 * n + (d + 2) * carmen.logistic.GRAM_BLOCK)
        assert peak - before < scratch + 8 * n


def _mixed_layout_draw() -> tuple:
    g = RngStream(106).generator()
    obs, sim = Dataset(g.poisson(3.0, 303).astype(float)), Dataset(g.normal(3.0, 2.0, 297))
    return obs, sim, FeatureMap(("x", "x2", "x3")), 5, 1e-6, RngStream(107)


class TestOutOfFoldScoring:
    @pytest.mark.parametrize(
        "layout, draw",
        [("points", lambda: _grid_level_draw("reg-sigmoid", 0, 23)[1]),
         ("counts", lambda: _grid_level_draw("poisson-betabinom", 7, 11)[1]),
         ("mixed", _mixed_layout_draw)],
        ids=["points", "counts", "mixed"],
    )
    def test_scores_equal_per_point_gather_and_product(self, fits, fold_fits, layout, draw):
        # Near-separable draws (values up to thousands of nats) and a count
        # class beside a point class, which is fitted on points: every
        # held-out value is bit for bit the one-gather-and-einsum score of
        # its fold's decision function.
        observed, simulated, fm, k, ridge, rng = draw()
        vals, last = cv_log_odds(observed, simulated, fm, k, ridge, rng)
        g = rng.generator()
        fold_of = np.concatenate([fold_ids(len(observed), k, g), fold_ids(len(simulated), k, g)])
        if layout == "counts":
            assert not fits
            (record,) = fold_fits
            decisions = [fit.decision for fit in record.fits]
        else:
            assert len(fits) == k and not fold_fits
            decisions = [record.fit.decision for record in fits]
        coef = np.array([[decision.intercept, *decision.weights] for decision in decisions])
        raw = np.hstack([raw_features(fm, observed), raw_features(fm, simulated)])
        assert vals.tobytes() == fold_scores(coef, fold_of, raw).tobytes()
        assert last.intercept == coef[-1, 0] and last.weights.tobytes() == coef[-1, 1:].tobytes()

    def test_working_set_is_the_design_one_fits_scratch_and_the_data_columns(self):
        # reg-sigmoid's six features at n_obs = n_sim = 10,000, 10 folds.
        n, k = 10_000, 10
        binding = ScenarioConfig(scenario="reg-sigmoid", seed=0).binding()
        fm = FeatureMap(binding.features)
        d = len(fm.transforms)
        assert d == 6
        observed, simulated = binding.truth.sample(RngStream(108), 2 * n).split(n)
        few = np.arange(200)
        cv_log_odds(observed.take(few), simulated.take(few), fm, k, 1e-6, RngStream(109))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cv_log_odds(observed, simulated, fm, k, 1e-6, RngStream(109))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < _cv_working_set(d, 2 * (n - n // k)) + 2**19

    def test_large_n_run_holds_the_cv_call_and_what_it_still_reads(self):
        # One reg-sigmoid run at large-n's sizes: 1,000 update and 10,000
        # validation points, 10 folds, reverse KL on.  Its peak is in the
        # reverse estimate's CV call.
        cfg = ScenarioConfig(scenario="reg-sigmoid", seed=0, n_validate=10_000, reverse_kl=True)
        n_update, n, k = cfg.n_update, cfg.n_validate, cfg.folds
        run_scenario(ScenarioConfig(scenario="reg-sigmoid", seed=0, n_validate=200, reverse_kl=True))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cv_call = _cv_working_set(6, 2 * (n - n // k)) + 2**19
        # The sample's covariates and responses, held once: 176,000 B.
        sample = 8 * 2 * (n_update + n)
        # The simulated class's covariates and responses: 160,000 B.
        simulated = 8 * 2 * n
        # The forward and the exact per-point estimates at t*: 160,000 B.
        estimates = 8 * 2 * n
        # 2.80 MiB in all, with 64 KiB for the run's posteriors, curve
        # points and decision functions.  That leaves no room for what the
        # classifier calls do not read: the t* search's per-point terms,
        # truth density and rows, the reverse half of the forward t* call
        # or a second copy of the sample.
        assert peak - before < cv_call + sample + simulated + estimates + 2**16


def _cv_working_set(d: int, m: int) -> int:
    """Bytes of the design and one fit's scratch of a CV call on d features whose largest training fold has m points.

    A (d+1)-row design of m columns, and the scratch of the largest
    fold's fit: the (d+2)-row weighted design of one 4,096-column block
    and four vectors.  At
    reg-sigmoid's d = 6 and m = 18,000 points, 1,846,144 B, 1.76 MiB.
    The CV call's allowance of 2**19 B, 0.5 MiB, holds the design's
    columns past m, since it has one column per point (0.11 MiB at
    2 x 10,000 points), the two classes' fold permutations and the labels
    (0.31 MiB), so it leaves no room for per-fold index arrays (0.07 MiB
    for one class), a copy of the data columns (0.31 MiB), a fifth vector
    (0.14 MiB), the raw (d, 2n) feature block (0.92 MiB) or a whole-fold
    weighted design (1.10 MiB).
    """
    return 8 * ((d + 1) * m + (d + 2) * 4096 + 4 * m)


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("kind", ["points", "counts"])
    @pytest.mark.parametrize("overflowing", ["observed", "simulated"])
    def test_overflowing_class_named(self, kind, overflowing):
        # Three values of 1e80 in one class: their x4 overflows to inf, so
        # the mean of x4 over any training fold that holds one is inf.  The
        # CV call fails there, naming the feature and that class only, and
        # under the suite's RuntimeWarning filter no warning escapes first.
        g = RngStream(112).generator()
        if kind == "points":
            plain, big = g.normal(size=60), g.normal(size=60)
        else:
            plain, big = g.poisson(3.0, 60).astype(float), g.poisson(3.0, 60).astype(float)
        big[[5, 25, 45]] = 1e80
        data = {"observed": Dataset(plain), "simulated": Dataset(plain)}
        data[overflowing] = Dataset(big)
        message = (
            rf"^feature 'x4' of the {overflowing} points has a non-finite mean \(inf\) "
            r"on the training points of fold \d$"
        )
        with pytest.raises(ValueError, match=message):
            cv_log_odds(data["observed"], data["simulated"], FeatureMap(("x", "x4")), 5, 1e-6, RngStream(113))

    def test_overflow_held_out_of_fold_0_names_fold_1(self):
        # One observed point of 1e80, held out of fold 0: fold 0's moments
        # are finite, and fold 1, the first fold to train on that point, is
        # named.
        g = RngStream(116).generator()
        observed, simulated = g.normal(size=60), g.normal(size=60)
        observed[int(np.argmax(fold_ids(60, 5, RngStream(117).generator()) == 0))] = 1e80
        message = (r"^feature 'x4' of the observed points has a non-finite mean \(inf\) "
                   r"on the training points of fold 1$")
        with pytest.raises(ValueError, match=message):
            cv_log_odds(Dataset(observed), Dataset(simulated), FeatureMap(("x", "x4")), 5, 1e-6, RngStream(117))

    def test_spread_across_classes_names_both(self):
        # x2 is about 1e200 in one class and 1e198 in the other: each value
        # is finite, and so is each class's own spread, but every squared
        # deviation from the mean of both classes overflows, so the sd of
        # x2 is inf in the share of each class.
        g = RngStream(114).generator()
        observed, simulated = Dataset(g.normal(1e100, 1.0, 40)), Dataset(g.normal(1e99, 1.0, 40))
        message = r"^feature 'x2' of the observed and simulated points has a non-finite sd \(inf\)"
        with pytest.raises(ValueError, match=message):
            cv_log_odds(observed, simulated, FeatureMap(("x", "x2")), 4, 1e-6, RngStream(115))


def _columns_with_edge_values(n: int = 400) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) columns with zeros of both signs, negatives and magnitudes below ``_LN_CLAMP``."""
    g = RngStream(110).generator()
    edges = np.array([0.0, -0.0, 1e-13, -1e-13, 5e-324, _LN_CLAMP, -_LN_CLAMP, 1e-12 / 3, -2.5, 1e150, -7.0])
    x = np.concatenate([g.normal(0.0, 3.0, n), edges])
    y = np.concatenate([g.normal(1.0, 2.0, n), edges[::-1]])
    order = g.permutation(x.size)
    return x[order], y[::-1][order]


# The largest change, relative to max(1, |value|), that fitting every fold
# on one standardization makes to an out-of-fold log-odds value.
_ONE_DESIGN_BOUND = 1e-9


def _assert_within_one_design_bound(vals: np.ndarray, ref: np.ndarray) -> None:
    assert np.all(np.abs(vals - ref) <= _ONE_DESIGN_BOUND * np.maximum(1.0, np.abs(ref)))


def _unequal_folds_draw(seed: int) -> tuple:
    """303 and 297 points in 7 folds: runs of 44 or 43 observed and 43 or 42 simulated points."""
    g = RngStream(300 + seed).generator()
    obs, sim = Dataset(g.normal(size=303)), Dataset(g.normal(0.4, 1.3, 297))
    return (obs, sim, FeatureMap(("x", "x2", "x3")), 7, 1e-6, RngStream(310 + seed)), None


def _constant_on_one_fold_draw(seed: int) -> tuple:
    """Regression classes whose |y| is 1.5 outside fold 2, so abs_y is constant on that fold's training points."""
    g = RngStream(320 + seed).generator()
    rng, k = RngStream(330 + seed), 5
    fold_rng = rng.generator()
    data = []
    for n, loc in ((203, 0.0), (197, 0.5)):
        y = 1.5 * g.choice([-1.0, 1.0], n)
        held = fold_ids(n, k, fold_rng) == 2
        y[held] = g.normal(0.0, 2.0, np.count_nonzero(held))
        data.append(Dataset(y, g.normal(loc, 1.0, n)))
    return (*data, FeatureMap(("abs_y", "x", "yx2")), k, 1e-6, rng), None


def _losing_start_draw(seed: int) -> tuple:
    """The unequal-folds draw with its own last decision negated: a start that loses to beta = 0."""
    args, _ = _unequal_folds_draw(seed)
    decision = cv_log_odds(*args)[1]
    return args, DecisionFunction(-decision.intercept, -decision.weights)


def _heavy_tail_draw(seed: int, far: float = 100.0) -> tuple:
    """The unequal-folds sizes with one observed x of ``far``, held out by fold 3, on x, x2 and x4 under ridge 1.

    That point's x4, 1e8 at x = 100 and 1e24 at x = 1e6, puts the mean of
    x4 on the six folds that train on it some 1e4 to 1e20 of fold 3's own
    sds from fold 3's mean.  An sd taken as a difference of squares about
    another fold's mean keeps about half its digits there, and a basis
    that the point moves crushes fold 3's features toward a constant, so
    a ridge of 1 carries either error into fold 3's values.
    """
    g = RngStream(340 + seed).generator()
    obs, sim = g.normal(size=303), g.normal(0.4, 1.3, 297)
    rng = RngStream(350 + seed)
    obs[int(np.argmax(fold_ids(303, 7, rng.generator()) == 3))] = far
    return (Dataset(obs), Dataset(sim), FeatureMap(("x", "x2", "x4")), 7, 1.0, rng), None


def _far_in_both_classes_draw(seed: int) -> tuple:
    """The heavy-tail draw with an observed x of 1e4 and a simulated x of -1e4, both held out by fold 3."""
    (obs, sim, fm, k, ridge, rng), _ = _heavy_tail_draw(seed, 1e4)
    g = rng.generator()
    fold_ids(303, k, g)  # the observed class's folds, drawn first
    values = sim.values.copy()
    values[int(np.argmax(fold_ids(297, k, g) == 3))] = -1e4
    return (obs, Dataset(values), fm, k, ridge, rng), None


# reg-tnoise's scenario with Student-t noise of 0.3 degrees of freedom,
# whose heaviest tails put a few points many orders of magnitude out.
_TNOISE_DF_03 = dict(_PRESETS["reg-tnoise"], truth_params=dict(df=0.3, scale=1.22))


_ONE_DESIGN_CASES = {
    "unequal-folds": _unequal_folds_draw,
    "constant-on-one-fold": _constant_on_one_fold_draw,
    "near-separable": lambda seed: (_grid_level_draw("reg-sigmoid", seed, 23)[1], None),
    "losing-start": _losing_start_draw,
    "heavy-tail": _heavy_tail_draw,
    "heavy-tail-1e3": lambda seed: _heavy_tail_draw(seed, 1e3),
    "heavy-tail-1e4": lambda seed: _heavy_tail_draw(seed, 1e4),
    "heavy-tail-1e6": lambda seed: _heavy_tail_draw(seed, 1e6),
    "far-in-both-classes": _far_in_both_classes_draw,
    "tnoise-df-0.3": lambda seed: (_grid_level_draw("custom", seed, 10, **_TNOISE_DF_03)[1], None),
    "poisson-nb": lambda seed: (_grid_level_draw("poisson-nb", seed, 11)[1], None),
    "poisson-betabinom": lambda seed: (_grid_level_draw("poisson-betabinom", seed, 11)[1], None),
}


class TestDataColumnFeatures:
    def test_transforms_write_the_expressions_bitwise(self):
        # Whole columns, and a gathered subset written into the feature
        # rows of a design, as a cross-validation computes its features.
        assert set(_TRANSFORMS) == set(FEATURE_EXPRESSIONS)
        x, y = _columns_with_edge_values()
        keep = np.flatnonzero(RngStream(111).generator().uniform(size=x.size) < 0.7)
        x_fold, y_fold = np.empty((2, keep.size))
        np.take(x, keep, out=x_fold, mode="clip")
        np.take(y, keep, out=y_fold, mode="clip")
        with np.errstate(over="ignore"):  # 1e150 cubed and to the fourth
            design = np.empty((len(_TRANSFORMS) + 1, keep.size))
            rows = FeatureMap(tuple(_TRANSFORMS)).fill(x_fold, y_fold, design[1:])
            for name, row in zip(_TRANSFORMS, rows):
                expected = FEATURE_EXPRESSIONS[name](x, y)
                whole = np.empty(x.size)
                _TRANSFORMS[name](x, y, whole)
                assert whole.tobytes() == expected.tobytes(), name
                assert row.tobytes() == expected[keep].tobytes(), name

    def test_fill_of_a_datasets_columns_is_the_expressions(self):
        x, y = _columns_with_edge_values()
        univariate = ("x", "abs_x", "x2", "x3", "x4", "ln_abs_x")
        with np.errstate(over="ignore"):
            for names, data, y_col in ((univariate, Dataset(x), None),
                                       (tuple(_TRANSFORMS), Dataset(y, covariates=x), y)):
                expected = np.vstack([FEATURE_EXPRESSIONS[name](x, y_col) for name in names])
                assert _filled(FeatureMap(names), data).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "draw",
        [lambda: _grid_level_draw("reg-sigmoid", 0, 23)[1], lambda: _grid_level_draw("poisson-betabinom", 7, 11)[1],
         _mixed_layout_draw],
        ids=["points", "counts", "mixed"],
    )
    def test_cv_equals_raw_block_reference(self, draw):
        # Every training fold here has at most 1,800 points, one Hessian
        # block.  Point and count classes alike fit every fold on one
        # standardization, and the reference each fold on its own, so the
        # values and the carried decision function agree to
        # _ONE_DESIGN_BOUND, cold and from a start.
        args = draw()
        raw = np.hstack([raw_features(args[2], data) for data in args[:2]])
        for start in (None, cv_log_odds(*args)[1]):
            vals, last = cv_log_odds(*args, start=start)
            ref, ref_last = raw_block_cv(*args, start=start)
            _assert_within_one_design_bound(vals, ref)
            _assert_within_one_design_bound(last.intercept + last.weights @ raw,
                                            ref_last.intercept + ref_last.weights @ raw)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("case", list(_ONE_DESIGN_CASES))
    def test_one_design_equals_per_fold_reference(self, case, seed):
        # The point path standardizes once per call, on the least-spread
        # fold's moments, and gives each fold's ridge its own sds; the
        # reference standardizes every fold on its own.  The bound was
        # fixed on seeds 0-4 (largest 2.4e-10, on the constant feature)
        # before seeds 5-9 were read (largest 6.1e-10).  The far points
        # read at most 4.3e-14 and the df = 0.3 level 1.5e-10 (seeds 0-9);
        # a basis that one far point moves fails them.
        args, start = _ONE_DESIGN_CASES[case](seed)
        for start in [start] if start is not None else [None, cv_log_odds(*args)[1]]:
            vals, _ = cv_log_odds(*args, start=start)
            ref, _ = raw_block_cv(*args, start=start)
            _assert_within_one_design_bound(vals, ref)

    def test_heavy_tail_chain_converges_where_rounding_stalled_it(self, fits, monkeypatch):
        # Seed 6 of the df = 0.3 scenario's full-curve chain: near
        # separation, a fold's log-likelihood is some -14 nats.  Formed as
        # the difference of two sums near 4e5, it rounds by more than the
        # line search's allowance, and fold 9 of level 38, fold 9 of level
        # 45 and fold 3 of level 49 stop unconverged.  As a sum of
        # like-signed per-point terms every fit of the run converges, and
        # those levels, from the starts the chain carried into them, agree
        # with the per-fold reference.
        calls = []
        cv = carmen.ratio.cv_log_odds

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return cv(*args, **kwargs)

        monkeypatch.setattr(carmen.ratio, "cv_log_odds", recording)
        run_scenario(ScenarioConfig(scenario="custom", seed=6, full_curve=True, **_TNOISE_DF_03))
        assert len(calls) == 51 and len(fits) == 510
        assert all(record.fit.converged for record in fits)
        for level in (38, 45, 49):
            args, kwargs = calls[level]
            vals, _ = cv(*args, **kwargs)
            ref, _ = raw_block_cv(*args, **kwargs)
            _assert_within_one_design_bound(vals, ref)

    def test_every_fold_is_fitted_on_the_least_spread_folds_moments(self, fits):
        # The heavy tail's point, held out by fold 3, spreads every feature
        # of the folds that train on it: each feature's basis is fold 3's
        # training moments, all seven folds share that one pair, and each
        # fold's ridge_sd is its own training sd.
        args, _ = _heavy_tail_draw(0)
        cv_log_odds(*args)
        assert len(fits) == 7
        mean, sd = fits[0].design.mean, fits[0].design.sd
        assert all(fit.design.mean is mean and fit.design.sd is sd for fit in fits)
        raw = np.hstack([raw_features(args[2], data) for data in args[:2]])
        g = args[5].generator()
        fold_of = np.concatenate([fold_ids(303, 7, g), fold_ids(297, 7, g)])
        train_mean = np.array([raw[:, fold_of != j].mean(axis=1) for j in range(7)])
        train_sd = np.array([raw[:, fold_of != j].std(axis=1) for j in range(7)])
        least = train_sd.argmin(axis=0)
        assert least.tolist() == [3, 3, 3]
        features = np.arange(3)
        assert np.allclose(mean, train_mean[least, features], rtol=1e-12, atol=0.0)
        assert np.allclose(sd, train_sd[least, features], rtol=1e-12, atol=0.0)
        for j, fit in enumerate(fits):
            assert np.allclose(fit.design.ridge_sd, train_sd[j], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("simulated_kind", ["univariate", "regression"])
    def test_classes_of_different_kinds_rejected_before_any_allocation(self, simulated_kind):
        class NoDraws:
            def generator(self):
                raise AssertionError("folds drawn before the classes were checked")

        g = RngStream(112).generator()
        n = 5_000
        regression, univariate = Dataset(g.normal(size=n), covariates=g.normal(size=n)), Dataset(g.normal(size=n))
        observed, simulated = (regression, univariate) if simulated_kind == "univariate" else (univariate, regression)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError, match="regression.*univariate|univariate.*regression"):
                cv_log_odds(observed, simulated, FeatureMap(("x", "x2")), 10, 1e-6, NoDraws())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 8 * n  # less than one float64 column

    def test_response_transform_on_univariate_classes_fails_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the transforms were checked")

        monkeypatch.setattr(carmen.discriminator, "fit_logistic", no_fit)
        g = RngStream(113).generator()
        obs, sim = Dataset(g.normal(size=100)), Dataset(g.normal(size=100))
        with pytest.raises(ValueError, match="'y2' needs regression data"):
            cv_log_odds(obs, sim, FeatureMap(("x", "y2")), 5, 1e-6, RngStream(114))


def _fit_coefficients(fit) -> np.ndarray:
    return np.concatenate([[fit.intercept], fit.weights])


class TestGramBlocks:
    @pytest.mark.parametrize(
        "make",
        [_overlapping_design, _separable_design,
         lambda: point_design(*_repeated_rows(_counted_design(115, m=900), 0), np.zeros(2), np.ones(2))],
        ids=["overlapping", "separable", "repeated"],
    )
    def test_blocked_fit_takes_the_same_steps(self, monkeypatch, make):
        design = make()
        n = design.features.shape[0]
        one_block = fit_logistic(design)
        monkeypatch.setattr(carmen.logistic, "GRAM_BLOCK", 16)
        assert n > 2 * 16
        blocked = fit_logistic(design)
        # The fit reads GRAM_BLOCK when called: its sums over blocks of 16
        # columns round otherwise than over one block.
        assert _fit_bytes(blocked) != _fit_bytes(one_block)
        assert (blocked.iterations, blocked.converged, blocked.ridge) == (
            one_block.iterations, one_block.converged, one_block.ridge)
        a, b = _fit_coefficients(blocked), _fit_coefficients(one_block)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_blocked_cross_validation_takes_the_same_steps(self, monkeypatch, fits):
        # reg-sigmoid's six features are strongly correlated (y, y2, yx,
        # ...), so its Hessians are ill-conditioned and the blocked sums'
        # rounding reaches the coefficients: 6.8e-12 relative at the
        # largest over levels 11, 23 and 47, against 1e-14 for gauss-laplace.
        args = _grid_level_draw("reg-sigmoid", 0, 23)[1]
        one_block, _ = cv_log_odds(*args)
        monkeypatch.setattr(carmen.logistic, "GRAM_BLOCK", 100)
        blocked, _ = cv_log_odds(*args)
        k = args[3]
        assert len(fits) == 2 * k
        results = [record.fit for record in fits]
        for a, b in zip(results[k:], results[:k]):
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            coef_a, coef_b = _fit_coefficients(a), _fit_coefficients(b)
            assert np.max(np.abs(coef_a - coef_b)) <= 1e-10 * np.max(np.abs(coef_b))
        assert np.max(np.abs(blocked - one_block)) <= 1e-10 * np.max(np.abs(one_block))

    @pytest.mark.parametrize(
        "scenario, seed, level", [("reg-sigmoid", 0, 23), ("poisson-betabinom", 7, 11)],
        ids=["reg-sigmoid", "poisson-betabinom"],
    )
    def test_halved_step_product_is_the_scaled_product(self, fits, fold_fits, scenario, seed, level):
        # Near-separable levels whose fits halve their step.  A halving
        # computes (step delta) @ AT afresh; step is a power of two, so that
        # is bit for bit step (delta @ AT), which the line search used to
        # scale.  The batched fit of count classes takes its k products in
        # one stacked matmul.
        cv_log_odds(*_grid_level_draw(scenario, seed, level)[1])
        for record in fits:
            AT, delta = record.snapshot.design, _fit_coefficients(record.fit)
            base = delta @ AT
            for halvings in range(1, 31):
                step = 0.5**halvings
                assert (step * delta @ AT).tobytes() == (step * base).tobytes()
        for record in fold_fits:
            A = record.stack.design
            delta = np.array([_fit_coefficients(fit) for fit in record.fits])
            base = np.matmul(delta[:, None, :], A)
            for halvings in range(1, 31):
                step = 0.5**halvings
                assert np.matmul((step * delta)[:, None, :], A).tobytes() == (step * base).tobytes()
        assert len(fits) + len(fold_fits) == (10 if scenario == "reg-sigmoid" else 1)

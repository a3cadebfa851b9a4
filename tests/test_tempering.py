"""Tempering grids, the t* search, and diagnostic curves."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from carmen import tempering
from carmen.cli import SCENARIOS, ScenarioConfig, run_draws
from carmen.conjugate import (
    GaussianKnownVarModel,
    NIGRegressionModel,
    SufficientStats,
    TemperedPredictive,
    temper_update,
)
from carmen.data import Dataset
from carmen.discriminator import FeatureMap
from carmen.numerics import RngStream
from carmen.ratio import estimate_log_ratio
from carmen.tempering import CurvePoint, TemperingGrid, _refine, curve
from carmen.truths import GaussianTruth, SigmoidRegressionTruth
from oracles import (
    betabinom_predictive_kl,
    exact_log_ratio,
    gaussian_predictive_kl,
    nbinom_predictive_kl,
    std_error,
)

GAUSS = GaussianKnownVarModel(0.1, 0.0, 9.9)
NIG = NIGRegressionModel(0.0, 1.0, 2.0, 2.0)
GAUSS_FM = FeatureMap(("x", "x2"))
SIGMOID_FM = FeatureMap(("y", "abs_y", "y2", "yx", "abs_yx", "yx2"))


def _gauss_data(seed, n):
    truth = GaussianTruth(0.0, 3.01)
    return truth, truth.sample(RngStream(seed), n), truth.sample(RngStream(seed + 1), n)


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.<name>`` by a wrapper that logs its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_predictive(monkeypatch):
    """Replace ``carmen.tempering.TemperedPredictive`` by a subclass that logs its
    preparations and each ``sums`` or ``row`` call: the method and its levels."""
    prepared, calls = [], []

    class Counted(TemperedPredictive):
        def __init__(self, *args):
            prepared.append(args)
            super().__init__(*args)

        def sums(self, ts):
            calls.append(("sums", [float(t) for t in ts]))
            return super().sums(ts)

        def row(self, t):
            calls.append(("row", float(t)))
            return super().row(t)

    monkeypatch.setattr(tempering, "TemperedPredictive", Counted)
    return prepared, calls


class _ReferencePredictive:
    """Sums each level's per-point row, built by the posterior's one-level
    ``predictive_logpdf`` method, and logs the levels of each ``sums`` call."""

    def __init__(self, model, x_update, x_valid):
        self.model, self.x_valid = model, x_valid
        self.stats = SufficientStats.from_dataset(x_update)
        self.calls = []

    def sums(self, ts):
        self.calls.append([float(t) for t in ts])
        for t in ts:
            post = temper_update(self.model, self.stats, float(t))
            yield post, float(post.predictive_logpdf(self.x_valid).sum())


def _reference_t_star(model, x_update, x_valid, grid):
    """The t* search on per-point sums, level by level: grid scores, then ``tempering._refine``."""
    ref = _ReferencePredictive(model, x_update, x_valid)
    scores = np.array([lp for _, lp in ref.sums(grid.values)])
    return tempering._refine(ref, grid.values, scores), ref.calls[1:]


def _level_sum_t_star(model, x_update, x_valid, grid):
    """The t* search on ``TemperedPredictive.sums``: grid scores, then ``tempering._refine``."""
    pred = TemperedPredictive(model, SufficientStats.from_dataset(x_update), x_valid)
    scores = np.array([lp for _, lp in pred.sums(grid.values)])
    return tempering._refine(pred, grid.values, scores)


def _t_star_curve(model, fm, x_update, x_valid, grid):
    """``curve`` with no truth and no classifier curve: the t* search and its headline."""
    return curve(model, None, x_update, x_valid, grid, fm, 5, RngStream(0))


class TestTemperingGrid:
    def test_log_uniform(self):
        grid = TemperingGrid.log_uniform(1e-8, 1.0, 50)
        assert len(grid) == 50
        assert grid.values[0] == pytest.approx(1e-8)
        assert grid.values[-1] == pytest.approx(1.0)
        assert np.all(np.diff(np.log(grid.values)) > 0)

    def test_explicit(self):
        grid = TemperingGrid(np.array([1e-3, 1e-2, 1.0]))
        assert len(grid) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TemperingGrid(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            TemperingGrid(np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            TemperingGrid(np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match=r"lie in \(0, 1\]"):
            TemperingGrid(np.array([0.1, np.nan, 0.5]))
        with pytest.raises(ValueError):
            TemperingGrid.log_uniform(1e-2, 1e-3, 10)

    @pytest.mark.parametrize("values", [np.array([[0.5, 1.0]]), np.array([])], ids=["2-D", "empty"])
    def test_grid_must_be_a_non_empty_vector(self, values):
        with pytest.raises(ValueError) as info:
            TemperingGrid(values)
        assert str(info.value) == "grid must be a non-empty 1-D array"


class TestOptimizeT:
    """The t* search, through the ``curve`` headline."""

    def test_gaussian_setup_lands_near_1e6(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(200), 1000)
        xv = truth.sample(RngStream(201), 1000)
        tc = _t_star_curve(GAUSS, GAUSS_FM, xu, xv, TemperingGrid.log_uniform())
        assert 3e-7 <= tc.t_star <= 3e-6
        assert not tc.t_star_boundary

    def test_refined_beats_every_grid_point(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(202), 500)
        xv = truth.sample(RngStream(203), 500)
        grid = TemperingGrid.log_uniform(1e-8, 1.0, 25)
        tc = _t_star_curve(GAUSS, GAUSS_FM, xu, xv, grid)
        stats = SufficientStats.from_dataset(xu)
        for t in grid.values:
            score = float(temper_update(GAUSS, stats, float(t)).predictive_logpdf(xv).sum())
            assert tc.log_predictive_at_t_star >= score - 1e-9

    def test_refinement_that_scores_lower_keeps_the_best_grid_point(self):
        # Every refined level scores -1 against the interior grid point's 10.
        class Flat:
            def sums(self, ts):
                return [(SimpleNamespace(t=t), -1.0) for t in ts]

        assert _refine(Flat(), np.array([1e-3, 1e-2, 1e-1]), np.array([0.0, 10.0, 0.0])) == (1e-2, 10.0, False)

    def test_sigmoid_setup_hits_boundary(self):
        truth = SigmoidRegressionTruth()
        xu = truth.sample(RngStream(204), 1000)
        xv = truth.sample(RngStream(205), 1000)
        tc = _t_star_curve(NIG, SIGMOID_FM, xu, xv, TemperingGrid.log_uniform())
        assert tc.t_star == 1.0
        assert tc.t_star_boundary

    def test_variance_matching_oracle(self):
        # the optimal level solves 1/(1/s0^2 + t n/sigma0^2) + sigma0^2 = truth var
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(206), 1000)
        xv = truth.sample(RngStream(207), 1000)
        tc = _t_star_curve(GAUSS, GAUSS_FM, xu, xv, TemperingGrid.log_uniform())
        matched = 1.0 / (1.0 / 9.9**2 + tc.t_star * 1000.0 / 0.01) + 0.01
        assert matched == pytest.approx(3.01**2, rel=0.2)

    def test_single_point_grid(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(208), 100)
        xv = truth.sample(RngStream(209), 100)
        tc = _t_star_curve(GAUSS, GAUSS_FM, xu, xv, TemperingGrid(np.array([1.0])))
        assert tc.t_star == 1.0
        assert tc.t_star_boundary


class TestCurve:
    def test_fields_and_headline(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(210), 300)
        xv = truth.sample(RngStream(211), 300)
        grid = TemperingGrid.log_uniform(1e-8, 1.0, 12)
        tc = curve(GAUSS, truth, xu, xv, grid, FeatureMap(("x", "x2")), 5, RngStream(212))
        assert len(tc.points) == 12
        for p in tc.points:
            assert p.log_predictive is not None
            assert p.logz_true_sum is not None
            assert p.logz_approx_sum is None  # classifier curve is opt-in
        assert tc.estimate_at_t_star.n == 300
        assert 0.0 <= tc.test_at_t_star.p_value <= 1.0
        assert tc.true_at_t_star is not None
        assert tc.reverse_at_t_star is None

    def test_full_curve_populates_classifier_columns(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(213), 200)
        xv = truth.sample(RngStream(214), 200)
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 5)
        tc = curve(
            GAUSS, truth, xu, xv, grid, FeatureMap(("x", "x2")), 5, RngStream(215),
            full_curve=True, reverse=True,
        )
        for p in tc.points:
            assert p.logz_approx_sum is not None
            assert p.t_stat is not None
            assert 0.0 <= p.p_value <= 1.0
        assert tc.reverse_at_t_star is not None

    def test_unknown_truth_leaves_true_columns_empty(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(216), 200)
        xv = truth.sample(RngStream(217), 200)
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 4)
        tc = curve(GAUSS, None, xu, xv, grid, FeatureMap(("x", "x2")), 5, RngStream(218))
        assert all(p.logz_true_sum is None for p in tc.points)
        assert tc.true_at_t_star is None

    def test_sigmoid_approx_curve_nondecreasing_up_to_noise(self):
        truth = SigmoidRegressionTruth()
        xu = truth.sample(RngStream(219), 500)
        xv = truth.sample(RngStream(220), 500)
        stats = SufficientStats.from_dataset(xu)
        fm = FeatureMap(("y", "abs_y", "y2", "yx", "abs_yx", "yx2"))
        grid = TemperingGrid.log_uniform(1e-8, 1.0, 10)
        sums, bands = [], []
        for i, t in enumerate(grid.values):
            post = temper_update(NIG, stats, float(t))
            est, _ = estimate_log_ratio(post, xv, fm, 5, RngStream(221).substream(i))
            sums.append(est.sum)
            bands.append(std_error(est) * est.n)
        for i in range(len(sums) - 1):
            slack = 3.0 * math.sqrt(bands[i] ** 2 + bands[i + 1] ** 2)
            assert sums[i + 1] >= sums[i] - slack

    def test_nan_in_validation_data_fails_at_dataset(self):
        truth, xu, xv = _gauss_data(225, 150)
        values = xv.values.copy()
        values[7] = np.nan
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 4)
        with pytest.raises(ValueError, match=r"^values must be finite, got nan$"):
            curve(GAUSS, truth, xu, Dataset(values), grid, GAUSS_FM, 5, RngStream(0))

    def test_curve_deterministic(self):
        truth = GaussianTruth(0.0, 3.01)
        xu = truth.sample(RngStream(222), 150)
        xv = truth.sample(RngStream(223), 150)
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 4)
        fm = FeatureMap(("x", "x2"))
        a = curve(GAUSS, truth, xu, xv, grid, fm, 5, RngStream(224))
        b = curve(GAUSS, truth, xu, xv, grid, fm, 5, RngStream(224))
        assert a.t_star == b.t_star
        assert np.array_equal(a.estimate_at_t_star.per_point, b.estimate_at_t_star.per_point)


class TestSingleGridPass:
    def test_one_predictive_per_level_and_one_truth_density(self, monkeypatch):
        truth, xu, xv = _gauss_data(230, 300)
        grid = TemperingGrid.log_uniform(1e-8, 1.0, 12)
        _, refine = _reference_t_star(GAUSS, xu, xv, grid)
        # one one-level call per golden-section step
        assert refine and all(len(levels) == 1 for levels in refine)
        prepared, calls = _count_predictive(monkeypatch)
        density = _count_calls(monkeypatch, GaussianTruth, "logpdf")
        tc = curve(GAUSS, truth, xu, xv, grid, GAUSS_FM, 5, RngStream(232))
        assert len(prepared) == 1
        assert calls[0] == ("sums", list(grid.values))  # one call sums the whole grid
        # then one level sum per golden-section step, and one per-point row,
        # at t*, for the exact ratio there
        assert calls == [("sums", list(grid.values))] + [("sums", t) for t in refine] + [("row", tc.t_star)]
        assert len(density) == 1

    @pytest.mark.parametrize(
        "model,truth,fm,seed,boundary",
        [
            (GAUSS, GaussianTruth(0.0, 3.01), GAUSS_FM, 200, False),
            (NIG, SigmoidRegressionTruth(), SIGMOID_FM, 204, True),
        ],
        ids=["gauss-interior", "sigmoid-boundary"],
    )
    def test_headline_matches_optimize_t(self, model, truth, fm, seed, boundary):
        # the data of TestOptimizeT's interior and boundary cases
        xu = truth.sample(RngStream(seed), 1000)
        xv = truth.sample(RngStream(seed + 1), 1000)
        grid = TemperingGrid.log_uniform()
        (t_star, log_predictive, at_boundary), _ = _reference_t_star(model, xu, xv, grid)
        tc = curve(model, truth, xu, xv, grid, fm, 5, RngStream(235))
        assert at_boundary is boundary
        assert (tc.t_star, tc.log_predictive_at_t_star, tc.t_star_boundary) == _level_sum_t_star(model, xu, xv, grid)
        # the level sums choose the t* that the per-point sums choose, at a
        # score within rounding of the per-point one
        assert tc.t_star == t_star
        assert tc.t_star_boundary == at_boundary
        assert tc.log_predictive_at_t_star == pytest.approx(log_predictive, rel=1e-13, abs=0.0)

    def test_columns_match_public_functions_exactly(self):
        truth, xu, xv = _gauss_data(236, 300)
        grid = TemperingGrid.log_uniform(1e-8, 1.0, 12)
        tc = curve(GAUSS, truth, xu, xv, grid, GAUSS_FM, 5, RngStream(238))
        stats = SufficientStats.from_dataset(xu)
        truth_sum = float(truth.logpdf(xv).sum())
        sums = list(TemperedPredictive(GAUSS, stats, xv).sums(grid.values))
        assert [p.t for p in tc.points] == [post.t for post, _ in sums]
        for p, (post, lp) in zip(tc.points, sums):
            assert p.log_predictive == lp
            assert p.logz_true_sum == lp - truth_sum
            # within rounding of the per-point sums
            assert p.log_predictive == pytest.approx(float(post.predictive_logpdf(xv).sum()), rel=1e-13, abs=0.0)
            assert p.logz_true_sum == pytest.approx(exact_log_ratio(post, truth, xv).sum, rel=1e-10, abs=0.0)
        exact = exact_log_ratio(temper_update(GAUSS, stats, tc.t_star), truth, xv)
        assert np.array_equal(tc.true_at_t_star.per_point, exact.per_point)

    def test_classifier_failure_blanks_only_its_row(self, monkeypatch):
        truth, xu, xv = _gauss_data(239, 200)
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 5)
        args = (GAUSS, truth, xu, xv, grid, GAUSS_FM, 5, RngStream(241))
        clean = curve(*args, full_curve=True)
        failing_t = float(grid.values[1])
        original = tempering.estimate_log_ratio

        def fail_at_one_level(post, *rest, **kwargs):
            if post.t == failing_t:
                raise RuntimeError("forced classifier failure")
            return original(post, *rest, **kwargs)

        monkeypatch.setattr(tempering, "estimate_log_ratio", fail_at_one_level)
        forced = curve(*args, full_curve=True)
        assert forced.points[1] == CurvePoint(t=failing_t, log_predictive=None)
        assert forced.points[:1] + forced.points[2:] == clean.points[:1] + clean.points[2:]
        assert forced.t_star == clean.t_star

    def test_predictive_failure_at_a_level_aborts(self, monkeypatch):
        truth, xu, xv = _gauss_data(242, 200)
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 5)
        failing_t = float(grid.values[2])

        class Failing(TemperedPredictive):
            def sums(self, ts):
                for post, lp in super().sums(ts):
                    if post.t == failing_t:
                        raise ValueError("forced predictive failure")
                    yield post, lp

        monkeypatch.setattr(tempering, "TemperedPredictive", Failing)
        with pytest.raises(ValueError, match="forced predictive failure"):
            curve(GAUSS, truth, xu, xv, grid, GAUSS_FM, 5, RngStream(244))


class TestClassifierChain:
    """The cross-validated fits of a run start each from the one before."""

    def test_one_cold_fit_per_run(self, fits):
        truth, xu, xv = _gauss_data(245, 200)
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 5)
        curve(GAUSS, truth, xu, xv, grid, GAUSS_FM, 5, RngStream(247), full_curve=True, reverse=True)
        starts = [record.start for record in fits]
        # Five grid levels, the estimate at t* and the reverse one, five folds each.
        assert len(starts) == (5 + 2) * 5
        assert [i for i, start in enumerate(starts) if start is None] == [0]

    def test_failed_level_is_skipped_by_the_chain(self, monkeypatch):
        truth, xu, xv = _gauss_data(248, 200)
        grid = TemperingGrid.log_uniform(1e-7, 1.0, 5)
        failing_t = float(grid.values[1])
        calls = []  # (t, start, (forward, reverse) or None), one per classifier call
        original = tempering.estimate_log_ratio

        def recorded(post, *rest, start=None, **kwargs):
            calls.append((post.t, start, None))
            if post.t == failing_t:
                raise RuntimeError("forced classifier failure")
            ests = original(post, *rest, start=start, **kwargs)
            calls[-1] = (post.t, start, ests)
            return ests

        monkeypatch.setattr(tempering, "estimate_log_ratio", recorded)
        tc = curve(GAUSS, truth, xu, xv, grid, GAUSS_FM, 5, RngStream(250), full_curve=True, reverse=True)
        assert tc.points[1] == CurvePoint(t=failing_t, log_predictive=None)
        assert len(calls) == 5 + 2
        levels = calls[:5]
        decisions = [ests[0].decision if ests is not None else None for _, _, ests in levels]
        assert levels[0][1] is None
        assert levels[1][1] is decisions[0]
        assert levels[2][1] is decisions[0]  # the last good level's, not the failed one's
        assert levels[3][1] is decisions[2] and levels[4][1] is decisions[3]
        # The estimate at t* starts from the classifier carried at the
        # grid level nearest t*, and the reverse estimate from it.
        carried = [decisions[0], decisions[0], decisions[2], decisions[3], decisions[4]]
        nearest = int(np.argmin(np.abs(np.log(grid.values) - math.log(tc.t_star))))
        (t_star, star_start, (est_star, _)), (_, reverse_start, (_, est_reverse)) = calls[5:]
        assert t_star == tc.t_star and star_start is carried[nearest]
        assert est_star is not None and reverse_start is est_star.decision
        assert est_reverse.sum == tc.reverse_at_t_star.sum


# KL(truth || predictive) of a tempered posterior against the truth, in nat/pt
_PREDICTIVE_KL = {
    "gauss-gauss": gaussian_predictive_kl,
    "gauss-laplace": gaussian_predictive_kl,
    "poisson-nb": lambda post, truth: nbinom_predictive_kl(post, truth)[0],
    "poisson-betabinom": lambda post, truth: betabinom_predictive_kl(post, truth)[0],
}


def _population_minimum(f, lo=-8.0, hi=0.0):
    """The smallest value of ``f`` over [lo, hi]: a scan 0.5 apart, then golden
    section around the best scan point to 1e-4 on the argument."""
    us = np.linspace(lo, hi, int(round((hi - lo) / 0.5)) + 1)
    fs = [f(u) for u in us]
    best = int(np.argmin(fs))
    a, b = us[max(best - 1, 0)], us[min(best + 1, len(us) - 1)]
    c, d = b - tempering._INV_PHI * (b - a), a + tempering._INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-4:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - tempering._INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + tempering._INV_PHI * (b - a)
            fd = f(d)
    return min(fc, fd, fs[best]), c if fc <= fd else d


class TestPopulationRegret:
    """The validation-chosen t* against the level that minimises the population
    KL(truth || predictive_t) for the run's own update data.

    Regret is the KL at t* less that minimum, in nat/pt, over data seeds
    0-9 at the default sizes.  Each bound is three times the largest
    regret of seeds 0-4, rounded up to one significant figure.
    """

    @pytest.mark.parametrize(
        "scenario,bound",
        [("gauss-gauss", 5e-3), ("gauss-laplace", 2e-2), ("poisson-nb", 3e-3), ("poisson-betabinom", 2e-3)],
    )
    def test_t_star_regret(self, scenario, bound):
        binding, kl = SCENARIOS[scenario], _PREDICTIVE_KL[scenario]
        grid = TemperingGrid.log_uniform().values
        regrets, regrets_at_one, offsets = [], [], []
        for seed in range(10):
            update, valid, _ = run_draws(ScenarioConfig(scenario=scenario, seed=seed), binding.truth)
            stats = SufficientStats.from_dataset(update)

            def population_kl(log10_t):
                return kl(temper_update(binding.model, stats, 10.0**log10_t), binding.truth)

            kl_min, log10_t_pop = _population_minimum(population_kl)
            _, (t_star, _, _), _, _ = tempering._search(binding.model, None, update, valid, grid)
            regrets.append(population_kl(math.log10(t_star)) - kl_min)
            regrets_at_one.append(population_kl(0.0) - kl_min)
            offsets.append(math.log10(t_star) - log10_t_pop)
        print(
            f"{scenario}: regret at t* median {np.median(regrets):.2g}, max {max(regrets):.2g} nat/pt; "
            f"at t = 1 median {np.median(regrets_at_one):.3g}; "
            f"log10(t*/t_pop) {min(offsets):+.2f} to {max(offsets):+.2f}"
        )
        assert min(regrets) > -1e-9  # the refined minimum is the minimum
        assert max(regrets) <= bound
        # t* beats the untempered update on every seed
        assert all(r < r1 for r, r1 in zip(regrets, regrets_at_one))

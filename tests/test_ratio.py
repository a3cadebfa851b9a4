"""The classifier-driven log-ratio estimator, forward and reverse from one call."""

import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from carmen import cli, ratio, tempering
from carmen.cli import SCENARIOS, ScenarioConfig, run_draws, run_scenario
from carmen.conjugate import (
    GaussianKnownVarModel,
    PoissonGammaModel,
    SufficientStats,
    temper_update,
)
from carmen.data import Dataset
from carmen.discriminator import FeatureMap
from carmen.numerics import RngStream
from carmen.ratio import LogRatioEstimate, estimate_draws, estimate_log_ratio
from carmen.tempering import call_stream
from carmen.truths import GaussianTruth, NegBinomialTruth
from oracles import exact_log_ratio, exact_reverse, std_error

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
        est, _ = estimate_log_ratio(post, xv, FeatureMap(("x", "x2", "x3", "x4")), 10, RngStream(101))
        assert abs(est.sum) < 3.0

    def test_duplicated_data_near_zero(self):
        values = RngStream(102).generator().normal(size=400)
        obs = Dataset(values)
        post = _unit_gaussian_posterior()
        # score the duplicated rows directly through the cv machinery
        from carmen.discriminator import cv_log_odds

        odds, _ = cv_log_odds(obs, Dataset(values.copy()), FeatureMap(("x", "x2")), 5, 1e-6, RngStream(103))
        vals = odds[: len(obs)]
        assert abs(vals.mean()) < 0.2
        assert np.max(np.abs(vals)) < 1.0

    def test_gaussian_kl_oracle_forward_and_reverse(self):
        post = _unit_gaussian_posterior()
        truth = GaussianTruth(0.0, 2.0)
        xv = truth.sample(RngStream(104), 2000)
        fm = FeatureMap(("x", "x2"))
        fwd, rev = estimate_log_ratio(post, xv, fm, 10, RngStream(105))
        assert -fwd.mean == pytest.approx(KL_FORWARD, rel=0.3)
        assert -rev.mean == pytest.approx(KL_REVERSE, rel=0.3)
        assert fwd.mean < 0.0 and rev.mean < 0.0
        assert fwd.mean != rev.mean

    def test_class_prior_correction(self):
        post = _unit_gaussian_posterior()
        xv = GaussianTruth(0.0, 1.3).sample(RngStream(106), 800)
        fm = FeatureMap(("x", "x2"))
        est1, _ = estimate_log_ratio(post, xv, fm, 10, RngStream(107), n_sim=800)
        est2, rev2 = estimate_log_ratio(post, xv, fm, 10, RngStream(108), n_sim=1600)
        band = 3 * math.sqrt(std_error(est1) ** 2 + std_error(est2) ** 2)
        assert abs(est1.mean - est2.mean) < band
        # one call scores both classes: 800 observed and 1600 simulated points
        assert (est2.n, rev2.n) == (800, 1600)
        assert rev2.decision is est2.decision

    def test_deterministic(self):
        post = _unit_gaussian_posterior()
        xv = GaussianTruth(0.0, 2.0).sample(RngStream(109), 300)
        fm = FeatureMap(("x", "x2"))
        a_fwd, a_rev = estimate_log_ratio(post, xv, fm, 5, RngStream(110))
        b_fwd, b_rev = estimate_log_ratio(post, xv, fm, 5, RngStream(110))
        for a, b in ((a_fwd, b_fwd), (a_rev, b_rev)):
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
            approx, _ = estimate_log_ratio(
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
        approx, _ = estimate_log_ratio(post, xv, FeatureMap(("x", "x2")), 10, RngStream(118))
        exact = exact_log_ratio(post, truth, xv)
        assert abs(approx.mean - exact.mean) <= 0.01

    def test_n_sim_must_cover_folds(self):
        post = _unit_gaussian_posterior()
        xv = GaussianTruth(0.0, 1.0).sample(RngStream(114), 100)
        with pytest.raises(ValueError):
            estimate_log_ratio(post, xv, FeatureMap(("x",)), 10, RngStream(115), n_sim=5)

    def test_non_integer_k_rejected_before_the_draws(self, monkeypatch):
        # cv_log_odds's own check, made before any point is simulated.
        monkeypatch.setattr(ratio, "estimate_draws", lambda *args: pytest.fail("simulated before checking k"))
        xv = GaussianTruth(0.0, 1.0).sample(RngStream(116), 100)
        with pytest.raises(ValueError) as info:
            estimate_log_ratio(_unit_gaussian_posterior(), xv, FeatureMap(("x",)), 2.5, RngStream(117))
        assert str(info.value) == "k must be an integer >= 2, got 2.5"

    def test_univariate_simulation_takes_no_covariates(self, monkeypatch):
        # only a regression draw resamples the validation covariates
        def take(self, indices):
            raise AssertionError("Dataset.take called for univariate data")

        monkeypatch.setattr(Dataset, "take", take)
        post = _unit_gaussian_posterior()
        xv = GaussianTruth(0.0, 2.0).sample(RngStream(118), 100)
        est, rev = estimate_log_ratio(post, xv, FeatureMap(("x", "x2")), 5, RngStream(119))
        assert est.n == rev.n == 100

    def test_regression_simulation_reuses_covariates(self):
        from carmen.conjugate import NIGRegressionModel
        from carmen.truths import TNoiseRegressionTruth

        truth = TNoiseRegressionTruth()
        xv = truth.sample(RngStream(116), 200)
        model = NIGRegressionModel(0.0, 1.0, 2.0, 2.0)
        post = temper_update(model, SufficientStats.from_dataset(xv), 0.01)
        est, _ = estimate_log_ratio(post, xv, FeatureMap(("abs_y", "y2", "ln_abs_y", "yx")), 5, RngStream(117))
        assert est.n == 200
        assert np.all(np.isfinite(est.per_point))


def _reverse_at_t_star(scenario: str, seed: int) -> tuple[float, float]:
    """A default-size ``--reverse-kl`` run's reverse estimate at t* and the exact value at its draws, nat/pt.

    The reverse call's draws are rebuilt on the stream its estimate keeps.
    Estimating again on that stream, from the same start, gives the run's
    reverse sum bit for bit, so they are the run's draws.
    """
    cfg = ScenarioConfig(scenario=scenario, seed=seed, reverse_kl=True)
    tc = run_scenario(cfg).curve
    binding = cfg.binding()
    x_update, x_valid, _ = run_draws(cfg, binding.truth)
    post = temper_update(binding.model, SufficientStats.from_dataset(x_update), tc.t_star)
    reverse = tc.reverse_at_t_star
    _, again = estimate_log_ratio(
        post, x_valid, FeatureMap(binding.features), cfg.folds, reverse.rng, ridge=cfg.ridge,
        start=tc.estimate_at_t_star.decision,
    )
    assert again.sum == reverse.sum
    simulated, _ = estimate_draws(post, x_valid, len(x_valid), reverse.rng)
    return reverse.mean, exact_reverse(post, binding.truth, simulated).mean


def _report_reverse(scenario: str, pairs: list[tuple[float, float]]) -> None:
    shown = "; ".join(f"{est:+.4f} vs {exact:+.4f}" for est, exact in pairs)
    gaps = [est - exact for est, exact in pairs]
    print(f"[reverse] {scenario}, seeds 0-9, estimate vs exact at t* (nat/pt): {shown};"
          f" gap {min(gaps):+.4f} to {max(gaps):+.4f}", flush=True)


class TestReverseAgainstExact:
    """The ``--reverse-kl`` estimate at t* against the exact mean of its per-point values.

    Default sizes, seeds 0-9.  Each bound was fixed on seeds 0-4 before
    seeds 5-9 were read.
    """

    @pytest.mark.parametrize("scenario", [name for name in SCENARIOS if name != "reg-sigmoid"])
    def test_estimate_near_exact(self, scenario):
        # Seeds 0-4: the largest gap was 0.028 nat/pt (gauss-laplace, whose
        # estimate sits above the exact value at all ten seeds).
        pairs = [_reverse_at_t_star(scenario, seed) for seed in range(10)]
        _report_reverse(scenario, pairs)
        assert max(abs(est - exact) for est, exact in pairs) <= 0.05

    def test_reg_sigmoid_estimate_far_too_small(self):
        # A finding, not a tolerance: at t* = 1 the estimate holds 4-11 % of
        # the exact value.  Seeds 0-4 gave exact values of -92.7 to -101.4
        # nat/pt against estimates of -3.7 to -8.4 (12-26x too small); seeds
        # 5-9 gave 9.5-14x, so a 10x bound fixed on seeds 0-4 failed there.
        # The gap, 85-93 nat/pt on seeds 0-4, is asserted at 60.
        pairs = [_reverse_at_t_star("reg-sigmoid", seed) for seed in range(10)]
        _report_reverse("reg-sigmoid", pairs)
        assert all(exact < est < 0.0 and est - exact >= 60.0 for est, exact in pairs)


class TestDrawPlan:
    """A run's draws, rebuilt through the functions that hold its plan.

    ``cli.run_draws`` holds the run's data and classifier stream,
    ``tempering.call_stream`` the stream of each classifier call, and
    ``ratio.estimate_draws`` an estimate's simulated points and folds.
    """

    @pytest.mark.parametrize("scenario", ["gauss-gauss", "poisson-nb", "reg-tnoise"])  # one of each data kind
    def test_forward_estimate_at_t_star_replays_bit_for_bit(self, scenario):
        # A t*-only run fits no grid level, so its estimate at t* starts from none.
        cfg = ScenarioConfig(scenario=scenario, seed=4)
        tc = run_scenario(cfg).curve
        binding = cfg.binding()
        x_update, x_valid, rng = run_draws(cfg, binding.truth)
        post = temper_update(binding.model, SufficientStats.from_dataset(x_update), tc.t_star)
        stream = call_stream(rng)
        fm = FeatureMap(binding.features)
        again, _ = estimate_log_ratio(post, x_valid, fm, cfg.folds, stream, ridge=cfg.ridge)
        assert tc.estimate_at_t_star.rng == stream
        assert again.sum == tc.estimate_at_t_star.sum

    def test_no_test_reaches_behind_the_plan(self):
        # The names that number a run's substreams or draw for it stay
        # behind the plan functions: a plan module's private ints, and the
        # private functions of carmen.ratio.  A test that imported one
        # would have to be edited with every change to the plan.
        behind = {
            (module.__name__, name)
            for module in (cli, tempering, ratio)
            for name, value in vars(module).items()
            if name.startswith("_") and (type(value) is int or module is ratio and inspect.isfunction(value))
        }
        found = [
            f"{path.name}:{line}: {name}"
            for path in sorted(Path(__file__).parent.glob("*.py"))
            for line, name in _references(ast.parse(path.read_text()), behind)
        ]
        assert not found


def _references(tree: ast.Module, names: set[tuple[str, str]]) -> list[tuple[int, str]]:
    """The line and dotted name of each import of, or attribute read of, one of the (module, name) ``names``."""
    modules, found = {}, []  # local name -> the module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                if (node.module, alias.name) in names:
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:  # "import a.b" binds a, "import a.b as c" binds c to a.b
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name if alias.asname else local

    def dotted(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (dotted(node.value), node.attr) in names:
            found.append((node.lineno, f"{dotted(node.value)}.{node.attr}"))
    return found

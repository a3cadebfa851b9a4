"""Misspecification tests on per-point log ratios."""

import numpy as np
import pytest

from carmen.numerics import RngStream
from carmen.ratio import LogRatioEstimate, estimate_log_ratio
from carmen.testing import t_test_logz
from oracles import EXACT_NULLS


def _est(values) -> LogRatioEstimate:
    return LogRatioEstimate.from_per_point(np.asarray(values, dtype=float))


class TestTTest:
    def test_all_zero_gives_p_one(self):
        res = t_test_logz(_est(np.zeros(50)))
        assert res.p_value == 1.0
        assert res.method == "t-test"

    def test_constant_negative_gives_p_zero(self):
        res = t_test_logz(_est(-np.ones(50) * 0.3))
        assert res.p_value == 0.0

    def test_constant_positive_gives_p_one(self):
        res = t_test_logz(_est(np.ones(50) * 0.3))
        assert res.p_value == 1.0

    def test_reference_value(self):
        # xbar = 0.1, s = 1, n = 100 -> t = 1, p = student_t_cdf(1, 99)
        g = RngStream(0).generator()
        v = g.normal(size=100)
        v = (v - v.mean()) / v.std(ddof=1)  # exactly mean 0, s 1
        v = v + 0.1
        res = t_test_logz(_est(v))
        assert res.statistic == pytest.approx(1.0, abs=1e-10)
        assert res.df == 99
        assert res.p_value == pytest.approx(0.840, abs=5e-4)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            t_test_logz(_est([1.0]))

    def test_permutation_invariance(self):
        g = RngStream(1).generator()
        v = g.normal(size=200)
        res1 = t_test_logz(_est(v))
        res2 = t_test_logz(_est(v[g.permutation(200)]))
        assert res1.statistic == pytest.approx(res2.statistic, rel=1e-12)
        assert res1.p_value == pytest.approx(res2.p_value, rel=1e-12)

    def test_negative_shift_decreases_p(self):
        g = RngStream(2).generator()
        v = g.normal(size=500)
        shifts = [0.0, -0.02, -0.05, -0.1, -0.2]
        ps = [t_test_logz(_est(v + s)).p_value for s in shifts]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_null_p_values_uniform(self):
        g = RngStream(3).generator()
        ps = np.array([t_test_logz(_est(g.normal(size=100))).p_value for _ in range(1000)])
        sorted_p = np.sort(ps)
        i = np.arange(1, ps.size + 1)
        ks = max(np.max(i / ps.size - sorted_p), np.max(sorted_p - (i - 1) / ps.size))
        assert ks < 0.05

    def test_invariant_p_equals_cdf_of_stat(self):
        from carmen.numerics import student_t_cdf

        g = RngStream(4).generator()
        v = g.normal(-0.1, 1.0, size=64)
        res = t_test_logz(_est(v))
        assert res.p_value == pytest.approx(student_t_cdf(res.statistic, res.df), rel=1e-14)


def _ks_uniform(ps: np.ndarray) -> float:
    sorted_p = np.sort(ps)
    i = np.arange(1, ps.size + 1)
    return float(max(np.max(i / ps.size - sorted_p), np.max(sorted_p - (i - 1) / ps.size)))


@pytest.mark.parametrize("null", sorted(EXACT_NULLS))
def test_exact_null_is_not_anti_conservative(null):
    # The whole pipeline on a predictive that is the truth: 1,000 truth
    # points, a 10-fold estimate and the t-test, over 400 seeds.  The
    # per-point values of a fold share one classifier, so they are not
    # independent and the p-values need not be uniform; this checks only
    # that the test does not reject a true null too often.
    post, truth, fm = EXACT_NULLS[null]
    ps = []
    for seed in range(400):
        rng = RngStream(seed)
        x = truth.sample(rng.substream(0), 1000)
        est, _ = estimate_log_ratio(post, x, fm, 10, rng.substream(1))
        ps.append(t_test_logz(est).p_value)
    ps = np.array(ps)
    at_05, at_01 = float(np.mean(ps < 0.05)), float(np.mean(ps < 0.01))
    ok = at_05 <= 0.05
    line = (
        f"[exact null {null}] {'PASS' if ok else 'FAIL'}: KS distance of p from uniform "
        f"{_ks_uniform(ps):.3f} over 400 seeds; rejections at 0.05 {at_05:.4f} (<= 0.05), at 0.01 {at_01:.4f}"
    )
    print(line, flush=True)
    assert ok, line

"""Misspecification tests on per-point log ratios."""

import numpy as np
import pytest

from carmen.numerics import RngStream
from carmen.ratio import LogRatioEstimate
from carmen.testing import t_test_logz


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

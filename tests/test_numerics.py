"""Special functions, seeded random streams and parameter checks."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from carmen.conjugate import GaussianKnownVarModel
from carmen.numerics import (
    CountTable,
    RngStream,
    log_gamma,
    normal_cdf,
    student_t_cdf,
)
from carmen.truths import GaussianTruth, SigmoidRegressionTruth


class TestLogGamma:
    def test_gamma_of_one_is_zero(self):
        # exactly zero, as is ln G(2)
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        assert np.array_equal(log_gamma(np.array([1.0, 2.0])), [0.0, 0.0])

    def test_half_is_log_sqrt_pi(self):
        # ln sqrt(pi), high-precision reference
        assert log_gamma(0.5) == pytest.approx(0.5723649429247004, abs=1e-12)

    def test_ten_is_log_nine_factorial(self):
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-12)

    def test_relative_error_across_range(self):
        from scipy.special import gammaln

        xs = np.logspace(-300, 300, 601)
        ref = gammaln(xs)
        assert np.all(np.abs(log_gamma(xs) - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_recurrence(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 100.0, size=500)
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + np.log(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_vectorized_matches_scalar(self):
        # bitwise: both paths are math.lgamma
        xs = np.array([1e-300, 0.01, 0.4, 1.0, 7.3, 1234.5, 1e300])
        out = log_gamma(xs)
        assert out.dtype == float and out.shape == xs.shape
        assert [float(v) for v in out] == [log_gamma(float(x)) for x in xs]

    def test_two_dimensional_input_keeps_shape(self):
        # the (levels, counts) grid that CountTable.negbinom_logpmf evaluates
        grid = np.arange(1.0, 4.0)[:, None] + np.arange(5.0)[None, :]
        out = log_gamma(grid)
        assert out.dtype == float and out.shape == (3, 5)
        assert out[2, 4] == math.lgamma(7.0)

    def test_zero_dimensional_input_gives_float(self):
        out = log_gamma(np.array(3.5))
        assert type(out) is float and out == math.lgamma(3.5)
        assert type(log_gamma(np.float64(3.5))) is float

    def test_empty_input_gives_empty_float_array(self):
        out = log_gamma(np.array([]))
        assert out.dtype == float and out.shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, bad]))


class TestCountTable:
    def test_sorts_and_takes_log_factorials_on_first_read(self):
        x = np.array([3.0, 1.0, 3.0, 0.0, 2.5, -1.0, 7.0])
        table = CountTable(x, hi=5.0)
        assert np.array_equal(table.support, [True, True, True, True, False, False, False])
        assert "_distinct" not in vars(table) and "log_factorial" not in vars(table)
        x[0] = 4.0  # after construction: the table keeps the values it was given
        assert np.array_equal(table.counts, [0.0, 1.0, 3.0])
        assert np.array_equal(table.inverse, [2, 1, 2, 0])
        assert "log_factorial" not in vars(table)
        assert np.array_equal(table.log_factorial, log_gamma(np.array([1.0, 2.0, 4.0])))
        assert np.array_equal(table.gather(table.log_factorial), [math.lgamma(4.0), 0.0, math.lgamma(4.0),
                                                                   0.0, -np.inf, -np.inf, -np.inf])

    # Each bound is three times the worst error of seeds 0-4, rounded up to
    # one significant figure (3.8e-15 and 2.4e-15); seeds 5-9, read after the
    # bounds were fixed, reached 3.5e-15 and 2.0e-15.
    @pytest.mark.parametrize("seed", range(10))
    def test_dense_log_rising_against_fsum_and_lgamma(self, seed):
        # ln G(x+r) - ln G(r) for shapes r from 1e-2 to 1e6 at about 190 distinct counts up to 2000
        g = RngStream(seed).generator()
        r = 10.0 ** g.uniform(-2.0, 6.0, size=6)
        table = CountTable(g.integers(0, 2001, size=200).astype(float))
        assert table.dense
        got = table.log_rising(r[:, None])
        assert got.shape == (r.size, table.counts.size)
        for row, ri in zip(got, r):
            terms = [math.log(ri + j) for j in range(int(table.counts[-1]))]
            for value, x in zip(row, table.counts.astype(int)):
                # scaled by the sum of the terms' magnitudes, and by the two log-gammas that cancel
                exact = math.fsum(terms[:x])
                assert abs(value - exact) <= 2e-14 * max(1.0, math.fsum(map(abs, terms[:x])))
                big, small = math.lgamma(x + ri), math.lgamma(ri)
                assert abs(value - (big - small)) <= 8e-15 * max(1.0, abs(big) + abs(small))

    def test_dense_bound_and_shapes(self):
        # dense while the largest count is at most 16 per distinct count plus 64
        assert CountTable(np.array([0.0, 96.0])).dense
        assert not CountTable(np.array([0.0, 97.0])).dense
        assert not CountTable(np.array([-1.0])).dense  # no count on the support
        table = CountTable(np.array([5.0, 0.0, 2.0, 5.0]))
        assert table.log_rising(0.5).tobytes() == table.log_rising(np.array([[0.5]]))[0].tobytes()
        np.testing.assert_allclose(table.log_rising(np.array([[0.5], [3.0]])),
                                   [[0.0, math.log(0.5 * 1.5), math.lgamma(5.5) - math.lgamma(0.5)],
                                    [0.0, math.log(12.0), math.log(3 * 4 * 5 * 6 * 7)]], rtol=1e-15, atol=0.0)
        assert CountTable(np.zeros(3)).log_rising(np.array([[2.0], [9.0]])).tolist() == [[0.0], [0.0]]

    def test_sparse_counts_take_log_gamma(self):
        counts = np.array([0.0, 3.0, 1e12])
        table = CountTable(counts)
        assert not table.dense
        assert table.log_rising(2.5).tolist() == [0.0, math.lgamma(5.5) - math.lgamma(2.5),
                                                  math.lgamma(1e12 + 2.5) - math.lgamma(2.5)]


# The accuracy grid's degrees of freedom: the pipeline's df is n - 1, and
# 140, 1,000 and 10,000 are validation sizes it runs at.
_T_DFS = [*range(1, 11), 19, 139, 999, 9999]
# Twice the worst relative error against scipy.stats.t.cdf when the bounds were
# set, over the tail grid and the stability-switch points.  It grows with df
# because the front factor takes lgamma(df/2 + 1/2) - lgamma(df/2), the
# difference of two numbers near (df/2) ln(df/2).
_T_TAIL_REL = dict.fromkeys([*range(1, 11), 19, 139], 4e-13) | {999: 4e-12, 9999: 1.3e-10}


def _t_cdf_against_scipy(t, df):
    """student_t_cdf and scipy.stats.t.cdf at each t."""
    from scipy import stats

    got = np.array([student_t_cdf(float(v), df) for v in t])
    return got, stats.t.cdf(t, df)


class TestStudentTCdf:
    @pytest.mark.parametrize("df", _T_DFS)
    def test_symmetry_at_zero(self, df):
        # at +-1e-200, t*t underflows to 0, so z = 1
        for t in (0.0, 1e-200, -1e-200):
            assert student_t_cdf(t, df) == 0.5

    @pytest.mark.parametrize("df", _T_DFS)
    def test_overflowing_square_gives_exact_tails(self, df):
        # t*t overflows to inf, so z = 0
        assert student_t_cdf(-1e200, df) == 0.0
        assert student_t_cdf(1e200, df) == 1.0

    @pytest.mark.parametrize("df", _T_DFS)
    def test_tail_accuracy_against_scipy(self, df):
        # t from -0.5 down to where scipy's p leaves the normal floats; at df = 1
        # it never does, and the grid stops at 1e154, just short of t*t overflowing
        from scipy import stats

        t = -np.logspace(math.log10(0.5), 154.0, 7666)
        t = t[stats.t.cdf(t, df) >= sys.float_info.min]
        assert t.size >= 90  # 94 at df = 9,999, the fewest
        got, ref = _t_cdf_against_scipy(t, df)
        assert np.max(np.abs(got - ref) / ref) <= _T_TAIL_REL[df]

    @pytest.mark.parametrize("df", _T_DFS)
    def test_centre_accuracy_against_scipy(self, df):
        # Between 0 and -0.5 the symmetric form takes 1 - z as t*t / (df + t*t),
        # not from z = df / (df + t*t), which keeps t*t only to within about
        # df * eps: the error is relative, at most 1.4 df * eps (df = 9,999)
        # when the bound was set, and it grows with df as the tails' does.  At
        # df = 1 the reference is the Cauchy CDF 1/2 + atan(t) / pi, which
        # scipy.stats.t.cdf misses by up to 4.6e-9 relative on this grid.
        t = -np.logspace(-9.0, math.log10(0.5), 436)[:-1]
        got, ref = _t_cdf_against_scipy(t, df)
        if df == 1:
            ref = 0.5 + np.arctan(t) / math.pi
        assert np.all(np.abs(got - ref) <= df * sys.float_info.epsilon / np.abs(t))
        assert np.max(np.abs(got - ref) / ref) <= 4 * df * sys.float_info.epsilon

    @pytest.mark.parametrize("df", [1, 4, 139, 999])
    def test_either_side_of_the_stability_switch(self, df):
        # the lower tail is I_z(a, b) / 2 at a = df/2, b = 1/2, and its continued
        # fraction turns to the symmetric form at z = (a+1)/(a+b+2): t*t = 3 df / (df+2)
        a, b = 0.5 * df, 0.5
        t_switch = -math.sqrt(3.0 * df / (df + 2.0))
        t = np.array([t_switch * (1.0 + 1e-12), t_switch * (1.0 - 1e-12)])
        z = df / (df + t * t)
        assert z[0] < (a + 1.0) / (a + b + 2.0) <= z[1]
        got, ref = _t_cdf_against_scipy(t, df)
        assert np.all(np.abs(got - ref) <= _T_TAIL_REL[df] * ref)

    def test_normal_limit(self):
        for x in np.linspace(-4.0, 4.0, 17):
            assert abs(student_t_cdf(float(x), 1e6) - normal_cdf(float(x))) < 1e-3

    def test_domain_errors(self):
        for x in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="^student_t_cdf requires finite x$"):
                student_t_cdf(x, 5.0)
        for df in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^degrees of freedom must be positive$"):
                student_t_cdf(0.0, df)


class TestNormalCdf:
    def test_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        assert normal_cdf(10.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_vectorized(self):
        xs = np.linspace(-3, 3, 7)
        out = normal_cdf(xs)
        assert out.shape == xs.shape
        assert np.all(np.diff(out) > 0)

    @pytest.mark.parametrize(
        "x",
        [
            0.0,
            -1.25,
            np.float64(2.5),
            np.array(0.7),
            np.array([]),
            np.array([np.inf, -np.inf]),
            np.linspace(-40.0, 40.0, 11000).reshape(11, 1000),
        ],
        ids=["scalar", "negative", "numpy-scalar", "0-d", "empty", "inf", "grid"],
    )
    def test_equals_pointwise_erfc(self, x):
        arr = np.asarray(x, dtype=float)
        ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in arr.reshape(-1)], dtype=float)
        out = normal_cdf(x)
        if arr.ndim == 0:
            assert type(out) is float
            assert out == ref[0]
        else:
            assert out.dtype == np.float64
            assert out.shape == arr.shape
            assert out.tobytes() == ref.reshape(arr.shape).tobytes()

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf(np.array([0.0, np.nan]))


class TestRngStream:
    def test_reproducible_bit_for_bit(self):
        a = RngStream(123, 5).generator().normal(size=1000)
        b = RngStream(123, 5).generator().normal(size=1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().normal(size=1000)
        b = RngStream(123, 1).generator().normal(size=1000)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        a = RngStream(9, 0).generator().normal(size=20000)
        b = RngStream(9, 1).generator().normal(size=20000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05

    def test_substream_deterministic_and_distinct(self):
        root = RngStream(42)
        s1 = root.substream(3)
        s2 = root.substream(3)
        s3 = root.substream(4)
        assert s1 == s2
        assert s1 != s3
        assert s1.seed == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_negative_substream_rejected(self):
        with pytest.raises(ValueError) as info:
            RngStream(0).substream(-1)
        assert str(info.value) == "substream index must be nonnegative"



# Every Gaussian scale field with a valid value; the squares of these scales
# are the variances their densities and updates divide by.
_GAUSSIAN_SCALES = [
    (GaussianKnownVarModel(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9), "noise_sd"),
    (GaussianKnownVarModel(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9), "prior_sd"),
    (GaussianTruth(0.0, 3.01), "sd"),
    (SigmoidRegressionTruth(), "noise_sd"),
]
_SCALE_IDS = [f"{type(spec).__name__}.{name}" for spec, name in _GAUSSIAN_SCALES]


class TestGaussianScales:
    @pytest.mark.parametrize("spec,name", _GAUSSIAN_SCALES, ids=_SCALE_IDS)
    @pytest.mark.parametrize("bad", [1e-200, 1e-160, 1e200, 0.0, -1.0])
    def test_scale_without_a_normal_square_rejected(self, spec, name, bad):
        # 1e-200 squares to 0, 1e-160 to a subnormal and 1e200 to inf
        with pytest.raises(ValueError, match=rf"^{name} must be positive with a normal float square"):
            dataclasses.replace(spec, **{name: bad})

    @pytest.mark.parametrize("spec,name", _GAUSSIAN_SCALES, ids=_SCALE_IDS)
    @pytest.mark.parametrize("ok", [1.5e-154, 1e154])
    def test_extreme_normal_squares_accepted(self, spec, name, ok):
        assert getattr(dataclasses.replace(spec, **{name: ok}), name) == ok

"""The Dataset container's checks."""

import math

import numpy as np
import pytest

from carmen.data import Dataset


class TestDataset:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^values must be finite, got {bad}$"):
            Dataset(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_covariates_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^covariates must be finite, got {bad}$"):
            Dataset(np.array([1.0, 2.0, 3.0]), covariates=np.array([0.5, 0.0, bad]))


    def test_misaligned_covariates_rejected(self):
        with pytest.raises(ValueError) as info:
            Dataset(np.zeros(3), covariates=np.zeros(2))
        assert str(info.value) == "covariates must align with values"

    @pytest.mark.parametrize("n", [0, 3, -1])
    def test_split_point_outside_rejected(self, n):
        with pytest.raises(ValueError) as info:
            Dataset(np.zeros(3)).split(n)
        assert str(info.value) == f"split point {n} outside (0, 3)"

    @pytest.mark.parametrize("regression", [False, True], ids=["univariate", "regression"])
    def test_split_halves_are_views_equal_to_takes(self, regression):
        g = np.random.default_rng(5)
        data = Dataset(g.normal(size=50), g.normal(size=50) if regression else None)
        for half, indices in zip(data.split(20), (np.arange(20), np.arange(20, 50))):
            taken = data.take(indices)
            assert np.shares_memory(half.values, data.values)
            assert half.values.tobytes() == taken.values.tobytes()
            if regression:
                assert np.shares_memory(half.covariates, data.covariates)
                assert half.covariates.tobytes() == taken.covariates.tobytes()
            else:
                assert half.covariates is None and taken.covariates is None

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


"""Dataset container shared by samplers, models and the classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A batch of observations.

    ``values`` holds the observed values (or regression responses);
    ``covariates`` is present only for regression data and is aligned
    with ``values``.  Both must be finite.
    """

    values: np.ndarray
    covariates: np.ndarray | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        object.__setattr__(self, "values", vals)
        if self.covariates is not None:
            cov = np.asarray(self.covariates, dtype=float)
            if cov.shape != vals.shape:
                raise ValueError("covariates must align with values")
            object.__setattr__(self, "covariates", cov)
        for name in ("values", "covariates"):
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite, got {float(arr[~np.isfinite(arr)][0])}")

    def __len__(self) -> int:
        return self.values.size

    @property
    def is_regression(self) -> bool:
        return self.covariates is not None

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        cov = self.covariates[idx] if self.covariates is not None else None
        return Dataset(self.values[idx], cov)

    def split(self, n: int) -> tuple["Dataset", "Dataset"]:
        """First ``n`` points and the remainder, in order, as views of this dataset's arrays."""
        if not 0 < n < len(self):
            raise ValueError(f"split point {n} outside (0, {len(self)})")
        return tuple(
            Dataset(self.values[part], None if self.covariates is None else self.covariates[part])
            for part in (slice(0, n), slice(n, None))
        )

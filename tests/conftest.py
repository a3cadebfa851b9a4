import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

# allow running the suite without installing the package
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import carmen.discriminator  # noqa: E402
from carmen.logistic import DecisionFunction, FoldStack, LabeledDesign, LogisticFit  # noqa: E402


@dataclass(frozen=True)
class WatchedFit:
    """One ``fit_logistic`` call: its arguments and its result.

    ``design`` is the design as passed.  Its design and labels are
    views of the cross-validation's design and label vector, which later
    folds overwrite, so ``snapshot`` holds copies of them as they were at
    the fit.
    """

    design: LabeledDesign
    snapshot: LabeledDesign
    start: DecisionFunction | None
    fit: LogisticFit


@pytest.fixture
def fits(monkeypatch) -> list[WatchedFit]:
    """Every classifier fit the test makes through ``cv_log_odds``, in order.

    Fits are watched by rebinding ``carmen.discriminator.fit_logistic``:
    ``bench/tracer.py``, and through it CI's traced bench step, count fits
    the same way, so ``cv_log_odds`` must call ``fit_logistic`` by its
    module-level name until the package reports its fits itself.
    """
    records = []
    fit_logistic = carmen.discriminator.fit_logistic

    def recording(design, **kwargs):
        snapshot = replace(design, design=design.design.copy(), labels=design.labels.copy())
        result = fit_logistic(design, **kwargs)
        records.append(WatchedFit(design, snapshot, kwargs.get("start"), result))
        return result

    monkeypatch.setattr(carmen.discriminator, "fit_logistic", recording)
    return records


@dataclass(frozen=True)
class WatchedFolds:
    """One ``fit_logistic_folds`` call: its stack, its start and its k fits."""

    stack: FoldStack
    start: DecisionFunction | None
    fits: list[LogisticFit]


@pytest.fixture
def fold_fits(monkeypatch) -> list[WatchedFolds]:
    """Every batched fit of a count class pair that the test makes through ``cv_log_odds``, in order."""
    records = []
    fit_logistic_folds = carmen.discriminator.fit_logistic_folds

    def recording(stack, **kwargs):
        result = fit_logistic_folds(stack, **kwargs)
        records.append(WatchedFolds(stack, kwargs.get("start"), result))
        return result

    monkeypatch.setattr(carmen.discriminator, "fit_logistic_folds", recording)
    return records

"""Probabilistic classifier over summary-statistic features.

Feature maps, and stratified k-fold cross-validation of the logistic fits
of :mod:`carmen.logistic` that yields one out-of-fold log-odds value per
held-out point.  The log-odds of the "simulated" class against the
"observed" class is the raw material for the density-ratio estimates in
:mod:`carmen.ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .logistic import (
    DecisionFunction,
    IrlsWorkspace,
    LogisticFit,
    _fold_stack,
    _standardized_design,
    fit_logistic,
    fit_logistic_folds,
)
from .numerics import CountTable, RngStream

_LN_CLAMP = 1e-12  # |v| floor before taking logs, keeps ln-features total


def _ln_abs(v: np.ndarray, out: np.ndarray) -> None:
    """ln max(|v|, _LN_CLAMP), written into ``out``."""
    np.abs(v, out=out)
    np.log(np.maximum(out, _LN_CLAMP, out=out), out=out)


# Each transform writes the feature of the (x, y) columns into ``out``
# with the ufuncs of its expression (x**2 is np.square, x**3 is
# np.power(x, 3)), so it is bit for bit that expression; callers read
# ``out``, never a return value.  For univariate data the value itself
# plays the role of x and y is absent.
_TRANSFORMS = {
    "x": lambda x, y, out: np.copyto(out, x),
    "abs_x": lambda x, y, out: np.abs(x, out=out),
    "x2": lambda x, y, out: np.square(x, out=out),
    "x3": lambda x, y, out: np.power(x, 3, out=out),
    "x4": lambda x, y, out: np.power(x, 4, out=out),
    "ln_abs_x": lambda x, y, out: _ln_abs(x, out),
    "y": lambda x, y, out: np.copyto(out, y),
    "abs_y": lambda x, y, out: np.abs(y, out=out),
    "y2": lambda x, y, out: np.square(y, out=out),
    "ln_abs_y": lambda x, y, out: _ln_abs(y, out),
    "yx": lambda x, y, out: np.multiply(y, x, out=out),
    "abs_yx": lambda x, y, out: np.abs(np.multiply(y, x, out=out), out=out),
    "yx2": lambda x, y, out: np.square(np.multiply(y, x, out=out), out=out),
}

# The transforms that read the response y, so only regression data has them.
RESPONSE_TRANSFORMS = frozenset({"y", "abs_y", "y2", "ln_abs_y", "yx", "abs_yx", "yx2"})


@dataclass(frozen=True)
class FeatureMap:
    """An ordered list of named transforms applied to each datapoint."""

    transforms: tuple[str, ...]

    def __init__(self, transforms) -> None:
        names = tuple(transforms)
        if not names:
            raise ValueError("feature map needs at least one transform")
        unknown = [t for t in names if t not in _TRANSFORMS]
        if unknown:
            raise ValueError(f"unknown transforms {unknown}; known: {sorted(_TRANSFORMS)}")
        repeated = sorted({t for t in names if names.count(t) > 1})
        if repeated:
            raise ValueError(f"transforms {repeated} are repeated; each may appear once")
        object.__setattr__(self, "transforms", names)

    def columns(self, data: Dataset) -> tuple[np.ndarray, np.ndarray | None]:
        """The (x, y) columns the transforms read: covariates and values, or the values and None."""
        if data.is_regression:
            return data.covariates, data.values
        for name in self.transforms:
            if name in RESPONSE_TRANSFORMS:
                raise ValueError(f"transform {name!r} needs regression data")
        return data.values, None

    def fill(self, x: np.ndarray, y: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """Write the features of the (x, y) columns into the rows of the (d, n) array ``out``."""
        for name, row in zip(self.transforms, out):
            _TRANSFORMS[name](x, y, row)
        return out


def _fold_ids(n: int, k: int, g: np.random.Generator) -> np.ndarray:
    """The fold of each of ``n`` points: one permutation of them, cut into ``k`` near-equal runs."""
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    ids = np.empty(n, dtype=np.intp)
    ids[g.permutation(n)] = np.repeat(np.arange(k), sizes)
    return ids


def _count_table(data: Dataset) -> CountTable | None:
    """The distinct values of univariate data whose every value is a whole count, else None.

    A class that is not counts gets None from the support test alone, before any sort.
    """
    if data.is_regression:
        return None
    table = CountTable(data.values)
    return table if table.support.all() else None


def _training_counts(table: CountTable, fold_ids: np.ndarray, k: int) -> np.ndarray:
    """The (k, u) training points per fold of a count class's u distinct counts, by one ``bincount``."""
    u = table.counts.size
    held = np.bincount(fold_ids * u + table.inverse, minlength=k * u).reshape(k, u)
    return (held.sum(axis=0) - held).astype(float)


def _non_finite_feature(
    fm: FeatureMap, mean: np.ndarray, sd: np.ndarray, x: np.ndarray, y: np.ndarray | None,
    counts: np.ndarray | None, m_obs: int, fold: int,
) -> ValueError:
    """The error of a fold whose standardization, ``mean`` and ``sd``, is not finite.

    It names the first feature whose mean or sd is not finite, and the
    class whose training points make it so: a class whose own share of
    that moment's sum (of the feature's values for the mean, of their
    squared deviations from the mean for the sd) is not finite, or both
    classes when only their total is not.  ``x`` and ``y`` are the fold's
    columns, observed first, and ``counts`` the points each stands for
    (one each when None).
    """
    r = int(np.argmin(np.isfinite(mean) & np.isfinite(sd)))
    name = fm.transforms[r]
    values = np.empty(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        _TRANSFORMS[name](x, y, values)
        if math.isfinite(mean[r]):
            moment, value, terms = "sd", sd[r], np.square(values - mean[r])
        else:
            moment, value, terms = "mean", mean[r], values
        if counts is not None:
            terms = terms * counts
        shares = (terms[:m_obs].sum(), terms[m_obs:].sum())
    classes = [cls for cls, share in zip(("observed", "simulated"), shares) if not math.isfinite(share)]
    return ValueError(
        f"feature {name!r} of the {' and '.join(classes or ['observed', 'simulated'])} points "
        f"has a non-finite {moment} ({value}) on the training points of fold {fold}"
    )


def _fit_folds(
    observed: Dataset,
    simulated: Dataset,
    columns: tuple,
    fm: FeatureMap,
    fold_of: np.ndarray,
    k: int,
    ridge: float,
    start: DecisionFunction | None,
) -> list[LogisticFit]:
    """Fit the k folds of ``cv_log_odds`` and return their fits, fold j's at j.

    Everything the fits share (count tables, labels and the IRLS
    workspace) lives only in this call, so it is freed before the
    held-out points are scored.  A fold whose feature means or sds are
    not finite raises a ``ValueError`` naming the feature and the class.

    When both classes are whole counts, ``_fit_count_folds`` fits all k
    folds at once.  Otherwise a fold keeps the points outside it and the
    folds are fitted in order.  ``columns`` holds each class's (x, y)
    data columns.  A fold gathers the columns it keeps of each class, in
    order, into two of the vectors of one workspace, sized for the largest
    training fold, that all k fits share: the observed points at the
    front, the simulated ones behind them.  It computes its features from
    those vectors straight into the design rows; its labels are a view of
    one label vector.
    """
    n_obs, n_sim = len(observed), len(simulated)
    folds = (fold_of[:n_obs], fold_of[n_obs:])
    tables = (_count_table(observed), _count_table(simulated))
    if all(table is not None for table in tables):
        return _fit_count_folds(fm, tables, folds, k, ridge, start)
    d = len(fm.transforms)
    m_obs = n_obs - np.bincount(folds[0], minlength=k)
    m_sim = n_sim - np.bincount(folds[1], minlength=k)
    # The classes are of one kind, so y is absent from both or from neither.
    regression = columns[0][1] is not None
    workspace = IrlsWorkspace(d, int(np.max(m_obs + m_sim)))
    labels = np.concatenate([np.zeros(n_obs), np.ones(n_sim)])

    # Each fold starts from the previous fold's function on raw features,
    # which fit_logistic maps into its own standardization.  The standardized
    # coefficients are not the same start: near separation a small shift in
    # mean/sd makes them far worse than beta = 0 and the line search stalls
    # there, which is also why fit_logistic drops a start that loses to it.
    fits = []
    for j in range(k):
        m = m_obs[j] + m_sim[j]
        x_fold, y_fold = workspace.vectors(m)[:2]
        # np.take with mode="raise" fills a copy of ``out`` and copies it
        # back; the indices are in range, so "clip" gathers straight into it.
        parts = (slice(0, m_obs[j]), slice(m_obs[j], m))
        for (x, y), fold, part in zip(columns, folds, parts):
            keep = np.flatnonzero(fold != j)
            np.take(x, keep, out=x_fold[part], mode="clip")
            if regression:
                np.take(y, keep, out=y_fold[part], mode="clip")
            del keep  # so that two classes' indices are never held at once
        y_fold = y_fold if regression else None
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment is named below
            block = fm.fill(x_fold, y_fold, workspace.design(m)[1:])
            design = _standardized_design(block, labels[n_obs - m_obs[j] : n_obs + m_sim[j]])
        if not all(map(math.isfinite, design.mean.tolist() + design.sd.tolist())):
            raise _non_finite_feature(fm, design.mean, design.sd, x_fold, y_fold, None, m_obs[j], j)
        fits.append(fit_logistic(design, ridge=ridge, start=start, workspace=workspace))
        start = fits[-1].decision
    return fits


def _fit_count_folds(
    fm: FeatureMap,
    tables: tuple[CountTable, CountTable],
    folds: tuple[np.ndarray, np.ndarray],
    k: int,
    ridge: float,
    start: DecisionFunction | None,
) -> list[LogisticFit]:
    """``_fit_folds`` for two classes of whole counts: one column per distinct count, all folds fitted at once.

    The columns are the observed class's distinct counts, then the
    simulated class's, and row j of the (k, U) count table holds fold j's
    training points per count, 0 where the fold holds all of that count's
    points.  The features are computed once, on the U counts, and
    ``fit_logistic_folds`` fits every fold from ``start``.
    """
    u_obs = tables[0].counts.size
    x = np.concatenate([table.counts for table in tables])
    labels = np.zeros(x.size)
    labels[u_obs:] = 1.0
    counts = np.hstack([_training_counts(table, f, k) for table, f in zip(tables, folds)])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment is named below
        stack = _fold_stack(fm.fill(x, None, np.empty((len(fm.transforms), x.size))), labels, counts)
    finite = np.isfinite(stack.mean).all(axis=1) & np.isfinite(stack.sd).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        keep = np.flatnonzero(counts[j] > 0.0)
        raise _non_finite_feature(fm, stack.mean[j], stack.sd[j], x[keep], None, counts[j, keep],
                                  int(np.count_nonzero(keep < u_obs)), j)
    return fit_logistic_folds(stack, ridge=ridge, start=start)


def cv_log_odds(
    observed: Dataset,
    simulated: Dataset,
    fm: FeatureMap,
    k: int,
    ridge: float,
    rng: RngStream,
    start: DecisionFunction | None = None,
) -> tuple[np.ndarray, DecisionFunction]:
    """Out-of-fold log-odds for every point of both classes, and the last fold's classifier.

    Both classes are partitioned into ``k`` folds (stratified, so each fold
    is class-balanced up to rounding); each fold's points are scored by a
    classifier fitted on the remaining folds, with standardization refit
    on the training rows only.  Returns one value per point, the observed
    points first and then the simulated ones, each class in its dataset
    order, and the last fold's decision function.  Both classes must be
    regression data, or neither.

    When both classes are univariate whole counts, they are fitted on
    their distinct counts, each weighted by the training points that take
    it, which is the fit on their points: all k folds are fitted together
    by ``fit_logistic_folds``, and each starts from ``start`` when given.
    Otherwise both are fitted on their points, one fold after another by
    ``fit_logistic``, each started from the previous fold's decision
    function and the first from ``start``.  Either fit uses a start only
    when it beats beta = 0.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(observed) < k or len(simulated) < k:
        raise ValueError("each class needs at least k points")
    if observed.is_regression != simulated.is_regression:
        kinds = ["regression" if data.is_regression else "univariate" for data in (observed, simulated)]
        raise ValueError(
            f"observed and simulated data must be of one kind, got {kinds[0]} observed "
            f"and {kinds[1]} simulated data"
        )
    columns = (fm.columns(observed), fm.columns(simulated))

    g = rng.generator()
    fold_of = np.concatenate([_fold_ids(len(observed), k, g), _fold_ids(len(simulated), k, g)])
    decisions = [fit.decision for fit in _fit_folds(observed, simulated, columns, fm, fold_of, k, ridge, start)]

    # Every point is scored by its fold's decision function, one term at a
    # time: row j of ``terms`` holds the k folds' coefficients of term j,
    # gathered per point by its fold (mode="clip", as in the fold loop).
    # Each feature is computed for both classes, into one buffer, when its
    # term needs it.  The weighted features are summed in feature order,
    # then the intercept is added.
    terms = np.column_stack([np.concatenate([[f.intercept], f.weights]) for f in decisions])
    n_obs = len(observed)
    odds, term, feature = (np.empty(n_obs + len(simulated)) for _ in range(3))
    parts = tuple(zip(columns, (feature[:n_obs], feature[n_obs:])))
    for j, (name, weights) in enumerate(zip(fm.transforms, terms[1:])):
        for (x, y), part in parts:
            _TRANSFORMS[name](x, y, part)
        if j == 0:
            np.multiply(np.take(weights, fold_of, out=odds, mode="clip"), feature, out=odds)
        else:
            odds += np.multiply(np.take(weights, fold_of, out=term, mode="clip"), feature, out=term)
    return np.add(np.take(terms[0], fold_of, out=term, mode="clip"), odds, out=odds), decisions[-1]

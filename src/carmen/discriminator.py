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
    FoldStack,
    LabeledDesign,
    LogisticFit,
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


def _fold_sizes(n: int, k: int) -> list[int]:
    """The sizes of the ``k`` near-equal runs that ``n`` points are cut into, the larger ones first."""
    return [n // k + (j < n % k) for j in range(k)]


def _fold_of(orders: np.ndarray, n_obs: int, k: int) -> np.ndarray:
    """The fold of each point, the ``n_obs`` observed ones first.

    ``orders`` holds the observed class's permutation of its points, then
    the simulated class's, each cut into ``k`` near-equal runs.
    """
    ids = np.empty(orders.size, dtype=np.intp)
    for cls in (slice(0, n_obs), slice(n_obs, orders.size)):
        ids[cls][orders[cls]] = np.repeat(np.arange(k), _fold_sizes(cls.stop - cls.start, k))
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


def _standardize_once(
    fm: FeatureMap, rows: np.ndarray, labels: np.ndarray, mean: np.ndarray, sd: np.ndarray, weights,
) -> tuple[np.ndarray, np.ndarray]:
    """Standardize the raw (d, n) ``rows`` in place on the one basis every fold is fitted on, and return it.

    ``mean`` and ``sd`` are the k folds' (k, d) training moments.  Each
    feature takes the mean and sd of the fold whose sd of it is least,
    the fold that holds out the point spreading it most, so a point far
    out in one fold crushes no fold's features.  A fold whose moments are
    not finite raises a ``ValueError`` naming the first such feature and
    the class whose training points make it so: a class whose own share
    of that moment's sum (of the feature's values for the mean, of their
    squared deviations from the mean for the sd) is not finite, or both
    classes when only their total is not.  ``labels`` are the columns'
    classes (simulated = 1), and ``weights(j)`` fold j's training points
    in each column.
    """
    finite = np.isfinite(mean).all(axis=1) & np.isfinite(sd).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        r = int(np.argmin(np.isfinite(mean[j]) & np.isfinite(sd[j])))
        fold = weights(j)
        keep = fold > 0.0
        row, labels = rows[r, keep], labels[keep]
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(mean[j, r]):
                moment, value, terms = "sd", sd[j, r], np.square(row - mean[j, r])
            else:
                moment, value, terms = "mean", mean[j, r], row
            terms = terms * fold[keep]
            shares = (terms[labels == 0.0].sum(), terms[labels == 1.0].sum())
        classes = [cls for cls, share in zip(("observed", "simulated"), shares) if not math.isfinite(share)]
        raise ValueError(
            f"feature {fm.transforms[r]!r} of the {' and '.join(classes or ['observed', 'simulated'])} points "
            f"has a non-finite {moment} ({value}) on the training points of fold {j}"
        )
    least, features = sd.argmin(axis=0), np.arange(sd.shape[1])
    basis = mean[least, features], sd[least, features]
    rows -= basis[0][:, None]
    rows /= basis[1][:, None]
    return basis


def _fold_moments(rows: np.ndarray, runs: list[slice], deviations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each fold's feature means and sds, pooled from moments taken once per run.

    ``rows`` is a (d, n) block of raw features whose columns the k
    ``runs`` tile: run j holds the points of fold j, and the other runs
    its training points.  Each run's sum, least and greatest value, and
    sum of squared deviations from its own mean are taken once, one
    feature's deviations at a time in ``deviations``, a vector at least
    as long as any run.  Fold j pools the runs other than its own (Chan,
    Golub and LeVeque's update), so its sd (population divisor) is taken
    about its own mean, and a value that is not finite only in run j
    leaves fold j's moments finite.  A feature that is constant on a
    fold's training points, or whose sd there is 0, has sd 1.  Returns
    the (k, d) means and sds.
    """
    k, d = len(runs), rows.shape[0]
    at = np.array([cols.start for cols in runs])
    size = np.array([[cols.stop - cols.start] for cols in runs], dtype=float)
    layout = np.argsort(at)  # the runs in column order, as reduceat takes them
    own = np.eye(k, dtype=bool)[:, :, None]  # [j, r]: run r is fold j's own, left out of its training points

    def per_run(ufunc: np.ufunc) -> np.ndarray:
        """(k, d): ``ufunc`` reduced over each run's columns, run r's in row r."""
        out = np.empty((k, d))
        out[layout] = ufunc.reduceat(rows, at[layout], axis=1).T
        return out

    sums = per_run(np.add)
    squares = np.empty((k, d))
    for cols, run_means, out in zip(runs, (sums / size).tolist(), squares):
        run_deviations = deviations[: cols.stop - cols.start]
        for i, (row, run_mean) in enumerate(zip(rows[:, cols], run_means)):
            np.subtract(row, run_mean, out=run_deviations)
            out[i] = run_deviations @ run_deviations
    total = size.sum() - size
    mean = np.where(own, 0.0, sums).sum(axis=1) / total
    pooled = np.where(own, 0.0, squares + size * np.square(sums / size - mean[:, None])).sum(axis=1)
    sd = np.sqrt(pooled / total)
    lo, hi = np.where(own, np.inf, per_run(np.minimum)), np.where(own, -np.inf, per_run(np.maximum))
    return mean, np.where((sd > 0.0) & (lo.min(axis=1) < hi.max(axis=1)), sd, 1.0)


def _fit_folds(
    observed: Dataset,
    simulated: Dataset,
    columns: tuple,
    fm: FeatureMap,
    g: np.random.Generator,
    k: int,
    ridge: float,
    start: DecisionFunction | None,
) -> tuple[list[LogisticFit], np.ndarray]:
    """Fit the k folds of ``cv_log_odds``: their fits, fold j's at j, and each point's fold.

    ``g`` permutes each class's points, the observed class first, and each
    permutation is cut into k near-equal runs, fold j's the j-th.  What
    the fits share (count tables, labels, the design) is freed before the
    held-out points are scored.  A fold whose feature means or sds are not
    finite raises a ``ValueError`` naming the feature and the class.  Two
    classes of whole counts go to ``_fit_count_folds``, any other pair to
    ``_fit_point_folds``.
    """
    n_obs = len(observed)
    orders = np.concatenate([g.permutation(n_obs), g.permutation(len(simulated))])
    tables = (_count_table(observed), _count_table(simulated))
    if all(table is not None for table in tables):
        fold_of = _fold_of(orders, n_obs, k)
        del orders
        return _fit_count_folds(fm, tables, (fold_of[:n_obs], fold_of[n_obs:]), k, ridge, start), fold_of
    fits = _fit_point_folds(columns, fm, orders, n_obs, k, ridge, start)
    return fits, _fold_of(orders, n_obs, k)


def _fit_point_folds(
    columns: tuple,
    fm: FeatureMap,
    orders: np.ndarray,
    n_obs: int,
    k: int,
    ridge: float,
    start: DecisionFunction | None,
) -> list[LogisticFit]:
    """``_fit_folds`` for classes fitted on their points: each fold on a prefix of one design, in order.

    Every point is a column of one (d+1, n) design.  The columns form one
    run per fold, its observed points then its simulated ones, each class
    in its permutation's order (the first ``n_obs`` of ``orders``, then
    the rest), laid out as [F1 ... F(k-1) | F0] so that fold 0's training
    points come first.  The points are gathered from ``columns``, each
    class's (x, y) data columns, into a (2, n) array in that layout,
    ``FeatureMap.fill`` writes their features into the design rows, and
    ``_fold_moments`` gives every fold's moments; the array is freed
    before the first fit.  Before fold j >= 1 is fitted, its run, unmoved
    until then, is swapped with the last columns, which all belong to
    fold j-1 as runs never grow with j, so its design is the prefix that
    leaves its run out.  The labels move along in one vector.  The rows
    are standardized once, in place, by ``_standardize_once``.  A fold's
    ``ridge_sd`` is its own sd, so its penalized objective, as a function
    of its decision, is the one on its own standardization.
    """
    n, d = orders.size, len(fm.transforms)
    sizes = (_fold_sizes(n_obs, k), _fold_sizes(n - n_obs, k))
    runs = [m + s for m, s in zip(*sizes)]  # never growing with j
    first, at = [0] * k, 0  # the column where fold j's run starts
    for j in (*range(1, k), 0):
        first[j], at = at, at + runs[j]
    run_columns = [slice(first[j], first[j] + runs[j]) for j in range(k)]
    design = np.empty((d + 1, n))
    design[0] = 1.0
    rows, labels, gathered = design[1:], np.empty(n), np.empty((2, n))
    # The classes are of one kind, so y is absent from both or from neither.
    regression = columns[0][1] is not None
    for label, ((x, y), order, class_sizes) in enumerate(zip(columns, (orders[:n_obs], orders[n_obs:]), sizes)):
        cut = 0
        for j, size in enumerate(class_sizes):
            lo = first[j] + label * sizes[0][j]
            part, points = slice(lo, lo + size), order[cut : cut + size]
            # np.take with mode="raise" fills a copy of ``out`` and copies it
            # back; the indices are in range, so "clip" gathers straight into it.
            np.take(x, points, out=gathered[0, part], mode="clip")
            if regression:
                np.take(y, points, out=gathered[1, part], mode="clip")
            labels[part] = label
            cut += size
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment is named below
        fm.fill(gathered[0], gathered[1] if regression else None, rows)
        mean, sd = _fold_moments(rows, run_columns, gathered[0])
    del gathered

    def training(j: int) -> np.ndarray:  # fold j's training points per column: none in its run
        return np.r_[np.ones(first[j]), np.zeros(runs[j]), np.ones(n - first[j] - runs[j])]

    basis = _standardize_once(fm, rows, labels, mean, sd, training)
    # Each fold starts from the previous fold's function on raw features,
    # which fit_logistic maps through the basis, and which it drops when it
    # loses to beta = 0: near separation such a start stalls the line
    # search.
    fits, swap = [], np.empty(runs[0])
    for j in range(k):
        m = n - runs[j]
        if j:
            held, scratch = run_columns[j], swap[: runs[j]]
            for row in (*rows, labels):
                np.copyto(scratch, row[held])
                np.copyto(row[held], row[m:])
                np.copyto(row[m:], scratch)
        fold = LabeledDesign(design[:, :m], labels[:m], *basis, ridge_sd=sd[j])
        fits.append(fit_logistic(fold, ridge=ridge, start=start))
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
    points.  The features are computed once, on the U counts, into one
    (d+1, U) design.  Fold j's moments are its points' mean and their sd
    about it (a zero sd kept as 1), taken with the columns it lacks
    zeroed, so that a feature not finite only there leaves them finite.
    The rows are standardized by ``_standardize_once``, and
    ``fit_logistic_folds`` fits every fold from ``start``.
    """
    u_obs = tables[0].counts.size
    x = np.concatenate([table.counts for table in tables])
    labels = np.zeros(x.size)
    labels[u_obs:] = 1.0
    counts = np.hstack([_training_counts(table, f, k) for table, f in zip(tables, folds)])
    design = np.empty((len(fm.transforms) + 1, x.size))
    design[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment is named below
        rows = fm.fill(x, None, design[1:])
        present = np.where((counts > 0.0)[:, None, :], rows, 0.0)
        total = counts.sum(axis=1)[:, None]
        mean = np.einsum("kiu,ku->ki", present, counts) / total
        present -= mean[:, :, None]
        sd = np.sqrt(np.einsum("kiu,kiu,ku->ki", present, present, counts) / total)
    del present
    sd = np.where(sd > 0.0, sd, 1.0)
    basis = _standardize_once(fm, rows, labels, mean, sd, counts.__getitem__)
    return fit_logistic_folds(FoldStack(design, labels, counts, *basis, ridge_sd=sd), ridge=ridge, start=start)


def check_integer(name: str, value, least: int | None = None) -> None:
    """A ValueError naming ``name`` unless ``value`` is an integer, Python's or numpy's, of at least ``least`` if given."""
    if not isinstance(value, (int, np.integer)) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


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
    classifier fitted on the remaining folds, whose ridge measures each
    weight on the training rows' own standardization.  Returns one value
    per point, the observed points first and then the simulated ones, each
    class in its dataset order, and the last fold's decision function.
    Both classes must be regression data, or neither.

    When both classes are univariate whole counts, they are fitted on
    their distinct counts, each weighted by the training points that take
    it, which is the fit on their points: all k folds are fitted together
    by ``fit_logistic_folds``, and each starts from ``start`` when given.
    Otherwise both are fitted on their points, one fold after another by
    ``fit_logistic``, each started from the previous fold's decision
    function and the first from ``start``; those folds are prefixes of one
    design.  Either way every fold is fitted on one standardization, each
    feature's by the training moments of the fold whose sd of it is least,
    and each fold's ridge is rescaled to its own sds, so that its fit is
    the one on its own standardization up to rounding (at most 1e-9 of
    max(1, |value|) per point on the tests' draws, far points included).
    Either fit uses a start only when it beats beta = 0.
    """
    check_integer("k", k, 2)
    if len(observed) < k or len(simulated) < k:
        raise ValueError("each class needs at least k points")
    if observed.is_regression != simulated.is_regression:
        kinds = ["regression" if data.is_regression else "univariate" for data in (observed, simulated)]
        raise ValueError(
            f"observed and simulated data must be of one kind, got {kinds[0]} observed "
            f"and {kinds[1]} simulated data"
        )
    columns = (fm.columns(observed), fm.columns(simulated))

    fits, fold_of = _fit_folds(observed, simulated, columns, fm, rng.generator(), k, ridge, start)
    decisions = [fit.decision for fit in fits]

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

"""Probabilistic classifier over summary-statistic features.

Logistic regression fitted by iteratively reweighted least squares with a
small ridge penalty, plus stratified k-fold cross-validation that yields
one out-of-fold log-odds value per held-out point.  The log-odds of the
"simulated" class against the "observed" class is the raw material for
the density-ratio estimates in :mod:`carmen.ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .numerics import CountTable, RngStream

_LN_CLAMP = 1e-12  # |v| floor before taking logs, keeps ln-features total

DEFAULT_RIDGE = 1e-6
MAX_ITER = 100  # Newton steps before a fit stops unconverged
TOL = 1e-7  # the decrement stop's weighted RMS change in the linear predictor
_LN2 = math.log(2.0)  # softplus(0), correctly rounded


# fit_logistic forms the Hessian and the gradient one block of at most
# GRAM_BLOCK design columns at a time, so its weighted design is
# (d+2) x GRAM_BLOCK however many points a fit has.  A block's product has
# M*N*K <= (d+2)(d+1) GRAM_BLOCK, which for d <= 13 stays under the 1e6
# bound up to which OpenBLAS (0.3.31) multiplies in its small-matrix kernel.
GRAM_BLOCK = 4096


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


@dataclass(frozen=True)
class LabeledDesign:
    """Standardized feature rows with class labels (simulated = 1).

    Row i stands for ``counts[i]`` points with that row's features and
    label; without ``counts`` every row is one point.
    """

    features: np.ndarray
    labels: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    counts: np.ndarray | None = None


def _standardized_design(
    block: np.ndarray, labels: np.ndarray, counts: np.ndarray | None = None
) -> LabeledDesign:
    """Standardize a C-ordered (d, n) block of raw features in place.

    Each feature row is centred on its mean, then divided by its sd, taken
    from the centred row (population divisor); a zero-sd feature keeps
    sd = 1.  With ``counts``, column i stands for ``counts[i]`` points and
    both moments are those of the points.  ``features`` is the (n, d)
    transpose of ``block``, so ``features.T`` is contiguous feature-major.
    """
    if counts is None:
        total = block.shape[1]
        mu = np.add.reduce(block, axis=1) / total  # bitwise block.mean(axis=1)
        block -= mu[:, None]
        sq = np.einsum("ij,ij->i", block, block)
    else:
        total = counts.sum()
        mu = block @ counts / total
        block -= mu[:, None]
        sq = np.einsum("ij,ij,j->i", block, block, counts)
    sd = np.sqrt(sq / total)
    sd = np.where(sd > 0.0, sd, 1.0)
    block /= sd[:, None]
    return LabeledDesign(features=block.T, labels=labels, mean=mu, sd=sd, counts=counts)


def _softplus_sigmoid(eta: np.ndarray, soft: np.ndarray, sig: np.ndarray) -> None:
    """ln(1 + e^eta) and the sigmoid 1 / (1 + e^-eta), without overflow, written into ``soft`` and ``sig``.

    The softplus is ``max(eta, 0) + log1p(e^-|eta|)``, where e^-|eta| <= 1,
    and the sigmoid is ``exp(eta - softplus)``.  An exponential below
    about e^-708 is subnormal or zero, which is its correctly rounded
    value, so callers run this with underflow ignored.
    """
    np.abs(eta, out=soft)
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    np.maximum(eta, 0.0, out=sig)
    np.add(sig, soft, out=soft)
    np.subtract(eta, soft, out=sig)
    np.exp(sig, out=sig)


class IrlsWorkspace:
    """The arrays an IRLS fit of up to ``capacity`` points on ``d`` features writes into.

    One workspace serves any number of fits, one after another, so that a
    cross-validated fit allocates (and the OS faults in) its large arrays
    once rather than on every fold and iteration.  Each fit overwrites
    all of it.  ``design(n)`` is the contiguous (d+1, n) design of an
    n-point fit: row 0 the intercept's ones, rows 1..d the standardized
    features, and ``count_rows(n)[1]`` the points each column stands for;
    a caller may write both there before the fit, and may use
    ``vectors(n)`` until the fit starts.  The fit keeps four length-n
    vectors: the linear predictor, the candidate one, the softplus and the
    sigmoid.  The two count rows exist only once a counted design asks for
    them.  The weighted design holds one block of at most ``block`` =
    min(capacity, GRAM_BLOCK) columns.
    """

    def __init__(self, d: int, capacity: int) -> None:
        self.d = d
        self.capacity = capacity
        self.block = min(capacity, GRAM_BLOCK)
        self._design = np.empty((d + 1) * capacity)
        self._weighted = np.empty((d + 2) * self.block)
        self._vectors = np.empty((4, capacity))
        self._count_rows: np.ndarray | None = None

    def design(self, n: int) -> np.ndarray:
        return self._design[: (self.d + 1) * n].reshape(self.d + 1, n)

    def count_rows(self, n: int) -> np.ndarray:
        """(2, n) rows of a counted design: the count-weighted labels c y, then the counts c."""
        if self._count_rows is None:
            self._count_rows = np.empty((2, self.capacity))
        return self._count_rows[:, :n]

    def weighted(self, n: int) -> np.ndarray:
        """(d+2, n) buffer for n <= ``block`` columns: IRLS-weighted design columns, then their residual."""
        return self._weighted[: (self.d + 2) * n].reshape(self.d + 2, n)

    def vectors(self, n: int) -> np.ndarray:
        """Four (n,) buffers, one per row."""
        return self._vectors[:, :n]


@dataclass(frozen=True)
class LogisticFit:
    intercept: float
    weights: np.ndarray
    ridge: float
    converged: bool
    iterations: int
    objective_path: tuple[float, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class DecisionFunction:
    """A fitted classifier on raw features: log-odds = intercept + weights @ x.

    A fit's coefficients hold only for the standardization of its own
    training rows; this form holds for any, so it is the one in which a
    fit is carried to the next: fold to fold, and call to call.
    """

    intercept: float
    weights: np.ndarray

    @classmethod
    def of(cls, fit: LogisticFit, design: LabeledDesign) -> "DecisionFunction":
        weights = fit.weights / design.sd
        return cls(float(fit.intercept - weights @ design.mean), weights)

    def start_for(self, design: LabeledDesign) -> np.ndarray:
        """The same function as ``[intercept, *weights]`` on the design's standardized features."""
        return np.concatenate([[self.intercept + self.weights @ design.mean], self.weights * design.sd])


@np.errstate(under="ignore")  # see _softplus_sigmoid
def fit_logistic(
    design: LabeledDesign,
    ridge: float = DEFAULT_RIDGE,
    start: np.ndarray | None = None,
    workspace: IrlsWorkspace | None = None,
) -> LogisticFit:
    """Ridge-penalized logistic regression by IRLS.

    The penalty applies to the weights only, never the intercept.  A
    design row with count c enters the log-likelihood c times, so a
    design with counts fits as the same rows repeated; n is the number
    of points, the sum of the counts.  Each
    Newton step delta has the decrement lambda^2 = grad @ delta (Boyd &
    Vandenberghe, *Convex Optimization*, 9.5.1); sqrt(lambda^2 / n) is the
    weighted RMS change the step would make to the linear predictor.  When
    0 <= lambda^2 <= n * TOL^2, the fit takes the full step without
    evaluating the objective and returns ``converged=True``; a negative or
    non-finite lambda^2 never does.  Any other step is halved until the
    penalized log-likelihood falls by at most 1e-13 of its magnitude, a
    rounding allowance, so ``objective_path`` (the start, then each
    line-searched step) is non-decreasing up to rounding.  ``iterations``
    counts the Newton steps taken, the final full step included.

    ``converged=False`` means the fit stopped after ``MAX_ITER`` steps,
    after 30 halvings found no acceptable step, or on a system still
    singular after three 10x ridge bumps.  The last iterate is always
    returned.

    ``start`` is an optional initial ``[intercept, *weights]``.  It is used
    only when its penalized objective beats that of the all-zero start;
    otherwise the fit is exactly the one without it.

    ``workspace`` holds the fit's large arrays; a fit without one
    allocates its own.  Either way the result is the same.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
    y = np.asarray(design.labels, dtype=float)
    n_obs = np.count_nonzero(y == 0.0)
    n_sim = np.count_nonzero(y == 1.0)
    if n_obs == 0 or n_sim == 0 or n_obs + n_sim != y.size:
        raise ValueError("design must contain both classes, labelled 0 and 1")
    X = design.features
    n, d = X.shape
    if design.counts is not None:
        counts = np.asarray(design.counts, dtype=float)
        if counts.shape != (n,) or not np.all((counts > 0.0) & (counts < math.inf)):
            raise ValueError(f"design needs one finite positive count per row, got shape {counts.shape}")
    if workspace is None:
        workspace = IrlsWorkspace(d, n)
    elif workspace.d != d or workspace.capacity < n:
        raise ValueError(
            f"workspace holds {workspace.capacity} points of {workspace.d} features, "
            f"the design {n} of {d}"
        )
    # Feature-major design: row 0 is the intercept, row j the j-th feature.
    # Copying the features and counts in is a no-op when they already are
    # the workspace's.
    AT = workspace.design(n)
    AT[0] = 1.0
    AT[1:] = X.T
    # p holds the sigmoid of eta until the step's Hessian is formed; the
    # line search then writes each candidate's sigmoid over it, which is
    # the sigmoid of eta again once the candidate is taken.
    eta, cand_eta, soft, p = workspace.vectors(n)
    # Each sum over points weighs a row by its count c: the log-likelihood
    # sum c (y eta - softplus eta), the gradient sum c (y - p) a and the
    # Hessian sum c p (1 - p) a a^T.  Without counts c is 1 and every
    # product by it is skipped, which leaves the fit bit for bit as it was
    # and saves two passes over the rows per step.
    if design.counts is None:
        c, cy, points = None, y, n
    else:
        cy, c = workspace.count_rows(n)
        c[...] = counts
        cy, points = np.multiply(c, y, out=cy), float(c.sum())
    # The columns of each block of at most ``workspace.block``, its
    # weighted design (row 0 the IRLS weights c p (1 - p), then the scaled
    # features, then the residual c y - c p) and the views of the design
    # and the labels it reads.  The design's row 0 is all ones, so the
    # weighted design's row 0 is the weights themselves.
    blocks = []
    for lo in range(0, n, workspace.block):
        cols = slice(lo, min(lo + workspace.block, n))
        weighted = workspace.weighted(cols.stop - lo)
        blocks.append((cols, weighted, weighted[1 : d + 1], AT[1:, cols], AT[:, cols].T, cy[cols],
                       None if c is None else c[cols]))
    lam = float(ridge)

    def value(eta: np.ndarray, b: np.ndarray) -> float:
        """Penalized log-likelihood at ``eta = b @ AT``, given the softplus of eta in ``soft``."""
        c_soft = soft if c is None else np.multiply(soft, c, out=soft)
        return float(cy @ eta - c_soft.sum()) - 0.5 * lam * float(b[1:] @ b[1:])

    def objective(eta: np.ndarray, b: np.ndarray, sig: np.ndarray) -> float:
        """``value`` at eta, writing the sigmoid of eta into ``sig``."""
        _softplus_sigmoid(eta, soft, sig)
        return value(eta, b)

    # At beta = 0, softplus(0) = ln 2 and sigmoid(0) = 1/2 exactly.
    beta = np.zeros(d + 1)
    eta.fill(0.0)
    soft.fill(_LN2)
    obj = value(eta, beta)
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != beta.shape:
            raise ValueError(f"start has shape {start.shape}, expected {beta.shape}")
        np.matmul(start, AT, out=cand_eta)
        start_obj = objective(cand_eta, start, p)
        if start_obj > obj:
            beta, obj = start, start_obj
            eta, cand_eta = cand_eta, eta
    if beta is not start:  # p holds the sigmoid of a taken start, else that of beta = 0
        p.fill(0.5)
    path = [obj]
    converged = False
    bumps = 0
    iterations = 0
    while iterations < MAX_ITER:
        # The Hessian's d+1 rows, then the gradient, summed over the
        # blocks: each block's weighted design times its design columns.
        for i, (cols, weighted, scaled, features, design_t, cy_block, c_block) in enumerate(blocks):
            w, residual, p_block = weighted[0], weighted[d + 1], p[cols]
            c_p = p_block if c_block is None else np.multiply(c_block, p_block, out=residual)
            np.multiply(c_p, np.subtract(1.0, p_block, out=w), out=w)
            np.subtract(cy_block, c_p, out=residual)
            np.multiply(features, w, out=scaled)
            if i == 0:
                products = weighted @ design_t
            else:
                products += weighted @ design_t
        hess, grad = products[: d + 1], products[d + 1]
        grad[1:] -= lam * beta[1:]
        # hess is C-contiguous, so its weight diagonal is every (d+2)-th element from d+2.
        hess.reshape(-1)[d + 2 :: d + 2] += lam
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            if bumps >= 3:
                break
            bumps += 1
            lam = lam * 10.0 if lam > 0.0 else 1e-6
            obj = objective(eta, beta, p)
            continue
        # lambda^2 = grad @ delta = delta @ hess @ delta: the w-weighted sum
        # of squares of the step's change to eta (plus its ridge term), and
        # twice the gain the quadratic model predicts for the full step.
        decrement = float(grad @ delta)
        if 0.0 <= decrement <= points * TOL * TOL:
            beta += delta
            iterations += 1
            converged = True
            break
        step = 1.0
        np.add(eta, np.matmul(delta, AT, out=cand_eta), out=cand_eta)
        for _ in range(30):
            cand = beta + step * delta
            cand_obj = objective(cand_eta, cand, p)
            if cand_obj >= obj - 1e-13 * abs(obj):
                break
            step *= 0.5
            # step is a power of two, so (step delta) @ AT is bit for bit step (delta @ AT).
            np.add(eta, np.matmul(step * delta, AT, out=cand_eta), out=cand_eta)
        else:
            break
        iterations += 1
        beta, obj = cand, cand_obj
        eta, cand_eta = cand_eta, eta
        path.append(obj)

    return LogisticFit(
        intercept=float(beta[0]),
        weights=beta[1:].copy(),
        ridge=lam,
        converged=converged,
        iterations=iterations,
        objective_path=tuple(path),
    )


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
    fm: FeatureMap, design: LabeledDesign, x: np.ndarray, y: np.ndarray | None,
    counts: np.ndarray | None, m_obs: int, fold: int,
) -> ValueError:
    """The error of a fold whose standardization is not finite.

    It names the first feature whose mean or sd is not finite, and the
    class whose training points make it so: a class whose own share of
    that moment's sum (of the feature's values for the mean, of their
    squared deviations from the mean for the sd) is not finite, or both
    classes when only their total is not.  ``x`` and ``y`` are the fold's
    gathered columns, observed points first.
    """
    r = int(np.argmin(np.isfinite(design.mean) & np.isfinite(design.sd)))
    name = fm.transforms[r]
    values = np.empty(x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        _TRANSFORMS[name](x, y, values)
        if math.isfinite(design.mean[r]):
            moment, value, terms = "sd", design.sd[r], np.square(values - design.mean[r])
        else:
            moment, value, terms = "mean", design.mean[r], values
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
) -> tuple[np.ndarray, DecisionFunction]:
    """Fit the k folds of ``cv_log_odds`` in order.

    Returns the (k, d+1) table whose row j is fold j's decision function
    ``[intercept, *weights]``, and the last fold's decision function.
    Everything the fits share (count tables, labels and the IRLS
    workspace) lives only in this call, so it is freed before the
    held-out points are scored.

    ``columns`` holds each class's (x, y) data columns.  A fold gathers
    the columns it keeps of each class, in order, into two of the vectors
    of one workspace, sized for the largest training fold, that all k fits
    share: the observed points at the front, the simulated ones behind
    them.  It computes its features from those vectors straight into the
    design rows; its labels are a view of one label vector.  A fold keeps
    the points outside it, unless both classes are whole counts: then each
    class's columns are its distinct counts, row j of its training table
    holds the training points per count, and a fold keeps the counts with
    any.  A fold whose feature means or sds are not finite raises a
    ``ValueError`` naming the feature and the class.
    """
    n_obs, n_sim = len(observed), len(simulated)
    d = len(fm.transforms)
    folds = (fold_of[:n_obs], fold_of[n_obs:])
    tables = (_count_table(observed), _count_table(simulated))
    if any(table is None for table in tables):
        trains = (None, None)
        m_obs = n_obs - np.bincount(folds[0], minlength=k)
        m_sim = n_sim - np.bincount(folds[1], minlength=k)
    else:
        trains = tuple(_training_counts(table, f, k) for table, f in zip(tables, folds))
        columns = tuple((table.counts, None) for table in tables)
        m_obs, m_sim = (np.count_nonzero(train, axis=1) for train in trains)
    # The classes are of one kind, so y is absent from both or from neither.
    regression = columns[0][1] is not None
    workspace = IrlsWorkspace(d, int(np.max(m_obs + m_sim)))
    labels = np.concatenate([np.zeros(n_obs), np.ones(n_sim)])

    # Warm starts go through raw feature space into each fold's
    # standardization.  Copying the standardized coefficients is not the
    # same start: near separation a small shift in mean/sd makes it far
    # worse than beta = 0 and the line search stalls there, which is also
    # why fit_logistic ignores a start that does not beat beta = 0.
    coef = np.empty((k, d + 1))
    decision = start
    for j in range(k):
        m = m_obs[j] + m_sim[j]
        x_fold, y_fold = workspace.vectors(m)[:2]
        counts = None if trains[0] is None else workspace.count_rows(m)[1]
        # np.take with mode="raise" fills a copy of ``out`` and copies it
        # back; the indices are in range, so "clip" gathers straight into it.
        parts = (slice(0, m_obs[j]), slice(m_obs[j], m))
        for (x, y), fold, train, part in zip(columns, folds, trains, parts):
            if train is None:
                keep = np.flatnonzero(fold != j)
            else:
                keep = np.flatnonzero(train[j] > 0.0)
                np.take(train[j], keep, out=counts[part], mode="clip")
            np.take(x, keep, out=x_fold[part], mode="clip")
            if regression:
                np.take(y, keep, out=y_fold[part], mode="clip")
            del keep  # so that two classes' indices are never held at once
        y_fold = y_fold if regression else None
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite moment is named below
            block = fm.fill(x_fold, y_fold, workspace.design(m)[1:])
            design = _standardized_design(block, labels[n_obs - m_obs[j] : n_obs + m_sim[j]], counts)
        if not all(map(math.isfinite, design.mean.tolist() + design.sd.tolist())):
            raise _non_finite_feature(fm, design, x_fold, y_fold, counts, m_obs[j], j)
        fit = fit_logistic(
            design,
            ridge=ridge,
            start=None if decision is None else decision.start_for(design),
            workspace=workspace,
        )
        decision = DecisionFunction.of(fit, design)
        coef[j, 0] = decision.intercept
        coef[j, 1:] = decision.weights
    return coef, decision


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
    order, and the last fold's decision function.  When both classes are
    univariate whole counts, they are fitted on their distinct counts,
    each weighted by the training points that take it, which is the fit on
    their points; otherwise both are fitted on their points.  Both classes
    must be regression data, or neither.

    The folds are fitted in order, each started from the previous fold's
    decision function, and the first from ``start`` when given;
    ``fit_logistic`` uses a start only when it beats beta = 0.
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
    coef, decision = _fit_folds(observed, simulated, columns, fm, fold_of, k, ridge, start)

    # Every point is scored by its fold's decision function, one term at a
    # time: row j of ``terms`` holds the k folds' coefficients of term j,
    # gathered per point by its fold (mode="clip", as in the fold loop).
    # Each feature is computed for both classes, into one buffer, when its
    # term needs it.  The weighted features are summed in feature order,
    # then the intercept is added.
    terms = np.ascontiguousarray(coef.T)
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
    return np.add(np.take(terms[0], fold_of, out=term, mode="clip"), odds, out=odds), decision

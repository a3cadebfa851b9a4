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
from .numerics import RngStream

_LN_CLAMP = 1e-12  # |v| floor before taking logs, keeps ln-features total

DEFAULT_RIDGE = 1e-6
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-7
_LN2 = math.log(2.0)  # softplus(0), correctly rounded


def _ln_abs(v: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(np.abs(v), _LN_CLAMP))


# Each transform maps (x, y) columns to one feature column.  For
# univariate data the value itself plays the role of x and y is absent.
_TRANSFORMS = {
    "x": lambda x, y: x,
    "abs_x": lambda x, y: np.abs(x),
    "x2": lambda x, y: x**2,
    "x3": lambda x, y: x**3,
    "x4": lambda x, y: x**4,
    "ln_abs_x": lambda x, y: _ln_abs(x),
    "y": lambda x, y: y,
    "abs_y": lambda x, y: np.abs(y),
    "y2": lambda x, y: y**2,
    "ln_abs_y": lambda x, y: _ln_abs(y),
    "yx": lambda x, y: y * x,
    "abs_yx": lambda x, y: np.abs(y * x),
    "yx2": lambda x, y: (y * x) ** 2,
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
        object.__setattr__(self, "transforms", names)

    def matrix(self, data: Dataset) -> np.ndarray:
        """Raw (unstandardized) feature matrix, one row per datapoint.

        The (n, d) result is the transpose of a C-ordered (d, n) array, so
        ``matrix(data).T`` gives each feature as one contiguous row.
        """
        if data.is_regression:
            x, y = data.covariates, data.values
        else:
            x, y = data.values, None
        cols = []
        for name in self.transforms:
            if y is None and name in RESPONSE_TRANSFORMS:
                raise ValueError(f"transform {name!r} needs regression data")
            cols.append(_TRANSFORMS[name](x, y))
        return np.vstack(cols).T


@dataclass(frozen=True)
class LabeledDesign:
    """Standardized feature rows with class labels (simulated = 1)."""

    features: np.ndarray
    labels: np.ndarray
    mean: np.ndarray
    sd: np.ndarray


def _standardized_design(block: np.ndarray, labels: np.ndarray) -> LabeledDesign:
    """Standardize a C-ordered (d, n) block of raw features in place.

    Each feature row is centred on its mean, then divided by its sd, taken
    from the centred row (population divisor); a zero-sd feature keeps
    sd = 1.  ``features`` is the (n, d) transpose of ``block``, so
    ``features.T`` is contiguous feature-major.
    """
    mu = np.add.reduce(block, axis=1) / block.shape[1]  # bitwise block.mean(axis=1)
    block -= mu[:, None]
    sd = np.sqrt(np.einsum("ij,ij->i", block, block) / block.shape[1])
    sd = np.where(sd > 0.0, sd, 1.0)
    block /= sd[:, None]
    return LabeledDesign(features=block.T, labels=labels, mean=mu, sd=sd)


def _softplus_sigmoid(
    eta: np.ndarray, soft: np.ndarray | None = None, sig: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """ln(1 + e^eta) and the sigmoid 1 / (1 + e^-eta), without overflow.

    The softplus is ``max(eta, 0) + log1p(e^-|eta|)``, where e^-|eta| <= 1,
    and the sigmoid is ``exp(eta - softplus)``.  They are written into
    ``soft`` and ``sig``, which are allocated when not given.  An
    exponential below about e^-708 is subnormal or zero, which is its
    correctly rounded value, so callers run this with underflow ignored.
    """
    if soft is None:
        soft = np.empty_like(eta)
    if sig is None:
        sig = np.empty_like(eta)
    np.abs(eta, out=soft)
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    np.maximum(eta, 0.0, out=sig)
    np.add(sig, soft, out=soft)
    np.subtract(eta, soft, out=sig)
    np.exp(sig, out=sig)
    return soft, sig


class IrlsWorkspace:
    """The arrays an IRLS fit of up to ``capacity`` points on ``d`` features writes into.

    One workspace serves any number of fits, one after another, so that a
    cross-validated fit allocates (and the OS faults in) its large arrays
    once rather than on every fold and iteration.  Each fit overwrites
    all of it.  ``design(n)`` is the contiguous (d+1, n) design of an
    n-point fit: row 0 the intercept's ones, rows 1..d the standardized
    features, which a caller may write there before the fit.
    """

    def __init__(self, d: int, capacity: int) -> None:
        self.d = d
        self.capacity = capacity
        self._design = np.empty((d + 1) * capacity)
        self._weighted = np.empty((d + 2) * capacity)
        self._vectors = np.empty((7, capacity))

    def design(self, n: int) -> np.ndarray:
        return self._design[: (self.d + 1) * n].reshape(self.d + 1, n)

    def weighted(self, n: int) -> np.ndarray:
        """(d+2, n) buffer: the design scaled by the IRLS weights, then the residual y - p."""
        return self._weighted[: (self.d + 2) * n].reshape(self.d + 2, n)

    def vectors(self, n: int) -> np.ndarray:
        """Seven (n,) buffers, one per row."""
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
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
    workspace: IrlsWorkspace | None = None,
) -> LogisticFit:
    """Ridge-penalized logistic regression by IRLS.

    The penalty applies to the weights only, never the intercept.  Each
    Newton step delta has the decrement lambda^2 = grad @ delta (Boyd &
    Vandenberghe, *Convex Optimization*, 9.5.1); sqrt(lambda^2 / n) is the
    weighted RMS change the step would make to the linear predictor.  When
    0 <= lambda^2 <= n * tol^2, the fit takes the full step without
    evaluating the objective and returns ``converged=True``; a negative or
    non-finite lambda^2 never does.  Any other step is halved until the
    penalized log-likelihood falls by at most 1e-13 of its magnitude, a
    rounding allowance, so ``objective_path`` (the start, then each
    line-searched step) is non-decreasing up to rounding.  ``iterations``
    counts the Newton steps taken, the final full step included.

    ``converged=False`` means the fit stopped after ``max_iter`` steps,
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    y = np.asarray(design.labels, dtype=float)
    n_obs = np.count_nonzero(y == 0.0)
    n_sim = np.count_nonzero(y == 1.0)
    if n_obs == 0 or n_sim == 0 or n_obs + n_sim != y.size:
        raise ValueError("design must contain both classes, labelled 0 and 1")
    X = design.features
    n, d = X.shape
    if workspace is None:
        workspace = IrlsWorkspace(d, n)
    elif workspace.d != d or workspace.capacity < n:
        raise ValueError(
            f"workspace holds {workspace.capacity} points of {workspace.d} features, "
            f"the design {n} of {d}"
        )
    # Feature-major design: row 0 is the intercept, row j the j-th feature.
    # Copying the features in is a no-op when they already are rows 1..d.
    AT = workspace.design(n)
    AT[0] = 1.0
    AT[1:] = X.T
    # weighted @ AT.T is the Hessian's d+1 rows, then the gradient.
    weighted = workspace.weighted(n)
    scaled, residual = weighted[: d + 1], weighted[d + 1]
    eta, cand_eta, soft, p, cand_p, scratch, a_delta = workspace.vectors(n)
    lam = float(ridge)

    def value(eta: np.ndarray, b: np.ndarray) -> float:
        """Penalized log-likelihood at ``eta = b @ AT``, given the softplus of eta in ``soft``."""
        return float(y @ eta - soft.sum()) - 0.5 * lam * float(b[1:] @ b[1:])

    def objective(eta: np.ndarray, b: np.ndarray, sig: np.ndarray) -> float:
        """``value`` at eta, writing the sigmoid of eta into ``sig``."""
        _softplus_sigmoid(eta, soft, sig)
        return value(eta, b)

    # At beta = 0, softplus(0) = ln 2 and sigmoid(0) = 1/2 exactly.
    beta = np.zeros(d + 1)
    eta.fill(0.0)
    soft.fill(_LN2)
    p.fill(0.5)
    obj = value(eta, beta)
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != beta.shape:
            raise ValueError(f"start has shape {start.shape}, expected {beta.shape}")
        np.matmul(start, AT, out=cand_eta)
        start_obj = objective(cand_eta, start, cand_p)
        if start_obj > obj:
            beta, obj = start, start_obj
            eta, cand_eta, p, cand_p = cand_eta, eta, cand_p, p
    path = [obj]
    converged = False
    bumps = 0
    iterations = 0
    while iterations < max_iter:
        np.subtract(y, p, out=residual)
        w = np.multiply(p, np.subtract(1.0, p, out=scratch), out=scratch)
        np.multiply(AT, w, out=scaled)
        products = weighted @ AT.T
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
            obj = objective(eta, beta, cand_p)
            continue
        # lambda^2 = grad @ delta = delta @ hess @ delta: the w-weighted sum
        # of squares of the step's change to eta (plus its ridge term), and
        # twice the gain the quadratic model predicts for the full step.
        decrement = float(grad @ delta)
        if 0.0 <= decrement <= n * tol * tol:
            beta += delta
            iterations += 1
            converged = True
            break
        np.matmul(delta, AT, out=a_delta)
        step = 1.0
        np.add(eta, a_delta, out=cand_eta)
        for _ in range(30):
            cand = beta + step * delta
            cand_obj = objective(cand_eta, cand, cand_p)
            if cand_obj >= obj - 1e-13 * abs(obj):
                break
            step *= 0.5
            np.add(eta, np.multiply(a_delta, step, out=cand_eta), out=cand_eta)
        else:
            break
        iterations += 1
        beta, obj = cand, cand_obj
        eta, cand_eta, p, cand_p = cand_eta, eta, cand_p, p
        path.append(obj)

    return LogisticFit(
        intercept=float(beta[0]),
        weights=beta[1:].copy(),
        ridge=lam,
        converged=converged,
        iterations=iterations,
        objective_path=tuple(path),
    )


def log_odds(fit: LogisticFit, rows: np.ndarray):
    """ln(P(sim | x) / P(obs | x)) for standardized feature rows."""
    rows = np.asarray(rows, dtype=float)
    single = rows.ndim == 1
    rows = np.atleast_2d(rows)
    if rows.shape[1] != fit.weights.size:
        raise ValueError(f"row dimension {rows.shape[1]} != fit dimension {fit.weights.size}")
    out = fit.intercept + rows @ fit.weights
    return float(out[0]) if single else out


def _fold_ids(n: int, k: int, g: np.random.Generator) -> np.ndarray:
    """The fold of each of ``n`` points: one permutation of them, cut into ``k`` near-equal runs."""
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    ids = np.empty(n, dtype=np.intp)
    ids[g.permutation(n)] = np.repeat(np.arange(k), sizes)
    return ids


def cv_log_odds(
    observed: Dataset,
    simulated: Dataset,
    fm: FeatureMap,
    k: int,
    ridge: float,
    rng: RngStream,
    score: str = "observed",
    start: DecisionFunction | None = None,
) -> tuple[np.ndarray, DecisionFunction]:
    """Out-of-fold log-odds for every point of one class, and the last fold's classifier.

    Both classes are partitioned into ``k`` folds (stratified, so each fold
    is class-balanced up to rounding); each fold's points are scored by a
    classifier fitted on the remaining folds, with standardization refit
    on the training rows only.  Returns one value per point of the scored
    class, aligned with its dataset order, and the last fold's decision
    function.

    The folds are fitted in order, each started from the previous fold's
    decision function, and the first from ``start`` when given;
    ``fit_logistic`` uses a start only when it beats beta = 0.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(observed) < k or len(simulated) < k:
        raise ValueError("each class needs at least k points")
    if score not in ("observed", "simulated"):
        raise ValueError(f"score must be 'observed' or 'simulated', got {score!r}")

    # Both classes as one C-ordered (d, n_obs + n_sim) array, observed
    # first, and the fold of every point.  Each fold's training columns
    # are gathered in that order straight into the feature rows of the
    # design in one workspace, sized for the largest training fold, that
    # all k fits share; its labels are a view of one label vector.
    n_obs, n_sim = len(observed), len(simulated)
    raw = np.hstack([fm.matrix(observed).T, fm.matrix(simulated).T])
    d = raw.shape[0]
    g = rng.generator()
    fold_obs = _fold_ids(n_obs, k, g)
    fold_sim = _fold_ids(n_sim, k, g)
    fold_of = np.concatenate([fold_obs, fold_sim])
    held_obs = np.bincount(fold_obs, minlength=k)
    held_sim = np.bincount(fold_sim, minlength=k)
    workspace = IrlsWorkspace(d, n_obs + n_sim - int(np.min(held_obs + held_sim)))
    labels = np.concatenate([np.zeros(n_obs), np.ones(n_sim)])

    # Row j holds fold j's decision function [intercept, *weights].
    # Warm starts go through raw feature space into each fold's
    # standardization.  Copying the standardized coefficients is not the
    # same start: near separation a small shift in mean/sd makes it far
    # worse than beta = 0 and the line search stalls there, which is also
    # why fit_logistic ignores a start that does not beat beta = 0.
    coef = np.empty((k, d + 1))
    decision = start
    for j in range(k):
        m_obs, m_sim = n_obs - held_obs[j], n_sim - held_sim[j]
        block = workspace.design(m_obs + m_sim)[1:]
        np.compress(fold_of != j, raw, axis=1, out=block)
        design = _standardized_design(block, labels[n_obs - m_obs : n_obs + m_sim])
        fit = fit_logistic(
            design,
            ridge=ridge,
            start=None if decision is None else decision.start_for(design),
            workspace=workspace,
        )
        decision = DecisionFunction.of(fit, design)
        coef[j, 0] = decision.intercept
        coef[j, 1:] = decision.weights

    if score == "observed":
        target, rows = raw[:, :n_obs], coef[fold_obs]
    else:
        target, rows = raw[:, n_obs:], coef[fold_sim]
    return rows[:, 0] + np.einsum("ij,ji->i", rows[:, 1:], target), decision

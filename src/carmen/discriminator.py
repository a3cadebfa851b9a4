"""Probabilistic classifier over summary-statistic features.

Logistic regression fitted by iteratively reweighted least squares with a
small ridge penalty, plus stratified k-fold cross-validation that yields
one out-of-fold log-odds value per held-out point.  The log-odds of the
"simulated" class against the "observed" class is the raw material for
the density-ratio estimates in :mod:`carmen.ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .numerics import RngStream

_LN_CLAMP = 1e-12  # |v| floor before taking logs, keeps ln-features total

DEFAULT_RIDGE = 1e-6
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-8


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

_NEEDS_RESPONSE = {"y", "abs_y", "y2", "ln_abs_y", "yx", "abs_yx", "yx2"}


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
            if y is None and name in _NEEDS_RESPONSE:
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

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Standardize held-out raw feature rows with the training parameters."""
        return (np.atleast_2d(raw) - self.mean) / self.sd


def _standardized_design(block: np.ndarray, labels: np.ndarray) -> LabeledDesign:
    """Standardize a C-ordered (d, n) block of raw features in place.

    Each feature row is centred on its mean, then divided by its sd, taken
    from the centred row (population divisor); a zero-sd feature keeps
    sd = 1.  ``features`` is the (n, d) transpose of ``block``, so
    ``features.T`` is contiguous feature-major.
    """
    mu = block.mean(axis=1)
    block -= mu[:, None]
    sd = np.sqrt(np.einsum("ij,ij->i", block, block) / block.shape[1])
    sd = np.where(sd > 0.0, sd, 1.0)
    block /= sd[:, None]
    return LabeledDesign(features=block.T, labels=labels, mean=mu, sd=sd)


def build_design(observed: Dataset, simulated: Dataset, fm: FeatureMap) -> LabeledDesign:
    """Feature rows for both classes, standardization fitted on the union."""
    raw_t = np.hstack([fm.matrix(observed).T, fm.matrix(simulated).T])
    labels = np.concatenate([np.zeros(len(observed)), np.ones(len(simulated))])
    return _standardized_design(raw_t, labels)


def _softplus_sigmoid(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln(1 + e^eta) and the sigmoid 1 / (1 + e^-eta), without overflow.

    The softplus is ``max(eta, 0) + log1p(e^-|eta|)``, where e^-|eta| <= 1.
    An exponential below about e^-708 is subnormal or zero, which is its
    correctly rounded value, so that underflow is not flagged.
    """
    with np.errstate(under="ignore"):
        soft = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        return soft, np.exp(eta - soft)


@dataclass(frozen=True)
class LogisticFit:
    intercept: float
    weights: np.ndarray
    ridge: float
    converged: bool
    iterations: int
    objective_path: tuple[float, ...] = field(repr=False, default=())


def fit_logistic(
    design: LabeledDesign,
    ridge: float = DEFAULT_RIDGE,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> LogisticFit:
    """Ridge-penalized logistic regression by IRLS.

    The penalty applies to the weights only, never the intercept.  Each
    Newton step is halved until the penalized log-likelihood does not
    decrease, so the objective path is non-decreasing.  A singular system
    bumps the ridge by 10x (up to three times) before giving up with
    ``converged=False``; the last iterate is always returned.

    ``start`` is an optional initial ``[intercept, *weights]``.  It is used
    only when its penalized objective beats that of the all-zero start;
    otherwise the fit is exactly the one without it.
    """
    if ridge < 0.0:
        raise ValueError("ridge strength must be nonnegative")
    y = np.asarray(design.labels, dtype=float)
    n_obs = np.count_nonzero(y == 0.0)
    n_sim = np.count_nonzero(y == 1.0)
    if n_obs == 0 or n_sim == 0 or n_obs + n_sim != y.size:
        raise ValueError("design must contain both classes, labelled 0 and 1")
    X = design.features
    n, d = X.shape
    # Feature-major design: row 0 is the intercept, row j the j-th feature.
    AT = np.empty((d + 1, n))
    AT[0] = 1.0
    AT[1:] = X.T
    lam = float(ridge)

    def objective(eta: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
        """Penalized log-likelihood at linear predictor ``eta = b @ AT``, and the sigmoid of eta."""
        soft, p = _softplus_sigmoid(eta)
        return float(y @ eta - soft.sum()) - 0.5 * lam * float(b[1:] @ b[1:]), p

    beta = np.zeros(d + 1)
    eta = np.zeros(n)
    obj, p = objective(eta, beta)
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != beta.shape:
            raise ValueError(f"start has shape {start.shape}, expected {beta.shape}")
        start_eta = start @ AT
        start_obj, start_p = objective(start_eta, start)
        if start_obj > obj:
            beta, eta, obj, p = start, start_eta, start_obj, start_p
    path = [obj]
    converged = False
    bumps = 0
    iterations = 0
    diagonal = np.arange(1, d + 1)
    while iterations < max_iter:
        w = p * (1.0 - p)
        grad = AT @ (y - p)
        grad[1:] -= lam * beta[1:]
        hess = (AT * w) @ AT.T
        hess[diagonal, diagonal] += lam
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            if bumps >= 3:
                break
            bumps += 1
            lam = lam * 10.0 if lam > 0.0 else 1e-6
            obj = objective(eta, beta)[0]
            continue
        iterations += 1
        a_delta = delta @ AT
        step = 1.0
        accepted = False
        for _ in range(30):
            cand_eta = eta + step * a_delta
            cand = beta + step * delta
            cand_obj, cand_p = objective(cand_eta, cand)
            if cand_obj >= obj - 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        change = step * float(np.max(np.abs(delta)))
        beta, eta, obj, p = cand, cand_eta, cand_obj, cand_p
        path.append(obj)
        if change < tol:
            converged = True
            break

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


def _fold_indices(n: int, k: int, g: np.random.Generator) -> list[np.ndarray]:
    return [np.sort(f) for f in np.array_split(g.permutation(n), k)]


def cv_log_odds(
    observed: Dataset,
    simulated: Dataset,
    fm: FeatureMap,
    k: int,
    ridge: float,
    rng: RngStream,
    score: str = "observed",
) -> np.ndarray:
    """Out-of-fold log-odds for every point of one class.

    Both classes are partitioned into ``k`` folds (stratified, so each fold
    is class-balanced up to rounding); each fold's points are scored by a
    classifier fitted on the remaining folds, with standardization refit
    on the training rows only.  Returns one value per point of the scored
    class, aligned with its dataset order.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(observed) < k or len(simulated) < k:
        raise ValueError("each class needs at least k points")
    if score not in ("observed", "simulated"):
        raise ValueError(f"score must be 'observed' or 'simulated', got {score!r}")

    # Both classes as one C-ordered (d, n_obs + n_sim) array, observed
    # first, and the fold of every point.  Each fold's training columns
    # are gathered in that order into the front of one reused work block,
    # viewed as a contiguous (d, m) array.
    n_obs, n_sim = len(observed), len(simulated)
    raw = np.hstack([fm.matrix(observed).T, fm.matrix(simulated).T])
    d = raw.shape[0]
    g = rng.generator()
    folds_obs = _fold_indices(n_obs, k, g)
    folds_sim = _fold_indices(n_sim, k, g)
    fold_of = np.empty(n_obs + n_sim, dtype=np.intp)
    for j in range(k):
        fold_of[folds_obs[j]] = j
        fold_of[n_obs + folds_sim[j]] = j
    work = np.empty(raw.size)

    target_raw = raw[:, :n_obs] if score == "observed" else raw[:, n_obs:]
    out = np.full(target_raw.shape[1], np.nan)
    fit = prev_design = None
    for j in range(k):
        m_obs, m_sim = n_obs - folds_obs[j].size, n_sim - folds_sim[j].size
        block = work[: d * (m_obs + m_sim)].reshape(d, m_obs + m_sim)
        np.compress(fold_of != j, raw, axis=1, out=block)
        labels = np.concatenate([np.zeros(m_obs), np.ones(m_sim)])
        design = _standardized_design(block, labels)
        # Warm start from the previous fold's decision function, carried
        # through raw feature space into this fold's standardization.
        # Copying the standardized coefficients is not the same start: near
        # separation a small shift in mean/sd makes it far worse than
        # beta = 0 and the line search stalls there, which is also why
        # fit_logistic ignores a start that does not beat beta = 0.
        start = None
        if fit is not None:
            w_raw = fit.weights / prev_design.sd
            c = fit.intercept - w_raw @ prev_design.mean
            start = np.concatenate([[c + w_raw @ design.mean], w_raw * design.sd])
        fit = fit_logistic(design, ridge=ridge, start=start)
        prev_design = design
        held = folds_obs[j] if score == "observed" else folds_sim[j]
        out[held] = log_odds(fit, design.transform(target_raw[:, held].T))
    return out

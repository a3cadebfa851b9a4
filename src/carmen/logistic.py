"""Logistic regression by iteratively reweighted least squares.

The fits behind :mod:`carmen.discriminator`'s cross-validation: a small
ridge penalty on the weights, a Newton-decrement stop and a halving line
search.  ``fit_logistic`` fits one design of points; ``fit_logistic_folds``
fits the k folds of one design of count-weighted columns in one loop.
Both take a start and return each fit's function on raw features, a
``DecisionFunction``; a fit's coefficients are on its standardized ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


def _check_fields(owner, shapes) -> None:
    """A ValueError naming ``owner``'s first bad field.

    The design must be 2-D, each field of ``shapes(d, n)`` of that shape,
    and every ``sd`` and ``ridge_sd`` finite and positive.
    """
    design, owner_name = np.shape(owner.design), type(owner).__name__
    if len(design) != 2:
        raise ValueError(f"{owner_name}.design has shape {design}, expected a 2-D (d+1, n) design")
    for name, shape in shapes(design[0] - 1, design[1]).items():
        got = np.shape(getattr(owner, name))
        if got != shape:
            raise ValueError(f"{owner_name}.{name} has shape {got}, expected {shape} for a {design} design")
    for name in ("sd", "ridge_sd"):
        bad = [sd for sd in np.ravel(getattr(owner, name)).tolist() if not 0.0 < sd < math.inf]
        if bad:
            raise ValueError(f"{owner_name}.{name} must be finite and positive, got {bad[0]!r}")


@dataclass(frozen=True)
class LabeledDesign:
    """The (d+1, n) design of n points with their class labels (simulated = 1).

    ``design`` is laid out as ``FoldStack.design``: row 0 the intercept's
    ones, rows 1..d the points' raw features less ``mean``, over ``sd``,
    one column per point.  That may be any standardization, such as one
    that a cross-validation's folds share; ``ridge_sd`` is the sd of the
    points' own features, and the ridge measures weight i as it would on
    their own standardization, penalizing it by ridge * (ridge_sd[i] /
    sd[i])^2.  A design on its own standardization passes its ``sd``.
    """

    design: np.ndarray
    labels: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    ridge_sd: np.ndarray

    def __post_init__(self) -> None:
        _check_fields(self, lambda d, n: dict(labels=(n,), mean=(d,), sd=(d,), ridge_sd=(d,)))

    @property
    def features(self) -> np.ndarray:
        """The (n, d) standardized features: a view of rows 1..d."""
        return self.design[1:].T


@dataclass(frozen=True)
class FoldStack:
    """The k training designs of a cross-validation over one set of weighted columns.

    Column u stands for ``counts[j, u]`` training points of fold j, all
    with that column's features and label ``labels[u]`` (simulated = 1);
    a column with count 0 is absent from fold j.  ``design`` is the (d+1,
    U) design every fold shares: row 0 the intercept's ones, rows 1..d
    the features less ``mean``, over ``sd``.  ``ridge_sd[j]`` is the sd
    of fold j's own points, by which its ridge measures each weight, as
    ``LabeledDesign.ridge_sd`` does.
    """

    design: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    ridge_sd: np.ndarray

    def __post_init__(self) -> None:  # the labels and counts are checked with their values, by the fit
        _check_fields(self, lambda d, u: dict(mean=(d,), sd=(d,), ridge_sd=(len(self.counts), d)))


def _softplus_sigmoid(eta: np.ndarray, y: np.ndarray, soft: np.ndarray, sig: np.ndarray) -> None:
    """ln(1 + e^z) for z = (1 - 2y) eta, and the sigmoid of eta, without overflow, written into ``soft`` and ``sig``.

    For a label y of 0 or 1, -ln(1 + e^z) = y eta - ln(1 + e^eta) is a
    point's log-likelihood.  The softplus of z is ``max(z, 0) +
    log1p(e^-|eta|)``, where |z| = |eta|, e^-|eta| <= 1 and max(z, 0) =
    max(eta, 0) - y eta exactly: two nonnegative terms, so a sum of them
    over points keeps the digits of each, where ``y @ eta - sum of
    softplus(eta)``, the difference of two sums that near separation are
    far larger than it, would not.  The sigmoid is ``exp((1 - y) eta -
    softplus)``.  At y = 0 both are eta's own.  An exponential below about
    e^-708 is subnormal or zero, which is its correctly rounded value, so
    callers run this with underflow ignored.
    """
    np.multiply(y, eta, out=soft)
    np.maximum(eta, 0.0, out=sig)
    np.subtract(sig, soft, out=sig)
    np.abs(eta, out=soft)
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    np.add(sig, soft, out=soft)
    np.multiply(y, eta, out=sig)
    np.subtract(eta, sig, out=sig)
    np.subtract(sig, soft, out=sig)
    np.exp(sig, out=sig)


@dataclass(frozen=True)
class DecisionFunction:
    """A fitted classifier on raw features: log-odds = intercept + weights @ x.

    A fit's coefficients hold only for the standardization of its own
    training rows; this form holds for any, so it is the one in which a
    fit starts and is carried to the next: fold to fold, and call to call.
    ``of`` and ``on`` map it from and to coefficients on a standardization.
    """

    intercept: float
    weights: np.ndarray

    @classmethod
    def of(cls, coef: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> DecisionFunction:
        """The function of ``[intercept, *weights]`` on features standardized by ``mean`` and ``sd``."""
        weights = coef[1:] / sd
        return cls(float(coef[0] - weights @ mean), weights)

    def on(self, mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
        """``[intercept, *weights]`` of this function on features standardized by ``mean`` and ``sd``."""
        if self.weights.shape != mean.shape:
            raise ValueError(f"start has {self.weights.shape} weights, expected {mean.shape}")
        return np.concatenate([[self.intercept + self.weights @ mean], self.weights * sd])


@dataclass(frozen=True)
class LogisticFit:
    """``[intercept, *weights]`` on the fit's standardized features; ``decision`` is that function on raw ones."""

    intercept: float
    weights: np.ndarray
    ridge: float
    converged: bool
    iterations: int
    decision: DecisionFunction = field(repr=False)
    objective_path: tuple[float, ...] = field(repr=False, default=())


# Underflow: see _softplus_sigmoid.  Overflow: a penalty lam |w|^2 beyond
# the float range is an objective of -inf, which no start or step can beat.
@np.errstate(under="ignore", over="ignore")
def fit_logistic(
    design: LabeledDesign,
    ridge: float = DEFAULT_RIDGE,
    start: DecisionFunction | None = None,
) -> LogisticFit:
    """Ridge-penalized logistic regression by IRLS.

    The penalty applies to the weights only, never the intercept: weight
    i costs 0.5 * ridge * w_i^2 * (ridge_sd[i] / sd[i])^2.  As a function
    of the fit's ``decision``, the penalized objective is then the one on
    the points' own standardization, and Newton's method is
    affine-invariant (Boyd & Vandenberghe, *Convex Optimization*, 9.5), so
    the fit is that one's up to rounding; ``LogisticFit.ridge`` is
    ``ridge``, or its last bump.  Each Newton step delta has the decrement
    lambda^2 = grad @ delta (Boyd & Vandenberghe, *Convex Optimization*,
    9.5.1); sqrt(lambda^2 / n) is the weighted RMS change the step would
    make to the linear predictor.  When 0 <= lambda^2 <= n * TOL^2, the
    fit takes the full step without evaluating the objective and returns
    ``converged=True``; a negative or non-finite lambda^2 never does.  Any
    other step is halved until the penalized log-likelihood falls by at
    most 1e-13 of its magnitude, a rounding allowance, so
    ``objective_path`` (the start, then each line-searched step) is
    non-decreasing up to rounding.  ``iterations`` counts the Newton steps
    taken, the final full step included.

    ``converged=False`` means the fit stopped after ``MAX_ITER`` steps,
    after 30 halvings found no acceptable step, or on a system still
    singular after three 10x ridge bumps.  The last iterate is always
    returned.

    ``start`` is an optional function on raw features, mapped through the
    design's ``mean`` and ``sd`` to its standardized features.  It is used
    only when its penalized objective beats that of the all-zero start;
    otherwise the fit is exactly the one without it.

    The fit never writes to ``design.design``; it reads a design whose rows
    are contiguous in place and copies any other, so a fit's bits do not
    depend on memory layout.  Each fit allocates its own scratch, once:
    four length-n vectors and a (d+2)-row weighted design of one block of
    at most ``GRAM_BLOCK`` columns.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
    y = np.asarray(design.labels, dtype=float)
    n_obs = np.count_nonzero(y == 0.0)
    n_sim = np.count_nonzero(y == 1.0)
    if n_obs == 0 or n_sim == 0 or n_obs + n_sim != y.size:
        raise ValueError("design must contain both classes, labelled 0 and 1")
    AT = design.design
    if AT.strides[1] != AT.itemsize:
        AT = np.ascontiguousarray(AT)
    d, n = AT.shape[0] - 1, AT.shape[1]
    # The linear predictor, the candidate one, each point's softplus term
    # and p, which holds the sigmoid of eta until the step's Hessian is
    # formed; the line search then writes each candidate's sigmoid over
    # it, which is the sigmoid of eta again once the candidate is taken.
    eta, cand_eta, soft, p = np.empty((4, n))
    # The columns of each block of at most GRAM_BLOCK, its weighted design
    # (row 0 the IRLS weights p (1 - p), then the scaled features, then the
    # residual y - p) and the views of the design and the labels it reads.
    # The design's row 0 is all ones, so the weighted design's row 0 is the
    # weights themselves.  Every block's weighted design is a prefix of one
    # buffer.
    block = min(n, GRAM_BLOCK)
    buffer = np.empty((d + 2) * block)
    blocks = []
    for lo in range(0, n, block):
        cols = slice(lo, min(lo + block, n))
        weighted = buffer[: (d + 2) * (cols.stop - lo)].reshape(d + 2, -1)
        blocks.append((cols, weighted, weighted[1 : d + 1], AT[1:, cols], AT[:, cols].T, y[cols]))
    # Each weight's share of the ridge, and each weight's penalty, formed
    # again only when the ridge is bumped.
    scale = np.square(design.ridge_sd / design.sd)
    lam = float(ridge)
    penalty = lam * scale

    def value(b: np.ndarray) -> float:
        """Penalized log-likelihood at ``b``, given each point's softplus term in ``soft``."""
        return -float(soft.sum()) - 0.5 * float(b[1:] @ (penalty * b[1:]))

    def objective(eta: np.ndarray, b: np.ndarray, sig: np.ndarray) -> float:
        """``value`` at ``b``, whose linear predictor is ``eta``, writing the sigmoid of eta into ``sig``."""
        _softplus_sigmoid(eta, y, soft, sig)
        return value(b)

    # At beta = 0, softplus(0) = ln 2 and sigmoid(0) = 1/2 exactly.
    beta = np.zeros(d + 1)
    eta.fill(0.0)
    soft.fill(_LN2)
    obj = value(beta)
    if start is not None:
        start = start.on(design.mean, design.sd)
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
        for i, (cols, weighted, scaled, features, design_t, y_block) in enumerate(blocks):
            w, residual, p_block = weighted[0], weighted[d + 1], p[cols]
            np.multiply(p_block, np.subtract(1.0, p_block, out=w), out=w)
            np.subtract(y_block, p_block, out=residual)
            # For d >= 3, np.multiply buffers the broadcast weights and the
            # strided design rows of a block narrower than 8192 / 3 columns
            # (numpy 2.4), some 130 KB per step.  The einsum writes each
            # product straight out, but takes twice as long on a full block.
            if features.shape[1] < GRAM_BLOCK:
                np.einsum("ij,j->ij", features, w, out=scaled)
            else:
                np.multiply(features, w, out=scaled)
            if i == 0:
                products = weighted @ design_t
            else:
                products += weighted @ design_t
        hess, grad = products[: d + 1], products[d + 1]
        grad[1:] -= penalty * beta[1:]
        # hess is C-contiguous, so its weight diagonal is every (d+2)-th element from d+2.
        hess.reshape(-1)[d + 2 :: d + 2] += penalty
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            if bumps >= 3:
                break
            bumps += 1
            lam = lam * 10.0 if lam > 0.0 else 1e-6
            penalty = lam * scale
            obj = objective(eta, beta, p)
            continue
        # lambda^2 = grad @ delta = delta @ hess @ delta: the w-weighted sum
        # of squares of the step's change to eta (plus its ridge term), and
        # twice the gain the quadratic model predicts for the full step.
        decrement = float(grad @ delta)
        if 0.0 <= decrement <= n * TOL * TOL:
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
        decision=DecisionFunction.of(beta, design.mean, design.sd),
        objective_path=tuple(path),
    )


@np.errstate(under="ignore", over="ignore")  # as fit_logistic
def fit_logistic_folds(
    stack: FoldStack, ridge: float = DEFAULT_RIDGE, start: DecisionFunction | None = None
) -> list[LogisticFit]:
    """``fit_logistic`` on each fold of ``stack``, all k folds in one IRLS loop.

    Column u enters fold j's log-likelihood ``counts[j, u]`` times, so a
    fold fits as its points would: the log-likelihood is -sum c softplus(z),
    z = (1 - 2y) eta, the gradient sum c (y - p) a, the Hessian sum
    c p (1 - p) a a^T, and the decrement stop's n is the fold's points,
    sum c.  Fold j penalizes weight i by ridge * (ridge_sd[j, i] / sd[i])^2,
    ``fit_logistic``'s rule.  Each fold keeps ``fit_logistic``'s rules on
    its own: it starts from ``start``, mapped through the stack's ``mean``
    and ``sd``, only when that beats beta = 0; it stops at 0 <= lambda^2
    <= n TOL^2; it halves its step until the penalized objective falls by
    at most 1e-13 of its magnitude, giving up after 30 halvings; on a
    singular system it multiplies its own ridge by 10, up to three times;
    and it stops at ``MAX_ITER`` steps.  Fold j's result is the
    ``LogisticFit`` on the stack's standardized features.

    Fold j keeps its state in row j of each array for the whole fit.  Each
    pass runs over all k rows: their weighted designs, one stacked product
    for the Hessians and gradients, one stacked solve, and one line search
    that evaluates the candidates together.  A ``live`` mask marks the
    folds that have not stopped, and a ``singular`` mask the live folds
    whose system the solve could not take; every other row takes a zero
    step, so a stopped fold's state stays as it stopped.  ``stack`` is
    only read.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge!r}")
    AT, c = stack.design, stack.counts
    k, d, u = len(c), AT.shape[0] - 1, AT.shape[1]
    y = stack.labels
    if y.shape != (u,) or not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError(f"stack needs one label, 0 or 1, per column, got shape {y.shape}")
    if c.shape != (k, u) or not np.all((c >= 0.0) & (c < math.inf)):
        raise ValueError(f"stack needs one finite nonnegative count per fold and column, got shape {c.shape}")
    cy = c * y
    points, simulated = c.sum(axis=1), cy.sum(axis=1)
    if not np.all((simulated > 0.0) & (points > simulated)):
        raise ValueError("every fold's counts must cover both classes, labelled 0 and 1")
    limit = points * TOL * TOL  # the decrement stop's bound

    beta = np.zeros((k, d + 1))
    # Each weight's share of its fold's ridge, and each weight's penalty,
    # formed again only when a fold's ridge is bumped.
    scale = np.square(stack.ridge_sd / stack.sd)
    lam = np.full(k, float(ridge))
    penalty = lam[:, None] * scale
    bumps, iterations = np.zeros((2, k), dtype=int)
    converged = np.zeros(k, dtype=bool)
    # p holds the sigmoid of eta until the step's Hessians are formed; the
    # line search then writes each candidate's sigmoid over it.
    eta, cand_eta, soft, p = np.empty((4, k, u))
    weighted = np.empty((k, d + 2, u))
    objectives = np.empty((MAX_ITER + 1, k))  # row i: each fold's objective after i line-searched steps

    def value(b: np.ndarray) -> np.ndarray:
        """Penalized log-likelihoods at ``b``, given each column's softplus term in ``soft``."""
        return -np.einsum("ij,ij->i", c, soft) - 0.5 * np.einsum("ij,ij->i", b[:, 1:], penalty * b[:, 1:])

    # At beta = 0, softplus(0) = ln 2 and sigmoid(0) = 1/2 exactly.
    eta.fill(0.0)
    soft.fill(_LN2)
    p.fill(0.5)
    obj = value(beta)
    if start is not None:
        # The start on the standardized features: one vector, and one eta for every fold.
        starts = np.tile(start.on(stack.mean, stack.sd), (k, 1))
        cand_eta[1:] = np.matmul(starts[0], AT, out=cand_eta[0])
        _softplus_sigmoid(cand_eta, y, soft, p)
        start_obj = value(starts)
        taken = start_obj > obj
        beta[taken] = starts[taken]
        np.copyto(obj, start_obj, where=taken)
        np.copyto(eta, cand_eta, where=taken[:, None])
        np.copyto(p, 0.5, where=~taken[:, None])
    objectives[0] = obj

    live = iterations < MAX_ITER
    while live.any():
        # Rows 0..d of each weighted design are its design times the IRLS
        # weights c p (1 - p), so row 0 is the weights themselves; row d+1
        # is the residual c y - c p.  The weights and c p are formed in the
        # candidate's buffers, which the line search overwrites.  The
        # product by the weights is an einsum: np.multiply would buffer the
        # broadcast weights and the strided rows of the weighted designs in
        # temporaries.
        c_p, w = cand_eta, soft
        np.multiply(c, p, out=c_p)
        np.multiply(c_p, np.subtract(1.0, p, out=w), out=w)
        np.subtract(cy, c_p, out=weighted[:, d + 1])
        np.einsum("iu,ku->kiu", AT, w, out=weighted[:, : d + 1])
        products = np.matmul(weighted, AT.T)
        hess, grad = products[:, : d + 1], products[:, d + 1]
        grad[:, 1:] -= penalty * beta[:, 1:]
        # Each product is C-contiguous, so its Hessian's weight diagonal is
        # every (d+2)-th element from d+2.
        products.reshape(k, -1)[:, d + 2 : (d + 1) ** 2 : d + 2] += penalty
        # A stopped fold's system is the identity with a zero gradient, so a
        # fold that stopped singular does not fail every later stacked solve.
        hess[~live] = np.eye(d + 1)
        grad[~live] = 0.0
        singular = np.zeros(k, dtype=bool)
        try:
            delta = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # Solve the live systems one by one to find the singular ones.
            # A singular fold takes no step: it bumps its ridge, or stops
            # unconverged after three bumps, and its objective is
            # re-evaluated under the new ridge by a line search at step 0.
            delta = np.zeros((k, d + 1))
            for j in np.flatnonzero(live):
                try:
                    delta[j] = np.linalg.solve(hess[j], grad[j])
                except np.linalg.LinAlgError:
                    singular[j] = True
            live &= ~singular | (bumps < 3)
            singular &= live
            bumps += singular
            lam[singular] = np.where(lam[singular] > 0.0, lam[singular] * 10.0, 1e-6)
            penalty = lam[:, None] * scale
        # lambda^2 = grad @ delta per fold, as in fit_logistic.
        decrement = np.einsum("ij,ij->i", grad, delta)
        done = live & ~singular & (0.0 <= decrement) & (decrement <= limit)
        np.add(beta, delta, out=beta, where=done[:, None])
        iterations += done
        converged |= done
        live &= ~done
        if not live.any():
            break
        # The folds that step this pass; every other row's step is zero.
        stepping = live & ~singular
        delta[~stepping] = 0.0
        floor = obj - 1e-13 * np.abs(obj)
        step, scaled = 1.0, delta
        for _ in range(30):
            cand = beta + scaled
            # (step delta) @ A: step is a power of two, so bit for bit step (delta @ A).
            np.matmul(scaled[:, None, :], AT, out=cand_eta[:, None, :])
            np.add(eta, cand_eta, out=cand_eta)
            _softplus_sigmoid(cand_eta, y, soft, p)
            cand_obj = value(cand)
            accepted = (cand_obj >= floor) | ~stepping
            if accepted.all():
                break
            step = np.where(accepted, step, 0.5 * step)
            scaled = step[:, None] * delta
        # A fold whose 30th candidate failed stops at its last iterate.
        live &= accepted
        stepping &= accepted
        np.copyto(beta, cand, where=live[:, None])
        obj = cand_obj
        eta, cand_eta = cand_eta, eta
        iterations += stepping
        objectives[iterations[stepping], stepping] = cand_obj[stepping]
        live &= iterations < MAX_ITER

    paths = iterations + 1 - converged
    return [
        LogisticFit(
            intercept=float(beta[j, 0]),
            weights=beta[j, 1:].copy(),
            ridge=float(lam[j]),
            converged=bool(converged[j]),
            iterations=int(iterations[j]),
            decision=DecisionFunction.of(beta[j], stack.mean, stack.sd),
            objective_path=tuple(objectives[: paths[j], j].tolist()),
        )
        for j in range(k)
    ]

"""Independent numerical oracles shared by the unit and acceptance tests.

Each posterior check normalizes likelihood^t x prior by adaptive
quadrature and compares scipy's closed form of the tempered posterior,
taken from the posterior's own parameters, against it at five parameter
points, returning the worst relative error; each (t, seed, n) is integrated
once per session, since two tests ask for the same nine points.
The divergence oracles sum the exact beta-binomial truth against the
negative-binomial predictive over the truth's finite support, sum a
negative-binomial truth against it over a range whose rest is bounded,
and give KL(truth || predictive) in closed form for a Gaussian
predictive against a Gaussian or Laplace truth.  The exact
log ratio is computed per level from each posterior's own one-level
``predictive_logpdf(data)`` method, independently of the batched grid scan,
and the exact reverse one the same way at the predictive's own draws.
A fit's log-odds on standardized rows are scored directly from its
coefficients, independently of the raw-feature rows that cross-validation
scores from, and the out-of-fold log-odds of a cross-validated call by
one per-point gather of its folds' coefficients and one product.  The
features are the expressions the transforms stand for, and the reference
cross-validation computes them for every point into one raw block before
it gathers any fold.
The exact nulls are pipelines whose predictive is the truth, so their
misspecification p-values should be uniform.
"""

import functools
import math

import numpy as np
from scipy import integrate, stats

from carmen.conjugate import (
    GaussianKnownVarModel,
    GaussianPosterior,
    NIGRegressionModel,
    PoissonGammaModel,
    PoissonGammaPosterior,
    SufficientStats,
    temper_update,
)
from carmen.data import Dataset
from carmen.discriminator import FeatureMap, _count_table, _fold_of
from carmen.logistic import (
    DecisionFunction,
    FoldStack,
    LabeledDesign,
    LogisticFit,
    fit_logistic,
    fit_logistic_folds,
)
from carmen.numerics import RngStream, log_gamma
from carmen.ratio import LogRatioEstimate
from carmen.truths import (
    BetaBinomialTruth,
    GaussianTruth,
    LaplaceTruth,
    NegBinomialTruth,
    TNoiseRegressionTruth,
)

GAUSS_MODEL = GaussianKnownVarModel(noise_sd=0.1, prior_mean=0.0, prior_sd=9.9)
POISSON_MODEL = PoissonGammaModel(shape=3.0, rate=0.05)
NIG_MODEL = NIGRegressionModel(coef_mean=0.0, precision_scale=1.0, shape=2.0, scale=2.0)


@functools.cache
def gaussian_posterior_quadrature_relerr(t: float, seed: int = 30, n: int = 20) -> float:
    data = GaussianTruth(0.0, 3.01).sample(RngStream(seed), n)
    x = data.values

    def log_unnorm(mu):
        loglik = -0.5 * np.sum((x - mu) ** 2 / 0.01 + math.log(2 * math.pi * 0.01))
        logprior = -0.5 * ((mu / 9.9) ** 2 + math.log(2 * math.pi * 9.9**2))
        return t * loglik + logprior

    post = temper_update(GAUSS_MODEL, SufficientStats.from_dataset(data), t)
    shift = log_unnorm(post.mean)
    z, _ = integrate.quad(
        lambda m: math.exp(log_unnorm(m) - shift),
        -150.0,
        150.0,
        epsabs=1e-14,
        limit=800,
        points=[post.mean - 8 * post.sd, post.mean, post.mean + 8 * post.sd],
    )
    errs = []
    for mu in post.mean + post.sd * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]):
        closed = stats.norm(post.mean, post.sd).pdf(mu)
        quad = math.exp(log_unnorm(mu) - shift) / z
        errs.append(abs(quad - closed) / closed)
    return max(errs)


@functools.cache
def poisson_posterior_quadrature_relerr(t: float, seed: int = 31, n: int = 20) -> float:
    data = NegBinomialTruth(63.0, 0.488).sample(RngStream(seed), n)
    xs = data.values

    def log_unnorm(lam):
        loglik = float(np.sum(xs * math.log(lam) - lam - log_gamma(xs + 1.0)))
        logprior = 3.0 * math.log(0.05) - log_gamma(3.0) + 2.0 * math.log(lam) - 0.05 * lam
        return t * loglik + logprior

    post = temper_update(POISSON_MODEL, SufficientStats.from_dataset(data), t)
    center = post.shape / post.rate
    shift = log_unnorm(center)
    z, _ = integrate.quad(
        lambda lam: math.exp(log_unnorm(lam) - shift),
        1e-12,
        4000.0,
        epsabs=1e-16,
        limit=800,
        points=[center],
    )
    errs = []
    for lam in center * np.array([0.5, 0.8, 1.0, 1.3, 2.0]):
        closed = stats.gamma(post.shape, scale=1.0 / post.rate).pdf(lam)
        quad = math.exp(log_unnorm(lam) - shift) / z
        errs.append(abs(quad - closed) / closed)
    return max(errs)


@functools.cache
def nig_posterior_quadrature_relerr(t: float, seed: int = 32, n: int = 20) -> float:
    data = TNoiseRegressionTruth().sample(RngStream(seed), n)
    xx, yy = data.covariates, data.values

    def log_unnorm(theta, s2):
        loglik = float(np.sum(-0.5 * (np.log(2 * np.pi * s2) + (yy - theta * xx) ** 2 / s2)))
        logprior = (
            -0.5 * (math.log(2 * math.pi * s2) + theta**2 / s2)
            + 2.0 * math.log(2.0)
            - math.lgamma(2.0)
            - 3.0 * math.log(s2)
            - 2.0 / s2
        )
        return t * loglik + logprior

    post = temper_update(NIG_MODEL, SufficientStats.from_dataset(data), t)
    mode_s2 = post.scale / (post.shape + 1.0)
    shift = log_unnorm(post.coef, mode_s2)
    lam = post.coef_precision

    def inner(s2):
        half = 14.0 * math.sqrt(s2 / lam)
        val, _ = integrate.quad(
            lambda th: math.exp(log_unnorm(th, s2) - shift),
            post.coef - half,
            post.coef + half,
            epsabs=1e-15,
            limit=400,
            points=[post.coef - half / 4, post.coef, post.coef + half / 4],
        )
        return val

    z1, _ = integrate.quad(
        inner, 1e-4, 600.0, epsabs=1e-13, limit=400,
        points=[mode_s2 * 0.2, mode_s2, mode_s2 * 5.0],
    )
    z2, _ = integrate.quad(inner, 600.0, np.inf, epsabs=1e-13, limit=400)
    z = z1 + z2
    sd_th = math.sqrt(post.scale / post.shape / post.coef_precision)
    pts = [
        (post.coef, mode_s2),
        (post.coef + sd_th, mode_s2 * 1.5),
        (post.coef - sd_th, mode_s2 * 0.7),
        (post.coef + 2 * sd_th, mode_s2),
        (post.coef, mode_s2 * 2.5),
    ]
    errs = []
    for th, s2 in pts:
        closed = (
            stats.invgamma(post.shape, scale=post.scale).pdf(s2)
            * stats.norm(post.coef, math.sqrt(s2 / post.coef_precision)).pdf(th)
        )
        quad = math.exp(log_unnorm(th, s2) - shift) / z
        errs.append(abs(quad - closed) / closed)
    return max(errs)


def exact_log_ratio(post, truth, data: Dataset) -> LogRatioEstimate:
    """Exact per-point log p_predictive(x) - log p_truth(x) over ``data``."""
    return LogRatioEstimate.from_per_point(post.predictive_logpdf(data) - truth.logpdf(data))


def exact_reverse(post, truth, simulated: Dataset) -> LogRatioEstimate:
    """Exact per-point log p_truth(x) - log p_predictive(x) at predictive draws ``simulated``.

    Its mean is the sample value of -KL(predictive || truth) that a reverse
    estimate on the same draws estimates.
    """
    return LogRatioEstimate.from_per_point(truth.logpdf(simulated) - post.predictive_logpdf(simulated))


def std_error(est: LogRatioEstimate) -> float:
    """Standard error of the mean of ``est``'s per-point values (n-1 divisor)."""
    return float(est.per_point.std(ddof=1) / math.sqrt(est.n))


def nbinom_predictive(post: PoissonGammaPosterior):
    """scipy's negative binomial for the Gamma(shape, rate) posterior predictive."""
    return stats.nbinom(post.shape, post.rate / (1.0 + post.rate))


def betabinom_log_ratio(post: PoissonGammaPosterior, truth: BetaBinomialTruth, x) -> np.ndarray:
    """Per-point log p_predictive(x) - log p_truth(x) from scipy's pmfs."""
    p_truth = stats.betabinom(truth.trials, truth.a, truth.b)
    return nbinom_predictive(post).logpmf(x) - p_truth.logpmf(x)


def betabinom_predictive_kl(
    post: PoissonGammaPosterior, truth: BetaBinomialTruth
) -> tuple[float, float]:
    """Exact KL(truth || predictive) and the sd of the per-point log ratio.

    The per-point log ratio has mean -KL under the truth, so its sum over
    n validation points has mean -n*KL and standard deviation sqrt(n)*sd.
    Both moments are finite sums over the truth's support 0..trials.
    """
    xs = np.arange(truth.trials + 1)
    pmf = stats.betabinom(truth.trials, truth.a, truth.b).pmf(xs)
    log_ratio = betabinom_log_ratio(post, truth, xs)
    mean = float(np.sum(pmf * log_ratio))
    var = float(np.sum(pmf * (log_ratio - mean) ** 2))
    return -mean, math.sqrt(var)


def nbinom_predictive_kl(post: PoissonGammaPosterior, truth: NegBinomialTruth) -> tuple[float, float]:
    """Exact KL(truth || predictive) for a negative-binomial truth, and the sd of the per-point log ratio.

    The truth NB(r, p) has pmf f(x) proportional to p^x (x + r - 1 choose x),
    the predictive NB(s, q) with q = 1/(1 + rate) likewise.  Both moments
    of the log ratio l = ln f - ln g are series over 0..X, where X is the
    first count whose truth tail mass P(x > X) is below 1e-20.  The rest
    is bounded: beyond X each step l(x+1) - l(x) = ln((x+r)/(x+s)) + ln(p/q)
    moves monotonically towards ln(p/q), so |l(X+1+j)| <= a + B (j+1) with
    a = |l(X)| and B the larger step magnitude, at X or in the limit; and
    for r >= 1 the truth's pmf ratio p (x+r)/(x+1) falls with x, so
    f(X+1+j) <= f(X+1) rho^j with rho its value at X+1.  The rest of the
    k-th absolute moment is then at most f(X+1) sum_j rho^j (a + B (j+1))^k,
    a closed form for k = 1, 2, which must stay below 1e-12.
    """
    f_dist, g_dist = stats.nbinom(truth.r, 1.0 - truth.p), nbinom_predictive(post)
    grid = np.arange(int(f_dist.mean() + 60.0 * f_dist.std()))
    X = int(grid[np.argmax(f_dist.sf(grid) < 1e-20)])
    xs = np.arange(X + 1)
    f, log_ratio = f_dist.pmf(xs), f_dist.logpmf(xs) - g_dist.logpmf(xs)
    mean = float(np.sum(f * log_ratio))
    var = float(np.sum(f * (log_ratio - mean) ** 2))

    r, s, q = truth.r, post.shape, 1.0 / (1.0 + post.rate)
    limit = math.log(truth.p / q)
    a, B = abs(float(log_ratio[-1])), max(abs(math.log((X + r) / (X + s)) + limit), abs(limit))
    rho, f_next = truth.p * (X + 1 + r) / (X + 2), float(f_dist.pmf(X + 1))
    assert r >= 1.0 and rho < 1.0, (r, rho)
    rest_1 = f_next * (a / (1 - rho) + B / (1 - rho) ** 2)
    rest_2 = f_next * (a * a / (1 - rho) + 2 * a * B / (1 - rho) ** 2 + B * B * (1 + rho) / (1 - rho) ** 3)
    assert max(rest_1, rest_2) < 1e-12, (X, rest_1, rest_2)
    return mean, math.sqrt(var)


def gaussian_predictive_kl(post: GaussianPosterior, truth: GaussianTruth | LaplaceTruth) -> float:
    """Exact KL(truth || N(post.mean, post.predictive_var)) for a Gaussian or Laplace truth.

    With v the predictive variance and m the predictive mean less the
    truth's center, KL(N(0, s^2) || N(m, v)) = ln(v/s^2)/2 + (s^2 + m^2)/(2v) - 1/2
    and KL(Laplace(0, b) || N(m, v)) = ln(2 pi v)/2 + (2b^2 + m^2)/(2v) - 1 - ln(2b).
    """
    v = post.predictive_var
    if isinstance(truth, GaussianTruth):
        s2, m = truth.sd**2, post.mean - truth.mean
        return 0.5 * math.log(v / s2) + (s2 + m * m) / (2.0 * v) - 0.5
    b, m = truth.scale, post.mean - truth.loc
    return 0.5 * math.log(2.0 * math.pi * v) + (2.0 * b * b + m * m) / (2.0 * v) - 1.0 - math.log(2.0 * b)


def log_odds(fit: LogisticFit, rows: np.ndarray):
    """ln(P(sim | x) / P(obs | x)) for standardized feature rows."""
    rows = np.asarray(rows, dtype=float)
    single = rows.ndim == 1
    rows = np.atleast_2d(rows)
    if rows.shape[1] != fit.weights.size:
        raise ValueError(f"row dimension {rows.shape[1]} != fit dimension {fit.weights.size}")
    out = fit.intercept + rows @ fit.weights
    return float(out[0]) if single else out


def fold_scores(coef: np.ndarray, fold_of: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Out-of-fold log-odds: point i scored by row ``fold_of[i]`` of the (k, d+1) table ``coef``.

    ``raw`` is the (d, n) feature block, ``coef[j]`` fold j's decision
    function ``[intercept, *weights]`` on raw features.
    """
    rows = coef[fold_of]
    return rows[:, 0] + np.einsum("ij,ji->i", rows[:, 1:], raw)


def _ln_abs(v: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(np.abs(v), 1e-12))


# The expression each transform stands for, of the (x, y) columns; for
# univariate data x is the value and y is absent.
FEATURE_EXPRESSIONS = {
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


def point_design(features: np.ndarray, labels: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> LabeledDesign:
    """The design of (n, d) standardized ``features``, on its own standardization.

    Its ``design`` is a new C-ordered (d+1, n) array, row 0 the
    intercept's ones and rows 1..d the features' transpose, and its
    ``ridge_sd`` is ``sd``.
    """
    design = np.empty((features.shape[1] + 1, features.shape[0]))
    design[0] = 1.0
    design[1:] = features.T
    return LabeledDesign(design, labels, mean, sd, ridge_sd=sd)


def standardized_design(raw: np.ndarray, labels: np.ndarray) -> LabeledDesign:
    """The design of a (d, n) block of raw features, standardized by its own moments.

    The block is copied into rows 1..d of a new C-ordered (d+1, n)
    design, whose row 0 is the intercept's ones, and standardized there
    in place.  Each feature row is centred on its mean, then divided by
    its sd, taken from the centred row (population divisor); a zero-sd
    feature keeps sd = 1, and that sd is the design's ``ridge_sd``.
    """
    design = np.empty((raw.shape[0] + 1, raw.shape[1]))
    design[0] = 1.0
    block = design[1:]
    block[...] = raw
    total = block.shape[1]
    mu = np.add.reduce(block, axis=1) / total  # bitwise block.mean(axis=1)
    block -= mu[:, None]
    sd = np.sqrt(np.einsum("ij,ij->i", block, block) / total)
    sd = np.where(sd > 0.0, sd, 1.0)
    block /= sd[:, None]
    return LabeledDesign(design, labels, mu, sd, ridge_sd=sd)


def counted_fold(raw: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> FoldStack:
    """One fold of weighted columns on its own moments: the columns of the raw (d, U) ``raw`` with positive ``counts``.

    Its mean is the count-weighted mean of those columns, its sd that of
    their deviations from it (population divisor), a zero sd kept as 1,
    and that sd is its ``ridge_sd``.
    """
    keep = np.flatnonzero(counts > 0.0)
    block, weights = raw[:, keep], counts[keep]
    mean = block @ weights / weights.sum()
    centred = block - mean[:, None]
    sd = np.sqrt(np.square(centred) @ weights / weights.sum())
    sd = np.where(sd > 0.0, sd, 1.0)
    design = np.vstack([np.ones(keep.size), centred / sd[:, None]])
    return FoldStack(design, labels[keep], weights[None], mean, sd, sd[None])


def raw_features(fm: FeatureMap, data: Dataset) -> np.ndarray:
    """The (d, n) raw features of ``data`` from ``FEATURE_EXPRESSIONS``, one row per transform."""
    x, y = (data.covariates, data.values) if data.is_regression else (data.values, None)
    return np.vstack([FEATURE_EXPRESSIONS[name](x, y) for name in fm.transforms])


def fold_ids(n: int, k: int, g: np.random.Generator) -> np.ndarray:
    """The fold of each of ``n`` points as ``cv_log_odds`` draws a class's: one permutation of them, cut into ``k`` near-equal runs."""
    return _fold_of(g.permutation(n), n, k)


def raw_block_cv(observed: Dataset, simulated: Dataset, fm: FeatureMap, k: int, ridge: float,
                 rng: RngStream, start: DecisionFunction | None = None):
    """``cv_log_odds`` computed from one raw (d, n_obs + n_sim) feature block.

    Both classes' features are computed for every point up front.  When
    both classes are whole counts, each keeps one column per distinct
    count, read from one of its points and weighted per fold by its
    training points, and each fold is fitted alone from ``start`` on its
    own columns' moments (``counted_fold``).  Otherwise each class keeps
    one column per point, and each fold's columns are copied out of the
    block, standardized and fitted from the previous fold's decision
    function.  Every point is scored by ``fold_scores``.  Returns the
    out-of-fold values and the last fold's decision function.
    """
    n_obs = len(observed)
    raw = np.hstack([raw_features(fm, observed), raw_features(fm, simulated)])
    g = rng.generator()
    fold_of = np.concatenate([fold_ids(n_obs, k, g), fold_ids(len(simulated), k, g)])
    tables = [_count_table(observed), _count_table(simulated)]
    parts, folds = (raw[:, :n_obs], raw[:, n_obs:]), (fold_of[:n_obs], fold_of[n_obs:])
    if all(table is not None for table in tables):
        columns, train, labels = [], [], []
        for label, table, part, fold in zip((0.0, 1.0), tables, parts, folds):
            u = table.counts.size
            first = np.empty(u, dtype=np.intp)
            first[table.inverse] = np.arange(part.shape[1])
            columns.append(part[:, first])
            held = np.bincount(fold * u + table.inverse, minlength=k * u).reshape(k, u)
            train.append(held.sum(axis=0) - held)
            labels.append(np.full(u, label))
        columns, labels = np.hstack(columns), np.concatenate(labels)
        fits = [fit_logistic_folds(counted_fold(columns, labels, counts), ridge=ridge, start=start)[0]
                for counts in np.hstack(train).astype(float)]
    else:
        labels = np.concatenate([np.zeros(n_obs), np.ones(len(simulated))])
        fits = []
        for j in range(k):
            keep = np.flatnonzero(fold_of != j)
            design = standardized_design(raw[:, keep], labels[keep])
            fits.append(fit_logistic(design, ridge=ridge, start=start))
            start = fits[-1].decision
    coef = np.array([[fit.decision.intercept, *fit.decision.weights] for fit in fits])
    return fold_scores(coef, fold_of, raw), fits[-1].decision


# Exact nulls: each posterior predictive *is* its truth (KL = 0).  The
# Gaussian predictive is N(0.3, 1 + 1/4); the Gamma(20, rate 0.8)
# predictive is the negative binomial with r = 20 and p = 1/1.8.
EXACT_NULLS = {
    "gaussian": (
        GaussianPosterior(noise_sd=1.0, mean=0.3, precision=4.0, t=1.0),
        GaussianTruth(0.3, math.sqrt(1.25)),
        FeatureMap(("x", "x2")),
    ),
    "negbinom": (
        PoissonGammaPosterior(20.0, 0.8, t=1.0),
        NegBinomialTruth(20.0, 1.0 / 1.8),
        FeatureMap(("x", "x2", "x3", "x4")),
    ),
}

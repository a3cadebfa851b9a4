"""Special functions, seeded random streams and parameter checks.

Everything downstream (conjugate updates, truth samplers, the classifier
cross-validation splits) draws randomness through :class:`RngStream` so that
whole pipelines are reproducible bit for bit from a single 64-bit seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

_FPMIN = 1e-300


def _splitmix64(z: int) -> int:
    """One round of the splitmix64 mixer, used to derive substream ids."""
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A value-typed handle for a reproducible random stream.

    Identical ``(seed, stream)`` pairs produce identical draw sequences on
    every run and platform; distinct stream ids give statistically
    independent streams.  Streams are values: concurrent tasks must use
    distinct ids rather than share a generator.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _MASK64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(int(self.seed), spawn_key=(int(self.stream),))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, index: int) -> "RngStream":
        """Derive an independent child stream, deterministic in ``index``."""
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        child = _splitmix64((int(self.stream) ^ _splitmix64(int(index))) & _MASK64)
        return RngStream(int(self.seed), child)


_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)  # math.lgamma elementwise, returning objects


def log_gamma(x):
    """Natural log of the gamma function for finite x > 0: ``math.lgamma``, elementwise on arrays.

    A scalar or 0-d input gives a float; an array gives a float array of its shape.
    """
    if np.ndim(x) == 0:
        x = float(x)
        if not 0.0 < x < math.inf:
            raise ValueError("log_gamma requires finite x > 0")
        return math.lgamma(x)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise ValueError("log_gamma requires finite x > 0")
    return _LGAMMA(arr).astype(float)


def _student_t_log_norm(df: float) -> float:
    """ln G((df+1)/2) - ln G(df/2) - ln(df pi)/2, the log-normaliser of a unit-scale Student-t."""
    return math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)


def log_beta(a, b):
    """ln B(a, b) = ln G(a) + ln G(b) - ln G(a+b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(np.asarray(a, float) + np.asarray(b, float))


class CountTable:
    """Distinct values of the finite vector ``x`` on its ``support``, the whole counts in [0, hi].

    A table over ``counts`` goes back to every point of ``x`` by :meth:`gather`.
    The values are sorted on the first read of ``counts`` or ``inverse``, and
    ``log_factorial`` is taken on its first read, so a caller that finds the
    support wanting pays for no sort.
    """

    def __init__(self, x, hi: float = math.inf) -> None:
        x = np.asarray(x, dtype=float)
        self.support = (x >= 0.0) & (x <= hi) & (np.floor(x) == x)
        self._on_support = x[self.support]  # a copy: the table does not see later writes to x

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        return np.unique(self._on_support, return_inverse=True)

    @property
    def counts(self) -> np.ndarray:
        return self._distinct[0]

    @property
    def inverse(self) -> np.ndarray:
        return self._distinct[1]

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """How many points on the support hold each count, as floats."""
        return np.bincount(self.inverse, minlength=self.counts.size).astype(float)

    @cached_property
    def log_factorial(self) -> np.ndarray:
        """ln x! per count."""
        return log_gamma(self.counts + 1.0)

    @cached_property
    def dense(self) -> bool:
        """Whether :meth:`log_rising` sums logs over every whole number up to the largest count.

        The dense table has a column per whole number up to the largest
        count, where ``log_gamma``'s has one per distinct count.  It is used
        while the largest count is at most 16 per distinct count, plus 64,
        which bounds its size by a fixed multiple of ``log_gamma``'s.  At
        that bound, for 50 levels and 100 to 1,000 distinct counts, it takes
        about 0.6 of ``log_gamma``'s time and 2.4 to 2.9 times its peak
        memory (``log_gamma`` makes a Python float per entry).  Sparse
        counts, such as counts near 1e12, keep ``log_gamma``.
        """
        xu = self.counts
        return xu.size > 0 and bool(xu[-1] <= 16 * xu.size + 64)

    def log_rising(self, r) -> np.ndarray:
        """ln G(x+r) - ln G(r) per count x; a column of shapes r gives one row each.

        A dense table takes it as the sum of ln(r + j) over j < x, one
        cumulative sum of logs per r, and gathers it at the counts.
        """
        xu = self.counts
        if not self.dense:
            return log_gamma(xu + r) - log_gamma(r)
        cum = np.zeros(np.shape(r)[:-1] + (int(xu[-1]) + 1,))  # column 0 is the empty sum, at x = 0
        steps = cum[..., 1:]
        np.add(r, np.arange(steps.shape[-1]), out=steps)
        np.log(steps, out=steps)
        np.cumsum(steps, axis=-1, out=steps)
        return cum[..., xu.astype(np.intp)]

    def gather(self, table: np.ndarray) -> np.ndarray:
        """The entry of ``table`` for each point's count; -inf off the support."""
        out = np.full(self.support.shape, -np.inf)
        out[self.support] = table[self.inverse]
        return out

    def negbinom_logpmf(self, r, log_p, log_q) -> np.ndarray:
        """ln G(x+r) - ln G(r) - ln x! + r log_p + x log_q per count x; column parameters give rows."""
        xu = self.counts
        return self.log_rising(r) - self.log_factorial + r * log_p + xu * log_q


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta (modified Lentz algorithm)
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    h = d = 1.0 / d
    for m in range(1, 300):
        m2 = 2 * m
        # the even and the odd term of step m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def student_t_cdf(x: float, df: float) -> float:
    """P(T <= x) for Student-t with ``df`` degrees of freedom.

    The lower tail P(T <= -|x|) is I_z(a, b) / 2, the regularized incomplete
    beta at z = df / (df + x^2), a = df/2 and b = 1/2.  Its continued fraction
    switches to the symmetric form 1 - I_{1-z}(b, a) at z = (a+1)/(a+b+2) for
    numerical stability.  That form takes 1 - z as x^2 / (df + x^2): z keeps
    x^2 only to within about df * eps, so 1 - z would lose the digits of a
    small x.
    """
    if not math.isfinite(x):
        raise ValueError("student_t_cdf requires finite x")
    if not (math.isfinite(df) and df > 0.0):
        raise ValueError("degrees of freedom must be positive")
    square = x * x
    z = df / (df + square)
    if z == 0.0 or square == 0.0:  # x * x overflowed, or is 0: I_z(a, b) is z
        tail = 0.5 * z
    else:
        a, b = 0.5 * df, 0.5
        log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(z)
        if z < (a + 1.0) / (a + b + 2.0):
            tail = 0.5 * (math.exp(log_front + b * math.log1p(-z)) * _betacf(a, b, z) / a)
        else:
            w = square / (df + square)  # 1 - z
            tail = 0.5 * (1.0 - math.exp(log_front + b * math.log(w)) * _betacf(b, a, w) / b)
    return tail if x <= 0.0 else 1.0 - tail


_ERFC = np.frompyfunc(math.erfc, 1, 1)  # math.erfc elementwise, returning objects


def normal_cdf(x):
    """Standard normal CDF, accurate to ~1e-15 absolute via erfc."""
    arr = np.asarray(x, dtype=float)
    if arr.size and np.any(np.isnan(arr)):
        raise ValueError("normal_cdf requires non-NaN input")
    flat = arr.reshape(-1)
    out = (0.5 * _ERFC(-flat / math.sqrt(2.0)).astype(float)).reshape(arr.shape)
    if np.ndim(x) == 0:
        return float(out)
    return out


def require_finite_fields(obj) -> None:
    """Raise ValueError naming the first dataclass field of ``obj`` that is not a finite number."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def require_gaussian_scales(obj, *names: str) -> None:
    """Raise ValueError naming the first field in ``names`` that is not a usable Gaussian scale:
    positive, with a square (the variance) that is a finite normal float."""
    for name in names:
        value = getattr(obj, name)
        if not (value > 0.0 and sys.float_info.min <= value * value < math.inf):
            raise ValueError(f"{name} must be positive with a normal float square, got {value!r}")

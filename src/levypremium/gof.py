"""Goodness-of-fit machinery: probability integral transform, uniformity
tests (Kolmogorov-Smirnov, Neyman smooth, Frosini), and Q-Q / P-P plot data.

For n <= 100 the KS p-value comes from the exact law of D_n (Marsaglia, Tsang
& Wang 2003). The Frosini null for n <= 200 is Monte-Carlo: 1e5 uniform
replicates under a fixed master seed, cached per sample size, so repeated
calls at the same n reuse the null sample. Above those sizes the p-values come
from the limit laws of the Brownian bridge B: sup|B| for KS (Kolmogorov) and
int_0^1 |B(t)| dt for Frosini (Shepp 1982; Johnson & Killeen 1983; its series
terms in closed form, DLMF 13.3.27). Neyman's statistic is referred to its
chi-square limit. Each report names the source of its null.

Note on composite hypotheses: the nulls assume the tested CDF's parameters
were not fitted to the tested data; when they were, these p-values are
conservative (uncorrected) and are reported as-is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidParameterError

__all__ = [
    "PitSample", "TestReport", "pit",
    "ks_test_uniform", "neyman_smooth_test", "frosini_test", "qq_pp_data",
]

_MC_REPLICATES = 100_000
_MC_MASTER_SEED = 741852963
_MC_BLOCK_VALUES = 1_000_000
_KS_EXACT_MAX_N = 100
_FROSINI_MC_MAX_N = 200
_null_cache: dict = {}


@dataclass(frozen=True)
class PitSample:
    """Probability-integral-transformed observations, each in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.size == 0:
            raise InvalidParameterError("PitSample cannot be empty")
        if np.any((arr < 0.0) | (arr > 1.0)) or np.any(~np.isfinite(arr)):
            raise InvalidParameterError("PIT values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class TestReport:
    """Statistic, p-value, and method tag of one uniformity test; ``null``
    names where the null distribution came from: "exact", "monte-carlo",
    "asymptotic" or "chi-square"."""

    statistic: float
    p_value: float
    method: str
    n: int
    null: str

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidParameterError("p_value must lie in [0, 1]")


def pit(data, cdf) -> PitSample:
    """Element-wise CDF evaluation; uniform on (0,1) under a correct model."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise DataError("no observations to transform")
    vals = np.asarray(cdf(arr), dtype=float)
    if np.any((vals < 0.0) | (vals > 1.0)) or np.any(~np.isfinite(vals)):
        raise DataError("CDF returned value outside [0, 1]")
    return PitSample(values=vals)


def _ks_rows(u: np.ndarray) -> np.ndarray:
    """KS statistic D_n of each row of u, sorted along its last axis."""
    n = u.shape[-1]
    i = np.arange(1, n + 1)
    return np.maximum((i / n - u).max(axis=-1), (u - (i - 1) / n).max(axis=-1))


def _frosini_rows(u: np.ndarray) -> np.ndarray:
    """Frosini statistic B_n of each row of u, sorted along its last axis."""
    n = u.shape[-1]
    return np.abs(u - (np.arange(1, n + 1) - 0.5) / n).sum(axis=-1) / np.sqrt(n)


# Null statistic per kind, with its seed stream under the master seed.
_MC_STATISTICS = {"frosini": (2, _frosini_rows)}


def _matrix_power(a: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """a^n as a matrix scaled to entries below 1 in magnitude and its binary
    exponent: a^n = out * 2^exp, so no power overflows."""
    if n == 1:
        return a, 0
    half, exp = _matrix_power(a, n // 2)
    out = half @ half
    if n % 2:
        out = out @ a
    shift = int(np.frexp(np.max(np.abs(out)))[1])
    return np.ldexp(out, -shift), 2 * exp + shift


def _ks_exact_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the KS statistic of n uniforms, from the exact law
    P(D_n < d) = n!/n^n (H^n)_kk of Marsaglia, Tsang & Wang (2003, J. Stat.
    Softw. 8(18)), with k = floor(n d) + 1 and H their (2k - 1)-square
    matrix.  The factorials are exact integers, correctly rounded on division;
    within 7.3e-15 of ``scipy.stats.kstwo.sf`` for n <= 100."""
    if d <= 0.5 / n:                    # D_n >= 1/(2n) always
        return 1.0
    if d >= 1.0:
        return 0.0
    k = int(n * d) + 1
    m = 2 * k - 1
    h = k - n * d
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1     # i - j + 1
    H = (lag >= 0).astype(float)
    H[:, 0] -= h ** np.arange(1, m + 1)
    H[-1, :] -= h ** np.arange(m, 0, -1)
    H[-1, 0] += max(2.0 * h - 1.0, 0.0) ** m
    H *= np.array([1 / math.factorial(g) for g in range(m + 1)])[np.maximum(lag, 0)]
    power, exp = _matrix_power(H, n)
    below = math.ldexp(power[k - 1, k - 1] * (math.factorial(n) / n ** n), exp)
    return min(max(1.0 - below, 0.0), 1.0)


# xi = int_0^1 |B(t)| dt, the limit in law of the Frosini statistic. Shepp
# (1982): with a'_j the zeros of Ai' and b_j = 2^(-1/3) |a'_j|,
#   E exp(-s xi) = sqrt(2 pi) 2^(-2/3) s^(1/3) sum_j exp(-b_j s^(2/3)) / |a'_j|.
# Inverting E exp(-s xi) / s term by term with g, the one-sided 2/3-stable
# density (Laplace transform exp(-s^(2/3))), gives
#   P(xi <= x) = sqrt(2 pi) 2^(-2/3) sum_j H(x / b_j^(3/2)) / (|a'_j| sqrt(b_j)),
#   H(y) = (2/3) y^(-1/3) int_0^y w^(-2/3) g(w) dw,
#   g(w) = sqrt(3/pi) w^(-1) e^(-z) z^(2/3) U(1/6, 4/3; z),  z = 4 / (27 w^2).
# In z, w^(-2/3) g(w) dw = -K e^(-z) U(1/6, 4/3; z) dz; d/dz [e^(-z) U(a, b; z)]
# = -e^(-z) U(a, b+1; z) (DLMF 13.3.27) makes the integral K e^(-z_y) U(1/6, 1/3; z_y).
_L1_SCALE = np.sqrt(2.0 * np.pi) * 2.0 ** (-2.0 / 3.0)
_L1_K = 1.5 * np.sqrt(3.0 / np.pi) / np.cbrt(4.0)   # K
# w^(-2/3) g(w) < 1e-22 for w below this, so the terms with x / b_j^(3/2)
# below it vanish; dropping them also keeps z finite at x = 0.
_L1_W_MIN = 0.05
# Below this Kolmogorov bound (x > 4.46) the series is skipped.
_L1_SF_MIN = 1e-17


@functools.cache
def _airy_prime_zeros() -> tuple[np.ndarray, np.ndarray]:
    """|a'_j| and b_j, j = 1..32, the zeros polished by one Newton step
    (Ai'' = x Ai): ``ai_zeros`` alone is off by up to 2.5e-13 relative
    (j = 5).  The series needs 27 zeros at x = 4.46, where it is skipped;
    32 reach x = 5.2."""
    from scipy import special
    a = special.ai_zeros(32)[1]
    ai, aip, _, _ = special.airy(a)
    a_abs = -(a - aip / (a * ai))
    return a_abs, a_abs / np.cbrt(2.0)


def _bridge_l1_cdf(x: float) -> float:
    """P(int_0^1 |B(t)| dt <= x) for the Brownian bridge B, to about 1e-15."""
    from scipy import special
    airy_abs, airy_b = _airy_prime_zeros()
    keep = airy_b ** 1.5 < x / _L1_W_MIN
    b, a = airy_b[keep], airy_abs[keep]
    y = x / b ** 1.5
    z = 4.0 / (27.0 * y * y)
    inner = _L1_K * np.exp(-z) * special.hyperu(1.0 / 6.0, 1.0 / 3.0, z)
    return float(_L1_SCALE * np.sum(2.0 / 3.0 * y ** (-1.0 / 3.0) * inner / (a * np.sqrt(b))))


def _bridge_l1_sf(x: float) -> float:
    """P(int_0^1 |B(t)| dt > x), capped by P(sup|B| > x), which bounds it."""
    from scipy import special
    bound = float(special.kolmogorov(x))
    if bound < _L1_SF_MIN:
        return bound
    return min(max(1.0 - _bridge_l1_cdf(x), 0.0), bound)


def _mc_null(kind: str, n: int) -> np.ndarray:
    """Sorted Monte-Carlo null of the ``kind`` statistic at sample size n:
    _MC_REPLICATES uniform samples from the kind's own seed stream, drawn in
    blocks of at most _MC_BLOCK_VALUES values, cached per (kind, n).  The
    generator's uniform stream is sequential, so the block size does not
    change the null."""
    key = (kind, n)
    if key not in _null_cache:
        stream, statistic = _MC_STATISTICS[kind]
        rng = np.random.default_rng([_MC_MASTER_SEED, stream, n])
        stats = np.empty(_MC_REPLICATES)
        block = max(1, _MC_BLOCK_VALUES // n)
        done = 0
        while done < _MC_REPLICATES:
            m = min(block, _MC_REPLICATES - done)
            stats[done:done + m] = statistic(np.sort(rng.uniform(size=(m, n)), axis=1))
            done += m
        _null_cache[key] = np.sort(stats)
    return _null_cache[key]


def _mc_p_value(null_sorted: np.ndarray, observed: float) -> float:
    exceed = null_sorted.size - np.searchsorted(null_sorted, observed, side="left")
    return float((exceed + 1) / (null_sorted.size + 1))


def ks_test_uniform(s: PitSample) -> TestReport:
    """Kolmogorov-Smirnov uniformity test: D_n = sup |F_n(u) - u|.

    Asymptotic Kolmogorov p-value for n > 100; the exact law of D_n otherwise.
    """
    u = np.sort(s.values)
    n = u.size
    if n < 8:
        raise DataError("KS test requires n >= 8")
    d = float(_ks_rows(u))
    if n > _KS_EXACT_MAX_N:
        from scipy import special
        p, null = float(special.kolmogorov(np.sqrt(n) * d)), "asymptotic"
    else:
        p, null = _ks_exact_sf(n, d), "exact"
    return TestReport(statistic=d, p_value=p, method="KS", n=n, null=null)


def neyman_smooth_test(s: PitSample, order: int = 4) -> TestReport:
    """Neyman smooth test of order k with normalized Legendre components.

    N_k^2 = sum_{j=1..k} (n^{-1/2} sum_i pi_j(2 u_i - 1))^2 ~ chi^2_k.
    """
    u = s.values
    n = u.size
    if n < 8:
        raise DataError("Neyman test requires n >= 8")
    if order < 1:
        raise InvalidParameterError("order must be >= 1")
    y = 2.0 * u - 1.0
    stat = 0.0
    for j in range(1, order + 1):
        coeffs = np.zeros(j + 1)
        coeffs[j] = 1.0
        pi_j = np.sqrt(2.0 * j + 1.0) * np.polynomial.legendre.legval(y, coeffs)
        stat += (pi_j.sum() / np.sqrt(n)) ** 2
    from scipy import special
    p = float(special.chdtrc(order, stat))
    return TestReport(statistic=float(stat), p_value=p, method="Neyman", n=n,
                      null="chi-square")


def frosini_test(s: PitSample) -> TestReport:
    """Frosini statistic B_n = n^{-1/2} sum_i |u_(i) - (i - 0.5)/n|.

    For n <= 200 the p-value comes from a Monte-Carlo null (1e5 uniform
    replicates, fixed seed). Above it comes from the limit law of B_n, the L1
    norm int_0^1 |B(t)| dt of the Brownian bridge, whose CDF is a series over
    the zeros of Ai' with closed-form terms (Shepp 1982; Johnson & Killeen
    1983; DLMF 13.3.27). That tail is capped by the Kolmogorov tail, an upper
    bound, and carries an absolute error of about 1e-15 (1.05e-15 against a
    20-digit mpmath table). The crossover is where the two p-values agree
    within Monte-Carlo error.
    """
    u = np.sort(s.values)
    n = u.size
    if n < 8:
        raise DataError("Frosini test requires n >= 8")
    stat = float(_frosini_rows(u))
    if n > _FROSINI_MC_MAX_N:
        p, null = _bridge_l1_sf(stat), "asymptotic"
    else:
        p, null = _mc_p_value(_mc_null("frosini", n), stat), "monte-carlo"
    return TestReport(statistic=stat, p_value=p, method="Frosini", n=n, null=null)


def qq_pp_data(data, cdf, quantile) -> tuple[np.ndarray, np.ndarray]:
    """Q-Q and P-P plot pairs against a fitted model.

    Returns (qq, pp): qq[:, 0] is the model quantile at (i - 0.5)/n and
    qq[:, 1] the sorted datum; pp[:, 0] is (i - 0.5)/n and pp[:, 1] the model
    CDF at the sorted datum.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    probs = (np.arange(1, n + 1) - 0.5) / n
    qq = np.column_stack([np.asarray(quantile(probs), dtype=float), x])
    pp = np.column_stack([probs, np.asarray(cdf(x), dtype=float)])
    return qq, pp

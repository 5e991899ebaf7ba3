"""Goodness-of-fit machinery: probability integral transform, uniformity
tests (Kolmogorov-Smirnov, Neyman smooth, Frosini), and Q-Q / P-P plot data.

Monte-Carlo null distributions (Frosini always; KS for n <= 100) use 1e5
uniform replicates under a fixed master seed and are cached per sample size,
so repeated calls at the same n reuse the null sample.

Note on composite hypotheses: when the tested CDF carries parameters estimated
from the same data, these p-values are conservative (uncorrected); they are
reported as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .errors import DataError, InvalidParameterError

__all__ = [
    "PitSample", "TestReport", "pit",
    "ks_test_uniform", "neyman_smooth_test", "frosini_test", "qq_pp_data",
]

_MC_REPLICATES = 100_000
_MC_MASTER_SEED = 741852963
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
    """Statistic, p-value, and method tag of one uniformity test."""

    statistic: float
    p_value: float
    method: str
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidParameterError("p_value must lie in [0, 1]")


def pit(data, cdf) -> PitSample:
    """Element-wise CDF evaluation; uniform on (0,1) under a correct model."""
    arr = np.asarray(data, dtype=float)
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
_MC_STATISTICS = {"ks": (1, _ks_rows), "frosini": (2, _frosini_rows)}


def _kolmogorov_sf(t: float) -> float:
    """P(sup|B(u)| > t) for the Brownian bridge: 2 sum (-1)^{k-1} e^{-2 k^2 t^2}."""
    if t <= 0.0:
        return 1.0
    total, sign = 0.0, 1.0
    for k in range(1, 101):
        term = np.exp(-2.0 * k * k * t * t)
        total += sign * term
        sign = -sign
        if term < 1e-16:
            break
    return float(min(max(2.0 * total, 0.0), 1.0))


def _mc_null(kind: str, n: int) -> np.ndarray:
    """Sorted Monte-Carlo null of the ``kind`` statistic at sample size n:
    _MC_REPLICATES uniform samples from the kind's own seed stream, drawn in
    blocks of at most 2e7 values, cached per (kind, n)."""
    key = (kind, n)
    if key not in _null_cache:
        stream, statistic = _MC_STATISTICS[kind]
        rng = np.random.default_rng([_MC_MASTER_SEED, stream, n])
        stats = np.empty(_MC_REPLICATES)
        block = max(1, int(2e7) // n)
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

    Asymptotic Kolmogorov p-value for n > 100; Monte-Carlo null otherwise.
    """
    u = np.sort(s.values)
    n = u.size
    if n < 8:
        raise DataError("KS test requires n >= 8")
    d = float(_ks_rows(u))
    if n > 100:
        p = _kolmogorov_sf(np.sqrt(n) * d)
    else:
        p = _mc_p_value(_mc_null("ks", n), d)
    return TestReport(statistic=d, p_value=p, method="KS", n=n)


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
    p = float(chi2.sf(stat, df=order))
    return TestReport(statistic=float(stat), p_value=p, method="Neyman", n=n)


def frosini_test(s: PitSample) -> TestReport:
    """Frosini statistic B_n = n^{-1/2} sum_i |u_(i) - (i - 0.5)/n| with a
    Monte-Carlo p-value (1e5 uniform replicates, fixed seed)."""
    u = np.sort(s.values)
    n = u.size
    if n < 8:
        raise DataError("Frosini test requires n >= 8")
    stat = float(_frosini_rows(u))
    p = _mc_p_value(_mc_null("frosini", n), stat)
    return TestReport(statistic=stat, p_value=p, method="Frosini", n=n)


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

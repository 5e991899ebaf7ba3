"""Scalar special functions: modified Bessel K0 and K1 and the standard normal CDF.

K1 comes from ``scipy.special.k1`` and its exponentially scaled form
``scipy.special.k1e`` (Cephes Chebyshev expansions, ~1e-15 relative error
against the 50-digit quadrature oracle in ``tests/data``), the scaled K0 from
``scipy.special.k0e``.  The wrappers add the domain check scipy leaves out:
for x <= 0 or non-finite x scipy returns inf or nan silently, here
DomainError is raised.

All functions accept floats or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import k0e, k1, k1e, ndtr

from .errors import DomainError

__all__ = ["bessel_k0e", "bessel_k1", "bessel_k1e", "log_bessel_k1", "std_normal_cdf"]


def _validated(x):
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("bessel K requires finite x > 0")
    return arr


def _like(x, out):
    return float(out) if np.ndim(x) == 0 else out


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1; underflows to 0
    together with e^{-x} beyond x ~ 700."""
    return _like(x, k1(_validated(x)))


def bessel_k0e(x):
    """Exponentially scaled K0: e^x K0(x), for the NIG score's K0/K1."""
    return _like(x, k0e(_validated(x)))


def bessel_k1e(x):
    """Exponentially scaled K1: e^x K1(x). Stable for arbitrarily large x."""
    return _like(x, k1e(_validated(x)))


def log_bessel_k1(x):
    """ln K1(x) = ln k1e(x) - x, without intermediate under/overflow."""
    arr = _validated(x)
    return _like(x, np.log(k1e(arr)) - arr)


def std_normal_cdf(x):
    """Standard normal CDF Phi(x), absolute error below 1e-15."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("std_normal_cdf requires non-NaN arguments")
    return _like(x, ndtr(arr))

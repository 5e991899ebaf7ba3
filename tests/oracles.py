"""Independent oracles for the test suite.

These deliberately avoid the library's own code paths: Bessel values come
from high-precision adaptive quadrature of the integral representation,
normal CDF values from the error-function series, and distribution-level
checks from quadrature or Monte-Carlo estimates.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import integrate


def bessel_kn_quadrature(order: int, x: float, dps: int = 30) -> mp.mpf:
    """K_n(x) = int_0^inf e^{-x cosh t} cosh(n t) dt by adaptive quadrature.

    The window is cut where the integrand has decayed by 10^-(dps+8) relative
    to the peak; extra break points at scale 1/sqrt(x) resolve the large-x
    boundary layer.
    """
    with mp.workdps(dps):
        xv = mp.mpf(x)
        lim = (dps + 8) * mp.log(10)
        t_max = mp.acosh(1 + lim / xv)
        s = mp.sqrt(xv)
        pts = sorted({mp.mpf(0)} | {min(t_max, c / s) for c in (mp.mpf("0.5"), 2, 8)}
                     | {t_max / 2, t_max})
        integral = mp.quad(
            lambda t: mp.exp(-xv * (mp.cosh(t) - 1)) * mp.cosh(order * t), pts)
        return mp.exp(-xv) * integral


def bessel_k1_quadrature(x: float, dps: int = 30) -> float:
    return float(bessel_kn_quadrature(1, x, dps))


def std_normal_cdf_series(x: float, dps: int = 30) -> float:
    """Phi(x) = 1/2 + 1/2 erf(x / sqrt 2) with erf from its Maclaurin series."""
    with mp.workdps(dps):
        z = mp.mpf(x) / mp.sqrt(2)
        total = mp.mpf(0)
        term_base = z
        for n in range(0, 400):
            term = term_base / (2 * n + 1)
            total += term
            term_base *= -z * z / (n + 1)
            if abs(term) < mp.mpf(10) ** (-dps - 8) and n > 4:
                break
        erf = 2 / mp.sqrt(mp.pi) * total
        return float(mp.mpf("0.5") * (1 + erf))


def nig_log_pdf_mp(mu: float, alpha: float, beta: float, delta: float,
                   x: float, dps: int = 60) -> float:
    """NIG log-density in mpmath arithmetic at the given float parameters:
    ln(alpha delta/pi) + delta gamma + beta r - ln q + ln K1(alpha q)."""
    with mp.workdps(dps):
        a, b, d = mp.mpf(alpha), mp.mpf(beta), mp.mpf(delta)
        r = mp.mpf(x) - mp.mpf(mu)
        q = mp.sqrt(d * d + r * r)
        g = mp.sqrt((a - b) * (a + b))
        return float(mp.log(a * d / mp.pi) + d * g + b * r - mp.log(q)
                     + mp.log(mp.besselk(1, a * q)))


def nig_edge_derivative_mp(x: np.ndarray, mean: float, sd: float, pos: float, neg: float,
                           dps: int = 50) -> float:
    """One-sided derivative of the summed NIG log-likelihood at the
    inverse-Gaussian edge point (mean, sd, pos, neg) of ``NigShape`` (one of
    pos, neg is 0), along its zero skew coordinate into the shape triangle:
    ``mp.diff`` of the interior log-likelihood at that coordinate 7e-7 c and
    7e-8 c, c the nonzero one, extrapolated linearly to 0."""
    with mp.workdps(dps):
        xs = [mp.mpf(float(v)) for v in x]
        m, s, c = mp.mpf(mean), mp.mpf(sd), mp.mpf(pos or neg)

        def loglik(h):
            a, b = (c, h) if pos else (h, c)
            alpha, beta = (a + b) / (4 * s * a * b), (a - b) / (4 * s * a * b)
            delta = 2 * s * mp.sqrt(a * b) / (a + b) ** 2
            mu = m - s * (a - b) / (a + b) ** 2
            g = mp.sqrt((alpha - beta) * (alpha + beta))
            total = mp.mpf(0)
            for xv in xs:
                q = mp.sqrt(delta ** 2 + (xv - mu) ** 2)
                total += (mp.log(alpha * delta / mp.pi) + delta * g + beta * (xv - mu)
                          - mp.log(q) + mp.log(mp.besselk(1, alpha * q)))
            return total

        h1, h2 = 7e-7 * c, 7e-8 * c
        d1, d2 = mp.diff(loglik, h1), mp.diff(loglik, h2)
        return float(d2 - (d1 - d2) * h2 / (h1 - h2))


def nig_chf_mp(mu: float, alpha: float, beta: float, delta: float,
               t: float, dps: int = 50) -> complex:
    """NIG characteristic function in mpmath arithmetic at the given float
    parameters: exp(i mu t + delta (gamma - sqrt(alpha^2 - (beta + i t)^2)))."""
    with mp.workdps(dps):
        a, b, d, tt = mp.mpf(alpha), mp.mpf(beta), mp.mpf(delta), mp.mpf(t)
        g = mp.sqrt((a - b) * (a + b))
        return complex(mp.exp(1j * mp.mpf(mu) * tt
                              + d * (g - mp.sqrt(a * a - (b + 1j * tt) ** 2))))


def frosini_asymptotic_cdf_mp(x: float, dps: int = 20) -> mp.mpf:
    """P(xi <= x) for xi = int_0^1 |B(t)| dt of the Brownian bridge, in mpmath
    arithmetic: the Airy-zero series of Shepp's Laplace transform,
    sqrt(2 pi) 2^(-2/3) sum_j H(x / b_j^(3/2)) / (|a'_j| sqrt b_j) with
    b_j = 2^(-1/3) |a'_j|, H(y) = (2/3) y^(-1/3) int_0^y w^(-2/3) g(w) dw and g
    the one-sided 2/3-stable density written with Tricomi's U.

    The integrand is below 10^-(dps+10) for w < w0, so each integral starts
    at w0 and the series ends at the first term whose upper limit is below it.
    """
    with mp.workdps(dps + 10):
        third = mp.mpf(1) / 3
        xv = mp.mpf(x)
        w0 = mp.sqrt(4 / (27 * (dps + 10) * mp.log(10)))

        def integrand(w):
            z = 4 / (27 * w * w)
            return (mp.sqrt(3 / mp.pi) * w ** (-5 * third) * mp.exp(-z) * z ** (2 * third)
                    * mp.hyperu(third / 2, 4 * third, z))

        total = mp.mpf(0)
        j = 1
        while True:
            ap = -mp.airyaizero(j, derivative=1)
            b = ap / mp.cbrt(2)
            y = xv / b ** mp.mpf(1.5)
            if y <= w0:
                break
            total += 2 * third * y ** (-third) * mp.quad(integrand, [w0, y]) / (ap * mp.sqrt(b))
            j += 1
        return +(mp.sqrt(2 * mp.pi) * mp.mpf(2) ** (-2 * third) * total)


def normal_log_likelihood(data: np.ndarray, p) -> float:
    """Normal log-likelihood of ``data`` under N(p.mu, p.sigma^2), summed over
    the points."""
    arr = np.asarray(data, dtype=float)
    n = arr.size
    return float(-0.5 * n * np.log(2.0 * np.pi * p.sigma ** 2)
                 - 0.5 * np.sum((arr - p.mu) ** 2) / p.sigma ** 2)


_DOUBLE_IG_ABS_TOL = 1e-8   # double_ig_pdf: bound on the summed quadrature error


def double_ig_pdf(p, x: float) -> float:
    """Density at x > 0 of the doubly subordinated IG clock V(1) = T(U(1)) of
    ``p`` (a ``DoubleIgParams``) by adaptive quadrature of the mixture integral

        f(x) = (1/2pi) sqrt(lam_T lam_U / x^3)
               * int_0^inf u^{-1/2} exp(-lam_T (x - mu_T u)^2 / (2 mu_T^2 x)
                                        - lam_U (u - mu_U)^2 / (2 mu_U^2 u)) du.

    Raises RuntimeError when the summed quadrature error estimate exceeds
    _DOUBLE_IG_ABS_TOL.
    """
    if x <= 0.0:
        raise ValueError("doubly subordinated IG density requires x > 0")
    lt, mt = p.outer.lam, p.outer.mu
    lu, mu_ = p.inner.lam, p.inner.mu
    prefactor = math.sqrt(lt * lu / x ** 3) / (2.0 * math.pi)

    def integrand(u):
        expo = (-lt * (x - mt * u) ** 2 / (2.0 * mt * mt * x)
                - lu * (u - mu_) ** 2 / (2.0 * mu_ * mu_ * u))
        return prefactor * math.exp(expo) / math.sqrt(u) if expo > -745.0 else 0.0

    # Breakpoints near both factor peaks keep quad from missing narrow modes.
    peak_t = x / mt
    width_t = math.sqrt(mt * x / lt) / mt
    width_u = math.sqrt(mu_ ** 3 / lu)
    pts = sorted({max(v, 1e-300) for v in (
        peak_t - 4 * width_t, peak_t, peak_t + 4 * width_t,
        mu_ - 4 * width_u, mu_, mu_ + 4 * width_u)})
    hi = max(peak_t + 12 * width_t, mu_ + 12 * width_u, 1.0)
    segments = [0.0] + [v for v in pts if 0.0 < v < hi] + [hi]

    seg_tol = 0.1 * _DOUBLE_IG_ABS_TOL / len(segments)
    total, err_total = 0.0, 0.0
    for a, b in zip(segments[:-1], segments[1:]):
        val, err = integrate.quad(integrand, a, b, epsabs=seg_tol, epsrel=1e-10,
                                  limit=200)
        total += val
        err_total += err
    tail, tail_err = integrate.quad(integrand, hi, np.inf, epsabs=seg_tol, limit=200)
    total += tail
    err_total += tail_err

    if err_total > _DOUBLE_IG_ABS_TOL:
        raise RuntimeError(
            f"doubly subordinated IG density quadrature error {err_total:.3g} "
            f"exceeds {_DOUBLE_IG_ABS_TOL} at x = {x}")
    return total


def quadrature_cdf(pdf, lower: float, grid: np.ndarray) -> np.ndarray:
    """Cumulative quadrature of a density over successive grid segments."""
    out = np.empty(grid.size)
    total = 0.0
    prev = lower
    for i, g in enumerate(grid):
        seg, _ = integrate.quad(pdf, prev, g, limit=200)
        total += seg
        out[i] = total
        prev = g
    return out


def mc_mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x, float)),
                            np.log(np.asarray(y, float)), 1)[0])

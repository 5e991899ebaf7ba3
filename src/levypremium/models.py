"""Parameter types, densities, transforms, and samplers for the heavy-tailed
growth-rate models: normal, inverse Gaussian (IG), normal inverse Gaussian
(NIG), the doubly subordinated IG clock, and the normal compound inverse
Gaussian (NCIG) law built on that clock.

Conventions used throughout:

* An IG Lévy subordinator with T(1) ~ IG(lam, mu) has T(t) ~ IG(lam t^2, mu t);
  this is the unique scaling compatible with e^{-t phi(s)} for the Laplace
  exponent phi(s) = -(lam/mu)(1 - sqrt(1 + 2 mu^2 s / lam)).
* Lévy exponent psi(u) = -ln E[e^{iuX(1)}]; all complex square roots are
  principal-branch.  For the NCIG nesting both radicands have real part >= 1
  for real u, so the branch cut is never crossed (checked, DomainError).
* The doubly subordinated clock is V(t) = T(U(t)) with the *outer* process T
  evaluated at the *inner* process U's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, QuadratureError
from .special import bessel_k0e, bessel_k1e

__all__ = [
    "NigParams", "NigShape", "IgParams", "DoubleIgParams", "NcigParams", "NormalParams",
    "Moments",
    "nig_log_pdf", "nig_shape_log_pdf", "nig_pdf", "nig_chf", "nig_mgf_log", "nig_moments",
    "ig_pdf", "ig_laplace_exponent",
    "double_ig_mgf_log", "double_ig_pdf", "double_ig_cumulants",
    "ncig_levy_exponent", "ncig_chf", "ncig_mgf_log", "ncig_cumulants",
    "ncig_moments",
    "ig_sample", "nig_sample", "double_ig_sample", "ncig_sample",
]


_EDGE_STEP = 1e-3   # one-sided difference step off an edge, relative to the other coordinate


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameterError(msg)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class NigParams:
    """NIG parameters (mu, alpha, beta, delta); requires alpha > |beta|, a finite
    gamma > 0 and delta > 0."""

    mu: float
    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        _require(_finite(self.mu, self.alpha, self.beta, self.delta),
                 "NIG parameters must be finite")
        _require(self.alpha > abs(self.beta) and 0.0 < self.gamma < math.inf,   # gamma may under/overflow
                 f"NIG requires alpha > |beta| and a finite gamma > 0 "
                 f"(alpha={self.alpha}, beta={self.beta})")
        _require(self.delta > 0.0, f"NIG requires delta > 0 (got {self.delta})")

    @property
    def gamma(self) -> float:
        """Steepness sqrt(alpha^2 - beta^2), in the factored form that keeps
        the MGF boundary identities exact."""
        return math.sqrt((self.alpha - self.beta) * (self.alpha + self.beta))


@dataclass(frozen=True)
class NigShape:
    """The closed NIG family in location, scale and shape-triangle coordinates.

    ``mean`` and ``sd`` are the law's mean and standard deviation.  With
    Barndorff-Nielsen's shape triangle xi = (1 + delta*gamma)^(-1/2),
    chi = xi*beta/alpha, 0 <= |chi| <= xi < 1, the skew coordinates are

        pos, neg = (xi + chi) / (2 sqrt(1 - xi^2)), (xi - chi) / (2 sqrt(1 - xi^2)),

    so skewness = 3 (pos - neg), excess kurtosis = 3 (pos + neg)^2 + 12 (pos - neg)^2,
    and alpha - beta = 1 / (2 sd pos), alpha + beta = 1 / (2 sd neg).  pos and
    neg are >= 0, and the triangle's boundary lies at finite points:

    * pos = neg = 0: the normal law N(mean, sd^2) (alpha -> inf);
    * neg = 0 < pos: the edge beta -> alpha, a shifted inverse-Gaussian law,
      X = mean - sd/pos + Y with Y ~ IG(mean sd/pos, shape sd/pos^3);
    * pos = 0 < neg: its mirror image beta -> -alpha, X = mean + sd/neg - Y.
    """

    mean: float
    sd: float
    pos: float
    neg: float

    def __post_init__(self):
        _require(_finite(self.mean, self.sd, self.pos, self.neg),
                 "NIG shape coordinates must be finite")
        _require(self.sd > 0.0, f"NIG shape requires sd > 0 (got {self.sd})")
        _require(self.pos >= 0.0 and self.neg >= 0.0,
                 f"NIG shape requires pos, neg >= 0 (got {self.pos}, {self.neg})")

    @classmethod
    def from_params(cls, p: NigParams) -> "NigShape":
        g = p.gamma
        sd = p.alpha * math.sqrt(p.delta / g) / g
        return cls(mean=p.mu + p.delta * p.beta / g, sd=sd,
                   pos=0.5 / (sd * (p.alpha - p.beta)), neg=0.5 / (sd * (p.alpha + p.beta)))

    @property
    def boundary(self) -> str | None:
        """``"normal limit"`` or ``"inverse-Gaussian edge"`` on the boundary, else None."""
        if self.pos == 0.0 and self.neg == 0.0:
            return "normal limit"
        return "inverse-Gaussian edge" if self.pos == 0.0 or self.neg == 0.0 else None

    def params(self) -> NigParams:
        """NIG parameters of an interior point (InvalidParameterError on the boundary)."""
        a, b, sd = self.pos, self.neg, self.sd
        _require(a > 0.0 and b > 0.0, "the boundary of the NIG family has no NIG parameters")
        apb = a + b
        return NigParams(mu=self.mean - sd * (a - b) / apb ** 2,
                         alpha=apb / (4.0 * sd * a * b), beta=(a - b) / (4.0 * sd * a * b),
                         delta=2.0 * sd * math.sqrt(a * b) / apb ** 2)


@dataclass(frozen=True)
class IgParams:
    """Inverse Gaussian shape/mean pair (lam, mu), both positive."""

    lam: float
    mu: float

    def __post_init__(self):
        _require(_finite(self.lam, self.mu), "IG parameters must be finite")
        _require(self.lam > 0.0, f"IG requires lam > 0 (got {self.lam})")
        _require(self.mu > 0.0, f"IG requires mu > 0 (got {self.mu})")


@dataclass(frozen=True)
class DoubleIgParams:
    """Doubly subordinated IG clock V(t) = T(U(t)): outer = T, inner = U."""

    outer: IgParams
    inner: IgParams

    def __post_init__(self):
        _require(isinstance(self.outer, IgParams) and isinstance(self.inner, IgParams),
                 "DoubleIgParams components must be IgParams")


@dataclass(frozen=True)
class NcigParams:
    """NCIG parameters: subordinator (lam, mu) shared by both IG levels,
    Brownian drift nu and variance sigma2."""

    lam: float
    mu: float
    nu: float
    sigma2: float

    def __post_init__(self):
        _require(_finite(self.lam, self.mu, self.nu, self.sigma2),
                 "NCIG parameters must be finite")
        _require(self.lam > 0.0, f"NCIG requires lam > 0 (got {self.lam})")
        _require(self.mu > 0.0, f"NCIG requires mu > 0 (got {self.mu})")
        _require(self.sigma2 > 0.0, f"NCIG requires sigma2 > 0 (got {self.sigma2})")

    @property
    def clock(self) -> DoubleIgParams:
        level = IgParams(self.lam, self.mu)
        return DoubleIgParams(outer=level, inner=level)


@dataclass(frozen=True)
class NormalParams:
    """Normal mean/standard-deviation pair."""

    mu: float
    sigma: float

    def __post_init__(self):
        _require(_finite(self.mu, self.sigma), "normal parameters must be finite")
        _require(self.sigma > 0.0, f"normal requires sigma > 0 (got {self.sigma})")


@dataclass(frozen=True)
class Moments:
    """First four standardized moments of a distribution."""

    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float

    def __post_init__(self):
        _require(self.variance > 0.0, f"variance must be positive (got {self.variance})")


# ---------------------------------------------------------------------------
# NIG
# ---------------------------------------------------------------------------

def _nig_log_pdf_core(r, alpha, beta, delta, gamma, slack, dev):
    """NIG log-density at offsets r = x - mu, given two quantities that each
    caller forms without cancellation: slack = alpha - |beta| and
    dev = delta*beta - gamma*r.

    The exponent delta*gamma + beta*r - alpha*q, q = sqrt(delta^2 + r^2), is
    the single fraction -dev^2 / (alpha*q + beta*r + delta*gamma), and the
    denominator is a sum of nonnegative terms,
        alpha*q + beta*r = alpha*delta^2/(q + |r|) + slack*|r| + 2*max(beta*r, 0),
    so the density stays accurate as alpha -> inf, also with |beta| -> alpha.
    Returns the log-density with q and K1e(alpha*q), which the score reuses.
    """
    q = np.hypot(delta, r)
    omega = alpha * q
    abs_r = np.abs(r)
    denom = (alpha * delta * delta / (q + abs_r) + slack * abs_r
             + 2.0 * np.maximum(beta * r, 0.0) + delta * gamma)
    # log K1(omega) = log K1e(omega) - omega
    k1e = bessel_k1e(omega)
    return (math.log(alpha * delta / math.pi) - np.log(q)
            + np.log(k1e) - dev * dev / denom), q, k1e


def nig_log_pdf(p: NigParams, x):
    """Log-density of NIG(mu, alpha, beta, delta) at x (scalar or array).

    Free of cancellation for arbitrarily large alpha, in the near-normal
    regime and towards the inverse-Gaussian edge |beta| -> alpha alike.
    """
    r = np.asarray(x, dtype=float) - p.mu
    g = p.gamma
    out = _nig_log_pdf_core(r, p.alpha, p.beta, p.delta, g,
                            slack=p.alpha - abs(p.beta), dev=p.delta * p.beta - g * r)[0]
    return float(out) if np.ndim(x) == 0 else out


def _on_boundary(s: NigShape) -> bool:
    """Whether ``nig_shape_log_pdf`` evaluates ``s`` by its boundary law."""
    lo, hi = sorted((s.pos, s.neg))
    return lo <= 1e-12 * hi or hi <= 1e-100


def _boundary_log_pdf(s: NigShape, d):
    """Log-density of the boundary law of ``s`` at offsets d = x - mean, and t.

    X = mean + sd (Y' - 1)/k for a unit-mean IG Y' of skewness 3|k|,
    k = pos - neg, and t = 1 + k d/sd; at k = 0 this is the normal law (t = 1).
    """
    t = 1.0 + (s.pos - s.neg) * d / s.sd
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (-0.5 * math.log(2.0 * math.pi * s.sd * s.sd) - 1.5 * np.log(t)
               - d * d / (2.0 * s.sd * s.sd * t))
    return np.where(t > 0.0, out, -np.inf), t


def _interior_log_pdf(s: NigShape, d):
    """NIG log-density of an interior ``s`` at offsets d = x - mean, with its
    parameters, r = x - mu, q and K1e(alpha*q)."""
    p = s.params()
    root = math.sqrt(s.pos * s.neg)
    r = d + (s.mean - p.mu)
    out, q, k1e = _nig_log_pdf_core(r, p.alpha, p.beta, p.delta,
                                    gamma=0.5 / (s.sd * root),
                                    slack=0.5 / (s.sd * max(s.pos, s.neg)),
                                    dev=-d / (2.0 * s.sd * root))
    return out, p, r, q, k1e


def nig_shape_log_pdf(s: NigShape, x):
    """Log-density at x (scalar or array) of the closed NIG family's member
    ``s``: the NIG law inside the shape triangle, the inverse-Gaussian edge
    law or the normal law on its boundary.

    A skew coordinate below 1e-12 times the other, or both below 1e-100,
    counts as 0: the NIG law there differs from the boundary law by terms of
    that relative order, and its parameters overflow further in.
    """
    d = np.asarray(x, dtype=float) - s.mean
    out = (_boundary_log_pdf if _on_boundary(s) else _interior_log_pdf)(s, d)[0]
    return float(out) if np.ndim(x) == 0 else out


def _nig_shape_log_lik_score(s: NigShape, x: np.ndarray) -> tuple[float, np.ndarray]:
    """The log-likelihood sum(nig_shape_log_pdf(s, x)) and its gradient in
    (mean, ln sd, pos, neg).

    Inside the triangle the score is closed form.  NIG is the normal
    variance-mean mixture of N(mu + beta V, V) over an inverse-Gaussian V of
    mean delta/gamma and shape delta^2, so per point the score is the
    conditional mean of the complete-data score.
    With r = x - mu, q = sqrt(delta^2 + r^2) and R = K0(alpha q)/K1(alpha q)
    (from d/dz ln K1(z) = -K0(z)/K1(z) - 1/z, DLMF 10.29.2), E[V | x] = q R/alpha
    and E[1/V | x] = alpha R/q + 2/q^2, and the score of (delta, gamma, beta, mu)
    is (1/delta + gamma - delta E[1/V | x], delta - gamma E[V | x],
    r - beta E[V | x], r E[1/V | x] - beta).  It is chained through
    ``NigShape.params``, with 1 - R from ``_k0_k1_gap``.  On the boundary the
    derivatives along mean, ln sd and a nonzero skew coordinate are the
    boundary law's.  A zero skew coordinate gets its one-sided derivative
    into the triangle: at the normal corner the boundary law's
    +-(1/2) sum H3(u), u = (x - mean)/sd, in closed form; on an edge a
    Richardson-extrapolated forward difference.  Where x leaves an edge
    law's support the sum is -inf and the gradient 0.
    """
    d = x - s.mean
    a, b, sd = s.pos, s.neg, s.sd
    if _on_boundary(s):
        out, t = _boundary_log_pdf(s, d)
        total = float(np.sum(out))
        if not np.all(t > 0.0):
            return -np.inf, np.zeros(4)
        u = d / sd
        dmean = (1.5 * (a - b) + u - (a - b) * u * u / (2.0 * t)) / (sd * t)
        dk = float(np.sum(u * (u * u / (2.0 * t) - 1.5) / t))
        grad = np.array([float(np.sum(dmean)), float(np.sum(d * dmean)) - x.size, dk, -dk])
        if max(a, b) > 1e-100:
            # D(h) = (f(h) - f(0))/h is f'(0) + O(h); 2 D(h/2) - D(h) is O(h^2).
            zero = 3 if a > b else 2
            h = _EDGE_STEP * max(a, b)
            step = [np.sum(nig_shape_log_pdf(NigShape(s.mean, sd, *(
                (a, hh) if zero == 3 else (hh, b))), x)) - total for hh in (h, 0.5 * h)]
            grad[zero] = (4.0 * step[1] - step[0]) / h
        return total, grad
    out, p, r, q, k1e = _interior_log_pdf(s, d)
    up, down = 0.5 / (sd * a), 0.5 / (sd * b)          # alpha - beta, alpha + beta
    dd = p.delta * p.delta
    qgap = q * _k0_k1_gap(p.alpha * q, k1e)            # q (1 - R)
    near = dd / (q + np.abs(r))
    plus = near + 2.0 * np.maximum(r, 0.0)             # q + r
    minus = near + 2.0 * np.maximum(-r, 0.0)           # q - r
    e1 = dd * (p.alpha * (q - qgap) + 2.0) / (q * q)   # delta^2 E[1/V | x]
    # dl/dmu = r E[1/V | x] - beta, with alpha r/q - beta = (up (q + r) - down (q - r))/(2 q).
    s_mu = ((up * plus - down * minus) / 2.0 - p.alpha * r * qgap / q + 2.0 * r / q) / q
    # The terms of order 1/pos in the chain, collected into P_pos/(2 pos),
    # with P_pos formed from terms that stay bounded as pos -> 0 (likewise
    # for neg), so neither edge is approached by cancellation.
    shared = 1.0 + dd * (p.alpha * qgap - 2.0) / (q * q)
    p_pos = shared - up * qgap + (up * plus * plus - down * dd) / (2.0 * q)
    p_neg = shared - down * qgap + (down * minus * minus - up * dd) / (2.0 * q)
    sa, total_mu = a + b, float(np.sum(s_mu))
    common = -2.0 / sa * float(np.sum(1.0 + 1.0 / (sa * sa) - e1))
    grad = np.array([
        total_mu,
        float(np.sum(d * s_mu)) - x.size,
        float(np.sum(p_pos)) / (2.0 * a) + common - total_mu * sd * (3.0 * b - a) / sa ** 3,
        float(np.sum(p_neg)) / (2.0 * b) + common + total_mu * sd * (3.0 * a - b) / sa ** 3])
    return float(np.sum(out)), grad


def _k0_k1_gap(z, k1e):
    """1 - K0(z)/K1(z), given k1e = K1e(z), to 1e-13 relative: directly below
    z = 1e3, above it from the Hankel expansions of K0 and K1 (DLMF 10.40.2)
    to five terms, differenced term by term, so it does not cancel."""
    gap = np.empty_like(z)
    small = z < 1e3
    gap[small] = 1.0 - bessel_k0e(z[small]) / k1e[small]
    w = 1.0 / z[~small]
    c0 = c1 = power = k1_series = 1.0
    diff = 0.0
    for k in range(1, 6):
        c0 *= -(2 * k - 1) ** 2 / (8.0 * k)
        c1 *= (4 - (2 * k - 1) ** 2) / (8.0 * k)
        power = power * w
        k1_series = k1_series + c1 * power
        diff = diff + (c1 - c0) * power
    gap[~small] = diff / k1_series
    return gap


def nig_pdf(p: NigParams, x):
    """NIG density at x."""
    return np.exp(nig_log_pdf(p, x))


def nig_chf(p: NigParams, t):
    """NIG characteristic function exp(i mu t + delta(gamma - sqrt(alpha^2-(beta+it)^2))).

    The radicand is taken in the factored form (alpha-beta-it)(alpha+beta+it),
    which keeps its gamma^2 part exact for alpha >> gamma.
    """
    tt = np.asarray(t, dtype=complex)
    root = np.sqrt((p.alpha - p.beta - 1j * tt) * (p.alpha + p.beta + 1j * tt))
    out = np.exp(1j * p.mu * tt + p.delta * (p.gamma - root))
    return complex(out) if np.ndim(t) == 0 else out


def nig_mgf_log(p: NigParams, s: float) -> float:
    """ln E[e^{sX}] for X ~ NIG(p); defined only while (beta+s)^2 < alpha^2.

    The radicand is evaluated in the factored form (alpha-beta-s)(alpha+beta+s),
    which stays well conditioned near the feasibility boundary.
    """
    rad = (p.alpha - p.beta - s) * (p.alpha + p.beta + s)
    if rad < 0.0:
        raise DomainError(
            "MGF argument outside NIG feasibility region: "
            f"(beta + s)^2 >= alpha^2 = {p.alpha ** 2:.6g} at s = {s}")
    return p.mu * s + p.delta * (p.gamma - math.sqrt(rad))


def nig_moments(p: NigParams) -> Moments:
    """Mean, variance, skewness, excess kurtosis of NIG(p)."""
    g = p.gamma
    return Moments(
        mean=p.mu + p.delta * p.beta / g,
        variance=p.delta * p.alpha ** 2 / g ** 3,
        skewness=3.0 * p.beta / (p.alpha * math.sqrt(p.delta * g)),
        excess_kurtosis=3.0 * (1.0 + 4.0 * p.beta ** 2 / p.alpha ** 2) / (p.delta * g),
    )


# ---------------------------------------------------------------------------
# IG and the doubly subordinated clock
# ---------------------------------------------------------------------------

def ig_pdf(p: IgParams, x):
    """IG(lam, mu) density sqrt(lam/(2 pi x^3)) exp(-lam (x-mu)^2 / (2 mu^2 x)); x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("IG density requires x > 0")
    out = np.sqrt(p.lam / (2.0 * np.pi * arr ** 3)) * np.exp(
        -p.lam * (arr - p.mu) ** 2 / (2.0 * p.mu ** 2 * arr))
    return float(out) if np.ndim(x) == 0 else out


def ig_laplace_exponent(p: IgParams, s) -> float:
    """Laplace exponent phi(s) = -ln E[e^{-s T(1)}] = -(lam/mu)(1 - sqrt(1 + 2 mu^2 s / lam))."""
    arr = np.asarray(s, dtype=float)
    rad = 1.0 + 2.0 * p.mu ** 2 * arr / p.lam
    if np.any(rad < 0.0):
        raise DomainError("IG Laplace exponent: radicand negative (s too negative)")
    out = -(p.lam / p.mu) * (1.0 - np.sqrt(rad))
    return float(out) if np.ndim(s) == 0 else out


def _clock_mgf_log(lt: float, mt: float, lu: float, mu_: float, v):
    """ln E[e^{v V(1)}] of the clock V = T(U), T(1) ~ IG(lt, mt) and
    U(1) ~ IG(lu, mu_), for real or complex v, scalar or array:

        (lam_U/mu_U)(1 - sqrt(1 - 2 k (1 - sqrt(1 - (2 mu_T^2/lam_T) v)))),
        k = mu_U^2 lam_T / (lam_U mu_T).

    Both roots take the principal branch.  A radicand whose real part is
    negative raises DomainError naming its level: for real v it lies outside
    the MGF domain; for complex v it has left the half-plane Re >= 0 that
    keeps the root clear of the branch cut.
    """
    inner = 1.0 - (2.0 * mt ** 2 / lt) * v
    _check_radicand(inner, "inner", v)
    # k in this order is exactly mu_U when both levels are equal (NCIG).
    outer = 1.0 - 2.0 * (mu_ * (mu_ / mt) * (lt / lu)) * (1.0 - np.sqrt(inner))
    _check_radicand(outer, "outer", v)
    return (lu / mu_) * (1.0 - np.sqrt(outer))


def _check_radicand(rad, level: str, v) -> None:
    bad = rad.real < 0.0
    if np.count_nonzero(bad):
        first = np.flatnonzero(bad)[0]
        raise DomainError(
            f"nested radicand negative at {level} level: "
            f"{np.ravel(rad)[first]:.6g} at clock argument v = {np.ravel(v)[first]:.6g}")


def double_ig_mgf_log(p: DoubleIgParams, v: float) -> float:
    """ln E[e^{v V(1)}] for the clock V = T(U); domain enforced on both radicands."""
    return float(_clock_mgf_log(p.outer.lam, p.outer.mu, p.inner.lam, p.inner.mu, v))


def double_ig_cumulants(p: DoubleIgParams) -> tuple[float, float, float, float]:
    """First four cumulants of V(1) = T(U(1)) by Faà di Bruno composition of
    the IG cumulants (t_n for T(1), u_n for U(1))."""
    t1, t2, t3, t4 = _ig_cumulants(p.outer)
    u1, u2, u3, u4 = _ig_cumulants(p.inner)
    c1 = u1 * t1
    c2 = u2 * t1 ** 2 + u1 * t2
    c3 = u3 * t1 ** 3 + 3.0 * u2 * t1 * t2 + u1 * t3
    c4 = (u4 * t1 ** 4 + 6.0 * u3 * t1 ** 2 * t2
          + u2 * (3.0 * t2 ** 2 + 4.0 * t1 * t3) + u1 * t4)
    return c1, c2, c3, c4


def _ig_cumulants(p: IgParams) -> tuple[float, float, float, float]:
    m, l = p.mu, p.lam
    return m, m ** 3 / l, 3.0 * m ** 5 / l ** 2, 15.0 * m ** 7 / l ** 3


_DOUBLE_IG_ABS_TOL = 1e-8   # double_ig_pdf: bound on the summed quadrature error


def double_ig_pdf(p: DoubleIgParams, x: float) -> float:
    """Density of V(1) at x > 0 by adaptive quadrature of the mixture integral

        f(x) = (1/2pi) sqrt(lam_T lam_U / x^3)
               * int_0^inf u^{-1/2} exp(-lam_T (x - mu_T u)^2 / (2 mu_T^2 x)
                                        - lam_U (u - mu_U)^2 / (2 mu_U^2 u)) du.

    This is an oracle-grade routine (scalar x), not a hot path.
    """
    from scipy import integrate
    if x <= 0.0:
        raise DomainError("doubly subordinated IG density requires x > 0")
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
        raise QuadratureError(
            f"doubly subordinated IG density quadrature error {err_total:.3g} "
            f"exceeds {_DOUBLE_IG_ABS_TOL} at x = {x}")
    return total


# ---------------------------------------------------------------------------
# NCIG
# ---------------------------------------------------------------------------

def _brownian_exponent(p: NcigParams, u):
    """i u nu - sigma^2 u^2 / 2 at complex u."""
    uu = np.asarray(u, dtype=complex)
    return 1j * uu * p.nu - 0.5 * p.sigma2 * uu * uu


def ncig_levy_exponent(p: NcigParams, u):
    """Lévy exponent psi_Z(u) = -(lam/mu)(1 - sqrt(1 - 2mu(1 - sqrt(1 - (2mu^2/lam)(iu nu - sigma^2 u^2/2)))))."""
    out = -_clock_mgf_log(p.lam, p.mu, p.lam, p.mu, _brownian_exponent(p, u))
    return complex(out) if np.ndim(u) == 0 else out


def ncig_chf(p: NcigParams, u):
    """Characteristic function of Z(1): exp((lam/mu)(1 - sqrt(1 - 2mu(1 - sqrt(1 - (2mu^2/lam)(iu nu - sigma^2 u^2/2))))))."""
    out = np.exp(_clock_mgf_log(p.lam, p.mu, p.lam, p.mu, _brownian_exponent(p, u)))
    return complex(out) if np.ndim(u) == 0 else out


def ncig_mgf_log(p: NcigParams, s: float) -> float:
    """ln E[e^{s Z(1)}] = ln E[e^{q V(1)}] at q = s nu + sigma^2 s^2 / 2;
    feasibility is checked directly on both nested radicands."""
    return float(_clock_mgf_log(p.lam, p.mu, p.lam, p.mu, s * p.nu + 0.5 * p.sigma2 * s * s))


def ncig_cumulants(p: NcigParams) -> tuple[float, float, float, float]:
    """First four cumulants of Z(1) = B^{nu, sigma2}(V(1)).

    With h(s) = nu s + sigma^2 s^2 / 2 the cumulant function is K_V(h(s)), so
    k1 = nu c1, k2 = nu^2 c2 + sigma^2 c1, k3 = nu^3 c3 + 3 nu sigma^2 c2,
    k4 = nu^4 c4 + 6 nu^2 sigma^2 c3 + 3 sigma^4 c2 for clock cumulants c_n.
    """
    c1, c2, c3, c4 = double_ig_cumulants(p.clock)
    nu, s2 = p.nu, p.sigma2
    k1 = nu * c1
    k2 = nu ** 2 * c2 + s2 * c1
    k3 = nu ** 3 * c3 + 3.0 * nu * s2 * c2
    k4 = nu ** 4 * c4 + 6.0 * nu ** 2 * s2 * c3 + 3.0 * s2 ** 2 * c2
    return k1, k2, k3, k4


def ncig_moments(p: NcigParams) -> Moments:
    """Mean/variance/skewness/excess-kurtosis summary of Z(1)."""
    k1, k2, k3, k4 = ncig_cumulants(p)
    return Moments(mean=k1, variance=k2,
                   skewness=k3 / k2 ** 1.5, excess_kurtosis=k4 / k2 ** 2)


# ---------------------------------------------------------------------------
# Samplers (deterministic per seed; one generator per call; n >= 0)
# ---------------------------------------------------------------------------

def _rng(n: int, seed: int) -> np.random.Generator:
    """The generator of one sampler call, after checking n >= 0."""
    _require(n >= 0, f"sample size must be >= 0 (got {n})")
    return np.random.default_rng(seed)


def _ig_draw(rng: np.random.Generator, lam, mu, n: int) -> np.ndarray:
    """n IG draws via the transform-with-rejection method: one chi-square
    variate, one uniform, standard two-root selection.  lam/mu may be arrays
    (per-draw parameters)."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n,))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (n,))
    y = rng.standard_normal(n) ** 2
    muy = mu * y
    x = mu + mu * muy / (2.0 * lam) - (mu / (2.0 * lam)) * np.sqrt(
        4.0 * lam * muy + muy * muy)
    u = rng.uniform(size=n)
    return np.where(u <= mu / (mu + x), x, mu * mu / x)


def ig_sample(p: IgParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. IG(lam, mu) variates; identical output for identical seed."""
    return _ig_draw(_rng(n, seed), p.lam, p.mu, n)


def _double_ig_draw(rng: np.random.Generator, p: DoubleIgParams, n: int) -> np.ndarray:
    inner = _ig_draw(rng, p.inner.lam, p.inner.mu, n)          # U(1)
    # T evaluated at elapsed time v: T(v) ~ IG(lam_T v^2, mu_T v)
    return _ig_draw(rng, p.outer.lam * inner ** 2, p.outer.mu * inner, n)


def double_ig_sample(p: DoubleIgParams, n: int, seed: int) -> np.ndarray:
    """n draws of the compound clock V(1) = T(U(1))."""
    return _double_ig_draw(_rng(n, seed), p, n)


def ncig_sample(p: NcigParams, n: int, seed: int) -> np.ndarray:
    """n draws of Z(1) = nu V + sqrt(sigma^2 V) N(0,1) with V the doubly
    subordinated IG clock."""
    rng = _rng(n, seed)
    v = _double_ig_draw(rng, p.clock, n)
    return p.nu * v + np.sqrt(p.sigma2 * v) * rng.standard_normal(n)


def nig_sample(p: NigParams, n: int, seed: int) -> np.ndarray:
    """n NIG draws via subordination: X = mu + beta T + sqrt(T) N(0,1) with
    T ~ IG(delta^2, delta/gamma)."""
    rng = _rng(n, seed)
    t = _ig_draw(rng, p.delta ** 2, p.delta / p.gamma, n)
    return p.mu + p.beta * t + np.sqrt(t) * rng.standard_normal(n)

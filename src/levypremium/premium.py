"""Equity-premium engine: expected gross return, risk-free rate, and log
premium under log-normal, log-NIG, and log-NCIG growth; the heavy-tail
amplification ratio; and risk-aversion calibration.

All quantities are per the period of the fitted parameters (monthly inputs
give monthly premia); annualization is a caller concern.  The log premium
equals mgf_log(1) - mgf_log(1-a) + mgf_log(-a) for every model; for NIG and
the ratio function the radical differences are evaluated in cancellation-free
pairwise form so the large-alpha limit is measurable to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CalibrationError, DomainError
from .models import NcigParams, NigParams, NormalParams, ncig_mgf_log, nig_mgf_log

__all__ = [
    "PremiumResult", "premium_lognormal", "premium_nig", "premium_ncig", "ratio_r",
    "log_premium", "feasible_crra_max", "calibrate_crra",
]

GrowthModel = Union[NormalParams, NigParams, NcigParams]

_A_TOL = 1e-10   # calibrate_crra bisects a to within this width


def _check_crra(a: float) -> None:
    """The premium is defined for a finite CRRA a >= 0 only."""
    if not 0.0 <= a < math.inf:
        raise DomainError(f"CRRA must be finite and nonnegative, got {a}")


@dataclass(frozen=True)
class PremiumResult:
    """Gross expected return, gross risk-free return, and their log spread."""

    expected_return: float
    risk_free: float
    log_premium: float


def _result(log_rf: float, log_premium_stable: float) -> PremiumResult:
    # The stable pairwise premium is authoritative; the gross returns are
    # reconstructed from it so ln E - ln Rf equals log_premium identically.
    with np.errstate(over="ignore", under="ignore"):
        return PremiumResult(expected_return=float(np.exp(log_rf + log_premium_stable)),
                             risk_free=float(np.exp(log_rf)),
                             log_premium=log_premium_stable)


def premium_lognormal(b: float, a: float, p: NormalParams) -> PremiumResult:
    """Log-normal growth: log premium = a sigma^2."""
    _check_crra(a)
    s2 = p.sigma ** 2
    log_rf = -math.log(b) - (-a * p.mu + 0.5 * a * a * s2)
    return _result(log_rf, a * s2)


def premium_nig(b: float, a: float, p: NigParams) -> PremiumResult:
    """Log-NIG growth.  Requires the MGF arguments 1, 1-a, -a all feasible:
    alpha^2 must exceed (beta+1)^2 and be at least (beta+1-a)^2 and (beta-a)^2."""
    _check_crra(a)
    al, be, de = p.alpha, p.beta, p.delta
    rads = {}
    for arg, rad_name in ((1.0, "(beta + 1)"), (1.0 - a, "(beta + 1 - a)"),
                          (-a, "(beta - a)")):
        rad = (al - be - arg) * (al + be + arg)   # alpha^2 - (beta + arg)^2
        # 1-a and -a may reach the edge of the MGF domain; the unit argument may not.
        if rad < 0.0 or (arg == 1.0 and rad == 0.0):
            raise DomainError(
                f"CRRA outside NIG feasibility region: radicand alpha^2 - {rad_name}^2 "
                f"= {rad:.6g} at a = {a}")
        rads[arg] = rad
    g = p.gamma
    r_ma = math.sqrt(rads[-a])
    r_p1ma = math.sqrt(rads[1.0 - a])
    r_p1 = math.sqrt(rads[1.0])
    # gamma - r_ma and r_p1ma - r_p1 in cancellation-free pairwise form.
    term1 = (a * a - 2.0 * a * be) / (g + r_ma)
    term2 = (2.0 * a * (be + 1.0) - a * a) / (r_p1ma + r_p1)
    log_rf = -math.log(b) - nig_mgf_log(p, -a)
    return _result(log_rf, de * (term1 + term2))


def premium_ncig(b: float, a: float, p: NcigParams) -> PremiumResult:
    """Log-NCIG growth: log premium = g(1) - g(1-a) + g(-a) for g = ncig_mgf_log,
    which is (lam/mu)(1 + A1 - A2 - A3) with the nested radicals A1, A2, A3 at
    the MGF arguments 1-a, -a and 1."""
    _check_crra(a)
    try:
        gma = ncig_mgf_log(p, -a)
        premium = ncig_mgf_log(p, 1.0) - ncig_mgf_log(p, 1.0 - a) + gma
    except DomainError as exc:
        raise DomainError(f"CRRA outside NCIG feasibility region at a = {a}: {exc}") from exc
    return _result(-math.log(b) - gma, premium)


def ratio_r(a: float, alpha: float) -> float:
    """Heavy-tail premium amplification relative to the Gaussian benchmark:
    alpha P(a) / a for P the log premium of NIG(0, alpha, 0, 1), i.e.
    alpha (alpha - sqrt(alpha^2-a^2) - sqrt(alpha^2-1) + sqrt(alpha^2-(1-a)^2)) / a.
    Requires a > 0, alpha > 1 and a <= alpha: the premium's closed domain, so
    a = alpha returns a value."""
    if a <= 0.0:
        raise DomainError("ratio requires a > 0")
    return alpha * log_premium(NigParams(0.0, alpha, 0.0, 1.0), a) / a


def log_premium(model: GrowthModel, a: float) -> float:
    """Log equity premium under ``model`` at CRRA ``a``.  It does not depend
    on the discount factor, so none is taken; any b in (0, 1) gives it."""
    if isinstance(model, NormalParams):
        return premium_lognormal(0.5, a, model).log_premium
    if isinstance(model, NigParams):
        return premium_nig(0.5, a, model).log_premium
    if isinstance(model, NcigParams):
        return premium_ncig(0.5, a, model).log_premium
    raise DomainError(f"unsupported growth model type {type(model).__name__}")


def feasible_crra_max(model: GrowthModel) -> float:
    """Largest CRRA a at which the premium is defined; the feasible set is [0, a_max].

    Closed forms (infinite for the normal model):

    * NIG: a_max = alpha + beta, where the radicand alpha^2 - (beta - a)^2 hits 0.
    * NCIG: a_max = (nu + sqrt(nu^2 + 2 sigma^2 q_max)) / sigma^2, the root at
      s = -a of q(s) = s nu + sigma^2 s^2 / 2 = q_max.  The inner radicand
      1 - (2 mu^2/lam) q must stay >= f^2 with f = max(0, 1 - 1/(2 mu)), the
      floor the outer radicand sets when mu > 1/2, so q_max = lam (1 - f^2) / (2 mu^2).

    Rounding in the radicands can put the closed form up to a few hundred
    ulps outside the computed domain; the result is stepped down until
    ``log_premium`` is defined there.
    """
    if isinstance(model, NormalParams):
        return math.inf
    if not _defined(model, 0.0):
        raise DomainError("model is infeasible even at a = 0 "
                          "(the unit MGF argument lies outside the domain)")
    if isinstance(model, NigParams):
        a = model.alpha + model.beta
    else:
        lam, mu, nu, s2 = model.lam, model.mu, model.nu, model.sigma2
        f = max(0.0, 1.0 - 1.0 / (2.0 * mu))
        q_max = lam * (1.0 - f * f) / (2.0 * mu ** 2)
        a = (nu + math.sqrt(nu ** 2 + 2.0 * s2 * q_max)) / s2
    step = math.ulp(a)
    while not _defined(model, a):
        a -= step
        step *= 2.0
    return a


def _defined(model: GrowthModel, a: float) -> bool:
    try:
        log_premium(model, a)
        return True
    except DomainError:
        return False


def calibrate_crra(target_log_premium: float, b: float, model: GrowthModel) -> float:
    """CRRA a >= 0 solving log_premium(a) = target: target / sigma^2 for the
    log-normal premium a sigma^2, and for NIG and NCIG bisection to _A_TOL in a.

    P(a) = g(1) - g(1-a) + g(-a) has P'(a) = g'(1-a) - g'(-a) >= 0 because
    every cumulant function g is convex, so [0, a_max] brackets every target
    up to P(a_max).  A larger target raises CalibrationError reporting that
    attainable premium, as does a negative or non-finite target; target = 0
    returns a = 0.  ``b`` is not read: the log premium does not depend on it.
    """
    if not 0.0 <= target_log_premium < math.inf:
        raise CalibrationError(
            f"target premium must be finite and nonnegative, got {target_log_premium}")
    if target_log_premium == 0.0:
        return 0.0
    if isinstance(model, NormalParams):
        s2 = model.sigma ** 2   # may underflow to 0, or leave target / s2 above every float
        if s2 > 0.0 and target_log_premium / s2 < math.inf:
            return target_log_premium / s2
        raise CalibrationError(f"target premium unattainable: sigma^2 = {s2:.6g} is too small")

    hi = feasible_crra_max(model)
    attainable = log_premium(model, hi)
    if attainable < target_log_premium:
        raise CalibrationError(
            f"target premium unattainable: feasible maximum log premium is "
            f"{attainable:.10g} at a = {hi:.10g}, target {target_log_premium:.10g}")

    lo = 0.0
    while hi - lo > _A_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):   # adjacent floats: _A_TOL is below the spacing of a
            break
        if log_premium(model, mid) < target_log_premium:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

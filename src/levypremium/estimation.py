"""Parameter estimation: closed-form normal MLE, NIG MLE by L-BFGS-B with the
closed-form score and a method-of-moments start, and
empirical-characteristic-function (ECF) fitting for the NCIG model by
simplex search, with an FFT-based likelihood report.

Optimization runs in transformed coordinates (log for positive parameters;
for NIG, the closed shape triangle of ``NigShape``, whose boundary laws lie
at finite points), on data standardized to unit scale, so the optimizer
tolerances are scale-free.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DataError, FeasibilityError, InvalidParameterError, LevyPremiumError
from .inversion import default_grid, invert_chf, log_likelihood_from_grid
from .models import (NcigParams, NigParams, NigShape, NormalParams, double_ig_cumulants,
                     ncig_chf, ncig_cumulants, ncig_moments, nig_log_pdf, nig_shape_log_pdf,
                     _nig_shape_log_lik_score)

__all__ = [
    "FitResult",
    "fit_normal_mle", "fit_nig_mle", "moment_init_nig",
    "ecf_objective", "default_ecf_config", "fit_ncig_ecf", "moment_init_ncig",
    "apply_selection_rule", "bootstrap_se", "normal_log_likelihood",
]

_MAX_ITERATIONS = 5000
_XATOL = 1e-8
_FATOL = 1e-9
_FTOL = 1e-15           # NIG MLE: relative gain per step
_GTOL = 1e-9            # NIG MLE: projected gradient
_GRAD_FLOOR = 1e-5      # NIG MLE: relative projected gradient of a failed line search
_EDGE_START = 1e-2      # an edge start's zero skew coordinate, relative to the other
_CORNER_START = 1e-2    # NIG moment starts with pos + neg below this start at the normal law
_SNAP = 1e-6            # NIG skew coordinates this small are tried at 0
_BOUNDARY_NATS = 1e-7   # NIG parameters stand in for a boundary law to this
_ECF_JITTER_SEED = 60481
_ECF_NODES = 20         # ECF frequency nodes on each side of 0
ModelParams = Union[NormalParams, NigParams, NcigParams]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a fit: parameters, objective value, and diagnostics.

    ``objective_kind`` is ``"log_likelihood"`` (higher is better) or
    ``"ecf_distance"`` (lower is better).  For ECF fits the FFT-based
    log-likelihood is reported alongside in ``log_likelihood``.
    ``iterations``, ``nfev`` and ``message`` are the optimizer's iterations,
    objective evaluations and stop reason (0, 0 and ``"closed form"`` for
    the normal MLE).
    """

    params: ModelParams
    objective: float
    objective_kind: str
    converged: bool
    iterations: int
    nfev: int
    message: str
    init: ModelParams
    log_likelihood: Optional[float] = None
    flags: tuple = ()

    def __post_init__(self):
        if self.converged and self.iterations > _MAX_ITERATIONS:
            raise InvalidParameterError("converged fit cannot exceed max_iterations")
        if not np.isfinite(self.objective):
            raise InvalidParameterError("fit objective must be finite")


def _central_moments(data: np.ndarray) -> tuple[float, float, float, float]:
    """Mean, variance, third and fourth central moments (divisor n)."""
    m = float(np.mean(data))
    centered = data - m
    v = float(np.mean(centered ** 2))
    if v <= 0.0:
        raise DataError("degenerate data: zero sample variance")
    return m, v, float(np.mean(centered ** 3)), float(np.mean(centered ** 4))


def _sample_stats(data: np.ndarray) -> tuple[float, float, float, float]:
    """Population mean, variance, skewness, excess kurtosis (divisor n)."""
    m, v, m3, m4 = _central_moments(data)
    return m, v, m3 / v ** 1.5, m4 / v ** 2 - 3.0


def normal_log_likelihood(data: np.ndarray, p: NormalParams) -> float:
    """Exact normal log-likelihood of ``data`` under N(mu, sigma^2)."""
    arr = np.asarray(data, dtype=float)
    n = arr.size
    return float(-0.5 * n * np.log(2.0 * np.pi * p.sigma ** 2)
                 - 0.5 * np.sum((arr - p.mu) ** 2) / p.sigma ** 2)


def fit_normal_mle(data) -> FitResult:
    """Closed-form normal MLE: sample mean and divisor-n standard deviation."""
    arr = np.asarray(data, dtype=float)
    if arr.size < 2:
        raise DataError("normal MLE requires at least 2 observations")
    mu, sigma2, _, _ = _central_moments(arr)
    p = NormalParams(mu=mu, sigma=float(np.sqrt(sigma2)))
    n = arr.size
    loglik = -0.5 * n * np.log(2.0 * np.pi * sigma2) - 0.5 * n
    return FitResult(params=p, objective=float(loglik),
                     objective_kind="log_likelihood", converged=True,
                     iterations=0, nfev=0, message="closed form", init=p)


# ---------------------------------------------------------------------------
# NIG maximum likelihood
# ---------------------------------------------------------------------------

def moment_init_nig(data) -> NigParams:
    """NIG parameters whose analytic moments equal the sample's first four.

    Feasible only when excess kurtosis k > (5/3) s^2 for skewness s.
    """
    m, v, s, k = _sample_stats(np.asarray(data, dtype=float))
    return _invert_nig_moments(m, v, s, k)


def _moment_shape(m: float, v: float, s: float, k: float) -> NigShape:
    """The member of the closed NIG family with mean m, variance v, skewness s
    and, inside the NIG moment region k > (5/3) s^2, excess kurtosis k;
    outside it, the inverse-Gaussian edge law of skewness s (normal at s = 0)."""
    skew = s / 3.0                                   # pos - neg
    spread = max(math.sqrt(max(k / 3.0 - 4.0 * skew * skew, 0.0)), abs(skew))
    return NigShape(mean=m, sd=math.sqrt(v), pos=0.5 * (spread + skew),
                    neg=0.5 * (spread - skew))


def _invert_nig_moments(m: float, v: float, s: float, k: float) -> NigParams:
    shape = _moment_shape(m, v, s, k)
    if shape.boundary is not None:
        raise FeasibilityError(
            f"moment combination infeasible for NIG: excess kurtosis {k:.6g} "
            f"<= (5/3) skewness^2 = {(5.0 / 3.0) * s * s:.6g}")
    return shape.params()


def _snap_to_boundary(theta: np.ndarray, neg_loglik) -> np.ndarray:
    """Move skew coordinates within _SNAP of 0 onto the boundary (the normal
    corner first, then either edge) where that costs at most _FATOL nats."""
    f = neg_loglik(theta)
    for zeros in ([2, 3], [2], [3]):
        if np.all(theta[zeros] <= _SNAP):
            cand = theta.copy()
            cand[zeros] = 0.0
            if neg_loglik(cand) <= f + _FATOL:
                return cand
    return theta


def _finite_nig(shape: NigShape, target: float, loglik) -> tuple[NigParams, float]:
    """NIG parameters of ``shape`` and their log-likelihood.  For a boundary
    law, its zero skew coordinates are set to 1e-2, 1e-3, ... times the other's
    (times 1 at the normal corner), and the first, least extreme, parameters
    whose log-likelihood is within _BOUNDARY_NATS of ``target`` are returned."""
    if shape.boundary is None:
        params = shape.params()
        return params, loglik(params)
    best = None
    for k in range(2, 13):
        eps = 10.0 ** -k * ((shape.pos + shape.neg) or 1.0)
        params = dataclasses.replace(shape, pos=shape.pos or eps, neg=shape.neg or eps).params()
        ll = loglik(params)
        if best is None or ll > best[1]:
            best = (params, ll)
        if ll >= target - _BOUNDARY_NATS:
            break
    return best


def _at_precision_floor(result) -> bool:
    """Whether an L-BFGS-B search whose line search failed stopped where its
    projected gradient, relative to the objective (Dennis & Schnabel 1983,
    7.2), is below _GRAD_FLOOR: no step can then lower the objective by more
    than its rounding, and the point counts as converged."""
    grad = result.jac.copy()
    grad[2:][(result.x[2:] <= 0.0) & (grad[2:] > 0.0)] = 0.0
    scaled = np.abs(grad) * np.maximum(np.abs(result.x), 1.0)
    return bool(np.max(scaled) <= _GRAD_FLOOR * max(abs(result.fun), 1.0))


def fit_nig_mle(data, init: Optional[NigParams] = None) -> FitResult:
    """NIG MLE by L-BFGS-B over the closed NIG family, with the exact score.

    The search runs on standardized data in the ``NigShape`` coordinates
    (mean, ln sd, pos, neg), pos, neg >= 0, from ``init`` or from the sample
    moments projected onto the family; an inverse-Gaussian edge start is
    moved inside, its zero skew coordinate set to 1e-2 of the other, and a
    start with pos + neg below 1e-2 starts at the normal law.  It is
    given the log-likelihood with its closed-form score, one-sided on the
    boundary, and converges when a step gains less than 1e-15 relative, when
    the projected gradient falls below 1e-9, or when a line search fails at
    the precision floor (``_at_precision_floor``).  The boundary of the shape
    triangle - the normal law and the inverse-Gaussian edges - lies at
    finite points of that search space and is evaluated exactly, so the fit
    nests the normal fit, and a likelihood whose supremum lies on the
    boundary converges there with the flag ``"normal limit"`` or
    ``"inverse-Gaussian edge"``.  Such a fit returns finite NIG parameters
    next to the boundary law, within 1e-7 nats of its log-likelihood.  The
    fit never falls below ``init``.  ``iterations`` counts L-BFGS-B
    iterations, ``nfev`` its evaluations of the log-likelihood and score.
    """
    from scipy import optimize
    arr = np.asarray(data, dtype=float)
    if arr.size < 8:
        raise DataError("NIG MLE requires at least 8 observations")
    m, v, skew, kurt = _sample_stats(arr)
    scale = math.sqrt(v)
    z = (arr - m) / scale

    def shape_of(theta) -> NigShape:
        return NigShape(mean=float(theta[0]), sd=math.exp(min(max(float(theta[1]), -40.0), 40.0)),
                        pos=float(theta[2]), neg=float(theta[3]))

    def neg_loglik(theta) -> float:
        try:
            val = -float(np.sum(nig_shape_log_pdf(shape_of(theta), z)))
        except (InvalidParameterError, FloatingPointError):
            return np.inf
        return val if np.isfinite(val) else np.inf

    if init is None:
        # An edge start can put data outside its support; the normal law
        # cannot, and stands in for starts within _CORNER_START of it, where
        # the interior score is formed by cancellation.
        theta0 = np.array([0.0, 0.0, 0.0, 0.0])
        start = _moment_shape(0.0, 1.0, skew, kurt)
        if (start.pos + start.neg >= _CORNER_START
                and np.isfinite(neg_loglik([0.0, 0.0, start.pos, start.neg]))):
            theta0[2:] = start.pos or _EDGE_START * start.neg, start.neg or _EDGE_START * start.pos
    else:
        given = NigShape.from_params(init)
        theta0 = np.array([(given.mean - m) / scale, math.log(given.sd / scale),
                           given.pos, given.neg])
    # A trial outside an edge law's support gets a finite wall value above
    # the start, so the line search backs off instead of failing.
    wall = neg_loglik(theta0) + arr.size

    def objective(theta):
        try:
            ll, score = _nig_shape_log_lik_score(shape_of(theta), z)
        except (InvalidParameterError, FloatingPointError):
            ll = -np.inf
        if not (np.isfinite(ll) and np.all(np.isfinite(score))):
            return wall, np.zeros(4)
        return -ll, -score

    result = optimize.minimize(
        objective, theta0, jac=True, method="L-BFGS-B",
        bounds=[(None, None), (None, None), (0.0, None), (0.0, None)],
        options={"maxiter": _MAX_ITERATIONS, "maxfun": 4 * _MAX_ITERATIONS,
                 "ftol": _FTOL, "gtol": _GTOL})
    converged, message = bool(result.success), str(result.message)
    if result.status == 2 and _at_precision_floor(result):
        converged, message = True, "LINE SEARCH FAILED AT THE PRECISION FLOOR"
    theta = _snap_to_boundary(result.x, neg_loglik)

    def loglik(p: NigParams) -> float:
        return float(np.sum(nig_log_pdf(p, arr)))

    def finite_nig(theta) -> tuple[NigParams, float]:
        # Back to data units; the log-likelihood gains the Jacobian of the
        # standardization.
        shape = shape_of(theta)
        shape = dataclasses.replace(shape, mean=m + scale * shape.mean, sd=scale * shape.sd)
        return _finite_nig(shape, -neg_loglik(theta) - arr.size * math.log(scale), loglik)

    params, ll = finite_nig(theta)
    boundary = shape_of(theta).boundary
    flags = (() if converged else ("optimizer stalled",)) + ((boundary,) if boundary else ())
    if init is None:
        init = finite_nig(theta0)[0]
    else:
        init_ll = loglik(init)
        if init_ll > ll:
            params, ll = init, init_ll
    return FitResult(params=params, objective=ll, objective_kind="log_likelihood",
                     converged=converged, iterations=int(result.nit),
                     nfev=int(result.nfev), message=message,
                     init=init, log_likelihood=ll, flags=flags)


# ---------------------------------------------------------------------------
# ECF machinery
# ---------------------------------------------------------------------------

def _ecf_values(data: np.ndarray, u: np.ndarray, block: int = 20000) -> np.ndarray:
    """Empirical characteristic function (1/n) sum_k exp(i u x_k), blocked."""
    total = np.zeros(u.size, dtype=complex)
    n = data.size
    for start in range(0, n, block):
        chunk = data[start:start + block]
        total += np.exp(1j * np.outer(u, chunk)).sum(axis=1)
    return total / n


def ecf_objective(model_chf, data, nodes: tuple[np.ndarray, np.ndarray]) -> float:
    """Weighted squared distance sum_j w_j |ecf(u_j) - chf(u_j)|^2 over the
    (u_grid, weights) pair ``nodes`` of ``default_ecf_config``."""
    u_grid, weights = nodes
    arr = np.asarray(data, dtype=float)
    ecf = _ecf_values(arr, u_grid)
    model = np.asarray(model_chf(u_grid), dtype=complex)
    return float(np.sum(weights * np.abs(ecf - model) ** 2))


def default_ecf_config(data) -> tuple[np.ndarray, np.ndarray]:
    """ECF nodes and weights (u_grid, weights): _ECF_NODES nodes equally
    spaced in (0, u_max] mirrored to negatives, u_max located where
    |ECF| ~ 0.1, weights exp(-u^2)."""
    arr = np.asarray(data, dtype=float)
    sd = float(np.std(arr))
    if sd <= 0.0:
        raise DataError("degenerate data: zero sample variance")

    def ecf_mag(u):
        return abs(_ecf_values(arr, np.array([u]))[0])

    lo, hi = 0.0, 1.0 / sd
    for _ in range(60):
        if ecf_mag(hi) < 0.1:
            break
        lo, hi = hi, 2.0 * hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ecf_mag(mid) > 0.1:
            lo = mid
        else:
            hi = mid
    u_max = 0.5 * (lo + hi)
    pos = np.linspace(u_max / _ECF_NODES, u_max, _ECF_NODES)
    grid = np.concatenate([-pos[::-1], pos])
    with np.errstate(under="ignore"):
        weights = np.maximum(np.exp(-grid ** 2), 1e-300)
    return grid, weights


# ---------------------------------------------------------------------------
# NCIG: moment initialization and ECF fit
# ---------------------------------------------------------------------------

def _ncig_from_theta(theta: np.ndarray) -> NcigParams:
    ln_lam, ln_mu, nu, ln_s2 = theta
    # min/max, not np.clip: the same value on a scalar, NaN included, at a
    # fraction of the cost on every objective evaluation.
    lam, mu, s2 = (float(np.exp(min(max(t, -40.0), 40.0))) for t in (ln_lam, ln_mu, ln_s2))
    return NcigParams(lam=lam, mu=mu, nu=float(nu), sigma2=s2)


def _ncig_to_theta(p: NcigParams) -> np.ndarray:
    return np.array([np.log(p.lam), np.log(p.mu), p.nu, np.log(p.sigma2)])


def _scale_ncig(p: NcigParams, scale: float) -> NcigParams:
    """Parameters of scale*Z when Z ~ NCIG(p); the clock is unchanged."""
    return NcigParams(lam=p.lam, mu=p.mu, nu=scale * p.nu,
                      sigma2=scale * scale * p.sigma2)


def moment_init_ncig(data) -> NcigParams:
    """NCIG parameters matching the sample's first four cumulants.

    The cumulants of Z(1) are known in closed form (composition of IG
    cumulants through the Brownian map), so the match is a four-dimensional
    root solve in (ln lam, ln mu, nu, ln sigma2).  Falls back to a fixed
    coarse start (lam=100, mu=0.25, nu and sigma2 scaled to the sample mean
    and variance) whenever the solve fails; DataError on too few or constant data.
    """
    from scipy import optimize
    arr = np.asarray(data, dtype=float)
    if arr.size < 16:
        raise DataError("NCIG moment initialization requires at least 16 observations")
    m, v, m3, m4 = _central_moments(arr)
    target = np.array([m, v, m3, m4 - 3.0 * v * v])
    floors = np.array([v ** 0.5, v, v ** 1.5, v ** 2]) * 1e-8 + 1e-300
    denom = np.maximum(np.abs(target), floors)

    def residual(theta):
        try:
            model = np.array(ncig_cumulants(_ncig_from_theta(theta)))
        except (InvalidParameterError, OverflowError):
            return np.full(4, 1e6)
        return (model - target) / denom

    starts = []
    for lam in (10.0, 100.0, 1000.0):
        for mu in (0.05, 0.1, 0.25, 0.5, 1.0):
            cand = _linear_completion(lam, mu, target)
            if cand is not None:
                starts.append(cand)
    starts.sort(key=lambda th: float(np.sum(residual(th) ** 2)))

    for theta0 in starts[:4]:
        sol = optimize.root(residual, theta0, method="hybr")
        if np.max(np.abs(residual(sol.x))) < 1e-6:
            return _ncig_from_theta(sol.x)
    return _fallback_init_ncig(target)


def _linear_completion(lam: float, mu: float, target: np.ndarray):
    """Given (lam, mu), solve nu and sigma2 from the first two cumulants."""
    p0 = NcigParams(lam=lam, mu=mu, nu=0.0, sigma2=1.0)
    c1, c2, _, _ = double_ig_cumulants(p0.clock)
    nu = target[0] / c1
    s2 = (target[1] - nu * nu * c2) / c1
    if s2 <= 0.0:
        return None
    return np.array([np.log(lam), np.log(mu), nu, np.log(s2)])


def _fallback_init_ncig(target: np.ndarray) -> NcigParams:
    lam, mu = 100.0, 0.25
    theta = _linear_completion(lam, mu, target)
    if theta is None:
        c1 = mu * mu
        theta = np.array([np.log(lam), np.log(mu), target[0] / c1,
                          np.log(max(0.5 * target[1] / c1, 1e-12))])
    return _ncig_from_theta(theta)


def fit_ncig_ecf(data, init: Optional[NcigParams] = None,
                 n_starts: int = 8,
                 compute_log_likelihood: bool = True) -> FitResult:
    """NCIG fit minimizing the weighted ECF distance by simplex search from a
    method-of-moments start plus deterministically jittered restarts.

    The data are rescaled to unit standard deviation internally (the NCIG
    family is closed under scaling) so the exp(-u^2) node weights of
    ``default_ecf_config`` act at their design scale.  When each start stops,
    converged or stalled, the FFT-based log-likelihood of the original data
    is computed, and the start with the largest one is selected even if it
    stalled (the fit then reports converged=False); a fit whose likelihood
    trails a NIG baseline is flagged by ``apply_selection_rule``, not failed.
    """
    from scipy import optimize
    arr = np.asarray(data, dtype=float)
    if arr.size < 16:
        raise DataError("NCIG ECF fit requires at least 16 observations")

    scale = float(np.std(arr))
    if scale <= 0.0:
        raise DataError("degenerate data: zero sample variance")
    fit_data = arr / scale
    u_grid, weights = default_ecf_config(fit_data)

    if init is not None:
        init_scaled = _scale_ncig(init, 1.0 / scale)
    else:
        init_scaled = moment_init_ncig(fit_data)

    ecf = _ecf_values(fit_data, u_grid)

    def objective(theta):
        try:
            model = ncig_chf(_ncig_from_theta(theta), u_grid)
        except InvalidParameterError:
            return np.inf
        val = float(np.sum(weights * np.abs(ecf - model) ** 2))
        return val if np.isfinite(val) else np.inf

    rng = np.random.default_rng(_ECF_JITTER_SEED)
    theta0 = _ncig_to_theta(init_scaled)
    thetas = [theta0]
    for _ in range(max(0, n_starts - 1)):
        jitter = rng.normal(size=4) * np.array([0.7, 0.5, 0.5, 0.5])
        thetas.append(theta0 + jitter)

    per_start = []
    for theta_start in thetas:
        res = optimize.minimize(
            objective, theta_start, method="Nelder-Mead",
            options={"maxiter": _MAX_ITERATIONS, "maxfev": 4 * _MAX_ITERATIONS,
                     "xatol": _XATOL, "fatol": 1e-16})
        params = _scale_ncig(_ncig_from_theta(res.x), scale)
        loglik = None
        flags = () if res.success else ("optimizer stalled",)
        if compute_log_likelihood:
            try:
                grid = default_grid(ncig_moments(params))
                density = invert_chf(lambda u: ncig_chf(params, u), grid)
                loglik = log_likelihood_from_grid(density, arr)
            except LevyPremiumError:
                loglik = -np.inf
                flags = flags + ("fft likelihood unavailable",)
        per_start.append(FitResult(
            params=params, objective=float(res.fun), objective_kind="ecf_distance",
            converged=bool(res.success), iterations=int(res.nit),
            nfev=int(res.nfev), message=str(res.message),
            init=_scale_ncig(_ncig_from_theta(theta_start), scale),
            log_likelihood=loglik, flags=flags))

    return apply_selection_rule(per_start)


def apply_selection_rule(fits: Sequence[FitResult],
                         nig_log_likelihood: Optional[float] = None) -> FitResult:
    """Selection rule over candidate fits: keep the largest likelihood value;
    when a NIG baseline is supplied, flag (not fail) a winner that does not
    exceed it."""
    if not fits:
        raise InvalidParameterError("apply_selection_rule needs at least one fit")

    def key(f: FitResult):
        if f.log_likelihood is not None:
            return f.log_likelihood
        return -f.objective if f.objective_kind == "ecf_distance" else f.objective

    best = max(fits, key=key)
    if (nig_log_likelihood is not None and best.log_likelihood is not None
            and best.log_likelihood <= nig_log_likelihood):
        best = dataclasses.replace(
            best, flags=best.flags + ("likelihood below NIG baseline",))
    return best


def bootstrap_se(data, fitter, n_resamples: int = 200, seed: int = 0) -> dict:
    """Bootstrap standard errors of a parameter fit.

    ``fitter`` maps a resampled array to a parameter dataclass; returns a dict
    of per-field standard deviations across ``n_resamples`` resamples.
    """
    arr = np.asarray(data, dtype=float)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_resamples):
        sample = arr[rng.integers(0, arr.size, arr.size)]
        params = fitter(sample)
        rows.append(dataclasses.asdict(params))
    fields = rows[0].keys()
    return {name: float(np.std([r[name] for r in rows], ddof=1)) for name in fields}

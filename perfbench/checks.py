"""Output checks and reference values computed without levypremium.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  References come from closed forms and ``scipy.stats``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.integrate import cumulative_trapezoid

# --------------------------------------------------------------------------
# Distributions
# --------------------------------------------------------------------------


def scipy_nig(p: dict):
    return stats.norminvgauss(a=p["alpha"] * p["delta"], b=p["beta"] * p["delta"],
                              loc=p["mu"], scale=p["delta"])


def normal_mle_loglik(x: np.ndarray) -> float:
    n = x.size
    return float(-0.5 * n * math.log(2.0 * math.pi * np.var(x)) - 0.5 * n)


def reference_cdf(model: str, p: dict, x_sorted: np.ndarray) -> np.ndarray:
    """CDF at sorted points: scipy.stats norm, or norminvgauss as its CDF at
    the smallest point plus the trapezoid integral of its pdf on a 2^18 grid."""
    if model == "normal":
        return stats.norm.cdf(x_sorted, loc=p["mu"], scale=p["sigma"])
    dist = scipy_nig(p)
    lo, hi = float(x_sorted[0]), float(x_sorted[-1])
    grid = np.linspace(lo, hi, 2 ** 18 + 1)
    cum = float(dist.cdf(lo)) + cumulative_trapezoid(dist.pdf(grid), grid, initial=0.0)
    return np.interp(x_sorted, grid, cum)


def ncig_mean_var(p: dict) -> tuple[float, float]:
    """Mean and variance of nu V + sqrt(sigma2 V) Z on the IG-of-IG clock V,
    E V = mu^2 and Var V = (mu^4 + mu^5) / lam."""
    ev = p["mu"] ** 2
    var_v = (p["mu"] ** 4 + p["mu"] ** 5) / p["lam"]
    return p["nu"] * ev, p["nu"] ** 2 * var_v + p["sigma2"] * ev


# --------------------------------------------------------------------------
# Premium: ln E[e^{sX}] per model, and the CRRA feasibility edge
# --------------------------------------------------------------------------


def cgf(model: str, p: dict, s: float) -> float:
    if model == "normal":
        return p["mu"] * s + 0.5 * p["sigma"] ** 2 * s * s
    if model == "nig":
        gamma = math.sqrt(p["alpha"] ** 2 - p["beta"] ** 2)
        rad = (p["alpha"] - p["beta"] - s) * (p["alpha"] + p["beta"] + s)
        return p["mu"] * s + p["delta"] * (gamma - math.sqrt(max(rad, 0.0)))
    q = s * p["nu"] + 0.5 * p["sigma2"] * s * s
    inner = 1.0 - (2.0 * p["mu"] ** 2 / p["lam"]) * q
    outer = 1.0 - 2.0 * p["mu"] * (1.0 - math.sqrt(max(inner, 0.0)))
    return (p["lam"] / p["mu"]) * (1.0 - math.sqrt(max(outer, 0.0)))


def log_premium(model: str, p: dict, a: float) -> float:
    return cgf(model, p, 1.0) - cgf(model, p, 1.0 - a) + cgf(model, p, -a)


def crra_max(model: str, p: dict) -> float:
    """Largest a with ln E[e^{sX}] finite at s = 1, 1 - a and -a."""
    if model == "normal":
        return math.inf
    if model == "nig":
        return p["alpha"] + p["beta"]
    # q(s) = s nu + sigma2 s^2 / 2 must stay below q_max: the inner radicand
    # stays >= 0 and, when mu > 1/2, the outer one too.
    mu, lam = p["mu"], p["lam"]
    floor = max(0.0, 1.0 - 1.0 / (2.0 * mu))
    q_max = lam * (1.0 - floor * floor) / (2.0 * mu * mu)
    return (p["nu"] + math.sqrt(p["nu"] ** 2 + 2.0 * p["sigma2"] * q_max)) / p["sigma2"]


A_TOL = 1e-10   # calibrate_crra's default bisection tolerance in a


def check_calibration(model: str, p: dict, target: float, a, error) -> str | None:
    """The premium over ``a`` +- A_TOL must reach ``target`` to 1e-9; a
    CalibrationError must mean the target lies above the premium at the
    feasibility edge."""
    a_max = crra_max(model, p)
    attainable = math.inf if math.isinf(a_max) else log_premium(model, p, a_max)
    margin = 1e-6 * max(1.0, abs(attainable)) if math.isfinite(attainable) else 0.0
    if error is not None:
        if target > attainable - margin:
            return None
        return f"raised {error} for attainable target {target:.6g} <= {attainable:.6g}"
    if target > attainable + margin:
        return f"returned a = {a!r} for unattainable target {target:.6g}"
    if not (isinstance(a, float) and 0.0 < a <= a_max):
        return f"a = {a!r} outside (0, {a_max:.6g}]"
    # calibrate_crra bisects a to within A_TOL; the premium is increasing in a.
    lo = log_premium(model, p, max(a - A_TOL, 0.0))
    hi = log_premium(model, p, min(a + A_TOL, a_max))
    if not lo - 1e-9 <= target <= hi + 1e-9:
        return (f"premium at a = {a:.12g} +- {A_TOL:g} spans [{lo:.12g}, {hi:.12g}], "
                f"target {target:.12g}")
    return None


# --------------------------------------------------------------------------
# CLI artifacts
# --------------------------------------------------------------------------

_FIT_KEYS = {"model", "params", "objective", "objective_kind", "converged",
             "iterations", "log_likelihood", "flags", "init", "fingerprint"}
_PARAM_KEYS = {"normal": {"mu", "sigma"}, "nig": {"mu", "alpha", "beta", "delta"},
               "ncig": {"lam", "mu", "nu", "sigma2"}}


def fit_loglik(payload: dict) -> float:
    if payload["objective_kind"] == "log_likelihood":
        return float(payload["objective"])
    return float(payload["log_likelihood"])


def check_fit(payload: dict, model: str, exit_code: int, data: np.ndarray) -> str | None:
    missing = _FIT_KEYS - payload.keys()
    if missing:
        return f"fit JSON lacks {sorted(missing)}"
    if payload["model"] != model or set(payload["params"]) != _PARAM_KEYS[model]:
        return f"fit JSON holds model {payload['model']!r} with {sorted(payload['params'])}"
    if payload["converged"] != (exit_code == 0):
        return f"exit {exit_code} with converged={payload['converged']}"
    values = list(payload["params"].values())
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return f"non-finite parameters {payload['params']}"
    if not math.isfinite(fit_loglik(payload)):
        return "non-finite log-likelihood"
    if model == "normal":
        expect = {"mu": float(np.mean(data)), "sigma": float(np.std(data))}
        for key, val in expect.items():
            if abs(payload["params"][key] - val) > 1e-12 * max(1.0, abs(val)):
                return f"normal {key} = {payload['params'][key]!r}, closed form {val!r}"
        ref = normal_mle_loglik(data)
        if abs(fit_loglik(payload) - ref) > 1e-9 * abs(ref):
            return f"normal log-likelihood {fit_loglik(payload)!r}, closed form {ref!r}"
    return None


VALIDATE_ARTIFACTS = ("qq_{}.csv", "pp_{}.csv", "pit_histogram_{}.csv", "qq_{}.svg",
                      "pp_{}.svg", "pit_histogram_{}.svg", "gof_{}.json")


def check_validate(outdir: Path, tag: str, n: int) -> str | None:
    absent = [f.format(tag) for f in VALIDATE_ARTIFACTS if not (outdir / f.format(tag)).is_file()]
    if absent:
        return f"missing artifacts {absent}"
    report = json.loads((outdir / f"gof_{tag}.json").read_text(encoding="utf-8"))
    tests = {t["method"]: t for t in report["tests"]}
    if set(tests) != {"KS", "Neyman", "Frosini"}:
        return f"gof JSON holds tests {sorted(tests)}"
    for t in tests.values():
        if not 0.0 <= t["p_value"] <= 1.0 or t["n"] != n:
            return f"{t['method']}: p = {t['p_value']!r}, n = {t['n']!r} (want n = {n})"
    u = np.loadtxt(outdir / f"pp_{tag}.csv", delimiter=",", skiprows=1)[:, 1]
    if u.size != n or np.any(np.diff(u) < 0.0):
        return "pp CSV is not the model CDF at the sorted data"
    i = np.arange(1, n + 1)
    ks = float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))
    frosini = float(np.abs(u - (i - 0.5) / n).sum() / math.sqrt(n))
    for method, value in (("KS", ks), ("Frosini", frosini)):
        if abs(tests[method]["statistic"] - value) > 1e-12:
            return f"{method} statistic {tests[method]['statistic']!r}, recomputed {value!r}"
    return None


def cdf_abs_err(outdir: Path, tag: str, p: dict) -> float:
    """Max |model CDF at the sorted data - scipy CDF| from the P-P/Q-Q data."""
    model_cdf = np.loadtxt(outdir / f"pp_{tag}.csv", delimiter=",", skiprows=1)[:, 1]
    x_sorted = np.loadtxt(outdir / f"qq_{tag}.csv", delimiter=",", skiprows=1)[:, 1]
    return float(np.max(np.abs(model_cdf - reference_cdf(tag, p, x_sorted))))


def check_simulate(path: Path, n: int, p: dict) -> str | None:
    with open(path, encoding="utf-8") as handle:
        if handle.readline().strip() != "value":
            return "simulate CSV lacks its 'value' header"
        x = np.loadtxt(handle, ndmin=1)
    if x.size != n or not np.all(np.isfinite(x)):
        return f"simulate CSV holds {x.size} values (want {n} finite)"
    mean, var = ncig_mean_var(p)
    # Eight standard errors; the variance's uses a generous kurtosis allowance.
    if abs(np.mean(x) - mean) > 8.0 * math.sqrt(var / n):
        return f"sample mean {np.mean(x):.6g}, NCIG mean {mean:.6g}"
    if abs(np.var(x) - var) > 8.0 * var * math.sqrt(3.0 / n):
        return f"sample variance {np.var(x):.6g}, NCIG variance {var:.6g}"
    return None

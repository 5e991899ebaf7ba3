"""Benchmark inputs, drawn with numpy alone.

Nothing here imports levypremium, so a change to a sampler or an estimator in
the package cannot change the inputs of any workload.  Every stream comes from
``numpy.random.default_rng([seed, stream])``: the same seed gives the
same files.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import statistics
from pathlib import Path

import numpy as np

# The package's bundled reference parameter sets (see the README).
NORMAL_REF = {"mu": 0.0014508893, "sigma": 0.0128671292}
NIG_REF = {"mu": 0.002351, "alpha": 38.437308, "beta": -5.194172, "delta": 0.006590}
NCIG_REF = {"lam": 195.903, "mu": 0.261, "nu": 0.08, "sigma2": 3.472}
REFERENCE = {"normal": NORMAL_REF, "nig": NIG_REF, "ncig": NCIG_REF}

LEVELS_MONTHS = 1200
LEVELS_SCHEMA = "date=month,value=level"


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def normal_draws(rng: np.random.Generator, n: int, p=NORMAL_REF) -> np.ndarray:
    return p["mu"] + p["sigma"] * rng.standard_normal(n)


def nig_draws(rng: np.random.Generator, n: int, p=NIG_REF) -> np.ndarray:
    """mu + beta T + sqrt(T) Z with T ~ IG(mean delta/gamma, shape delta^2)."""
    gamma = math.sqrt(p["alpha"] ** 2 - p["beta"] ** 2)
    t = rng.wald(p["delta"] / gamma, p["delta"] ** 2, size=n)
    return p["mu"] + p["beta"] * t + np.sqrt(t) * rng.standard_normal(n)


def ncig_draws(rng: np.random.Generator, n: int, p=NCIG_REF) -> np.ndarray:
    """nu V + sqrt(sigma2 V) Z on the clock V = T(U): U ~ IG(mean mu, shape lam)
    and, given U = u, T(u) ~ IG(mean mu u, shape lam u^2)."""
    u = rng.wald(p["mu"], p["lam"], size=n)
    v = rng.wald(p["mu"] * u, p["lam"] * u * u)
    return p["nu"] * v + np.sqrt(p["sigma2"] * v) * rng.standard_normal(n)


def ridge_normal_quantiles(n: int, p=NORMAL_REF) -> np.ndarray:
    """The normal quantiles at (i - 1/2)/n, i = 1..n, in order.

    The sample is as Gaussian as n points can be: skewness 0 and excess
    kurtosis just below 0, where the NIG likelihood is largest at the Gaussian
    limit alpha -> inf, the near-Gaussian ridge.  Random normal draws fall on
    either side of that boundary from seed to seed, and the fit's cost with
    them.  The sample takes no seed: a simplex stalled on the ridge follows
    the last bits of its sums, so even a reordering changes its cost.
    """
    dist = statistics.NormalDist(p["mu"], p["sigma"])
    return np.array([dist.inv_cdf((i + 0.5) / n) for i in range(n)])


def write_values(path: Path, values: np.ndarray) -> None:
    """Single-column CSV (``--input-kind values``), exact float round trip."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("value\n")
        handle.write("\n".join(map(repr, values.tolist())))
        handle.write("\n")


def write_levels(path: Path, growth: np.ndarray) -> np.ndarray:
    """Dated monthly levels whose log growth is ``growth``; returns the levels
    as written, so callers can recompute the growth the CLI will see."""
    levels = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(growth))))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("month,level\n")
        for i, level in enumerate(levels.tolist()):
            year, month = divmod(i, 12)
            handle.write(f"{dt.date(1900 + year, month + 1, 1).isoformat()},{level!r}\n")
    return levels


def write_fit_json(path: Path, model: str, params: dict) -> None:
    """Fit JSON in the CLI's ``fit_<model>.json`` layout, holding the
    generating parameters instead of estimated ones."""
    payload = {"model": model, "params": dict(params),
               "note": "generating parameters written by the benchmark"}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def perturbed_nig(rng: np.random.Generator, scale: float = 0.1) -> dict:
    p = dict(NIG_REF)
    p["alpha"] *= math.exp(scale * rng.standard_normal())
    p["delta"] *= math.exp(scale * rng.standard_normal())
    p["beta"] *= 1.0 + scale * rng.standard_normal()
    p["mu"] += 0.1 * p["mu"] * rng.standard_normal()
    return p


def perturbed_ncig(rng: np.random.Generator, scale: float = 0.1) -> dict:
    return {k: v * math.exp(scale * rng.standard_normal()) for k, v in NCIG_REF.items()}

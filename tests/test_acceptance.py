"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion tolerances are pinned here, not configurable.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from levypremium import (
    NcigParams, NigParams, NormalParams, PitSample, bessel_k1, bootstrap_se,
    calibrate_crra, default_grid, double_ig_mgf_log, double_ig_sample,
    DoubleIgParams, IgParams, feasible_crra_max, fit_ncig_ecf, fit_nig_mle,
    fit_normal_mle, frosini_test, invert_chf, ks_test_uniform, log_premium,
    ncig_mgf_log, ncig_sample, neyman_smooth_test, nig_chf, nig_moments,
    nig_pdf, nig_sample, premium_nig, DomainError,
)
from levypremium.cli import REFERENCE_MODELS, main as cli_main

REF_NIG = REFERENCE_MODELS["nig"]
REF_NCIG = REFERENCE_MODELS["ncig"]
ORACLE_CSV = Path(__file__).parent / "data" / "bessel_k1_oracle.csv"


def announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number}: {status} - {detail}")


def test_criterion_1_bessel_accuracy():
    with open(ORACLE_CSV, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    x = np.array([float(r["x"]) for r in rows])
    truth = np.array([float(r["k1"]) for r in rows])
    assert x.size == 1000 and x.min() >= 1e-6 and x.max() <= 600.0

    start = time.perf_counter()
    values = bessel_k1(x)
    elapsed = time.perf_counter() - start
    rel = float(np.max(np.abs(values - truth) / truth))

    ok = rel < 1e-10 and elapsed < 1.0
    announce(1, ok, f"max rel err {rel:.3e} (tol 1e-10) over 1000 log-spaced "
                    f"points in [1e-6, 600]; runtime {elapsed * 1e3:.1f} ms")
    assert rel < 1e-10
    assert elapsed < 1.0


def test_criterion_2_inversion_matches_closed_form():
    start = time.perf_counter()
    grid = default_grid(nig_moments(REF_NIG), n_points=2 ** 14)
    density = invert_chf(lambda u: nig_chf(REF_NIG, u), grid)
    sup = float(np.max(np.abs(density.pdf_values - nig_pdf(REF_NIG, grid.nodes))))
    elapsed = time.perf_counter() - start

    ok = sup < 1e-6 and elapsed < 1.0
    announce(2, ok, f"sup-norm {sup:.3e} (tol 1e-6) on the 2^14 grid; "
                    f"runtime {elapsed * 1e3:.0f} ms")
    assert sup < 1e-6
    assert elapsed < 1.0


def test_criterion_3_mgf_monte_carlo_agreement():
    start = time.perf_counter()
    n = 10_000_000
    failures = []

    clock = DoubleIgParams(outer=IgParams(2.0, 0.5), inner=IgParams(2.0, 0.5))
    draws = double_ig_sample(clock, n, seed=301)
    for v in (0.1, 0.5, -0.3):
        sample = np.exp(v * draws)
        se = sample.std(ddof=1) / math.sqrt(n)
        gap = abs(math.exp(double_ig_mgf_log(clock, v)) - sample.mean())
        if gap > 3.0 * se:
            failures.append(f"double-IG v={v}: gap {gap:.2e} > 3se {3 * se:.2e}")

    z = ncig_sample(REF_NCIG, n, seed=302)
    for s in (0.5, 1.0, 2.0):
        sample = np.exp(s * z)
        se = sample.std(ddof=1) / math.sqrt(n)
        gap = abs(math.exp(ncig_mgf_log(REF_NCIG, s)) - sample.mean())
        if gap > 3.0 * se:
            failures.append(f"NCIG s={s}: gap {gap:.2e} > 3se {3 * se:.2e}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    announce(3, ok, f"6 MGF arguments vs 1e7-draw Monte-Carlo, all within 3 SE"
                    f"{'' if not failures else ' EXCEPT ' + '; '.join(failures)}; "
                    f"runtime {elapsed:.1f} s (limit 60 s)")
    assert not failures
    assert elapsed < 60.0


def test_criterion_4_limiting_case_slope():
    # Verbatim criterion: |premium_nig(beta=0, delta=alpha sigma^2) - a sigma^2|
    # over alpha in {1e2..1e5} must fit a log-log slope of -1 +- 0.1.
    # The exact expansion of the premium gives sigma^2 (a^4+1-(1-a)^4)/(8 alpha^2),
    # i.e. slope -2; the discrepancy is in the stated criterion, not the code,
    # so this test reports the measured slopes and fails.
    sigma2 = 0.001
    alphas = np.array([1e2, 1e3, 1e4, 1e5])
    slopes = {}
    for a in (2.0, 5.0, 10.0):
        gaps = []
        for alpha in alphas:
            p = NigParams(mu=0.0, alpha=float(alpha), beta=0.0,
                          delta=float(alpha) * sigma2)
            gaps.append(abs(premium_nig(0.97, a, p).log_premium - a * sigma2))
        slopes[a] = float(np.polyfit(np.log(alphas), np.log(gaps), 1)[0])

    ok = all(-1.1 <= s <= -0.9 for s in slopes.values())
    detail = ", ".join(f"a={a:g}: slope {s:.4f}" for a, s in slopes.items())
    announce(4, ok, f"required slope -1 +- 0.1; measured {detail} "
                    "(premium converges at rate 1/alpha^2; see notes)")
    for a, s in slopes.items():
        assert -1.1 <= s <= -0.9, (
            f"measured log-log slope {s:.4f} at a={a}; the premium difference "
            f"decays as alpha^-2, so the stated -1 +- 0.1 window is unattainable")


def _median_params(fits, fields):
    return {f: float(np.median([getattr(p, f) for p in fits])) for f in fields}


def test_criterion_5_estimation_recovery():
    start = time.perf_counter()
    report = []
    failures = []

    nig_fits = [fit_nig_mle(nig_sample(REF_NIG, 100_000, seed=s)).params
                for s in range(10)]
    med = _median_params(nig_fits, ("mu", "alpha", "beta", "delta"))
    nig_boot = None
    for field, value in med.items():
        truth = getattr(REF_NIG, field)
        rel = abs(value - truth) / abs(truth)
        if rel <= 0.05:
            report.append(f"NIG {field} {100 * rel:.2f}%")
            continue
        if nig_boot is None:
            data0 = nig_sample(REF_NIG, 100_000, seed=0)
            warm = fit_nig_mle(data0).params
            nig_boot = bootstrap_se(
                data0, lambda d: fit_nig_mle(d, init=warm).params,
                n_resamples=200, seed=501)
        if abs(value - truth) <= 3.0 * nig_boot[field]:
            report.append(f"NIG {field} {100 * rel:.2f}% (within 3 bootstrap SE)")
        else:
            failures.append(f"NIG {field}: rel {100 * rel:.2f}%, "
                            f"|err| {abs(value - truth):.3g} > 3se {3 * nig_boot[field]:.3g}")

    ncig_fits = [fit_ncig_ecf(ncig_sample(REF_NCIG, 100_000, seed=s)).params
                 for s in range(10)]
    med = _median_params(ncig_fits, ("lam", "mu", "nu", "sigma2"))
    ncig_boot = None
    for field, value in med.items():
        truth = getattr(REF_NCIG, field)
        rel = abs(value - truth) / abs(truth)
        if rel <= 0.10:
            report.append(f"NCIG {field} {100 * rel:.2f}%")
            continue
        if ncig_boot is None:
            data0 = ncig_sample(REF_NCIG, 100_000, seed=0)
            warm = fit_ncig_ecf(data0).params
            ncig_boot = bootstrap_se(
                data0, lambda d: fit_ncig_ecf(d, init=warm).params,
                n_resamples=200, seed=502)
        if abs(value - truth) <= 3.0 * ncig_boot[field]:
            report.append(f"NCIG {field} {100 * rel:.2f}% (within 3 bootstrap SE)")
        else:
            failures.append(f"NCIG {field}: rel {100 * rel:.2f}%, "
                            f"|err| {abs(value - truth):.3g} > 3se {3 * ncig_boot[field]:.3g}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    announce(5, ok, "median-of-10-seed recovery: " + "; ".join(report)
             + ("" if not failures else " - FAILED: " + "; ".join(failures))
             + f"; runtime {elapsed:.0f} s (limit 600 s)")
    assert not failures
    assert elapsed < 600.0


def test_criterion_6_likelihood_ordering():
    nig_wins = 0
    for seed in range(10):
        data = nig_sample(REF_NIG, 20_000, seed=600 + seed)
        if fit_nig_mle(data).objective > fit_normal_mle(data).objective:
            nig_wins += 1

    ncig_wins = 0
    margins = []
    for seed in range(10):
        data = ncig_sample(REF_NCIG, 100_000, seed=650 + seed)
        nig_ll = fit_nig_mle(data).objective
        ncig_ll = fit_ncig_ecf(data).log_likelihood
        margins.append(float(ncig_ll - nig_ll))
        if ncig_ll > nig_ll:
            ncig_wins += 1

    ok = nig_wins >= 9 and ncig_wins >= 8
    announce(6, ok,
             f"NIG > normal on NIG data in {nig_wins}/10 seeds (need >= 9); "
             f"selection rule accepts NCIG over NIG in {ncig_wins}/10 seeds "
             f"(need >= 8; per-seed margins {[round(m, 2) for m in margins]} - "
             "the reference NCIG is near-Gaussian and NIG matches its first "
             "four cumulants, so exact NIG MLE systematically edges out the "
             "ECF-estimated NCIG; see notes)")
    assert nig_wins >= 9
    assert ncig_wins >= 8, (
        f"selection rule accepted NCIG in {ncig_wins}/10 seeds; the NIG MLE "
        "beats the ECF-fitted NCIG by 0.1-1 nats on data drawn from the "
        "reference NCIG parameters because that law is statistically "
        "near-Gaussian at any desk-scale n")


def test_criterion_7_calibration_round_trip():
    rng = np.random.default_rng(700)
    failures = 0
    checked = {"normal": 0, "nig": 0, "ncig": 0}
    max_err = 0.0

    def random_model(kind):
        if kind == "normal":
            return NormalParams(mu=rng.normal(0.0, 0.01),
                                sigma=rng.uniform(0.005, 0.2))
        if kind == "nig":
            alpha = rng.uniform(2.0, 80.0)
            beta = rng.uniform(-0.6, 0.6) * alpha
            if alpha ** 2 <= (beta + 1.0) ** 2:
                return None
            return NigParams(mu=rng.normal(0.0, 0.01), alpha=alpha, beta=beta,
                             delta=rng.uniform(0.005, 0.5))
        return NcigParams(lam=rng.uniform(1.0, 500.0), mu=rng.uniform(0.05, 2.0),
                          nu=rng.normal(0.0, 0.3), sigma2=rng.uniform(0.1, 4.0))

    for kind in checked:
        attempts = 0
        while checked[kind] < 100 and attempts < 2000:
            attempts += 1
            model = random_model(kind)
            if model is None:
                continue
            a_max = feasible_crra_max(model)
            hi = 50.0 if math.isinf(a_max) else 0.9 * a_max
            a_star = rng.uniform(0.05, hi)
            try:
                target = log_premium(model, a_star)
            except DomainError:
                continue
            if target <= 0.0:
                continue
            a_back = calibrate_crra(target, 0.97, model)
            err = abs(a_back - a_star)
            max_err = max(max_err, err)
            if err > 1e-8:
                failures += 1
            checked[kind] += 1
        assert checked[kind] == 100, f"could not build 100 {kind} instances"

    ok = failures == 0
    announce(7, ok, f"300 round trips (100 per model), max |a_back - a*| = "
                    f"{max_err:.2e} (tol 1e-8), {failures} failures")
    assert failures == 0


def test_criterion_8_gof_level_correctness():
    start = time.perf_counter()
    n, seeds = 100, 1000
    rejections = {"KS": 0, "Neyman": 0, "Frosini": 0}
    for s in range(seeds):
        u = np.random.default_rng([202608, s]).uniform(size=n)
        sample = PitSample(values=u)
        for report in (ks_test_uniform(sample), neyman_smooth_test(sample),
                       frosini_test(sample)):
            rejections[report.method] += report.p_value <= 0.05
    rates = {k: v / seeds for k, v in rejections.items()}
    elapsed = time.perf_counter() - start

    ok = all(0.04 <= r <= 0.06 for r in rates.values()) and elapsed < 300.0
    announce(8, ok, "5%-level rejection rates over 1000 uniform seeds: "
                    + ", ".join(f"{k} {100 * v:.1f}%" for k, v in rates.items())
                    + f" (band [4%, 6%]); runtime {elapsed:.0f} s (limit 300 s)")
    for k, r in rates.items():
        assert 0.04 <= r <= 0.06, f"{k} rejection rate {r}"
    assert elapsed < 300.0


def test_criterion_9_repro_pipeline(tmp_path):
    out = tmp_path / "repro"
    code = cli_main(["repro", "--n", "20000", "--seed", "0", "--out", str(out)])
    report_path = out / "repro_report.json"
    table_path = out / "repro_table.txt"
    ok = code == 0 and report_path.exists() and table_path.exists()
    table = table_path.read_text() if table_path.exists() else ""
    for ref in ("2582.6", "33.5", "8.9626", "0.2223"):
        ok = ok and ref in table
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    announce(9, ok, "repro pipeline (simulate -> fit -> validate -> calibrate) "
                    f"completed with exit code {code}; side-by-side table written "
                    f"to {table_path.name}; calibrated vs reference CRRA rows: "
                    + "; ".join(
                        f"{row['model']}: {row['calibrated_crra_reference_params']}"
                        f" (reference {row['reference_crra']})"
                        for row in report.get("rows", [])))
    assert code == 0
    assert report_path.exists() and table_path.exists()
    for ref in ("2582.6", "33.5", "8.9626", "0.2223"):
        assert ref in table

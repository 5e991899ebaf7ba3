"""Command-line orchestration: fit, validate, calibrate, simulate, and repro.

Outputs are plain CSV/JSON (sorted keys, no timestamps) plus minimal static
SVG renderings of the Q-Q / P-P / histogram data, so identical config and
seed give byte-identical artifacts.

Exit codes: 0 success; 2 configuration/usage; 3 I/O or data; 4 feasibility,
domain, or grid; 5 fit did not converge (outputs still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from .data_io import (GrowthSeries, SeriesRecord, load_csv, log_growth,
                      resample_monthly_locf, write_series_csv)
from .errors import (CalibrationError, DataError, DomainError, GridError,
                     InvalidParameterError, LevyPremiumError, QuadratureError)
from .estimation import FitResult, fit_ncig_ecf, fit_nig_mle, fit_normal_mle
from .gof import frosini_test, ks_test_uniform, neyman_smooth_test, pit, qq_pp_data
from .inversion import cdf_function, default_grid, invert_chf, quantile_function
from .models import (NcigParams, NigParams, NormalParams, ncig_chf, ncig_moments,
                     ncig_sample, nig_chf, nig_moments, nig_sample)
from .plots import histogram_svg, scatter_svg
from .premium import calibrate_crra, feasible_crra_max, log_premium
from .special import std_normal_cdf

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FEASIBILITY = 4
EXIT_CONVERGENCE = 5

# Published reference estimates for the bundled parameter sets; the repro
# report prints the package's numbers next to these.
REFERENCE_MODELS = {
    "normal": NormalParams(mu=0.0014508893, sigma=0.0128671292),
    "nig": NigParams(mu=0.002351, alpha=38.437308, beta=-5.194172, delta=0.006590),
    "ncig": NcigParams(lam=195.903, mu=0.261, nu=0.08, sigma2=3.472),
}
REFERENCE_CRRA = {"normal": 2582.6, "nig": 33.5, "ncig": 8.9626}
REFERENCE_FORWARD_PREMIUM_PCT = 0.2223   # at a = 10, NIG reference parameters
REFERENCE_ANNUAL_PREMIUM = 0.05894       # mean annual equity premium target

_MODEL_TYPES = {"normal": NormalParams, "nig": NigParams, "ncig": NcigParams}


class CliConfigError(Exception):
    pass


def model_tag(params) -> str:
    for tag, cls in _MODEL_TYPES.items():
        if isinstance(params, cls):
            return tag
    raise CliConfigError(f"unknown model type {type(params).__name__}")


def params_to_dict(params) -> dict:
    return {"model": model_tag(params), "params": dataclasses.asdict(params)}


def params_from_dict(payload: dict):
    try:
        cls = _MODEL_TYPES[payload["model"]]
        return cls(**payload["params"])
    except (KeyError, TypeError) as exc:
        raise CliConfigError(f"malformed model payload: {exc}") from exc


def model_cdf_quantile(params):
    """CDF and quantile handles for a growth model (gridded for NIG/NCIG)."""
    if isinstance(params, NormalParams):
        def cdf(x):
            return std_normal_cdf((np.asarray(x, dtype=float) - params.mu) / params.sigma)

        def quantile(p):
            return params.mu + params.sigma * ndtri(np.asarray(p, dtype=float))

        return cdf, quantile
    if isinstance(params, NigParams):
        density = invert_chf(lambda u: nig_chf(params, u), default_grid(nig_moments(params)))
    else:
        density = invert_chf(lambda u: ncig_chf(params, u), default_grid(ncig_moments(params)))
    return cdf_function(density), quantile_function(density)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _parse_schema(text: str) -> dict:
    schema = {}
    for part in text.split(","):
        if "=" not in part:
            raise CliConfigError(f"bad schema fragment {part!r} (want date=COL,value=COL)")
        key, col = part.split("=", 1)
        schema[key.strip()] = col.strip()
    if "date" not in schema or "value" not in schema:
        raise CliConfigError("schema must define both date= and value=")
    return schema


def _read_json(path: str, what: str):
    """Parsed JSON file: DataError (exit 3) when unreadable, CliConfigError
    (exit 2) when not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise CliConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset CLI flags from the optional JSON config (flags override file)."""
    if not getattr(args, "config", None):
        return args
    payload = _read_json(args.config, "config")
    if not isinstance(payload, dict):
        raise CliConfigError("config file must contain a JSON object")
    for key, value in payload.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise CliConfigError(f"config key {key!r} is not a recognized flag")
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _load_growth(args) -> GrowthSeries:
    if args.input is None:
        raise CliConfigError("--input is required")
    if args.input_kind == "values":
        try:
            arr = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=1)
        except OSError as exc:
            raise DataError(f"cannot open {args.input}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"cannot parse {args.input}: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{args.input} holds non-finite values")
        return GrowthSeries(log_growth=arr, period=args.period)
    if args.schema is None:
        raise CliConfigError("--schema is required for dated CSV input")
    records = load_csv(args.input, _parse_schema(args.schema))
    if getattr(args, "resample", False):
        records = resample_monthly_locf(records)
    if args.input_kind == "levels":
        return log_growth(records, args.period)
    return GrowthSeries(log_growth=np.array([r.value for r in records]),
                        period=args.period)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _fit_payload(fit: FitResult, seed) -> dict:
    return {
        **params_to_dict(fit.params),
        "objective": fit.objective,
        "objective_kind": fit.objective_kind,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "log_likelihood": fit.log_likelihood,
        "flags": list(fit.flags),
        "init": params_to_dict(fit.init),
        "fingerprint": {"seed": seed, "version": __version__},
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    series = _load_growth(args)
    data = series.log_growth
    fit = _fit_model(args.model, data)
    out = Path(args.out or ".")
    _write_json(out / f"fit_{args.model}.json", _fit_payload(fit, args.seed))
    print(f"fit {args.model}: objective={fit.objective:.6f} "
          f"({fit.objective_kind}), converged={fit.converged}, "
          f"iterations={fit.iterations}")
    return EXIT_OK if fit.converged else EXIT_CONVERGENCE


def _fit_model(model: str, data) -> FitResult:
    if model == "normal":
        return fit_normal_mle(data)
    if model == "nig":
        return fit_nig_mle(data)
    if model == "ncig":
        return fit_ncig_ecf(data)
    raise CliConfigError(f"unknown model {model!r}")


def cmd_validate(args) -> int:
    if args.fit is None:
        raise CliConfigError("--fit is required")
    params = params_from_dict(_read_json(args.fit, "fit"))
    series = _load_growth(args)
    data = series.log_growth

    cdf, quantile = model_cdf_quantile(params)
    sample = pit(data, cdf)
    reports = [ks_test_uniform(sample), neyman_smooth_test(sample), frosini_test(sample)]
    qq, pp = qq_pp_data(data, cdf, quantile)
    counts, edges = np.histogram(sample.values, bins=20, range=(0.0, 1.0))

    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    tag = model_tag(params)
    np.savetxt(out / f"qq_{tag}.csv", qq, delimiter=",",
               header="theoretical_quantile,sorted_datum", comments="")
    np.savetxt(out / f"pp_{tag}.csv", pp, delimiter=",",
               header="uniform_probability,model_cdf", comments="")
    np.savetxt(out / f"pit_histogram_{tag}.csv",
               np.column_stack([edges[:-1], edges[1:], counts]), delimiter=",",
               header="bin_left,bin_right,count", comments="")
    (out / f"qq_{tag}.svg").write_text(
        scatter_svg(qq[:, 0], qq[:, 1], title=f"Q-Q ({tag})"), encoding="utf-8")
    (out / f"pp_{tag}.svg").write_text(
        scatter_svg(pp[:, 0], pp[:, 1], title=f"P-P ({tag})"), encoding="utf-8")
    (out / f"pit_histogram_{tag}.svg").write_text(
        histogram_svg(counts, edges, title=f"PIT histogram ({tag})"), encoding="utf-8")
    _write_json(out / f"gof_{tag}.json", {
        "model": tag,
        "tests": [dataclasses.asdict(r) for r in reports],
        "note": ("p-values are computed with parameters estimated from the same "
                 "data and are conservative (no composite-hypothesis correction)"),
    })
    for rep in reports:
        print(f"{rep.method}: statistic={rep.statistic:.6f} p={rep.p_value:.4f}")
    return EXIT_OK


def _per_period_target(annual_target: float, period: str) -> float:
    return annual_target / 12.0 if period == "monthly" else annual_target


def cmd_calibrate(args) -> int:
    if args.fit is not None:
        params = params_from_dict(_read_json(args.fit, "fit"))
    elif args.reference is not None:
        params = REFERENCE_MODELS[args.reference]
    else:
        raise CliConfigError("--fit or --reference is required")

    if args.target_premium is not None:
        annual_target = args.target_premium
    elif args.equity_input and args.riskfree_input:
        schema = _parse_schema(args.schema) if args.schema else {"date": "date",
                                                                 "value": "value"}
        equity = np.array([r.value for r in load_csv(args.equity_input, schema)])
        riskfree = np.array([r.value for r in load_csv(args.riskfree_input, schema)])
        per_period = float(np.mean(equity) - np.mean(riskfree))
        annual_target = per_period * (12.0 if args.period == "monthly" else 1.0)
    else:
        raise CliConfigError("--target-premium or both --equity-input and "
                             "--riskfree-input are required")

    b = args.discount_factor if args.discount_factor is not None else 0.97
    target = _per_period_target(annual_target, args.period)
    a_max = feasible_crra_max(params)
    crra = calibrate_crra(target, b, params)
    forward_as = [float(v) for v in (args.forward_a or "10").split(",")]
    forward = {f"{a:g}": log_premium(params, a) for a in forward_as}

    payload = {
        **params_to_dict(params),
        "period": args.period,
        "annual_target_log_premium": annual_target,
        "per_period_target_log_premium": target,
        "calibrated_crra": crra,
        "feasible_crra_interval": [0.0, a_max],
        "forward_log_premium_per_period": forward,
        "forward_log_premium_annualized": {
            k: v * (12.0 if args.period == "monthly" else 1.0)
            for k, v in forward.items()},
        "note": ("engine works in the period of the fitted parameters; "
                 "annualization multiplies log premia by 12 at this boundary"),
    }
    if args.out:
        _write_json(Path(args.out) / f"calibration_{model_tag(params)}.json", payload)
    print(f"calibrated CRRA = {crra:.6f} (period={args.period}, "
          f"per-period target {target:.6g}, feasible a in [0, {a_max:g}])")
    for a_key, val in forward.items():
        print(f"forward log premium at a={a_key}: {val:.6g} per period")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.n is None or args.seed is None:
        raise CliConfigError("--n and --seed are required")
    if args.n < 0:
        raise CliConfigError(f"--n must be >= 0 (got {args.n})")
    if args.fit is not None:
        params = params_from_dict(_read_json(args.fit, "fit"))
    elif args.reference is not None:
        params = REFERENCE_MODELS[args.reference]
    elif args.params_json is not None:
        try:
            payload = json.loads(args.params_json)
        except ValueError as exc:
            raise CliConfigError(f"--params-json is not valid JSON: {exc}") from exc
        params = params_from_dict(payload)
    else:
        raise CliConfigError("--fit, --reference, or --params-json is required")

    draws = _simulate(params, args.n, args.seed)
    out = Path(args.out or "simulated.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write("value\n")
        for v in draws:
            handle.write(f"{float(v)!r}\n")
    print(f"wrote {draws.size} draws to {out}")
    return EXIT_OK


def _simulate(params, n: int, seed: int) -> np.ndarray:
    if n == 0:
        return np.empty(0)
    if isinstance(params, NormalParams):
        rng = np.random.default_rng(seed)
        return rng.normal(params.mu, params.sigma, size=n)
    if isinstance(params, NigParams):
        return nig_sample(params, n, seed)
    return ncig_sample(params, n, seed)


def cmd_repro(args) -> int:
    """Chain simulate -> fit -> validate -> calibrate against the bundled
    reference parameter sets and emit the side-by-side comparison report."""
    out = Path(args.out or "repro_out")
    out.mkdir(parents=True, exist_ok=True)
    n = args.n if args.n is not None else 20000
    seed = args.seed if args.seed is not None else 0
    period = args.period
    annual_target = (args.target_premium if args.target_premium is not None
                     else REFERENCE_ANNUAL_PREMIUM)
    target = _per_period_target(annual_target, period)

    rows = []
    gof_summary = {}
    for tag in ("normal", "nig", "ncig"):
        truth = REFERENCE_MODELS[tag]
        data = _simulate(truth, n, seed)
        write_series_csv(out / f"sim_{tag}.csv",
                         [SeriesRecord(_fake_date(i), float(v))
                          for i, v in enumerate(data)])
        fit = _fit_model(tag, data)
        _write_json(out / f"fit_{tag}.json", _fit_payload(fit, seed))

        cdf, _ = model_cdf_quantile(fit.params)
        sample = pit(data, cdf)
        gof_summary[tag] = {
            rep.method: rep.p_value
            for rep in (ks_test_uniform(sample), neyman_smooth_test(sample),
                        frosini_test(sample))}

        calibrated = _calibrate_row(fit.params, target)
        reference_calibrated = _calibrate_row(truth, target)
        rows.append({
            "model": tag,
            "fitted_params": dataclasses.asdict(fit.params),
            "calibrated_crra_fitted_params": calibrated,
            "calibrated_crra_reference_params": reference_calibrated,
            "reference_crra": REFERENCE_CRRA[tag],
        })

    nig_ref = REFERENCE_MODELS["nig"]
    forward = log_premium(nig_ref, 10.0)
    report = {
        "n": n,
        "seed": seed,
        "period": period,
        "annual_target_log_premium": annual_target,
        "per_period_target_log_premium": target,
        "rows": rows,
        "gof_p_values": gof_summary,
        "forward_premium_a10_reference_nig": {
            "per_period_pct": 100.0 * forward,
            "annualized_pct": 100.0 * forward * (12.0 if period == "monthly" else 1.0),
            "reference_pct": REFERENCE_FORWARD_PREMIUM_PCT,
        },
        "note": ("reference CRRA values could not be reverse-engineered from the "
                 "published quantities under either period convention; the table "
                 "reports this package's calibrations next to them"),
    }
    _write_json(out / "repro_report.json", report)

    lines = [
        f"{'model':<8}{'CRRA (fitted)':>16}{'CRRA (reference params)':>26}{'reference':>12}",
    ]
    for row in rows:
        lines.append(f"{row['model']:<8}"
                     f"{_fmt(row['calibrated_crra_fitted_params']):>16}"
                     f"{_fmt(row['calibrated_crra_reference_params']):>26}"
                     f"{row['reference_crra']:>12.4f}")
    lines.append(f"forward log premium at a=10 (reference NIG params): "
                 f"{100.0 * forward:.4f}% per period "
                 f"(reference {REFERENCE_FORWARD_PREMIUM_PCT}%)")
    table = "\n".join(lines)
    (out / "repro_table.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return EXIT_OK


def _fmt(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def _calibrate_row(params, target: float):
    try:
        return calibrate_crra(target, 0.97, params)
    except (CalibrationError, DomainError) as exc:
        return f"unattainable ({exc})"


def _fake_date(index: int):
    import datetime as dt
    year, month = divmod(index, 12)
    return dt.date(1900 + year, month + 1, 1)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levypremium",
        description="Heavy-tailed growth models and equity-premium calibration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config mirroring flags (flags override)")
        p.add_argument("--model", choices=("normal", "nig", "ncig"))
        p.add_argument("--input")
        p.add_argument("--schema", help="date=COL,value=COL")
        p.add_argument("--input-kind", choices=("levels", "log-growth", "values"),
                       default="values",
                       help="levels: prices to transform; log-growth: dated growth "
                            "values; values: single value column, no dates")
        p.add_argument("--seed", type=int)
        p.add_argument("--period", choices=("monthly", "annual"), default="monthly")
        p.add_argument("--target-premium", type=float,
                       help="annual log equity premium target")
        p.add_argument("--discount-factor", type=float)
        p.add_argument("--out")
        p.add_argument("--resample", action="store_true",
                       help="fill monthly gaps by last observation carried forward")

    p_fit = sub.add_parser("fit", help="fit a growth model to a series")
    common(p_fit)

    p_val = sub.add_parser("validate", help="PIT, uniformity tests, Q-Q/P-P data")
    common(p_val)
    p_val.add_argument("--fit", help="fit result JSON")

    p_cal = sub.add_parser("calibrate", help="calibrate CRRA from a premium target")
    common(p_cal)
    p_cal.add_argument("--fit", help="fit result JSON")
    p_cal.add_argument("--reference", choices=("normal", "nig", "ncig"),
                       help="use a bundled reference parameter set")
    p_cal.add_argument("--equity-input", help="CSV of per-period equity log returns")
    p_cal.add_argument("--riskfree-input", help="CSV of per-period risk-free log returns")
    p_cal.add_argument("--forward-a", help="comma-separated CRRA values, default 10")

    p_sim = sub.add_parser("simulate", help="write model draws as CSV")
    common(p_sim)
    p_sim.add_argument("--fit", help="fit result JSON")
    p_sim.add_argument("--reference", choices=("normal", "nig", "ncig"))
    p_sim.add_argument("--params-json", help="inline {'model':..., 'params':...}")
    p_sim.add_argument("--n", type=int)

    p_rep = sub.add_parser("repro", help="simulate->fit->validate->calibrate against "
                                         "the bundled reference parameter sets")
    common(p_rep)
    p_rep.add_argument("--n", type=int)

    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "validate": cmd_validate,
    "calibrate": cmd_calibrate,
    "simulate": cmd_simulate,
    "repro": cmd_repro,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args)
        return _COMMANDS[args.command](args)
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainError, InvalidParameterError, GridError, CalibrationError) as exc:
        print(f"feasibility error: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY
    except LevyPremiumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY


if __name__ == "__main__":
    sys.exit(main())

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
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from .data_io import (PERIODS, GrowthSeries, SeriesRecord, load_csv, log_growth,
                      resample_monthly_locf, write_series_csv)
from .errors import CalibrationError, DataError, DomainError, LevyPremiumError
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
# calibrate_crra's discount factor: the log premium does not depend on it.
_DISCOUNT_FACTOR = 0.97

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
    chf, moments = ((nig_chf, nig_moments) if isinstance(params, NigParams)
                    else (ncig_chf, ncig_moments))
    density = invert_chf(lambda u: chf(params, u), default_grid(moments(params)))
    return cdf_function(density), quantile_function(density)


def _read_json(path: str, what: str):
    """Parsed JSON file: DataError (exit 3) when unreadable, CliConfigError
    (exit 2) when not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise CliConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_growth(args) -> GrowthSeries:
    if args.input_kind == "values":
        try:
            with warnings.catch_warnings():   # no rows: a DataError downstream says so
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                arr = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise DataError(f"cannot open {args.input}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"cannot parse {args.input}: {exc}") from exc
        if arr.shape[1] != 1:
            raise DataError(f"{args.input} holds {arr.shape[1]} columns, not one")
        arr = arr[:, 0]
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{args.input} holds non-finite values")
        return GrowthSeries(log_growth=arr, period=args.period)
    if args.schema is None:
        raise CliConfigError("--schema is required for dated CSV input")
    records = load_csv(args.input, args.schema)
    if args.resample:
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
        "nfev": fit.nfev,
        "message": fit.message,
        "log_likelihood": fit.log_likelihood,
        "flags": list(fit.flags),
        "init": params_to_dict(fit.init),
        "fingerprint": {"seed": seed, "version": __version__},
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    data = _load_growth(args).log_growth
    fit = _fit_model(args.model, data)
    _write_json(Path(args.out) / f"fit_{args.model}.json", _fit_payload(fit, args.seed))
    print(f"fit {args.model}: objective={fit.objective:.6f} "
          f"({fit.objective_kind}), converged={fit.converged}, "
          f"iterations={fit.iterations}")
    return EXIT_OK if fit.converged else EXIT_CONVERGENCE


def _fit_model(model: str, data) -> FitResult:
    fitter = {"normal": fit_normal_mle, "nig": fit_nig_mle, "ncig": fit_ncig_ecf}[model]
    return fitter(data)


def _uniformity_tests(data, cdf):
    """The PIT sample of ``data`` under ``cdf``, and its three uniformity tests."""
    sample = pit(data, cdf)
    return sample, [ks_test_uniform(sample), neyman_smooth_test(sample),
                    frosini_test(sample)]


def cmd_validate(args) -> int:
    params = params_from_dict(_read_json(args.fit, "fit"))
    data = _load_growth(args).log_growth
    cdf, quantile = model_cdf_quantile(params)
    sample, reports = _uniformity_tests(data, cdf)
    qq, pp = qq_pp_data(data, cdf, quantile)
    counts, edges = np.histogram(sample.values, bins=20, range=(0.0, 1.0))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = model_tag(params)
    for name, table, header, svg in (
            ("qq", qq, "theoretical_quantile,sorted_datum",
             scatter_svg(qq[:, 0], qq[:, 1], title=f"Q-Q ({tag})")),
            ("pp", pp, "uniform_probability,model_cdf",
             scatter_svg(pp[:, 0], pp[:, 1], title=f"P-P ({tag})")),
            ("pit_histogram", np.column_stack([edges[:-1], edges[1:], counts]),
             "bin_left,bin_right,count",
             histogram_svg(counts, edges, title=f"PIT histogram ({tag})"))):
        np.savetxt(out / f"{name}_{tag}.csv", table, delimiter=",", header=header,
                   comments="")
        (out / f"{name}_{tag}.svg").write_text(svg, encoding="utf-8")
    _write_json(out / f"gof_{tag}.json", {
        "model": tag,
        "tests": [dataclasses.asdict(r) for r in reports],
        "note": ("p-values are computed with parameters estimated from the same "
                 "data and are conservative (no composite-hypothesis correction)"),
    })
    for rep in reports:
        print(f"{rep.method}: statistic={rep.statistic:.6f} p={rep.p_value:.4f}")
    return EXIT_OK


def _periods_per_year(period: str) -> float:
    """Annualization factor of per-period log premia."""
    return 12.0 if period == "monthly" else 1.0


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
        equity = np.array([r.value for r in load_csv(args.equity_input, args.schema)])
        riskfree = np.array([r.value for r in load_csv(args.riskfree_input, args.schema)])
        per_period = float(np.mean(equity) - np.mean(riskfree))
        annual_target = per_period * _periods_per_year(args.period)
    else:
        raise CliConfigError("--target-premium or both --equity-input and "
                             "--riskfree-input are required")

    target = annual_target / _periods_per_year(args.period)
    a_max = feasible_crra_max(params)
    crra = calibrate_crra(target, _DISCOUNT_FACTOR, params)
    forward = {f"{a:g}": log_premium(params, a) for a in args.forward_a}

    payload = {
        **params_to_dict(params),
        "period": args.period,
        "annual_target_log_premium": annual_target,
        "per_period_target_log_premium": target,
        "calibrated_crra": crra,
        "feasible_crra_interval": [0.0, a_max],
        "forward_log_premium_per_period": forward,
        "forward_log_premium_annualized": {
            k: v * _periods_per_year(args.period) for k, v in forward.items()},
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
    if args.fit is not None:
        params = params_from_dict(_read_json(args.fit, "fit"))
    elif args.reference is not None:
        params = REFERENCE_MODELS[args.reference]
    elif args.params_json is not None:
        params = params_from_dict(args.params_json)
    else:
        raise CliConfigError("--fit, --reference, or --params-json is required")

    draws = _simulate(params, args.n, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in draws),
                   encoding="utf-8", newline="")
    print(f"wrote {draws.size} draws to {out}")
    return EXIT_OK


def _simulate(params, n: int, seed: int) -> np.ndarray:
    if isinstance(params, NormalParams):
        rng = np.random.default_rng(seed)
        return rng.normal(params.mu, params.sigma, size=n)
    if isinstance(params, NigParams):
        return nig_sample(params, n, seed)
    return ncig_sample(params, n, seed)


def cmd_repro(args) -> int:
    """Chain simulate -> fit -> validate -> calibrate against the bundled
    reference parameter sets and emit the side-by-side comparison report."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n, seed, period, annual_target = args.n, args.seed, args.period, args.target_premium
    target = annual_target / _periods_per_year(period)

    rows = []
    gof_summary = {}
    for tag in _MODEL_TYPES:
        truth = REFERENCE_MODELS[tag]
        data = _simulate(truth, n, seed)
        write_series_csv(out / f"sim_{tag}.csv",
                         [SeriesRecord(_fake_date(i), float(v))
                          for i, v in enumerate(data)])
        fit = _fit_model(tag, data)
        _write_json(out / f"fit_{tag}.json", _fit_payload(fit, seed))

        cdf, _ = model_cdf_quantile(fit.params)
        gof_summary[tag] = {r.method: r.p_value for r in _uniformity_tests(data, cdf)[1]}

        rows.append({
            "model": tag,
            "fitted_params": dataclasses.asdict(fit.params),
            "calibrated_crra_fitted_params": _calibrate_row(fit.params, target),
            "calibrated_crra_reference_params": _calibrate_row(truth, target),
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
            "annualized_pct": 100.0 * forward * _periods_per_year(period),
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
        return calibrate_crra(target, _DISCOUNT_FACTOR, params)
    except (CalibrationError, DomainError) as exc:
        return f"unattainable ({exc})"


def _fake_date(index: int):
    import datetime as dt
    year, month = divmod(index, 12)
    return dt.date(1900 + year, month + 1, 1)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_schema(text: str) -> dict:
    schema = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"bad schema fragment {part!r} (want date=COL,value=COL)")
        key, col = part.split("=", 1)
        schema[key.strip()] = col.strip()
    if "date" not in schema or "value" not in schema:
        raise argparse.ArgumentTypeError("schema must define both date= and value=")
    return schema


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"want an integer >= 0, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"want a finite number, got {text!r}")
    return value


def _finite_floats(text: str) -> list:
    return [_finite_float(part) for part in text.split(",")]


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It parses the flags of a ``--config`` file in
    front of the command line's, so the command line wins."""

    def parse_known_args(self, args=None, namespace=None):
        config = argparse.ArgumentParser(prog=self.prog, add_help=False, allow_abbrev=False)
        config.add_argument("--config")
        path = config.parse_known_args(args)[0].config
        if path:
            args = [*self._config_argv(path), *args]
        return super().parse_known_args(args, namespace)

    def _config_argv(self, path: str) -> list:
        """The flags that the JSON object at ``path`` stands for: each key names
        a flag, with ``-`` or ``_``; ``true`` gives the bare flag, ``false``
        nothing, and any other scalar ``--flag=value`` (a value may start with
        ``-``).  Any other key or value is a usage error."""
        payload = _read_json(path, "config")
        if not isinstance(payload, dict):
            self.error(f"config {path} must hold a JSON object")
        argv = []
        for key, value in payload.items():
            flag = "--" + key.replace("_", "-")
            if flag not in self._option_string_actions or flag == "--config":
                self.error(f"config key {key!r} is not a flag of {self.prog}")
            if not isinstance(value, (str, int, float)):
                self.error(f"config key {key!r}: {json.dumps(value)} is not a flag value")
            if value is not False:
                argv.append(flag if value is True else f"{flag}={value}")
        return argv


def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each subcommand declares exactly the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="levypremium", allow_abbrev=False,
        description="Heavy-tailed growth models and equity-premium calibration")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    models, schema_help = tuple(_MODEL_TYPES), "date=COL,value=COL"

    def command(name, help, out):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="JSON object of flag values (flags override it)")
        p.add_argument("--out", default=out)
        return p

    def period(p):
        p.add_argument("--period", choices=PERIODS, default="monthly")

    def inputs(p):
        p.add_argument("--input", required=True)
        p.add_argument("--input-kind", choices=("levels", "log-growth", "values"),
                       default="values", help="levels: dated prices; log-growth: dated "
                                              "log growth; values: one undated column")
        p.add_argument("--schema", type=_parse_schema, help=schema_help)
        p.add_argument("--resample", action="store_true",
                       help="fill monthly gaps by last observation carried forward")
        period(p)

    p = command("fit", "fit a growth model to a series", ".")
    p.add_argument("--model", choices=models, required=True)
    inputs(p)
    p.add_argument("--seed", type=_non_negative_int, help="recorded in the fingerprint")

    p = command("validate", "PIT, uniformity tests, Q-Q/P-P data", ".")
    p.add_argument("--fit", required=True, help="fit result JSON")
    inputs(p)

    p = command("calibrate", "calibrate CRRA from a premium target", None)
    p.add_argument("--fit", help="fit result JSON")
    p.add_argument("--reference", choices=models, help="a bundled reference parameter set")
    p.add_argument("--target-premium", type=_finite_float, help="annual log premium")
    p.add_argument("--equity-input", help="CSV of per-period equity log returns")
    p.add_argument("--riskfree-input", help="CSV of per-period risk-free log returns")
    p.add_argument("--schema", type=_parse_schema, default="date=date,value=value",
                   help=schema_help)
    period(p)
    p.add_argument("--forward-a", type=_finite_floats, default="10", help="CRRA list a1,a2,...")

    p = command("simulate", "write model draws as CSV", "simulated.csv")
    p.add_argument("--fit", help="fit result JSON")
    p.add_argument("--reference", choices=models)
    p.add_argument("--params-json", type=json.loads, help='{"model": ..., "params": {...}}')
    p.add_argument("--n", type=_non_negative_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, required=True)

    p = command("repro", "simulate, fit, validate, calibrate the reference sets", "repro_out")
    p.add_argument("--n", type=_non_negative_int, default=20000)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    period(p)
    p.add_argument("--target-premium", type=_finite_float, default=REFERENCE_ANNUAL_PREMIUM)
    return parser


_COMMANDS = {
    "fit": cmd_fit,
    "validate": cmd_validate,
    "calibrate": cmd_calibrate,
    "simulate": cmd_simulate,
    "repro": cmd_repro,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:   # from argparse: 0 after --help, 2 on a usage error
        return exc.code
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:   # OSError: an output path that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LevyPremiumError as exc:   # domain, parameters, grid, calibration, quadrature
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FEASIBILITY


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end CLI checks: exit codes, artifact determinism, and the
round-trip workflows."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levypremium import cli
from levypremium.cli import (EXIT_CONFIG, EXIT_FEASIBILITY, EXIT_IO, EXIT_OK,
                             REFERENCE_MODELS, main)


def run(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestSimulate:
    def test_zero_draws_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run("simulate", "--reference", "nig", "--n", "0", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
        assert out.read_text() == "value\n"

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run("simulate", "--reference", "ncig", "--n", "500",
                       "--seed", "7", "--out", str(path)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_reference_ncig_heavy_tails(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run("simulate", "--reference", "ncig", "--n", "1000000",
                   "--seed", "3", "--out", str(out)) == EXIT_OK
        draws = np.loadtxt(out, skiprows=1)
        centered = draws - draws.mean()
        exkurt = np.mean(centered ** 4) / np.var(draws) ** 2 - 3.0
        assert exkurt > 0.0

    def test_params_json_inline(self, tmp_path):
        out = tmp_path / "draws.csv"
        payload = json.dumps({"model": "normal",
                              "params": {"mu": 0.0, "sigma": 1.0}})
        assert run("simulate", "--params-json", payload, "--n", "100",
                   "--seed", "2", "--out", str(out)) == EXIT_OK
        assert np.loadtxt(out, skiprows=1).size == 100

    def test_missing_n_is_config_error(self, tmp_path):
        assert run("simulate", "--reference", "nig",
                   "--out", str(tmp_path / "x.csv")) == EXIT_CONFIG

    def test_negative_n_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("simulate", "--reference", "normal", "--n", "-5", "--seed", "1",
                   "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    def test_malformed_params_json_is_config_error(self, tmp_path):
        assert run("simulate", "--params-json", "{model: normal", "--n", "10",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")) == EXIT_CONFIG


def fit_file_argv(command, fit_path, tmp_path):
    """A ``command`` invocation that reads ``--fit fit_path`` and is otherwise valid."""
    argv = {"validate": ["--input", str(tmp_path / "data.csv")],
            "calibrate": ["--target-premium", "0.05"],
            "simulate": ["--n", "10", "--seed", "1"]}[command]
    return [command, "--fit", str(fit_path), *argv, "--out", str(tmp_path / "out")]


class TestFitFileErrors:
    @pytest.mark.parametrize("command", ["validate", "calibrate", "simulate"])
    def test_missing_fit_file_is_io_error(self, command, tmp_path):
        (tmp_path / "data.csv").write_text("value\n0.1\n0.2\n")
        assert run(*fit_file_argv(command, tmp_path / "absent.json", tmp_path)) == EXIT_IO

    @pytest.mark.parametrize("command", ["validate", "calibrate", "simulate"])
    def test_garbled_fit_file_is_config_error(self, command, tmp_path):
        (tmp_path / "data.csv").write_text("value\n0.1\n0.2\n")
        fit_path = tmp_path / "fit.json"
        fit_path.write_text('{"model": "normal", "params": {"mu": 0.0,')
        assert run(*fit_file_argv(command, fit_path, tmp_path)) == EXIT_CONFIG


class TestFit:
    def test_normal_recovery_and_nesting(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        run("simulate", "--reference", "normal", "--n", "10000", "--seed", "5",
            "--out", str(data_csv))
        assert run("fit", "--model", "normal", "--input", str(data_csv),
                   "--seed", "5", "--out", str(tmp_path)) == EXIT_OK
        fit = read_json(tmp_path / "fit_normal.json")
        truth = REFERENCE_MODELS["normal"]
        n = 10000
        assert abs(fit["params"]["mu"] - truth.mu) <= 3 * truth.sigma / math.sqrt(n)
        assert abs(fit["params"]["sigma"] - truth.sigma) <= \
            3 * truth.sigma / math.sqrt(2 * n)
        assert fit["fingerprint"] == {"seed": 5, "version": "0.1.0"}

        assert run("fit", "--model", "nig", "--input", str(data_csv),
                   "--seed", "5", "--out", str(tmp_path)) == EXIT_OK
        nig_fit = read_json(tmp_path / "fit_nig.json")
        assert nig_fit["objective"] >= fit["objective"] - 1e-6

    def test_non_finite_value_is_data_error(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("value\n0.01\nnan\n-0.02\n0.03\n")
        assert run("fit", "--model", "normal", "--input", str(data_csv),
                   "--out", str(tmp_path)) == EXIT_IO
        assert not (tmp_path / "fit_normal.json").exists()

    def test_missing_input_no_partial_output(self, tmp_path):
        assert run("fit", "--model", "normal", "--input",
                   str(tmp_path / "absent.csv"), "--out", str(tmp_path)) == EXIT_IO
        assert not (tmp_path / "fit_normal.json").exists()

    def test_dated_levels_input(self, tmp_path):
        csv = tmp_path / "levels.csv"
        rows = ["date,price"]
        rng = np.random.default_rng(9)
        price = 100.0
        for i, g in enumerate(rng.normal(0.001, 0.01, size=600)):
            year, month = divmod(i, 12)
            rows.append(f"{1950 + year}-{month + 1:02d},{price}")
            price *= math.exp(g)
        csv.write_text("\n".join(rows) + "\n")
        assert run("fit", "--model", "normal", "--input", str(csv),
                   "--schema", "date=date,value=price", "--input-kind", "levels",
                   "--out", str(tmp_path)) == EXIT_OK
        fit = read_json(tmp_path / "fit_normal.json")
        assert abs(fit["params"]["mu"] - 0.001) < 0.002

    def test_resample_with_annual_period_is_config_error(self, tmp_path, capsys):
        # --resample fills monthly gaps, which annual levels always have.
        csv = tmp_path / "annual.csv"
        csv.write_text("date,price\n" + "".join(
            f"{1990 + i}-01-01,{100.0 * 1.05 ** i}\n" for i in range(10)))
        argv = ["fit", "--model", "normal", "--input", str(csv), "--schema",
                "date=date,value=price", "--input-kind", "levels", "--period", "annual",
                "--out", str(tmp_path)]
        assert run(*argv, "--resample") == EXIT_CONFIG
        assert "--resample" in capsys.readouterr().err
        assert not (tmp_path / "fit_normal.json").exists()
        assert run(*argv) == EXIT_OK

    def test_config_file_with_flag_override(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        run("simulate", "--reference", "normal", "--n", "2000", "--seed", "1",
            "--out", str(data_csv))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "normal", "input": str(data_csv),
                                   "out": str(tmp_path / "from_config")}))
        override = tmp_path / "override"
        assert run("fit", "--config", str(cfg), "--out", str(override)) == EXIT_OK
        assert (override / "fit_normal.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"modle": "normal"}))
        assert run("fit", "--config", str(cfg)) == EXIT_CONFIG

    def test_deterministic_outputs(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        run("simulate", "--reference", "nig", "--n", "3000", "--seed", "2",
            "--out", str(data_csv))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("fit", "--model", "nig", "--input", str(data_csv),
                       "--seed", "2", "--out", str(out)) == EXIT_OK
        assert (out_a / "fit_nig.json").read_bytes() == \
            (out_b / "fit_nig.json").read_bytes()


class TestValuesInput:
    """``--input-kind values`` reads exactly one column."""

    @pytest.mark.parametrize("command", ["fit", "validate"])
    @pytest.mark.parametrize("text", ["value\n0.01,0.02\n",
                                      "value\n0.01,0.02\n-0.03,0.04\n0.05,-0.06\n0.07,0.08\n"])
    def test_more_than_one_column_is_a_data_error(self, command, text, tmp_path):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(text)
        argv = {"fit": ["--model", "normal"],
                "validate": ["--fit", str(write_normal_fit(tmp_path / "fit.json"))]}[command]
        out = tmp_path / "out"
        assert run(command, *argv, "--input", str(data_csv), "--out", str(out)) == EXIT_IO
        assert not out.exists()

    def test_one_column_fits(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("value\n0.01\n-0.03\n0.05\n0.07\n")
        assert run("fit", "--model", "normal", "--input", str(data_csv),
                   "--out", str(tmp_path)) == EXIT_OK
        fit = read_json(tmp_path / "fit_normal.json")
        assert fit["params"]["mu"] == pytest.approx(0.025, rel=1e-12)

    def test_empty_file_is_a_data_error(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("value\n")
        assert run("fit", "--model", "normal", "--input", str(data_csv),
                   "--out", str(tmp_path)) == EXIT_IO

    @pytest.mark.parametrize("via_config", [False, True])
    @pytest.mark.parametrize("flag, value", [("--schema", "date=date,value=value"),
                                             ("--resample", True)])
    @pytest.mark.parametrize("command", ["fit", "validate"])
    def test_dated_input_flag_is_a_config_error(self, command, flag, value, via_config,
                                                tmp_path, capsys):
        # Undated values have no dates to read by a schema or to resample.
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("value\n0.01\n-0.03\n0.05\n0.07\n")
        argv = [command, "--input", str(data_csv), "--out", str(tmp_path / "out"),
                *{"fit": ["--model", "normal"],
                  "validate": ["--fit", str(write_normal_fit(tmp_path / "fit.json"))]}[command]]
        if via_config:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({flag[2:]: value}))
            argv += ["--config", str(config)]
        else:
            argv += flag_argv({flag: value})
        assert run(*argv) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def run_process(*argv):
    """Exit code of the CLI in a fresh process; a hang fails the test after 60 s."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "levypremium.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60).returncode


class TestNegativeNigAlpha:
    # alpha^2 > beta^2 holds here, but NIG needs alpha > |beta|.
    PAYLOAD = {"model": "nig", "params": {"mu": 0, "alpha": -3, "beta": 0, "delta": 1}}

    def test_calibrate_is_a_parameter_error(self, tmp_path):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(self.PAYLOAD))
        assert run_process("calibrate", "--fit", str(fit_path),
                           "--target-premium", "0.05") == EXIT_FEASIBILITY

    def test_simulate_is_a_parameter_error(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run_process("simulate", "--params-json", json.dumps(self.PAYLOAD),
                           "--n", "10", "--seed", "1", "--out", str(out)) == EXIT_FEASIBILITY
        assert not out.exists()


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    base = tmp_path_factory.mktemp("validate")
    data_csv = base / "data.csv"
    run("simulate", "--reference", "nig", "--n", "20000", "--seed", "11",
        "--out", str(data_csv))
    run("fit", "--model", "nig", "--input", str(data_csv), "--seed", "11",
        "--out", str(base))
    run("fit", "--model", "normal", "--input", str(data_csv), "--seed", "11",
        "--out", str(base))
    return base, data_csv


class TestValidate:
    def test_self_validation_passes(self, fitted, tmp_path):
        base, data_csv = fitted
        assert run("validate", "--fit", str(base / "fit_nig.json"),
                   "--input", str(data_csv), "--out", str(tmp_path)) == EXIT_OK
        report = read_json(tmp_path / "gof_nig.json")
        assert all(t["p_value"] > 0.01 for t in report["tests"])
        assert "conservative" in report["note"]

    def test_histogram_counts_sum_to_n(self, fitted, tmp_path):
        base, data_csv = fitted
        run("validate", "--fit", str(base / "fit_nig.json"),
            "--input", str(data_csv), "--out", str(tmp_path))
        hist = np.loadtxt(tmp_path / "pit_histogram_nig.csv", delimiter=",",
                          skiprows=1)
        assert int(hist[:, 2].sum()) == 20000
        assert (tmp_path / "qq_nig.svg").exists()
        assert (tmp_path / "pp_nig.svg").exists()

    def test_normal_fit_worse_than_nig_on_heavy_tails(self, fitted, tmp_path):
        base, data_csv = fitted
        run("validate", "--fit", str(base / "fit_normal.json"),
            "--input", str(data_csv), "--out", str(tmp_path / "norm"))
        run("validate", "--fit", str(base / "fit_nig.json"),
            "--input", str(data_csv), "--out", str(tmp_path / "nig"))
        ks_norm = read_json(tmp_path / "norm" / "gof_normal.json")["tests"][0]
        ks_nig = read_json(tmp_path / "nig" / "gof_nig.json")["tests"][0]
        assert ks_norm["p_value"] < ks_nig["p_value"]


def write_normal_fit(path):
    path.write_text(json.dumps(cli.params_to_dict(REFERENCE_MODELS["normal"])),
                    encoding="utf-8")
    return path


class TestValidateReport:
    def test_empty_input_is_data_error(self, tmp_path):
        fit_path = write_normal_fit(tmp_path / "fit.json")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name, text in (("empty.csv", "value\n"), ("one.csv", "value\n0.01\n")):
            (tmp_path / name).write_text(text)
            argv = ["validate", "--fit", str(fit_path), "--input", str(tmp_path / name),
                    "--out", str(tmp_path / "out")]
            assert run(*argv) == EXIT_IO
            # A fresh process, where a library warning would reach stderr
            # (pytest intercepts the ones raised in-process).
            proc = subprocess.run([sys.executable, "-m", "levypremium.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_IO
            assert proc.stderr.startswith("data error: ") and proc.stderr.count("\n") == 1, \
                proc.stderr

    def test_each_test_names_its_null_and_reruns_byte_identical(self, tmp_path):
        fit_path = write_normal_fit(tmp_path / "fit.json")
        data_csv = tmp_path / "data.csv"
        run("simulate", "--reference", "normal", "--n", "5000", "--seed", "4",
            "--out", str(data_csv))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("validate", "--fit", str(fit_path), "--input", str(data_csv),
                       "--out", str(out)) == EXIT_OK
        report = read_json(out_a / "gof_normal.json")
        assert {t["method"]: t["null"] for t in report["tests"]} == {
            "KS": "asymptotic", "Neyman": "chi-square", "Frosini": "asymptotic"}
        assert (out_a / "gof_normal.json").read_bytes() == \
            (out_b / "gof_normal.json").read_bytes()


class TestCalibrate:
    def test_forward_premium_normal_model(self, tmp_path):
        fit_file = tmp_path / "fit.json"
        fit_file.write_text(json.dumps({
            "model": "normal",
            "params": {"mu": 0.0, "sigma": math.sqrt(0.001)}}))
        out = tmp_path / "cal"
        assert run("calibrate", "--fit", str(fit_file), "--target-premium",
                   "0.0012", "--period", "monthly", "--forward-a", "10",
                   "--out", str(out)) == EXIT_OK
        payload = read_json(out / "calibration_normal.json")
        assert payload["forward_log_premium_per_period"]["10"] == \
            pytest.approx(0.01, rel=1e-12)

    def test_round_trip_through_forward_mode(self, tmp_path):
        out = tmp_path / "cal"
        assert run("calibrate", "--reference", "nig", "--target-premium",
                   "0.0012", "--forward-a", "7.25", "--out", str(out)) == EXIT_OK
        payload = read_json(out / "calibration_nig.json")
        forward = payload["forward_log_premium_per_period"]["7.25"]
        out2 = tmp_path / "cal2"
        assert run("calibrate", "--reference", "nig", "--period", "annual",
                   "--target-premium", repr(forward), "--out", str(out2)) == EXIT_OK
        payload2 = read_json(out2 / "calibration_nig.json")
        assert payload2["calibrated_crra"] == pytest.approx(7.25, abs=1e-8)

    def test_reference_ncig_with_reference_target(self, tmp_path):
        assert run("calibrate", "--reference", "ncig", "--target-premium",
                   "0.05894", "--period", "monthly") == EXIT_OK

    def test_unattainable_target_exit_code(self):
        assert run("calibrate", "--reference", "nig", "--target-premium",
                   "0.9", "--period", "annual") == EXIT_FEASIBILITY

    def test_target_required(self):
        assert run("calibrate", "--reference", "nig") == EXIT_CONFIG


class TestRepro:
    def test_pipeline_completes_and_reports(self, tmp_path):
        out = tmp_path / "repro"
        assert run("repro", "--n", "4000", "--seed", "0",
                   "--out", str(out)) == EXIT_OK
        report = read_json(out / "repro_report.json")
        assert {row["model"] for row in report["rows"]} == {"normal", "nig", "ncig"}
        for row in report["rows"]:
            assert "reference_crra" in row
        table = (out / "repro_table.txt").read_text()
        assert "2582.6" in table and "33.5" in table and "8.9626" in table
        assert "0.2223" in table


def command_parsers():
    """Each subcommand's parser, by name."""
    (action,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    return action.choices


def declared_flags(parser):
    return {opt for action in parser._actions for opt in action.option_strings} - {
        "-h", "--help"}


class TestFlagSets:
    def test_each_command_declares_exactly_the_flags_it_reads(self):
        # A flag that no command reads can come back only through this table.
        inputs = {"--input", "--input-kind", "--schema", "--resample", "--period"}
        assert {name: declared_flags(p) for name, p in command_parsers().items()} == {
            "fit": {"--config", "--out", "--model", "--seed", *inputs},
            "validate": {"--config", "--out", "--fit", *inputs},
            "calibrate": {"--config", "--out", "--fit", "--reference", "--target-premium",
                          "--equity-input", "--riskfree-input", "--schema", "--period",
                          "--forward-a"},
            "simulate": {"--config", "--out", "--fit", "--reference", "--params-json",
                         "--n", "--seed"},
            "repro": {"--config", "--out", "--n", "--seed", "--period", "--target-premium"},
        }


# A valid value for every flag, none of them a default; True is a bare switch.
FLAG_VALUES = {
    "--out": "elsewhere", "--model": "ncig", "--input": "in.csv", "--input-kind": "levels",
    "--schema": "date=day,value=price", "--resample": True, "--period": "annual",
    "--seed": "3", "--fit": "fit.json", "--reference": "ncig", "--target-premium": "-0.5",
    "--equity-input": "equity.csv", "--riskfree-input": "riskfree.csv",
    "--forward-a": "2,7.5", "--params-json": '{"model": "normal"}', "--n": "5",
}
REQUIRED = {"fit": {"--model": "nig", "--input": "x.csv"},
            "validate": {"--fit": "f.json", "--input": "x.csv"},
            "calibrate": {}, "simulate": {"--n": "1", "--seed": "1"}, "repro": {}}


def flag_argv(flags):
    return [token for flag, value in flags.items()
            for token in ([flag] if value is True else [flag, value])]


def parse(*argv):
    return vars(cli._build_parser().parse_args(list(argv)))


@pytest.mark.parametrize("spelling", ["-", "_"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, parser in command_parsers().items()
    for flag in sorted(declared_flags(parser) - {"--config"})])
def test_config_key_parses_like_its_flag(command, flag, spelling, tmp_path):
    value = FLAG_VALUES[flag]
    from_flags = parse(command, *flag_argv({**REQUIRED[command], flag: value}))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({flag[2:].replace("-", spelling): value}))
    rest = {f: v for f, v in REQUIRED[command].items() if f != flag}
    from_config = parse(command, "--config", str(config), *flag_argv(rest))
    assert from_config.pop("config") == str(config)
    assert from_flags.pop("config") is None
    assert from_config == from_flags
    defaults = parse(command, *flag_argv(REQUIRED[command]))
    assert defaults.pop("config") is None
    assert from_flags != defaults


class TestArgumentErrors:
    @pytest.mark.parametrize("n", ["5", 5])
    def test_config_n_is_an_int(self, n, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": n}))
        out = tmp_path / "draws.csv"
        assert run("simulate", "--config", str(config), "--reference", "nig",
                   "--seed", "1", "--out", str(out)) == EXIT_OK
        assert np.loadtxt(out, skiprows=1).size == 5

    @pytest.mark.parametrize("text", [
        '{"n": "x"}', '{"n": -5}', '{"n": [5]}', '{"n": null}', '{"n": true}',
        '{"n": 1, "seed": 1.5}', '{"n": 1, "config": "other.json"}',
        '{"n": 1, "resample": true}', '{"n": 1, "modle": false}', '[1]'])
    def test_bad_config_is_a_usage_error(self, text, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(text)
        out = tmp_path / "draws.csv"
        assert run("simulate", "--config", str(config), "--reference", "nig",
                   "--seed", "1", "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    def test_config_period_reaches_the_calibration(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"period": "annual"}))
        assert run("calibrate", "--config", str(config), "--reference", "nig",
                   "--target-premium", "0.05", "--out", str(tmp_path)) == EXIT_OK
        assert read_json(tmp_path / "calibration_nig.json")["period"] == "annual"

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--reference", "nig", "--target-premium", "0.05", "--forward-a", "abc"],
        ["calibrate", "--reference", "nig", "--target-premium", "0.05",
         "--forward-a", "10,nan"],
        ["calibrate", "--reference", "nig", "--target-premium", "nan"],
        ["calibrate", "--reference", "nig", "--target-premium", "0.05",
         "--discount-factor", "0.5"],
        ["repro", "--n", "-5"],
        ["simulate", "--reference", "nig", "--n", "5", "--seed", "-1"],
        ["validate", "--model", "nig", "--fit", "fit.json", "--input", "x.csv"],
        ["fit", "--mod", "nig", "--input", "x.csv"],
    ])
    def test_usage_error(self, argv, tmp_path):
        assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--reference", "nig", "--n", "5", "--seed", "1"],
        ["calibrate", "--reference", "nig", "--target-premium", "0.05"]])
    def test_unwritable_out_is_an_io_error(self, command, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(*command, "--out", str(blocker / "out")) == EXIT_IO

    def test_negative_forward_crra_is_a_domain_error(self):
        assert run("calibrate", "--reference", "ncig", "--target-premium", "0.05",
                   "--forward-a", "10,-1") == EXIT_FEASIBILITY


class TestOverflowingNigGamma:
    # alpha > |beta|, but gamma = sqrt((alpha - beta)(alpha + beta)) overflows.
    PAYLOAD = {"model": "nig", "params": {"mu": 0, "alpha": 1e200, "beta": 0, "delta": 1}}

    def test_calibrate_is_a_parameter_error(self, tmp_path):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(self.PAYLOAD))
        assert run("calibrate", "--fit", str(fit_path), "--target-premium", "0.05",
                   "--out", str(tmp_path / "out")) == EXIT_FEASIBILITY
        assert not (tmp_path / "out").exists()

    def test_simulate_is_a_parameter_error(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run("simulate", "--params-json", json.dumps(self.PAYLOAD),
                   "--n", "3", "--seed", "1", "--out", str(out)) == EXIT_FEASIBILITY
        assert not out.exists()


class TestFitDiagnostics:
    def test_fit_json_reports_evaluations_and_stop_reason(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        run("simulate", "--reference", "nig", "--n", "3000", "--seed", "8",
            "--out", str(data_csv))
        for model in ("normal", "nig"):
            for out in ("a", "b"):
                assert run("fit", "--model", model, "--input", str(data_csv), "--seed", "8",
                           "--out", str(tmp_path / out)) == EXIT_OK
            first = (tmp_path / "a" / f"fit_{model}.json").read_bytes()
            assert first == (tmp_path / "b" / f"fit_{model}.json").read_bytes()
        normal = read_json(tmp_path / "a" / "fit_normal.json")
        assert (normal["nfev"], normal["message"]) == (0, "closed form")
        nig = read_json(tmp_path / "a" / "fit_nig.json")
        assert nig["converged"] and 0 < nig["nfev"] <= 100
        assert isinstance(nig["message"], str) and nig["message"]

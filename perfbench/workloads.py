"""The three workloads: their inputs, operations and output checks.

``fit`` and ``simulate_validate`` run CLI operations, each a fresh
``python -m levypremium.cli`` process, one at a time.  ``calibrate`` calls
``levypremium.premium.calibrate_crra`` in-process, one call at a time.  A
*pass* runs every operation of a workload once.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import genin
import spans

HERE = Path(__file__).resolve().parent
NONCONVERGED = 5   # documented CLI exit code: fit did not converge, outputs written
# Accuracy of outputs against references, reported with the per-layer metrics;
# 0 on workloads that do not produce the output.
QUALITY_UNITS = {"estimation.loglik_gap_nats": "nats", "inversion.cdf_abs_err": "prob"}


@dataclass
class OpRecord:
    """One timed operation.  ``status`` is "ok", "nonconverged" (exit 5 with
    a well-formed fit JSON: failed, but not wrong) or a failure reason."""

    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: str
    spans: list = field(default_factory=list, repr=False)


# --------------------------------------------------------------------------
# CLI workloads
# --------------------------------------------------------------------------


@dataclass
class CliOp:
    name: str
    argv: list
    check: object          # callable(outdir, exit_code) -> None | str
    out_name: str = ""     # --out is the op directory, or this file in it


class CliWorkload:
    """Operations that each start ``python -m levypremium.cli``."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.ops: list[CliOp] = []

    def warm_up(self) -> None:
        """Compile the package's bytecode and fill the file cache, untimed."""
        subprocess.run([sys.executable, "-c", "import levypremium.cli"], env=self.env,
                       cwd=self.workdir, check=True, timeout=120)

    def run_pass(self, traced: bool = False) -> list[OpRecord]:
        return [self._run(i, op, traced) for i, op in enumerate(self.ops)]

    def _run(self, index: int, op: CliOp, traced: bool) -> OpRecord:
        outdir = self.workdir / f"op{index}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        argv = [*op.argv, "--out", str(outdir / op.out_name)]
        span_file = outdir.parent / f"op{index}.spans.jsonl"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_op.py"), str(span_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "levypremium.cli", *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(outdir.parent / f"op{index}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
        if exit_code < 0:
            result = f"killed by signal {-exit_code} (deadline {timeout:.0f} s)"
        else:
            result = op.check(outdir, exit_code)
            if result is None:
                result = "ok"
        record = OpRecord(op.name, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, result)
        if traced and span_file.is_file():
            record.spans = spans.read_spans(span_file)
        return record


class FitWorkload(CliWorkload):
    """CLI ``fit`` over six inputs spanning n, tail weight and input kind."""

    def setup(self, seed: int) -> None:
        w = self.workdir
        self.gaps: dict[str, float] = {}
        nig = genin.nig_draws(genin.rng_for(seed, 1), 100_000)
        ncig = genin.ncig_draws(genin.rng_for(seed, 2), 100_000)
        ridge = genin.ridge_normal_quantiles(10_000)
        levels = genin.write_levels(
            w / "levels.csv", genin.nig_draws(genin.rng_for(seed, 4), genin.LEVELS_MONTHS))
        genin.write_values(w / "nig_1e5.csv", nig)
        genin.write_values(w / "ncig_1e5.csv", ncig)
        genin.write_values(w / "ridge_1e4.csv", ridge)
        monthly = np.diff(np.log(levels))
        dated = ["--input", "levels.csv", "--input-kind", "levels",
                 "--schema", genin.LEVELS_SCHEMA]
        # (name, model, input flags, data the CLI sees, drawn from the NIG reference)
        plan = [
            ("normal_on_nig_1e5", "normal", ["--input", "nig_1e5.csv"], nig, True),
            ("nig_on_nig_1e5", "nig", ["--input", "nig_1e5.csv"], nig, True),
            ("ncig_on_ncig_1e5", "ncig", ["--input", "ncig_1e5.csv"], ncig, False),
            ("nig_on_ridge_1e4", "nig", ["--input", "ridge_1e4.csv"], ridge, False),
            ("nig_on_levels_1200", "nig", dated, monthly, True),
            ("ncig_on_levels_1200", "ncig", dated, monthly, True),
        ]
        self.ops = [CliOp(f"fit.{name}", ["fit", "--model", model, *flags, "--seed", str(seed)],
                          self._checker(name, model, data, nig_data))
                    for name, model, flags, data, nig_data in plan]

    def _checker(self, name, model, data, nig_data):
        def reference_loglik() -> float:
            # A NIG fit should reach the nested normal MLE and, on NIG data,
            # the likelihood of the generating parameters.
            ref = checks.normal_mle_loglik(data)
            if nig_data:
                ref = max(ref, float(np.sum(checks.scipy_nig(genin.NIG_REF).logpdf(data))))
            return ref

        def check(outdir: Path, exit_code: int):
            if exit_code not in (0, NONCONVERGED):
                return f"exit {exit_code}"
            path = outdir / f"fit_{model}.json"
            if not path.is_file():
                return f"no {path.name}"
            payload = json.loads(path.read_text(encoding="utf-8"))
            reason = checks.check_fit(payload, model, exit_code, data)
            if reason is None and model == "nig":
                self.gaps[name] = max(0.0, reference_loglik() - checks.fit_loglik(payload))
            if reason is None and exit_code == NONCONVERGED:
                return "nonconverged"
            return reason
        return check

    def quality_metrics(self) -> dict[str, float]:
        """Summed over the NIG fits."""
        return {"estimation.loglik_gap_nats": sum(self.gaps.values())}


class SimulateValidateWorkload(CliWorkload):
    """CLI ``validate`` against the generating parameters, and ``simulate``."""

    def setup(self, seed: int) -> None:
        w = self.workdir
        genin.write_values(w / "normal_100.csv", genin.normal_draws(genin.rng_for(seed, 5), 100))
        genin.write_values(w / "ncig_1200.csv", genin.ncig_draws(genin.rng_for(seed, 6), 1200))
        genin.write_values(w / "nig_5000.csv", genin.nig_draws(genin.rng_for(seed, 7), 5000))
        genin.write_levels(w / "levels.csv",
                           genin.nig_draws(genin.rng_for(seed, 4), genin.LEVELS_MONTHS))
        for model, params in genin.REFERENCE.items():
            genin.write_fit_json(w / f"truth_{model}.json", model, params)
        dated = ["--input", "levels.csv", "--input-kind", "levels",
                 "--schema", genin.LEVELS_SCHEMA]
        plan = [
            ("normal_100", "normal", ["--input", "normal_100.csv"], 100),
            ("nig_levels_1200", "nig", dated, genin.LEVELS_MONTHS),
            ("ncig_1200", "ncig", ["--input", "ncig_1200.csv"], 1200),
            ("nig_5000", "nig", ["--input", "nig_5000.csv"], 5000),
        ]
        self.cdf_errors: dict[str, float] = {}
        ops = [CliOp(f"validate.{name}", ["validate", "--fit", f"truth_{model}.json", *flags],
                     self._validate_checker(name, model, n))
               for name, model, flags, n in plan]
        sim_n = 100_000
        ops.append(CliOp(
            "simulate.ncig_1e5",
            ["simulate", "--reference", "ncig", "--n", str(sim_n),
             "--seed", str(int(genin.rng_for(seed, 8).integers(2 ** 31)))],
            self._simulate_checker(sim_n), out_name="draws.csv"))
        self.ops = ops

    def _validate_checker(self, name, model, n):
        def check(outdir: Path, exit_code: int):
            if exit_code != 0:
                return f"exit {exit_code}"
            reason = checks.check_validate(outdir, model, n)
            if reason is None and model != "ncig":
                self.cdf_errors[name] = checks.cdf_abs_err(outdir, model, genin.REFERENCE[model])
            return reason
        return check

    def _simulate_checker(self, n):
        def check(outdir: Path, exit_code: int):
            if exit_code != 0:
                return f"exit {exit_code}"
            return checks.check_simulate(outdir / "draws.csv", n, genin.NCIG_REF)
        return check

    def quality_metrics(self) -> dict[str, float]:
        return {"inversion.cdf_abs_err": max(self.cdf_errors.values(), default=0.0)}


# --------------------------------------------------------------------------
# In-process calibration
# --------------------------------------------------------------------------

# Targets are annual log premia, divided by 12 as monthly targets.  For NIG
# and NCIG they are fractions of the set's attainable maximum, 36 below it and
# 12 above it, so every seed has the same mix of feasible and infeasible
# calls.  The normal model has no maximum; its grid stops where a ~ 5e4
# (from a ~ 5e5 on, calibrate_crra's absolute 1e-10 bisection tolerance is
# below the float spacing of a and the call never returns).
FEASIBLE_FRACTIONS = np.geomspace(1e-3, 0.95, 36)
INFEASIBLE_FRACTIONS = np.geomspace(1.05, 20.0, 12)
NORMAL_ANNUAL_TARGETS = np.geomspace(1e-3, 100.0, 48)
PERTURBED_SETS = 10                            # per heavy-tailed family


def annual_targets(model: str, params: dict) -> np.ndarray:
    if model == "normal":
        return NORMAL_ANNUAL_TARGETS
    a_max = checks.crra_max(model, params)
    attainable = 12.0 * checks.log_premium(model, params, a_max)
    return attainable * np.concatenate([FEASIBLE_FRACTIONS, INFEASIBLE_FRACTIONS])


class CalibrateWorkload:
    """``calibrate_crra`` over reference and perturbed parameter sets crossed
    with a grid of 48 annual targets, a quarter of them above the feasible
    maximum."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        # In-process calls cannot be cut short, so the deadline goes unused;
        # the run stops starting passes after --seconds.
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.calls: list = []

    def warm_up(self) -> None:
        sys.path.insert(0, str(self.root / "src"))
        from levypremium import errors, models, premium
        self.errors, self.models, self.premium = errors, models, premium

    def setup(self, seed: int) -> None:
        """Inputs, plus the package import in a fresh interpreter."""
        rng = genin.rng_for(seed, 9)
        sets = list(genin.REFERENCE.items())
        sets += [("nig", genin.perturbed_nig(rng)) for _ in range(PERTURBED_SETS)]
        sets += [("ncig", genin.perturbed_ncig(rng)) for _ in range(PERTURBED_SETS)]
        types = {"normal": self.models.NormalParams, "nig": self.models.NigParams,
                 "ncig": self.models.NcigParams}
        self.calls = [(f"calibrate.{model}{i}.{k}", model, params, types[model](**params),
                       float(target) / 12.0)
                      for i, (model, params) in enumerate(sets)
                      for k, target in enumerate(annual_targets(model, params))]
        subprocess.run([sys.executable, "-c", "import levypremium"], env=self.env,
                       cwd=self.workdir, check=True, timeout=120)

    def run_pass(self, traced: bool = False) -> list[OpRecord]:
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            return [self._call(call, tracer) for call in self.calls]
        finally:
            if tracer:
                tracer.uninstall()

    def _call(self, call, tracer) -> OpRecord:
        name, model, params, obj, target = call
        first = len(tracer.spans) if tracer else 0
        a = error = None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            a = self.premium.calibrate_crra(target, 0.97, obj)
        except self.errors.CalibrationError:
            error = "CalibrationError"
        except self.errors.LevyPremiumError as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        reason = checks.check_calibration(model, params, target, a, error)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = OpRecord(name, wall, cpu, rss, reason or "ok")
        if tracer:
            record.spans = tracer.spans[first:]
        return record

    def quality_metrics(self) -> dict[str, float]:
        return {}


WORKLOADS = {
    "fit": FitWorkload,
    "simulate_validate": SimulateValidateWorkload,
    "calibrate": CalibrateWorkload,
}

"""levypremium benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workload's inputs are drawn from
``--seed``; the run sets them up at least five times and for at least a
second (``setup_s`` is the median), then runs passes over the workload's
operations, one operation at a time, while another pass fits in
``--seconds`` (at least one pass).  Every operation's output
is checked.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics from the spans of the traced one (see README.md).

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Earlier lines give the environment and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5           # at least, and until they take SETUP_MIN_S
SETUP_MIN_S = 1.0
RUN_LIMIT_S = 170.0          # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_s.p50": "s",
              "op_s.p99": "s", "op_s.max": "s", "peak_rss_mb": "MB"}


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools, here and in every child, at the core count."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        limit = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(limit)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc, "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed,
            "commit": git_commit(root)}


def percentile(values, q: float) -> float:
    import numpy
    return float(numpy.percentile(values, q))


def end_to_end(setup_times, passes) -> dict:
    """Pass totals and each operation's time are medians over passes; the
    percentiles run over operations."""
    median = statistics.median
    per_op = [median(p[i].wall_s for p in passes) for i in range(len(passes[0]))]
    return {
        "setup_s": median(setup_times),
        "wall_s": median(sum(r.wall_s for r in p) for p in passes),
        "cpu_s": median(sum(r.cpu_s for r in p) for p in passes),
        "op_s.p50": percentile(per_op, 50),
        "op_s.p99": percentile(per_op, 99),
        "op_s.max": max(per_op),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "simulate_validate", "calibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "levypremium" / "cli.py").is_file():
        print("perfbench: no levypremium sources under ./src; "
              "run from the repository root", file=sys.stderr)
        return 2
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    import spans
    import workloads

    base = root / ".perfbench_work"
    workdir = base / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](root, workdir, started + RUN_LIMIT_S)
        workload.warm_up()
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)

        passes = []
        if args.trace:
            passes = [workload.run_pass(), workload.run_pass(traced=True)]
        else:
            t0 = time.perf_counter()
            while True:
                passes.append(workload.run_pass())
                elapsed = time.perf_counter() - t0
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break

        records = [r for p in passes for r in p]
        failed = [r for r in records if r.status != "ok"]
        for r in failed:
            print(f"failed: {r.name}: {r.status}", file=sys.stderr)
        # A fit that exits 5 failed, but its outputs are right.
        correct = all(r.status == "nonconverged" for r in failed)

        if args.trace:
            sys.path.insert(0, str(root / "src"))
            traced = [r.spans for r in passes[1]]
            values, missing, gap = spans.layer_metrics(traced, spans.defined_names())
            overhead = sum(r.wall_s for r in passes[1]) - sum(r.wall_s for r in passes[0])
            values["trace.overhead_s"] = (overhead, "s")
            quality = dict.fromkeys(workloads.QUALITY_UNITS, 0.0)
            quality.update(workload.quality_metrics())
            for name, value in quality.items():
                values[name] = (value, workloads.QUALITY_UNITS[name])
            if gap > 1e-6:
                correct = False
                print(f"failed: layer self times miss the traced time by {gap:.3g} s",
                      file=sys.stderr)
            if missing:
                print("missing: " + json.dumps(missing))
            spans_out = base / f"trace_{args.workload}.jsonl"
            with open(spans_out, "w", encoding="utf-8") as handle:
                for r, op_spans in zip(passes[1], traced):
                    for s in op_spans:
                        handle.write(json.dumps({"op": r.name, **s}) + "\n")
        else:
            values = {k: (v, END_TO_END[k]) for k, v in end_to_end(setup_times, passes).items()}

        env = environment(root, args.seed, nproc)
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload}: {len(passes)} pass(es) of {len(passes[0])} "
              f"operations, {len(records)} attempted, {len(failed)} failed")
        for name, (value, unit) in values.items():
            print(f"{name} {value:.6g} {unit}")
        result = {
            "correct": correct,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }
        (base / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps({**result, "env": env,
                        "pass_wall_s": [sum(r.wall_s for r in p) for p in passes],
                        "failed_ops": [[r.name, r.status] for r in failed],
                        "last_pass": [[r.name, r.wall_s, r.cpu_s, r.rss_mb, r.status]
                                      for r in passes[-1][:20]]}, indent=1),
            encoding="utf-8")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

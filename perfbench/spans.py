"""Spans around calls into levypremium's public functions.

The tracer replaces each public function where its *consumer* module bound
it (``levypremium.estimation.nig_log_pdf``, ``levypremium.models.bessel_k1e``,
``levypremium.premium.log_premium``, ...) with a wrapper that records a span:
name, start, end and the id of the enclosing span.  Spans stay in memory and
are written as JSONL when the traced operation ends.  Nothing under ``src``
changes; the wrappers are removed again by :meth:`Tracer.uninstall`.

A span is named after the module that *defines* the function
(``models.nig_log_pdf``), so the first component of a name is its layer.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import time
import types

import numpy as np

PACKAGE = "levypremium"
LAYERS = ("cli", "data_io", "special", "models", "estimation", "inversion",
          "gof", "premium", "plots")
# Called by the benchmark itself, never wrapped.
UNWRAPPED = {("cli", "main")}


def _size_of(index):
    return lambda args, kwargs, result: {"points": int(np.size(args[index]))}


def _fit_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


# Per-call counts recorded on a span, keyed by span name.
PROBES = {
    "special.bessel_k1e": _size_of(0),
    "models.nig_log_pdf": _size_of(1),
    "models.ncig_chf": _size_of(1),
    "inversion.invert_chf": lambda a, k, r: {"n_points": int(a[1].n_points)},
    "inversion.log_likelihood_from_grid": _size_of(1),
    "inversion.cdf": _size_of(0),
    "inversion.quantile": _size_of(0),
    "data_io.load_csv": lambda a, k, r: {"rows": len(r)},
    "estimation.fit_normal_mle": _fit_attrs,
    "estimation.fit_nig_mle": _fit_attrs,
    "estimation.fit_ncig_ecf": _fit_attrs,
}
# Functions whose result is itself a function to trace, and its span name.
RETURNS_CALLABLE = {
    "inversion.cdf_function": "inversion.cdf",
    "inversion.quantile_function": "inversion.quantile",
}


class Tracer:
    """In-memory span recorder; one per traced process or traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list = [None]
        self._undo: list = []

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "parent": self._stack[-1], "name": name,
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        probe = PROBES.get(name)
        returned = RETURNS_CALLABLE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    rec.update(probe(args, kwargs, result))
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            return self.wrap(result, returned) if returned else result

        return traced

    def install(self) -> None:
        """Wrap every public package function in every layer's namespace."""
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or (layer, attr) in UNWRAPPED
                        or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith(PACKAGE + ".")):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                setattr(module, attr, self.wrap(value, name))
                self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def defined_names() -> set[str]:
    """Span names of all public functions the package defines right now."""
    names = set()
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                names.add(f"{layer}.{attr}")
    return names | {made for maker, made in RETURNS_CALLABLE.items() if maker in names}


# --------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass
# --------------------------------------------------------------------------

# (outer, inner): count `inner` spans that run inside an `outer` span.
NESTED = (("estimation.fit_nig_mle", "models.nig_log_pdf"),
          ("estimation.fit_ncig_ecf", "models.ncig_chf"),
          ("premium.calibrate_crra", "premium.log_premium"))
FITS = ("estimation.fit_normal_mle", "estimation.fit_nig_mle", "estimation.fit_ncig_ecf")
FIELDS = ("points", "n_points", "rows", "iterations", "converged")


def _stat(name, field):
    return lambda s, n: s[name][field]


def _nested(outer, inner):
    return lambda s, n: n[(outer, inner)]


def _ratio(num, den):
    return lambda s, n: num(s, n) / den(s, n) if den(s, n) else 0.0


def _fit_total(field):
    return lambda s, n: sum(s[f][field] for f in FITS)


def _per_name(name, unit_fields):
    return [(f"{name}.{field}", unit, (name,), _stat(name, key))
            for field, unit, key in unit_fields]


_CALLS = ("calls", "count", "calls")
_SELF = ("self_s", "s", "self_s")
_BUSY = ("busy_s", "s", "busy_s")
_POINTS = ("points", "count", "points")

# (metric, unit, span names it needs, getter(stats, nested counts)).
LAYER_METRICS = [
    ("cli.import_s", "s", (), _stat("cli.import", "busy_s")),
    ("cli.fit.self_s", "s", (), _stat("cli.fit", "self_s")),
    ("cli.validate.self_s", "s", (), _stat("cli.validate", "self_s")),
    ("cli.simulate.self_s", "s", (), _stat("cli.simulate", "self_s")),
    *_per_name("special.bessel_k1e", (_CALLS, _POINTS, _SELF)),
    *_per_name("models.nig_log_pdf", (_CALLS, _POINTS, _SELF)),
    *_per_name("estimation.fit_nig_mle", (_BUSY, _SELF, ("iterations", "count", "iterations"))),
    ("estimation.fit_nig_mle.nfev", "count", NESTED[0], _nested(*NESTED[0])),
    *_per_name("models.ncig_chf", (_CALLS, _POINTS, _SELF)),
    *_per_name("estimation.fit_ncig_ecf", (_BUSY, _SELF, ("iterations", "count", "iterations"))),
    ("estimation.fit_ncig_ecf.chf_evals", "count", NESTED[1], _nested(*NESTED[1])),
    *_per_name("estimation.default_ecf_config", (_BUSY,)),
    *_per_name("estimation.moment_init_ncig", (_BUSY,)),
    ("estimation.fits", "count", FITS, _fit_total("calls")),
    ("estimation.converged_frac", "ratio", FITS,
     _ratio(_fit_total("converged"), _fit_total("calls"))),
    *_per_name("inversion.invert_chf", (_CALLS, ("n_points", "count", "n_points"), _SELF)),
    *_per_name("inversion.log_likelihood_from_grid", (_CALLS, _POINTS, _SELF)),
    *_per_name("inversion.quantile", (_POINTS, _SELF)),
    *_per_name("inversion.cdf", (_POINTS, _SELF)),
    *_per_name("models.nig_chf", (_CALLS, _SELF)),
    *_per_name("gof.frosini_test", (_BUSY,)),
    *_per_name("gof.ks_test_uniform", (_BUSY,)),
    *_per_name("gof.neyman_smooth_test", (_BUSY,)),
    *_per_name("gof.pit", (_BUSY,)),
    *_per_name("gof.qq_pp_data", (_SELF,)),
    *_per_name("premium.calibrate_crra", (_CALLS, _SELF, ("unattainable", "count", "unattainable"))),
    *_per_name("premium.feasible_crra_max", (_CALLS, _BUSY)),
    *_per_name("premium.log_premium", (_CALLS,)),
    ("premium.log_premium_per_calibration", "count", NESTED[2],
     _ratio(_nested(*NESTED[2]), _stat("premium.calibrate_crra", "calls"))),
    *_per_name("models.nig_mgf_log", (_CALLS, _SELF)),
    *_per_name("models.ncig_mgf_log", (_CALLS, _SELF)),
    *_per_name("data_io.load_csv", (("rows", "count", "rows"), _BUSY)),
    *_per_name("data_io.log_growth", (_BUSY,)),
    *_per_name("plots.scatter_svg", (_BUSY,)),
    *_per_name("plots.histogram_svg", (_BUSY,)),
    *_per_name("models.ncig_sample", (_SELF,)),
    *[(f"layer.{layer}.self_s", "s", (), (lambda s, n, layer=layer: s["#layer"][layer]))
      for layer in LAYERS],
    ("trace.op_s", "s", (), _stat("#root", "busy_s")),
]


def summarize(ops: list[list[dict]]) -> tuple[dict, dict, float]:
    """Per-span-name totals over operations, nested counts, and the largest
    per-operation gap between the summed self times and the root spans."""
    stats: dict = collections.defaultdict(lambda: collections.defaultdict(float))
    nested: dict = collections.defaultdict(int)
    worst = 0.0
    for op in ops:
        by_id = {s["id"]: s for s in op}
        child = collections.defaultdict(float)
        for s in op:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child[s["parent"]] += s["dur"]
        above: dict = {}
        self_total = root_total = 0.0
        for s in op:
            parent = s["parent"]
            if parent is None or parent not in by_id:
                ancestors = frozenset()
                root_total += s["dur"]
                stats["#root"]["busy_s"] += s["dur"]
            else:
                ancestors = above[parent] | {by_id[parent]["name"]}
            above[s["id"]] = ancestors
            name = s["name"]
            self_s = s["dur"] - child[s["id"]]
            self_total += self_s
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += self_s
            if name not in ancestors:
                st["busy_s"] += s["dur"]
            for key in FIELDS:
                st[key] += s.get(key, 0)
            if s.get("error") == "CalibrationError":
                st["unattainable"] += 1
            stats["#layer"][name.split(".", 1)[0]] += self_s
            for outer, inner in NESTED:
                if name == inner and outer in ancestors:
                    nested[(outer, inner)] += 1
        worst = max(worst, abs(self_total - root_total))
    return stats, nested, worst


def layer_metrics(ops: list[list[dict]], present: set) -> tuple[dict, list, float]:
    """Every per-layer metric whose spans the package still defines, the
    names of those it does not (reported as missing, not as zero), and the
    self-time accounting gap."""
    stats, nested, worst = summarize(ops)
    values, missing = {}, []
    for metric, unit, needs, get in LAYER_METRICS:
        if any(name not in present for name in needs):
            missing.append(metric)
        else:
            values[metric] = (float(get(stats, nested)), unit)
    return values, missing, worst

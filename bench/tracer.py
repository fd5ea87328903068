"""In-memory span tracer around mfhxa's public functions.

`Tracer.install()` replaces each traced function by a wrapper in every mfhxa
module namespace that holds a reference to it, because `cli` and `tables`
import names directly. A span is (name, start, end, parent); its scope is
the outermost span it runs under, which is one verdict or one CLI command.
Spans stay in flat integer arrays until the run ends. A span's self time is
its duration minus the time its child spans cover, so the self times of all
layers plus the time outside every span add up to the traced wall time.

Counts are taken from call arguments and results in the wrapper, after the
span's end time is read. `fit_hurst_single` inside `jackknife_hurst` is not
spanned, to keep the tracing overhead small; the windows it fits are counted
from the config instead.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

import mfhxa
from mfhxa import cli, csvio, estimator, generators, series, tables

MODULES = (mfhxa, generators, series, estimator, csvio, tables, cli)

LAYERS = {
    "generators": (generators, ("arfima_weights", "generate_mbm", "correlated_noise_pair",
                                "generate_arfima", "generate_two_component")),
    "series": (series, ("tau_increments", "subsample", "accumulate", "log_returns",
                        "absolute_returns", "volume_relative_deviation")),
    "estimator.kernel": (estimator, ("covariance_grid", "height_covariance",
                                     "scaling_decomposition")),
    "estimator.fit": (estimator, ("jackknife_hurst", "hurst_curve_from_grid",
                                  "fit_hurst_single", "student_t_quantile")),
    "estimator.verdict": (estimator, ("cross_persistence_verdict",)),
    "csvio.read": (csvio, ("read_columns", "read_series")),
    "csvio.write": (csvio, ("write_csv", "write_table")),
    "tables": (tables, ("write_grid", "write_curve", "write_pair_curves",
                        "write_decomposition", "config_comments")),
    "cli": (cli, ("main",)),
}
NOT_SPANNED = {(estimator, "fit_hurst_single")}

PER_CALL = ("generate_arfima", "generate_two_component", "covariance_grid",
            "hurst_curve_from_grid", "cross_persistence_verdict", "read_columns",
            "write_csv")


def _kernel(tracer, x, y, qs, taus) -> None:
    n = len(x)
    tracer.count["estimator.kernel.cells"] += len(qs) * len(taus)
    tracer.count["estimator.kernel.elements"] += len(qs) * sum(n - tau for tau in taus)
    tracer.increments(x, y, taus)


COUNTERS = {
    "generate_mbm": lambda t, r, config: t.add("generators.samples", 2**config.k),
    "correlated_noise_pair": lambda t, r, config: t.add("generators.samples", 2 * config.length),
    "generate_arfima": lambda t, r, config, noise=None: t.add(
        "generators.samples", config.burn_in + config.length),
    "generate_two_component": lambda t, r, config, noise=None: t.add(
        "generators.samples", 2 * (config.burn_in + config.length)),
    "covariance_grid": lambda t, r, x, y, config: _kernel(t, x, y, config.q_grid, config.taus),
    "height_covariance": lambda t, r, x, y, q, tau, filter="none": _kernel(t, x, y, (q,), (tau,)),
    "scaling_decomposition": lambda t, r, x, y, q, config: _kernel(t, x, y, (q,), config.taus),
    "jackknife_hurst": lambda t, r, grid, q, config: t.add(
        "estimator.fit.windows", len(config.tau_maxes)),
    "fit_hurst_single": lambda t, r, *a, **k: t.add("estimator.fit.windows", 1),
    "read_columns": lambda t, r, path: (t.add("csvio.read.rows", len(r[1][0])),
                                        t.add("csvio.read.bytes", os.path.getsize(path))),
    "write_csv": lambda t, r, path, comments, names, columns, dates=None: (
        t.add("csvio.write.rows", len(columns[0])),
        t.add("csvio.write.bytes", os.path.getsize(path))),
    "write_table": lambda t, r, path, comments, names, rows: (
        t.add("csvio.write.rows", len(rows)),
        t.add("csvio.write.bytes", os.path.getsize(path))),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.scope = array("q")
        self.name_id = array("q")
        self.stack: list[int] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.increments_computed = 0
        self.increments_distinct = 0
        self._scope_taus: dict[int, tuple] = {}
        self._saved: list[tuple] = []

    def add(self, key: str, n: int) -> None:
        self.count[key] += n

    def increments(self, x, y, taus) -> None:
        """Record the lag-tau increment arrays a kernel call computes for x and y."""
        self.increments_computed += 2 * len(taus)
        for s in (x, y):
            entry = self._scope_taus.get(id(s.values))
            if entry is None:
                entry = self._scope_taus[id(s.values)] = (s.values, set())
            entry[1].update(taus)

    def _close_scope(self) -> None:
        self.increments_distinct += sum(len(taus) for _, taus in self._scope_taus.values())
        self._scope_taus.clear()

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        counter = COUNTERS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.scope.append(stack[0] if stack else idx)
            self.end.append(0)
            stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[idx] = perf_counter_ns()
                self.errors[name] += 1
                raise
            else:
                self.end[idx] = perf_counter_ns()
                if counter is not None:
                    counter(self, result, *args, **kwargs)
                return result
            finally:
                stack.pop()
                if not stack:
                    self._close_scope()

        return traced

    def install(self) -> None:
        for layer, (home, names) in LAYERS.items():
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(fn, name, layer)
                for module in MODULES:
                    if getattr(module, name, None) is fn and (module, name) not in NOT_SPANNED:
                        self._saved.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def self_times(self) -> tuple[list[int], list[int]]:
        """(duration, self time) of every span, in nanoseconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def metrics(self, items: int, traced_ns: int, untraced_ns: int) -> tuple[dict, dict]:
        """Per-layer metrics (per item, or per call for call.*) and a summary."""
        dur, own = self.self_times()
        busy: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        per_call: dict[str, list[int]] = defaultdict(list)
        decomposition = 0
        top = 0
        for i, nid in enumerate(self.name_id):
            name, layer = self.names[nid], self.layer_of[nid]
            busy[layer] += own[i]
            calls[layer] += 1
            per_call[name].append(dur[i])
            if name == "scaling_decomposition":
                decomposition += dur[i]
            if self.parent[i] < 0:
                top += dur[i]
        unattributed = traced_ns - top

        def per_item(v, unit):
            return {"value": v / items, "unit": unit}

        def seconds(ns):
            return per_item(ns / 1e9, "s/item")

        out = {
            "generators.busy_s": seconds(busy["generators"]),
            "generators.calls": per_item(calls["generators"], "count/item"),
            "generators.samples": per_item(self.count["generators.samples"], "count/item"),
            "series.busy_s": seconds(busy["series"]),
            "estimator.kernel.busy_s": seconds(busy["estimator.kernel"]),
            "estimator.kernel.calls": per_item(calls["estimator.kernel"], "count/item"),
            "estimator.kernel.cells": per_item(self.count["estimator.kernel.cells"],
                                               "count/item"),
            "estimator.kernel.elements": per_item(self.count["estimator.kernel.elements"],
                                                  "count/item"),
            "estimator.kernel.increment_reuse": {
                "value": (self.increments_distinct / self.increments_computed
                          if self.increments_computed else 1.0),
                "unit": "ratio"},
            "estimator.fit.busy_s": seconds(busy["estimator.fit"]),
            "estimator.fit.windows": per_item(self.count["estimator.fit.windows"],
                                              "count/item"),
            "estimator.fit.failed_q": per_item(self.errors["jackknife_hurst"], "count/item"),
            "estimator.verdict.self_s": seconds(busy["estimator.verdict"]),
            "estimator.decomposition.busy_s": seconds(decomposition),
            "csvio.read.busy_s": seconds(busy["csvio.read"]),
            "csvio.read.rows": per_item(self.count["csvio.read.rows"], "count/item"),
            "csvio.read.bytes": per_item(self.count["csvio.read.bytes"], "B/item"),
            "csvio.write.busy_s": seconds(busy["csvio.write"]),
            "csvio.write.rows": per_item(self.count["csvio.write.rows"], "count/item"),
            "csvio.write.bytes": per_item(self.count["csvio.write.bytes"], "B/item"),
            "tables.busy_s": seconds(busy["tables"]),
            "cli.self_s": seconds(busy["cli"]),
            "trace.unattributed_s": seconds(unattributed),
            "trace.overhead_ratio": {"value": traced_ns / untraced_ns - 1.0, "unit": "ratio"},
        }
        for name in PER_CALL:
            d = per_call.get(name)
            out[f"call.{name}.p50_ms"] = {"value": median(d) / 1e6 if d else 0.0,
                                          "unit": "ms"}
        summary = {
            "items": items,
            "spans": len(self.start),
            "traced_wall_ns": traced_ns,
            "untraced_wall_ns": untraced_ns,
            "layer_self_ns": dict(sorted(busy.items())),
            "unattributed_ns": unattributed,
            "layer_share": {k: v / traced_ns for k, v in sorted(busy.items())},
            "calls": {name: len(d) for name, d in sorted(per_call.items())},
            "errors": dict(self.errors),
        }
        return out, summary

    def write(self, path) -> None:
        """Write one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, nid in enumerate(self.name_id):
                fh.write(json.dumps({
                    "id": i, "name": self.names[nid], "layer": self.layer_of[nid],
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i], "scope": self.scope[i],
                }) + "\n")

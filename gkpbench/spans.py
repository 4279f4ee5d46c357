"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each gkpforge layer, and
numpy.linalg.svd, at every module attribute through which callers look
them up: `cli` and `montecarlo` bind their dependencies with
`from ... import`, so patching only the defining module would miss their
calls. Each call records one span (id, name, start, end, parent id,
operation id) in memory; the spans are written to a JSON file when the
run ends, and per-layer self time is a span's duration minus the
durations of its direct children.

Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import numpy as np

# layer module -> public functions whose calls are layer boundaries
TRACED = {
    "cli": ("main",),
    "resources": ("resource_path", "sha256_of"),
    "nucdata": ("load_chain", "partition"),
    "barriers": ("load_anchors", "build_budget", "signal_band", "qed_correction"),
    "budget": ("chi_bound", "chi_bound_from_extraction", "load_milestones", "milestone_lookup",
               "ramsey_plan"),
    "gkp": ("load_coefficients", "build_design", "precondition", "condition_number", "extract",
            "solvable", "solvability_verdict"),
    "montecarlo": ("load_sampling_spec", "kappa_draws", "sample_kappa", "injection_recovery"),
    "angular": ("wigner_6j", "hfs_e2_levels", "centroid", "default_channels"),
}

# upper edges of the 6j cost buckets, by the largest doubled argument
SIXJ_BUCKETS = (9, 21, 49, 99)


def _triangle_zero(args) -> bool:
    t = [int(2 * Fraction(a)) for a in args]
    triads = ((t[0], t[1], t[2]), (t[0], t[4], t[5]), (t[3], t[1], t[5]), (t[3], t[4], t[2]))
    return any(not (abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0) for a, b, c in triads)


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op_id))
            if after is not None and self.op_id >= 0:
                after(args, kwargs, result)
            return result

        return traced

    def _count_svd(self, args, kwargs, result):
        a = np.asarray(args[0])
        self.counters["linalg.svd.matrices"] += math.prod(a.shape[:-2])
        self.counters["linalg.svd.bytes_in"] += a.nbytes

    def _count_kappa_draws(self, args, kwargs, result):
        n = result[0].size
        excluded = float(result[1])
        self.counters["montecarlo.draws_computed"] += n
        self.counters["montecarlo.draws_proposed"] += n / (1.0 - excluded)

    def _count_sha(self, args, kwargs, result):
        self.counters["resources.sha256_of.bytes"] += os.path.getsize(args[0])

    def _count_sixj(self, args, kwargs, result):
        # early-exit zeros get their own span name so that the size
        # buckets time only full Racah sums
        if result == 0.0 and _triangle_zero(args):
            label = "zero"
        else:
            twice_max = 2 * max(args)
            label = next((b for b in SIXJ_BUCKETS if twice_max <= b), "inf")
        self.spans[-1] = self.spans[-1][:1] + (f"angular.wigner_6j.{label}",) + self.spans[-1][2:]

    def install(self) -> None:
        from gkpforge import angular, barriers, budget, cli, gkp, montecarlo, nucdata, resources

        modules = {"cli": cli, "resources": resources, "nucdata": nucdata, "barriers": barriers,
                   "budget": budget, "gkp": gkp, "montecarlo": montecarlo, "angular": angular}
        after = {
            "montecarlo.kappa_draws": self._count_kappa_draws,
            "resources.sha256_of": self._count_sha,
            "angular.wigner_6j": self._count_sixj,
        }
        bindings = list(modules.values())
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, after.get(name))
                for module in bindings:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)
        svd = np.linalg.svd
        self._patched.append((np.linalg, "svd", svd))
        np.linalg.svd = self._wrap("linalg.svd", svd, self._count_svd)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- reporting -------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": self.spans},
                      handle, separators=(",", ":"))

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds,
        counting only spans that belong to a timed operation."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _, op in self.spans:
            if op < 0:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return totals


def per_layer_metrics(tracer: Tracer, units: int, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.

    `units` is the number of work units the pass completed: condition
    commands, injection trials, CLI requests or angular evaluations. A
    layer the workload never reaches reports zero.
    """
    totals = tracer.layer_totals()
    c = tracer.counters

    def entry(name):
        return totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_op(value):
        return value / units

    def us_per_call(name):
        e = entry(name)
        return e["total_s"] / e["calls"] * 1e6 if e["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    sixj_calls = sum(e["calls"] for name, e in totals.items() if name.startswith("angular.wigner_6j."))

    kd = entry("montecarlo.kappa_draws")
    m = {
        "linalg.svd.calls_per_op": (per_op(entry("linalg.svd")["calls"]), "count"),
        "linalg.svd.matrices_per_op": (per_op(c["linalg.svd.matrices"]), "count"),
        "linalg.svd.self_ms": (per_op(entry("linalg.svd")["self_s"]) * 1e3, "ms"),
        "linalg.svd.bytes_in_computed": (per_op(c["linalg.svd.bytes_in"]), "B"),
        "montecarlo.kappa_draws.calls_per_op": (per_op(kd["calls"]), "count"),
        "montecarlo.kappa_draws.ns_per_draw": (ratio(kd["total_s"] * 1e9, c["montecarlo.draws_computed"]), "ns"),
        "montecarlo.kappa_draws.useful_ratio": (ratio(extra.get("draws_reported", 0), c["montecarlo.draws_computed"]), "ratio"),
        "montecarlo.draw_acceptance": (ratio(c["montecarlo.draws_computed"], c["montecarlo.draws_proposed"]), "ratio"),
        "montecarlo.injection_recovery.self_us_per_trial": (
            ratio(entry("montecarlo.injection_recovery")["self_s"] * 1e6, extra.get("trials", 0)), "us"),
        "gkp.extract.calls_per_op": (per_op(entry("gkp.extract")["calls"]), "count"),
        "gkp.extract.us_per_call": (us_per_call("gkp.extract"), "us"),
        "gkp.condition_number.calls_per_op": (per_op(entry("gkp.condition_number")["calls"]), "count"),
        "gkp.precondition.calls_per_op": (per_op(entry("gkp.precondition")["calls"]), "count"),
        "gkp.build_design.us_per_call": (us_per_call("gkp.build_design"), "us"),
        "budget.chi_bound.calls_per_op": (per_op(entry("budget.chi_bound")["calls"]), "count"),
        "budget.chi_bound.self_ms": (per_op(entry("budget.chi_bound")["self_s"]) * 1e3, "ms"),
        "budget.ramsey_plan.us_per_call": (us_per_call("budget.ramsey_plan"), "us"),
        "budget.milestone_lookup.us_per_call": (us_per_call("budget.milestone_lookup"), "us"),
        "barriers.build_budget.us_per_call": (us_per_call("barriers.build_budget"), "us"),
        "barriers.load_anchors.us_per_call": (us_per_call("barriers.load_anchors"), "us"),
        "barriers.signal_band.us_per_call": (us_per_call("barriers.signal_band"), "us"),
        "resources.sha256_of.calls_per_op": (per_op(entry("resources.sha256_of")["calls"]), "count"),
        "resources.sha256_of.bytes_hashed": (per_op(c["resources.sha256_of.bytes"]), "B"),
        "resources.resource_path.us_per_call": (us_per_call("resources.resource_path"), "us"),
        "nucdata.load_chain.us_per_call": (us_per_call("nucdata.load_chain"), "us"),
        "cli.main.self_ms": (per_op(entry("cli.main")["self_s"]) * 1e3, "ms"),
        "angular.wigner_6j.triangle_zero_fraction": (ratio(entry("angular.wigner_6j.zero")["calls"], sixj_calls), "ratio"),
        "angular.hfs_e2_levels.us_per_call": (us_per_call("angular.hfs_e2_levels"), "us"),
    }
    for b in SIXJ_BUCKETS:
        m[f"angular.wigner_6j.us_per_call.2j_le_{b}"] = (us_per_call(f"angular.wigner_6j.{b}"), "us")
    return m

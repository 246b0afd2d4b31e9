"""Span tracer for the benchmark's traced runs, installed from outside the package.

Every public function defined in a dnlslab layer module, and the Trajectory
constructor and methods, is replaced by a wrapper wherever it is bound: in its
own module, in every dnlslab module that imported it by name (``to_physical``
in ``gauge``, say) and in the package namespace.  A wrapper records one span per
call: function, start, end, parent span and request id.  Spans stay in memory,
in flat arrays, until ``Tracer.profile`` reduces them at the end of the run.

Self time is a span's duration minus the durations of its direct child spans,
so time spent in private helpers counts towards the public function that
called them.  The counts in ``EXACT`` are computed from call counts and
argument and result sizes, and repeat exactly for the same requests.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("fields", "nonlinear", "solver", "gauge", "norms", "estimates", "reports", "cli")
TRAJECTORY_METHODS = ("__init__", "coeff_matrix", "windowed", "map_samples", "sup_l2_distance")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# counters computed from sizes: function -> (args, kwargs, result) -> {counter: amount}
COUNTERS = {
    "fields.to_physical": lambda a, k, r: {"transform_points": _arg(a, k, 1, "gridsize")},
    "fields.from_physical": lambda a, k, r: {"transform_points": len(_arg(a, k, 0, "samples"))},
    "solver.picard_solve": lambda a, k, r: {
        "picard_iterations": r.iterations,
        "useful_forcing": r.iterations * (_arg(a, k, 1, "cfg").steps + 1),
    },
    "norms.space_time_transform": lambda a, k, r: {
        "st_transform_points": _arg(a, k, 1, "pad_factor", 4)
        * (_arg(a, k, 0, "traj").steps + 1) * (2 * _arg(a, k, 0, "traj").cutoff + 1),
    },
    "estimates.resonance_weighted_sum": lambda a, k, r: {
        "lattice_points": (2 * _arg(a, k, 4, "truncation") + 1) ** 2,
    },
    "estimates.near_diagonal_scan": lambda a, k, r: {"divisor_r_scanned": _arg(a, k, 0, "limit")},
    "reports.write_json": lambda a, k, r: {"bytes_written": os.path.getsize(r)},
    "reports.write_csv": lambda a, k, r: {"bytes_written": os.path.getsize(r)},
    "reports.save_trajectory": lambda a, k, r: {"bytes_written": os.path.getsize(r)},
    "reports.save_field": lambda a, k, r: {"bytes_written": os.path.getsize(r)},
    "reports.load_trajectory": lambda a, k, r: {"bytes_read": os.path.getsize(_arg(a, k, 0, "path"))},
    "reports.load_field": lambda a, k, r: {"bytes_read": os.path.getsize(_arg(a, k, 0, "path"))},
}

# function groups whose calls or self time are reported together
GROUPS = {
    "transform": ("fields.to_physical", "fields.from_physical"),
    "product": ("fields.physical_product",),
    "ensemble": ("fields.random_field", "fields.random_trajectory"),
    "trajectory": tuple(f"fields.Trajectory.{m}" for m in TRAJECTORY_METHODS),
    "forcing": ("nonlinear.dnls_forcing", "nonlinear.cubic_physical",
                "nonlinear.quintic_physical", "nonlinear.mean_shifted_cubic"),
    "restricted": ("nonlinear.cubic_restricted", "nonlinear.cubic_full", "nonlinear.cubic_diagonal",
                   "nonlinear.product_restricted", "nonlinear.quintic_restricted"),
    "forcing_field": ("solver.forcing_field",),
    "integral_residual": ("solver.integral_residual",),
    "gauge_map": ("gauge.gauge_field", "gauge.gauge_field_inv"),
    "xst": ("norms.xst_norm", "norms.z_norm"),
    "lattice": ("estimates.resonance_weighted_sum",),
    "divisor": ("estimates.near_diagonal_scan", "estimates.divisor_pair_count",
                "estimates.near_diagonal_pair_count"),
    "endpoint": ("estimates.divergent_mass_sum", "estimates.endpoint_pairing",
                 "estimates.endpoint_factor_norm", "estimates.endpoint_ratio",
                 "estimates.divergence_report", "estimates.endpoint_injection_report"),
    "scan": ("estimates.cubic_ratio_scan", "estimates.strichartz_ratio_scan",
             "estimates.quintic_ratio_scan", "estimates.resonance_sum_scan"),
    "write": ("reports.write_json", "reports.write_csv", "reports.save_trajectory",
              "reports.save_field", "reports.canonical_json"),
    "read": ("reports.load_trajectory", "reports.load_field"),
}


class Profile:
    """Per-function totals reduced from the spans of the traced cycles."""

    def __init__(self, names, calls, self_s, inclusive_s, counters):
        self.names = names
        self.calls = dict(zip(names, calls.tolist()))
        self.self_s = dict(zip(names, self_s.tolist()))
        self.inclusive_s = dict(zip(names, inclusive_s.tolist()))
        self.counters = counters

    def group_calls(self, group: str) -> int:
        return sum(self.calls.get(n, 0) for n in GROUPS[group])

    def group_self(self, group: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in GROUPS[group])

    def layer_self(self, layer: str) -> float:
        return sum(v for n, v in self.self_s.items() if n.split(".")[0] == layer)


# name, unit, better, value over all traced cycles
PER_LAYER = (
    ("fields.transform_calls", "count/cycle", "lower", lambda p: p.group_calls("transform")),
    ("fields.transform_points", "count/cycle", "lower", lambda p: p.counters["transform_points"]),
    ("fields.transform_self_s", "s/cycle", "lower", lambda p: p.group_self("transform")),
    ("fields.product_calls", "count/cycle", "lower", lambda p: p.group_calls("product")),
    ("fields.product_self_s", "s/cycle", "lower", lambda p: p.group_self("product")),
    ("fields.ensemble_self_s", "s/cycle", "lower", lambda p: p.group_self("ensemble")),
    ("fields.trajectory_self_s", "s/cycle", "lower", lambda p: p.group_self("trajectory")),
    ("nonlinear.forcing_calls", "count/cycle", "lower", lambda p: p.group_calls("forcing")),
    ("nonlinear.forcing_self_s", "s/cycle", "lower", lambda p: p.group_self("forcing")),
    ("nonlinear.restricted_calls", "count/cycle", "lower", lambda p: p.group_calls("restricted")),
    ("nonlinear.restricted_self_s", "s/cycle", "lower", lambda p: p.group_self("restricted")),
    ("solver.forcing_evals", "count/cycle", "lower", lambda p: p.group_calls("forcing_field")),
    ("solver.picard_iterations", "count/cycle", "lower", lambda p: p.counters["picard_iterations"]),
    ("solver.useful_forcing_ratio", "ratio", "higher",
     lambda p: (p.counters["useful_forcing"] / p.group_calls("forcing_field")
                if p.group_calls("forcing_field") else 0.0)),
    ("solver.self_s", "s/cycle", "lower", lambda p: p.layer_self("solver")),
    ("solver.integral_residual_s", "s/cycle", "lower",
     lambda p: p.inclusive_s.get("solver.integral_residual", 0.0)),
    ("gauge.map_calls", "count/cycle", "lower", lambda p: p.group_calls("gauge_map")),
    ("gauge.self_s", "s/cycle", "lower", lambda p: p.layer_self("gauge")),
    ("norms.xst_calls", "count/cycle", "lower", lambda p: p.group_calls("xst")),
    ("norms.st_transform_points", "count/cycle", "lower", lambda p: p.counters["st_transform_points"]),
    ("norms.self_s", "s/cycle", "lower", lambda p: p.layer_self("norms")),
    ("estimates.lattice_sums", "count/cycle", "lower", lambda p: p.group_calls("lattice")),
    ("estimates.lattice_points", "count/cycle", "lower", lambda p: p.counters["lattice_points"]),
    ("estimates.lattice_self_s", "s/cycle", "lower", lambda p: p.group_self("lattice")),
    ("estimates.divisor_r_scanned", "count/cycle", "lower", lambda p: p.counters["divisor_r_scanned"]),
    ("estimates.divisor_self_s", "s/cycle", "lower", lambda p: p.group_self("divisor")),
    ("estimates.endpoint_self_s", "s/cycle", "lower", lambda p: p.group_self("endpoint")),
    ("estimates.scan_self_s", "s/cycle", "lower", lambda p: p.group_self("scan")),
    ("reports.bytes_written", "B/cycle", "lower", lambda p: p.counters["bytes_written"]),
    ("reports.bytes_read", "B/cycle", "lower", lambda p: p.counters["bytes_read"]),
    ("reports.write_self_s", "s/cycle", "lower", lambda p: p.group_self("write")),
    ("reports.read_self_s", "s/cycle", "lower", lambda p: p.group_self("read")),
    ("cli.self_s", "s/cycle", "lower", lambda p: p.layer_self("cli")),
)

# the counts that come from sizes alone and must repeat exactly
EXACT = (
    "fields.transform_calls", "fields.transform_points", "fields.product_calls",
    "nonlinear.forcing_calls", "nonlinear.restricted_calls", "solver.forcing_evals",
    "solver.picard_iterations", "solver.useful_forcing_ratio", "gauge.map_calls",
    "norms.xst_calls", "norms.st_transform_points", "estimates.lattice_sums",
    "estimates.lattice_points", "estimates.divisor_r_scanned", "reports.bytes_written",
    "reports.bytes_read",
)


class Tracer:
    """Wraps the package's public functions while installed and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self.request_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._fn = array("i")
        self._parent = array("q")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"dnlslab.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        self._trajectory = sys.modules["dnlslab.fields"].Trajectory
        self._methods = {m: self._wrap(f"fields.Trajectory.{m}", vars(self._trajectory)[m])
                         for m in TRAJECTORY_METHODS}

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans_fn, spans_parent, spans_request = self._fn, self._parent, self._request
        spans_start, spans_end, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans_fn)
            spans_fn.append(fid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_request.append(self.request_id)
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counters[key] += amount
            return result

        return wrapper

    def install(self) -> None:
        """Bind the wrappers in place of the originals in every dnlslab module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, module in list(sys.modules.items()):
            if modname != "dnlslab" and not modname.startswith("dnlslab."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self._wrappers[obj])
        for m, wrapper in self._methods.items():
            self._patched.append((self._trajectory, m, vars(self._trajectory)[m]))
            setattr(self._trajectory, m, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction --------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self._fn)

    def profile(self) -> Profile:
        """Per-function calls, self and inclusive time over all recorded spans."""
        fn = np.array(self._fn, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        return Profile(
            self.names,
            np.bincount(fn, minlength=k),
            np.bincount(fn, weights=self_t, minlength=k),
            np.bincount(fn, weights=dur, minlength=k),
            defaultdict(float, self.counters),
        )


def layer_metrics(profile: Profile, cycles: int) -> dict[str, float]:
    """Every per-layer metric; totals are divided by the number of traced cycles."""
    return {
        name: value(profile) / cycles if unit.endswith("/cycle") else value(profile)
        for name, unit, _, value in PER_LAYER
    }

"""Spans around calls into symfield's layers, recorded from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every symfield module namespace that holds it, so calls between layers
(vfield -> manifold.minimize, model_fit -> features.design_matrix, ...) are
seen as well as the benchmark's own calls.  Each span records its name,
start, end and parent; a layer's self time is the time of its spans minus
the time of their child spans.  Counters are taken by hooks that read a
call's arguments and result; a hook that computes (the Ky Fan optimum for
the mean-squared gap) runs in a span of its own, "bench.hook", so that its
cost is not charged to the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

from checks import ky_fan_optimum

LAYERS = ("datasets", "features", "manifold", "model_fit", "vfield",
          "similarity", "discrete", "geometry", "serialize", "cli")

# Public functions that mark a layer boundary.  Low-level helpers that a
# layer calls on itself once per epoch (retract, tangent_project) are left
# out: they would add a span per epoch without crossing a layer.
TRACED = {
    "datasets": ("generate",),
    "features": ("design_matrix", "jacobian_stack"),
    "manifold": ("minimize", "minimize_affine_target"),
    "model_fit": ("fit_regression", "fit_level_set", "select_components_elbow",
                  "project_onto_affine", "extend_degenerate_columns",
                  "kde_fit", "kde_eval", "kde_gradient"),
    "vfield": ("extended_feature_matrix", "estimate_vector_fields",
               "escalate_vector_fields", "invariant_feature_matrix",
               "estimate_invariants", "estimate_flow_parameter",
               "flow_integrate", "basis_restricted_search"),
    "similarity": ("similarity", "domain_from_data"),
    "discrete": ("fit_discrete", "fit_density_rotation"),
    "geometry": ("fit_map", "pullback_metric"),
    "serialize": ("read_csv", "write_csv", "load_model", "save_model"),
    "cli": ("main",),
}


def _minimize_hook(tr, args, kwargs, result):
    A, q, config = args[0], args[1], args[2]
    tr.count("manifold.minimize.epochs", len(result[1].losses))
    if config.loss == "mean-squared":
        optimum = tr.call("bench.hook", ky_fan_optimum, (np.asarray(A, float), q), {})
        tr.count("manifold.minimize.mse_gap", result[1].final_loss - optimum)


def _m_size_hook(tr, args, kwargs, result):
    tr.peak("vfield.extended_feature_matrix.mb", result.size * 8 / 1e6)


def _flow_hook(tr, args, kwargs, result):
    tr.count("vfield.flow_integrate.steps", result.shape[0] - 1)


def _kde_hook(tr, args, kwargs, result):
    tr.count("model_fit.kde_eval.pairs", result.shape[0] * args[0].centers.shape[0])


def _fit_discrete_hook(tr, args, kwargs, result):
    tr.count("discrete.fit_discrete.f_evals", getattr(args[0], "calls", 0))


def _file_bytes_hook(name):
    def hook(tr, args, kwargs, result):
        tr.count(name, os.path.getsize(args[0]))
    return hook


HOOKS = {
    "features.design_matrix": lambda tr, a, k, r: tr.count("features.design_matrix.cells", r.size),
    "features.jacobian_stack": lambda tr, a, k, r: tr.count("features.jacobian_stack.cells", r.size),
    "manifold.minimize": _minimize_hook,
    "vfield.extended_feature_matrix": _m_size_hook,
    "vfield.flow_integrate": _flow_hook,
    "model_fit.kde_eval": _kde_hook,
    "discrete.fit_discrete": _fit_discrete_hook,
    "serialize.read_csv": _file_bytes_hook("serialize.read_csv.bytes"),
    "serialize.write_csv": _file_bytes_hook("serialize.write_csv.bytes"),
}


class Tracer:
    """In-memory spans and counters; aggregated by ``summary``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._open = []  # indices of spans not yet ended
        self.counters = defaultdict(float)
        self._installed = []

    def call(self, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, value) -> None:
        self.counters[name] += value

    def peak(self, name, value) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever a symfield module refers to them."""
        modules = [sys.modules["symfield"]] + [
            importlib.import_module(f"symfield.{layer}") for layer in LAYERS
        ]
        for layer in LAYERS:
            home = sys.modules[f"symfield.{layer}"]
            for attr in TRACED[layer]:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def summary(self) -> dict:
        """{"spans": {name: [calls, total_s, self_s]}, "counters": {...}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans, child):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - c)
        return {"spans": {k: list(v) for k, v in out.items()},
                "counters": dict(self.counters)}


def merge(into: dict, other: dict) -> dict:
    """Add one summary to another (peaks of sizes are kept as maxima)."""
    for name, (calls, total, self_s) in other["spans"].items():
        c0, t0, s0 = into["spans"].get(name, (0, 0.0, 0.0))
        into["spans"][name] = [c0 + calls, t0 + total, s0 + self_s]
    for name, value in other["counters"].items():
        if name.endswith(".mb"):
            into["counters"][name] = max(into["counters"].get(name, 0.0), value)
        else:
            into["counters"][name] = into["counters"].get(name, 0.0) + value
    return into


def empty_summary() -> dict:
    return {"spans": {}, "counters": {}}

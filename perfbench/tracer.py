"""Span tracer for the traced run: per-layer counts and times from outside.

Each public function of a cslheat module is replaced, in every cslheat
module namespace that refers to it, by a wrapper that records a span
(layer, function, start, end, parent).  The layer is the module that
defines the function, so ``cslheat.heating.adaptive_gk`` is a
``quadrature`` span and ``cslheat.geometry.sinc`` a ``special`` span.
Spans live in memory and are written out when the run ends.

A layer's self time is its span time minus the time of its child spans;
its busy time sums only the spans entered from another layer, so a layer
calling itself is not counted twice.  Counts are made where the work is
handed to the layer and repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    def __init__(self):
        # [layer, function, start, end, parent index, entered from outside]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self, modules) -> None:
        """Wrap every public cslheat function in each of the given modules."""
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("cslheat.")):
                    continue
                self._installed.append((mod, name, obj))
                layer = obj.__module__.rpartition(".")[2]
                setattr(mod, name, self._wrap(layer, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._installed):
            setattr(mod, name, obj)
        self._installed.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = depth[layer] == 0
            if before is not None:
                args, kwargs = before(entry, args, kwargs)
            rec = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, entry]
            stack.append(len(spans))
            spans.append(rec)
            depth[layer] += 1
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                depth[layer] -= 1
                stack.pop()
            if after is not None:
                after(entry, args, kwargs, out)
            return out

        return wrapper

    # ------------------------------------------------------------ counters

    def _before_adaptive_gk(self, entry, args, kwargs):
        counts = self.counts
        f = args[0]

        def counted(u):
            counts["quadrature.nodes"] += _size(u)
            return f(u)

        return (counted,) + tuple(args[1:]), kwargs

    def _after_adaptive_gk(self, entry, args, kwargs, out):
        self.counts["quadrature.panels"] += out.n_panels
        self.counts["quadrature.refinements"] += out.n_refinements

    def _geometry_points(self, entry, model, n):
        if not entry:
            return
        self.counts["geometry.points"] += n
        layers = getattr(model, "layers", None)
        if layers is not None:
            self.counts["geometry.layer_points"] += n * len(layers)

    def _after_mu_tilde(self, entry, args, kwargs, out):
        self._geometry_points(entry, args[0], _size(out))

    _after_normalized_form_factor = _after_mu_tilde

    def _after_separable_factors(self, entry, args, kwargs, out):
        model, axis = args[0], args[1]
        n = _size(out)
        if axis == "z" or not hasattr(model, "layers"):
            self._geometry_points(entry, model, n)
        elif entry:
            self.counts["geometry.points"] += n

    def _special_points(self, entry, args, kwargs, out):
        self.counts["special.points"] += _size(out)

    _after_sinc = _after_sphere_form_kernel = _after_two_j1_over_x = _special_points

    def _after_gamma_cm_mc(self, entry, args, kwargs, out):
        self.counts["heating.mc_samples"] += args[2].mc_samples

    def _after_build_lattice(self, entry, args, kwargs, out):
        self.counts["lattice.sites"] += out.n_cells

    def _after_gamma_cm_discrete(self, entry, args, kwargs, out):
        self.counts["lattice.pairs"] += args[0].n_cells ** 2

    # ------------------------------------------------------------ results

    def summary(self, ops: int, import_ms: float, cpu_ms_per_op: float) -> dict:
        """Per-layer metrics, normalised per op, as (value, unit) pairs."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        self_ms, busy_ms, calls = Counter(), Counter(), Counter()
        by_name, name_ms = Counter(), Counter()  # all calls; busy ms of entries
        for i, (layer, name, t0, t1, parent, entry) in enumerate(spans):
            dur = t1 - t0
            self_ms[layer] += 1e3 * (dur - child[i])
            by_name[name] += 1
            if entry:
                busy_ms[layer] += 1e3 * dur
                calls[layer] += 1
                name_ms[name] += 1e3 * dur
        rate_evals = sum(
            1 for layer, name, _, _, parent, _ in spans
            if name in ("gamma_cm", "heating_report") and parent >= 0
            and spans[parent][0] == "analysis"
        )
        c = self.counts
        nodes = c["quadrature.nodes"]
        per_op = {
            "cli.calls": calls["cli"],
            "cli.self_ms": self_ms["cli"],
            "core.specs_loaded": by_name["load_spec"],
            "core.load_ms": name_ms["load_spec"],
            "core.hash_ms": name_ms["spec_hash"],
            "analysis.calls": calls["analysis"],
            "analysis.rate_evals": rate_evals,
            "analysis.self_ms": self_ms["analysis"],
            "heating.reports": by_name["heating_report"] + by_name["gamma_cm"],
            "heating.self_ms": self_ms["heating"],
            "heating.mc_calls": by_name["gamma_cm_mc"],
            "heating.mc_samples": c["heating.mc_samples"],
            "heating.mc_ms": name_ms["gamma_cm_mc"],
            "quadrature.calls": calls["quadrature"],
            "quadrature.busy_ms": busy_ms["quadrature"],
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.refinements": c["quadrature.refinements"],
            "quadrature.nodes": nodes,
            "geometry.calls": calls["geometry"],
            "geometry.points": c["geometry.points"],
            "geometry.layer_points": c["geometry.layer_points"],
            "geometry.busy_ms": busy_ms["geometry"],
            "special.calls": calls["special"],
            "special.points": c["special.points"],
            "special.busy_ms": busy_ms["special"],
            "lattice.sites": c["lattice.sites"],
            "lattice.pairs": c["lattice.pairs"],
            "lattice.busy_ms": busy_ms["lattice"],
        }
        out = {}
        for key, total in per_op.items():
            unit = "ms/op" if key.endswith("_ms") else "count/op"
            out[key] = (total / ops, unit)
        ratio = 15.0 * c["quadrature.panels"] / nodes if nodes else 0.0
        out["quadrature.useful_ratio"] = (ratio, "ratio")
        out["import.cslheat_ms"] = (import_ms, "ms")
        out["traced.cpu_ms_per_op"] = (cpu_ms_per_op, "ms")
        return out

    def write(self, path) -> None:
        """One JSON line per span: layer, function, start and end in us, parent."""
        with open(path, "w") as fh:
            for layer, name, t0, t1, parent, _ in self.spans:
                fh.write(json.dumps([layer, name, round(t0 * 1e6, 1),
                                     round(t1 * 1e6, 1), parent]) + "\n")

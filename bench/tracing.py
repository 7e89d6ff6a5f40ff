"""Spans recorded from outside ``strathardy``, around calls into its public functions.

The library is not edited: :class:`Tracer` replaces the listed functions in
every loaded ``strathardy`` module (and the listed methods on their
classes) with wrappers while it is installed, and puts the originals back
when it is removed.  Each wrapped call records one span (layer, start,
end, parent span); spans stay in memory, and self times (a span minus the
spans directly inside it) are computed when a pass ends.

Integrand callbacks are spanned by wrapping each callable handed to
``integrate_many``.  Node and point counts come from the calls, never from
the library's ``evaluations`` field: the points each callback receives
(fine and coarse rules alike), and the fine and coarse node sets that
``quadrature._build_nodes`` returns to ``integrate_many``.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# layer name -> (module, attribute) pairs; "Class.method" names a method
LAYERS = {
    "cli.command": [("strathardy.cli", "main")],
    "cli.config": [
        ("strathardy.config", "load_config"),
        ("strathardy.config", "resolve"),
        ("strathardy.config", "build_trials"),
    ],
    "quadrature": [("strathardy.quadrature", "integrate_many")],
    "trials.values": [("strathardy.calculus", "ScalarField.values")],
    "trials.gradients": [("strathardy.calculus", "ScalarField.gradients")],
    "calculus.horizontal": [("strathardy.calculus", "horizontal_from_euclidean")],
    "calculus.angle": [("strathardy.calculus", "angle_function_many")],
    "polynomials.eval_many": [("strathardy.polynomials", "Polynomial.eval_many")],
    "reports.render": [
        ("strathardy.reports", "render_csv"),
        ("strathardy.reports", "render_json"),
    ],
    "identities.suite": [("strathardy.identities", "run_identity_suite")],
    "experiments.bft_fuzz": [("strathardy.experiments", "bft_fuzz")],
}
INTEGRAND = "experiments.integrand"

# per-layer metric -> (unit, how it is read from a pass's spans and counts)
METRICS = {
    "cli.command_self_s": ("s", ("self", "cli.command")),
    "cli.config_s": ("s", ("self", "cli.config")),
    "quadrature.self_s": ("s", ("self", "quadrature")),
    "quadrature.nodes": ("count", ("count", "nodes")),
    "quadrature.integrand_points": ("count", ("count", "integrand_points")),
    "quadrature.integrand_s": ("s", ("total", INTEGRAND)),
    "trials.support_hit_ratio": ("ratio", ("ratio", "support_hits", "support_points")),
    "trials.values_s": ("s", ("self", "trials.values")),
    "trials.gradients_s": ("s", ("self", "trials.gradients")),
    "calculus.horizontal_s": ("s", ("self", "calculus.horizontal")),
    "calculus.angle_s": ("s", ("self", "calculus.angle")),
    "polynomials.eval_many_s": ("s", ("self", "polynomials.eval_many")),
    "polynomials.eval_many_calls": ("count", ("calls", "polynomials.eval_many")),
    "experiments.integrand_self_s": ("s", ("self", INTEGRAND)),
    "identities.suite_s": ("s", ("self", "identities.suite")),
    "experiments.bft_fuzz_s": ("s", ("self", "experiments.bft_fuzz")),
    "reports.render_s": ("s", ("self", "reports.render")),
}


@dataclass
class PassTrace:
    """Spans and counts of one traced pass."""

    spans: list = field(default_factory=list)  # (layer, start, end, parent index)
    counts: dict = field(
        default_factory=lambda: dict.fromkeys(
            ("nodes", "integrand_points", "support_hits", "support_points"), 0
        )
    )

    def layer_times(self):
        """Per-layer (self seconds, total seconds, calls)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (layer, start, end, _), inner in zip(self.spans, child):
            self_s, total_s, calls = out.get(layer, (0.0, 0.0, 0))
            out[layer] = (self_s + (end - start) - inner, total_s + end - start, calls + 1)
        return out

    def metrics(self) -> dict:
        times = self.layer_times()
        values = {}
        for name, (_, (kind, *keys)) in METRICS.items():
            if kind == "count":
                values[name] = self.counts[keys[0]]
            elif kind == "ratio":
                den = self.counts[keys[1]]
                values[name] = self.counts[keys[0]] / den if den else 0.0
            else:
                self_s, total_s, calls = times.get(keys[0], (0.0, 0.0, 0))
                values[name] = {"self": self_s, "total": total_s, "calls": calls}[kind]
        return values


class Tracer:
    """Installs span-recording wrappers; one :class:`PassTrace` per installation."""

    def __init__(self):
        self.trace = PassTrace()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, layer: str) -> int:
        index = len(self.trace.spans)
        parent = self._stack[-1] if self._stack else -1
        self.trace.spans.append((layer, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        layer, start, _, parent = self.trace.spans[index]
        self.trace.spans[index] = (layer, start, time.perf_counter(), parent)

    def _parent_layer(self) -> str | None:
        if len(self._stack) < 2:
            return None
        return self.trace.spans[self._stack[-2]][0]

    def _spanned(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
                if layer == "trials.values" and self._parent_layer() == INTEGRAND:
                    values = np.asarray(result)
                    self.trace.counts["support_hits"] += int(np.count_nonzero(values))
                    self.trace.counts["support_points"] += values.size
                return result
            finally:
                self._close(index)

        return wrapper

    def _integrand(self, fn):
        def wrapper(points):
            index = self._open(INTEGRAND)
            try:
                self.trace.counts["integrand_points"] += len(points)
                return fn(points)
            finally:
                self._close(index)

        return wrapper

    def _integrate_many(self, fn):
        spanned = self._spanned("quadrature", fn)

        def wrapper(fs, *args, **kwargs):
            return spanned([self._integrand(f) for f in fs], *args, **kwargs)

        return wrapper

    def _build_nodes(self, fn):
        def wrapper(*args, **kwargs):
            node_set = fn(*args, **kwargs)
            self.trace.counts["nodes"] += len(node_set.points)
            if node_set.coarse is not None:
                self.trace.counts["nodes"] += len(node_set.coarse[0])
            return node_set

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a ``strathardy`` module binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "strathardy"]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, method, self._spanned(layer, getattr(cls, method)))
                    continue
                original = getattr(owner, attr)
                if attr == "integrate_many":
                    wrapped = self._integrate_many(original)
                else:
                    wrapped = self._spanned(layer, original)
                self._patch_everywhere(modules, attr, original, wrapped)
        # node sets are counted where integrate_many builds them
        build = sys.modules["strathardy.quadrature"]._build_nodes
        self._patch_everywhere(modules, "_build_nodes", build, self._build_nodes(build))

    def _patch_everywhere(self, modules, attr, original, wrapped) -> None:
        for module in modules:
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def median_metrics(traces: list[PassTrace]) -> dict:
    """Median of each per-layer metric over traced passes."""
    per_pass = [t.metrics() for t in traces]
    return {name: statistics.median(m[name] for m in per_pass) for name in METRICS}

"""Spans around calls into snnk, recorded from outside the package.

The tracer replaces module attributes that the package calls through (for
example ``snnk.cli.phi`` or ``snnk.urf.psi``, which ``psi_many`` looks up at
call time) with wrappers that record a span per call: name, start, end,
parent span and operation id.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, OP, EXTRA, EXCLUDED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, extra=None):
        """``fn`` recording a span while active; ``extra(result)`` is stored
        on the span and its cost is excluded from the parent's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op, None, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if extra is not None:
                span[EXTRA] = extra(out)
                if parent >= 0:
                    tracer.spans[parent][EXCLUDED] += time.perf_counter() - span[END]
            return out

        return traced

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, extra))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks record no spans."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                kids.setdefault(span[PARENT], []).append(i)
        return kids

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] - s[EXCLUDED] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds for each span name."""
        table: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            row["self_s"] += own
        return table


def draws_extra(draws):
    """Gaussian entries and importance-ratio sums of one UrfDraws."""
    ratios = np.concatenate([b.ratio for b in draws.blocks])
    return (
        int(sum(b.g.size for b in draws.blocks)),
        float(ratios.sum()),
        float(np.dot(ratios, ratios)),
        int(ratios.size),
    )


def norm_extra(features):
    return float(np.linalg.norm(features.entries))


def install(tracer: Tracer) -> None:
    """Wrap every boundary the per-layer metrics are read from."""
    from snnk import bundling, cli, layers, train, urf

    points = [
        (cli, "run_pointwise", "cli.run_pointwise", None),
        (cli, "sample_draws", "urf.sample_draws", draws_extra),
        (cli, "phi", "urf.phi", None),
        (cli, "psi", "urf.psi", None),
        (cli, "kernel_estimate", "urf.kernel_estimate", None),
        (urf, "psi", "urf.psi", None),
        (layers, "sample_draws", "urf.sample_draws", draws_extra),
        (layers, "phi", "urf.phi", None),
        (layers, "phi_many", "urf.phi_many", None),
        (layers, "psi_many", "urf.psi_many", None),
        (layers, "snnk_from_ffl", "layers.snnk_from_ffl", None),
        (layers, "snnk_forward", "layers.snnk_forward", None),
        (layers, "ffl_forward", "layers.ffl_forward", None),
        (layers.UrfFeatureMap, "features_many", "layers.UrfFeatureMap.features_many", None),
        (layers.ReluFeatureMap, "features_many", "layers.ReluFeatureMap.features_many", None),
        (bundling, "phi", "urf.phi", norm_extra),
        (bundling, "psi_many", "urf.psi_many", None),
        (bundling, "bundle_full", "bundling.bundle_full", None),
        (bundling, "bundled_forward", "bundling.bundled_forward", None),
        (bundling, "network_forward", "bundling.network_forward", None),
        (train, "fit_A", "train.fit_A", None),
        (train, "evaluate", "train.evaluate", None),
    ]
    for owner, attr, name, extra in points:
        tracer.patch(owner, attr, name, extra)


FEATURES_MANY = ("layers.UrfFeatureMap.features_many", "layers.ReluFeatureMap.features_many")
STAGES = 3

# (name, unit); values are per round of the workload unless the unit says otherwise
PER_LAYER = (
    ("snnk.import.s", "s"),
    ("activations.decomposition_for.s", "s"),
    ("urf.sample_draws.calls", "count/round"),
    ("urf.sample_draws.s", "s/round"),
    ("urf.gaussians_drawn", "count/round"),
    ("urf.phi.calls", "count/round"),
    ("urf.phi.s", "s/round"),
    ("urf.psi.calls", "count/round"),
    ("urf.psi.s", "s/round"),
    ("urf.phi_many.calls", "count/round"),
    ("urf.phi_many.s", "s/round"),
    ("urf.kernel_estimate.s", "s/round"),
    ("urf.ess_ratio", "ratio"),
    ("layers.snnk_from_ffl.s", "s/round"),
    ("layers.snnk_forward.self_s", "s/round"),
    ("layers.relu_features_many.s", "s/round"),
    ("layers.ffl_forward.s", "s/round"),
    ("bundling.bundle_full.self_s", "s/round"),
    ("bundling.bundled_forward.self_s", "s/round"),
    *((f"bundling.stage{k}.phi_s", "s/round") for k in range(STAGES)),
    *((f"bundling.stage{k}.feature_norm", "abs") for k in range(STAGES)),
    ("bundling.network_forward.s", "s/round"),
    ("train.fit_A.self_s", "s/round"),
    ("train.evaluate.s", "s/round"),
    ("train.features_many.calls", "count/round"),
    ("train.features_many.s", "s/round"),
    ("train.sgd_steps", "count/round"),
    ("cli.run_pointwise.self_s", "s/round"),
    ("cli.trials", "count/round"),
    ("trace.overhead", "ratio"),
)


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def per_layer(tracer: Tracer, rounds: int, given: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values; ``given`` supplies the ones not read from spans
    (import and transform times, derived step counts, tracing overhead)."""
    spans = tracer.spans
    table = tracer.by_name()
    own = tracer.self_times()
    kids = tracer.children()

    def stat(name, key):
        return table.get(name, {}).get(key, 0.0) / rounds

    gaussians = ratio_sum = ratio_sq = n_ratio = 0
    for s in spans:
        if s[NAME] == "urf.sample_draws" and s[EXTRA] is not None:
            g, rs, rq, n = s[EXTRA]
            gaussians += g
            ratio_sum += rs
            ratio_sq += rq
            n_ratio += n

    stage_s = [0.0] * STAGES
    stage_norms: list[list[float]] = [[] for _ in range(STAGES)]
    for i, s in enumerate(spans):
        if s[NAME] != "bundling.bundled_forward":
            continue
        phis = [c for c in kids.get(i, []) if spans[c][NAME] == "urf.phi"]
        for k, c in enumerate(phis[:STAGES]):
            stage_s[k] += spans[c][END] - spans[c][START]
            stage_norms[k].append(spans[c][EXTRA])

    fm_calls = 0
    fm_s = 0.0
    for i, s in enumerate(spans):
        if s[NAME] in FEATURES_MANY and _has_ancestor(spans, i, "train.fit_A"):
            fm_calls += 1
            fm_s += s[END] - s[START]

    trials = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "urf.kernel_estimate" and _has_ancestor(spans, i, "cli.run_pointwise")
    )

    values = {
        "urf.sample_draws.calls": stat("urf.sample_draws", "calls"),
        "urf.sample_draws.s": stat("urf.sample_draws", "total_s"),
        "urf.gaussians_drawn": gaussians / rounds,
        "urf.phi.calls": stat("urf.phi", "calls"),
        "urf.phi.s": stat("urf.phi", "total_s"),
        "urf.psi.calls": stat("urf.psi", "calls"),
        "urf.psi.s": stat("urf.psi", "total_s"),
        "urf.phi_many.calls": stat("urf.phi_many", "calls"),
        "urf.phi_many.s": stat("urf.phi_many", "total_s"),
        "urf.kernel_estimate.s": stat("urf.kernel_estimate", "total_s"),
        "urf.ess_ratio": ratio_sum**2 / (n_ratio * ratio_sq) if ratio_sq > 0 else 0.0,
        "layers.snnk_from_ffl.s": stat("layers.snnk_from_ffl", "total_s"),
        "layers.snnk_forward.self_s": stat("layers.snnk_forward", "self_s"),
        "layers.relu_features_many.s": stat("layers.ReluFeatureMap.features_many", "total_s"),
        "layers.ffl_forward.s": stat("layers.ffl_forward", "total_s"),
        "bundling.bundle_full.self_s": stat("bundling.bundle_full", "self_s"),
        "bundling.bundled_forward.self_s": stat("bundling.bundled_forward", "self_s"),
        "bundling.network_forward.s": stat("bundling.network_forward", "total_s"),
        "train.fit_A.self_s": stat("train.fit_A", "self_s"),
        "train.evaluate.s": stat("train.evaluate", "total_s"),
        "train.features_many.calls": fm_calls / rounds,
        "train.features_many.s": fm_s / rounds,
        "cli.run_pointwise.self_s": stat("cli.run_pointwise", "self_s"),
        "cli.trials": trials / rounds,
    }
    for k in range(STAGES):
        values[f"bundling.stage{k}.phi_s"] = stage_s[k] / rounds
        values[f"bundling.stage{k}.feature_norm"] = (
            float(np.median(stage_norms[k])) if stage_norms[k] else 0.0
        )
    values.update(given)
    return {name: float(values[name]) for name, _ in PER_LAYER}


def dump_spans(tracer: Tracer) -> dict:
    """Spans and per-name self times in a JSON-ready form."""
    t0 = tracer.spans[0][START] if tracer.spans else 0.0
    return {
        "fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            [s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[OP]] for s in tracer.spans
        ],
        "by_name": tracer.by_name(),
    }

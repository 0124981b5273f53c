"""Span tracer that wraps persage's public functions from outside the package.

``Tracer.install`` replaces every binding of a traced function in every
persage module namespace (``training`` imports ``affine_forward`` from
``mathcore``, so patching ``mathcore`` alone would miss those calls) with a
wrapper that records a span: name, start, end and the span that was open
when it was called. ``uninstall`` puts the originals back, so an untraced
phase runs the unmodified functions. Spans stay in memory until ``write``.

Self time of a span is its duration minus the durations of its direct
children. The package is single-threaded, so children nest inside their
parent and never overlap each other.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Layer -> public functions traced in it. ``data.batches`` is a generator:
# each ``next`` on it is one span, so its self time is the wait for a batch.
LAYERS = {
    "mathcore": ["affine_forward", "affine_backward", "batchnorm_forward",
                 "batchnorm_backward", "relu_forward", "relu_backward",
                 "softmax"],
    "metalearner": ["generate_weights_batch", "generate_weights_backward"],
    "estimator": ["class_scores_batch", "expected_ages"],
    "losses": ["batch_loss"],
    "training": ["model_forward", "model_backward", "adam_step",
                 "model_predict", "train", "evaluate", "save_model",
                 "load_model"],
    "metrics": ["weight_embedding", "retrieve", "slice_agreement",
                "eval_result"],
    "data": ["synth_generate", "split", "batches", "read_features",
             "write_features"],
}
GENERATORS = {"data.batches"}

# Work computed from call shapes, name -> unit.
COUNTS = {
    "metalearner.conditioning_rows": "count",
    "metalearner.weight_tensor_mb": "MB",
    "mathcore.affine.gflop": "GFLOP",
    "mathcore.batchnorm.rows": "count",
    "metrics.retrieve.gb_read": "GB",
}


def _count_generate(counts, args):
    params, id_feats = args[0], np.asarray(args[1])
    d = params.dims
    rows = id_feats.shape[0] * d.n_classes
    counts["metalearner.conditioning_rows"] += rows
    counts["metalearner.weight_tensor_mb"] += rows * d.age_dim * 8 / 1e6


def _count_affine_forward(counts, args):
    x, layer = np.asarray(args[0]), args[1]
    rows = x.shape[0] if x.ndim == 2 else 1
    counts["mathcore.affine.gflop"] += 2.0 * rows * layer.in_dim * layer.out_dim / 1e9


def _count_affine_backward(counts, args):
    grad_out, layer = np.asarray(args[0]), args[2]
    rows = grad_out.shape[0] if grad_out.ndim == 2 else 1
    # weight gradient and input gradient, one matmul each
    counts["mathcore.affine.gflop"] += 4.0 * rows * layer.in_dim * layer.out_dim / 1e9


def _count_batchnorm(counts, args):
    counts["mathcore.batchnorm.rows"] += np.asarray(args[0]).shape[0]


def _count_retrieve(counts, args):
    gallery = np.asarray(args[1])
    counts["metrics.retrieve.gb_read"] += gallery.size * 8 / 1e9


COUNTERS = {
    "metalearner.generate_weights_batch": _count_generate,
    "mathcore.affine_forward": _count_affine_forward,
    "mathcore.affine_backward": _count_affine_backward,
    "mathcore.batchnorm_forward": _count_batchnorm,
    "mathcore.batchnorm_backward": _count_batchnorm,
    "metrics.retrieve": _count_retrieve,
}


def traced_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_units():
    """Every per-layer metric the traced run reports, name -> unit."""
    units = {}
    for name in traced_names():
        units[name + (".wait_ms" if name in GENERATORS else ".self_ms")] = "ms"
        units[name + ".calls"] = "count"
    units.update(COUNTS)
    units["trace.self_total_ms"] = "ms"
    units["trace.wall_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = []    # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.wall = 0.0    # seconds spent installed
        self._installed = []
        self._since = None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                counter(counts, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _wrap_generator(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = [name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1]
                spans.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    span[2] = time.perf_counter()
                    return
                span[2] = time.perf_counter()
                yield item

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "persage" or key.startswith("persage.")]
        for layer, fns in LAYERS.items():
            source = sys.modules[f"persage.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(source, fn_name)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                wrapped = wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._installed.append((module, attr, original))
        self._since = time.perf_counter()

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()
        if self._since is not None:
            self.wall += time.perf_counter() - self._since
            self._since = None

    # ------------------------------------------------------------- results

    def self_times(self):
        """Per-span self time in seconds, aligned with ``self.spans``."""
        if not self.spans:
            return np.zeros(0)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return dur - covered

    def metrics(self):
        """Per-layer metrics keyed as in ``per_layer_units`` (without overhead)."""
        out = {}
        self_s = self.self_times()
        totals = defaultdict(float)
        calls = defaultdict(int)
        for span, s in zip(self.spans, self_s):
            totals[span[0]] += s
            calls[span[0]] += 1
        for name in traced_names():
            stat = ".wait_ms" if name in GENERATORS else ".self_ms"
            out[name + stat] = totals[name] * 1e3
            out[name + ".calls"] = calls[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        out["trace.self_total_ms"] = float(self_s.sum()) * 1e3
        out["trace.wall_ms"] = self.wall * 1e3
        return out

    def write(self, path):
        """One JSON line per span; times in microseconds from the first span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                    "workload": self.workload}) + "\n")

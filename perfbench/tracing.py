"""Span tracing of hrrpgnn from outside the package.

``Tracer.install`` replaces every public function and method of the traced
modules with a wrapper that records one span per call: (name, start, end,
parent span, op id). Spans stay in memory; ``per_op_stats`` folds them into
inclusive time, self time (span minus its direct children) and call counts
per op. A few wrappers also record counts at the same boundary (bytes
written, FLOPs from shapes), outside the span's timed interval.

Nothing in ``src/`` is edited: wrapping happens on the imported module and
class objects and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("data", "graphgen", "layers", "model", "numerics", "trainkit")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _conv1d_gflop(args, kwargs):
    layer, x = args[0], _arg(args, kwargs, 1, "x")
    b, c, n = x.shape
    return 2.0 * b * layer.out_channels * c * layer.kernels.shape[2] * n / 1e9


def _graphconv_gflop(args, kwargs):
    # the X·R product (2·B·C·N²) plus the W1·X and W2·agg products (2·2·B·G·C·N)
    layer, x = args[0], _arg(args, kwargs, 1, "nodes")
    b, c, n = x.shape
    return (2.0 * b * c * n * n + 4.0 * b * layer.out_dim * c * n) / 1e9


def _file_bytes(index, name):
    return lambda args, kwargs: float(os.path.getsize(_arg(args, kwargs, index, name)))


# span name -> (counter name, function of the call's (args, kwargs))
COUNTERS = {
    "layers.Conv1d.forward": ("gflop", _conv1d_gflop),
    "layers.GraphConv.forward": ("gflop", _graphconv_gflop),
    "data.save_csv": ("bytes", _file_bytes(1, "path")),
    "data.load_csv": ("bytes", _file_bytes(0, "path")),
    "model.GraphClassifier.save": ("bytes", _file_bytes(1, "path")),
    "model.GraphClassifier.load": ("bytes", _file_bytes(1, "path")),
    "trainkit.evaluate": ("samples", lambda args, kwargs: float(len(_arg(args, kwargs, 1, "dataset")))),
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counters = defaultdict(float)  # (op id, "span name.counter") -> total
        self.op_id = None
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if counter is not None:
                self.counters[(self.op_id, f"{name}.{counter[0]}")] += counter[1](args, kwargs)
            return result

        return traced

    def _set(self, owner, attribute, original, value):
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s traced modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        namespaces = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        for short in TRACED_MODULES:
            module = sys.modules[prefix + short]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    traced = self._wrap(f"{short}.{attr}", obj)
                    # every module that imported the function by name holds its own reference
                    for ns in namespaces:
                        for ref, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, ref, obj, traced)
                elif inspect.isclass(obj):
                    for method, raw in list(vars(obj).items()):
                        if method.startswith("_"):
                            continue
                        name = f"{short}.{attr}.{method}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            self._set(obj, method, raw, type(raw)(self._wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                            self._set(obj, method, raw, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def per_op_stats(self):
        """{op id: {span name: [inclusive s, self s, calls]}} and {op id: {counter: total}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            entry = stats[op][name]
            entry[0] += end - start
            entry[1] += end - start - child_time[i]
            entry[2] += 1
        counters = defaultdict(dict)
        for (op, key), value in self.counters.items():
            counters[op][key] = value
        return stats, counters

    def span_records(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


# -- per-layer metrics -----------------------------------------------------------

LAYER_CLASSES = ("Conv1d", "BatchNorm1d", "LeakyReLU", "GraphConv", "AttentionPool", "MeanPool", "Dense")


def _total(span):
    return lambda stats, counters: stats[span][0]


def _self(span):
    return lambda stats, counters: stats[span][1]


def _calls(span):
    return lambda stats, counters: float(stats[span][2])


def _count(*keys):
    return lambda stats, counters: sum(counters.get(k, 0.0) for k in keys)


def _rate(numerator, denominator, scale):
    """numerator * scale / denominator; 0 when the op never made the call."""

    def value(stats, counters):
        den = denominator(stats, counters)
        return numerator(stats, counters) * scale / den if den else 0.0

    return value


def _per_layer_definitions():
    defs = []
    for cls in LAYER_CLASSES:
        fwd, bwd = f"layers.{cls}.forward", f"layers.{cls}.backward"
        defs += [
            (f"{fwd}.s", "s", _total(fwd)),
            (f"{bwd}.s", "s", _total(bwd)),
            (f"layers.{cls}.calls", "count", _calls(fwd)),
        ]
    for cls in ("GraphConv", "Conv1d"):
        fwd = f"layers.{cls}.forward"
        gflop = _count(f"{fwd}.gflop")
        defs += [
            (f"{fwd}.gflop", "GFLOP-computed", gflop),
            (f"{fwd}.gflop_per_s", "GFLOP/s", _rate(gflop, _total(fwd), 1.0)),
        ]
    adjacency = "graphgen.factored_adjacency_batch"
    saved, loaded = "model.GraphClassifier.save", "model.GraphClassifier.load"
    defs += [
        (f"{adjacency}.s", "s", _total(adjacency)),
        (f"{adjacency}.calls", "count", _calls(adjacency)),
        ("model.forward_batch.self_s", "s", _self("model.GraphClassifier.forward_batch")),
        ("model.backward.self_s", "s", _self("model.GraphClassifier.backward")),
        ("model.save.s", "s", _total(saved)),
        ("model.load.s", "s", _total(loaded)),
        ("model.checkpoint_bytes", "bytes", _count(f"{saved}.bytes", f"{loaded}.bytes")),
        ("numerics.softmax.s", "s", _total("numerics.softmax")),
        ("numerics.log_softmax.s", "s", _total("numerics.log_softmax")),
        ("trainkit.Adam.step.s", "s", _total("trainkit.Adam.step")),
        ("trainkit.train.self_s", "s", _self("trainkit.train")),
        ("trainkit.dataset_loss.s", "s", _total("trainkit.dataset_loss")),
        ("trainkit.evaluate.s", "s", _total("trainkit.evaluate")),
        (
            "trainkit.evaluate.us_per_sample",
            "us",
            _rate(_total("trainkit.evaluate"), _count("trainkit.evaluate.samples"), 1e6),
        ),
        ("trainkit.run_ablation_suite.self_s", "s", _self("trainkit.run_ablation_suite")),
        ("data.synth_generate.s", "s", _total("data.synth_generate")),
        ("data.normalize.s", "s", _total("data.normalize")),
    ]
    for fn in ("save_csv", "load_csv"):
        span = f"data.{fn}"
        defs += [
            (f"{span}.s", "s", _total(span)),
            (f"{span}.mb_per_s", "MB/s", _rate(_count(f"{span}.bytes"), _total(span), 1e-6)),
        ]
    defs.append(("data.csv_bytes", "bytes", _count("data.save_csv.bytes")))
    return defs


# (metric name, unit, function of one op's (stats, counters)); a value is 0 when
# the workload never calls the function it measures
PER_LAYER = _per_layer_definitions()

"""Span tracing around the package's public functions, from outside the package.

A Tracer replaces module attributes with timing wrappers at the names the
callers look them up by, records one span per call (name, start, end,
parent span, op id, counters) in memory, and puts the originals back on
uninstall. Nothing under src/ changes. A target that a later version of
the package no longer defines is reported as absent instead of failing
the run.

Self time of a span is its duration minus the durations of its direct
child spans. Calls are synchronous and single-threaded, so the children
of one span never overlap each other.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, attribute as its callers look it up, layer name of the span).
# The same function reached through two names (cli imports its own
# references) gets one layer name.
TARGETS = (
    ("fcnndepth.ops", "conv2d_padded", "ops.conv2d_padded"),
    ("fcnndepth.ops", "conv2d", "ops.conv2d"),
    ("fcnndepth.ops", "deconv2d", "ops.deconv2d"),
    ("fcnndepth.ops", "unpool_zero2", "ops.unpool_zero2"),
    ("fcnndepth.ops", "nearest_up2", "ops.nearest_up2"),
    ("fcnndepth.ops", "maxpool2", "ops.maxpool2"),
    ("fcnndepth.ops", "batchnorm_infer", "ops.batchnorm_infer"),
    ("fcnndepth.ops", "relu", "ops.relu"),
    ("fcnndepth.ops", "add", "ops.add"),
    ("fcnndepth.models", "interleave4", "interleave.interleave4"),
    ("fcnndepth.models", "infer", "models.infer"),
    ("fcnndepth.models", "build_model", "models.build_model"),
    ("fcnndepth.models", "random_weights", "models.random_weights"),
    ("fcnndepth.weights_io", "save_weights", "weights_io.save_weights"),
    ("fcnndepth.weights_io", "load_weights", "weights_io.load_weights"),
    ("fcnndepth.weights_io", "split_container", "weights_io.split_container"),
    ("fcnndepth.fileio", "read_depth_raster", "fileio.read_depth_raster"),
    ("fcnndepth.metrics", "compute_metrics", "metrics.compute_metrics"),
    ("fcnndepth.cli", "infer", "models.infer"),
    ("fcnndepth.cli", "build_model", "models.build_model"),
    ("fcnndepth.cli", "load_weights", "weights_io.load_weights"),
    ("fcnndepth.cli", "read_ppm", "fileio.read_ppm"),
    ("fcnndepth.cli", "write_depth_raster", "fileio.write_depth_raster"),
)

CONV = "ops.conv2d_padded"
LOAD = "weights_io.load_weights"
CONV_CLASSES = ("cout1", "k1x1", "kxk")
OTHER_OPS = ("unpool_zero2", "nearest_up2", "maxpool2", "batchnorm_infer", "relu", "add", "conv2d")
TIMED = (
    "models.build_model", "models.random_weights", "weights_io.save_weights",
    "weights_io.split_container", "weights_io.load_weights", "fileio.read_ppm",
    "fileio.write_depth_raster", "fileio.read_depth_raster", "metrics.compute_metrics",
)

MB = 1e6
SETUP = "setup"  # op id of the spans recorded during set-up


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: object  # op index, or a label such as "setup"
    extra: dict = field(default_factory=dict)


def _conv_counters(args, kwargs, out) -> dict:
    """Kernel class and executed MACs of one conv2d_padded call."""
    kernel = next(
        v for v in (*args, *kwargs.values())
        if getattr(getattr(v, "weights", None), "ndim", 0) == 4
    )
    kh, kw, cin, cout = kernel.weights.shape
    n, oh, ow, _ = out.shape
    cls = "cout1" if cout == 1 else "k1x1" if kh == kw == 1 else "kxk"
    return {"cls": cls, "macs": n * oh * ow * cout * kh * kw * cin}


class Tracer:
    """Records spans for calls into the TARGETS while installed.

    With track_memory, each conv2d_padded call runs under tracemalloc,
    started at entry and stopped at exit, so the traced peak is the memory
    the call allocated at its high-water mark and no other code pays for
    allocation tracing.
    """

    def __init__(self, targets=TARGETS, track_memory: bool = False):
        self.targets = targets
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.op: object = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for module_name, attr, layer in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        is_conv = layer == CONV
        is_load = layer == LOAD
        track = self.track_memory and is_conv

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(layer, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            if track:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if track:
                    span.extra["peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if is_conv:
                span.extra.update(_conv_counters(args, kwargs, out))
            elif is_load:
                span.extra["in_bytes"] = os.path.getsize(args[0] if args else kwargs["path"])
            data = getattr(out, "data", None)
            if layer.startswith(("ops.", "interleave.")) and data is not None:
                span.extra["out_bytes"] = data.nbytes
            return out

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Seconds of each span not covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def unit_totals(spans: list[Span]) -> dict[object, dict[str, float]]:
    """Per op (or setup) sums of each layer metric, keyed by metric name."""
    selfs = self_times(spans)
    units: dict[object, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        t = units.setdefault(s.op, {})
        keys = [s.name]
        if s.name == CONV:
            keys.append(f"{CONV}.{s.extra.get('cls', 'kxk')}")
        for key in keys:
            t[f"{key}.calls"] = t.get(f"{key}.calls", 0) + 1
            t[f"{key}.self_ms"] = t.get(f"{key}.self_ms", 0.0) + own * 1e3
            t[f"{key}.ms"] = t.get(f"{key}.ms", 0.0) + (s.end - s.start) * 1e3
            t[f"{key}.out_mb"] = t.get(f"{key}.out_mb", 0.0) + s.extra.get("out_bytes", 0) / MB
            t[f"{key}.mb"] = t.get(f"{key}.mb", 0.0) + s.extra.get("in_bytes", 0) / MB
            t[f"{key}.gmac"] = t.get(f"{key}.gmac", 0.0) + s.extra.get("macs", 0) / 1e9
            t[f"{key}.peak_mb"] = max(t.get(f"{key}.peak_mb", 0.0), s.extra.get("peak", 0) / MB)
        if s.parent < 0:
            t["top_level_s"] = t.get("top_level_s", 0.0) + s.end - s.start
    return units


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], ops: list[int],
                  op_seconds: dict[int, float]) -> dict[str, float]:
    """Per-op medians of the per-layer metrics over the traced ops.

    A metric of a function that ran in no traced op (set-up calls on the
    in-memory workloads) is its total over the spans recorded with op id
    SETUP instead. Functions that never ran report 0.
    """
    units = unit_totals(spans)
    op_units = [units.get(i, {}) for i in ops]
    setup = units.get(SETUP, {})

    def med(key: str) -> float:
        if any(key in u for u in op_units):
            return _median([u.get(key, 0.0) for u in op_units])
        return setup.get(key, 0.0)

    m: dict[str, float] = {}
    for cls in CONV_CLASSES:
        key = f"{CONV}.{cls}"
        for stat in ("calls", "self_ms", "gmac", "peak_mb"):
            m[f"{key}.{stat}"] = med(f"{key}.{stat}")
        rates = [u.get(f"{key}.gmac", 0.0) / (u[f"{key}.self_ms"] / 1e3)
                 for u in op_units if u.get(f"{key}.self_ms", 0.0) > 0]
        m[f"{key}.gmac_per_s"] = _median(rates)
    m["ops.deconv2d.calls"] = med("ops.deconv2d.calls")
    m["ops.deconv2d.self_ms"] = med("ops.deconv2d.self_ms")
    for op in OTHER_OPS:
        for stat in ("calls", "self_ms", "out_mb"):
            m[f"ops.{op}.{stat}"] = med(f"ops.{op}.{stat}")
    for stat in ("calls", "self_ms", "out_mb"):
        m[f"interleave.interleave4.{stat}"] = med(f"interleave.interleave4.{stat}")
    m["models.infer.self_ms"] = med("models.infer.self_ms")
    for name in TIMED:
        m[f"{name}.ms"] = med(f"{name}.ms")
    m[f"{LOAD}.mb"] = med(f"{LOAD}.mb")
    m["trace.coverage_frac"] = _median(
        [units.get(i, {}).get("top_level_s", 0.0) / op_seconds[i] for i in ops]
    )
    return m


def span_records(spans: list[Span]) -> list[list]:
    """Spans as JSON-ready rows: name, start, end, parent, op, counters."""
    t0 = spans[0].start if spans else 0.0
    return [
        [s.name, round(s.start - t0, 7), round(s.end - t0, 7), s.parent, s.op, s.extra]
        for s in spans
    ]

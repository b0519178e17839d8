"""Wall-clock micro-benchmarks for blocks and whole models.

Timing reports carry mean/min/p50/p95 over at least ten measured
iterations plus an analytic multiply-accumulate count, so relative
orderings between targets can be asserted without trusting absolute times.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import upconv
from .models import ModelSpec, build_model, graph_macs, infer, random_weights
from .tensor import Tensor4

MIN_ITERS = 10
DEFAULT_WARMUP = 2
BLOCK_KINDS = ("upconv_naive", "upconv_fast")


@dataclass(frozen=True)
class TargetReport:
    """Timing summary for one benchmark target."""

    name: str
    resolution: str
    warmup: int
    iters: int
    mean_s: float
    min_s: float
    p50_s: float
    p95_s: float
    macs: int

    def as_dict(self) -> dict:
        return asdict(self)


def _percentile(sorted_times: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = min(len(sorted_times) - 1, max(0, math.ceil(q * len(sorted_times)) - 1))
    return sorted_times[idx]


def time_callable(fn, warmup: int, iters: int) -> dict[str, float]:
    """Run fn warmup + iters times; summarize the timed iterations."""
    if iters < MIN_ITERS:
        raise ValueError(f"need at least {MIN_ITERS} iterations, got {iters}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return {
        "mean_s": sum(times) / len(times),
        "min_s": times[0],
        "p50_s": _percentile(times, 0.50),
        "p95_s": _percentile(times, 0.95),
    }


def environment() -> dict:
    """numpy and BLAS versions, CPU count and BLAS thread settings of this process.

    Timings from different machines or thread settings are not comparable;
    the bench report carries this block so that a reader can tell.
    """
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 can only print its config
        deps = {}
    blas = deps.get("blas", {})
    return {
        "numpy_version": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def bench_model(
    spec: ModelSpec, name: str, iters: int, warmup: int = DEFAULT_WARMUP, seed: int = 0
) -> TargetReport:
    """Time end-to-end inference of one model on a random image."""
    graph = build_model(spec)
    weights = random_weights(graph, seed)
    rng = np.random.default_rng(seed)
    image = Tensor4(rng.random((1, spec.input_h, spec.input_w, 3)).astype(np.float32))
    stats = time_callable(lambda: infer(graph, weights, image), warmup, iters)
    return TargetReport(
        name=name,
        resolution=f"{spec.input_w}x{spec.input_h}",
        warmup=warmup,
        iters=iters,
        macs=graph_macs(graph),
        **stats,
    )


def bench_block(
    kind: str, h: int, w: int, cin: int, cout: int,
    iters: int, warmup: int = DEFAULT_WARMUP, seed: int = 0,
) -> TargetReport:
    """Time one up-convolution block on an (1, h, w, cin) input.

    The block is the builder's own (models.block_graph) run by infer, so its
    time is that of the layers the presets run.
    """
    if kind not in BLOCK_KINDS:
        raise ValueError(f"unknown block {kind!r}; expected one of {BLOCK_KINDS}")
    rng = np.random.default_rng(seed)
    x = Tensor4(rng.standard_normal((1, h, w, cin)).astype(np.float32))
    weights = upconv.random_upconv_weights(cin, cout, rng)
    if kind == "upconv_naive":
        fn = lambda: upconv.upconv_block_naive(x, weights)
        macs = upconv.naive_block_macs(h, w, cin, cout)
    else:
        split = upconv.split_weights_5x5(weights)
        fn = lambda: upconv.upconv_block_fast(x, split)
        macs = upconv.fast_block_macs(h, w, cin, cout)
    stats = time_callable(fn, warmup, iters)
    return TargetReport(
        name=kind,
        resolution=f"{w}x{h}x{cin}->{cout}",
        warmup=warmup,
        iters=iters,
        macs=macs,
        **stats,
    )

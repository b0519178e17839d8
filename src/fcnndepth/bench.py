"""Wall-clock micro-benchmarks for decoder blocks and whole models.

Every target is a builder graph run by infer on its own random_weights and a
random image, both drawn from the seed. Timing reports carry mean/min/p50/p95
over at least ten measured iterations plus the graph's multiply-accumulate
count, so relative orderings between targets can be asserted without
trusting absolute times.
"""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .models import ModelSpec, block_graph, build_model, graph_macs, infer, random_weights
from .tensor import Tensor4

MIN_ITERS = 10
DEFAULT_WARMUP = 2


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


def time_callable(fn, warmup: int, iters: int) -> dict[str, float]:
    """Run fn warmup + iters times; summarize the timed iterations (nearest-rank percentiles)."""
    if iters < MIN_ITERS:
        raise ValueError(f"need at least {MIN_ITERS} iterations, got {iters}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    p50, p95 = np.percentile(times, [50, 95], method="inverted_cdf")
    return {
        "mean_s": sum(times) / len(times),
        "min_s": min(times),
        "p50_s": float(p50),
        "p95_s": float(p95),
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


def _bench_graph(name: str, resolution: str, graph, iters: int, warmup: int,
                 seed: int) -> TargetReport:
    """Time infer of the graph on its random_weights and a random image, both from seed."""
    weights = random_weights(graph, seed)
    image = Tensor4(np.random.default_rng(seed).random(graph.input_shape, dtype=np.float32))
    stats = time_callable(lambda: infer(graph, weights, image), warmup, iters)
    return TargetReport(name, resolution, warmup, iters, macs=graph_macs(graph), **stats)


def bench_model(
    spec: ModelSpec, name: str, iters: int, warmup: int = DEFAULT_WARMUP, seed: int = 0
) -> TargetReport:
    """Time end-to-end inference of one model on a random image."""
    return _bench_graph(name, f"{spec.input_w}x{spec.input_h}", build_model(spec),
                        iters, warmup, seed)


def bench_block(
    kind: str, h: int, w: int, cin: int, cout: int,
    iters: int, warmup: int = DEFAULT_WARMUP, seed: int = 0,
) -> TargetReport:
    """Time one decoder block of the given kind (models.DECODERS) on an (1, h, w, cin) input.

    The block is the builder's own (models.block_graph), so its time is that
    of the layers the presets run.
    """
    return _bench_graph(kind, f"{w}x{h}x{cin}->{cout}", block_graph(kind, h, w, cin, cout),
                        iters, warmup, seed)

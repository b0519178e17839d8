"""Benchmark of the fcnndepth inference stack.

    python3 perfbench/run.py --workload lite-fast-full --seed 1 --seconds 45 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/README.md) from the
package under ./src of the checkout, in one process, as a closed loop of
one client; two of the three set-ups that setup_s is the median of run in
fresh processes. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs the same ops once untraced and once traced and reports
the per-layer metrics. Every op's output is checked; a seed-chosen op per
preset is also compared with an independent reference after timing.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it give the
environment and each metric by name, unit and sample count. The full
record (and, traced, every span) is written under .perfbench/results/.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

# BLAS threads per process, capped at the CPU count. One thread gave a
# tighter run-to-run spread than two on a 2-core machine at a similar median.
BLAS_THREADS = 1
# Set-ups per run: the run's own, then one in a fresh process after each
# part of the timed loop.
SETUP_REPEATS = 3
# The up-conv block pair of the ROADMAP: 16x16 input, 256 -> 128 channels.
BLOCK_SHAPE = (16, 16, 256, 128)
BLOCK_ITERS = 15
SGEMM_N = 1024
SGEMM_ITERS = 9
# The bounded times are scaled to a host on which the reference matmul
# (workloads.HostReference) has this median.
REF_MATMUL_MS = 2.5
# End-to-end figures printed for reading but not bounded in BENCHMARK.json:
# the unscaled times and the throughput move with the load other tenants
# put on a shared host (see perfbench/README.md), and failed_frac is 0 when
# correct.
UNBOUNDED_UNITS = {"latency_p50_raw_ms": "ms", "setup_raw_s": "s", "ref_matmul_ms": "ms",
                   "images_per_s": "1/s", "failed_frac": "ratio"}


def pin_blas_threads() -> tuple[int, int]:
    """Fix the BLAS thread count before numpy loads; returns (threads, nproc)."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def blas_threads_in_use(np) -> int | None:
    """The thread count OpenBLAS reports, when numpy bundles a library that tells."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, threads: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads,
        "blas_threads_reported": blas_threads_in_use(np),
        "nproc": nproc,
        "machine": platform.machine(),
    }


def sgemm_gmac_s(rng) -> float:
    """Measured float32 matrix-multiply rate, the roofline yardstick."""
    import numpy as np

    a = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    b = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    a @ b
    times = []
    for _ in range(SGEMM_ITERS):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return SGEMM_N**3 / statistics.median(times) / 1e9


def upconv_blocks(rng) -> dict[str, float]:
    """Time the naive and fast up-conv blocks, alternating, untraced."""
    import numpy as np

    from fcnndepth import upconv
    from fcnndepth.tensor import Tensor4

    h, w, cin, cout = BLOCK_SHAPE
    x = Tensor4(rng.standard_normal((1, h, w, cin)).astype(np.float32))
    weights = upconv.random_upconv_weights(cin, cout, rng)
    split = upconv.split_weights_5x5(weights)
    blocks = {
        "naive": (lambda: upconv.upconv_block_naive(x, weights),
                  upconv.naive_block_macs(h, w, cin, cout)),
        "fast": (lambda: upconv.upconv_block_fast(x, split),
                 upconv.fast_block_macs(h, w, cin, cout)),
    }
    times = {k: [] for k in blocks}
    for it in range(BLOCK_ITERS + 2):
        for k, (fn, _) in blocks.items():
            t0 = time.perf_counter()
            fn()
            if it >= 2:
                times[k].append(time.perf_counter() - t0)
    m = {}
    for k, (_, macs) in blocks.items():
        sec = statistics.median(times[k])
        m[f"upconv.block_{k}.ms"] = sec * 1e3
        m[f"upconv.block_{k}.gmac_per_s"] = macs / sec / 1e9
    m["upconv.fast_naive_time_ratio"] = m["upconv.block_fast.ms"] / m["upconv.block_naive.ms"]
    m["upconv.fast_naive_mac_ratio"] = blocks["fast"][1] / blocks["naive"][1]
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measurement(workload: str, seed: int, workdir: Path):
    """The run's workload and measuring loop, all drawn from `seed`.

    Returns the Measurement, the weight seed and the generator left for
    the traced run's own draws.
    """
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    weight_seed = int(rng.integers(2**31))
    wl = workloads.WORKLOADS[workload]()
    picks = {name: int(rng.integers(workloads.KEEP_WINDOW)) for name in wl.presets}
    m = workloads.Measurement(wl, workdir, np.random.default_rng(rng.integers(2**63)), picks)
    return m, weight_seed, rng


def timed_setup(workload: str, seed: int, workdir: Path):
    """Set up from the package import to the end of the untimed warm-up op.

    Returns the Measurement and the seconds it took. Called in a process
    that has not imported the package yet, so lazy set-up shows.
    """
    t0 = time.perf_counter()
    m, weight_seed, _ = measurement(workload, seed, workdir)
    m.workload.setup(workdir, weight_seed)
    m.warm_up()
    return m, time.perf_counter() - t0


def setup_in_new_process(workload: str, seed: int) -> float:
    """timed_setup of the same workload and seed in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a new process failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def run_plain(workload: str, seed: int, workdir: Path, seconds: float):
    """End-to-end run: set-up, then the timed closed loop in parts, each
    part followed by a set-up in a fresh process; setup_s is their median.
    The bounded times are scaled by REF_MATMUL_MS over the run's median
    reference matmul time.
    """
    import workloads

    m, first = timed_setup(workload, seed, workdir)
    m.reference = workloads.HostReference()
    setups = [first]
    for _ in range(SETUP_REPEATS - 1):
        m.measure(seconds / (SETUP_REPEATS - 1))
        setups.append(setup_in_new_process(workload, seed))
    lat_ms = [t * 1e3 for t in m.latencies]
    ref_ms = statistics.median(m.reference.seconds) * 1e3
    scale = REF_MATMUL_MS / ref_ms
    record = {
        "metrics": {
            "latency_p50_ms": statistics.median(lat_ms) * scale,
            "latency_p50_raw_ms": statistics.median(lat_ms),
            "images_per_s": len(m.workload.presets) * len(lat_ms) / (sum(lat_ms) / 1e3),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setups) * scale,
            "setup_raw_s": statistics.median(setups),
            "ref_matmul_ms": ref_ms,
        },
        "setup_runs_s": setups,
        "reference_ms": [t * 1e3 for t in m.reference.seconds],
    }
    return m, record


def run_traced(workload: str, seed: int, workdir: Path, seconds: float):
    """Per-layer run: half the time untraced, half traced, same ops."""
    import tracing

    m, weight_seed, rng = measurement(workload, seed, workdir)
    lm = upconv_blocks(rng)
    sgemm = sgemm_gmac_s(rng)
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = tracing.SETUP
        m.workload.setup(workdir, weight_seed)
        m.warm_up()
        tracer.op = None
    untraced = m.measure(seconds / 2)
    first = len(m.latencies)
    tracer.track_memory = True
    with tracer:
        traced = m.measure(seconds / 2, tracer)
    ops = [i for i in range(first, len(m.latencies)) if i not in m.failures]
    lm.update(tracing.layer_metrics(tracer.spans, ops, {i: m.latencies[i] for i in ops}))
    untraced_s = statistics.median(untraced)
    gmac = sum(lm[f"{tracing.CONV}.{c}.gmac"] for c in tracing.CONV_CLASSES)
    lm["trace.overhead_frac"] = statistics.median(traced) / untraced_s - 1
    lm["trace.absent_funcs"] = len(tracer.absent)
    lm["env.sgemm_gmac_s"] = sgemm
    lm["env.roofline_frac"] = gmac / untraced_s / sgemm
    return m, {
        "metrics": lm,
        "absent": tracer.absent,
        "untraced_ms": [t * 1e3 for t in untraced],
        "spans": tracing.span_records(tracer.spans),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="only time one set-up and print its seconds")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads, nproc = pin_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "fcnndepth" / "__init__.py").is_file():
        print(f"error: no fcnndepth package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2

    import numpy as np

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    if args.setup_only:
        try:
            print(timed_setup(args.workload, args.seed, workdir)[1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    env = environment(np, threads, nproc)
    print("env " + json.dumps(env))
    try:
        if args.trace:
            m, record = run_traced(args.workload, args.seed, workdir, args.seconds)
        else:
            m, record = run_plain(args.workload, args.seed, workdir, args.seconds)
        record["oracle_checks"] = m.check_oracles()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import workloads

    wl = m.workload
    attempted, failed = len(m.latencies), len(m.failures)
    values = dict(record["metrics"], failed_frac=failed / attempted)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]} for d in wanted}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, "
          f"1 client, {attempted} ops of {len(wl.presets)} image(s) at {wl.width}x{wl.height}")
    for name, v in metrics.items():
        print(f"  {name:44s} {v['value']:14.6g} {v['unit']}")
    for name, unit in UNBOUNDED_UNITS.items():
        if name in values:
            print(f"  {name:44s} {values[name]:14.6g} {unit} (printed, not bounded)")
    lat_ms = [t * 1e3 for t in m.latencies]
    tail = workloads.tail_percentile(attempted)
    if tail is None:
        print(f"  {attempted} latency samples, {failed} failed: no percentile above p50 "
              f"has {workloads.MIN_SAMPLES_BEYOND} samples beyond it")
    else:
        print(f"  latency_p{tail:g}_ms {workloads.percentile(lat_ms, tail):.6g} ms "
              f"({attempted} samples)")
    for i, error in sorted(m.failures.items()):
        print(f"  op {i} failed: {error}")
    if record.get("absent"):
        print(f"  absent (reported as 0): {', '.join(record['absent'])}")

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, latencies_ms=lat_ms, attempted=attempted,
                  failures={str(k): v for k, v in m.failures.items()})
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

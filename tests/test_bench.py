from types import SimpleNamespace

import pytest

from fcnndepth import bench, ops


@pytest.mark.parametrize("n, p50_rank, p95_rank", [(10, 5, 10), (11, 6, 11), (20, 10, 19)])
def test_percentiles_are_nearest_rank(n, p50_rank, p95_rank, monkeypatch):
    # iteration i takes durations[i] seconds on a fake clock; the nearest-rank
    # p-th percentile of n values is the ceil(p/100 * n)-th smallest
    durations = [((7 * i) % n + 1) / 64 for i in range(n)]
    clock = iter(t for d in durations for t in (0.0, d))
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    stats = bench.time_callable(lambda: None, warmup=0, iters=n)
    ranked = sorted(durations)
    assert stats == {
        "mean_s": sum(durations) / n,
        "min_s": ranked[0],
        "p50_s": ranked[p50_rank - 1],
        "p95_s": ranked[p95_rank - 1],
    }


def test_unknown_block_names_the_decoder():
    with pytest.raises(ValueError, match="unknown decoder 'nope'"):
        bench.bench_block("nope", 4, 4, 2, 2, iters=10)


def test_environment_records_conv_workers(monkeypatch):
    # timings taken on different thread counts are not comparable
    assert bench.environment()["conv_workers"] == ops.THREADS
    monkeypatch.setattr(ops, "THREADS", 7)
    assert bench.environment()["conv_workers"] == 7

"""Checks of the benchmark itself: failure counting, percentile rule, span arithmetic.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
The workloads here are shrunk to 64x48 at width /8 so the suite takes
seconds.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from fcnndepth import models, ops  # noqa: E402
from fcnndepth.tensor import ConvKernel, Tensor4  # noqa: E402
from tracing import Span  # noqa: E402


def _measure(workload, tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    m = workloads.Measurement(workload, tmp_path, rng, {p: 0 for p in workload.presets})
    workload.setup(tmp_path, seed)
    m.measure(0.0)
    m.check_oracles()
    return m


def test_clean_lite_run_has_no_failures(tmp_path):
    m = _measure(workloads.LiteWorkload("lite-upconv-fast", 64, 48, 8), tmp_path)
    assert len(m.latencies) == 1 and m.failures == {}


def test_clean_cli_sweep_has_no_failures(tmp_path):
    m = _measure(workloads.CliSweepWorkload(64, 48, 8), tmp_path)
    assert len(m.latencies) == 1 and m.failures == {}


@pytest.mark.parametrize("workload", [
    lambda: workloads.LiteWorkload("lite-upconv-fast", 64, 48, 8),
    lambda: workloads.LiteWorkload("lite-upconv", 64, 48, 8),
    lambda: workloads.CliSweepWorkload(64, 48, 8),
])
def test_miswired_parity_branches_count_as_failed(tmp_path, monkeypatch, workload):
    # Swap the even/odd and odd/even branches, as `verify --inject-fault` does.
    good = models.interleave4
    monkeypatch.setattr(models, "interleave4", lambda a, b, c, d: good(a, c, b, d))
    m = _measure(workload(), tmp_path)
    assert len(m.failures) == len(m.latencies) == 1
    assert "oracle" in m.failures[0]


def test_wrong_shape_and_non_finite_outputs_fail():
    assert workloads.output_error(np.zeros((2, 3)), (2, 3)) is None
    assert "shape" in workloads.output_error(np.zeros((3, 2)), (2, 3))
    assert "non-finite" in workloads.output_error(np.array([[0.0, np.nan, 1.0]]), (1, 3))


def test_raising_op_counts_as_failed(tmp_path):
    workload = workloads.LiteWorkload("lite-upconv-fast", 64, 48, 8)
    workload.setup(tmp_path, 0)
    workload.weights = models.random_weights(models.build_model(workload._spec("lite-upconv")))
    m = workloads.Measurement(workload, tmp_path, np.random.default_rng(0), {})
    m.measure(0.0)
    assert "missing weight entry" in m.failures[0]


@pytest.mark.parametrize("n, expected", [
    (1, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert workloads.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert workloads.percentile(values, 50) == 50
    assert workloads.percentile(values, 90) == 90
    assert workloads.percentile([7.0], 99.9) == 7.0


def test_self_time_subtracts_direct_children():
    spans = [
        Span("models.infer", 0.0, 10.0, -1, 0),
        Span("ops.deconv2d", 1.0, 6.0, 0, 0),
        Span("ops.conv2d_padded", 2.0, 5.0, 1, 0, {"cls": "kxk", "macs": 4e9}),
        Span("ops.relu", 7.0, 8.0, 0, 0, {"out_bytes": 2e6}),
        Span("models.infer", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    op0 = tracing.unit_totals(spans)[0]
    assert op0["ops.deconv2d.self_ms"] == 2000.0
    assert op0["ops.deconv2d.ms"] == 5000.0
    assert op0["ops.conv2d_padded.kxk.self_ms"] == 3000.0
    assert op0["ops.conv2d_padded.kxk.gmac"] == 4.0
    assert op0["ops.relu.out_mb"] == 2.0
    assert op0["top_level_s"] == 10.0


def test_layer_metrics_are_per_op_medians():
    spans = []
    for op, dur in enumerate((1.0, 3.0, 2.0)):
        spans.append(Span("models.infer", 10.0 * op, 10.0 * op + dur, -1, op))
        spans.append(Span("ops.conv2d_padded", 10.0 * op, 10.0 * op + dur / 2, len(spans) - 1,
                          op, {"cls": "cout1", "macs": 1e9, "peak": 5e6}))
    spans.append(Span("models.random_weights", 100.0, 100.5, -1, tracing.SETUP))
    m = tracing.layer_metrics(spans, [0, 1, 2], {0: 1.0, 1: 3.0, 2: 4.0})
    assert m["ops.conv2d_padded.cout1.calls"] == 1
    assert m["ops.conv2d_padded.cout1.self_ms"] == 1000.0
    assert m["ops.conv2d_padded.cout1.gmac_per_s"] == 1.0
    assert m["ops.conv2d_padded.cout1.peak_mb"] == 5.0
    assert m["models.infer.self_ms"] == 1000.0
    assert m["models.random_weights.ms"] == 500.0
    assert m["interleave.interleave4.calls"] == 0
    assert m["trace.coverage_frac"] == 1.0  # per op 1.0, 1.0 and 2.0 s / 4.0 s = 0.5


def test_tracer_nests_deconv_over_its_conv_and_restores():
    original = ops.deconv2d
    rng = np.random.default_rng(0)
    x = Tensor4(rng.standard_normal((1, 3, 4, 2)))
    kernel = ConvKernel(rng.standard_normal((5, 5, 2, 3)))
    tracer = tracing.Tracer(track_memory=True)
    with tracer:
        tracer.op = 0
        out = ops.deconv2d(x, kernel, 2)
    assert ops.deconv2d is original
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("ops.deconv2d", -1), ("ops.conv2d_padded", 0)]
    conv = tracer.spans[1]
    assert conv.extra["cls"] == "kxk"
    assert conv.extra["macs"] == 1 * 6 * 8 * 3 * 5 * 5 * 2
    assert conv.extra["peak"] > 0
    assert tracer.spans[0].extra["out_bytes"] == out.data.nbytes
    own = tracing.self_times(tracer.spans)
    assert own[0] + own[1] == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_absent_function_is_reported_not_raised():
    targets = tracing.TARGETS + (("fcnndepth.ops", "no_such_kernel", "ops.no_such_kernel"),)
    tracer = tracing.Tracer(targets)
    with tracer:
        pass
    assert tracer.absent == ["fcnndepth.ops.no_such_kernel"]
    assert not hasattr(ops, "no_such_kernel")


def test_host_reference_is_sampled_after_every_timed_op(tmp_path):
    workload = workloads.LiteWorkload("lite-upconv-fast", 64, 48, 8)
    workload.setup(tmp_path, 0)
    m = workloads.Measurement(workload, tmp_path, np.random.default_rng(0), {},
                              reference=workloads.HostReference())
    m.measure(0.0)
    m.measure(0.0)
    assert len(m.reference.seconds) == 2 * workloads.HostReference.REPS
    assert min(m.reference.seconds) > 0


def test_cli_sweep_reads_new_weight_paths_every_op(tmp_path):
    workload = workloads.CliSweepWorkload(64, 48, 8)
    workload.setup(tmp_path, 0)
    rng = np.random.default_rng(0)
    first = dict(workload.paths, scene=workload.make_input(rng, tmp_path).path)
    second = dict(workload.paths, scene=workload.make_input(rng, tmp_path).path)
    assert set(first) == {*models.PRESETS, "scene"}
    assert all(first[k] != second[k] and second[k].is_file() for k in first)
    assert not first["scene"].parent.exists()

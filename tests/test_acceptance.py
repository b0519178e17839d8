"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the timing criterion (9) compares relative orderings only and is the
slowest part of the suite.
"""
import functools
import time

import numpy as np
import pytest

from fcnndepth.cli import main as cli_main
from fcnndepth.interleave import interleave4, interleave4_reference
from fcnndepth.losses import AdaptiveBerHuState, aberhu_step, berhu_loss, mse_rel_loss
from fcnndepth.metrics import compute_metrics
from fcnndepth.models import (
    EVALUATED_PRESETS,
    build_model,
    infer,
    preset,
    random_weights,
    shape_trace,
    with_decoder,
)
from fcnndepth.synthetic import generate_corpus
from fcnndepth.tensor import Tensor4
from fcnndepth.upconv import verify_equivalence
from fcnndepth.weights_io import load_weights, save_weights, split_container
from helpers import central_difference_grad, metrics_scalar_ref, random_depth_pair

from fcnndepth import bench


def report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_interleave_equivalence():
    start = time.perf_counter()
    exact = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        shape = (
            int(rng.integers(1, 5)),
            int(rng.integers(1, 17)),  # output height 2..32, even
            int(rng.integers(1, 17)),  # output width 2..32, even
            int(rng.integers(1, 9)),
        )
        quads = [
            Tensor4(rng.standard_normal(shape).astype(np.float32)) for _ in range(4)
        ]
        exact &= np.array_equal(
            interleave4(*quads).data, interleave4_reference(*quads).data
        )
    elapsed = time.perf_counter() - start
    report(1, "interleave single-pass vs 3-step, bit exact, 100 shapes",
           exact and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_02_upconv_transfer_equivalence():
    worst32 = worst64 = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        shape = (
            int(rng.integers(1, 3)),
            int(rng.integers(1, 13)),
            int(rng.integers(1, 13)),
            int(rng.integers(1, 9)),
        )
        cout = int(rng.integers(1, 9))
        worst32 = max(worst32, verify_equivalence(shape, seed, cout=cout))
        worst64 = max(
            worst64, verify_equivalence(shape, seed, cout=cout, dtype=np.float64)
        )
    report(2, "up-convolution weight transfer, 100 pairs",
           worst32 <= 1e-5 and worst64 <= 1e-10,
           f"float32 worst {worst32:.2e} <= 1e-5, float64 worst {worst64:.2e} <= 1e-10")


def test_criterion_03_end_to_end_equivalence():
    spec = preset("basic-sc-upconv", input_h=240, input_w=320, width_div=8)
    g_naive = build_model(spec)
    g_fast = build_model(with_decoder(spec, "upconv_fast"))
    weights = random_weights(g_naive, seed=3)
    image = Tensor4(np.random.default_rng(4).random((1, 240, 320, 3)).astype(np.float32))
    out_naive = infer(g_naive, weights, image)
    out_fast = infer(g_fast, split_container(weights), image)
    diff = float(np.max(np.abs(out_naive.data - out_fast.data)))
    report(3, "end-to-end naive vs transferred fast preset at 320x240",
           diff <= 1e-4, f"max diff {diff:.2e} <= 1e-4")


def test_criterion_04_shape_contracts():
    basic = build_model(preset("basic-deconv"))
    lite = build_model(preset("lite-upconv"))
    ok = dict(shape_trace(basic))[basic.bottleneck] == (1, 15, 20, 2048)
    ok &= dict(shape_trace(lite))[lite.bottleneck] == (1, 30, 40, 1024)
    for name in EVALUATED_PRESETS:
        for h, w in ((480, 640), (240, 320)):
            graph = build_model(preset(name, input_h=h, input_w=w))
            ok &= dict(shape_trace(graph))[graph.output] == (1, h, w, 1)
    report(4, "bottleneck 15x20x2048 / 30x40x1024; six presets full-res output", ok)


def test_criterion_05_loss_gradients():
    worst = {"mse_rel": 0.0, "berhu": 0.0}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pred, truth = random_depth_pair(rng, shape=(1, 2, 4, 1))
        truth_t = Tensor4(truth)
        a1, a2 = rng.uniform(0.2, 2.5, 2)
        _, grad = mse_rel_loss(Tensor4(pred), truth_t, a1, a2)
        fd = central_difference_grad(
            lambda p: mse_rel_loss(Tensor4(p), truth_t, a1, a2)[0], pred
        )
        rel = np.abs(grad.data - fd) / np.maximum(np.abs(fd), 1e-8)
        worst["mse_rel"] = max(worst["mse_rel"], float(rel.max()))

        k = float(rng.uniform(0.3, 1.5))
        # finite differences need pixels away from both BerHu kinks
        e = np.abs(truth - pred)
        pred_b = np.where(np.abs(e - k) < 5e-3, truth - (e + 2e-2), pred)
        pred_b = np.where(np.abs(truth - pred_b) < 5e-3, truth - 2e-2, pred_b)
        _, grad_b = berhu_loss(Tensor4(pred_b), truth_t, k)
        fd_b = central_difference_grad(
            lambda p: berhu_loss(Tensor4(p), truth_t, k)[0], pred_b
        )
        rel_b = np.abs(grad_b.data - fd_b) / np.maximum(np.abs(fd_b), 1e-8)
        worst["berhu"] = max(worst["berhu"], float(rel_b.max()))
    ok = worst["mse_rel"] <= 1e-4 and worst["berhu"] <= 1e-4
    report(5, "analytic gradients vs central differences, 100 pairs", ok,
           f"mse+rel worst {worst['mse_rel']:.2e}, berhu worst {worst['berhu']:.2e}")


def test_criterion_06_loss_spot_values():
    one_pixel = lambda p, t: (
        Tensor4(np.full((1, 1, 1, 1), p)), Tensor4(np.full((1, 1, 1, 1), t))
    )
    v_mse_rel, _ = mse_rel_loss(*one_pixel(1.0, 2.0), alpha1=1.0, alpha2=2.0)
    v_lin, _ = berhu_loss(*one_pixel(1.5, 2.0), k=1.0)
    v_quad, _ = berhu_loss(*one_pixel(4.0, 2.0), k=1.0)
    ok = (
        abs(v_mse_rel - 1.5) <= 1e-9
        and abs(v_lin - 0.5) <= 1e-9
        and abs(v_quad - 2.5) <= 1e-9
    )
    report(6, "loss spot values 1.5 / 0.5 / 2.5", ok,
           f"got {v_mse_rel}, {v_lin}, {v_quad}")


def test_criterion_07_adaptive_threshold_controller():
    state = AdaptiveBerHuState(k=1.0, delta=1.0, lr=0.01)
    pair64 = lambda p, t: (Tensor4(np.asarray(p, dtype=np.float64).reshape(1, -1, 1, 1)),
                           Tensor4(np.asarray(t, dtype=np.float64).reshape(1, -1, 1, 1)))

    _, _, up = aberhu_step(*pair64([0.5, 4.0], [0.5, 1.8]), state)
    moved_up = up.k == 1.0 + 0.01 * 1.0

    # symmetric |e| = 0.3 in each band
    _, _, tied = aberhu_step(*pair64([0.8 + 0.3, 1.2 - 0.3], [0.8, 1.2]), state)
    tie_held = tied.k == state.k

    _, _, empty = aberhu_step(*pair64([9.5, 8.5], [9.0, 8.0]), state)
    empty_held = empty.k == state.k

    rng = np.random.default_rng(7)
    s = AdaptiveBerHuState(k=1.0, delta=1.0, lr=0.01)
    positive = True
    for _ in range(10_000):
        truth = rng.uniform(0.05, 6.0, (1, 6, 1, 1))
        pred = truth + rng.normal(0, 0.6, truth.shape)
        _, _, s = aberhu_step(Tensor4(pred), Tensor4(truth), s)
        positive &= s.k > 0
    report(7, "adaptive threshold: +0.01 step, ties, empties, positivity",
           moved_up and tie_held and empty_held and positive,
           f"k after up-step {up.k}, after 1e4 steps {s.k:.4f}")


def test_criterion_08_metrics_oracle():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        shape = (1, int(rng.integers(1, 7)), int(rng.integers(1, 7)), 1)
        pred, truth = random_depth_pair(rng, shape=shape, invalid_frac=0.1)
        if not (truth > 0).any():
            continue
        pred32, truth32 = pred.astype(np.float32), truth.astype(np.float32)
        rep = compute_metrics(Tensor4(pred32), Tensor4(truth32))
        ok &= rep.as_dict() == metrics_scalar_ref(pred32, truth32)
        ok &= rep.delta1 <= rep.delta2 <= rep.delta3
    report(8, "metrics equal scalar brute force exactly, 100 pairs", ok)


@pytest.mark.slow
def test_criterion_09_performance_orderings():
    # The encoder-depth gap only dominates per-layer overhead at full
    # channel widths, so that comparison runs unscaled; the 4x pixel-count
    # gap is unambiguous even at reduced widths.
    iters = 10
    # basic and lite run alternately, one run each per round, so that a slow
    # stretch of the host slows both sides alike; each is warmed up once and
    # summarized by its mean, as bench_model would
    runs = {}
    for name in ("basic-sc-nonbt", "lite-sc-nonbt"):
        graph = build_model(preset(name, input_h=240, input_w=320))
        weights = random_weights(graph, 0)
        image = Tensor4(np.random.default_rng(0).random((1, 240, 320, 3)).astype(np.float32))
        runs[name] = functools.partial(infer, graph, weights, image)
        runs[name]()
    times = {name: [] for name in runs}
    for _ in range(iters):
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - start)
    basic_mean, lite_mean = (sum(t) / iters for t in times.values())
    lite_320_scaled = bench.bench_model(
        preset("lite-sc-nonbt", input_h=240, input_w=320, width_div=8),
        "lite-sc-nonbt", iters)
    lite_640_scaled = bench.bench_model(
        preset("lite-sc-nonbt", input_h=480, input_w=640, width_div=8),
        "lite-sc-nonbt", iters)
    naive = bench.bench_block("upconv_naive", 16, 16, 256, 128, iters)
    fast = bench.bench_block("upconv_fast", 16, 16, 256, 128, iters)

    lite_faster = lite_mean < basic_mean
    small_faster = lite_320_scaled.mean_s < lite_640_scaled.mean_s
    fast_faster = fast.mean_s < naive.mean_s and fast.macs < naive.macs
    report(9, "latency orderings: lite<basic, 320x240<640x480, fast<naive",
           lite_faster and small_faster and fast_faster,
           f"lite {lite_mean:.2f}s vs basic {basic_mean:.2f}s (full width); "
           f"320x240 {lite_320_scaled.mean_s * 1e3:.0f}ms vs 640x480 "
           f"{lite_640_scaled.mean_s * 1e3:.0f}ms; block fast {fast.mean_s * 1e3:.0f}ms "
           f"vs naive {naive.mean_s * 1e3:.0f}ms")


def test_criterion_10_cli_round_trips(tmp_path, capsys):
    # weight container: save -> load -> save, byte-identical
    graph = build_model(preset("lite-upconv", input_h=48, input_w=64, width_div=16))
    weights = random_weights(graph, seed=10)
    p1, p2 = tmp_path / "w1.fcnw", tmp_path / "w2.fcnw"
    save_weights(weights, p1)
    save_weights(load_weights(p1), p2)
    weights_ok = p1.read_bytes() == p2.read_bytes()

    # synthetic corpus determinism under a fixed seed
    for tag in ("a", "b"):
        generate_corpus(tmp_path / tag, 3, 16, 12, seed=11)
    corpus_ok = all(
        (tmp_path / "a" / p.name).read_bytes() == p.read_bytes()
        for p in sorted((tmp_path / "b").iterdir())
    )

    # verification gate: clean run exits 0, fault injection exits 1
    gate_ok = cli_main(["verify", "--seeds", "5"]) == 0
    control_ok = cli_main(["verify", "--seeds", "3", "--inject-fault"]) == 1
    capsys.readouterr()

    report(10, "weight/corpus round trips and verify exit-code gate",
           weights_ok and corpus_ok and gate_ok and control_ok)

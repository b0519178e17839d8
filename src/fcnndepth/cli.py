"""Command-line interface: inference, benchmarking, equivalence verification,
metric evaluation, weight conversion, and synthetic data generation.

Exit codes: 0 on success, 1 when a verification or metric gate fails, 2 on
usage or input errors. The bench and eval commands print exactly one JSON
document on stdout; human-readable progress goes to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as benchmod
from . import synthetic
from .fileio import image_to_tensor, read_depth_raster, read_ppm, write_depth_raster
from .interleave import interleave4, interleave4_reference
from .metrics import compute_metrics
from .models import DECODERS, PRESETS, build_model, infer, preset
from .tensor import Tensor4
from .upconv import verify_equivalence
from .weights_io import load_weights, save_weights, split_container

DEFAULT_WIDTH_DIV = 8
FLOAT32_TOL = 1e-5
FLOAT64_TOL = 1e-10


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _positive_pair(sep: str, form: str, what: str):
    """An argparse type for two positive ints joined by `sep`, as in `form`."""
    def parse(text: str) -> tuple[int, int]:
        try:
            a, b = (int(part) for part in text.lower().split(sep))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        if a < 1 or b < 1:
            raise argparse.ArgumentTypeError(f"{what} must be positive, got {text!r}")
        return a, b
    return parse


_resolution = _positive_pair("x", "WxH", "resolution")  # (width, height)
_channels = _positive_pair(":", "CIN:COUT", "channels")


def cmd_infer(args) -> int:
    rgb = read_ppm(args.input)
    h, w = rgb.shape[:2]
    spec = preset(args.model, input_h=h, input_w=w, width_div=args.width_div)
    graph = build_model(spec)
    depth = infer(graph, load_weights(args.weights), image_to_tensor(rgb))
    write_depth_raster(args.output, depth.data[0, :, :, 0])
    _say(f"wrote {w}x{h} depth map to {args.output}")
    return 0


def cmd_bench(args) -> int:
    targets = []
    w, h = args.resolution
    for name in args.model or []:
        spec = preset(name, input_h=h, input_w=w, width_div=args.width_div)
        _say(f"benchmarking model {name} at {w}x{h} (width/{args.width_div}) ...")
        targets.append(
            benchmod.bench_model(spec, name, args.iters, args.warmup, args.seed)
        )
    cin, cout = args.channels
    for kind in args.block or []:
        _say(f"benchmarking block {kind} on {w}x{h}x{cin}->{cout} ...")
        targets.append(
            benchmod.bench_block(kind, h, w, cin, cout, args.iters, args.warmup, args.seed)
        )
    if not targets:
        raise ValueError("nothing to benchmark; pass --model and/or --block")
    for t in targets:
        _say(f"{t.name:24s} {t.resolution:>16s}  mean {t.mean_s * 1e3:9.2f} ms  "
             f"min {t.min_s * 1e3:9.2f} ms  p95 {t.p95_s * 1e3:9.2f} ms  macs {t.macs}")
    print(json.dumps({
        "command": "bench",
        "targets": [t.as_dict() for t in targets],
        "env": benchmod.environment(),
    }))
    return 0


def cmd_verify(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    rng = np.random.default_rng(args.seeds)
    worst_ilv = 0.0
    for _ in range(args.seeds):
        n, hh, hw, c = (int(rng.integers(1, hi + 1)) for hi in (3, 12, 12, 6))
        quads = [
            Tensor4(rng.standard_normal((n, hh, hw, c)).astype(np.float32))
            for _ in range(4)
        ]
        diff = np.abs(
            interleave4(*quads).data - interleave4_reference(*quads).data
        ).max()
        worst_ilv = max(worst_ilv, float(diff))
    print(f"interleave single-pass vs 3-step reference: max |diff| = {worst_ilv:g} "
          f"over {args.seeds} random shapes (must be 0)")

    results = {}
    for dtype, tol in ((np.float32, FLOAT32_TOL), (np.float64, FLOAT64_TOL)):
        worst = 0.0
        for seed in range(args.seeds):
            shape_rng = np.random.default_rng(seed + 1000)
            n = int(shape_rng.integers(1, 3))
            h = int(shape_rng.integers(1, 13))
            w = int(shape_rng.integers(1, 13))
            cin = int(shape_rng.integers(1, 9))
            cout = int(shape_rng.integers(1, 9))
            worst = max(
                worst,
                verify_equivalence(
                    (n, h, w, cin), seed, cout=cout, dtype=dtype,
                    inject_fault=args.inject_fault,
                ),
            )
        results[np.dtype(dtype).name] = (worst, tol)
        print(f"up-convolution naive vs fast ({np.dtype(dtype).name}): "
              f"max |diff| = {worst:.3g} (tolerance {tol:g})")

    ok = worst_ilv == 0.0 and all(w <= tol for w, tol in results.values())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_eval(args) -> int:
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    pred_files = {p.name: p for p in sorted(pred_dir.glob("*.dpth"))}
    gt_files = {p.name: p for p in sorted(gt_dir.glob("*.dpth"))}
    for folder, files in ((pred_dir, pred_files), (gt_dir, gt_files)):
        if not files:
            raise ValueError(f"{folder}: no .dpth raster (missing or empty directory)")
    if pred_files.keys() != gt_files.keys():
        only_pred = sorted(pred_files.keys() - gt_files.keys())
        only_gt = sorted(gt_files.keys() - pred_files.keys())
        raise ValueError(f"prediction/ground-truth sets differ "
                         f"(only in pred: {only_pred}, only in gt: {only_gt})")
    preds, gts = [], []
    for name in sorted(pred_files):
        p = read_depth_raster(pred_files[name])
        g = read_depth_raster(gt_files[name])
        if p.shape != g.shape:
            raise ValueError(f"{name}: shape mismatch {p.shape} vs {g.shape}")
        preds.append(p.ravel())
        gts.append(g.ravel())
    pred = Tensor4(np.concatenate(preds)[None, :, None, None])
    gt = Tensor4(np.concatenate(gts)[None, :, None, None])
    report = compute_metrics(pred, gt)
    _say(f"evaluated {len(pred_files)} pair(s)")
    print(json.dumps({"command": "eval", "pairs": len(pred_files), **report.as_dict()}))
    return 0


def cmd_gen_synthetic(args) -> int:
    w, h = args.resolution
    pairs = synthetic.generate_corpus(args.out, args.count, w, h, args.seed)
    _say(f"wrote {len(pairs)} image/depth pair(s) to {args.out}")
    return 0


def cmd_convert(args) -> int:
    container = load_weights(args.weights)
    converted = split_container(container)
    save_weights(converted, args.out)
    _say(f"converted {len(container)} entries -> {len(converted)}; wrote {args.out}")
    return 0


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcnndepth",
        description="Depth-estimation network inference, verification, and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="run a model on a P6 image, write a depth raster")
    p.add_argument("--model", required=True, choices=sorted(PRESETS))
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True, help="binary P6 image path")
    p.add_argument("--output", required=True, help="depth raster path")
    p.add_argument("--width-div", type=int, default=DEFAULT_WIDTH_DIV,
                   help="channel width divisor (default %(default)s)")
    p.add_argument("--full-width", dest="width_div", action="store_const", const=1,
                   help="shorthand for --width-div 1")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="time models and/or blocks, emit a JSON report")
    p.add_argument("--model", action="append", choices=sorted(PRESETS),
                   help="model preset; repeatable")
    p.add_argument("--block", action="append", choices=DECODERS,
                   help="single decoder block of this kind; repeatable")
    p.add_argument("--resolution", type=_resolution, default=(320, 240),
                   help="WxH input size (default %(default)s)")
    p.add_argument("--channels", type=_channels, default=(256, 128),
                   help="CIN:COUT for block targets (default 256:128)")
    p.add_argument("--iters", type=int, default=benchmod.MIN_ITERS)
    p.add_argument("--warmup", type=int, default=benchmod.DEFAULT_WARMUP)
    p.add_argument("--width-div", type=int, default=DEFAULT_WIDTH_DIV)
    p.add_argument("--full-width", dest="width_div", action="store_const", const=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check interleave and up-convolution equivalences")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--inject-fault", action="store_true",
                   help="debug: mis-wire the parity branches (must make verify fail)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="compare depth rasters in two directories")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen-synthetic", help="generate paired P6 images and depth rasters")
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--resolution", type=_resolution, default=(64, 48))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("convert", help="split naive up-convolution weights for the fast path")
    p.add_argument("--weights", required=True, help="input container (naive preset)")
    p.add_argument("--out", required=True, help="output container (fast preset)")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Independent brute-force references used as oracles by the test suite.

Everything here is deliberately written as plain scalar loops (or exact
compensated sums), sharing no code path with the vectorized kernels under
test. There are two exceptions. `deconv2d_stuffed_ref`, the zero-stuffed
form of ``ops.deconv2d``, runs through ``ops.conv2d_padded`` (itself
checked against `conv2d_loop_ref`), so its float32 GEMMs round like the
phase split's and the two can be compared bit for bit. `infer_ref` runs
each layer's own kernel from the ``OPS`` table, so it checks only what
``models.infer`` adds: the wiring and the buffers it writes in place.
`mutations` generates the damaged files that the file-format tests feed to
their readers.
"""
from __future__ import annotations

import math

import numpy as np

from fcnndepth import ops
from fcnndepth.models import OPS
from fcnndepth.tensor import ConvKernel, Tensor4


def conv2d_loop_ref(
    x: Tensor4, kernel: ConvKernel, stride: int, pads: tuple[int, int, int, int]
) -> np.ndarray:
    """Six-nested-loop cross-correlation with explicit zero padding."""
    pt, pb, pl, pr = pads
    n, h, w, cin = x.shape
    kh, kw, _, cout = kernel.weights.shape
    oh = (h + pt + pb - kh) // stride + 1
    ow = (w + pl + pr - kw) // stride + 1
    out = np.zeros((n, oh, ow, cout), dtype=np.float64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                for co in range(cout):
                    acc = 0.0
                    for a in range(kh):
                        for bb in range(kw):
                            r = i * stride + a - pt
                            s = j * stride + bb - pl
                            if 0 <= r < h and 0 <= s < w:
                                for ci in range(cin):
                                    acc += float(x.data[b, r, s, ci]) * float(
                                        kernel.weights[a, bb, ci, co]
                                    )
                    if kernel.bias is not None:
                        acc += float(kernel.bias[co])
                    out[b, i, j, co] = acc
    return out


def same_pads_ref(size: int, k: int, stride: int) -> tuple[int, int]:
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    return total // 2, total - total // 2


def deconv2d_scatter_ref(x: Tensor4, kernel: ConvKernel, stride: int) -> np.ndarray:
    """Scatter-accumulate transposed convolution, cropped to input * stride."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = kernel.weights.shape
    full_h = (h - 1) * stride + kh
    full_w = (w - 1) * stride + kw
    full = np.zeros((n, max(full_h, h * stride + kh), max(full_w, w * stride + kw), cout))
    for b in range(n):
        for i in range(h):
            for j in range(w):
                for ci in range(cin):
                    v = float(x.data[b, i, j, ci])
                    for a in range(kh):
                        for bb in range(kw):
                            for co in range(cout):
                                full[b, i * stride + a, j * stride + bb, co] += (
                                    v * float(kernel.weights[a, bb, ci, co])
                                )
    ct = max(kh - stride, 0) // 2
    cl = max(kw - stride, 0) // 2
    out = full[:, ct : ct + h * stride, cl : cl + w * stride, :]
    if kernel.bias is not None:
        out = out + kernel.bias.astype(np.float64)
    return out


def deconv2d_stuffed_ref(x: Tensor4, kernel: ConvKernel, stride: int) -> Tensor4:
    """Transposed convolution as a stride-1 convolution of the zero-stuffed grid.

    The input lands on every `stride`-th row and column of a zero grid, which
    is convolved with the flipped kernel and padded so that the output is
    exactly input * stride; it executes stride ** 2 times the MACs of
    ``ops.deconv2d`` and rounds the same in float32 wherever its GEMMs do.
    """
    n, h, w, _ = x.shape
    kh, kw = kernel.kh, kernel.kw
    stuffed = np.zeros(
        (n, (h - 1) * stride + 1, (w - 1) * stride + 1, x.c), dtype=x.dtype
    )
    stuffed[:, ::stride, ::stride] = x.data
    ct = max(kh - stride, 0) // 2
    cl = max(kw - stride, 0) // 2
    flipped = ConvKernel(kernel.weights[::-1, ::-1], kernel.bias)
    return ops.conv2d_padded(
        Tensor4(stuffed),
        flipped,
        stride=1,
        pads=(kh - 1 - ct, ct + stride - 1, kw - 1 - cl, cl + stride - 1),
    )


def infer_ref(graph, weights, image: Tensor4) -> Tensor4:
    """``models.infer`` layer by layer, every run called without `out`, every activation kept.

    Checks nothing and casts nothing: the image must be in the weights' dtype.
    """
    acts = {"image": image}
    for layer in graph.layers:
        weight = weights[layer.name] if OPS[layer.kind].weight else None
        acts[layer.name] = OPS[layer.kind].run(
            layer.attrs, [acts[s] for s in layer.inputs], weight)
    return acts[graph.output]


def metrics_scalar_ref(pred: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """Per-pixel metric computation with exact sums, matching compute_metrics bit for bit."""
    sq_terms, rel_terms = [], []
    hits = [0, 0, 0]
    count = 0
    for p32, t32 in zip(pred.ravel().tolist(), truth.ravel().tolist()):
        t = float(np.float64(t32))
        p = float(np.float64(p32))
        if t <= 0:
            continue
        count += 1
        e = t - p
        sq_terms.append(e * e)
        rel_terms.append(abs(e) / t)
        ratio = max(t / p, p / t) if p > 0 else math.inf
        for i in (1, 2, 3):
            if ratio < 1.25**i:
                hits[i - 1] += 1
    return {
        "mse": math.fsum(sq_terms) / count,
        "rel": math.fsum(rel_terms) / count,
        "delta1": hits[0] / count,
        "delta2": hits[1] / count,
        "delta3": hits[2] / count,
    }


def central_difference_grad(loss_fn, pred: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar loss with respect to each pixel."""
    grad = np.zeros_like(pred, dtype=np.float64)
    flat = grad.ravel()
    base = pred.astype(np.float64)
    for idx in range(base.size):
        bumped = base.copy().ravel()
        bumped[idx] += step
        up = loss_fn(bumped.reshape(base.shape))
        bumped[idx] -= 2 * step
        down = loss_fn(bumped.reshape(base.shape))
        flat[idx] = (up - down) / (2 * step)
    return grad


def random_depth_pair(rng: np.random.Generator, shape=(1, 3, 4, 1), invalid_frac=0.0):
    """A (prediction, truth) pair with positive depths and optional invalid pixels."""
    truth = rng.uniform(0.5, 6.0, shape)
    pred = truth + rng.normal(0.0, 0.8, shape)
    if invalid_frac > 0:
        drop = rng.random(shape) < invalid_frac
        truth = np.where(drop, 0.0, truth)
    return pred, truth


def mutations(good: bytes, count: int = 3000):
    """Seeded truncations, 1-8 byte overwrites and random tails of `good`, with their seeds."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        blob = bytearray(good)
        if seed % 3 == 0:
            blob = blob[: int(rng.integers(0, len(blob)))]
        elif seed % 3 == 1:
            for pos in rng.integers(0, len(blob), int(rng.integers(1, 9))):
                blob[pos] = int(rng.integers(0, 256))
        else:
            blob += rng.bytes(int(rng.integers(1, 64)))
        yield seed, bytes(blob)

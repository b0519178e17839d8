"""Up-convolution decoder block: naive and interleaved fast paths.

The naive block is zero-insertion unpooling followed by a 5x5 convolution,
batch normalization and ReLU (dropout is an inference-time identity). The
fast path splits the 5x5 kernel into four small kernels by tap parity,
convolves the un-upsampled input with each, and interleaves the four
results, producing the same output with a quarter of the multiply
accumulates.

Both blocks are the model builder's own: each function here runs
models.block_graph, the first decoder block of an up-convolution preset
with its layers named "dec.b1.*", through models.infer (the graph that
bench.bench_block times). So the naive/fast check exercises exactly the
layers the presets run, and infer's weight check validates the parameters,
naming the layer. The parity split is the rule ops.BRANCHES; the weight
transfer is weights_io.split_container.
"""
from __future__ import annotations

import numpy as np

from . import models
from .tensor import ConvKernel, Tensor4
from .weights_io import WeightContainer, split_container

# the block API's name for the naive-to-fast weight transfer
split_weights_5x5 = split_container

_UP, _BN = "dec.b1.up5x5", "dec.b1.bn"


def _run_block(decoder: str, x: Tensor4, weights: WeightContainer) -> Tensor4:
    # the block's width is that of its batch norm, which both forms share;
    # without one, any width will do: infer reports the missing entry first
    _, h, w, cin = x.shape
    cout = weights[_BN].channels if _BN in weights else 1
    return models.infer(models.block_graph(decoder, h, w, cin, cout), weights, x)


def upconv_block_naive(x: Tensor4, weights: WeightContainer) -> Tensor4:
    """relu(batchnorm(conv5x5(unpool_zero2(x)))); doubles height and width."""
    return _run_block("upconv_naive", x, weights)


def upconv_block_fast(x: Tensor4, weights: WeightContainer) -> Tensor4:
    """Interleaved equivalent of the naive block on the un-upsampled input."""
    return _run_block("upconv_fast", x, weights)


def naive_block_macs(h: int, w: int, cin: int, cout: int) -> int:
    """Multiply-accumulates of the naive path: 25 dense taps on the 2x grid."""
    return models.graph_macs(models.block_graph("upconv_naive", h, w, cin, cout))


def fast_block_macs(h: int, w: int, cin: int, cout: int) -> int:
    """Multiply-accumulates of the fast path: 9 + 6 + 6 + 4 taps at input resolution."""
    return models.graph_macs(models.block_graph("upconv_fast", h, w, cin, cout))


def random_upconv_weights(
    cin: int, cout: int, rng: np.random.Generator, dtype=np.float32
) -> WeightContainer:
    """The naive block's models.random_weights drawn from `rng`, plus a kernel bias."""
    graph = models.block_graph("upconv_naive", 1, 1, cin, cout)
    weights = models.random_weights(graph, rng, dtype)
    # the bias makes the naive/fast check cover how split_container hands it on
    bias = rng.standard_normal(cout, dtype=dtype) * 0.1
    weights.entries[_UP] = ConvKernel(weights[_UP].weights, bias)
    return weights


def verify_equivalence(
    shape: tuple[int, int, int, int],
    seed: int,
    cout: int | None = None,
    dtype=np.float32,
    inject_fault: bool = False,
) -> float:
    """Max absolute naive-vs-fast difference for one random (weights, input) pair.

    `inject_fault` deliberately mis-wires the parity branches (a negative
    control for the verification gate); a correct build returns values well
    below 1e-5 in float32 and 1e-10 in float64.
    """
    n, h, w, cin = shape
    if cout is None:
        cout = cin
    rng = np.random.default_rng(seed)
    x = Tensor4(rng.standard_normal((n, h, w, cin)).astype(dtype))
    weights = random_upconv_weights(cin, cout, rng, dtype=dtype)

    naive = upconv_block_naive(x, weights).data
    fast = upconv_block_fast(x, split_weights_5x5(weights)).data
    if inject_fault:
        # swap the even/odd and odd/even pixel classes: wrong parity
        # assignment of the k32 and k23 branches (batch norm and ReLU act
        # per pixel, so swapping after them is the same fault)
        swapped = fast.copy()
        swapped[:, 0::2, 1::2] = fast[:, 1::2, 0::2]
        swapped[:, 1::2, 0::2] = fast[:, 0::2, 1::2]
        fast = swapped
    return float(np.max(np.abs(naive - fast)))

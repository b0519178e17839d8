"""Up-convolution decoder block: naive and interleaved fast paths.

The naive block is zero-insertion unpooling followed by a 5x5 convolution,
batch normalization and ReLU (dropout is an inference-time identity). The
fast path splits the 5x5 kernel into four small kernels by tap parity,
convolves the un-upsampled input with each, and interleaves the four
results, producing the same output with a quarter of the multiply
accumulates.

Parity split: the naive block is a 5x5 "same" correlation (leading pad 2)
of the input zero-inserted by 2, so :func:`ops.phase_split` with lead 2
splits it per axis. The branch for output parity (r, c) convolves the
un-upsampled input with K[r::2, c::2], a (3 - r) x (3 - c) sub-kernel,
padded by (top, bottom, left, right) = (1 - r, 1, 1 - c, 1) so that it keeps
the input size, and writes output pixels [r::2, c::2], interleave4's
argument order. The branches k33, k32, k23 and k22 hold 9 + 6 + 6 + 4 = 25
taps. BRANCHES states this rule once for the split, the fast block and the
builder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .interleave import interleave4
from .tensor import BatchNormParams, ConvKernel, Tensor4


def _branch(r: int, c: int) -> tuple[str, tuple]:
    # with lead 2 and stride 2 the first tap a0 of phase r is r itself
    (_, th, rows), (_, tw, cols) = (ops.phase_split(5, 2, 2, p) for p in (r, c))
    return f"k{th}{tw}", (r, c, (th, tw), rows + cols)


# name -> (row parity r, column parity c, sub-kernel (kh, kw), pads)
BRANCHES = dict(_branch(r, c) for r in (0, 1) for c in (0, 1))


@dataclass(frozen=True)
class UpConvWeights:
    """Parameters of the naive block: one 5x5 kernel plus batch-norm stats."""

    full: ConvKernel
    bn: BatchNormParams

    def __post_init__(self):
        if (self.full.kh, self.full.kw) != (5, 5):
            raise ValueError(
                f"up-convolution kernel must be 5x5, got {self.full.kh}x{self.full.kw}"
            )


@dataclass(frozen=True)
class SplitUpConvWeights:
    """Parameters of the fast block: one sub-kernel per BRANCHES name plus batch-norm."""

    kernels: dict[str, ConvKernel]
    bn: BatchNormParams

    def __post_init__(self):
        if self.kernels.keys() != BRANCHES.keys():
            raise ValueError(
                f"sub-kernels must be named {list(BRANCHES)}, got {list(self.kernels)}"
            )
        chans = set()
        for name, (_, _, size, _) in BRANCHES.items():
            k = self.kernels[name]
            if (k.kh, k.kw) != size:
                raise ValueError(f"{name} must be {size[0]}x{size[1]}, got {k.kh}x{k.kw}")
            chans.add((k.cin, k.cout))
        if len(chans) != 1:
            raise ValueError(f"sub-kernels disagree on channels: {sorted(chans)}")


def split_weights_5x5(weights: UpConvWeights) -> SplitUpConvWeights:
    """Partition a 5x5 kernel into the four parity sub-kernels K[r::2, c::2].

    The 25 taps per (cin, cout) pair are rearranged, never altered: the
    split is a bijection onto 9 + 6 + 6 + 4 taps. The shared bias, if any,
    is replicated into every sub-kernel since each output pixel is produced
    by exactly one branch.
    """
    k, bias = weights.full.weights, weights.full.bias
    kernels = {
        name: ConvKernel(np.ascontiguousarray(k[r::2, c::2]), bias)
        for name, (r, c, _, _) in BRANCHES.items()
    }
    return SplitUpConvWeights(kernels, weights.bn)


def upconv_block_naive(x: Tensor4, weights: UpConvWeights) -> Tensor4:
    """relu(batchnorm(conv5x5(unpool_zero2(x)))); doubles height and width."""
    up = ops.unpool_zero2(x)
    y = ops.conv2d(up, weights.full, stride=1, padding="same")
    return ops.relu(ops.batchnorm_infer(y, weights.bn))


def upconv_block_fast(x: Tensor4, weights: SplitUpConvWeights) -> Tensor4:
    """Interleaved equivalent of the naive block on the un-upsampled input."""
    branches = [
        ops.conv2d_padded(x, weights.kernels[name], stride=1, pads=pads)
        for name, (_, _, _, pads) in BRANCHES.items()
    ]
    y = interleave4(*branches)
    return ops.relu(ops.batchnorm_infer(y, weights.bn))


def naive_block_macs(h: int, w: int, cin: int, cout: int) -> int:
    """Multiply-accumulates of the naive path: 25 dense taps on the 2x grid."""
    return (2 * h) * (2 * w) * cout * 25 * cin


def fast_block_macs(h: int, w: int, cin: int, cout: int) -> int:
    """Multiply-accumulates of the fast path: 9 + 6 + 6 + 4 taps at input resolution."""
    return h * w * cout * (9 + 6 + 6 + 4) * cin


def random_upconv_weights(
    cin: int, cout: int, rng: np.random.Generator, dtype=np.float32
) -> UpConvWeights:
    """Draw a plausible random parameter set (used by verification and benchmarks)."""
    kernel = ConvKernel(
        (rng.standard_normal((5, 5, cin, cout)) * 0.2).astype(dtype),
        (rng.standard_normal(cout) * 0.1).astype(dtype),
    )
    bn = BatchNormParams(
        mean=(rng.standard_normal(cout) * 0.5).astype(dtype),
        variance=rng.uniform(0.25, 2.0, cout).astype(dtype),
        gamma=rng.uniform(0.5, 1.5, cout).astype(dtype),
        beta=(rng.standard_normal(cout) * 0.5).astype(dtype),
        eps=1e-5,
    )
    return UpConvWeights(kernel, bn)


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
    split = split_weights_5x5(weights)

    naive = upconv_block_naive(x, weights).data
    fast = upconv_block_fast(x, split).data
    if inject_fault:
        # swap the even/odd and odd/even pixel classes: wrong parity
        # assignment of the k32 and k23 branches (batch norm and ReLU act
        # per pixel, so swapping after them is the same fault)
        swapped = fast.copy()
        swapped[:, 0::2, 1::2] = fast[:, 1::2, 0::2]
        swapped[:, 1::2, 0::2] = fast[:, 0::2, 1::2]
        fast = swapped
    return float(np.max(np.abs(naive - fast)))

"""Primitive NHWC inference kernels: convolution, transposed convolution,
activation, normalization, and 2x resampling.

All operations are pure functions: they never modify their inputs and the
same inputs always produce bit-identical outputs. Operands share one dtype,
which the output keeps. "Convolution" means cross-correlation (no kernel
flip), the usual deep-learning convention.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import BatchNormParams, ConvKernel, Tensor4

def _check_operands(x: Tensor4, kernel: ConvKernel) -> None:
    if x.c != kernel.cin:
        raise ValueError(
            f"input has {x.c} channels but kernel expects {kernel.cin}"
        )
    _check_dtype(x, kernel.weights)


def _check_dtype(x: Tensor4, other) -> None:
    if x.dtype != other.dtype:
        raise ValueError(f"operands must share one dtype, got {x.dtype} and {other.dtype}")


def conv2d_padded(
    x: Tensor4,
    kernel: ConvKernel,
    stride: int = 1,
    pads: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> Tensor4:
    """Strided cross-correlation with explicit (top, bottom, left, right) zero padding.

    Every graph convolution runs here: "same" padding is :func:`same_pads`
    per axis, and the interleaved up-convolution branches pass the
    asymmetric pads of :data:`BRANCHES`.

    Stride 1 accumulates one GEMM per kernel tap ("kn2row") and never
    copies an im2col matrix. The padded batch is one flat
    ``(n * hp * wp, cin)`` matrix. Output pixel ``(i, r, c)`` sits at flat
    row ``p = (i * hp + r) * wp + c``, and tap ``(a, b)`` reads input row
    ``p + a * wp + b``. So each tap is the contiguous row slice starting
    at ``a * wp + b`` times ``K[a, b]``, summed into an
    ``(n * hp * wp, cout)`` buffer. The rows whose column is at or past
    ``ow``, or whose row is at or past ``oh``, wrap across a row or image
    edge; they are cropped at the end. The first tap writes straight into
    the buffer, so a 1x1 conv is a single reshape-matmul.

    Stride > 1 contracts a strided ``sliding_window_view`` in one
    ``tensordot``. Those convs are the stem and the downsampling
    projections. The 3-channel stem is where per-tap GEMMs lose: with
    K = 3 each GEMM is too thin, and 49 of them took 62 ms at 320x240
    against 9.8 ms for the window copy.
    """
    _check_operands(x, kernel)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if min(pads) < 0:
        raise ValueError(f"padding must be nonnegative, got {pads}")
    padded = _pad(x.data, pads)
    if padded.shape[1] < kernel.kh or padded.shape[2] < kernel.kw:
        raise ValueError(
            f"padded input {padded.shape[1]}x{padded.shape[2]} is smaller than "
            f"the {kernel.kh}x{kernel.kw} kernel (zero-size output)"
        )
    if stride == 1:
        out = _conv_taps(padded, kernel.weights)
    else:
        windows = sliding_window_view(padded, (kernel.kh, kernel.kw), axis=(1, 2))
        windows = windows[:, ::stride, ::stride]
        # windows: (N, Ho, Wo, C, kh, kw); contract (C, kh, kw) against (kh, kw, cin, cout)
        out = np.tensordot(windows, kernel.weights, axes=([3, 4, 5], [2, 0, 1]))
    if kernel.bias is not None:
        out += kernel.bias  # out is a fresh buffer or a view of one
    return Tensor4(out)


def _pad(data: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """Zero-pad (top, bottom, left, right); the array itself when all pads are 0."""
    if not any(pads):
        return data
    pt, pb, pl, pr = pads
    return np.pad(data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))


def _conv_taps(padded: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stride-1 valid cross-correlation of a padded NHWC array, one GEMM per tap.

    Returns a view of shape (n, oh, ow, cout) into the accumulation buffer;
    see :func:`conv2d_padded` for the index arithmetic. Tap (a, b) is read
    as the view ``weights[a, b]``, a contiguous (cin, cout) block even when
    `weights` is a strided or flipped view of a larger kernel, so no kernel
    is copied.
    """
    n, hp, wp, cin = padded.shape
    kh, kw, _, cout = weights.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    rows = (n - 1) * hp * wp + (oh - 1) * wp + ow
    flat = padded.reshape(n * hp * wp, cin)
    (_, first), *rest = [(a * wp + b, weights[a, b]) for a in range(kh) for b in range(kw)]
    acc = np.empty((n * hp * wp, cout), dtype=padded.dtype)
    np.matmul(flat[:rows], first, out=acc[:rows])
    if rest:
        prod = np.empty((rows, cout), dtype=acc.dtype)
        for start, k in rest:
            np.matmul(flat[start:start + rows], k, out=prod)
            acc[:rows] += prod
    return acc.reshape(n, hp, wp, cout)[:, :oh, :ow]


def phase_split(k: int, stride: int, lead: int, phase: int) -> tuple[int, int, tuple[int, int]]:
    """One axis of a zero-inserted correlation, split by output phase.

    Insert ``stride - 1`` zeros after every input sample, pad ``lead`` zeros
    in front and correlate with the ``k`` taps ``K[0], ..., K[k - 1]``.
    Output sample ``o = stride * m + phase`` reads the inserted grid at
    ``o + a - lead``, which holds data only for taps ``a = a0 + stride * t``
    with ``a0 = (lead - phase) mod stride``; it is then input sample
    ``m + t - pad`` with ``pad = (lead - phase - a0) / stride``. So phase
    ``phase`` (samples ``phase::stride``) is a stride-1 correlation of the
    input without inserted zeros, with taps ``K[a0::stride]`` and padding
    ``(pad, taps - 1 - pad)``, which keeps the input's length.

    Returns ``(a0, taps, (leading pad, trailing pad))``. With
    ``phase <= lead < k`` both pads are nonnegative; a phase past ``lead``
    would need a negative leading pad (a crop), and neither
    :func:`deconv2d` nor the up-conv split has one that reads a tap.
    ``taps`` is 0 only when ``k < stride``: such a phase reads no input.
    """
    a0 = (lead - phase) % stride
    taps = len(range(a0, k, stride))
    pad = (lead - phase - a0) // stride
    return a0, taps, (pad, taps - 1 - pad)


def _branch(r: int, c: int) -> tuple[str, tuple]:
    # with lead 2 and stride 2 the first tap a0 of phase r is r itself
    (_, th, rows), (_, tw, cols) = (phase_split(5, 2, 2, p) for p in (r, c))
    return f"k{th}{tw}", (r, c, (th, tw), rows + cols)


# The up-convolution parity split. The naive block is a 5x5 "same"
# correlation (leading pad 2) of the input zero-inserted by 2, so
# phase_split with lead 2 splits it per axis. The branch for output parity
# (r, c) convolves the un-upsampled input with K[r::2, c::2], a
# (3 - r) x (3 - c) sub-kernel, padded by (top, bottom, left, right) =
# (1 - r, 1, 1 - c, 1) so that it keeps the input size, and writes output
# pixels [r::2, c::2], interleave4's argument order. The branches k33, k32,
# k23 and k22 hold 9 + 6 + 6 + 4 = 25 taps; the names are also the FCNW
# entry suffixes of the fast presets. The weight split and the builder's
# fast block both read this table.
# name -> (row parity r, column parity c, sub-kernel (kh, kw), pads)
BRANCHES = dict(_branch(r, c) for r in (0, 1) for c in (0, 1))


def same_pads(size: int, k: int, stride: int) -> tuple[int, int]:
    """Per-axis "same" padding: output = ceil(size / stride), extra pad trailing."""
    out = -(-size // stride)
    total = max((out - 1) * stride + k - size, 0)
    lead = total // 2
    return lead, total - lead


def deconv2d(x: Tensor4, kernel: ConvKernel, stride: int = 2) -> Tensor4:
    """Transposed convolution (scatter-accumulate) with output exactly input * stride.

    Each input element scatters `value * kernel` into the output at offset
    (i * stride, j * stride); of the full (in - 1) * stride + k footprint,
    max(k - stride, 0) // 2 rows/cols are cropped from the leading edge and
    the remainder from the trailing edge so the size contract holds for any
    kernel size.

    That is a correlation of the input, zero-inserted by `stride`, with the
    flipped kernel ``Kf = K[::-1, ::-1]`` and leading pad ``k - 1 - crop``.
    :func:`phase_split` splits it per axis: output phase (r, c), the pixels
    ``[r::stride, c::stride]``, is a stride-1 correlation of `x` itself with
    the view ``Kf[a0::stride, b0::stride]``, written into one preallocated
    output; for a 5x5 kernel and stride 2 that is ``Kf[1 - r::2, 1 - c::2]``
    with pads (1, r, 1, c). It runs k * k * cin * cout MACs per input pixel,
    stride ** 2 fewer than a convolution of the zero-inserted grid, and
    copies neither the kernel nor the input beyond its padding. A phase with
    no taps (only when k < stride) holds the bias alone.
    """
    _check_operands(x, kernel)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n, h, w, _ = x.shape
    kh, kw = kernel.kh, kernel.kw
    rows = [phase_split(kh, stride, kh - 1 - max(kh - stride, 0) // 2, r) for r in range(stride)]
    cols = [phase_split(kw, stride, kw - 1 - max(kw - stride, 0) // 2, c) for c in range(stride)]
    flipped = kernel.weights[::-1, ::-1]
    out = np.empty((n, h * stride, w * stride, kernel.cout), dtype=x.dtype)
    for r, (a0, th, pads_r) in enumerate(rows):
        for c, (b0, tw, pads_c) in enumerate(cols):
            phase = out[:, r::stride, c::stride]
            if th and tw:
                padded = _pad(x.data, pads_r + pads_c)
                phase[...] = _conv_taps(padded, flipped[a0::stride, b0::stride])
            else:
                phase[...] = 0
    if kernel.bias is not None:
        out += kernel.bias
    return Tensor4(out)


def relu(x: Tensor4) -> Tensor4:
    """Elementwise max(0, x)."""
    return Tensor4(np.maximum(x.data, 0))


def batchnorm_infer(x: Tensor4, params: BatchNormParams) -> Tensor4:
    """Per-channel normalization with frozen statistics."""
    if params.channels != x.c:
        raise ValueError(
            f"batchnorm has {params.channels} channels but input has {x.c}"
        )
    _check_dtype(x, params.mean)
    scale = params.gamma / np.sqrt(params.variance + params.eps)
    return Tensor4((x.data - params.mean) * scale + params.beta)


def maxpool2(x: Tensor4) -> Tensor4:
    """2x2 max pooling with stride 2; height and width must be even."""
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    return Tensor4(x.data.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4)))


def nearest_up2(x: Tensor4) -> Tensor4:
    """Nearest-neighbour 2x upsampling (each cell replicated into a 2x2 block)."""
    return Tensor4(np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2))


def unpool_zero2(x: Tensor4) -> Tensor4:
    """2x zero-insertion unpooling: input lands on even/even positions, zeros elsewhere."""
    n, h, w, c = x.shape
    out = np.zeros((n, 2 * h, 2 * w, c), dtype=x.dtype)
    out[:, ::2, ::2] = x.data
    return Tensor4(out)


def add(a: Tensor4, b: Tensor4) -> Tensor4:
    """Elementwise sum of two identically shaped tensors."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _check_dtype(a, b)
    return Tensor4(a.data + b.data)

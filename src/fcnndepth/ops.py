"""Primitive NHWC inference kernels: convolution (nearest upsampling
included), transposed convolution, activation, normalization, and 2x
resampling.

All operations are pure functions: they never modify their inputs and the
same inputs always produce bit-identical outputs. The exception is the
numpy-style `out` of relu, batchnorm_infer and add: they write the same bits
into it, which may be their first input's array. Operands share one dtype,
which the output keeps. "Convolution" means cross-correlation (no kernel
flip), the usual deep-learning convention.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import BatchNormParams, ConvKernel, Tensor4

def _check_operands(x: Tensor4, kernel: ConvKernel, stride: int) -> None:
    if x.c != kernel.cin:
        raise ValueError(
            f"input has {x.c} channels but kernel expects {kernel.cin}"
        )
    _check_dtype(x, kernel.weights)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def _check_dtype(x: Tensor4, other) -> None:
    if x.dtype != other.dtype:
        raise ValueError(f"operands must share one dtype, got {x.dtype} and {other.dtype}")


def conv2d_padded(
    x: Tensor4,
    kernel: ConvKernel,
    stride: int = 1,
    pads: tuple[int, int, int, int] = (0, 0, 0, 0),
    up: tuple[int, int] = (1, 1),
) -> Tensor4:
    """Strided cross-correlation with explicit (top, bottom, left, right) zero padding.

    Every graph convolution runs here: "same" padding is :func:`same_pads`
    per axis, and the interleaved up-convolution branches pass the
    asymmetric pads of :data:`BRANCHES`.

    A stride-1 conv may read its input nearest-upsampled by ``up = (uh, uw)``,
    each input pixel standing for a uh x uw block (a resize-convolution);
    the pads then border the upsampled grid.

    Stride 1 accumulates one GEMM per kernel tap ("kn2row") and copies
    neither an im2col matrix nor a padded or upsampled input: see
    :func:`_conv_taps`.

    Stride > 1 (the stem and downsampling convs) runs one matmul of the
    window rows, one per output pixel in the kernel's (kh, kw, cin) order
    (runs of kw * cin contiguous values), with the kernel as stored.
    Per-tap GEMMs lose on the 3-channel stem: its 49 with K = 3 took
    60 ms at 320x240, full width, against 7-10 ms for the window rows.
    """
    _check_operands(x, kernel, stride)
    if min(pads) < 0:
        raise ValueError(f"padding must be nonnegative, got {pads}")
    if min(up) < 1 or (stride > 1 and up != (1, 1)):
        raise ValueError(f"up must be >= 1, and (1, 1) at stride > 1; got {up}, stride {stride}")
    hp, wp = up[0] * x.h + pads[0] + pads[1], up[1] * x.w + pads[2] + pads[3]
    if hp < kernel.kh or wp < kernel.kw:
        raise ValueError(
            f"padded input {hp}x{wp} is smaller than "
            f"the {kernel.kh}x{kernel.kw} kernel (zero-size output)"
        )
    if stride == 1:
        out = _conv_taps(x.data, kernel.weights, pads, up)
    else:
        windows = sliding_window_view(_pad(x.data, pads), (kernel.kh, kernel.kw), axis=(1, 2))
        # (N, Ho, Wo, C, kh, kw) -> (N, Ho, Wo, kh, kw, C), the kernel's (kh, kw, cin) order
        windows = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
        rows = windows.reshape(-1, kernel.kh * kernel.kw * kernel.cin)
        out = np.matmul(rows, kernel.weights.reshape(-1, kernel.cout))
        out = out.reshape(*windows.shape[:3], kernel.cout)
    if kernel.bias is not None:
        out += kernel.bias  # out is a fresh contiguous array
    return Tensor4(out)


def _pad(data: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """Zero-pad (top, bottom, left, right); the array itself when all pads are 0."""
    if not any(pads):
        return data
    pt, pb, pl, pr = pads
    return np.pad(data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))


def _conv_taps(x: np.ndarray, weights: np.ndarray, pads: tuple, up: tuple = (1, 1)) -> np.ndarray:
    """Stride-1 cross-correlation of NHWC `x`, nearest-upsampled by `up`, then
    zero-padded by (top, bottom, left, right).

    Neither the upsampled grid nor the padding is built. Tap (a, b) is one
    GEMM of the flat ``(n * h * w, cin)`` input with the (cin, cout) view
    ``weights[a, b]``, so no kernel is copied either. The product is added
    into the output pixels that read it, through the slices that
    :func:`_tap_spans` gives once per kernel row and once per kernel column.
    The taps run in row-major order into a fresh output that starts at zero,
    except that tap (0, 0) writes it directly when it maps the input onto
    the output one to one, so an unpadded 1x1 conv is a single matmul. Each
    output pixel reads one input pixel per tap, so it sums the same products
    in the same order as a conv of the upsampled grid.
    """
    (n, h, w, cin), (kh, kw, _, cout) = x.shape, weights.shape
    top, bottom, left, right = pads
    oh, ow = up[0] * h + top + bottom - kh + 1, up[1] * w + left + right - kw + 1
    flat = x.reshape(n * h * w, cin)
    taps = [(a, b) for a in range(kh) for b in range(kw)]
    if (top, left, oh, ow, up) == (0, 0, h, w, (1, 1)):
        out = np.matmul(flat, weights[0, 0]).reshape(n, h, w, cout)
        taps = taps[1:]
    else:
        out = np.zeros((n, oh, ow, cout), dtype=x.dtype)
    if taps:
        prod = np.empty((n, h, w, cout), dtype=x.dtype)
        rows = [list(_tap_spans(h, oh, a - top, up[0])) for a in range(kh)]
        cols = [list(_tap_spans(w, ow, b - left, up[1])) for b in range(kw)]
    for a, b in taps:
        if rows[a] and cols[b]:
            np.matmul(flat, weights[a, b], out=prod.reshape(n * h * w, cout))
            for out_r, in_r in rows[a]:
                for out_c, in_c in cols[b]:
                    out[:, out_r, out_c] += prod[:, in_r, in_c]
    return out


def _tap_spans(size: int, out_size: int, shift: int, up: int):
    """One axis of one tap: yields the (output, input) slices its product is added through.

    Output sample ``o`` reads sample ``o + shift`` of the input upsampled by
    `up`, which is input sample ``(o + shift) // up``. Phase ``p`` holds the
    outputs ``o = p + up * m``, ``ceil((out_size - p) / up)`` of them; they
    read input ``m + d`` with ``d = (p + shift) // up``, so those inside the
    input are ``max(0, -d) <= m < min(ceil((out_size - p) / up), size - d)``.
    Empty phases yield nothing. With ``up = 1`` this is the one window of
    outputs ``max(0, -shift)`` to ``min(out_size, size - shift)``.
    """
    for p in range(up):
        d = (p + shift) // up
        m0, m1 = max(0, -d), min((out_size - p + up - 1) // up, size - d)
        if m0 < m1:
            yield slice(p + up * m0, p + up * m1, up), slice(m0 + d, m1 + d)


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
    copies neither the kernel nor a padded input. A phase with no taps (only
    when k < stride) gets zeros from :func:`_conv_taps`, then the bias.
    """
    _check_operands(x, kernel, stride)
    n, h, w, _ = x.shape
    kh, kw = kernel.kh, kernel.kw
    rows = [phase_split(kh, stride, kh - 1 - max(kh - stride, 0) // 2, r) for r in range(stride)]
    cols = [phase_split(kw, stride, kw - 1 - max(kw - stride, 0) // 2, c) for c in range(stride)]
    flipped = kernel.weights[::-1, ::-1]
    out = np.empty((n, h * stride, w * stride, kernel.cout), dtype=x.dtype)
    for r, (a0, _, pads_r) in enumerate(rows):
        for c, (b0, _, pads_c) in enumerate(cols):
            out[:, r::stride, c::stride] = _conv_taps(
                x.data, flipped[a0::stride, b0::stride], pads_r + pads_c
            )
    if kernel.bias is not None:
        out += kernel.bias
    return Tensor4(out)


def relu(x: Tensor4, out: np.ndarray | None = None) -> Tensor4:
    """Elementwise max(0, x), written into `out` when given."""
    return Tensor4(np.maximum(x.data, 0, out=out))


def batchnorm_infer(x: Tensor4, params: BatchNormParams, out: np.ndarray | None = None) -> Tensor4:
    """Per-channel normalization with frozen statistics, written into `out` when given."""
    if params.channels != x.c:
        raise ValueError(
            f"batchnorm has {params.channels} channels but input has {x.c}"
        )
    _check_dtype(x, params.mean)
    scale = params.gamma / np.sqrt(params.variance + params.eps)
    y = np.subtract(x.data, params.mean, out=out)
    y *= scale
    y += params.beta
    return Tensor4(y)


def maxpool2(x: Tensor4) -> Tensor4:
    """2x2 max pooling with stride 2; height and width must be even."""
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {h}x{w}")
    return Tensor4(x.data.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4)))


def unpool_zero2(x: Tensor4) -> Tensor4:
    """2x zero-insertion unpooling: input lands on even/even positions, zeros elsewhere."""
    n, h, w, c = x.shape
    out = np.zeros((n, 2 * h, 2 * w, c), dtype=x.dtype)
    out[:, ::2, ::2] = x.data
    return Tensor4(out)


def add(a: Tensor4, b: Tensor4, out: np.ndarray | None = None) -> Tensor4:
    """Elementwise sum of two identically shaped tensors, written into `out` when given."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _check_dtype(a, b)
    return Tensor4(np.add(a.data, b.data, out=out))

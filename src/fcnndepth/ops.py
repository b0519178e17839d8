"""Primitive NHWC inference kernels: convolution, activation,
normalization, and 2x resampling. A stride-1 convolution may read its input
nearest-upsampled or zero-inserted without building either grid; a
transposed convolution is the zero-inserted case.

All operations are pure functions: they never modify their inputs and the
same inputs always produce bit-identical outputs. The exception is the
numpy-style `out` of relu, batchnorm_infer and add: they write the same bits
into it, which may be their first input's array. Convolutions run in bands
of output rows on a thread pool, one thread per usable CPU. Both properties
hold there too, because the band split depends only on the conv's shapes,
never on the thread count, and no two bands write the same output.
Operands share one dtype, which the output keeps. "Convolution" means
cross-correlation (no kernel flip), the usual deep-learning convention.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import BatchNormParams, ConvKernel, Tensor4

# A conv of at least PARALLEL_MACS multiply-accumulates per image splits
# into at least two bands of output rows, and into enough bands that none
# needs more than about BAND_BYTES of scratch (see _bands). Both were set by
# measurement on a 2-core x86-64 host; see CHANGES.md.
PARALLEL_MACS = 5_000_000
BAND_BYTES = 4_000_000
# The bands run on the calling thread and THREADS - 1 pool workers, one
# thread per CPU this process may run on.
THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_POOL = ThreadPoolExecutor(THREADS - 1, "fcnndepth-band") if THREADS > 1 else None


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

    Stride > 1 (the stem and downsampling convs) multiplies window rows,
    one per output pixel in the kernel's (kh, kw, cin) order (runs of
    kw * cin contiguous values), by the kernel as stored. Each band of
    output rows (:func:`_bands`) copies its window rows into its thread's
    scratch and multiplies them straight into its rows of the output, so
    the copy is bounded by the band, not by the image (MEC, Cho & Brand
    2017). Per-tap GEMMs lose on the 3-channel stem: its 49 with K = 3 took
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
        (n, _, _, cin), (kh, kw, _, cout) = x.shape, kernel.weights.shape
        windows = sliding_window_view(_pad(x.data, pads), (kh, kw), axis=(1, 2))
        # (N, Ho, Wo, C, kh, kw) -> (N, Ho, Wo, kh, kw, C), the kernel's (kh, kw, cin) order
        windows = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
        _, oh, ow = windows.shape[:3]
        k = kh * kw * cin
        weights = kernel.weights.reshape(k, cout)
        out = np.empty((n, oh, ow, cout), dtype=x.dtype)

        def band(i, lo, hi, rows):
            rows = rows[: (hi - lo) * ow]
            rows.reshape(hi - lo, ow, kh, kw, cin)[...] = windows[i, lo:hi]
            np.matmul(rows, weights, out=out[i, lo:hi].reshape(-1, cout))

        bands = _bands(n, oh, 1, oh * ow * k * cout, oh * ow * k * x.dtype.itemsize)
        _run_bands(band, bands, (bands[0][2] * ow, k), x.dtype)
    if kernel.bias is not None:
        out += kernel.bias  # out is a fresh contiguous array
    return Tensor4(out)


def _pad(data: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """Zero-pad (top, bottom, left, right); the array itself when all pads are 0."""
    if not any(pads):
        return data
    pt, pb, pl, pr = pads
    return np.pad(data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))


def _bands(n: int, oh: int, uh: int, macs: int, scratch_bytes: int) -> list:
    """The (image, first row, end row) bands of an (n, oh, ...) output.

    Each image's rows split into ``max(2 if macs >= PARALLEL_MACS else 1,
    ceil(scratch_bytes / BAND_BYTES))`` bands, where `macs` and
    `scratch_bytes` (the scratch one band would need for the whole image)
    count one image. All bands are as high as the first, a multiple of
    `uh`, except that the last may be lower. A band is a run of rows of one
    image, so its slice of a C-contiguous output is contiguous.
    """
    count = max(2 if macs >= PARALLEL_MACS else 1, -(-scratch_bytes // BAND_BYTES))
    step = uh * -(-oh // (uh * count))
    return [(i, lo, min(lo + step, oh)) for i in range(n) for lo in range(0, oh, step)]


def _run_bands(band, bands: list, scratch_shape: tuple | None, dtype) -> None:
    """Call ``band(image, lo, hi, scratch)`` for each band, on this thread and the pool's.

    The T = min(THREADS, len(bands)) threads take the bands in order from
    one shared queue, each into its own scratch (None when
    `scratch_shape` is), all allocated here: workers allocate nothing, so
    glibc's per-thread arenas keep none of it. A worker that has not
    started by the time this thread runs out of bands is cancelled, not
    waited for (so in a forked child, whose pool has no threads, this
    thread runs every band). The bands write disjoint output rows, and
    which thread runs one does not change its bits. `band` calls no public
    function of the package, whose callers may trace them on one stack.
    """
    threads = min(THREADS, len(bands))
    scratch = [None if scratch_shape is None else np.empty(scratch_shape, dtype)
               for _ in range(threads)]
    todo = deque(bands)  # popleft is thread-safe: each band goes to one thread

    def share(own):
        while True:
            try:
                i, lo, hi = todo.popleft()
            except IndexError:  # no band left
                return
            band(i, lo, hi, own)

    jobs = [_POOL.submit(share, own) for own in scratch[1:]]
    share(scratch[0])
    for job in jobs:
        if not job.cancel():
            job.result()


def _conv_taps(x: np.ndarray, weights: np.ndarray, pads: tuple, up=(1, 1), zeros=False):
    """Stride-1 cross-correlation of NHWC `x`, upsampled by `up`, then
    zero-padded by (top, bottom, left, right).

    The upsampling is nearest (each input pixel stands for a uh x uw block)
    or, with `zeros`, a zero insertion (each input pixel is the first of its
    block, the rest are 0). Neither the upsampled grid nor the padding is
    built. The output runs in the row bands of :func:`_bands`. For tap row
    `a`, a band reads one contiguous slab of input rows ``x[i, r0:r1]``,
    those its outputs read through that row in every upsampling phase; a tap
    row that reaches no output row of the band (or, with `zeros`, reads only
    inserted zeros there) runs no GEMM. Tap (a, b) is one GEMM of the flat
    slab with the (cin, cout) view ``weights[a, b]`` into the band's
    scratch, so no kernel is copied either. The product is added into the
    band's output pixels that read it, through the slices that
    :func:`_tap_spans` gives once per kernel column and, per band, once per
    kernel row. Each band runs its taps in row-major order into an output
    that starts at zero, except that tap (0, 0) writes the band's rows
    directly when it maps the input onto the output one to one, so an
    unpadded 1x1 conv is a single matmul per band and needs no scratch. Each
    output pixel reads at most one input pixel per tap, so it sums the same
    nonzero products in the same order as a conv of the upsampled grid.
    """
    (n, h, w, cin), (kh, kw, _, cout) = x.shape, weights.shape
    (top, bottom, left, right), (uh, uw) = pads, up
    oh, ow = uh * h + top + bottom - kh + 1, uw * w + left + right - kw + 1
    x = np.ascontiguousarray(x)  # so that each slab is a view
    direct = (top, left, oh, ow, up) == (0, 0, h, w, (1, 1))
    out = (np.empty if direct else np.zeros)((n, oh, ow, cout), dtype=x.dtype)
    cols = [list(_tap_spans(w, ow, b - left, uw, zeros)) for b in range(kw)]
    skip = uh - 1 if zeros else 0  # a zero-inserted slab skips a block begun before the band

    def band(i, lo, hi, prod):
        dst = out[i, lo:hi]
        for a in range(kh):
            r0, r1 = max(0, (lo + a - top + skip) // uh), min(h, (hi - 1 + a - top) // uh + 1)
            rows = list(_tap_spans(r1 - r0, hi - lo, lo + a - top - uh * r0, uh, zeros))
            if not rows:
                continue
            slab = x[i, r0:r1].reshape(-1, cin)
            for b in range(kw):
                if direct and a == b == 0:
                    np.matmul(slab, weights[0, 0], out=dst.reshape(-1, cout))
                elif cols[b]:
                    np.matmul(slab, weights[a, b], out=prod[: len(slab)])
                    p = prod[: len(slab)].reshape(r1 - r0, w, cout)
                    for out_r, in_r in rows:
                        for out_c, in_c in cols[b]:
                            dst[out_r, out_c] += p[in_r, in_c]

    bands = _bands(n, oh, uh, h * w * kh * kw * cin * cout, h * w * cout * x.dtype.itemsize)
    # a band no higher than the first reads at most this many input rows per tap row
    slab_rows = min(h, (bands[0][2] + 2 * uh - 2) // uh)
    # no scratch when the only tap is (0, 0) writing directly (or there is none)
    _run_bands(band, bands, (slab_rows * w, cout) if kh * kw > direct else None, x.dtype)
    return out


def _tap_spans(size: int, out_size: int, shift: int, up: int, zeros: bool = False):
    """One axis of one tap: yields the (output, input) slices its product is added through.

    Output sample ``o`` reads sample ``o + shift`` of the input upsampled by
    `up`, which is input sample ``(o + shift) // up``. Phase ``p`` holds the
    outputs ``o = p + up * m``, ``ceil((out_size - p) / up)`` of them; they
    read input ``m + d`` with ``d = (p + shift) // up``, so those inside the
    input are ``max(0, -d) <= m < min(ceil((out_size - p) / up), size - d)``.
    With `zeros` the input is zero-inserted instead: upsampled sample ``j``
    is input ``j / up`` when `up` divides ``j`` and 0 otherwise, so only the
    phase with ``(p + shift) % up == 0`` reads input. Empty phases yield
    nothing. With ``up = 1`` this is the one window of outputs
    ``max(0, -shift)`` to ``min(out_size, size - shift)``. A band of
    outputs and a slab of input rows are an axis of their own, with `shift`
    counted from their first rows.
    """
    for p in range(up):
        if zeros and (p + shift) % up:
            continue
        d = (p + shift) // up
        m0, m1 = max(0, -d), min((out_size - p + up - 1) // up, size - d)
        if m0 < m1:
            yield slice(p + up * m0, p + up * m1, up), slice(m0 + d, m1 + d)


# The up-convolution parity split. The naive block is a 5x5 "same"
# correlation (leading pad 2) of the input zero-inserted by 2. Output
# sample o = 2m + r reads the inserted grid at o + a - 2, which holds input
# data only for taps a = r + 2t, t < 3 - r; it is then input sample
# m + t - (1 - r). So the branch for output parity (r, c) convolves the
# un-upsampled input with K[r::2, c::2], a (3 - r) x (3 - c) sub-kernel,
# padded by (top, bottom, left, right) = (1 - r, 1, 1 - c, 1) so that it
# keeps the input size, and writes output pixels [r::2, c::2],
# interleave4's argument order. The branches k33, k32, k23 and k22 hold
# 9 + 6 + 6 + 4 = 25 taps; the names are also the FCNW entry suffixes of
# the fast presets. The weight split and the builder's fast block both read
# this table.
# name -> (row parity r, column parity c, sub-kernel (kh, kw), pads)
BRANCHES = {f"k{3 - r}{3 - c}": (r, c, (3 - r, 3 - c), (1 - r, 1, 1 - c, 1))
            for r in (0, 1) for c in (0, 1)}


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

    That is a stride-1 correlation of the input zero-inserted by `stride`
    with the flipped kernel ``K[::-1, ::-1]``, padded by ``k - 1 - crop``
    before and ``crop`` after: one :func:`_conv_taps` call with `zeros`, into
    one output, with no built grid, no kernel copy and no phase outputs.
    Each output pixel sums only the taps that read input pixels: k * k *
    cin * cout MACs per input pixel, stride ** 2 fewer than a conv of the
    built grid. A pixel that reads no tap (only when k < stride) holds the
    bias alone.
    """
    _check_operands(x, kernel, stride)
    kh, kw = kernel.kh, kernel.kw
    ct, cl = max(kh - stride, 0) // 2, max(kw - stride, 0) // 2
    out = _conv_taps(x.data, kernel.weights[::-1, ::-1], (kh - 1 - ct, ct, kw - 1 - cl, cl),
                     (stride, stride), zeros=True)
    if kernel.bias is not None:
        out += kernel.bias
    return Tensor4(out)


def relu(x: Tensor4, out: np.ndarray | None = None) -> Tensor4:
    """Elementwise max(0, x), written into `out` when given."""
    return Tensor4(np.maximum(x.data, 0, out=out))


def batchnorm_infer(x: Tensor4, params: BatchNormParams, out: np.ndarray | None = None) -> Tensor4:
    """Per-channel normalization with frozen statistics, written into `out` when given.

    Two passes over `x`: ``y = x * scale + shift``, with ``scale = gamma /
    sqrt(variance + eps)`` and ``shift = beta - mean * scale`` per channel
    (the affine form of Jacob et al. 2018, arXiv 1712.05877). Each output is
    within ``7 * u * (|x * scale| + |mean * scale| + |beta|)`` of the exact
    value, u the dtype's unit roundoff (2**-24 in float32): where x is close
    to `mean`, that is many ulps of y.
    """
    if params.channels != x.c:
        raise ValueError(
            f"batchnorm has {params.channels} channels but input has {x.c}"
        )
    _check_dtype(x, params.mean)
    scale = params.gamma / np.sqrt(params.variance + params.eps)
    y = np.multiply(x.data, scale, out=out)
    y += params.beta - params.mean * scale
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

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcnndepth import ops
from fcnndepth.tensor import BatchNormParams, ConvKernel, Tensor4
from helpers import (
    conv2d_loop_ref, deconv2d_scatter_ref, deconv2d_stuffed_ref, nearest_up2, phase_taps,
    same_pads_ref, zero_inserted, zeros,
)


def rand_tensor(rng, shape, dtype=np.float32):
    return Tensor4(rng.standard_normal(shape).astype(dtype))


def rand_kernel(rng, kh, kw, cin, cout, bias=True, dtype=np.float32):
    w = (rng.standard_normal((kh, kw, cin, cout)) * 0.5).astype(dtype)
    b = (rng.standard_normal(cout) * 0.5).astype(dtype) if bias else None
    return ConvKernel(w, b)


def assert_one_dtype(run, x_dtype, w_dtype):
    """`run()` keeps the dtype its operands share, and raises on a mixed pair."""
    if x_dtype == w_dtype:
        assert run().dtype == x_dtype
    else:
        names = np.dtype(x_dtype).name, np.dtype(w_dtype).name
        with pytest.raises(ValueError, match=r"operands must share one dtype, got %s and %s" % names):
            run()


DTYPES = [np.float32, np.float64]


def conv_same(x, k, stride=1):
    """A "same"-padded conv, padded by ops.same_pads per axis as the model builder does."""
    pads = ops.same_pads(x.h, k.kh, stride) + ops.same_pads(x.w, k.kw, stride)
    return ops.conv2d_padded(x, k, stride, pads)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, (2, 4, 5, 3))
        k = ConvKernel(np.eye(3, dtype=np.float32).reshape(1, 1, 3, 3),
                       np.zeros(3, dtype=np.float32))
        out = conv_same(x, k)
        assert np.array_equal(out.data, x.data)

    def test_ones_kernel_overlap_counts(self):
        x = Tensor4(np.ones((1, 3, 3, 1), dtype=np.float32))
        k = ConvKernel(np.ones((3, 3, 1, 1), dtype=np.float32))
        out = conv_same(x, k).data[0, :, :, 0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        assert np.array_equal(out, expected)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, (2, 7, 5, 3))
        k = rand_kernel(rng, 3, 3, 3, 4)
        out = conv_same(x, k)
        ref = conv2d_loop_ref(x, k, 1, (1, 1, 1, 1))
        assert np.max(np.abs(out.data - ref)) <= 1e-5

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_loop_reference_randomized(self, seed):
        # Independent asymmetric pads (0 up to wider than k - 1) and batches
        # up to 3: pads wider than k - 1 leave output rows and columns that
        # no tap reaches, and an input smaller than the kernel has taps that
        # reach no output pixel, so every clipped-window edge is hit.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        h, w = (1, 1) if seed % 10 == 0 else (int(rng.integers(1, 8)) for _ in range(2))
        cin = int(rng.integers(1, 10))
        cout = int(rng.integers(1, 4))
        kh, kw = (int(rng.integers(1, 6)) for _ in range(2))
        stride = int(rng.integers(1, 4))
        dtype = (np.float32, np.float64)[int(rng.integers(0, 2))]
        pt, pb, pl, pr = (int(rng.integers(0, 6)) for _ in range(4))
        pb += max(kh - (h + pt + pb), 0)
        pr += max(kw - (w + pl + pr), 0)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        k = rand_kernel(rng, kh, kw, cin, cout, bias=bool(rng.integers(0, 2)), dtype=dtype)
        out = ops.conv2d_padded(x, k, stride, (pt, pb, pl, pr))
        ref = conv2d_loop_ref(x, k, stride, (pt, pb, pl, pr))
        assert out.shape == ref.shape
        assert out.dtype == dtype
        tol = (1e-5 if dtype == np.float32 else 1e-12) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(out.data - ref)) <= tol
        same_pads = same_pads_ref(h, kh, stride) + same_pads_ref(w, kw, stride)
        assert ops.same_pads(h, kh, stride) + ops.same_pads(w, kw, stride) == same_pads
        same = conv_same(x, k, stride)
        assert np.array_equal(same.data, ops.conv2d_padded(x, k, stride, same_pads).data)

    def test_stride1_memory_stays_near_input_size(self):
        # dec.b4.k33 of lite-upconv-fast at 320x240: an im2col copy of the
        # 3x3 windows would be about 9x the input's bytes.
        rng = np.random.default_rng(14)
        x = rand_tensor(rng, (1, 120, 160, 128))
        k = rand_kernel(rng, 3, 3, 128, 1)
        tracemalloc.start()
        try:
            ops.conv2d_padded(x, k, 1, (1, 1, 1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * x.data.nbytes

    def test_unpadded_conv_copies_no_input(self):
        # a 1x1 projection with zero pads runs on the input array itself;
        # a padded copy alone would be the input's bytes, 8x the output's
        rng = np.random.default_rng(16)
        x = rand_tensor(rng, (1, 40, 50, 64))
        k = rand_kernel(rng, 1, 1, 64, 8)
        tracemalloc.start()
        try:
            out = ops.conv2d_padded(x, k, 1, (0, 0, 0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * x.data.nbytes
        flat = x.data.reshape(-1, 64) @ k.weights[0, 0] + k.bias
        assert np.array_equal(out.data, flat.reshape(out.shape))

    def test_padded_stride1_output_is_contiguous(self):
        # the output is the accumulator itself, not a cropped view of a larger one
        rng = np.random.default_rng(17)
        out = conv_same(rand_tensor(rng, (2, 6, 7, 5)), rand_kernel(rng, 3, 3, 5, 4))
        assert out.data.flags.c_contiguous

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            out = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / out.data.nbytes

    def test_1x1_after_same_conv_copies_no_input(self):
        # conv3 of a residual block reads conv2's output; a strided view there
        # would be copied by the 1x1 conv's reshape, a copy of its whole input
        # (0.25x the output's bytes at this 64 -> 256 expansion)
        rng = np.random.default_rng(18)
        mid = conv_same(rand_tensor(rng, (1, 60, 80, 64)), rand_kernel(rng, 3, 3, 64, 64))
        k = rand_kernel(rng, 1, 1, 64, 256)
        assert self.traced_peak(lambda: ops.conv2d_padded(mid, k)) <= 1.05

    def test_same_conv_memory_is_output_and_one_product(self):
        # the output plus one tap's product, both of output size: no padded
        # copy of the input, no accumulator over wrap-around rows
        rng = np.random.default_rng(19)
        x = rand_tensor(rng, (1, 60, 80, 256))
        k = rand_kernel(rng, 3, 3, 256, 128)
        assert self.traced_peak(lambda: conv_same(x, k)) <= 2.25

    def test_strided_conv_copies_no_kernel(self):
        # enc.s4.b1.conv2 of basic at 640x480: the padded input, the window
        # rows and the output; a transposed copy of the 9.4 MB kernel would
        # double the peak
        rng = np.random.default_rng(20)
        x = rand_tensor(rng, (1, 30, 40, 512))
        k = rand_kernel(rng, 3, 3, 512, 512)
        tracemalloc.start()
        try:
            out = conv_same(x, k, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        padded = 31 * 41 * 512 * 4
        window_rows = out.h * out.w * 9 * 512 * 4
        assert peak <= 1.1 * (padded + window_rows + out.data.nbytes)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("x_dtype", DTYPES)
    @pytest.mark.parametrize("w_dtype", DTYPES)
    def test_output_dtype_is_result_type(self, stride, x_dtype, w_dtype):
        # the result type is the one dtype the operands share; a mixed pair has none
        rng = np.random.default_rng(15)
        x = rand_tensor(rng, (1, 5, 6, 3), x_dtype)
        k = rand_kernel(rng, 3, 3, 3, 2, dtype=w_dtype)
        assert_one_dtype(lambda: ops.conv2d_padded(x, k, stride, (1, 1, 1, 1)), x_dtype, w_dtype)

    @pytest.mark.parametrize("seed", range(40))
    def test_shape_contracts(self, seed):
        rng = np.random.default_rng(seed + 500)
        h, w = (int(rng.integers(1, 17)) for _ in range(2))
        kh, kw = (int(rng.integers(1, 6)) for _ in range(2))
        stride = int(rng.integers(1, 4))
        x = rand_tensor(rng, (1, h, w, 2))
        k = rand_kernel(rng, kh, kw, 2, 3)
        same = conv_same(x, k, stride)
        assert same.shape[1:3] == (-(-h // stride), -(-w // stride))
        if h >= kh and w >= kw:
            valid = ops.conv2d_padded(x, k, stride, (0, 0, 0, 0))
            assert valid.shape[1:3] == ((h - kh) // stride + 1, (w - kw) // stride + 1)

    # 1-pixel and odd sizes, up to 3x per axis, independent pads on all four
    # sides, kernels larger than the input, bias on and off, both dtypes
    UPSAMPLED_CASES = dict(
        n=st.integers(1, 2), h=st.integers(1, 5), w=st.integers(1, 5),
        cin=st.integers(1, 4), cout=st.integers(1, 3), kh=st.integers(1, 4),
        kw=st.integers(1, 4), up=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        pads=st.tuples(*[st.integers(0, 3)] * 4), bias=st.booleans(),
        dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16),
    )

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(**UPSAMPLED_CASES)
    def test_upsampled_conv_matches_loop_reference_on_explicit_grid(
        self, n, h, w, cin, cout, kh, kw, up, pads, bias, dtype, seed
    ):
        # The conv reads x nearest-upsampled by `up` without building it; the
        # loop reference runs on the grid built by the helper.
        pt, pb, pl, pr = pads
        pads = (pt, pb + max(kh - (up[0] * h + pt + pb), 0),
                pl, pr + max(kw - (up[1] * w + pl + pr), 0))
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        k = rand_kernel(rng, kh, kw, cin, cout, bias=bias, dtype=dtype)
        out = ops.conv2d_padded(x, k, 1, pads, up)
        ref = conv2d_loop_ref(nearest_up2(x, up), k, 1, pads)
        assert out.shape == ref.shape
        assert out.dtype == dtype
        tol = (1e-5 if dtype == np.float32 else 1e-12) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(out.data - ref)) <= tol

    @pytest.mark.parametrize("stride,up", [(1, (0, 1)), (1, (2, -1)), (2, (2, 2)), (2, (1, 2))])
    def test_bad_upsampling_rejected(self, stride, up):
        # below 1 on an axis, or any upsampling at stride > 1
        x = Tensor4(np.zeros((1, 4, 4, 1), dtype=np.float32))
        k = ConvKernel(np.zeros((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match=r"up must be >= 1, and \(1, 1\) at stride > 1; "
                                             r"got \(%d, %d\), stride %d" % (*up, stride)):
            ops.conv2d_padded(x, k, stride, (0, 0, 0, 0), up)

    def test_upsampled_input_smaller_than_kernel_rejected(self):
        # the size check is on the upsampled grid: 2 * 1 + 0 rows < 3 taps
        x = Tensor4(np.zeros((1, 1, 4, 1), dtype=np.float32))
        k = ConvKernel(np.zeros((3, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="padded input 2x4 is smaller than the 3x1 kernel"):
            ops.conv2d_padded(x, k, 1, (0, 0, 0, 0), (2, 1))
        assert ops.conv2d_padded(x, k, 1, (0, 0, 0, 0), (3, 1)).shape == (1, 1, 4, 1)

    def test_valid_zero_size_rejected(self):
        x = Tensor4(np.zeros((1, 2, 2, 1), dtype=np.float32))
        k = ConvKernel(np.zeros((3, 3, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="zero-size"):
            ops.conv2d_padded(x, k, 1, (0, 0, 0, 0))

    @pytest.mark.parametrize("run", [ops.conv2d_padded, ops.deconv2d])
    def test_stride_below_one_rejected(self, run):
        x = Tensor4(np.zeros((1, 2, 2, 1), dtype=np.float32))
        k = ConvKernel(np.zeros((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
            run(x, k, 0)

    def test_negative_pads_rejected(self):
        x = Tensor4(np.zeros((1, 4, 4, 1), dtype=np.float32))
        k = ConvKernel(np.zeros((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match=r"padding must be nonnegative, got \(0, -1, 0, 0\)"):
            ops.conv2d_padded(x, k, 1, (0, -1, 0, 0))

    def test_channel_mismatch_rejected(self):
        x = Tensor4(np.zeros((1, 2, 2, 2), dtype=np.float32))
        k = ConvKernel(np.zeros((1, 1, 3, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="channels"):
            conv_same(x, k)

    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, (1, 6, 6, 2))
        k = rand_kernel(rng, 3, 3, 2, 2)
        before = x.data.copy()
        a = conv_same(x, k)
        b = conv_same(x, k)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(x.data, before)


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the jobs it was given."""

    def __init__(self, workers):
        super().__init__(workers)
        self.jobs = 0

    def submit(self, *args):
        self.jobs += 1
        return super().submit(*args)


class NaNEmpty:
    """numpy, except that `empty` fills its arrays with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)


class TestRowBands:
    BAND_CASES = dict(
        n=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
        cin=st.integers(1, 4), cout=st.integers(1, 3), kh=st.integers(1, 4),
        kw=st.integers(1, 4), stride=st.integers(1, 3),
        up=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        pads=st.tuples(*[st.integers(0, 3)] * 4), bias=st.booleans(),
        dtype=st.sampled_from(DTYPES), bands=st.integers(1, 4), seed=st.integers(0, 2**16),
    )

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(**BAND_CASES)
    def test_banded_conv_matches_loop_reference(
        self, n, h, w, cin, cout, kh, kw, stride, up, pads, bias, dtype, bands, seed
    ):
        # The constants are set so that each image's rows split into up to
        # `bands` bands: the band loop must not depend on where they fall.
        up = up if stride == 1 else (1, 1)
        pt, pb, pl, pr = pads
        pads = (pt, pb + max(kh - (up[0] * h + pt + pb), 0),
                pl, pr + max(kw - (up[1] * w + pl + pr), 0))
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        k = rand_kernel(rng, kh, kw, cin, cout, bias=bias, dtype=dtype)
        oh = (up[0] * h + pads[0] + pads[1] - kh) // stride + 1
        ow = (up[1] * w + pads[2] + pads[3] - kw) // stride + 1
        # the scratch one band would need for a whole image, as ops._bands is given it
        per_row = w * cout if stride == 1 else ow * kh * kw * cin
        scratch = (h if stride == 1 else oh) * per_row * np.dtype(dtype).itemsize
        seen, run_bands = [], ops._run_bands

        def spy(band, parts, *rest):
            seen.append(parts)
            run_bands(band, parts, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "PARALLEL_MACS", 2**62)
            mp.setattr(ops, "BAND_BYTES", -(-scratch // bands))
            mp.setattr(ops, "_run_bands", spy)
            out = ops.conv2d_padded(x, k, stride, pads, up)
        ref = conv2d_loop_ref(nearest_up2(x, up), k, stride, pads)
        assert out.shape == ref.shape and out.dtype == dtype
        tol = (1e-5 if dtype == np.float32 else 1e-12) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(out.data - ref)) <= tol
        # equal bands of each image's rows, `step` high (a multiple of uh), the last lower
        (parts,) = seen
        step = parts[0][2]
        assert parts == [(i, lo, min(lo + step, oh)) for i in range(n) for lo in range(0, oh, step)]
        assert step % up[0] == 0 or step == oh
        assert len(parts) <= n * bands

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 3), h=st.integers(1, 7), w=st.integers(1, 7),
        cin=st.integers(1, 4), cout=st.integers(1, 3), kh=st.integers(1, 6),
        kw=st.integers(1, 6), stride=st.integers(1, 3), bias=st.booleans(),
        dtype=st.sampled_from(DTYPES), bands=st.integers(1, 4), seed=st.integers(0, 2**16),
    )
    def test_banded_deconv_matches_scatter_reference(
        self, n, h, w, cin, cout, kh, kw, stride, bias, dtype, bands, seed
    ):
        # as above, for the zero-inserted read of a transposed conv, whose
        # bands are as high as a multiple of the stride
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        k = rand_kernel(rng, kh, kw, cin, cout, bias=bias, dtype=dtype)
        scratch = h * w * cout * np.dtype(dtype).itemsize
        seen, run_bands = [], ops._run_bands

        def spy(band, parts, *rest):
            seen.append(parts)
            run_bands(band, parts, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "PARALLEL_MACS", 2**62)
            mp.setattr(ops, "BAND_BYTES", -(-scratch // bands))
            mp.setattr(ops, "_run_bands", spy)
            out = ops.deconv2d(x, k, stride)
        ref = deconv2d_scatter_ref(x, k, stride)
        assert out.shape == ref.shape == (n, h * stride, w * stride, cout)
        assert out.dtype == dtype
        tol = (1e-5 if dtype == np.float32 else 1e-12) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(out.data - ref)) <= tol
        (parts,) = seen
        step, oh = parts[0][2], h * stride
        assert parts == [(i, lo, min(lo + step, oh)) for i in range(n) for lo in range(0, oh, step)]
        assert step % stride == 0
        assert len(parts) <= n * bands

    @pytest.mark.parametrize("oh, uh, macs, scratch, step", [
        (240, 1, 10**6, 10**6, 240),         # small: one band
        (240, 1, 2 * 10**6, 10**6, 120),     # PARALLEL_MACS: two bands
        (240, 1, 10**6, 45 * 10**6, 20),     # the 480x640 stem: 12 bands under 4 MB
        (241, 2, 10**9, 10**6, 122),         # heights are multiples of uh
        (3, 2, 10**9, 10**9, 2),             # never below uh rows
    ])
    def test_partition_depends_on_shapes_only(self, oh, uh, macs, scratch, step, monkeypatch):
        monkeypatch.setattr(ops, "PARALLEL_MACS", 2_000_000)
        monkeypatch.setattr(ops, "BAND_BYTES", 4_000_000)
        expected = [(i, lo, min(lo + step, oh)) for i in range(2) for lo in range(0, oh, step)]
        for threads in (1, 2, 64):
            monkeypatch.setattr(ops, "THREADS", threads)
            assert ops._bands(2, oh, uh, macs, scratch) == expected

    @pytest.mark.parametrize("conv", ["same3x3", "up21", "stride2", "deconv",
                                      "up12", "cout1", "cout1_pixel_rows", "cout1_up23",
                                      "deconv_cout1"])
    def test_same_bits_on_any_thread_count(self, conv, monkeypatch):
        # 4 bands per image, on this thread alone, and on it plus one worker;
        # deconv and up12 run as column phases (up12's first tap writing its
        # band's rows), the cout1 cases as tap planes
        rng = np.random.default_rng(31)
        x = rand_tensor(rng, (2, 17, 13, 6))
        k = rand_kernel(rng, 5 if conv == "deconv" else 3, 3, 6, 5)
        k1 = rand_kernel(rng, 5, 5, 6, 1)
        run = {
            "same3x3": lambda: conv_same(x, k),
            "up21": lambda: ops.conv2d_padded(x, k, 1, (1, 1, 1, 1), (2, 1)),
            "stride2": lambda: conv_same(x, k, 2),
            "deconv": lambda: ops.deconv2d(x, k, 2),
            "up12": lambda: ops.conv2d_padded(x, k, 1, (0, 2, 2, 1), (1, 2)),
            "cout1": lambda: conv_same(x, k1),
            "cout1_pixel_rows": lambda: conv_same(x, k1),
            "cout1_up23": lambda: ops.conv2d_padded(x, k1, 1, (2, 1, 0, 3), (2, 3)),
            "deconv_cout1": lambda: ops.deconv2d(x, k1, 2),
        }[conv]
        monkeypatch.setattr(ops, "PARALLEL_MACS", 0)
        monkeypatch.setattr(ops, "BAND_BYTES", 1)
        monkeypatch.setattr(ops, "PRODUCT_BYTES", 1)
        monkeypatch.setattr(ops, "PIXEL_ROWS_CIN", 1 if conv == "cout1_pixel_rows" else 2**62)
        outs = []
        for workers in (0, 1, 2):
            pool = CountingPool(workers) if workers else None
            monkeypatch.setattr(ops, "THREADS", workers + 1)
            monkeypatch.setattr(ops, "_POOL", pool)
            outs.append(run().data)
            if pool is not None:
                pool.shutdown()
                # each conv call, a deconv too, gives each worker one share
                assert pool.jobs == workers
        assert all(outs[0].tobytes() == out.tobytes() for out in outs[1:])

    def test_each_band_runs_once_under_thread_switching(self, monkeypatch):
        # more threads than cores, switching often: a band run twice would
        # add its taps twice, and a band never run would stay zero
        rng = np.random.default_rng(32)
        x = rand_tensor(rng, (3, 40, 9, 4))
        k = rand_kernel(rng, 3, 3, 4, 4)
        monkeypatch.setattr(ops, "PARALLEL_MACS", 0)
        monkeypatch.setattr(ops, "BAND_BYTES", 1)
        monkeypatch.setattr(ops, "THREADS", 1)
        ref = conv_same(x, k).data
        pool = ThreadPoolExecutor(7)
        monkeypatch.setattr(ops, "THREADS", 8)
        monkeypatch.setattr(ops, "_POOL", pool)
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: outs.extend(conv_same(x, k).data
                                                                 for _ in range(20)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown(wait=False)
        assert not runner.is_alive() and len(outs) == 20
        assert all(np.array_equal(ref, out) for out in outs)


def fit_pads(pads, k, up, size):
    """`pads` with the trailing ones widened so the padded upsampled grid holds the kernel."""
    pt, pb, pl, pr = pads
    return (pt, pb + max(k[0] - (up[0] * size[0] + pt + pb), 0),
            pl, pr + max(k[1] - (up[1] * size[1] + pl + pr), 0))


def assert_within_rounding(out, grid, weights, pads):
    """`out` is the correlation of `grid` with `weights` (no bias), padded by `pads`, to rounding.

    The bound is ``|out - ref| <= 2 * (K + 2) * u * S`` per output, where
    K = kh * kw * cin products meet in each output, u is the unit roundoff of
    out's dtype and S is the same correlation of |grid| with |weights|. A
    sum of K products in any order stays within (K + 2) * u * S of the
    exact value; the factor 2 covers the float64 reference's own rounding
    in float64 cases.
    """
    ref = conv2d_loop_ref(grid, ConvKernel(weights), 1, pads)
    size = conv2d_loop_ref(Tensor4(np.abs(grid.data)), ConvKernel(np.abs(weights)), 1, pads)
    kh, kw, cin, _ = weights.shape
    assert out.shape == ref.shape and out.dtype == weights.dtype
    u = np.finfo(out.dtype).eps / 2
    assert (np.abs(out - ref) <= 2 * (kh * kw * cin + 2) * u * size).all()


class TestConvForms:
    """The tap-plane and column-phase forms of ops._conv_taps, banded."""

    FORM_CASES = dict(
        n=st.integers(1, 2), h=st.integers(1, 5), w=st.integers(1, 5),
        cin=st.integers(1, 4), kh=st.integers(1, 5), kw=st.integers(1, 5),
        pads=st.tuples(*[st.integers(0, 3)] * 4), zeros=st.booleans(),
        dtype=st.sampled_from(DTYPES), bands=st.integers(1, 4), seed=st.integers(0, 2**16),
    )

    @staticmethod
    def run(x, weights, pads, up, zeros, budget, scratch, bands, **consts):
        """_conv_taps with the image's rows split into up to `bands` bands by `budget`,
        and `consts` set on ops. Its empty arrays start as NaN, so an output
        pixel or scratch value that it reads before writing shows."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ops, "np", NaNEmpty())
            mp.setattr(ops, "PARALLEL_MACS", 2**62)
            mp.setattr(ops, budget, -(-scratch // bands))
            for name, value in consts.items():
                mp.setattr(ops, name, value)
            return ops._conv_taps(x.data, weights, pads, up, zeros)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(up=st.tuples(st.integers(1, 3), st.integers(1, 3)), pixel_rows=st.booleans(),
           **FORM_CASES)
    def test_single_output_planes_match_loop_reference(
        self, n, h, w, cin, kh, kw, up, pixel_rows, pads, zeros, dtype, bands, seed
    ):
        # cout 1: one GEMM per band into a plane per tap, either way round,
        # within the bound of assert_within_rounding, on the grid read
        # nearest or zero-inserted
        pads = fit_pads(pads, (kh, kw), up, (h, w))
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        weights = rand_kernel(rng, kh, kw, cin, 1, bias=False, dtype=dtype).weights
        scratch = kh * kw * h * w * np.dtype(dtype).itemsize
        out = self.run(x, weights, pads, up, zeros, "PRODUCT_BYTES", scratch, bands,
                       PIXEL_ROWS_CIN=1 if pixel_rows else 2**62)
        grid = zero_inserted(x, up) if zeros else nearest_up2(x, up)
        assert_within_rounding(out, grid, weights, pads)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(cout=st.integers(2, 4), uh=st.integers(1, 3), uw=st.integers(2, 3), **FORM_CASES)
    def test_column_phases_match_loop_reference(
        self, n, h, w, cin, cout, kh, kw, uh, uw, pads, zeros, dtype, bands, seed
    ):
        # cout > 1 read with columns upsampled: a nearest read's repeated
        # kernels or a zero-inserted read's offset groups, within the bound
        # of assert_within_rounding
        pads = fit_pads(pads, (kh, kw), (uh, uw), (h, w))
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        weights = rand_kernel(rng, kh, kw, cin, cout, bias=False, dtype=dtype).weights
        # a nearest read's phases size their bands by PRODUCT_BYTES, a
        # zero-inserted read's by BAND_BYTES, as the taps do
        scratch = h * w * (1 if zeros else uw) * cout * np.dtype(dtype).itemsize
        budget = "BAND_BYTES" if zeros else "PRODUCT_BYTES"
        out = self.run(x, weights, pads, (uh, uw), zeros, budget, scratch, bands)
        grid = zero_inserted(x, (uh, uw)) if zeros else nearest_up2(x, (uh, uw))
        assert_within_rounding(out, grid, weights, pads)

    @pytest.mark.parametrize("kh, kw, pads", [
        (1, 3, (0, 0, 1, 1)),  # the nonbt conv13
        (3, 3, (0, 2, 2, 0)),
        (2, 5, (0, 1, 4, 1)),
        (1, 2, (0, 0, 1, 3)),  # tap 0 misses columns on both sides
    ])
    @pytest.mark.parametrize("uw", [2, 3])
    @pytest.mark.parametrize("bands", [1, 3])
    def test_nearest_phases_write_their_first_tap(self, kh, kw, pads, uw, bands):
        # the first tap row reads the input rows one to one, so each band's
        # first group writes its rows and zeroes the columns it misses
        rng = np.random.default_rng(kh * 10 + kw)
        x = rand_tensor(rng, (2, 7, 5, 3))
        weights = rand_kernel(rng, kh, kw, 3, 4, bias=False).weights
        out = self.run(x, weights, pads, (1, uw), False, "PRODUCT_BYTES",
                       7 * 5 * uw * 4 * 4, bands)
        assert_within_rounding(out, nearest_up2(x, (1, uw)), weights, pads)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(cout=st.integers(2, 5), uh=st.integers(1, 3), uw=st.integers(2, 3), **FORM_CASES)
    def test_column_phases_keep_the_bits_of_the_taps(
        self, n, h, w, cin, cout, kh, kw, uh, uw, pads, zeros, dtype, bands, seed
    ):
        # Each output pixel sums the products of the taps form (which
        # PHASE_COLUMNS 1 selects, one tap at a time) in their order, so under
        # one band split the column phases give its bits. A nearest read's
        # phases split by PRODUCT_BYTES, set here to give the taps' split.
        pads = fit_pads(pads, (kh, kw), (uh, uw), (h, w))
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        weights = rand_kernel(rng, kh, kw, cin, cout, bias=False, dtype=dtype).weights
        scratch = h * w * cout * np.dtype(dtype).itemsize
        outs = [self.run(x, weights, pads, (uh, uw), zeros, "BAND_BYTES", scratch, bands,
                         PRODUCT_BYTES=uw * -(-scratch // bands), PHASE_COLUMNS=columns)
                for columns in (ops.PHASE_COLUMNS, 1)]
        assert outs[0].tobytes() == outs[1].tobytes()


class TestDeconv2d:
    def test_delta_input_scatters_kernel(self):
        a = 1.7
        x = Tensor4(np.full((1, 1, 1, 1), a, dtype=np.float32))
        k = ConvKernel(np.arange(4, dtype=np.float32).reshape(2, 2, 1, 1))
        out = ops.deconv2d(x, k, stride=2)
        assert out.shape == (1, 2, 2, 1)
        assert np.allclose(out.data[0, :, :, 0], a * k.weights[:, :, 0, 0])

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("x_dtype", DTYPES)
    @pytest.mark.parametrize("w_dtype", DTYPES)
    def test_operands_share_one_dtype(self, stride, x_dtype, w_dtype):
        rng = np.random.default_rng(16)
        x = rand_tensor(rng, (1, 5, 6, 3), x_dtype)
        k = rand_kernel(rng, 3, 3, 3, 2, dtype=w_dtype)
        assert_one_dtype(lambda: ops.deconv2d(x, k, stride), x_dtype, w_dtype)

    def test_size_contract_5x5_stride2(self):
        x = Tensor4(np.ones((1, 2, 2, 1), dtype=np.float32))
        k = ConvKernel(np.ones((5, 5, 1, 1), dtype=np.float32))
        assert ops.deconv2d(x, k, stride=2).shape == (1, 4, 4, 1)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_scatter_reference(self, seed):
        rng = np.random.default_rng(seed + 90)
        n = int(rng.integers(1, 3))
        h, w = (int(rng.integers(1, 6)) for _ in range(2))
        cin, cout = (int(rng.integers(1, 4)) for _ in range(2))
        kh, kw = (int(rng.integers(1, 6)) for _ in range(2))
        stride = int(rng.integers(1, 4))
        x = rand_tensor(rng, (n, h, w, cin))
        k = rand_kernel(rng, kh, kw, cin, cout, bias=bool(rng.integers(0, 2)))
        out = ops.deconv2d(x, k, stride=stride)
        ref = deconv2d_scatter_ref(x, k, stride)
        assert out.shape == (n, h * stride, w * stride, cout)
        assert np.max(np.abs(out.data - ref)) <= 1e-5

    def test_channel_mismatch_rejected(self):
        x = Tensor4(np.zeros((1, 2, 2, 2), dtype=np.float32))
        k = ConvKernel(np.zeros((5, 5, 3, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="channels"):
            ops.deconv2d(x, k)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        n=st.integers(1, 2), h=st.integers(1, 5), w=st.integers(1, 5),
        cin=st.integers(1, 3), cout=st.integers(1, 3),
        kh=st.integers(1, 6), kw=st.integers(1, 6), stride=st.integers(1, 3),
        bias=st.booleans(), seed=st.integers(0, 2**16),
    )
    def test_matches_scatter_reference_float64(
        self, n, h, w, cin, cout, kh, kw, stride, bias, seed
    ):
        # covers 1-pixel and odd inputs and k < stride, where some output
        # phases read no tap and hold the bias alone
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), np.float64)
        k = rand_kernel(rng, kh, kw, cin, cout, bias=bias, dtype=np.float64)
        out = ops.deconv2d(x, k, stride=stride)
        ref = deconv2d_scatter_ref(x, k, stride)
        assert out.dtype == np.float64
        assert out.shape == ref.shape == (n, h * stride, w * stride, cout)
        assert np.max(np.abs(out.data - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("shape, cout", [
        ((1, 8, 10, 256), 128), ((1, 15, 20, 128), 64), ((1, 30, 40, 64), 32),
        ((1, 60, 80, 32), 16), ((1, 120, 160, 16), 1),
    ])
    def test_matches_zero_stuffed_form_on_decoder_shapes(self, shape, cout):
        # the five deconv layers of basic-deconv at 240x320, width /8: the
        # zero-inserted read sums the same nonzero products in the same tap
        # order
        rng = np.random.default_rng(17)
        x = rand_tensor(rng, shape)
        k = rand_kernel(rng, 5, 5, shape[3], cout)
        out = ops.deconv2d(x, k, stride=2).data
        ref = deconv2d_stuffed_ref(x, k, 2).data
        if cout > 1:
            assert out.tobytes() == ref.tobytes()
        else:  # single-output GEMMs round differently per row count
            assert np.max(np.abs(out - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape, cout", [((1, 60, 80, 32), 16), ((1, 30, 40, 256), 128)])
    def test_memory_stays_near_output_size(self, shape, cout):
        # no zero-stuffed grid, no kernel copy and no per-phase outputs: the
        # zero-stuffed form peaked at 6.2x and 7.7x the output's bytes on
        # these shapes, and four phase outputs copied into one at 1.5x
        rng = np.random.default_rng(18)
        x = rand_tensor(rng, shape)
        k = rand_kernel(rng, 5, 5, shape[3], cout)
        tracemalloc.start()
        try:
            out = ops.deconv2d(x, k, stride=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.data.nbytes


class TestPhaseSplit:
    """The zero-inserted read of ops._tap_spans, split by output phase."""

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("stride", range(1, 5))
    def test_phases_partition_the_taps(self, k, stride):
        # with deconv2d's leading pad, phase p reads the taps Kf[a0::stride],
        # a0 = (lead - p) % stride, at consecutive input offsets: a stride-1
        # correlation of the input with nonnegative pads that keeps its length
        lead = k - 1 - max(k - stride, 0) // 2
        taps = phase_taps(k, stride, lead)
        for phase, found in taps.items():
            assert [a for a, _ in found] == list(range((lead - phase) % stride, k, stride))
            if found:
                offsets = [d for _, d in found]
                assert offsets == list(range(offsets[0], offsets[0] + len(found)))
                assert offsets[0] <= 0 <= offsets[-1]
        assert sorted(a for found in taps.values() for a, _ in found) == list(range(k))

    def test_deconv_5x5_stride2_phases(self):
        # Kf[1 - r::2] with pads (1, r)
        assert phase_taps(5, 2, 3) == {0: [(1, -1), (3, 0)], 1: [(0, -1), (2, 0), (4, 1)]}

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("stride", range(1, 4))
    def test_matches_zero_inserted_correlation(self, k, stride):
        # one axis at a time, one-hot taps: the zero-inserted read equals
        # the correlation of the built zero-inserted signal, for every lead
        x = np.random.default_rng(19).standard_normal(7)
        up = np.zeros(len(x) * stride)
        up[::stride] = x
        for lead in range(k):
            grid = np.concatenate([np.zeros(lead), up, np.zeros(k)])
            for tap in range(k):
                kern = np.zeros(k)
                kern[tap] = 1.0
                full = np.array([grid[o:o + k] @ kern for o in range(len(up))])
                # down the rows, then along the columns
                for xshape, kshape, pads, up_hw in [
                    ((1, -1, 1, 1), (k, 1, 1, 1), (lead, k - 1 - lead, 0, 0), (stride, 1)),
                    ((1, 1, -1, 1), (1, k, 1, 1), (0, 0, lead, k - 1 - lead), (1, stride)),
                ]:
                    got = ops._conv_taps(x.reshape(xshape), kern.reshape(kshape), pads, up_hw,
                                         zeros=True)
                    assert np.array_equal(got.ravel(), full), (lead, tap, pads)


class TestRelu:
    def test_spot_values(self):
        x = Tensor4(np.array([-1.0, 0.0, 2.0], dtype=np.float32).reshape(1, 1, 3, 1))
        assert ops.relu(x).data.ravel().tolist() == [0.0, 0.0, 2.0]

    def test_nonnegative_unchanged(self):
        rng = np.random.default_rng(4)
        x = Tensor4(rng.random((2, 3, 3, 2), dtype=np.float32))
        assert np.array_equal(ops.relu(x).data, x.data)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, (2, 4, 4, 3))
        once = ops.relu(x)
        assert np.array_equal(ops.relu(once).data, once.data)


class TestBatchNorm:
    def test_identity_params(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, (1, 3, 3, 2))
        p = BatchNormParams(*(np.full(2, v, dtype=np.float32) for v in (0, 1, 1, 0)), eps=1e-30)
        assert np.allclose(ops.batchnorm_infer(x, p).data, x.data, atol=1e-6)

    @pytest.mark.parametrize("x_dtype", DTYPES)
    @pytest.mark.parametrize("p_dtype", DTYPES)
    def test_operands_share_one_dtype(self, x_dtype, p_dtype):
        x = rand_tensor(np.random.default_rng(17), (1, 3, 3, 2), x_dtype)
        p = BatchNormParams(*(np.full(2, v, dtype=p_dtype) for v in (0.5, 2, 1.5, -1)))
        assert_one_dtype(lambda: ops.batchnorm_infer(x, p), x_dtype, p_dtype)

    def test_hand_value(self):
        # 2 * (3 - 1) / sqrt(4) + 1 = 3
        x = Tensor4(np.full((1, 1, 1, 1), 3.0, dtype=np.float64))
        p = BatchNormParams(
            np.array([1.0]), np.array([4.0]), np.array([2.0]), np.array([1.0]),
            eps=1e-300,
        )
        assert ops.batchnorm_infer(x, p).data.item() == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed + 40)
        c = int(rng.integers(1, 5))
        x = rand_tensor(rng, (2, 3, 2, c))
        p = BatchNormParams(
            rng.standard_normal(c).astype(np.float32),
            rng.uniform(0.1, 2.0, c).astype(np.float32),
            rng.standard_normal(c).astype(np.float32),
            rng.standard_normal(c).astype(np.float32),
            eps=1e-5,
        )
        out = ops.batchnorm_infer(x, p)
        for idx in np.ndindex(x.shape):
            ch = idx[3]
            expect = float(p.gamma[ch]) * (
                float(x.data[idx]) - float(p.mean[ch])
            ) / np.sqrt(float(p.variance[ch]) + p.eps) + float(p.beta[ch])
            # 1e-6 relative: the kernel runs in float32
            assert abs(out.data[idx] - expect) <= 1e-6 * max(1.0, abs(expect))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(10))
    def test_forward_error_bound_under_cancellation(self, dtype, seed):
        # channel means up to 100x the spread of x, so x * scale and
        # mean * scale nearly cancel: the bound is in their size, not |y|'s
        rng = np.random.default_rng(seed + 70)
        c = 16
        spread = rng.uniform(0.01, 3.0, c)
        mean = (rng.uniform(-100, 100, c) * spread).astype(dtype)
        x = Tensor4((mean + spread * rng.standard_normal((2, 5, 4, c))).astype(dtype))
        p = BatchNormParams(
            mean,
            (spread**2 * rng.uniform(0.5, 2.0, c)).astype(dtype),
            rng.uniform(-2.0, 2.0, c).astype(dtype),
            (rng.standard_normal(c) * 0.1).astype(dtype),
            eps=1e-5,
        )
        out = ops.batchnorm_infer(x, p).data.astype(np.float64)
        x64, mean64, beta64 = (a.astype(np.float64) for a in (x.data, p.mean, p.beta))
        scale = p.gamma.astype(np.float64) / np.sqrt(p.variance.astype(np.float64) + p.eps)
        # x - mean first: the float64 reference does not cancel where the kernel does
        expect = (x64 - mean64) * scale + beta64
        u = np.finfo(dtype).eps / 2
        bound = 7 * u * (np.abs(x64 * scale) + np.abs(mean64 * scale) + np.abs(beta64))
        assert (np.abs(out - expect) <= bound).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(2, 5, 4, 16), (1, 3, 7, 3), (1, 4, 5, 1),
                                       (1, 8, 10, 256)])
    def test_row_form_keeps_the_bits_of_the_broadcast(self, dtype, shape):
        # the repeated rows of scale and shift (a scalar for one channel)
        # give the bits of broadcasting them per pixel, pure or in place
        rng = np.random.default_rng(sum(shape))
        c = shape[3]
        x = Tensor4((rng.standard_normal(shape) * 10).astype(dtype))
        x.data[0, 0, 0] = np.inf
        p = BatchNormParams(
            rng.standard_normal(c).astype(dtype),
            rng.uniform(0.1, 2.0, c).astype(dtype),
            rng.standard_normal(c).astype(dtype),
            rng.standard_normal(c).astype(dtype),
            eps=1e-5,
        )
        scale = p.gamma / np.sqrt(p.variance + p.eps)
        shift = p.beta - p.mean * scale
        y = np.multiply(x.data, scale)
        y += shift
        into = x.data.copy()
        ops.batchnorm_infer(Tensor4(into), p, out=into)
        assert ops.batchnorm_infer(x, p).data.tobytes() == y.tobytes() == into.tobytes()

    def test_length_mismatch_rejected(self):
        x = Tensor4(np.zeros((1, 1, 1, 3), dtype=np.float32))
        p = BatchNormParams(np.zeros(2), np.ones(2), np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="channels"):
            ops.batchnorm_infer(x, p)


class TestResample:
    def test_unpool_zero2_definition(self):
        x = Tensor4(np.full((1, 1, 1, 1), 3.5, dtype=np.float32))
        out = ops.unpool_zero2(x).data[0, :, :, 0]
        assert np.array_equal(out, np.array([[3.5, 0.0], [0.0, 0.0]], dtype=np.float32))

    def test_nearest_up2_definition(self):
        x = Tensor4(np.full((1, 1, 1, 1), 2.5, dtype=np.float32))
        out = nearest_up2(x).data[0, :, :, 0]
        assert np.array_equal(out, np.full((2, 2), 2.5, dtype=np.float32))

    @pytest.mark.parametrize("seed", range(20))
    def test_maxpool_inverts_nearest_up(self, seed):
        rng = np.random.default_rng(seed + 70)
        x = rand_tensor(rng, (2, int(rng.integers(1, 7)), int(rng.integers(1, 7)), 3))
        roundtrip = ops.maxpool2(nearest_up2(x))
        assert np.array_equal(roundtrip.data, x.data)

    def test_maxpool_takes_block_maxima(self):
        x = Tensor4(np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1))
        out = ops.maxpool2(x).data[0, :, :, 0]
        assert np.array_equal(out, np.array([[5, 7], [13, 15]], dtype=np.float32))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_maxpool_equals_the_block_reduction_nan_included(self, dtype):
        rng = np.random.default_rng(71)
        data = rng.standard_normal((2, 6, 8, 5)).astype(dtype)
        data[rng.random(data.shape) < 0.05] = np.nan
        data[0, 0, 0] = -np.inf
        n, h, w, c = data.shape
        ref = data.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))
        out = ops.maxpool2(Tensor4(data)).data
        assert np.isnan(ref).any() and np.array_equal(out, ref, equal_nan=True)

    def test_maxpool_rejects_odd_dims(self):
        x = Tensor4(np.zeros((1, 3, 4, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="even"):
            ops.maxpool2(x)

    # odd sizes, 1-pixel inputs, cout = 1, with and without a bias, both dtypes
    PROJECTION_CASES = dict(
        n=st.integers(1, 2), h=st.integers(1, 7), w=st.integers(1, 7),
        cin=st.integers(1, 9), cout=st.integers(1, 4), bias=st.booleans(),
        dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16),
    )

    @staticmethod
    def project_both_ways(x, k):
        """A 1x1 conv reading x upsampled by (2, 2), and the same conv on nearest_up2's grid."""
        first = ops.conv2d_padded(x, k, 1, (0, 0, 0, 0), (2, 2))
        last = ops.conv2d_padded(nearest_up2(x), k, 1, (0, 0, 0, 0))
        assert first.dtype == last.dtype == x.dtype
        return first.data, last.data

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(**PROJECTION_CASES)
    def test_1x1_conv_commutes_with_nearest_up2(self, n, h, w, cin, cout, bias, dtype, seed):
        # Each output pixel is the same dot product either way: one GEMM row
        # of x, or of its copy in the explicit grid. On small integers every
        # product and sum is exact, so the two agree bit for bit whatever
        # order the GEMMs sum in.
        rng = np.random.default_rng(seed)
        x = Tensor4(rng.integers(-8, 9, (n, h, w, cin)).astype(dtype))
        b = rng.integers(-8, 9, cout).astype(dtype) if bias else None
        k = ConvKernel(rng.integers(-8, 9, (1, 1, cin, cout)).astype(dtype), b)
        first, last = self.project_both_ways(x, k)
        assert first.shape == (n, 2 * h, 2 * w, cout)
        assert np.array_equal(first, last)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(**PROJECTION_CASES)
    def test_1x1_conv_commutes_with_nearest_up2_to_rounding(
        self, n, h, w, cin, cout, bias, dtype, seed
    ):
        # On general values the GEMM may round one pixel's dot product
        # differently at a different row count or position (the explicit
        # grid has 4x the rows), so the two agree to within the dot
        # product's rounding bound, not bit for bit.
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, h, w, cin), dtype)
        k = rand_kernel(rng, 1, 1, cin, cout, bias=bias, dtype=dtype)
        first, last = self.project_both_ways(x, k)
        scale = np.abs(nearest_up2(x).data) @ np.abs(k.weights[0, 0])
        if bias:
            scale += np.abs(k.bias)
        assert np.all(np.abs(first - last) <= 2 * (cin + 1) * np.finfo(dtype).eps * scale)


def nonbt_pair(x, k31, k13):
    """The upsampling_nonbt decoder's factorized conv: relu(conv1x3(relu(conv3x1(x))))."""
    return ops.relu(conv_same(ops.relu(conv_same(x, k31)), k13))


class TestNonbtBlock:
    @staticmethod
    def delta_kernels(c):
        k31 = np.zeros((3, 1, c, c), dtype=np.float32)
        k13 = np.zeros((1, 3, c, c), dtype=np.float32)
        for ch in range(c):
            k31[1, 0, ch, ch] = 1.0
            k13[0, 1, ch, ch] = 1.0
        return ConvKernel(k31), ConvKernel(k13)

    def test_delta_kernels_identity_on_nonnegative(self):
        rng = np.random.default_rng(8)
        x = Tensor4(rng.random((1, 5, 4, 2), dtype=np.float32))
        k31, k13 = self.delta_kernels(2)
        assert np.array_equal(nonbt_pair(x, k31, k13).data, x.data)

    def test_preserves_shape(self):
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, (2, 6, 5, 3))
        k31 = rand_kernel(rng, 3, 1, 3, 4, bias=False)
        k13 = rand_kernel(rng, 1, 3, 4, 4, bias=False)
        assert nonbt_pair(x, k31, k13).shape == (2, 6, 5, 4)

    @pytest.mark.parametrize("seed", range(10))
    def test_separable_product_oracle(self, seed):
        # With nonnegative input and kernels the inner relu never clips, so
        # the factorized pair equals one 3x3 outer-product kernel.
        rng = np.random.default_rng(seed + 200)
        cin = int(rng.integers(1, 3))
        x = Tensor4(rng.random((1, 5, 5, cin), dtype=np.float32))
        col = rng.random((3, 1, cin, 1)).astype(np.float32)
        row = rng.random((1, 3, 1, 1)).astype(np.float32)
        k31 = ConvKernel(col)
        k13 = ConvKernel(row)
        product = ConvKernel(
            (col[:, :, :, 0][:, :, :, None] * row[0, :, 0, 0][None, :, None, None])
        )
        out = nonbt_pair(x, k31, k13)
        direct = conv_same(x, product)
        assert np.max(np.abs(out.data - direct.data)) <= 1e-5


class TestAdd:
    def test_zero_identity_and_commutativity(self):
        rng = np.random.default_rng(12)
        x = rand_tensor(rng, (1, 3, 3, 2))
        zero = zeros(1, 3, 3, 2)
        y = rand_tensor(rng, (1, 3, 3, 2))
        assert np.array_equal(ops.add(x, zero).data, x.data)
        assert np.array_equal(ops.add(x, y).data, ops.add(y, x).data)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(13)
        a = rand_tensor(rng, (2, 3, 4, 2))
        b = rand_tensor(rng, (2, 3, 4, 2))
        out = ops.add(a, b)
        for idx in np.ndindex(a.shape):
            assert out.data[idx] == np.float32(a.data[idx]) + np.float32(b.data[idx])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ops.add(zeros(1, 2, 2, 1), zeros(1, 2, 3, 1))
        with pytest.raises(ValueError, match="mismatch"):  # shape is checked before dtype
            ops.add(zeros(1, 2, 2, 1), zeros(1, 2, 3, 1, dtype=np.float64))

    @pytest.mark.parametrize("a_dtype", DTYPES)
    @pytest.mark.parametrize("b_dtype", DTYPES)
    def test_operands_share_one_dtype(self, a_dtype, b_dtype):
        rng = np.random.default_rng(18)
        a, b = rand_tensor(rng, (1, 3, 3, 2), a_dtype), rand_tensor(rng, (1, 3, 3, 2), b_dtype)
        assert_one_dtype(lambda: ops.add(a, b), a_dtype, b_dtype)


# The elementwise kernels that infer runs in place, each as f(x, y, params, **out).
ELEMENTWISE = {
    "relu": lambda x, y, p, **kw: ops.relu(x, **kw),
    "batchnorm_infer": lambda x, y, p, **kw: ops.batchnorm_infer(x, p, **kw),
    "add": lambda x, y, p, **kw: ops.add(x, y, **kw),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ELEMENTWISE)
class TestOutArgument:
    @staticmethod
    def operands(dtype, view):
        rng = np.random.default_rng(19)
        # a view, like the slice the `crop` layer returns
        x = rand_tensor(rng, (2, 6, 7, 3), dtype)
        x = Tensor4(x.data[:, 1:5, :5]) if view else x
        y = rand_tensor(rng, x.shape, dtype)
        p = BatchNormParams(*(rng.uniform(0.5, 1.5, 3).astype(dtype) for _ in range(4)))
        return x, y, p

    def test_pure_and_deterministic_without_out(self, kind, dtype):
        x, y, p = self.operands(dtype, view=False)
        before = x.data.copy(), y.data.copy()
        a = ELEMENTWISE[kind](x, y, p)
        b = ELEMENTWISE[kind](x, y, p)
        assert a.data.tobytes() == b.data.tobytes()
        assert not np.shares_memory(a.data, x.data)
        assert np.array_equal(x.data, before[0]) and np.array_equal(y.data, before[1])

    @pytest.mark.parametrize("view", [False, True])
    def test_out_first_input_gives_the_same_bits(self, kind, dtype, view):
        x, y, p = self.operands(dtype, view)
        pure = ELEMENTWISE[kind](x, y, p)
        y_before = y.data.copy()
        got = ELEMENTWISE[kind](x, y, p, out=x.data)
        assert np.shares_memory(got.data, x.data)
        assert got.dtype == pure.dtype
        assert got.data.tobytes() == pure.data.tobytes()
        assert np.array_equal(y.data, y_before)

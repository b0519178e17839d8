import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcnndepth import ops
from fcnndepth.tensor import BatchNormParams, ConvKernel, Tensor4
from helpers import (
    conv2d_loop_ref, deconv2d_scatter_ref, deconv2d_stuffed_ref, nearest_up2, same_pads_ref,
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
    def test_phase_split_matches_scatter_float64(
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
        # phase split sums the same nonzero products in the same tap order
        rng = np.random.default_rng(17)
        x = rand_tensor(rng, shape)
        k = rand_kernel(rng, 5, 5, shape[3], cout)
        out = ops.deconv2d(x, k, stride=2).data
        ref = deconv2d_stuffed_ref(x, k, 2).data
        if cout > 1:
            assert np.array_equal(out, ref)
        else:  # single-output GEMMs round differently per row count
            assert np.max(np.abs(out - ref)) <= 1e-6 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape, cout", [((1, 60, 80, 32), 16), ((1, 30, 40, 256), 128)])
    def test_memory_stays_near_output_size(self, shape, cout):
        # no zero-stuffed grid and no kernel copy: the zero-stuffed form
        # peaked at 6.2x and 7.7x the output's bytes on these shapes
        rng = np.random.default_rng(18)
        x = rand_tensor(rng, shape)
        k = rand_kernel(rng, 5, 5, shape[3], cout)
        tracemalloc.start()
        try:
            out = ops.deconv2d(x, k, stride=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.data.nbytes


class TestPhaseSplit:
    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("stride", range(1, 5))
    def test_phases_partition_the_taps(self, k, stride):
        lead = k - 1 - max(k - stride, 0) // 2
        used = []
        for phase in range(stride):
            a0, taps, (pad, trail) = ops.phase_split(k, stride, lead, phase)
            used += range(a0, k, stride)
            assert taps == len(range(a0, k, stride))
            if taps:
                assert pad >= 0 and trail >= 0 and pad + trail == taps - 1
        assert sorted(used) == list(range(k))

    def test_deconv_5x5_stride2_phases(self):
        # Kf[1 - r::2] with pads (1, r)
        assert [ops.phase_split(5, 2, 3, r) for r in (0, 1)] == [(1, 2, (1, 0)), (0, 3, (1, 1))]

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("stride", range(1, 4))
    def test_matches_zero_inserted_correlation(self, k, stride):
        # one axis, one-hot taps: phase `phase` of the correlation of the
        # zero-inserted signal equals the split's correlation of the signal
        x = np.random.default_rng(19).standard_normal(7)
        for lead in range(k):
            for tap in range(k):
                kern = np.zeros(k)
                kern[tap] = 1.0
                up = np.zeros(len(x) * stride)
                up[::stride] = x
                grid = np.concatenate([np.zeros(lead), up, np.zeros(k)])
                full = np.array([grid[o:o + k] @ kern for o in range(len(up))])
                for phase in range(stride):
                    a0, taps, (pad, trail) = ops.phase_split(k, stride, lead, phase)
                    if phase > lead:
                        continue  # a crop, not a pad; see phase_split
                    assert pad >= 0 and trail >= 0
                    sub = kern[a0::stride]
                    src = np.concatenate([np.zeros(pad), x, np.zeros(trail)])
                    got = np.array([src[m:m + taps] @ sub for m in range(len(x))])
                    assert np.array_equal(got, full[phase::stride]), (lead, tap, phase)


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
        zero = Tensor4.zeros(1, 3, 3, 2)
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
            ops.add(Tensor4.zeros(1, 2, 2, 1), Tensor4.zeros(1, 2, 3, 1))
        with pytest.raises(ValueError, match="mismatch"):  # shape is checked before dtype
            ops.add(Tensor4.zeros(1, 2, 2, 1), Tensor4.zeros(1, 2, 3, 1, dtype=np.float64))

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

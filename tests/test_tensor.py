import numpy as np
import pytest

from fcnndepth.tensor import BatchNormParams, ConvKernel, Tensor4


class TestTensor4:
    def test_linearization_matches_c_order(self):
        t = Tensor4(np.arange(2 * 3 * 4 * 5, dtype=np.float32).reshape(2, 3, 4, 5))
        n, h, w, c = 1, 2, 3, 4
        flat_index = ((n * t.h + h) * t.w + w) * t.c + c
        assert t.data.ravel()[flat_index] == t.data[n, h, w, c]

    def test_properties(self):
        t = Tensor4(np.zeros((2, 3, 4, 5), dtype=np.float32))
        assert (t.n, t.h, t.w, t.c) == (2, 3, 4, 5)
        assert t.shape == (2, 3, 4, 5)
        assert t.dtype == np.float32

    def test_non_float_input_rejected(self):
        for dtype in (np.int64, np.float16, np.uint8, np.bool_):
            name = np.dtype(dtype).name
            with pytest.raises(ValueError, match=f"must be float32 or float64, got {name}"):
                Tensor4(np.ones((1, 1, 1, 1), dtype=dtype))

    def test_float64_preserved(self):
        t = Tensor4(np.zeros((1, 1, 1, 2), dtype=np.float64))
        assert t.dtype == np.float64
        assert t.astype(np.float32).dtype == np.float32

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="rank"):
            Tensor4(np.zeros((2, 2, 2)))

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match=">= 1"):
            Tensor4(np.zeros((1, 0, 2, 2)))

    def test_noncontiguous_input_kept_as_view(self):
        base = np.arange(2 * 4 * 4 * 3, dtype=np.float32).reshape(2, 4, 4, 3)
        view = base[:, ::2]
        t = Tensor4(view)
        assert np.shares_memory(t.data, base)
        assert np.array_equal(t.data, view)


class TestConvKernel:
    def test_shape_properties(self):
        k = ConvKernel(np.zeros((3, 5, 2, 7), dtype=np.float32))
        assert (k.kh, k.kw, k.cin, k.cout) == (3, 5, 2, 7)
        assert k.bias is None

    def test_bias_length_checked(self):
        with pytest.raises(ValueError, match="bias"):
            ConvKernel(np.zeros((1, 1, 1, 4)), np.zeros(3))

    def test_bias_of_another_dtype_rejected(self):
        with pytest.raises(ValueError, match="bias is float64 but the weights are float32"):
            ConvKernel(np.zeros((1, 1, 1, 2), dtype=np.float32), np.zeros(2, dtype=np.float64))

    def test_strided_weights_kept_as_view(self):
        base = np.ones((5, 5, 2, 3), dtype=np.float32)
        k = ConvKernel(base[1::2, ::2], np.zeros(3, dtype=np.float32))
        assert np.shares_memory(k.weights, base)
        assert (k.kh, k.kw) == (2, 3)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="rank 4"):
            ConvKernel(np.zeros((3, 3, 2)))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match=r"kernel dimensions must be >= 1, got \(3, 0, 2, 2\)"):
            ConvKernel(np.zeros((3, 0, 2, 2), dtype=np.float32))


class TestBatchNormParams:
    def test_channels(self):
        p = BatchNormParams(np.zeros(4), np.ones(4), np.ones(4), np.zeros(4))
        assert p.channels == 4
        assert p.eps == pytest.approx(1e-5)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="variance"):
            BatchNormParams(np.zeros(2), np.array([1.0, -0.1]), np.ones(2), np.zeros(2))

    def test_rejects_two_dimensional_field(self):
        with pytest.raises(ValueError, match="gamma must be 1-D, got rank 2"):
            BatchNormParams(np.zeros(2), np.ones(2), np.ones((2, 1)), np.zeros(2))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            BatchNormParams(np.zeros(1), np.ones(1), np.ones(1), np.zeros(1), eps=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mean", "variance", "gamma", "beta"])
    def test_rejects_non_finite_values(self, field, value):
        arrays = {"mean": np.zeros(2), "variance": np.ones(2),
                  "gamma": np.ones(2), "beta": np.zeros(2)}
        arrays[field][1] = value
        with pytest.raises(ValueError, match=f"{field} has non-finite values"):
            BatchNormParams(**arrays)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            BatchNormParams(np.zeros(1), np.ones(1), np.ones(1), np.zeros(1), eps=eps)

    @pytest.mark.parametrize("field", ["variance", "gamma", "beta"])
    def test_rejects_mixed_dtypes(self, field):
        arrays = {"mean": np.zeros(2), "variance": np.ones(2),
                  "gamma": np.ones(2), "beta": np.zeros(2)}
        arrays[field] = arrays[field].astype(np.float32)
        with pytest.raises(ValueError, match=f"{field} is float32 but mean is float64"):
            BatchNormParams(**arrays)

    def test_rejects_non_float_values(self):
        with pytest.raises(ValueError, match="gamma must be float32 or float64, got int64"):
            BatchNormParams(np.zeros(2), np.ones(2), np.ones(2, dtype=np.int64), np.zeros(2))

    def test_arrays_kept_as_given(self):
        arrays = [np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32),
                  np.ones(6, dtype=np.float32)[::2], np.zeros(3, dtype=np.float32)]
        p = BatchNormParams(*arrays)
        assert all(a is b for a, b in zip((p.mean, p.variance, p.gamma, p.beta), arrays))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            BatchNormParams(np.zeros(2), np.ones(3), np.ones(2), np.zeros(2))

    def test_rejects_zero_channels(self):
        # the FCNW reader refuses a (5, 0) batch-norm record, so the type
        # must not accept what could be saved but never loaded
        empty = np.zeros(0, dtype=np.float32)
        with pytest.raises(ValueError, match="channels must be >= 1, got 0"):
            BatchNormParams(empty, empty, empty, empty)

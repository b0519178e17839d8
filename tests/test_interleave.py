import numpy as np
import pytest

from fcnndepth.interleave import interleave4, interleave4_reference
from fcnndepth.tensor import Tensor4


def quad(rng, shape, dtype=np.float32):
    return [Tensor4(rng.standard_normal(shape).astype(dtype)) for _ in range(4)]


def scalars(a, b, c, d):
    return [Tensor4(np.full((1, 1, 1, 1), v, dtype=np.float32)) for v in (a, b, c, d)]


class TestInterleave4:
    def test_parity_placement(self):
        out = interleave4(*scalars(1.0, 2.0, 3.0, 4.0))
        assert np.array_equal(
            out.data[0, :, :, 0], np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        )

    def test_linear_index_decode(self):
        # Output 1x4x4x1: flat index 5 has (h, w) = (1, 1), both odd, so it
        # must read element 0 of the fourth input.
        rng = np.random.default_rng(0)
        a, b, c, d = quad(rng, (1, 2, 2, 1))
        out = interleave4(a, b, c, d)
        assert out.data.ravel()[5] == d.data.ravel()[0]
        # and flat index 0 is even/even: first input, element 0
        assert out.data.ravel()[0] == a.data.ravel()[0]

    def test_index_formula_bulk(self):
        # Every output element must satisfy the closed-form source index.
        rng = np.random.default_rng(1)
        n, hh, hw, c = 2, 3, 4, 3
        inputs = quad(rng, (n, hh, hw, c))
        out = interleave4(*inputs)
        h2, w2 = 2 * hh, 2 * hw
        flat = [t.data.ravel() for t in inputs]
        for i, value in enumerate(out.data.ravel()):
            n_i = i // (h2 * w2 * c)
            h_i = (i % (h2 * w2 * c)) // (w2 * c)
            w_i = (i % (w2 * c)) // c
            c_i = i % c
            src = (
                n_i * (h2 * w2 * c // 4)
                + (h_i // 2) * (w2 * c // 2)
                + (w_i // 2) * c
                + c_i
            )
            which = 2 * (h_i % 2) + (w_i % 2)
            assert value == flat[which][src]

    def test_matches_reference_bit_exact(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            shape = (
                int(rng.integers(1, 4)),
                int(rng.integers(1, 13)),
                int(rng.integers(1, 13)),
                int(rng.integers(1, 7)),
            )
            inputs = quad(rng, shape)
            fast = interleave4(*inputs)
            ref = interleave4_reference(*inputs)
            assert np.array_equal(fast.data, ref.data)

    def test_output_doubles_input(self):
        rng = np.random.default_rng(2)
        inputs = quad(rng, (2, 3, 5, 4))
        assert interleave4(*inputs).shape == (2, 6, 10, 4)

    def test_bijection_multiset(self):
        rng = np.random.default_rng(3)
        inputs = quad(rng, (1, 3, 2, 2))
        out = interleave4(*inputs)
        combined = np.concatenate([t.data.ravel() for t in inputs])
        assert np.array_equal(np.sort(out.data.ravel()), np.sort(combined))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        a, b, c, _ = quad(rng, (1, 2, 2, 1))
        d = Tensor4(np.zeros((1, 2, 3, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            interleave4(a, b, c, d)

    def test_dtype_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        a, b, c, d = quad(rng, (1, 2, 2, 1))
        with pytest.raises(ValueError, match="dtype"):
            interleave4(a, b, c, d.astype(np.float64))


class TestReferenceAndInverse:
    def test_reference_parity_placement(self):
        out = interleave4_reference(*scalars(1.0, 2.0, 3.0, 4.0))
        assert np.array_equal(
            out.data[0, :, :, 0], np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        )

    def test_deinterleave_recovers_inputs(self):
        rng = np.random.default_rng(6)
        inputs = quad(rng, (2, 4, 3, 2))
        out = interleave4_reference(*inputs).data
        recovered = [out[:, 0::2, 0::2], out[:, 0::2, 1::2], out[:, 1::2, 0::2], out[:, 1::2, 1::2]]
        for orig, back in zip(inputs, recovered):
            assert np.array_equal(orig.data, back)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        inputs = quad(rng, (1, 5, 5, 3))
        assert np.array_equal(interleave4(*inputs).data, interleave4(*inputs).data)

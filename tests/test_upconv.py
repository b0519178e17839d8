import re

import numpy as np
import pytest

from fcnndepth import ops
from fcnndepth.bench import bench_block
from fcnndepth.models import block_graph, graph_macs, infer, random_weights
from fcnndepth.ops import BRANCHES
from fcnndepth.tensor import BatchNormParams, ConvKernel, Tensor4
from fcnndepth.upconv import (
    fast_block_macs,
    naive_block_macs,
    random_upconv_weights,
    split_weights_5x5,
    upconv_block_fast,
    upconv_block_naive,
    verify_equivalence,
)
from fcnndepth.weights_io import WeightContainer, WeightFormatError


def identity_bn(c, dtype=np.float32):
    # eps small enough that 1 / sqrt(1 + eps) rounds to exactly 1.0
    return BatchNormParams(
        np.zeros(c, dtype=dtype), np.ones(c, dtype=dtype),
        np.ones(c, dtype=dtype), np.zeros(c, dtype=dtype), eps=1e-30,
    )


def naive_container(kernel: ConvKernel, bn: BatchNormParams) -> WeightContainer:
    return WeightContainer({"dec.b1.up5x5": kernel, "dec.b1.bn": bn})


def sub_kernels(split: WeightContainer) -> dict[str, ConvKernel]:
    return {name: split[f"dec.b1.{name}"] for name in BRANCHES}


def count_convs(monkeypatch) -> list:
    """Patch ops.conv2d_padded (every up-conv block conv goes through it) to log its calls."""
    calls, real = [], ops.conv2d_padded
    monkeypatch.setattr(ops, "conv2d_padded", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestSplitWeights:
    def test_delta_kernel_lands_in_k33_center(self):
        k = np.zeros((5, 5, 1, 1), dtype=np.float32)
        k[2, 2, 0, 0] = 1.0
        split = sub_kernels(split_weights_5x5(naive_container(ConvKernel(k), identity_bn(1))))
        expected = np.zeros((3, 3, 1, 1), dtype=np.float32)
        expected[1, 1, 0, 0] = 1.0
        assert np.array_equal(split["k33"].weights, expected)
        assert not split["k32"].weights.any()
        assert not split["k23"].weights.any()
        assert not split["k22"].weights.any()

    def test_parity_class_cardinalities(self):
        k = np.ones((5, 5, 2, 3), dtype=np.float32)
        split = sub_kernels(split_weights_5x5(naive_container(ConvKernel(k), identity_bn(3))))
        counts = {name: kern.weights[:, :, 0, 0].size for name, kern in split.items()}
        assert counts == {"k33": 9, "k32": 6, "k23": 6, "k22": 4}
        assert sum(counts.values()) == 25

    def test_split_is_weight_permutation(self):
        rng = np.random.default_rng(0)
        k = rng.standard_normal((5, 5, 3, 2)).astype(np.float32)
        split = sub_kernels(split_weights_5x5(naive_container(ConvKernel(k), identity_bn(2))))
        parts = np.concatenate([kern.weights.ravel() for kern in split.values()])
        assert np.array_equal(np.sort(parts), np.sort(k.ravel()))

    def test_bias_replicated(self):
        rng = np.random.default_rng(1)
        bias = rng.standard_normal(2).astype(np.float32)
        k = ConvKernel(rng.standard_normal((5, 5, 1, 2)).astype(np.float32), bias)
        split = sub_kernels(split_weights_5x5(naive_container(k, identity_bn(2))))
        for kern in split.values():
            assert np.array_equal(kern.bias, bias)

    def test_rejects_non_5x5(self):
        weights = naive_container(ConvKernel(np.zeros((3, 3, 1, 1), dtype=np.float32)),
                                  identity_bn(1))
        with pytest.raises(WeightFormatError, match="5x5"):
            split_weights_5x5(weights)

    def test_table_derived_from_phase_rule_is_the_literal_table(self):
        # the table as written out before it was derived from ops.phase_split
        # (the names are also the FCNW entry suffixes of the fast presets)
        assert BRANCHES == {
            "k33": (0, 0, (3, 3), (1, 1, 1, 1)),
            "k32": (0, 1, (3, 2), (1, 1, 0, 1)),
            "k23": (1, 0, (2, 3), (0, 1, 1, 1)),
            "k22": (1, 1, (2, 2), (0, 1, 0, 1)),
        }
        assert list(BRANCHES) == ["k33", "k32", "k23", "k22"]
        for r, c, _, _ in BRANCHES.values():
            assert ops.phase_split(5, 2, 2, r)[0] == r  # first tap: K[r::2]
            assert ops.phase_split(5, 2, 2, c)[0] == c

    def test_table_reproduces_one_hot_slices(self):
        # for every one-hot 5x5 kernel, branch (r, c) alone (its slice of the
        # kernel, which must have the table's size, convolved with the
        # table's pads) gives pixels [r::2, c::2] of the naive "same" 5x5
        # conv on the zero-stuffed grid
        x = Tensor4(np.random.default_rng(9).standard_normal((1, 4, 5, 1)))
        up = ops.unpool_zero2(x)
        same = ops.same_pads(up.h, 5, 1) + ops.same_pads(up.w, 5, 1)
        for a in range(5):
            for b in range(5):
                k = np.zeros((5, 5, 1, 1))
                k[a, b] = 1.0
                naive = ops.conv2d_padded(up, ConvKernel(k), 1, same).data
                for r, c, size, pads in BRANCHES.values():
                    sub = ConvKernel(k[r::2, c::2])
                    assert (sub.kh, sub.kw) == size
                    branch = ops.conv2d_padded(x, sub, stride=1, pads=pads).data
                    assert np.array_equal(branch, naive[:, r::2, c::2]), (a, b, r, c)


class TestBlockWeightCheck:
    """infer's weight check validates a block container, naming the dec.b1 layer."""

    def check(self, monkeypatch, decoder, weights, layer, message):
        calls = count_convs(monkeypatch)
        graph = block_graph(decoder, 4, 5, 2, 3)
        x = Tensor4(np.ones((1, 4, 5, 2), dtype=np.float32))
        with pytest.raises(ValueError, match=re.escape(f"layer '{layer}': {message}")):
            infer(graph, weights, x)
        assert calls == []

    def split(self):
        return split_weights_5x5(random_upconv_weights(2, 3, np.random.default_rng(10)))

    def test_missing_sub_kernel(self, monkeypatch):
        weights = self.split()
        del weights.entries["dec.b1.k22"]
        self.check(monkeypatch, "upconv_fast", weights, "dec.b1.k22",
                   "missing weight entry (1 missing in total)")

    def test_non_5x5_kernel(self, monkeypatch):
        weights = naive_container(ConvKernel(np.zeros((3, 3, 2, 3), dtype=np.float32)),
                                  identity_bn(3))
        self.check(monkeypatch, "upconv_naive", weights, "dec.b1.up5x5",
                   "kernel shape (3, 3, 2, 3) does not match layer specification (5, 5, 2, 3)")

    def test_sub_kernel_of_wrong_size(self, monkeypatch):
        weights = self.split()
        weights.entries["dec.b1.k32"] = weights["dec.b1.k22"]
        self.check(monkeypatch, "upconv_fast", weights, "dec.b1.k32",
                   "kernel shape (2, 2, 2, 3) does not match layer specification (3, 2, 2, 3)")

    def test_sub_kernels_disagree_on_channels(self, monkeypatch):
        weights = self.split()
        weights.entries["dec.b1.k23"] = ConvKernel(np.zeros((2, 3, 2, 4), dtype=np.float32))
        self.check(monkeypatch, "upconv_fast", weights, "dec.b1.k23",
                   "kernel shape (2, 3, 2, 4) does not match layer specification (2, 3, 2, 3)")

    @pytest.mark.parametrize("block", [upconv_block_naive, upconv_block_fast])
    def test_missing_batch_norm_named_by_the_block_api(self, block):
        weights = random_upconv_weights(2, 3, np.random.default_rng(11))
        if block is upconv_block_fast:
            weights = split_weights_5x5(weights)
        del weights.entries["dec.b1.bn"]
        with pytest.raises(ValueError, match=re.escape("layer 'dec.b1.bn': missing weight entry")):
            block(Tensor4.zeros(1, 4, 5, 2), weights)


class TestNaiveBlock:
    def test_zero_input_passes_beta_through_relu(self):
        rng = np.random.default_rng(2)
        w = random_upconv_weights(2, 3, rng)
        bn = w["dec.b1.bn"]
        # no bias: conv output is zero
        w = naive_container(ConvKernel(w["dec.b1.up5x5"].weights, None), bn)
        x = Tensor4.zeros(1, 3, 3, 2)
        out = upconv_block_naive(x, w)
        expected = np.maximum(
            bn.gamma * (0.0 - bn.mean) / np.sqrt(bn.variance + np.float32(bn.eps)) + bn.beta,
            0.0,
        )
        assert np.allclose(out.data, np.broadcast_to(expected, out.shape), atol=1e-6)

    def test_output_shape_doubles(self):
        rng = np.random.default_rng(3)
        w = random_upconv_weights(2, 4, rng)
        out = upconv_block_naive(Tensor4.zeros(1, 5, 7, 2), w)
        assert out.shape == (1, 10, 14, 4)

    def test_equals_straight_line_composition(self):
        rng = np.random.default_rng(4)
        w = random_upconv_weights(3, 2, rng)
        x = Tensor4(rng.standard_normal((2, 4, 5, 3)).astype(np.float32))
        block = upconv_block_naive(x, w)
        same = ops.same_pads(8, 5, 1) + ops.same_pads(10, 5, 1)
        manual = ops.relu(
            ops.batchnorm_infer(
                ops.conv2d_padded(ops.unpool_zero2(x), w["dec.b1.up5x5"], 1, same),
                w["dec.b1.bn"],
            )
        )
        assert np.array_equal(block.data, manual.data)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        w = random_upconv_weights(3, 2, rng)
        with pytest.raises(ValueError, match=r"layer 'dec\.b1\.up5x5': kernel shape"):
            upconv_block_naive(Tensor4.zeros(1, 2, 2, 4), w)


class TestFastBlock:
    def test_equivalent_on_small_input(self):
        for seed in range(10):
            diff = verify_equivalence((1, 4, 4, 2), seed, cout=3)
            assert diff <= 1e-5

    def test_equivalent_over_randomized_shapes(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            shape = (
                int(rng.integers(1, 3)),
                int(rng.integers(2, 13)),
                int(rng.integers(2, 13)),
                int(rng.integers(1, 9)),
            )
            cout = int(rng.integers(1, 9))
            worst = max(worst, verify_equivalence(shape, seed, cout=cout))
        # one-pixel-high and one-pixel-wide inputs, narrower than the
        # three-tap branch kernels
        for seed, (n, h, w) in enumerate([(1, 1, 1), (1, 1, 5), (2, 5, 1)]):
            for c in (1, 3):
                worst = max(worst, verify_equivalence((n, h, w, c), seed, cout=2))
        assert worst <= 1e-5

    def test_equivalent_in_float64(self):
        worst = max(
            verify_equivalence((1, 6, 5, 3), seed, cout=2, dtype=np.float64)
            for seed in range(50)
        )
        assert worst <= 1e-10

    def test_delta_kernel_matches_naive_exactly(self):
        rng = np.random.default_rng(6)
        k = np.zeros((5, 5, 2, 2), dtype=np.float32)
        k[2, 2, 0, 0] = 1.0
        k[2, 2, 1, 1] = 1.0
        w = naive_container(ConvKernel(k), identity_bn(2))
        x = Tensor4(rng.standard_normal((1, 3, 4, 2)).astype(np.float32))
        naive = upconv_block_naive(x, w)
        fast = upconv_block_fast(x, split_weights_5x5(w))
        assert np.array_equal(naive.data, fast.data)
        # the block itself reduces to relu of the zero-stuffed input here
        assert np.array_equal(naive.data, ops.relu(ops.unpool_zero2(x)).data)

    def test_zero_weights_zero_difference(self):
        w = naive_container(
            ConvKernel(np.zeros((5, 5, 2, 2), dtype=np.float32), np.zeros(2, dtype=np.float32)),
            identity_bn(2),
        )
        x = Tensor4(np.random.default_rng(7).standard_normal((1, 4, 4, 2)).astype(np.float32))
        naive = upconv_block_naive(x, w)
        fast = upconv_block_fast(x, split_weights_5x5(w))
        assert np.array_equal(naive.data, fast.data)

    def test_branch_pads_table_shape_preserving(self):
        # every branch conv output must be exactly the input spatial size
        rng = np.random.default_rng(8)
        x = Tensor4(rng.standard_normal((1, 5, 6, 2)).astype(np.float32))
        split = sub_kernels(split_weights_5x5(random_upconv_weights(2, 3, rng)))
        for name, kernel in split.items():
            out = ops.conv2d_padded(x, kernel, stride=1, pads=BRANCHES[name][3])
            assert out.shape == (1, 5, 6, 3), name


class TestRandomUpconvWeights:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_weights_of_the_naive_block_plus_a_bias(self, dtype):
        # two generators in the same state: the block draw is random_weights' own
        cin, cout = 3, 4
        drawn = random_upconv_weights(cin, cout, np.random.default_rng(5), dtype)
        graph = block_graph("upconv_naive", 1, 1, cin, cout)
        ref = random_weights(graph, np.random.default_rng(5), dtype)
        assert drawn.names() == ref.names()
        kernel = drawn["dec.b1.up5x5"]
        assert kernel.weights.dtype == dtype
        assert np.array_equal(kernel.weights, ref["dec.b1.up5x5"].weights)
        assert kernel.bias is not None and kernel.bias.shape == (cout,)
        bn, ref_bn = drawn["dec.b1.bn"], ref["dec.b1.bn"]
        for field in ("mean", "variance", "gamma", "beta"):
            assert np.array_equal(getattr(bn, field), getattr(ref_bn, field))
        assert bn.eps == ref_bn.eps


class TestVerifyEquivalence:
    def test_deterministic(self):
        a = verify_equivalence((1, 4, 4, 2), 42)
        b = verify_equivalence((1, 4, 4, 2), 42)
        assert a == b

    def test_fault_injection_detected(self):
        clean = verify_equivalence((1, 6, 6, 3), 0, cout=3)
        faulty = verify_equivalence((1, 6, 6, 3), 0, cout=3, inject_fault=True)
        assert clean <= 1e-5
        assert faulty > 1e-3


class TestMacCounts:
    def test_fast_strictly_cheaper(self):
        for h, w, cin, cout in [(1, 1, 1, 1), (4, 4, 2, 3), (15, 20, 256, 128)]:
            assert fast_block_macs(h, w, cin, cout) < naive_block_macs(h, w, cin, cout)

    def test_expected_ratio(self):
        # 25 taps on the 4x-sparse grid vs 25 dense taps at quarter the pixels
        assert naive_block_macs(8, 8, 4, 4) == 4 * fast_block_macs(8, 8, 4, 4)

    @pytest.mark.parametrize("kind, macs", [
        ("upconv_naive", naive_block_macs), ("upconv_fast", fast_block_macs),
        ("deconv", None), ("upsampling_nonbt", None),
    ])
    def test_bench_block_reports_block_macs(self, kind, macs):
        report = bench_block(kind, 3, 5, 2, 7, iters=10, warmup=0)
        assert (report.name, report.resolution) == (kind, "5x3x2->7")
        assert report.macs == graph_macs(block_graph(kind, 3, 5, 2, 7))
        if macs is not None:
            assert report.macs == macs(3, 5, 2, 7)

    @pytest.mark.parametrize("h, w, cin, cout", [(1, 1, 1, 1), (3, 5, 2, 7), (16, 16, 256, 128)])
    def test_closed_forms(self, h, w, cin, cout):
        assert naive_block_macs(h, w, cin, cout) == (2 * h) * (2 * w) * cout * 25 * cin
        assert fast_block_macs(h, w, cin, cout) == h * w * cout * (9 + 6 + 6 + 4) * cin

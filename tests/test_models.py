import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcnndepth import ops
from fcnndepth.models import (
    DECODERS,
    EVALUATED_PRESETS,
    OPS,
    PRESETS,
    Layer,
    LayerGraph,
    ModelSpec,
    block_graph,
    build_model,
    graph_macs,
    infer,
    preset,
    random_weights,
    required_weights,
    shape_trace,
    with_decoder,
    _Builder,
)
from fcnndepth.tensor import BatchNormParams, ConvKernel, Tensor4
from fcnndepth.upconv import fast_block_macs, naive_block_macs
from fcnndepth.weights_io import WeightContainer, split_container
from helpers import infer_ref


def rand_image(h, w, seed=0, n=1):
    rng = np.random.default_rng(seed)
    return Tensor4(rng.random((n, h, w, 3)).astype(np.float32))


class TestModelSpec:
    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="encoder"):
            ModelSpec("huge", "deconv", "none")
        with pytest.raises(ValueError, match="decoder"):
            ModelSpec("basic", "bilinear", "none")
        with pytest.raises(ValueError, match="skip"):
            ModelSpec("basic", "deconv", "dense")

    def test_rejects_indivisible_resolution(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec("basic", "deconv", "none", input_h=100, input_w=640)

    def test_rejects_bad_width_div(self):
        with pytest.raises(ValueError, match="width_div"):
            ModelSpec("basic", "deconv", "none", width_div=7)

    def test_evaluated_presets_are_the_six_without_fast_aliases(self):
        assert EVALUATED_PRESETS == (
            "basic-deconv", "basic-sc-deconv", "basic-sc-nonbt",
            "lite-sc-nonbt", "basic-sc-upconv", "lite-upconv",
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            preset("basic-bilinear")


class TestShapeContracts:
    def test_basic_bottleneck_full_width(self):
        graph = build_model(preset("basic-deconv"))
        shapes = dict(shape_trace(graph))
        assert shapes[graph.bottleneck] == (1, 15, 20, 2048)

    def test_lite_bottleneck_full_width(self):
        graph = build_model(preset("lite-upconv"))
        shapes = dict(shape_trace(graph))
        assert shapes[graph.bottleneck] == (1, 30, 40, 1024)

    @pytest.mark.parametrize("name", EVALUATED_PRESETS)
    @pytest.mark.parametrize("res", [(480, 640), (240, 320)])
    def test_full_resolution_single_channel_output(self, name, res):
        h, w = res
        graph = build_model(preset(name, input_h=h, input_w=w))
        shapes = dict(shape_trace(graph))
        assert shapes[graph.output] == (1, h, w, 1)

    def test_lite_has_one_fewer_upconv_stage(self):
        basic = build_model(preset("basic-sc-upconv"))
        lite = build_model(preset("lite-upconv"))
        count = lambda g: sum(1 for l in g.layers if l.name.endswith(".up5x5"))
        assert count(basic) == 5
        assert count(lite) == 4

    @pytest.mark.parametrize("name", ["basic-sc-upconv", "basic-sc-upconv-fast"])
    def test_skips_project_before_upsampling(self, name):
        # a 1x1 conv commutes with nearest upsampling, so the skip is narrowed first
        skips = [(n, s) for n, s in shape_trace(build_model(preset(name))) if n.startswith("skip.")]
        assert skips == [
            ("skip.b3.proj", (1, 60, 80, 256)),
            ("skip.b3.up0", (1, 120, 160, 256)),
            ("skip.b3.add", (1, 120, 160, 256)),
            ("skip.b5.proj", (1, 120, 160, 1)),
            ("skip.b5.up0", (1, 240, 320, 1)),
            ("skip.b5.up1", (1, 480, 640, 1)),
            ("skip.b5.add", (1, 480, 640, 1)),
        ]

    def test_graph_construction_deterministic(self):
        a = build_model(preset("basic-sc-nonbt", width_div=8))
        b = build_model(preset("basic-sc-nonbt", width_div=8))
        assert [l.name for l in a.layers] == [l.name for l in b.layers]
        assert shape_trace(a) == shape_trace(b)

    def test_trace_is_total(self):
        graph = build_model(preset("basic-sc-deconv", width_div=8))
        assert len(shape_trace(graph)) == len(graph.layers)
        assert all(len(s) == 4 for _, s in shape_trace(graph))


@pytest.fixture(scope="module")
def small_graph():
    # 64x64 keeps full pipelines fast while exercising every layer kind
    return build_model(preset("basic-sc-upconv", input_h=64, input_w=64, width_div=8))


class TestInfer:
    def test_output_shape_and_determinism(self, small_graph):
        weights = random_weights(small_graph, seed=1)
        image = rand_image(64, 64)
        a = infer(small_graph, weights, image)
        b = infer(small_graph, weights, image)
        assert a.shape == (1, 64, 64, 1)
        assert np.array_equal(a.data, b.data)

    def test_zero_weights_give_constant_output(self):
        for name in EVALUATED_PRESETS:
            graph = build_model(preset(name, input_h=64, input_w=64, width_div=8))
            weights = random_weights(graph, seed=2)
            zeroed = WeightContainer(
                {
                    k: type(v)(np.zeros_like(v.weights)) if hasattr(v, "weights") else v
                    for k, v in weights.entries.items()
                }
            )
            out = infer(graph, zeroed, rand_image(64, 64, seed=3))
            assert np.unique(out.data).size == 1, name

    def test_missing_weight_names_layer(self, small_graph):
        weights = random_weights(small_graph, seed=4)
        victim = "dec.b2.up5x5"
        assert victim in weights.entries
        del weights.entries[victim]
        message = f"layer '{victim}': missing weight entry (1 missing in total)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            infer(small_graph, weights, rand_image(64, 64))

    def test_mismatched_kernel_names_layer(self, small_graph):
        weights = random_weights(small_graph, seed=5)
        other = random_weights(
            build_model(preset("basic-sc-upconv", input_h=64, input_w=64, width_div=4)),
            seed=5,
        )
        weights.entries["enc.stem.conv"] = other.entries["enc.stem.conv"]
        with pytest.raises(ValueError, match="enc.stem.conv"):
            infer(small_graph, weights, rand_image(64, 64))

    def test_wrong_image_shape_rejected(self, small_graph):
        weights = random_weights(small_graph, seed=6)
        with pytest.raises(ValueError, match="image shape"):
            infer(small_graph, weights, rand_image(32, 64))

    def test_tampered_out_shape_names_layer(self, small_graph):
        weights = random_weights(small_graph, seed=7)
        layers = list(small_graph.layers)
        i = next(i for i, l in enumerate(layers) if l.name == "enc.s2.b1.relu1")
        n, h, w, c = layers[i].out_shape
        layers[i] = replace(layers[i], out_shape=(n, h, w, c + 1))
        tampered = replace(small_graph, layers=tuple(layers))
        with pytest.raises(ValueError, match=r"'enc\.s2\.b1\.relu1': produced shape"):
            infer(tampered, weights, rand_image(64, 64))

    def test_op_error_names_layer(self):
        # shape rules check nothing: the op rejects its operands at infer time
        pool = Layer("pool", "maxpool2", ("image",), (1, 1, 1, 1))
        graph = LayerGraph((1, 3, 3, 1), (pool,), output="pool", bottleneck="image")
        message = "layer 'pool': maxpool2 requires even spatial dims, got 3x3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            infer(graph, WeightContainer({}), Tensor4.zeros(1, 3, 3, 1))

    @pytest.mark.parametrize("victim,donor", [
        ("dec.b2.up5x5", "dec.b2.bn"),
        ("dec.b2.bn", "dec.b2.up5x5"),
    ])
    def test_wrong_weight_type_names_layer(self, small_graph, victim, donor):
        weights = random_weights(small_graph, seed=7)
        weights.entries[victim] = weights.entries[donor]
        with pytest.raises(ValueError, match=rf"'{victim}': weight entry is"):
            infer(small_graph, weights, rand_image(64, 64))

    def test_batched_inference(self, small_graph):
        weights = random_weights(small_graph, seed=8)
        batch = rand_image(64, 64, seed=9, n=2)
        out = infer(small_graph, weights, batch)
        assert out.shape == (2, 64, 64, 1)
        single = infer(small_graph, weights, Tensor4(batch.data[:1]))
        assert np.allclose(out.data[0], single.data[0], atol=1e-6)

    def test_required_weights_covered_by_random_weights(self):
        for name in PRESETS:
            graph = build_model(preset(name, input_h=64, input_w=64, width_div=16))
            weights = random_weights(graph, seed=0)
            assert list(required_weights(graph)) == weights.names()


@pytest.fixture(scope="module")
def lite_fast():
    graph = build_model(preset("lite-upconv-fast", input_h=64, input_w=64, width_div=8))
    return graph, random_weights(graph, seed=21)


@pytest.fixture(scope="module")
def basic_deconv():
    graph = build_model(preset("basic-deconv", input_h=64, input_w=64, width_div=8))
    return graph, random_weights(graph, seed=24)


def count_convs(monkeypatch) -> list:
    """Patch ops.conv2d_padded and ops.deconv2d, which every conv and deconv layer calls,
    to log their calls (the OPS rows look both up when called)."""
    calls = []
    for name in ("conv2d_padded", "deconv2d"):
        real = getattr(ops, name)
        monkeypatch.setattr(ops, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    return calls


def bn_arrays(entry: BatchNormParams):
    return entry.mean, entry.variance, entry.gamma, entry.beta


def as_float64(entry):
    if isinstance(entry, ConvKernel):
        return ConvKernel(entry.weights.astype(np.float64))
    return BatchNormParams(*(a.astype(np.float64) for a in bn_arrays(entry)), entry.eps)


def widened(entry, axis=3):
    """The entry with one more kernel row/column/channel along `axis`, or one more bn channel."""
    if isinstance(entry, ConvKernel):
        w = entry.weights
        return ConvKernel(np.concatenate([w, w.take([0], axis=axis)], axis=axis))
    return BatchNormParams(*(np.append(a, a[:1]) for a in bn_arrays(entry)), entry.eps)


def signature(entry):
    return type(entry), entry.weights.shape if isinstance(entry, ConvKernel) else entry.channels


class TestWeightCheck:
    """infer checks the whole container and the image before the first layer runs."""

    @pytest.mark.parametrize("victim, corrupt, message", [
        ("dec.b4.k22", None, "missing weight entry (1 missing in total)"),
        ("dec.b4.bn", widened, "batch norm has 2 channels, layer needs 1"),
        ("dec.b4.bn", as_float64, "weights mix dtypes [float32, float64]"),
        ("dec.b3.deconv", as_float64, "weights mix dtypes [float32, float64]"),
    ])
    def test_bad_container_raises_before_any_conv(self, lite_fast, basic_deconv, monkeypatch,
                                                  victim, corrupt, message):
        # a deconv victim is basic-deconv's layer, the others lite-upconv-fast's
        graph, good = basic_deconv if victim.endswith(".deconv") else lite_fast
        entries = dict(good.entries)
        if corrupt is None:
            del entries[victim]
        else:
            entries[victim] = corrupt(entries[victim])
        calls = count_convs(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"layer '{victim}': {message}")):
            infer(graph, WeightContainer(entries), rand_image(64, 64))
        assert calls == []
        infer(graph, good, rand_image(64, 64))
        assert len(calls) == sum(layer.kind in ("conv", "deconv") for layer in graph.layers)

    def test_float64_image_computes_in_weights_dtype(self, lite_fast):
        graph, weights = lite_fast
        image = rand_image(64, 64, seed=22)
        out32 = infer(graph, weights, image)
        out64 = infer(graph, weights, image.astype(np.float64))
        assert out32.dtype == out64.dtype == np.float32
        assert np.array_equal(out64.data, out32.data)

    def test_float64_weights_compute_in_float64(self, lite_fast):
        graph, weights = lite_fast
        weights64 = WeightContainer({k: as_float64(e) for k, e in weights.entries.items()})
        image = rand_image(64, 64, seed=23)
        out = infer(graph, weights64, image)
        assert out.dtype == np.float64
        assert np.array_equal(out.data, infer(graph, weights64, image.astype(np.float64)).data)

    def test_non_finite_pixels_raise_before_any_conv(self, lite_fast, monkeypatch):
        graph, weights = lite_fast
        data = rand_image(64, 64).data.copy()
        data[0, 5, 7, 1] = np.nan
        data[0, 63, 0, 2] = -np.inf
        calls = count_convs(monkeypatch)
        with pytest.raises(ValueError, match="image has 2 non-finite values"):
            infer(graph, weights, Tensor4(data))
        assert calls == []

    @settings(derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_single_corruption_names_a_layer_before_any_conv(self, lite_fast, data):
        graph, good = lite_fast
        names = good.names()
        victim = data.draw(st.sampled_from(names), label="victim")
        how = data.draw(st.sampled_from(["drop", "swap", "reshape", "float64"]), label="how")
        entries = dict(good.entries)
        if how == "drop":
            del entries[victim]
        elif how == "swap":
            donors = [n for n in names if signature(good[n]) != signature(good[victim])]
            entries[victim] = good[data.draw(st.sampled_from(donors), label="donor")]
        elif how == "reshape":
            entries[victim] = widened(good[victim], data.draw(st.integers(0, 3), label="axis"))
        else:
            entries[victim] = as_float64(good[victim])
        with pytest.MonkeyPatch.context() as mp:  # hypothesis rejects function-scoped fixtures
            calls = count_convs(mp)
            with pytest.raises(ValueError) as err:
                infer(graph, WeightContainer(entries), rand_image(64, 64))
        named = re.match(r"layer '([^']+)': ", str(err.value))
        assert named and named.group(1) in names, str(err.value)
        assert calls == []


class TestNaiveFastEquivalence:
    @pytest.mark.parametrize("name", ["lite-upconv", "basic-sc-upconv"])
    def test_transferred_weights_match_end_to_end(self, name):
        spec = preset(name, input_h=64, input_w=96, width_div=8)
        g_naive = build_model(spec)
        g_fast = build_model(with_decoder(spec, "upconv_fast"))
        weights = random_weights(g_naive, seed=10)
        image = rand_image(64, 96, seed=11)
        out_naive = infer(g_naive, weights, image)
        out_fast = infer(g_fast, split_container(weights), image)
        assert np.max(np.abs(out_naive.data - out_fast.data)) <= 1e-4


class TestBlockGraph:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_is_the_presets_first_decoder_block(self, decoder):
        # the first decoder block of a preset, at its bottleneck shape, is
        # block_graph's block layer for layer: names, kinds, attributes,
        # shapes and wiring (with the bottleneck as the block's "image")
        name = next(n for n, (_, d, _) in PRESETS.items() if d == decoder)
        graph = build_model(preset(name, input_h=64, input_w=96, width_div=8))
        first = [layer for layer in graph.layers if layer.name.startswith("dec.b1.")]
        _, h, w, cin = dict(shape_trace(graph))[graph.bottleneck]
        cout = first[-1].out_shape[3]
        block = block_graph(decoder, h, w, cin, cout)
        rename = {graph.bottleneck: "image"}
        assert [(l.name, l.kind, l.attrs, l.out_shape, tuple(rename.get(i, i) for i in l.inputs))
                for l in first] == [
            (l.name, l.kind, l.attrs, l.out_shape, l.inputs) for l in block.layers]
        assert block.input_shape == (1, h, w, cin)
        assert block.output == first[-1].name

    def test_unknown_decoder_rejected(self):
        with pytest.raises(ValueError, match="decoder"):
            block_graph("bilinear", 4, 4, 2, 2)

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("sizes", [(0, 4, 3, 3), (4, 0, 3, 3), (4, 4, 0, 3), (4, 4, 3, 0)])
    def test_sizes_below_one_rejected(self, decoder, sizes):
        h, w, cin, cout = sizes
        message = f"block sizes must be >= 1, got h={h}, w={w}, cin={cin}, cout={cout}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            block_graph(decoder, *sizes)

    def test_wrong_input_channels_rejected(self):
        graph = block_graph("upconv_fast", 4, 5, 3, 2)
        weights = random_weights(graph, seed=0)
        with pytest.raises(ValueError, match=re.escape("does not match expected (N, 4, 5, 3)")):
            infer(graph, weights, Tensor4.zeros(1, 4, 5, 2))


class TestBuilder:
    # layer names are the weight keys: a repeated name would share one entry
    def test_duplicate_name_rejected(self):
        b = _Builder((1, 4, 4, 2))
        b.add("relu", "act", ("image",))
        with pytest.raises(ValueError, match="^duplicate layer name 'act'$"):
            b.add("relu", "act", ("image",))

    def test_unknown_input_rejected(self):
        b = _Builder((1, 4, 4, 2))
        with pytest.raises(ValueError, match="^layer 'act' references unknown input 'stem'$"):
            b.add("relu", "act", ("stem",))


class TestOddResolutionLadder:
    def test_240_height_uses_crop_stage(self):
        # 240/32 is not integral: the encoder rounds 15 -> 8 and the decoder
        # crops 16 -> 15 at its first stage.
        graph = build_model(preset("basic-deconv", input_h=240, input_w=320, width_div=8))
        shapes = dict(shape_trace(graph))
        assert shapes[graph.bottleneck][1:3] == (8, 10)
        crops = [l for l in graph.layers if l.kind == "crop"]
        assert [c.name for c in crops] == ["dec.b1.crop"]
        assert shapes["dec.b1.crop"][1:3] == (15, 20)
        assert shapes[graph.output] == (1, 240, 320, 1)

    def test_divisible_by_32_needs_no_crop(self):
        graph = build_model(preset("basic-deconv", input_h=64, input_w=128, width_div=8))
        assert not any(l.kind == "crop" for l in graph.layers)

    def test_inference_through_crop(self):
        graph = build_model(preset("basic-deconv", input_h=48, input_w=96, width_div=16))
        shapes = dict(shape_trace(graph))
        assert any(l.kind == "crop" for l in graph.layers)
        weights = random_weights(graph, seed=12)
        out = infer(graph, weights, rand_image(48, 96, seed=13))
        assert out.shape == (1, 48, 96, 1)


class TestOpTable:
    def test_every_kind_is_used_and_defined(self):
        used = {
            layer.kind
            for name in PRESETS
            for layer in build_model(preset(name, input_h=48, input_w=64, width_div=8)).layers
        }
        assert used == set(OPS)

    @pytest.mark.parametrize("res", [(64, 64), (48, 96)])
    def test_upconv_mac_saving_matches_block_formulas(self, res):
        h, w = res
        spec = preset("lite-upconv", input_h=h, input_w=w, width_div=8)
        naive = build_model(spec)
        fast = build_model(with_decoder(spec, "upconv_fast"))
        shapes = dict(shape_trace(naive))
        saving = 0
        for layer in naive.layers:
            if layer.kind == "unpool_zero2":
                _, bh, bw, cin = shapes[layer.inputs[0]]
                cout = shapes[layer.name.replace(".unpool", ".up5x5")][3]
                saving += naive_block_macs(bh, bw, cin, cout) - fast_block_macs(bh, bw, cin, cout)
        assert saving > 0
        assert graph_macs(naive) - graph_macs(fast) == saving

    def test_deconv_macs_count_input_pixels(self):
        # scatter form: each input pixel meets every kh*kw*cin*cout weight once
        graph = build_model(preset("basic-deconv", input_h=48, input_w=64, width_div=8))
        shapes = dict(shape_trace(graph))
        deconvs = [l for l in graph.layers if l.kind == "deconv"]
        expected = sum(
            shapes[l.inputs[0]][1] * shapes[l.inputs[0]][2] * 25 * l.attrs["cin"] * l.attrs["cout"]
            for l in deconvs
        )
        assert len(deconvs) == 5
        assert sum(OPS["deconv"].macs(l) for l in deconvs) == expected

    def test_crop_returns_a_view(self):
        x = rand_image(6, 7)
        out = OPS["crop"].run({"target_h": 4, "target_w": 5}, [x], None)
        assert np.shares_memory(out.data, x.data)
        assert np.array_equal(out.data, x.data[:, :4, :5])

    def test_random_weights_peak_memory_near_weight_bytes(self):
        graph = build_model(preset("lite-upconv", input_h=64, input_w=64, width_div=4))
        tracemalloc.start()
        try:
            weights = random_weights(graph, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total = sum(
            sum(a.nbytes for a in vars(e).values() if isinstance(a, np.ndarray))
            for e in weights.entries.values()
        )
        assert peak < 1.3 * total


def weight_arrays(weights):
    return [a for e in weights.entries.values() for a in vars(e).values()
            if isinstance(a, np.ndarray)]


class TestInPlaceOracle:
    """infer writes bn, relu and add into dead inputs; a pure layer-by-layer run must agree."""

    @staticmethod
    def check(graph, weights, image):
        image_before = image.data.copy()
        weights_before = [a.copy() for a in weight_arrays(weights)]
        out = infer(graph, weights, image)
        ref = infer_ref(graph, weights, image)
        assert out.dtype == ref.dtype
        assert out.data.tobytes() == ref.data.tobytes()
        assert infer(graph, weights, image).data.tobytes() == out.data.tobytes()
        assert np.array_equal(image.data, image_before)
        assert all(np.array_equal(a, b) for a, b in zip(weight_arrays(weights), weights_before))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h,w,div", [(64, 64, 8), (48, 96, 16)])
    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_matches_pure_reference(self, name, h, w, div, dtype):
        graph = build_model(preset(name, input_h=h, input_w=w, width_div=div))
        image = Tensor4(rand_image(h, w, seed=21).data.astype(dtype))
        self.check(graph, random_weights(graph, seed=22, dtype=dtype), image)

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_block_matches_pure_reference(self, decoder):
        graph = block_graph(decoder, 6, 8, 8, 4)
        image = Tensor4(np.random.default_rng(23).standard_normal((1, 6, 8, 8), np.float32))
        self.check(graph, random_weights(graph, seed=24), image)

    def test_overwrites_only_dead_inputs(self):
        # Each in-place layer here has a first input that must survive it:
        # "image" is the caller's, "a" feeds the add after "b", and the output
        # "c" feeds "d". Preset graphs never have one: their in-place layers
        # all follow a layer whose output has no other use.
        shape = (1, 4, 4, 2)
        image = Tensor4(np.random.default_rng(25).standard_normal(shape, np.float32))
        layers = (Layer("a", "relu", ("image",), shape),
                  Layer("b", "bn", ("a",), shape),
                  Layer("c", "add", ("a", "b"), shape),
                  Layer("d", "relu", ("c",), shape))
        graph = LayerGraph(shape, layers, output="c", bottleneck="image")
        bn = BatchNormParams(*(np.array(v, np.float32) for v in ([0.5, 1], [1, 2], [1, 2], [-1, 0])))
        self.check(graph, WeightContainer({"b": bn}), image)
        assert infer(graph, WeightContainer({"b": bn}), image).data.min() < 0

    def test_crop_sources_die_at_the_crop(self):
        # crops make the only views in infer, so a dead input's buffer is no live one's
        crops = 0
        for name in PRESETS:
            graph = build_model(preset(name, input_h=48, input_w=96, width_div=16))
            last_use = {src: i for i, layer in enumerate(graph.layers) for src in layer.inputs}
            for i, layer in enumerate(graph.layers):
                if layer.kind == "crop":
                    crops += 1
                    assert layer.inputs[0] != "image" and last_use[layer.inputs[0]] == i
        assert crops


# tracemalloc peaks of infer at 480x640, width /8, random_weights seed 0, when
# these bounds were set. The stem's 7x7/2 window matrix (240 * 320 rows of
# 147 float32 values, about 45 MB) sets the 51.4 MB peak of all eight
# presets. The nonbt presets' last conv31 on the upsampled grid comes next
# at 39.4 MB: its input, its output and one tap's product. It set their
# 59.1 MB peak while stride-1 convs padded a copy of their input. The window
# matrix is the same at any width, so the bounds are absolute, not relative
# to the graph's largest activation.
INFER_PEAK_MB = {
    "basic-deconv": 51.4, "basic-sc-deconv": 51.4, "lite-upconv": 51.4, "lite-upconv-fast": 51.4,
    "basic-sc-nonbt": 51.4, "lite-sc-nonbt": 51.4,
    "basic-sc-upconv": 51.4, "basic-sc-upconv-fast": 51.4,
}


@pytest.mark.parametrize("name", PRESETS)
def test_infer_peak_memory_at_640x480(name):
    graph = build_model(preset(name, input_h=480, input_w=640, width_div=8))
    weights = random_weights(graph, seed=0)
    image = rand_image(480, 640)
    tracemalloc.start()
    try:
        infer(graph, weights, image)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * INFER_PEAK_MB[name] * 1e6, peak

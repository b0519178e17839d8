import re
import struct
import tracemalloc

import numpy as np
import pytest

from fcnndepth.models import build_model, preset, random_weights, required_weights
from fcnndepth.ops import BRANCHES
from fcnndepth.tensor import BatchNormParams, ConvKernel
from fcnndepth.weights_io import (
    WeightContainer,
    WeightFormatError,
    load_weights,
    save_weights,
    split_container,
)
from helpers import mutations


@pytest.fixture
def container():
    rng = np.random.default_rng(0)
    return WeightContainer(
        {
            "stem.conv": ConvKernel(
                rng.standard_normal((3, 3, 3, 8)).astype(np.float32),
                rng.standard_normal(8).astype(np.float32),
            ),
            "stem.bn": BatchNormParams(
                rng.standard_normal(8).astype(np.float32),
                rng.uniform(0.5, 1.5, 8).astype(np.float32),
                rng.standard_normal(8).astype(np.float32),
                rng.standard_normal(8).astype(np.float32),
                eps=float(np.float32(1e-5)),
            ),
            "head.conv": ConvKernel(rng.standard_normal((1, 1, 8, 1)).astype(np.float32)),
        }
    )


def assert_containers_equal(a: WeightContainer, b: WeightContainer):
    assert a.names() == b.names()
    for name in a.names():
        ea, eb = a[name], b[name]
        assert type(ea) is type(eb)
        if isinstance(ea, ConvKernel):
            assert np.array_equal(ea.weights, eb.weights)
            assert (ea.bias is None) == (eb.bias is None)
            if ea.bias is not None:
                assert np.array_equal(ea.bias, eb.bias)
        else:
            for field in ("mean", "variance", "gamma", "beta"):
                assert np.array_equal(getattr(ea, field), getattr(eb, field))
            assert ea.eps == eb.eps


class TestRoundTrip:
    def test_save_load_identity(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        save_weights(container, path)
        assert_containers_equal(container, load_weights(path))

    def test_save_load_save_byte_identical(self, container, tmp_path):
        p1, p2 = tmp_path / "a.fcnw", tmp_path / "b.fcnw"
        save_weights(container, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        save_weights(container, path)
        blob = path.read_bytes()
        assert blob[:4] == b"FCNW"
        assert blob[4] == 1

    def test_preset_graph_round_trip_and_coverage(self, tmp_path):
        graph = build_model(preset("lite-upconv", input_h=64, input_w=64, width_div=16))
        weights = random_weights(graph, seed=1)
        path = tmp_path / "model.fcnw"
        save_weights(weights, path)
        loaded = load_weights(path)
        assert_containers_equal(weights, loaded)
        assert list(required_weights(graph)) == loaded.names()

    def test_save_peak_memory_well_under_weight_bytes(self, tmp_path):
        # records go to the file one at a time, each array from its own buffer
        graph = build_model(preset("lite-upconv", input_h=240, input_w=320, width_div=4))
        weights = random_weights(graph, seed=5)
        weight_bytes = sum(
            e.weights.nbytes if isinstance(e, ConvKernel) else 4 * e.mean.nbytes
            for e in weights.entries.values()
        )
        tracemalloc.start()
        try:
            save_weights(weights, tmp_path / "w.fcnw")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * weight_bytes, (peak, weight_bytes)

    def test_load_peak_memory_near_weight_bytes(self, tmp_path):
        # each record's floats are read straight into their array
        graph = build_model(preset("lite-upconv", input_h=240, input_w=320, width_div=4))
        weights = random_weights(graph, seed=5)
        weight_bytes = sum(
            e.weights.nbytes if isinstance(e, ConvKernel) else 4 * e.mean.nbytes
            for e in weights.entries.values()
        )
        path = tmp_path / "w.fcnw"
        save_weights(weights, path)
        del weights
        tracemalloc.start()
        try:
            loaded = load_weights(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) > 0
        assert peak < 1.3 * weight_bytes, (peak, weight_bytes)

    def test_unsavable_container_leaves_file_untouched(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        path.write_bytes(b"previous contents")
        bad_type = WeightContainer({**container.entries, "z": np.zeros(3)})
        long_name = WeightContainer({**container.entries, "n" * 0x10000: container["head.conv"]})
        # float64 entries would load back as float32, so no round trip would be exact
        bn = container["stem.bn"]
        kernel64 = WeightContainer({**container.entries, "head.conv": ConvKernel(
            container["head.conv"].weights.astype(np.float64))})
        bn64 = WeightContainer({**container.entries, "stem.bn": BatchNormParams(
            *(a.astype(np.float64) for a in (bn.mean, bn.variance, bn.gamma, bn.beta)), bn.eps)})
        for bad, match in ((bad_type, "unsupported type"), (long_name, "too long"),
                           (kernel64, "'head.conv' is float64"), (bn64, "'stem.bn' is float64")):
            with pytest.raises(WeightFormatError, match=match):
                save_weights(bad, path)
            assert path.read_bytes() == b"previous contents"


class TestFormatErrors:
    def test_bad_magic(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        save_weights(container, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(path)

    def test_bad_version(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        save_weights(container, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="version"):
            load_weights(path)

    def test_truncation(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        save_weights(container, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(path)

    def test_duplicate_names(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        save_weights(container, path)
        blob = path.read_bytes()
        # duplicate every record after the 5-byte header
        path.write_bytes(blob + blob[5:])
        with pytest.raises(WeightFormatError, match="duplicate"):
            load_weights(path)

    def test_orphan_bias_record(self, tmp_path):
        c = WeightContainer(
            {"lonely.bias": ConvKernel(np.zeros((1, 1, 1, 1), dtype=np.float32))}
        )
        # a rank-4 kernel named *.bias is fine; a rank-1 one without a parent is not
        rogue = WeightContainer(
            {"x": ConvKernel(np.zeros((1, 1, 1, 2), dtype=np.float32),
                             np.zeros(2, dtype=np.float32))}
        )
        path = tmp_path / "w.fcnw"
        save_weights(rogue, path)
        blob = path.read_bytes()
        # strip the kernel record, keep header + bias record only
        name_len = int.from_bytes(blob[5:7], "little")
        kernel_rec_len = 2 + name_len + 2 + 16 + 4 * 2
        path.write_bytes(blob[:5] + blob[5 + kernel_rec_len :])
        with pytest.raises(WeightFormatError, match="bias"):
            load_weights(path)
        del c

    def test_second_bias_record_rejected(self, tmp_path):
        kernel = ConvKernel(np.zeros((1, 1, 1, 2), dtype=np.float32),
                            np.array([1.0, 2.0], dtype=np.float32))
        path = tmp_path / "w.fcnw"
        save_weights(WeightContainer({"a": kernel}), path)
        blob = path.read_bytes()
        # a second "a.bias" record, holding [7, 8]
        extra = struct.pack("<H6sBBI", 6, b"a.bias", 0, 1, 2) + np.array([7, 8], "<f4").tobytes()
        path.write_bytes(blob + extra)
        message = f"record at byte offset {len(blob)}: duplicate bias record 'a.bias'"
        with pytest.raises(WeightFormatError, match=f"^{re.escape(message)}$"):
            load_weights(path)

    def test_bad_tensor_values_name_record_offset(self, container, tmp_path):
        path = tmp_path / "w.fcnw"
        save_weights(WeightContainer({"bn": container["stem.bn"]}), path)
        blob = bytearray(path.read_bytes())
        # the variance row follows magic, version, u16 length, "bn", kind,
        # rank, dims (5, 8) and the 8 means
        var0 = 5 + 2 + 2 + 2 + 8 + 4 * 8
        blob[var0 : var0 + 4] = np.float32(-1.0).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="offset 5: variance"):
            load_weights(path)

    def test_non_finite_batch_norm_names_record_offset(self, container, tmp_path):
        head = WeightContainer({"head.conv": container["head.conv"]})
        path = tmp_path / "w.fcnw"
        save_weights(head, path)
        offset = path.stat().st_size  # the bn record follows the kernel record
        save_weights(WeightContainer({**head.entries, "bn": container["stem.bn"]}), path)
        blob = bytearray(path.read_bytes())
        # variance[1] follows the bn record's u16 length, "bn", kind, rank,
        # dims (5, 8), the 8 means and variance[0]
        pos = offset + 2 + 2 + 2 + 8 + 4 * 8 + 4
        blob[pos : pos + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError,
                           match=f"record at byte offset {offset}: variance has non-finite"):
            load_weights(path)

    @pytest.mark.parametrize("replica", [np.nan, 0.5])
    def test_eps_row_of_two_values_names_record_offset(self, container, tmp_path, replica):
        # an eps row stores one value replicated; a NaN or a differing finite
        # replica is a malformed record, not a value to ignore
        head = WeightContainer({"head.conv": container["head.conv"]})
        path = tmp_path / "w.fcnw"
        save_weights(head, path)
        offset = path.stat().st_size  # the bn record follows the kernel record
        save_weights(WeightContainer({**head.entries, "bn": container["stem.bn"]}), path)
        blob = bytearray(path.read_bytes())
        # eps[2] follows the bn record's u16 length, "bn", kind, rank, dims
        # (5, 8), the four rows of 8 and eps[0], eps[1]
        pos = offset + 2 + 2 + 2 + 8 + 4 * 8 * 4 + 4 * 2
        blob[pos : pos + 4] = np.float32(replica).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match=(
                f"record at byte offset {offset}: batch-norm record 'bn': "
                f"eps row holds {replica} at channel 2")):
            load_weights(path)

    def test_mutated_files_raise_only_format_errors(self, tmp_path):
        # seeded truncations, byte overwrites and random tails of a small
        # preset file: each either loads or raises WeightFormatError whose
        # message locates the fault
        graph = build_model(preset("lite-upconv", input_h=32, input_w=32, width_div=64))
        path = tmp_path / "w.fcnw"
        save_weights(random_weights(graph, seed=6), path)
        good = path.read_bytes()
        escaped, unlocated = [], []
        for seed, blob in mutations(good):
            path.write_bytes(blob)
            try:
                load_weights(path)
            except WeightFormatError as err:
                if not re.search("offset|magic|version", str(err)):
                    unlocated.append((seed, str(err)))
            except Exception as err:  # any other type escaping is the failure under test
                escaped.append((seed, repr(err)))
        assert escaped == [] and unlocated == []


class TestSplitContainer:
    def test_splits_upconv_entries(self, tmp_path):
        graph = build_model(preset("lite-upconv", input_h=64, input_w=64, width_div=16))
        weights = random_weights(graph, seed=2)
        fast = split_container(weights)
        for name in weights.names():
            if name.endswith(".up5x5"):
                base = name[: -len(".up5x5")]
                assert f"{base}.k33" in fast
                assert name not in fast
            else:
                assert name in fast

    def test_weight_multiset_preserved(self):
        graph = build_model(preset("lite-upconv", input_h=64, input_w=64, width_div=16))
        weights = random_weights(graph, seed=3)
        fast = split_container(weights)
        for name, entry in weights.entries.items():
            if not name.endswith(".up5x5"):
                continue
            base = name[: -len(".up5x5")]
            parts = np.concatenate(
                [fast[f"{base}.{k}"].weights.ravel() for k in ("k33", "k32", "k23", "k22")]
            )
            assert np.array_equal(np.sort(parts), np.sort(entry.weights.ravel()))

    def test_sub_kernels_are_views_of_the_naive_kernel(self):
        graph = build_model(preset("lite-upconv", input_h=64, input_w=64, width_div=16))
        weights = random_weights(graph, seed=6)
        fast = split_container(weights)
        naive = [name for name in weights.names() if name.endswith(".up5x5")]
        assert naive
        for name in naive:
            kernel, base = weights[name].weights, name[: -len(".up5x5")]
            for key, (r, c, _, _) in BRANCHES.items():
                sub = fast[f"{base}.{key}"].weights
                assert np.shares_memory(sub, kernel)
                assert np.array_equal(sub, kernel[r::2, c::2])

    def test_split_peak_memory_is_far_below_kernel_bytes(self):
        # the sub-kernels are views, so splitting allocates only the new entries
        graph = build_model(preset("lite-upconv", input_h=240, input_w=320, width_div=4))
        weights = random_weights(graph, seed=0)
        kernel_bytes = sum(e.weights.nbytes for e in weights.entries.values()
                           if isinstance(e, ConvKernel))
        tracemalloc.start()
        try:
            split_container(weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * kernel_bytes, (peak, kernel_bytes)

    def test_converting_fast_container_fails(self):
        graph = build_model(preset("lite-upconv-fast", input_h=64, input_w=64, width_div=16))
        fast_weights = random_weights(graph, seed=4)
        with pytest.raises(WeightFormatError, match="no naive"):
            split_container(fast_weights)

    def test_kernel_without_its_batch_norm_fails(self):
        kernel = ConvKernel(np.zeros((5, 5, 2, 3), dtype=np.float32))
        with pytest.raises(WeightFormatError, match="no batch-norm entry found for 'dec.b1.up5x5'"):
            split_container(WeightContainer({"dec.b1.up5x5": kernel}))

import struct
import tracemalloc

import numpy as np
import pytest

from fcnndepth.fileio import (
    FileFormatError,
    image_to_tensor,
    read_depth_raster,
    read_ppm,
    write_depth_raster,
    write_ppm,
)
from helpers import mutations


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, rgb)
        assert np.array_equal(read_ppm(path), rgb)

    def test_header_format(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_comments_tolerated(self, tmp_path):
        path = tmp_path / "img.ppm"
        pixels = bytes(range(2 * 1 * 3))
        path.write_bytes(b"P6\n# a comment\n 1\t2\n255\n" + pixels)
        img = read_ppm(path)
        assert img.shape == (2, 1, 3)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FileFormatError, match="P6"):
            read_ppm(path)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
        with pytest.raises(FileFormatError, match="truncated"):
            read_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
        with pytest.raises(FileFormatError, match="maxval"):
            read_ppm(path)

    def test_header_without_closing_whitespace_rejected_briefly(self, tmp_path):
        # the raster runs straight on from maxval: the error quotes the
        # header's start, not the 921,600 raster bytes
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n640 480 255" + b"\x80" * (640 * 480 * 3))
        with pytest.raises(FileFormatError, match="P6") as err:
            read_ppm(path)
        assert len(str(err.value)) < len(str(path)) + 100

    # "P64 4 255" is not "P6" then width 4; a 5000-digit width is no header
    @pytest.mark.parametrize("header", [b"P64 4 255\n", b"P6 " + b"4" * 5000 + b" 4 255\n"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "img.ppm"
        path.write_bytes(header + bytes(48))
        with pytest.raises(FileFormatError, match="P6"):
            read_ppm(path)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4)])
    def test_write_rejects_non_rgb_shape(self, tmp_path, shape):
        with pytest.raises(FileFormatError, match=r"expected \(h, w, 3\) array"):
            write_ppm(tmp_path / "img.ppm", np.zeros(shape, dtype=np.uint8))

    def test_write_rejects_non_uint8_pixels(self, tmp_path):
        with pytest.raises(FileFormatError, match="expected uint8 pixels, got float32"):
            write_ppm(tmp_path / "img.ppm", np.zeros((2, 3, 3), dtype=np.float32))

    @pytest.mark.parametrize("size", [b"0 5", b"4 0", b"0 0"])
    def test_zero_size_rejected_naming_file(self, tmp_path, size):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n")
        w, h = size.split()
        with pytest.raises(FileFormatError,
                           match=f"{path.name}: empty image, header says {w.decode()}x{h.decode()}"):
            read_ppm(path)

    def test_image_to_tensor_scaling(self):
        rgb = np.array([[[0, 128, 255]]], dtype=np.uint8)
        t = image_to_tensor(rgb)
        assert t.shape == (1, 1, 1, 3)
        assert t.data[0, 0, 0, 2] == pytest.approx(1.0)
        assert t.data[0, 0, 0, 0] == 0.0


class TestDepthRaster:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        depth = rng.uniform(0.2, 9.0, (6, 4)).astype(np.float32)
        path = tmp_path / "d.dpth"
        write_depth_raster(path, depth)
        assert np.array_equal(read_depth_raster(path), depth)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.dpth"
        write_depth_raster(path, np.ones((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == b"DPTH"
        assert blob[4] == 1
        assert int.from_bytes(blob[5:9], "little") == 3  # width
        assert int.from_bytes(blob[9:13], "little") == 2  # height

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="finite"):
            write_depth_raster(tmp_path / "d.dpth", np.array([[np.nan]], dtype=np.float32))

    def test_write_rejects_non_matrix(self, tmp_path):
        with pytest.raises(FileFormatError, match=r"expected \(h, w\) array, got shape \(2, 3, 1\)"):
            write_depth_raster(tmp_path / "d.dpth", np.ones((2, 3, 1), dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_read_rejected_with_position(self, tmp_path, bad):
        path = tmp_path / "d.dpth"
        write_depth_raster(path, np.ones((3, 4), dtype=np.float32))
        blob = bytearray(path.read_bytes())
        for row, col in ((2, 1), (1, 3)):  # row-major: (1, 3) comes first
            offset = 13 + 4 * (row * 4 + col)
            blob[offset:offset + 4] = np.array(bad, dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match=r"non-finite .* \(row, col\) = \(1, 3\)"):
            read_depth_raster(path)

    @pytest.mark.parametrize("w, h", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size_rejected_naming_file(self, tmp_path, w, h):
        path = tmp_path / "d.dpth"
        path.write_bytes(b"DPTH\x01" + struct.pack("<II", w, h))
        with pytest.raises(FileFormatError, match=f"{path.name}: empty raster, header says {w}x{h}"):
            read_depth_raster(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "d.dpth"
        path.write_bytes(b"XXXX" + bytes(9))
        with pytest.raises(FileFormatError, match="magic"):
            read_depth_raster(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.dpth"
        write_depth_raster(path, np.ones((2, 2), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FileFormatError, match="size"):
            read_depth_raster(path)


@pytest.mark.parametrize("op, bound", [("read", 1.5), ("write", 0.5)])
def test_depth_raster_io_holds_one_copy(tmp_path, op, bound):
    # 480x640 float32 values: a read holds its array and the finite mask, a
    # write only the mask, never a bytes copy of the values
    depth = np.random.default_rng(2).uniform(0.5, 9.0, (480, 640)).astype(np.float32)
    path = tmp_path / "d.dpth"
    write_depth_raster(path, depth)
    tracemalloc.start()
    try:
        if op == "read":
            read_depth_raster(path)
        else:
            write_depth_raster(path, depth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * depth.nbytes


@pytest.mark.parametrize("reader", ["ppm", "dpth"])
def test_mutated_files_raise_only_format_errors(tmp_path, reader):
    # each mutated file either reads as a non-empty array or raises
    # FileFormatError; any other outcome is the failure under test
    path = tmp_path / f"f.{reader}"
    rng = np.random.default_rng(11)
    if reader == "ppm":
        write_ppm(path, rng.integers(0, 256, (5, 7, 3), dtype=np.uint8))
        read = read_ppm
    else:
        write_depth_raster(path, rng.uniform(0.5, 9.0, (4, 6)).astype(np.float32))
        read = read_depth_raster
    good = path.read_bytes()
    escaped = []
    for seed, blob in mutations(good):
        path.write_bytes(blob)
        try:
            if read(path).size == 0:
                escaped.append((seed, "empty array"))
        except FileFormatError:
            pass
        except Exception as err:
            escaped.append((seed, repr(err)))
    assert escaped == []

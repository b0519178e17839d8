import numpy as np
import pytest

from fcnndepth.fileio import read_depth_raster, read_ppm
from fcnndepth.synthetic import (
    SCENE_KINDS,
    box_depth,
    generate_corpus,
    generate_scene,
    plane_depth,
    slanted_plane_depth,
)


class TestSceneDepths:
    def test_plane_constant(self):
        depth = plane_depth(8, 6, 2.0)
        assert depth.shape == (6, 8)
        assert np.all(depth == np.float32(2.0))

    def test_slanted_plane_matches_equation(self):
        w, h, z0, gx, gy = 17, 11, 2.5, 0.7, -0.4
        depth = slanted_plane_depth(w, h, z0, gx, gy)
        for y in (0, 5, 10):
            for x in (0, 8, 16):
                expect = z0 + gx * (x / (w - 1) - 0.5) + gy * (y / (h - 1) - 0.5)
                assert abs(float(depth[y, x]) - expect) <= 1e-5

    def test_plane_fit_residual(self):
        # least-squares plane fit over the full raster: residual at float32 noise level
        rng = np.random.default_rng(0)
        _, depth = generate_scene("slant", 32, 24, rng)
        ys, xs = np.mgrid[0:24, 0:32]
        design = np.stack([np.ones(depth.size), xs.ravel(), ys.ravel()], axis=1)
        coef, *_ = np.linalg.lstsq(design, depth.ravel().astype(np.float64), rcond=None)
        residual = np.abs(design @ coef - depth.ravel())
        assert residual.max() <= 1e-5

    def test_box_geometry(self):
        depth = box_depth(10, 8, z_back=4.0, z_front=1.5, x0=2, x1=5, y0=1, y1=4)
        assert depth[0, 0] == np.float32(4.0)
        assert depth[2, 3] == np.float32(1.5)
        assert np.count_nonzero(depth == np.float32(1.5)) == 9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            generate_scene("sphere", 4, 4, np.random.default_rng(0))


class TestCorpus:
    def test_deterministic_bytes(self, tmp_path):
        a = generate_corpus(tmp_path / "a", 6, 16, 12, seed=7)
        b = generate_corpus(tmp_path / "b", 6, 16, 12, seed=7)
        for (ia, da), (ib, db) in zip(a, b):
            assert ia.read_bytes() == ib.read_bytes()
            assert da.read_bytes() == db.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_corpus(tmp_path / "a", 3, 16, 12, seed=1)
        b = generate_corpus(tmp_path / "b", 3, 16, 12, seed=2)
        assert any(da.read_bytes() != db.read_bytes() for (_, da), (_, db) in zip(a, b))

    def test_pairs_readable_and_consistent(self, tmp_path):
        pairs = generate_corpus(tmp_path / "c", len(SCENE_KINDS), 20, 10, seed=3)
        assert len(pairs) == 3
        for img_path, depth_path in pairs:
            img = read_ppm(img_path)
            depth = read_depth_raster(depth_path)
            assert img.shape == (10, 20, 3)
            assert depth.shape == (10, 20)
            assert (depth > 0).all()

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 5), (5, 1)])
    def test_one_pixel_wide_or_high(self, tmp_path, width, height):
        # the third scene is a box: on a 1-pixel side its corner draw had an empty range
        pairs = generate_corpus(tmp_path / "e", 3, width, height, seed=0)
        assert len(pairs) == 3
        for img_path, depth_path in pairs:
            assert read_ppm(img_path).shape == (height, width, 3)
            assert read_depth_raster(depth_path).shape == (height, width)

    def test_fronto_parallel_plane_is_constant(self, tmp_path):
        pairs = generate_corpus(tmp_path / "d", 1, 12, 8, seed=4)
        depth = read_depth_raster(pairs[0][1])
        assert np.unique(depth).size == 1

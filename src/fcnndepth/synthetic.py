"""Synthetic image/depth pair generation for desk-scale evaluation.

Scenes come in three kinds with exactly known depth: a fronto-parallel
plane, a slanted plane (depth affine in the normalized pixel coordinates),
and a box standing in front of a background plane. The RGB image is a
deterministic shading of the depth map, so a fixed seed reproduces the
corpus byte for byte.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .fileio import write_depth_raster, write_ppm

SCENE_KINDS = ("plane", "slant", "box")


def plane_depth(width: int, height: int, z: float) -> np.ndarray:
    """Constant depth everywhere."""
    return np.full((height, width), z, dtype=np.float32)


def slanted_plane_depth(
    width: int, height: int, z0: float, gx: float, gy: float
) -> np.ndarray:
    """Affine depth z0 + gx * (x/(W-1) - 1/2) + gy * (y/(H-1) - 1/2)."""
    xs = np.arange(width, dtype=np.float64) / max(width - 1, 1) - 0.5
    ys = np.arange(height, dtype=np.float64) / max(height - 1, 1) - 0.5
    depth = z0 + gx * xs[None, :] + gy * ys[:, None]
    return np.maximum(depth, 0.3).astype(np.float32)


def box_depth(
    width: int, height: int, z_back: float, z_front: float,
    x0: int, x1: int, y0: int, y1: int,
) -> np.ndarray:
    """Background plane with a nearer rectangle [x0, x1) x [y0, y1)."""
    depth = np.full((height, width), z_back, dtype=np.float32)
    depth[y0:y1, x0:x1] = z_front
    return depth


def _shade(depth: np.ndarray, tint: np.ndarray) -> np.ndarray:
    """Render depth as a tinted intensity image (nearer is brighter)."""
    lo, hi = float(depth.min()), float(depth.max())
    span = (hi - lo) or 1.0
    intensity = 1.0 - (depth.astype(np.float64) - lo) / span
    rgb = intensity[:, :, None] * tint[None, None, :] * 255.0
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def generate_scene(kind: str, width: int, height: int, rng: np.random.Generator):
    """Draw one (image, depth) pair of the given scene kind."""
    if kind == "plane":
        depth = plane_depth(width, height, rng.uniform(1.5, 4.0))
    elif kind == "slant":
        depth = slanted_plane_depth(
            width, height,
            z0=rng.uniform(2.0, 3.5),
            gx=rng.uniform(-1.2, 1.2),
            gy=rng.uniform(-1.2, 1.2),
        )
    elif kind == "box":
        z_back = rng.uniform(3.0, 5.0)
        z_front = rng.uniform(1.0, z_back - 0.5)
        # on a 1-pixel side, width // 2 or height // 2 is 0: an empty range
        x0 = int(rng.integers(0, max(width // 2, 1)))
        y0 = int(rng.integers(0, max(height // 2, 1)))
        x1 = int(rng.integers(x0 + 1, width + 1))
        y1 = int(rng.integers(y0 + 1, height + 1))
        depth = box_depth(width, height, z_back, z_front, x0, x1, y0, y1)
    else:
        raise ValueError(f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")
    tint = rng.uniform(0.4, 1.0, 3)
    return _shade(depth, tint), depth


def generate_corpus(
    out_dir, count: int, width: int, height: int, seed: int = 0
) -> list[tuple[Path, Path]]:
    """Write `count` paired P6 images and depth rasters; returns the path pairs."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        image, depth = generate_scene(SCENE_KINDS[i % 3], width, height, rng)
        img_path = out / f"scene_{i:04d}.ppm"
        depth_path = out / f"scene_{i:04d}.dpth"
        write_ppm(img_path, image)
        write_depth_raster(depth_path, depth)
        pairs.append((img_path, depth_path))
    return pairs

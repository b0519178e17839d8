"""Binary image and depth-raster I/O.

Images are binary P6 portable pixmaps (8-bit RGB, maxval 255). Depth
rasters use a minimal little-endian format:

    magic   4 bytes  "DPTH"
    version 1 byte   0x01
    u32     width
    u32     height
    f32     width * height values, row-major, meters
"""
from __future__ import annotations

import os
import re
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor4

DEPTH_MAGIC = b"DPTH"
DEPTH_VERSION = 1
# "P6", then width, height and maxval, each after whitespace or "#" comments
# running to the end of their line, then the one whitespace byte before the raster;
# at most 9 digits a field, so int() never meets its 4300-digit limit
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


class FileFormatError(ValueError):
    """Raised for malformed image or depth-raster files."""


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as a binary P6 pixmap."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FileFormatError(f"expected (h, w, 3) array, got {arr.shape}")
    if arr.dtype != np.uint8:
        raise FileFormatError(f"expected uint8 pixels, got {arr.dtype}")
    h, w = arr.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 pixmap into a non-empty (h, w, 3) uint8 array."""
    blob = Path(path).read_bytes()
    header = _PPM_HEADER.match(blob)
    if header is None:
        raise FileFormatError(f"{path}: not a binary P6 pixmap (starts {blob[:16]!r})")
    w, h, maxval = map(int, header.groups())
    if w == 0 or h == 0:
        raise FileFormatError(f"{path}: empty image, header says {w}x{h} pixels")
    if maxval != 255:
        raise FileFormatError(f"{path}: only maxval 255 supported, got {maxval}")
    expected = w * h * 3
    pixels = blob[header.end() : header.end() + expected]
    if len(pixels) != expected:
        raise FileFormatError(
            f"{path}: truncated pixel data ({len(pixels)} of {expected} bytes)"
        )
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3).copy()


def image_to_tensor(rgb: np.ndarray) -> Tensor4:
    """Lift an (h, w, 3) uint8 image to a (1, h, w, 3) float tensor in [0, 1]."""
    return Tensor4(rgb[None].astype(np.float32) / np.float32(255.0))


def write_depth_raster(path, depth: np.ndarray) -> None:
    """Write an (h, w) float32 depth map; all values must be finite."""
    arr = np.asarray(depth, dtype=np.float32)
    if arr.ndim != 2:
        raise FileFormatError(f"expected (h, w) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise FileFormatError("depth raster contains non-finite values")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC + bytes([DEPTH_VERSION]) + struct.pack("<II", w, h))
        f.write(np.ascontiguousarray(arr, dtype="<f4").data)


def read_depth_raster(path) -> np.ndarray:
    """Read a depth raster back into a non-empty (h, w) float32 array; all values must be finite."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(13)
        if size < 13:
            raise FileFormatError(f"{path}: too short for a depth raster header")
        if head[:4] != DEPTH_MAGIC:
            raise FileFormatError(f"{path}: bad magic, not a depth raster")
        if head[4] != DEPTH_VERSION:
            raise FileFormatError(f"{path}: unsupported version {head[4]}")
        w, h = struct.unpack("<II", head[5:13])
        if w == 0 or h == 0:
            raise FileFormatError(f"{path}: empty raster, header says {w}x{h} values")
        expected = 13 + 4 * w * h
        if size != expected:
            raise FileFormatError(
                f"{path}: size mismatch ({size} bytes, header implies {expected})"
            )
        depth = np.empty((h, w), dtype="<f4")
        f.readinto(depth)  # straight into the array: a read holds one copy
    depth = depth.astype(np.float32, copy=False)  # native byte order
    if not np.isfinite(depth).all():
        row, col = np.argwhere(~np.isfinite(depth))[0]
        raise FileFormatError(
            f"{path}: non-finite value {depth[row, col]} at (row, col) = ({row}, {col})"
        )
    return depth

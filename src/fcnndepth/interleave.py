"""Spatial interleaving of four quarter-resolution tensors.

Four NHWC tensors of shape (N, H/2, W/2, C) merge into one (N, H, W, C)
tensor by output-pixel parity: (even row, even col) comes from the first
input, (even, odd) from the second, (odd, even) from the third and
(odd, odd) from the fourth. The source element for output (n, h, w, c) is
the input element (n, h // 2, w // 2, c).

`interleave4` fills a single preallocated output with four strided writes,
touching every output element exactly once and allocating no intermediate
buffers. `interleave4_reference` is the deliberately separate three-step
variant (merge two pairs along width, then merge the results along height)
kept as an equivalence oracle.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor4


def _check_inputs(a: Tensor4, b: Tensor4, c: Tensor4, d: Tensor4) -> None:
    shapes = {t.shape for t in (a, b, c, d)}
    if len(shapes) != 1:
        raise ValueError(f"all four inputs must share one shape, got {sorted(shapes)}")
    dtypes = {t.dtype for t in (a, b, c, d)}
    if len(dtypes) != 1:
        raise ValueError(f"all four inputs must share one dtype, got {sorted(map(str, dtypes))}")


def interleave4(a: Tensor4, b: Tensor4, c: Tensor4, d: Tensor4) -> Tensor4:
    """Single-pass parity interleave of four tensors into one double-resolution tensor."""
    _check_inputs(a, b, c, d)
    n, h, w, ch = a.shape
    out = np.empty((n, 2 * h, 2 * w, ch), dtype=a.dtype)
    out[:, 0::2, 0::2] = a.data
    out[:, 0::2, 1::2] = b.data
    out[:, 1::2, 0::2] = c.data
    out[:, 1::2, 1::2] = d.data
    return Tensor4(out)


def interleave4_reference(a: Tensor4, b: Tensor4, c: Tensor4, d: Tensor4) -> Tensor4:
    """Three-step interleave: first/second pairs along width, then along height."""
    _check_inputs(a, b, c, d)
    top = _merge_width(a.data, b.data)
    bottom = _merge_width(c.data, d.data)
    return Tensor4(_merge_height(top, bottom))


def _merge_width(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    n, h, w, c = left.shape
    out = np.empty((n, h, 2 * w, c), dtype=left.dtype)
    out[:, :, 0::2] = left
    out[:, :, 1::2] = right
    return out


def _merge_height(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    n, h, w, c = top.shape
    out = np.empty((n, 2 * h, w, c), dtype=top.dtype)
    out[:, 0::2] = top
    out[:, 1::2] = bottom
    return out

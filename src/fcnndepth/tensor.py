"""NHWC tensor and parameter containers shared by all inference kernels."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _float_array(values, name: str) -> np.ndarray:
    """`values` as an array, neither cast nor copied; only float32 or float64 passes."""
    arr = np.asarray(values)
    if arr.dtype not in _FLOAT_DTYPES:
        raise ValueError(f"{name} must be float32 or float64, got {arr.dtype}")
    return arr


@dataclass(frozen=True)
class Tensor4:
    """Dense rank-4 array in (batch, height, width, channels) layout.

    Data is float32 or float64, kept as given (never cast or copied), and
    ``data.ravel()`` lists element (n, h, w, c) at ((n * H + h) * W + w) * C + c.
    Kernels treat tensors as immutable values and never write into their
    inputs, except into an array passed as `out` (see ops).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _float_array(self.data, "data")
        if arr.ndim != 4:
            raise ValueError(f"expected rank-4 data, got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dimensions must be >= 1, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def h(self) -> int:
        return self.data.shape[1]

    @property
    def w(self) -> int:
        return self.data.shape[2]

    @property
    def c(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> "Tensor4":
        return Tensor4(self.data.astype(dtype))


@dataclass(frozen=True)
class ConvKernel:
    """Convolution weights in (kh, kw, cin, cout) order with optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = _float_array(self.weights, "kernel weights")
        if w.ndim != 4:
            raise ValueError(f"kernel weights must be rank 4, got rank {w.ndim}")
        if min(w.shape) < 1:
            raise ValueError(f"kernel dimensions must be >= 1, got {w.shape}")
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = np.asarray(self.bias)
            if b.ndim != 1 or b.shape[0] != w.shape[3]:
                raise ValueError(
                    f"bias must have {w.shape[3]} entries, got shape {b.shape}"
                )
            if b.dtype != w.dtype:
                raise ValueError(f"bias is {b.dtype} but the weights are {w.dtype}")
            object.__setattr__(self, "bias", b)

    @property
    def kh(self) -> int:
        return self.weights.shape[0]

    @property
    def kw(self) -> int:
        return self.weights.shape[1]

    @property
    def cin(self) -> int:
        return self.weights.shape[2]

    @property
    def cout(self) -> int:
        return self.weights.shape[3]


@dataclass(frozen=True)
class BatchNormParams:
    """Inference-time batch normalization: y = gamma * (x - mean) / sqrt(var + eps) + beta."""

    mean: np.ndarray
    variance: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        fields = {name: _float_array(getattr(self, name), name)
                  for name in ("mean", "variance", "gamma", "beta")}
        for name, arr in fields.items():
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D, got rank {arr.ndim}")
            if arr.shape != fields["mean"].shape:
                raise ValueError("per-channel parameter lengths differ")
            if arr.dtype != fields["mean"].dtype:
                raise ValueError(f"{name} is {arr.dtype} but mean is {fields['mean'].dtype}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite values")
            object.__setattr__(self, name, arr)
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if np.any(self.variance < 0):
            raise ValueError("variance must be nonnegative")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        object.__setattr__(self, "eps", float(self.eps))

    @property
    def channels(self) -> int:
        return self.mean.shape[0]

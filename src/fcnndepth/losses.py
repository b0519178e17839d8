"""Depth losses with analytic gradients with respect to the prediction.

All reductions are per-valid-pixel means, where a pixel is valid when its
ground-truth depth is strictly positive; invalid pixels contribute nothing
to values or gradients. Accumulation happens in float64 regardless of the
input dtype; gradients are returned in the prediction's dtype.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .metrics import valid_pixels
from .tensor import Tensor4

# Lower clamp for the adaptive threshold so it can never reach zero.
K_FLOOR = 1e-6


@dataclass(frozen=True)
class AdaptiveBerHuState:
    """Mutable-by-replacement state of the adaptive threshold controller.

    k is the current near/far threshold in meters, delta the half-width of
    the two probe bands around it, lr the fraction of delta that one update
    moves k by.
    """

    k: float = 1.0
    delta: float = 1.0
    lr: float = 0.01

    def __post_init__(self):
        for name in ("k", "delta", "lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def _validated(prediction: Tensor4, truth: Tensor4):
    # valid_pixels checks the shapes; a mismatch is reported before the channels
    if prediction.shape == truth.shape and prediction.c != 1:
        raise ValueError(f"depth maps must have one channel, got {prediction.c}")
    return valid_pixels(prediction, truth)


def _as_grad(grad64: np.ndarray, prediction: Tensor4) -> Tensor4:
    return Tensor4(grad64.astype(prediction.dtype))


def mse_rel_loss(
    prediction: Tensor4, truth: Tensor4, alpha1: float = 1.0, alpha2: float = 2.0
) -> tuple[float, Tensor4]:
    """Weighted sum of squared error and squared relative error.

    value = alpha1 * mean((t - p)^2) + alpha2 * mean((1 - p / t)^2)

    The relative term penalizes a given absolute error more when the true
    depth is small. Returns (value, d value / d prediction).
    """
    if alpha1 < 0 or alpha2 < 0:
        raise ValueError("alpha weights must be nonnegative")
    if alpha1 == 0 and alpha2 == 0:
        raise ValueError("alpha weights must not both be zero")
    p, t, mask, count = _validated(prediction, truth)
    e = np.where(mask, t - p, 0.0)
    rel = np.where(mask, 1.0 - p / np.where(mask, t, 1.0), 0.0)
    value = (alpha1 * np.sum(e * e) + alpha2 * np.sum(rel * rel)) / count
    grad = (-2.0 * alpha1 * e - 2.0 * alpha2 * rel / np.where(mask, t, 1.0)) / count
    grad[~mask] = 0.0
    return float(value), _as_grad(grad, prediction)


def _berhu_elementwise(e: np.ndarray, k: float) -> np.ndarray:
    """Per-pixel reverse Huber: |e| below k, scaled quadratic at or above."""
    abs_e = np.abs(e)
    return np.where(abs_e < k, abs_e, (e * e + k * k) / (2.0 * k))


def berhu_loss(prediction: Tensor4, truth: Tensor4, k: float) -> tuple[float, Tensor4]:
    """Reverse Huber loss: linear within k of the truth, quadratic beyond.

    Per pixel, with e = t - p:

        L = |e|                  if |e| < k
        L = (e^2 + k^2) / (2k)   otherwise

    The two branches and their first derivatives agree at |e| = k, so the
    loss is C1; the subgradient at e = 0 is taken as 0. Returns
    (mean over valid pixels, d value / d prediction).
    """
    if not k > 0:
        raise ValueError(f"threshold k must be positive, got {k}")
    p, t, mask, count = _validated(prediction, truth)
    e = np.where(mask, t - p, 0.0)
    value = np.sum(np.where(mask, _berhu_elementwise(e, k), 0.0)) / count
    grad = np.where(np.abs(e) < k, -np.sign(e), -e / k) / count
    grad[~mask] = 0.0
    return float(value), _as_grad(grad, prediction)


def aberhu_step(
    prediction: Tensor4, truth: Tensor4, state: AdaptiveBerHuState
) -> tuple[float, Tensor4, AdaptiveBerHuState]:
    """One adaptive BerHu evaluation: loss at the current k, then a threshold update.

    The per-pixel loss is averaged separately over pixels whose true depth
    falls in [k - delta, k] and in [k, k + delta]; k moves by lr * delta
    toward the band with the larger mean, stays put on a tie or when either
    band is empty, and is clamped to stay positive.
    """
    value, grad = berhu_loss(prediction, truth, state.k)
    p, t, mask, _ = _validated(prediction, truth)
    per_pixel = _berhu_elementwise(np.where(mask, t - p, 0.0), state.k)
    low = mask & (t >= state.k - state.delta) & (t <= state.k)
    high = mask & (t >= state.k) & (t <= state.k + state.delta)
    new_k = state.k
    if low.any() and high.any():
        low_mean = per_pixel[low].mean()
        high_mean = per_pixel[high].mean()
        if high_mean > low_mean:
            new_k = state.k + state.lr * state.delta
        elif high_mean < low_mean:
            new_k = state.k - state.lr * state.delta
    new_k = max(new_k, K_FLOOR)
    return value, grad, replace(state, k=new_k)

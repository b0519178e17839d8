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
        for name, value in vars(self).items():
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


def _validated(prediction: Tensor4, truth: Tensor4):
    # valid_pixels checks the shapes; a mismatch is reported before the channels
    if prediction.shape == truth.shape and prediction.c != 1:
        raise ValueError(f"depth maps must have one channel, got {prediction.c}")
    return valid_pixels(prediction, truth)


def _scatter(grad: np.ndarray, mask: np.ndarray, prediction: Tensor4) -> Tensor4:
    """The valid pixels' gradient placed in a zeroed map of the prediction's dtype."""
    out = np.zeros(prediction.shape, dtype=prediction.dtype)
    out[mask] = grad
    return Tensor4(out)


def mse_rel_loss(
    prediction: Tensor4, truth: Tensor4, alpha1: float = 1.0, alpha2: float = 2.0
) -> tuple[float, Tensor4]:
    """Weighted sum of squared error and squared relative error.

    value = alpha1 * mean((t - p)^2) + alpha2 * mean((1 - p / t)^2)

    The relative term penalizes a given absolute error more when the true
    depth is small. Returns (value, d value / d prediction).
    """
    if not (0 <= alpha1 < np.inf and 0 <= alpha2 < np.inf):
        raise ValueError("alpha weights must be nonnegative and finite")
    if alpha1 == 0 and alpha2 == 0:
        raise ValueError("alpha weights must not both be zero")
    p, t, mask, count = _validated(prediction, truth)
    e = t - p
    rel = 1.0 - p / t
    value = (alpha1 * np.sum(e * e) + alpha2 * np.sum(rel * rel)) / count
    grad = (-2.0 * alpha1 * e - 2.0 * alpha2 * rel / t) / count
    return float(value), _scatter(grad, mask, prediction)


def _berhu(prediction: Tensor4, truth: Tensor4, k: float):
    """BerHu value and gradient at k, the valid depths and their per-pixel loss."""
    p, t, mask, count = _validated(prediction, truth)
    e = t - p
    abs_e = np.abs(e)
    linear = abs_e < k
    per_pixel = np.where(linear, abs_e, (e * e + k * k) / (2.0 * k))
    grad = np.where(linear, -np.sign(e), -e / k) / count
    return float(np.sum(per_pixel) / count), _scatter(grad, mask, prediction), t, per_pixel


def berhu_loss(prediction: Tensor4, truth: Tensor4, k: float) -> tuple[float, Tensor4]:
    """Reverse Huber loss: linear within k of the truth, quadratic beyond.

    Per pixel, with e = t - p:

        L = |e|                  if |e| < k
        L = (e^2 + k^2) / (2k)   otherwise

    The two branches and their first derivatives agree at |e| = k, so the
    loss is C1; the subgradient at e = 0 is taken as 0. Returns
    (mean over valid pixels, d value / d prediction).
    """
    if not 0 < k < np.inf:
        raise ValueError(f"threshold k must be positive and finite, got {k}")
    return _berhu(prediction, truth, k)[:2]


def aberhu_step(
    prediction: Tensor4, truth: Tensor4, state: AdaptiveBerHuState
) -> tuple[float, Tensor4, AdaptiveBerHuState]:
    """One adaptive BerHu evaluation: loss at the current k, then a threshold update.

    The per-pixel loss is averaged separately over pixels whose true depth
    falls in [k - delta, k] and in [k, k + delta]; k moves by lr * delta
    toward the band with the larger mean, stays put on a tie or when either
    band is empty, and is clamped to stay positive.
    """
    value, grad, t, per_pixel = _berhu(prediction, truth, state.k)
    low = (t >= state.k - state.delta) & (t <= state.k)
    high = (t >= state.k) & (t <= state.k + state.delta)
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

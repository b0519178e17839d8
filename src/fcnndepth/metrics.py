"""Evaluation metrics for predicted depth maps.

Pixels with nonpositive ground truth are excluded everywhere. Scalar sums
use exact compensated summation (math.fsum), so results do not depend on
accumulation order and match a per-pixel reference bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .tensor import Tensor4

DELTA_BASE = 1.25


@dataclass(frozen=True)
class MetricsReport:
    """Mean squared error, mean absolute relative error, and threshold accuracies.

    delta_i is the fraction of valid pixels whose prediction/truth ratio
    (taken in whichever direction is >= 1) stays below 1.25^i; the three
    fields are nondecreasing by construction.
    """

    mse: float
    rel: float
    delta1: float
    delta2: float
    delta3: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def valid_pixels(prediction: Tensor4, truth: Tensor4):
    """Valid (truth > 0) pixels of both maps as 1-D float64 arrays, the mask, its count (> 0)."""
    if prediction.shape != truth.shape:
        raise ValueError(f"shape mismatch: {prediction.shape} vs {truth.shape}")
    mask = truth.data > 0
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError("no valid pixels: ground truth is nonpositive everywhere")
    p = prediction.data[mask].astype(np.float64, copy=False)
    t = truth.data[mask].astype(np.float64, copy=False)
    return p, t, mask, count


def compute_metrics(prediction: Tensor4, truth: Tensor4) -> MetricsReport:
    """Evaluate a prediction against ground truth over the valid pixels.

    Nonpositive predictions make their pixel fail every threshold (the
    ratio is treated as infinite) but still count toward mse and rel.
    """
    p, t, _, count = valid_pixels(prediction, truth)
    e = t - p
    # a memoryview feeds fsum Python floats: no numpy scalars, no .tolist() list
    mse = math.fsum(memoryview(e * e)) / count
    rel = math.fsum(memoryview(np.abs(e) / t)) / count
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, np.maximum(t / p, p / t), np.inf)
    deltas = [
        float(np.count_nonzero(ratio < DELTA_BASE**i)) / count for i in (1, 2, 3)
    ]
    return MetricsReport(mse, rel, *deltas)

"""Evaluation metrics for predicted depth maps.

Pixels with nonpositive ground truth are excluded everywhere. Scalar sums
are exact: each is bit-equal to math.fsum of its terms, by error-free
extraction (see `_exact_sum`), so results do not depend on accumulation
order and match a per-pixel reference bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .tensor import Tensor4

DELTA_BASE = 1.25
# values per extraction chunk: one 64 KB scratch that stays in cache
SUM_CHUNK = 8192


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


def _exact_sum(buf: np.ndarray) -> float:
    """``math.fsum(buf)`` bit for bit, overwriting the 1-D float64 array `buf`.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 31(1), 2008), one chunk of `r` at a
    time. With ``2**e > max|r|`` and ``m = (len(r) + 2).bit_length()``,
    ``sigma = 2**(m + e)`` splits each value exactly into
    ``q = (r + sigma) - sigma``, a multiple of ``2**(m + e - 53)``, and the
    residual ``r - q``. Every partial sum of the chunk's ``q`` is such a
    multiple below ``sigma`` in magnitude, so ``q.sum()`` is exact in any
    order. Passes repeat on the residual until it is all zero; fsum of the
    exact pass totals is then the correctly rounded sum of `buf`. An empty,
    all-zero, non-finite or huge (``>= 2**960``) input goes to fsum itself,
    keeping its signed zeros, its nan and inf results and its exceptions.
    """
    big = max(float(buf.max()), -float(buf.min())) if buf.size else 0.0
    if not 0.0 < big < 2.0**960:
        return math.fsum(memoryview(buf))
    scratch = np.empty(min(buf.size, SUM_CHUNK))
    totals = []
    for start in range(0, buf.size, SUM_CHUNK):
        r = buf[start:start + SUM_CHUNK]
        q = scratch[:r.size]
        m = (r.size + 2).bit_length()
        while big := float(np.abs(r, out=q).max()):
            sigma = math.ldexp(1.0, m + math.frexp(big)[1])
            np.subtract(np.add(r, sigma, out=q), sigma, out=q)
            totals.append(float(q.sum()))
            r -= q
    return math.fsum(totals)


def compute_metrics(prediction: Tensor4, truth: Tensor4) -> MetricsReport:
    """Evaluate a prediction against ground truth over the valid pixels.

    Nonpositive predictions make their pixel fail every threshold (the
    ratio is treated as infinite) but still count toward mse and rel.
    """
    p, t, _, count = valid_pixels(prediction, truth)
    e = t - p
    sq = e * e
    # each sum consumes its buffer, which the ratio map overwrites next
    mse = _exact_sum(sq) / count
    rel = _exact_sum(np.divide(np.abs(e, out=e), t, out=e)) / count
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(np.divide(t, p, out=sq), np.divide(p, t, out=e), out=sq)
    ratio[~(p > 0)] = np.inf
    deltas = [
        float(np.count_nonzero(ratio < DELTA_BASE**i)) / count for i in (1, 2, 3)
    ]
    return MetricsReport(mse, rel, *deltas)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcnndepth import metrics
from fcnndepth.metrics import compute_metrics
from fcnndepth.tensor import Tensor4
from helpers import metrics_scalar_ref, random_depth_pair, zeros

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.0**-1022, 1e300,
            -1e300, 2.0**960, np.finfo(np.float64).max)


@st.composite
def summands(draw):
    """Float64 arrays of 0-3,000 values: subnormal to huge, with exact cancellations and specials."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 3000))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.one_of(st.just(lo), st.integers(lo, 1023)))
    # mantissas in [1, 2) of one sign drive partial sums towards n * max|a|
    mantissas = rng.standard_normal(n) if draw(st.booleans()) else 1.0 + rng.random(n)
    with np.errstate(over="ignore"):
        a = np.ldexp(mantissas, rng.integers(lo, hi + 1, n))
    sign = draw(st.sampled_from([None, 1.0, -1.0]))
    if sign is not None:  # one sign, as in the metric sums
        a = sign * np.abs(a)
    if draw(st.booleans()):  # exact cancellation: every value's negative too
        a = np.concatenate([a, -a])
    if draw(st.booleans()):
        a[rng.random(a.size) < 0.3] = 0.0
    extra = draw(st.lists(st.one_of(st.sampled_from(SPECIALS), st.floats()), max_size=4))
    a = np.concatenate([a, np.asarray(extra, dtype=np.float64)])
    rng.shuffle(a)
    return a


def fsum_or_error(fn, values):
    try:
        return fn(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestExactSum:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(summands())
    def test_equals_fsum_bit_for_bit(self, a):
        expect = fsum_or_error(math.fsum, a.tolist())
        assert fsum_or_error(metrics._exact_sum, a.copy()) == expect

    @pytest.mark.parametrize("spread", [0, 30, 300])
    def test_equals_fsum_across_chunks(self, spread):
        # 76,800 values (one 240x320 map) fill 9 chunks and part of a tenth;
        # the largest value sits in the last slot of the first chunk
        rng = np.random.default_rng(spread)
        a = np.ldexp(rng.standard_normal(240 * 320), rng.integers(-spread, spread + 1, 240 * 320))
        a[metrics.SUM_CHUNK - 1] = 2.0 ** (spread + 8)
        assert metrics._exact_sum(a.copy()).hex() == math.fsum(a.tolist()).hex()


def as_pair(pred, truth):
    return Tensor4(np.asarray(pred, dtype=np.float32).reshape(1, -1, 1, 1)), Tensor4(
        np.asarray(truth, dtype=np.float32).reshape(1, -1, 1, 1)
    )


class TestComputeMetrics:
    def test_perfect_prediction(self):
        pred, truth = as_pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        report = compute_metrics(pred, truth)
        assert report.mse == 0.0
        assert report.rel == 0.0
        assert report.delta1 == report.delta2 == report.delta3 == 1.0

    def test_constructed_ratios(self):
        # ratio maxima are [1, 1.2, 2]: only the third pixel exceeds 1.25,
        # 1.5625 and 1.953125, so every delta level is 2/3
        pred, truth = as_pair([1.0, 2.4, 8.0], [1.0, 2.0, 4.0])
        report = compute_metrics(pred, truth)
        assert report.delta1 == pytest.approx(2 / 3)
        assert report.delta2 == pytest.approx(2 / 3)
        assert report.delta3 == pytest.approx(2 / 3)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_scalar_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 6)), int(rng.integers(1, 6)), 1)
        pred, truth = random_depth_pair(rng, shape=shape, invalid_frac=0.15)
        if not (truth > 0).any():
            return
        pred32 = pred.astype(np.float32)
        truth32 = truth.astype(np.float32)
        report = compute_metrics(Tensor4(pred32), Tensor4(truth32))
        ref = metrics_scalar_ref(pred32, truth32)
        assert report.as_dict() == ref

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_scalar_oracle_exactly_at_240x320(self, dtype):
        # one workload-sized map: 10% invalid pixels, some predictions <= 0
        rng = np.random.default_rng(20)
        pred, truth = random_depth_pair(rng, shape=(1, 240, 320, 1), invalid_frac=0.1)
        pred[0, ::37, ::41, 0] = 0.0
        pred, truth = pred.astype(dtype), truth.astype(dtype)
        assert (pred <= 0).sum() > 100
        report = compute_metrics(Tensor4(pred), Tensor4(truth))
        assert report.as_dict() == metrics_scalar_ref(pred, truth)

    def test_delta_ordering_monotone(self):
        for seed in range(50):
            rng = np.random.default_rng(seed + 300)
            pred, truth = random_depth_pair(rng, shape=(1, 4, 4, 1))
            report = compute_metrics(Tensor4(pred), Tensor4(truth))
            assert report.delta1 <= report.delta2 <= report.delta3

    def test_nonpositive_prediction_fails_thresholds(self):
        pred, truth = as_pair([-1.0, 0.0], [2.0, 2.0])
        report = compute_metrics(pred, truth)
        assert report.delta3 == 0.0
        assert np.isfinite(report.mse)

    def test_invalid_truth_excluded(self):
        pred, truth = as_pair([5.0, 2.0], [0.0, 2.0])
        report = compute_metrics(pred, truth)
        assert report.mse == 0.0
        assert report.delta1 == 1.0

    def test_empty_mask_rejected(self):
        pred, truth = as_pair([1.0], [0.0])
        with pytest.raises(ValueError, match="valid"):
            compute_metrics(pred, truth)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            compute_metrics(zeros(1, 2, 2, 1), zeros(1, 2, 3, 1))

    def test_report_keys_in_field_order(self):
        report = compute_metrics(*as_pair([1.0, 2.0], [1.0, 3.0]))
        assert list(report.as_dict()) == ["mse", "rel", "delta1", "delta2", "delta3"]

    def test_memory_stays_near_input_size(self):
        # the float64 temporaries share two buffers; with a fresh one for
        # e * e, abs(e) / t and the ratio map the peak was 6.3x the inputs
        rng = np.random.default_rng(12)
        pred, truth = random_depth_pair(rng, shape=(1, 240, 320, 1), invalid_frac=0.1)
        pred, truth = Tensor4(pred.astype(np.float32)), Tensor4(truth.astype(np.float32))
        tracemalloc.start()
        try:
            compute_metrics(pred, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * (pred.data.nbytes + truth.data.nbytes)

import numpy as np
import pytest

from fcnndepth.metrics import compute_metrics
from fcnndepth.tensor import Tensor4
from helpers import metrics_scalar_ref, random_depth_pair


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
            compute_metrics(Tensor4.zeros(1, 2, 2, 1), Tensor4.zeros(1, 2, 3, 1))

    def test_report_keys_in_field_order(self):
        report = compute_metrics(*as_pair([1.0, 2.0], [1.0, 3.0]))
        assert list(report.as_dict()) == ["mse", "rel", "delta1", "delta2", "delta3"]

import numpy as np
import pytest

from fcnndepth.losses import (
    K_FLOOR,
    AdaptiveBerHuState,
    aberhu_step,
    berhu_loss,
    mse_rel_loss,
)
from fcnndepth.tensor import Tensor4
from helpers import central_difference_grad, random_depth_pair


def as_pair(pred, truth):
    return Tensor4(np.asarray(pred, dtype=np.float64)), Tensor4(
        np.asarray(truth, dtype=np.float64)
    )


def single_pixel(pred_value, truth_value):
    return as_pair(
        np.full((1, 1, 1, 1), pred_value), np.full((1, 1, 1, 1), truth_value)
    )


class TestMseRelLoss:
    def test_hand_value(self):
        # truth 2, prediction 1: squared error 1, squared relative error
        # (1 - 1/2)^2 = 0.25; with weights (1, 2) the total is 1.5
        pred, truth = single_pixel(1.0, 2.0)
        value, grad = mse_rel_loss(pred, truth, alpha1=1.0, alpha2=2.0)
        assert value == pytest.approx(1.5, abs=1e-12)
        assert grad.shape == pred.shape

    def test_zero_at_perfect_prediction(self):
        rng = np.random.default_rng(0)
        truth = rng.uniform(0.5, 5.0, (1, 3, 4, 1))
        pred, gt = as_pair(truth, truth)
        value, grad = mse_rel_loss(pred, gt)
        assert value == 0.0
        assert not grad.data.any()

    @pytest.mark.parametrize("seed", range(100))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        pred, truth = random_depth_pair(rng, invalid_frac=0.2 if seed % 3 == 0 else 0.0)
        if not (truth > 0).any():
            return
        pred_t, truth_t = as_pair(pred, truth)
        a1, a2 = rng.uniform(0.1, 3.0, 2)
        _, grad = mse_rel_loss(pred_t, truth_t, a1, a2)
        fd = central_difference_grad(
            lambda p: mse_rel_loss(Tensor4(p), truth_t, a1, a2)[0], pred
        )
        scale = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grad.data - fd) / scale) <= 1e-4

    def test_invalid_pixels_excluded(self):
        pred, truth = as_pair(
            [[[[1.0], [9.9]]]], [[[[2.0], [0.0]]]]
        )
        value, grad = mse_rel_loss(pred, truth, 1.0, 2.0)
        assert value == pytest.approx(1.5, abs=1e-12)  # same as the single valid pixel
        assert grad.data[0, 0, 1, 0] == 0.0

    def test_empty_mask_rejected(self):
        pred, truth = single_pixel(1.0, 0.0)
        with pytest.raises(ValueError, match="valid"):
            mse_rel_loss(pred, truth)

    @pytest.mark.parametrize("loss", [
        mse_rel_loss,
        lambda p, t: berhu_loss(p, t, 1.0),
        lambda p, t: aberhu_step(p, t, AdaptiveBerHuState()),
    ], ids=["mse_rel", "berhu", "aberhu_step"])
    def test_shape_mismatch_rejected(self, loss):
        pred, truth = as_pair(np.ones((1, 2, 2, 1)), np.ones((1, 2, 3, 1)))
        with pytest.raises(ValueError, match=r"^shape mismatch: \(1, 2, 2, 1\) vs \(1, 2, 3, 1\)$"):
            loss(pred, truth)

    def test_channel_check_precedes_valid_pixel_check(self):
        # two channels and no valid pixel: the channel count is reported
        pred, truth = as_pair(np.ones((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError, match="^depth maps must have one channel, got 2$"):
            mse_rel_loss(pred, truth)

    def test_bad_alphas_rejected(self):
        pred, truth = single_pixel(1.0, 2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            mse_rel_loss(pred, truth, -1.0, 2.0)
        with pytest.raises(ValueError, match="both"):
            mse_rel_loss(pred, truth, 0.0, 0.0)
        for alphas in [(np.nan, 2.0), (1.0, np.nan), (np.inf, 2.0), (1.0, np.inf)]:
            with pytest.raises(ValueError, match="^alpha weights must be nonnegative and finite$"):
                mse_rel_loss(pred, truth, *alphas)


class TestBerhuLoss:
    def test_linear_branch_value(self):
        pred, truth = single_pixel(1.5, 2.0)  # |e| = 0.5 < k = 1
        value, _ = berhu_loss(pred, truth, k=1.0)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_branch_value(self):
        pred, truth = single_pixel(4.0, 2.0)  # |e| = 2 >= k = 1: (4 + 1) / 2
        value, _ = berhu_loss(pred, truth, k=1.0)
        assert value == pytest.approx(2.5, abs=1e-12)

    def test_continuous_at_threshold(self):
        k = 1.3
        below, _ = berhu_loss(*single_pixel(2.0 - k + 1e-12, 2.0), k=k)
        at, _ = berhu_loss(*single_pixel(2.0 - k, 2.0), k=k)
        assert at == pytest.approx(k, abs=1e-9)
        assert below == pytest.approx(at, abs=1e-9)

    def test_gradient_continuous_at_kink(self):
        # evaluate the analytic gradient a hair on each side of |e| = k
        k = 0.7
        eps = 1e-12
        _, g_lin = berhu_loss(*single_pixel(2.0 - (k - eps), 2.0), k=k)
        _, g_quad = berhu_loss(*single_pixel(2.0 - (k + eps), 2.0), k=k)
        assert abs(g_lin.data.item() - g_quad.data.item()) <= 1e-9

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        pred, truth = random_depth_pair(rng)
        value, _ = berhu_loss(*as_pair(pred, truth), k=0.8)
        assert value > 0
        value_eq, grad_eq = berhu_loss(*as_pair(truth, truth), k=0.8)
        assert value_eq == 0.0
        assert not grad_eq.data.any()

    @pytest.mark.parametrize("seed", range(100))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 10_000)
        pred, truth = random_depth_pair(rng)
        k = float(rng.uniform(0.3, 1.5))
        # keep the finite-difference window clear of both kinks: the
        # absolute-value corner at e = 0 and the branch switch at |e| = k
        e = np.abs(truth - pred)
        pred = np.where(np.abs(e - k) < 5e-3, truth - (e + 2e-2), pred)
        pred = np.where(np.abs(truth - pred) < 5e-3, truth - 2e-2, pred)
        pred_t, truth_t = as_pair(pred, truth)
        _, grad = berhu_loss(pred_t, truth_t, k)
        fd = central_difference_grad(
            lambda p: berhu_loss(Tensor4(p), truth_t, k)[0], pred
        )
        scale = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grad.data - fd) / scale) <= 1e-4

    def test_nonpositive_k_rejected(self):
        pred, truth = single_pixel(1.0, 2.0)
        with pytest.raises(ValueError, match="positive"):
            berhu_loss(pred, truth, k=0.0)
        for k in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^threshold k must be positive and finite"):
                berhu_loss(pred, truth, k=k)


class TestAdaptiveBerhu:
    def test_state_validation(self):
        with pytest.raises(ValueError, match="positive"):
            AdaptiveBerHuState(k=0.0)
        with pytest.raises(ValueError, match="positive"):
            AdaptiveBerHuState(delta=-1.0)
        for name in ("k", "delta", "lr"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                    AdaptiveBerHuState(**{name: bad})

    def test_high_band_error_raises_k(self):
        # valid depths: one in [k - delta, k) with zero error, one in
        # (k, k + delta] with large error -> k must rise by lr * delta
        state = AdaptiveBerHuState(k=1.0, delta=1.0, lr=0.01)
        truth = np.array([0.5, 1.8]).reshape(1, 2, 1, 1)
        pred = np.array([0.5, 4.0]).reshape(1, 2, 1, 1)
        _, _, new_state = aberhu_step(*as_pair(pred, truth), state)
        assert new_state.k == 1.0 + 0.01 * 1.0
        assert new_state.delta == state.delta and new_state.lr == state.lr

    def test_low_band_error_lowers_k(self):
        state = AdaptiveBerHuState(k=1.0, delta=1.0, lr=0.01)
        truth = np.array([0.5, 1.8]).reshape(1, 2, 1, 1)
        pred = np.array([3.0, 1.8]).reshape(1, 2, 1, 1)
        _, _, new_state = aberhu_step(*as_pair(pred, truth), state)
        assert new_state.k == 1.0 - 0.01 * 1.0

    def test_empty_bands_leave_k_unchanged(self):
        state = AdaptiveBerHuState(k=1.0, delta=0.25, lr=0.01)
        truth = np.full((1, 2, 1, 1), 9.0)  # everything far outside [0.75, 1.25]
        pred = truth + 3.0
        _, _, new_state = aberhu_step(*as_pair(pred, truth), state)
        assert new_state.k == state.k

    def test_one_empty_band_leaves_k_unchanged(self):
        state = AdaptiveBerHuState(k=1.0, delta=0.5, lr=0.01)
        truth = np.array([1.2, 1.4]).reshape(1, 2, 1, 1)  # high band only
        pred = truth + 1.0
        _, _, new_state = aberhu_step(*as_pair(pred, truth), state)
        assert new_state.k == state.k

    def test_symmetric_errors_tie(self):
        state = AdaptiveBerHuState(k=1.0, delta=0.5, lr=0.01)
        truth = np.array([0.8, 1.2]).reshape(1, 2, 1, 1)
        pred = np.array([0.8 + 0.3, 1.2 - 0.3]).reshape(1, 2, 1, 1)
        _, _, new_state = aberhu_step(*as_pair(pred, truth), state)
        assert new_state.k == state.k

    def test_k_clamped_positive(self):
        state = AdaptiveBerHuState(k=0.005, delta=1.0, lr=0.01)
        truth = np.array([0.004, 0.2]).reshape(1, 2, 1, 1)
        pred = np.array([5.0, 0.2]).reshape(1, 2, 1, 1)  # low band has the error
        _, _, new_state = aberhu_step(*as_pair(pred, truth), state)
        assert new_state.k == K_FLOOR
        assert new_state.k > 0

    def test_k_bounded_under_iteration(self):
        rng = np.random.default_rng(2)
        state = AdaptiveBerHuState(k=1.0, delta=1.0, lr=0.01)
        d_max = 6.0
        for _ in range(10_000):
            truth = rng.uniform(0.1, d_max, (1, 4, 2, 1))
            pred = truth + rng.normal(0, 0.5, truth.shape)
            _, _, state = aberhu_step(*as_pair(pred, truth), state)
            assert 0 < state.k <= d_max + state.delta

    def test_returns_loss_at_current_k(self):
        state = AdaptiveBerHuState(k=0.9, delta=1.0, lr=0.01)
        rng = np.random.default_rng(3)
        pred, truth = random_depth_pair(rng)
        pair = as_pair(pred, truth)
        value, grad, _ = aberhu_step(*pair, state)
        ref_value, ref_grad = berhu_loss(*pair, k=0.9)
        assert value == ref_value
        assert np.array_equal(grad.data, ref_grad.data)

import hashlib

import numpy as np
import pytest

from poselift.errors import ConfigError, ShapeError
from poselift.frequency import (FreqLossConfig, _weighted_mean, freq_loss,
                                freq_loss_spatial_axis, trajectory_spectrum)
from poselift.losses import LossWeights, mpjve_loss, tc_loss, total_loss, wmpjpe
from poselift.numerics import Tensor, grad_check, l2norm_last, precision


def random_rotation(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


class TestWmpjpe:
    def test_zero_on_equal(self):
        y = np.random.default_rng(0).normal(size=(4, 5, 3))
        assert wmpjpe(y, y).item() == 0.0

    def test_unit_displacement(self):
        y_hat = np.array([[[1.0, 0.0, 0.0]]])
        assert wmpjpe(y_hat, np.zeros((1, 1, 3))).item() == 1.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(1)
        y_hat, y = rng.normal(size=(2, 2, 2, 3))
        w = np.array([1.0, 2.0])
        expected = 0.0
        for n in range(2):
            for t in range(2):
                expected += w[n] * np.linalg.norm(y_hat[t, n] - y[t, n])
        expected /= 2 * 2
        assert abs(wmpjpe(y_hat, y, w).item() - expected) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        y_hat, y = rng.normal(size=(2, 6, 5, 3))
        rot = random_rotation(3)
        assert abs(wmpjpe(y_hat, y).item() - wmpjpe(y_hat @ rot.T, y @ rot.T).item()) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            wmpjpe(np.zeros((2, 3, 3)), np.zeros((2, 4, 3)))


class TestTcLoss:
    def test_constant_sequence_is_zero(self):
        y = np.tile(np.random.default_rng(4).normal(size=(1, 5, 3)), (7, 1, 1))
        assert tc_loss(y).item() == 0.0

    def test_three_four_five(self):
        y = np.zeros((2, 1, 3))
        y[1, 0] = [0.0, 3.0, 4.0]
        assert tc_loss(y).item() == 5.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(4, 3, 3))
        w = np.array([1.0, 0.5, 2.0])
        expected = 0.0
        for n in range(3):
            for t in range(1, 4):
                expected += w[n] * np.linalg.norm(y[t, n] - y[t - 1, n])
        expected /= 3 * 3
        assert abs(tc_loss(y, w).item() - expected) < 1e-12

    def test_needs_two_frames(self):
        with pytest.raises(ConfigError):
            tc_loss(np.zeros((1, 3, 3)))
        with pytest.raises(ConfigError):
            mpjve_loss(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)))


class TestMpjveLoss:
    def test_constant_offset_cancels(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(5, 4, 3))
        assert mpjve_loss(y + np.array([1.0, -2.0, 0.5]), y).item() < 1e-12

    def test_printed_denominator_is_frames_times_joints(self):
        y_hat = np.zeros((2, 1, 3))
        y_hat[1, 0, 0] = 1.0
        # one velocity term of norm 1, divided by T*N = 2
        assert mpjve_loss(y_hat, np.zeros((2, 1, 3))).item() == 0.5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        y_hat, y = rng.normal(size=(2, 4, 3, 3))
        expected = 0.0
        for n in range(3):
            for t in range(1, 4):
                expected += np.linalg.norm((y_hat[t, n] - y_hat[t - 1, n])
                                           - (y[t, n] - y[t - 1, n]))
        expected /= 4 * 3
        assert abs(mpjve_loss(y_hat, y).item() - expected) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        y_hat, y = rng.normal(size=(2, 5, 4, 3))
        rot = random_rotation(9)
        assert abs(mpjve_loss(y_hat, y).item()
                   - mpjve_loss(y_hat @ rot.T, y @ rot.T).item()) < 1e-9


class TestTotalLoss:
    def test_zero_weights_reduce_to_position_term(self):
        rng = np.random.default_rng(10)
        y_hat, y = rng.normal(size=(2, 6, 5, 3))
        weights = LossWeights(lambda_t=0.0, lambda_m=0.0, lambda_f=0.0)
        breakdown = total_loss(y_hat, y, weights)
        assert abs(breakdown.total.item() - wmpjpe(y_hat, y).item()) < 1e-12

    def test_equal_inputs_leave_only_temporal_term(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(6, 5, 3))
        weights = LossWeights(lambda_t=0.3, lambda_m=1.0, lambda_f=0.5)
        breakdown = total_loss(y, y, weights)
        assert breakdown.position.item() == 0.0
        assert breakdown.velocity.item() == 0.0
        assert breakdown.frequency.item() == 0.0
        assert abs(breakdown.total.item() - 0.3 * tc_loss(y).item()) < 1e-12

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(12)
        y_hat, y = rng.normal(size=(2, 6, 5, 3))
        weights = LossWeights(lambda_t=0.1, lambda_m=1.0, lambda_f=0.1)
        b = total_loss(y_hat, y, weights)
        recomposed = (b.position.item() + 0.1 * b.temporal.item()
                      + 1.0 * b.velocity.item() + 0.1 * b.frequency.item())
        assert abs(b.total.item() - recomposed) < 1e-12

    def test_monotone_in_each_lambda(self):
        rng = np.random.default_rng(13)
        y_hat, y = rng.normal(size=(2, 6, 5, 3))
        base = total_loss(y_hat, y, LossWeights(0.1, 1.0, 0.1)).total.item()
        assert total_loss(y_hat, y, LossWeights(0.2, 1.0, 0.1)).total.item() >= base
        assert total_loss(y_hat, y, LossWeights(0.1, 1.5, 0.1)).total.item() >= base
        assert total_loss(y_hat, y, LossWeights(0.1, 1.0, 0.9)).total.item() >= base

    def test_gradient(self):
        rng = np.random.default_rng(14)
        y = rng.normal(size=(5, 4, 3))
        y_hat = Tensor(rng.normal(size=(5, 4, 3)), requires_grad=True)
        weights = LossWeights(lambda_t=0.1, lambda_m=1.0, lambda_f=0.1)
        assert grad_check(lambda t: total_loss(t, y, weights).total, [y_hat]) < 1e-4


class TestLossWeights:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigError):
            LossWeights(lambda_t=-0.1)

    def test_rejects_all_zero_joint_weights(self):
        with pytest.raises(ConfigError):
            LossWeights(joint_weights=np.zeros(5))


# SHA-256 of every loss form's value, input gradient and tape node count on
# seeded float32 and float64 inputs, recorded on x86-64 with numpy 2.4 and
# its bundled OpenBLAS.  A change that moves any of them changes the seeded
# training runs; such a change updates this digest and says so.
LOSS_FINGERPRINT = "59e0a7b910b7d26edd4206b3ffd56cd71405814826ac72c06908af7e4575ebab"


def tape_nodes(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def weighted_spatial_axis(y_hat, y, w):
    """The per-spatial-axis loss with joint weights `w`, built as
    `freq_loss_spatial_axis` builds its unweighted form."""
    diff = trajectory_spectrum(y_hat) - trajectory_spectrum(y)
    return _weighted_mean(l2norm_last(diff.swapaxes(-3, -1)), w, 3.0 * len(w))


def test_loss_fingerprint():
    rng = np.random.default_rng(20)
    start, y = rng.normal(size=(2, 2, 9, 4, 3))
    w = rng.uniform(0.5, 2.0, size=4)
    forms = [
        lambda t: wmpjpe(t, y),
        lambda t: wmpjpe(t, y, w),
        lambda t: tc_loss(t),
        lambda t: tc_loss(t, w),
        lambda t: mpjve_loss(t, y),
        lambda t: freq_loss(t, y, FreqLossConfig(joint_weights=w)),
        lambda t: freq_loss(t, y, FreqLossConfig(truncation="top", keep=3, joint_weights=w)),
        lambda t: freq_loss(t, y, FreqLossConfig(truncation="low_weighted", keep=3,
                                                 down_weight=0.5, joint_weights=w)),
        lambda t: weighted_spatial_axis(t, y, w),
        lambda t: total_loss(t, y, LossWeights(joint_weights=w)).total,
    ]
    digest = hashlib.sha256()
    for dtype in (np.float32, np.float64):
        with precision(dtype):
            for form in forms:
                y_hat = Tensor(start, requires_grad=True)
                loss = form(y_hat)
                nodes = tape_nodes(loss)
                loss.backward()
                digest.update(loss.data.tobytes() + y_hat.grad.tobytes() + nodes.to_bytes(4, "little"))
    assert digest.hexdigest() == LOSS_FINGERPRINT

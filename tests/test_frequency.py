import numpy as np
import pytest
from scipy.fft import dct as scipy_dct

from poselift.errors import ConfigError, ShapeError
from poselift.frequency import (FreqLossConfig, dct_forward, dct_inverse, dct_matrix,
                                freq_loss, freq_loss_spatial_axis, trajectory_spectrum,
                                truncation_weights)
from poselift.numerics import Tensor, grad_check


def naive_dct(traj):
    """Direct O(T^2) summation of the coefficient formula."""
    t_len = len(traj)
    out = np.zeros(t_len)
    for u in range(1, t_len + 1):
        scale = np.sqrt(1.0 / t_len) if u == 1 else np.sqrt(2.0 / t_len)
        acc = 0.0
        for t in range(1, t_len + 1):
            acc += traj[t - 1] * np.cos(np.pi * (2 * t - 1) * (u - 1) / (2 * t_len))
        out[u - 1] = scale * acc
    return out


class TestDctMatrix:
    def test_size_one(self):
        assert dct_matrix(1).tolist() == [[1.0]]

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            dct_matrix(0)

    @pytest.mark.parametrize("size", [1, 2, 8, 27, 81, 243])
    def test_orthonormal(self, size):
        basis = dct_matrix(size)
        assert np.abs(basis @ basis.T - np.eye(size)).max() < 1e-10

    def test_first_row_constant(self):
        basis = dct_matrix(7)
        assert np.allclose(basis[0], np.sqrt(1.0 / 7))

    def test_entries_match_formula_oracle(self):
        basis = dct_matrix(8)
        for u in range(1, 9):
            scale = np.sqrt(1.0 / 8) if u == 1 else np.sqrt(2.0 / 8)
            for t in range(1, 9):
                expected = scale * np.cos(np.pi * (2 * t - 1) * (u - 1) / 16.0)
                assert abs(basis[u - 1, t - 1] - expected) < 1e-12

    def test_matches_scipy_ortho_dct(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=27)
        assert np.allclose(dct_forward(x), scipy_dct(x, type=2, norm="ortho"), atol=1e-12)


class TestDctTransforms:
    def test_constant_signal(self):
        coeffs = dct_forward(np.array([2.0, 2.0, 2.0, 2.0]))
        assert abs(coeffs[0] - 4.0) < 1e-12
        assert np.abs(coeffs[1:]).max() < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=31)
        assert abs(np.linalg.norm(x) - np.linalg.norm(dct_forward(x))) < 1e-9

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=16)
        assert np.abs(dct_forward(x) - naive_dct(x)).max() < 1e-9

    @pytest.mark.parametrize("size", [1, 2, 8, 27, 243])
    def test_round_trip(self, size):
        rng = np.random.default_rng(size)
        x = rng.normal(size=size)
        assert np.abs(dct_inverse(dct_forward(x)) - x).max() < 1e-9
        c = rng.normal(size=size)
        assert np.abs(dct_forward(dct_inverse(c)) - c).max() < 1e-9


def two_sample_case():
    """T=2, N=1: reference x-trajectory [0, 1]; prediction all zero."""
    y = np.zeros((2, 1, 3))
    y[1, 0, 0] = 1.0
    return np.zeros((2, 1, 3)), y


class TestFreqLoss:
    def test_zero_on_equal_inputs(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(9, 5, 3))
        assert freq_loss(y, y).item() == 0.0

    def test_two_sample_hand_value(self):
        y_hat, y = two_sample_case()
        assert abs(freq_loss(y_hat, y).item() - 0.7071) < 1e-4

    def test_spatial_axis_hand_value(self):
        y_hat, y = two_sample_case()
        assert abs(freq_loss_spatial_axis(y_hat, y).item() - 0.3333) < 1e-4

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 7, 4, 3))
        assert abs(freq_loss(a, b).item() - freq_loss(b, a).item()) < 1e-12

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 7, 4, 3))
        shifted_a, shifted_b = a.copy(), b.copy()
        shifted_a[..., 1] += 3.25
        shifted_b[..., 1] += 3.25
        assert abs(freq_loss(a, b).item() - freq_loss(shifted_a, shifted_b).item()) < 1e-9

    def test_depends_only_on_spectra(self):
        # coefficient-space reimplementation using scipy's DCT
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 11, 5, 3))
        ca = scipy_dct(a, type=2, norm="ortho", axis=0)
        cb = scipy_dct(b, type=2, norm="ortho", axis=0)
        oracle = np.linalg.norm(ca - cb, axis=-1).sum() / (11 * 5)
        assert abs(freq_loss(a, b).item() - oracle) < 1e-9

    def test_joint_weights(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 6, 3, 3))
        w = np.array([1.0, 2.0, 4.0])
        cfg = FreqLossConfig(joint_weights=w)
        ca = scipy_dct(a, type=2, norm="ortho", axis=0)
        cb = scipy_dct(b, type=2, norm="ortho", axis=0)
        oracle = (np.linalg.norm(ca - cb, axis=-1) * w).sum() / (6 * 3)
        assert abs(freq_loss(a, b, cfg).item() - oracle) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            freq_loss(np.zeros((4, 2, 3)), np.zeros((4, 3, 3)))
        with pytest.raises(ShapeError):
            freq_loss_spatial_axis(np.zeros((4, 2, 2)), np.zeros((4, 2, 2)))

    def test_gradient(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(5, 3, 3))
        y_hat = Tensor(rng.normal(size=(5, 3, 3)), requires_grad=True)
        assert grad_check(lambda t: freq_loss(t, y), [y_hat]) < 1e-4
        assert grad_check(lambda t: freq_loss_spatial_axis(t, y), [y_hat]) < 1e-4

    def test_batched_mean(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 6, 4, 3))
        b = rng.normal(size=(3, 6, 4, 3))
        single = np.mean([freq_loss(a[i], b[i]).item() for i in range(3)])
        assert abs(freq_loss(a, b).item() - single) < 1e-12

    def test_relabelling_invariance_uniform_weights(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(2, 6, 5, 3))
        perm = rng.permutation(5)
        assert abs(freq_loss_spatial_axis(a, b).item()
                   - freq_loss_spatial_axis(a[:, perm], b[:, perm]).item()) < 1e-12


class TestTruncation:
    def test_top_full_width_is_identity(self):
        y_hat, y = two_sample_case()
        cfg = FreqLossConfig(truncation="top", keep=2)
        assert abs(freq_loss(y_hat, y, cfg).item() - freq_loss(y_hat, y).item()) < 1e-12

    def test_top_one_drops_second_coefficient(self):
        y_hat, y = two_sample_case()
        cfg = FreqLossConfig(truncation="top", keep=1)
        assert abs(freq_loss(y_hat, y, cfg).item() - 0.3536) < 1e-4

    def test_low_weighted_unit_factor_is_identity(self):
        y_hat, y = two_sample_case()
        cfg = FreqLossConfig(truncation="low_weighted", keep=1, down_weight=1.0)
        assert abs(freq_loss(y_hat, y, cfg).item() - freq_loss(y_hat, y).item()) < 1e-12

    def test_low_weighted_scales_tail(self):
        y_hat, y = two_sample_case()
        cfg = FreqLossConfig(truncation="low_weighted", keep=1, down_weight=0.5)
        assert abs(freq_loss(y_hat, y, cfg).item() - (0.7071 + 0.5 * 0.7071) / 2) < 1e-4

    def test_keep_beyond_length_rejected(self):
        with pytest.raises(ConfigError):
            truncation_weights(4, FreqLossConfig(truncation="top", keep=5))

    def test_weight_vectors(self):
        top = truncation_weights(5, FreqLossConfig(truncation="top", keep=2))
        assert top.tolist() == [1, 1, 0, 0, 0]
        low = truncation_weights(5, FreqLossConfig(truncation="low_weighted", keep=2,
                                                   down_weight=0.25))
        assert low.tolist() == [1, 1, 0.25, 0.25, 0.25]

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            FreqLossConfig(truncation="top")
        with pytest.raises(ConfigError):
            FreqLossConfig(down_weight=0.0)


class TestTrajectorySpectrum:
    def test_shape_and_inverse(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(8, 5, 3))
        spec = trajectory_spectrum(y).data
        assert spec.shape == y.shape
        basis = dct_matrix(8)
        assert np.allclose(basis.T @ spec.reshape(8, -1), y.reshape(8, -1), atol=1e-9)

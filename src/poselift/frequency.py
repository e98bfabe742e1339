"""Orthonormal cosine transform of joint trajectories and the losses on it.

Each joint coordinate traces a length-T trajectory; transforming those
trajectories into the frequency domain lets a loss compare predicted and
reference motion spectrum-by-spectrum instead of frame-by-frame.  The
training loss is the per-frequency 3-vector form, with optional
truncation/down-weighting of high-frequency terms; the per-spatial-axis
whole-spectrum form is a standalone ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, as_tensor, l2norm_last


@lru_cache(maxsize=32)
def _dct_matrix_cached(size: int) -> np.ndarray:
    t = np.arange(1, size + 1, dtype=np.float64)
    u = np.arange(1, size + 1, dtype=np.float64)
    basis = np.cos(np.pi * np.outer(2.0 * t - 1.0, u - 1.0) / (2.0 * size)).T
    basis *= np.sqrt(2.0 / size)
    basis[0] = np.sqrt(1.0 / size)
    basis.setflags(write=False)
    return basis

def dct_matrix(size: int) -> np.ndarray:
    """T x T orthonormal DCT basis; row u is the u-th coefficient's vector.

    Row 1 is the constant sqrt(1/T); rows 2..T carry sqrt(2/T) times
    cos(pi (2t-1)(u-1) / 2T).  D @ D.T is the identity.
    """
    if size < 1:
        raise ConfigError(f"basis size must be >= 1, got {size}")
    return _dct_matrix_cached(int(size))


def dct_forward(traj: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of a length-T trajectory (basis @ traj)."""
    traj = np.asarray(traj, dtype=np.float64)
    if basis is None:
        basis = dct_matrix(traj.shape[0])
    if traj.shape[0] != basis.shape[0]:
        raise ShapeError(f"trajectory length {traj.shape[0]} != basis size {basis.shape[0]}")
    return basis @ traj


def dct_inverse(coeffs: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Trajectory from coefficients (basis.T @ coeffs)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if basis is None:
        basis = dct_matrix(coeffs.shape[0])
    if coeffs.shape[0] != basis.shape[0]:
        raise ShapeError(f"coefficient length {coeffs.shape[0]} != basis size {basis.shape[0]}")
    return basis.T @ coeffs


@dataclass
class FreqLossConfig:
    """Options for the per-frequency 3-vector loss.

    truncation: "all", "top" (keep the `keep` lowest frequencies), or
    "low_weighted" (scale terms above `keep` by `down_weight`).
    """

    truncation: str = "all"
    keep: int | None = None
    down_weight: float = 1.0
    joint_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.truncation not in ("all", "top", "low_weighted"):
            raise ConfigError(f"unknown truncation {self.truncation!r}")
        if self.truncation != "all" and (self.keep is None or self.keep < 1):
            raise ConfigError("truncation requires keep >= 1")
        if not 0.0 < self.down_weight <= 1.0:
            raise ConfigError(f"down_weight must lie in (0,1], got {self.down_weight}")


def truncation_weights(frames: int, cfg: FreqLossConfig) -> np.ndarray:
    """Length-T multiplier over frequency indices implementing cfg.truncation."""
    w = np.ones(frames, dtype=np.float64)
    if cfg.truncation == "all":
        return w
    if cfg.keep > frames:
        raise ConfigError(f"keep={cfg.keep} exceeds {frames} coefficients")
    if cfg.truncation == "top":
        w[cfg.keep:] = 0.0
    else:
        w[cfg.keep:] = cfg.down_weight
    return w


def apply_truncation(coeff_error_terms, cfg: FreqLossConfig):
    """Mask or down-weight per-frequency error terms, axis -2 = frequency.

    `coeff_error_terms` is (..., T, N): one non-negative term per
    frequency and joint.  Works on Tensors and plain arrays.
    """
    terms = as_tensor(coeff_error_terms)
    w = truncation_weights(terms.data.shape[-2], cfg)
    return terms * Tensor(w[:, None])


def _check_pose_shapes(y_hat, y):
    if y_hat.shape != y.shape:
        raise ShapeError(f"prediction {y_hat.shape} vs reference {y.shape}")
    if y_hat.ndim < 3 or y_hat.shape[-1] != 3:
        raise ShapeError(f"expected (..., T, N, 3), got {y_hat.shape}")


def _joint_weights(joints: int, w) -> np.ndarray:
    if w is None:
        return np.ones(joints, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (joints,):
        raise ShapeError(f"joint weights {w.shape} for {joints} joints")
    return w


def trajectory_spectrum(poses) -> Tensor:
    """DCT every joint-coordinate trajectory of a (..., T, N, 3) sequence."""
    poses = as_tensor(poses)
    shape = poses.data.shape
    frames = shape[-3]
    basis = Tensor(dct_matrix(frames))
    flat = poses.reshape(shape[:-3] + (frames, shape[-2] * 3))
    coeffs = basis @ flat
    return coeffs.reshape(shape)


def freq_loss(y_hat, y, cfg: FreqLossConfig | None = None) -> Tensor:
    """Mean weighted norm of per-frequency coefficient-vector errors.

    For each frequency u and joint n the x/y/z coefficients form a
    3-vector; the loss is (1 / (T N)) sum_u sum_n W_n ||F_hat - F||_2,
    averaged over any leading batch axes.
    """
    cfg = cfg or FreqLossConfig()
    y_hat, y = as_tensor(y_hat), as_tensor(y)
    _check_pose_shapes(y_hat.data, y.data)
    frames, joints = y_hat.data.shape[-3], y_hat.data.shape[-2]
    w_n = _joint_weights(joints, cfg.joint_weights)
    diff = trajectory_spectrum(y_hat) - trajectory_spectrum(y)
    terms = l2norm_last(diff)                      # (..., T, N)
    if cfg.truncation != "all":
        terms = apply_truncation(terms, cfg)
    weighted = terms * Tensor(w_n)
    per_seq = weighted.sum(axis=(-2, -1)) * (1.0 / (frames * joints))
    return per_seq.mean()


def freq_loss_spatial_axis(y_hat, y, joint_weights=None) -> Tensor:
    """Ablation baseline: whole-spectrum norms per spatial axis.

    (1 / 3N) sum_c sum_n W_n || F_hat_{n,c} - F_{n,c} ||_2 with the norm
    over all T coefficients of one axis's trajectory.
    """
    y_hat, y = as_tensor(y_hat), as_tensor(y)
    _check_pose_shapes(y_hat.data, y.data)
    joints = y_hat.data.shape[-2]
    w_n = _joint_weights(joints, joint_weights)
    diff = trajectory_spectrum(y_hat) - trajectory_spectrum(y)
    # norm over the frequency axis: (..., T, N, 3) -> (..., 3, N, T) -> (..., 3, N)
    per_axis = l2norm_last(diff.swapaxes(-3, -1))
    weighted = per_axis * Tensor(w_n)
    per_seq = weighted.sum(axis=(-2, -1)) * (1.0 / (3.0 * joints))
    return per_seq.mean()

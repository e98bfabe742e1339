"""Orthonormal cosine transform of joint trajectories and the losses on it.

Each joint coordinate traces a length-T trajectory; transforming those
trajectories into the frequency domain lets a loss compare predicted and
reference motion spectrum-by-spectrum instead of frame-by-frame.  The
training loss is the per-frequency 3-vector form, with optional
truncation/down-weighting of high-frequency terms; the per-spatial-axis
whole-spectrum form is a standalone ablation baseline.  Every training
loss checks its input with `_pose_pair` and reduces with `_weighted_mean`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, as_tensor, l2norm_last


@lru_cache(maxsize=32)
def dct_matrix(size: int) -> np.ndarray:
    """T x T orthonormal DCT basis; row u is the u-th coefficient's vector.

    Row 1 is the constant sqrt(1/T); rows 2..T carry sqrt(2/T) times
    cos(pi (2t-1)(u-1) / 2T).  D @ D.T is the identity.  The result is
    cached and read-only.
    """
    if size < 1:
        raise ConfigError(f"basis size must be >= 1, got {size}")
    t = np.arange(1, size + 1, dtype=np.float64)  # also the frequency index u
    basis = np.cos(np.pi * np.outer(2.0 * t - 1.0, t - 1.0) / (2.0 * size)).T
    basis *= np.sqrt(2.0 / size)
    basis[0] = np.sqrt(1.0 / size)
    basis.setflags(write=False)
    return basis


def dct_forward(traj: np.ndarray) -> np.ndarray:
    """Coefficients of a length-T trajectory, axis 0 = time (D @ traj)."""
    traj = np.asarray(traj, dtype=np.float64)
    return dct_matrix(traj.shape[0]) @ traj


def dct_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Trajectory from coefficients, axis 0 = frequency (D.T @ coeffs)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return dct_matrix(coeffs.shape[0]).T @ coeffs


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
    w[cfg.keep:] = 0.0 if cfg.truncation == "top" else cfg.down_weight
    return w


def _pose_pair(y_hat, y) -> tuple:
    """(y_hat, y) as Tensors of one (..., T, N, 3) shape, else ShapeError."""
    y_hat, y = as_tensor(y_hat), as_tensor(y)
    if y_hat.data.shape != y.data.shape:
        raise ShapeError(f"prediction {y_hat.data.shape} vs reference {y.data.shape}")
    if y_hat.data.ndim < 3 or y_hat.data.shape[-1] != 3:
        raise ShapeError(f"expected (..., T, N, 3), got {y_hat.data.shape}")
    return y_hat, y


def _joint_weights(joints: int, w) -> np.ndarray:
    if w is None:
        return np.ones(joints, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (joints,):
        raise ShapeError(f"joint weights {w.shape} for {joints} joints")
    return w


def _weighted_mean(terms: Tensor, joint_weights: np.ndarray | None, denom: float) -> Tensor:
    """(1 / denom) sum over the last two axes of `terms` (..., *, N), each
    joint's terms scaled by `joint_weights` unless None, averaged over any
    leading batch axes."""
    if joint_weights is not None:
        terms = terms * Tensor(joint_weights)
    return (terms.sum(axis=(-2, -1)) * (1.0 / denom)).mean()


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
    y_hat, y = _pose_pair(y_hat, y)
    frames, joints = y_hat.data.shape[-3], y_hat.data.shape[-2]
    terms = l2norm_last(trajectory_spectrum(y_hat) - trajectory_spectrum(y))   # (..., T, N)
    if cfg.truncation != "all":
        terms = terms * Tensor(truncation_weights(frames, cfg)[:, None])
    return _weighted_mean(terms, _joint_weights(joints, cfg.joint_weights), frames * joints)


def freq_loss_spatial_axis(y_hat, y) -> Tensor:
    """Ablation baseline: whole-spectrum norms per spatial axis.

    (1 / 3N) sum_c sum_n || F_hat_{n,c} - F_{n,c} ||_2 with the norm over
    all T coefficients of one axis's trajectory.
    """
    y_hat, y = _pose_pair(y_hat, y)
    joints = y_hat.data.shape[-2]
    diff = trajectory_spectrum(y_hat) - trajectory_spectrum(y)
    # norm over the frequency axis: (..., T, N, 3) -> (..., 3, N, T) -> (..., 3, N)
    per_axis = l2norm_last(diff.swapaxes(-3, -1))
    return _weighted_mean(per_axis, None, 3.0 * joints)

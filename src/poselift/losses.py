"""Training losses: weighted position, temporal consistency, velocity,
frequency, and their weighted combination.

All losses accept (T, N, 3) pose arrays or Tensors, with optional leading
batch axes reduced by arithmetic mean, and return scalar Tensors that
participate in differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .frequency import (FreqLossConfig, _joint_weights, _pose_pair, _weighted_mean,
                        freq_loss)
from .numerics import Tensor, l2norm_last


@dataclass
class LossWeights:
    """Coefficients of the composite loss and the per-joint weights."""

    lambda_t: float = 0.1
    lambda_m: float = 1.0
    lambda_f: float = 0.1
    joint_weights: np.ndarray | None = None

    def __post_init__(self):
        for name in ("lambda_t", "lambda_m", "lambda_f"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if self.joint_weights is not None:
            w = np.asarray(self.joint_weights, dtype=np.float64)
            if (w < 0).any() or not np.isfinite(w).all() or not (w > 0).any():
                raise ConfigError("joint weights must be finite, non-negative, not all zero")
            self.joint_weights = w


def _motion(poses: Tensor) -> Tensor:
    """Frame-to-frame displacement y_t - y_{t-1} of (..., T, N, 3) poses."""
    if poses.data.shape[-3] < 2:
        raise ConfigError(f"motion terms need at least 2 frames, got {poses.data.shape[-3]}")
    lead = (slice(None),) * (poses.data.ndim - 3)
    return poses[lead + (slice(1, None),)] - poses[lead + (slice(None, -1),)]


def wmpjpe(y_hat, y, joint_weights=None) -> Tensor:
    """Joint-weighted mean per-joint position error.

    (1 / (T N)) sum_n W_n sum_t ||y_hat_{t,n} - y_{t,n}||_2.
    """
    y_hat, y = _pose_pair(y_hat, y)
    frames, joints = y_hat.data.shape[-3], y_hat.data.shape[-2]
    return _weighted_mean(l2norm_last(y_hat - y), _joint_weights(joints, joint_weights),
                          frames * joints)


def tc_loss(y_hat, joint_weights=None) -> Tensor:
    """Temporal-consistency loss on the prediction's own motion.

    (1 / ((T-1) N)) sum_n W_n sum_{t>=2} ||y_hat_t - y_hat_{t-1}||_2.
    No reference enters: the term penalizes frame-to-frame displacement.
    """
    y_hat, _ = _pose_pair(y_hat, y_hat)
    frames, joints = y_hat.data.shape[-3], y_hat.data.shape[-2]
    return _weighted_mean(l2norm_last(_motion(y_hat)), _joint_weights(joints, joint_weights),
                          (frames - 1) * joints)


def mpjve_loss(y_hat, y) -> Tensor:
    """Velocity-error loss between prediction and reference.

    (1 / (T N)) sum_n sum_{t>=2} ||(y_hat_t - y_hat_{t-1}) - (y_t - y_{t-1})||_2.
    The denominator is T*N even though the sum has T-1 terms; the metric
    counterpart in `metrics` divides by (T-1)*N instead.
    """
    y_hat, y = _pose_pair(y_hat, y)
    frames, joints = y_hat.data.shape[-3], y_hat.data.shape[-2]
    return _weighted_mean(l2norm_last(_motion(y_hat) - _motion(y)), None, frames * joints)


@dataclass
class LossBreakdown:
    """Scalar Tensors for the composite loss and each raw term."""

    total: Tensor
    position: Tensor
    temporal: Tensor
    velocity: Tensor
    frequency: Tensor

    def values(self) -> dict:
        return {f.name: getattr(self, f.name).item() for f in fields(self)}


def total_loss(y_hat, y, weights: LossWeights, freq_cfg: FreqLossConfig | None = None) -> LossBreakdown:
    """Composite loss: position + lt*temporal + lm*velocity + lf*frequency.

    Every term is computed regardless of its weight so logging (and RNG
    consumption) is identical across weight settings.
    """
    w_n = weights.joint_weights
    pos = wmpjpe(y_hat, y, w_n)
    temp = tc_loss(y_hat, w_n)
    vel = mpjve_loss(y_hat, y)
    freq = freq_loss(y_hat, y, freq_cfg or FreqLossConfig(joint_weights=w_n))
    total = pos + weights.lambda_t * temp + weights.lambda_m * vel + weights.lambda_f * freq
    return LossBreakdown(total=total, position=pos, temporal=temp, velocity=vel, frequency=freq)

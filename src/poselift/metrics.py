"""Evaluation protocols: position error, Procrustes-aligned position error,
velocity error, and threshold-based keypoint accuracy.

All functions take plain (T, N, 3) numpy arrays in millimeters and return
floats; they are pure and never participate in differentiation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError


def _check(y_hat, y):
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_hat.shape != y.shape:
        raise ShapeError(f"prediction {y_hat.shape} vs reference {y.shape}")
    if y_hat.ndim != 3 or y_hat.shape[-1] != 3 or not y_hat.size:
        raise ShapeError(f"expected a non-empty (T, N, 3), got {y_hat.shape}")
    return y_hat, y


def mpjpe(y_hat, y) -> float:
    """Mean Euclidean distance per joint (protocol 1)."""
    y_hat, y = _check(y_hat, y)
    return float(np.linalg.norm(y_hat - y, axis=-1).mean())


def _align_frames(source: np.ndarray, target: np.ndarray, allow_scale: bool):
    """Umeyama (1991) alignment of each (N, 3) frame of `source` onto the
    matching frame of `target`, batched over the leading axis: one
    ``np.linalg.svd`` over the stacked (T, 3, 3) cross-covariances.

    Returns (aligned, degenerate) with `degenerate` a (T,) mask of frames
    whose point set collapsed; those get only the translation.
    """
    mu_s = source.mean(axis=-2, keepdims=True)
    mu_t = target.mean(axis=-2, keepdims=True)
    s0 = source - mu_s
    t0 = target - mu_t
    norm_s = np.sqrt((s0 ** 2).sum(axis=(-2, -1)))
    norm_t = np.sqrt((t0 ** 2).sum(axis=(-2, -1)))
    degenerate = (norm_s < 1e-12) | (norm_t < 1e-12)
    norm_s = np.where(degenerate, 1.0, norm_s)
    norm_t = np.where(degenerate, 1.0, norm_t)
    s0n = s0 / norm_s[:, None, None]
    t0n = t0 / norm_t[:, None, None]
    h = np.swapaxes(t0n, -1, -2) @ s0n
    u, sing, vt = np.linalg.svd(h)
    v = np.swapaxes(vt, -1, -2)
    ut = np.swapaxes(u, -1, -2)
    # Correct reflections to proper rotations.
    sign = np.sign(np.linalg.det(v @ ut))
    v[..., -1] *= sign[:, None]
    sing[..., -1] *= sign
    rot = v @ ut
    scale = sing.sum(axis=-1) * norm_t / norm_s if allow_scale else np.ones(len(source))
    aligned = scale[:, None, None] * s0 @ rot + mu_t
    aligned[degenerate] = (s0 + mu_t)[degenerate]
    return aligned, degenerate


def p_mpjpe(y_hat, y, allow_scale: bool = True, return_degenerate: bool = False):
    """Position error after per-frame Procrustes alignment (protocol 2).

    Each predicted frame is aligned to the reference frame by the
    closed-form similarity transform (rotation, translation, and uniform
    scale unless `allow_scale` is False) before measuring.
    """
    y_hat, y = _check(y_hat, y)
    aligned, degenerate = _align_frames(y_hat, y, allow_scale)
    value = float(np.linalg.norm(aligned - y, axis=-1).mean(axis=-1).mean())
    if return_degenerate:
        return value, int(degenerate.sum())
    return value


def mpjve(y_hat, y) -> float:
    """Mean per-joint velocity error in mm/frame.

    Mean over joints and frames 2..T of the norm of the frame-difference
    mismatch; denominator (T-1)*N, unlike the printed training loss.
    """
    y_hat, y = _check(y_hat, y)
    if y_hat.shape[0] < 2:
        raise ConfigError("velocity error needs at least 2 frames")
    v_hat = np.diff(y_hat, axis=0)
    v_ref = np.diff(y, axis=0)
    return float(np.linalg.norm(v_hat - v_ref, axis=-1).mean())


def _pck_auc(pairs) -> tuple:
    """(PCK, AUC) in percent over every joint of the checked (y_hat, y)
    pairs: the share with error <= 150 mm, and that share averaged over
    the thresholds 0, 5, ..., 150 mm."""
    grid = np.arange(0.0, 152.5, 5.0)
    correct = correct_grid = joints = 0.0
    for y_hat, y in pairs:
        err = np.linalg.norm(y_hat - y, axis=-1)
        correct += (err <= grid[-1]).sum()
        correct_grid += np.sum([(err <= thr).sum() for thr in grid])
        joints += err.size
    return float(100.0 * correct / joints), float(100.0 * correct_grid / (joints * len(grid)))


def pck_auc(y_hat, y) -> tuple:
    """PCK at 150 mm and its AUC over 0..150 mm, as in ``evaluate_sequences``.

    A joint counts as correct when its error is <= the threshold, so a
    perfect prediction scores (100, 100).
    """
    return _pck_auc([_check(y_hat, y)])


def root_relative(poses: np.ndarray, root_index: int = 0) -> np.ndarray:
    """Subtract the root joint's position from every joint, per frame."""
    poses = np.asarray(poses, dtype=np.float64)
    return poses - poses[..., root_index : root_index + 1, :]


@dataclass
class EvalReport:
    """Aggregated evaluation results, all non-negative, millimeter units."""

    mpjpe_mm: float
    p_mpjpe_mm: float
    mpjve_mm_per_frame: float | None
    pck_percent: float | None = None
    auc_percent: float | None = None
    per_action: dict = field(default_factory=dict)
    degenerate_frames: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_sequences(predictions, references, names=None, allow_scale: bool = True) -> EvalReport:
    """Metrics over matching, non-empty lists of non-empty (T, N, 3) mm arrays.

    Sequence-level values are aggregated weighted by their frame counts;
    the per-action map keeps each named sequence's own numbers.
    """
    if len(predictions) != len(references):
        raise ShapeError(f"{len(predictions)} predictions vs {len(references)} references")
    if len(predictions) == 0:
        raise ShapeError("no sequences to evaluate")
    if names is None:
        names = [f"seq{i}" for i in range(len(predictions))]
    per_action = {}
    pos_sum = pal_sum = frame_sum = 0.0
    vel_sum = vel_frames = 0.0
    checked = []
    degenerate = 0
    for name, y_hat, y in zip(names, predictions, references):
        y_hat, y = _check(y_hat, y)
        frames = y_hat.shape[0]
        e1 = mpjpe(y_hat, y)
        e2, bad = p_mpjpe(y_hat, y, allow_scale=allow_scale, return_degenerate=True)
        degenerate += bad
        entry = {"mpjpe_mm": e1, "p_mpjpe_mm": e2}
        pos_sum += e1 * frames
        pal_sum += e2 * frames
        frame_sum += frames
        if frames >= 2:
            ev = mpjve(y_hat, y)
            entry["mpjve_mm_per_frame"] = ev
            vel_sum += ev * (frames - 1)
            vel_frames += frames - 1
        checked.append((y_hat, y))
        per_action[name] = entry
    pck, auc = _pck_auc(checked)
    return EvalReport(
        mpjpe_mm=pos_sum / frame_sum,
        p_mpjpe_mm=pal_sum / frame_sum,
        mpjve_mm_per_frame=(vel_sum / vel_frames) if vel_frames else None,
        pck_percent=pck,
        auc_percent=auc,
        per_action=per_action,
        degenerate_frames=degenerate,
    )

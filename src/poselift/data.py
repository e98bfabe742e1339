"""Synthetic motion generation, camera projection, noise injection, and
pose-sequence file I/O.

Motion is produced by forward kinematics over a skeleton tree: each joint
carries a fixed offset from its parent (so bone lengths never change) and
an optional sinusoidal rotation.  A pinhole camera turns 3D millimeter
poses into image-normalized 2D keypoints in [-1, 1].

Sequence files use the ``PSEQ1`` format: magic, u32 frames/joints/channels,
f64 fps (finite, above 0), then the float32 little-endian payload in
(frame, joint, channel) order and nothing after it.
"""

from __future__ import annotations

import contextlib
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DataError, FormatError, ProjectionError,
                     ShapeError, ShapeOverflowError, TruncatedFileError)
from .skeleton import SkeletonGraph, human36m_skeleton


@dataclass
class PoseSequence:
    """T x N x C keypoint array plus its frame rate, finite and above 0.

    Channels: 2 = normalized image coordinates, 3 = millimeter 3D,
    5 = 2D and 3D concatenated (u, v, x, y, z).
    """

    values: np.ndarray
    fps: float = 50.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[2] not in (2, 3, 5):
            raise ShapeError(f"pose sequence must be (T, N, C) with C in {{2,3,5}}, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise DataError("pose sequence contains non-finite values")
        if not (np.isfinite(self.fps) and self.fps > 0):
            raise DataError(f"pose sequence fps must be finite and > 0, got {self.fps}")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def joints(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


# -- forward-kinematic motion -------------------------------------------------

# Rest offsets (mm, parent -> joint) for the 17-joint preset; the root offset
# places the subject ~4.5 m in front of the camera at the origin.
H36M_REST_OFFSETS_MM = np.array([
    [0.0, 0.0, 4500.0],      # hip (root position)
    [-130.0, 0.0, 0.0],      # right_hip
    [0.0, -450.0, 0.0],      # right_knee
    [0.0, -450.0, 0.0],      # right_ankle
    [130.0, 0.0, 0.0],       # left_hip
    [0.0, -450.0, 0.0],      # left_knee
    [0.0, -450.0, 0.0],      # left_ankle
    [0.0, 250.0, 0.0],       # spine
    [0.0, 250.0, 0.0],       # thorax
    [0.0, 120.0, 0.0],       # neck
    [0.0, 120.0, 0.0],       # head
    [150.0, 0.0, 0.0],       # left_shoulder
    [0.0, -280.0, 0.0],      # left_elbow
    [0.0, -250.0, 0.0],      # left_wrist
    [-150.0, 0.0, 0.0],      # right_shoulder
    [0.0, -280.0, 0.0],      # right_elbow
    [0.0, -250.0, 0.0],      # right_wrist
])


@dataclass
class JointWave:
    """Sinusoidal rotation of one joint: angle(t) = A sin(2 pi f t + phase)."""

    axis: tuple = (0.0, 0.0, 1.0)
    amplitude: float = 0.3
    frequency: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.frequency < 0:
            raise ConfigError(f"wave frequency must be >= 0, got {self.frequency}")
        if self.amplitude < 0:
            raise ConfigError(f"wave amplitude must be >= 0, got {self.amplitude}")
        axis = np.asarray(self.axis, dtype=np.float64)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ConfigError("wave axis must be non-zero")
        self.axis = tuple(axis / norm)


@dataclass
class MotionSpec:
    """Rest offsets plus per-joint rotation waves and a root sway."""

    rest_offsets: np.ndarray
    waves: dict = field(default_factory=dict)
    root_sway_mm: tuple = (0.0, 0.0, 0.0)
    root_sway_hz: float = 0.5
    root_sway_phase: float = 0.0

    def __post_init__(self):
        self.rest_offsets = np.asarray(self.rest_offsets, dtype=np.float64)
        if self.root_sway_hz < 0:
            raise ConfigError("root sway frequency must be >= 0")


def default_rest_offsets(skeleton: SkeletonGraph, rng: np.random.Generator) -> np.ndarray:
    """The anatomical offsets for the 17-joint preset, or seeded random
    bone vectors (length 200-500 mm) for other skeletons."""
    if skeleton.joint_count == 17 and skeleton.edges == human36m_skeleton().edges:
        return H36M_REST_OFFSETS_MM.copy()
    offsets = np.zeros((skeleton.joint_count, 3))
    offsets[skeleton.root_index] = (0.0, 0.0, 4500.0)
    for j in range(skeleton.joint_count):
        if j == skeleton.root_index:
            continue
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        offsets[j] = direction * rng.uniform(200.0, 500.0)
    return offsets


def random_motion_spec(skeleton: SkeletonGraph, rng: np.random.Generator) -> MotionSpec:
    """A smooth, seeded motion: most joints get a small rotation wave."""
    waves = {}
    for j in range(skeleton.joint_count):
        if j == skeleton.root_index or rng.random() < 0.25:
            continue
        waves[j] = JointWave(
            axis=tuple(rng.normal(size=3)),
            amplitude=rng.uniform(0.1, 0.5),
            frequency=rng.uniform(0.3, 1.5),
            phase=rng.uniform(0.0, 2.0 * np.pi),
        )
    return MotionSpec(
        rest_offsets=default_rest_offsets(skeleton, rng),
        waves=waves,
        root_sway_mm=tuple(rng.uniform(-80.0, 80.0, size=3)),
        root_sway_hz=rng.uniform(0.2, 0.8),
        root_sway_phase=rng.uniform(0.0, 2.0 * np.pi),
    )


def _axis_angle_matrices(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotation matrices, one per angle; axis is unit length."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    sin = np.sin(angles)[:, None, None]
    cos = np.cos(angles)[:, None, None]
    eye = np.eye(3)
    return eye + sin * k + (1.0 - cos) * (k @ k)


def generate_motion(skeleton: SkeletonGraph, frames: int, fps: float = 50.0,
                    seed: int = 0, motion_spec: MotionSpec | None = None) -> PoseSequence:
    """Forward-kinematic 3D motion (mm), deterministic per seed.

    Joint rotations compose down the tree: a joint's wave rotates the
    frames of everything below it, so bone lengths are exactly constant.
    """
    if frames < 1:
        raise ConfigError(f"frames must be >= 1, got {frames}")
    if not (np.isfinite(fps) and fps > 0):
        raise ConfigError(f"fps must be finite and > 0, got {fps}")
    rng = np.random.default_rng(seed)
    if motion_spec is None:
        motion_spec = random_motion_spec(skeleton, rng)
    offsets = motion_spec.rest_offsets
    if offsets.shape != (skeleton.joint_count, 3):
        raise ConfigError(f"rest offsets {offsets.shape} for {skeleton.joint_count} joints")

    n = skeleton.joint_count
    times = np.arange(frames, dtype=np.float64) / fps
    rotations = np.broadcast_to(np.eye(3), (frames, n, 3, 3)).copy()
    for j, wave in motion_spec.waves.items():
        angles = wave.amplitude * np.sin(2.0 * np.pi * wave.frequency * times + wave.phase)
        rotations[:, j] = _axis_angle_matrices(np.asarray(wave.axis), angles)

    order, parents, _ = skeleton.walk()
    positions = np.zeros((frames, n, 3))
    global_rot = np.zeros((frames, n, 3, 3))

    root = skeleton.root_index
    sway = np.asarray(motion_spec.root_sway_mm)[None, :] * np.sin(
        2.0 * np.pi * motion_spec.root_sway_hz * times + motion_spec.root_sway_phase)[:, None]
    positions[:, root] = offsets[root][None, :] + sway
    global_rot[:, root] = rotations[:, root]
    for j in order[1:]:
        p = parents[j]
        positions[:, j] = positions[:, p] + np.einsum("tab,b->ta", global_rot[:, p], offsets[j])
        global_rot[:, j] = global_rot[:, p] @ rotations[:, j]
    return PoseSequence(values=positions, fps=fps)


# -- camera --------------------------------------------------------------------


@dataclass
class Camera:
    """Pinhole camera at the origin looking along +z."""

    fx: float = 1000.0
    fy: float = 1000.0
    cx: float = 500.0
    cy: float = 500.0
    width: float = 1000.0
    height: float = 1000.0


def project_2d(seq3d: PoseSequence, camera: Camera | None = None) -> PoseSequence:
    """Pinhole-project mm poses, then normalize pixels to [-1, 1] per axis."""
    camera = camera or Camera()
    xyz = seq3d.values
    z = xyz[..., 2]
    if (z <= 1e-6).any():
        frame = int(np.argwhere(z <= 1e-6)[0][0])
        raise ProjectionError(f"joint at or behind the camera plane in frame {frame}")
    u = camera.fx * xyz[..., 0] / z + camera.cx
    v = camera.fy * xyz[..., 1] / z + camera.cy
    norm = np.stack([2.0 * u / camera.width - 1.0, 2.0 * v / camera.height - 1.0], axis=-1)
    return PoseSequence(values=norm, fps=seq3d.fps)


# -- group-wise noise ------------------------------------------------------------

# Joint groups of the 17-joint preset, inner to outer: root and torso;
# limb roots and head; mid-limb; limb ends.
H36M_NOISE_GROUPS = (
    (0, 7, 8),
    (1, 4, 9, 10, 11, 14),
    (2, 5, 12, 15),
    (3, 6, 13, 16),
)

DEFAULT_NOISE_STDS = (0.002, 0.01, 0.1, 0.2)


@dataclass
class NoiseConfig:
    """Four joint groups and the Gaussian std added to each (zero mean)."""

    groups: tuple[tuple[int, ...], ...] = H36M_NOISE_GROUPS
    stds: tuple[float, ...] = DEFAULT_NOISE_STDS

    def __post_init__(self):
        try:
            self.groups = tuple(tuple(g) for g in self.groups)
            self.stds = tuple(self.stds)
        except TypeError:
            raise ConfigError("noise groups must be a list of joint lists and stds "
                              "a list of numbers") from None
        if len(self.groups) != len(self.stds):
            raise ConfigError(f"{len(self.groups)} groups vs {len(self.stds)} stds")
        for s in self.stds:
            if not 0 <= s < np.inf:
                raise ConfigError(f"noise std must be finite and >= 0, got {s}")

    def validate_partition(self, joints: int) -> None:
        seen: list[int] = []
        for g in self.groups:
            seen.extend(g)
        if sorted(seen) != list(range(joints)):
            raise ConfigError(f"noise groups do not partition {joints} joints: {sorted(seen)}")

    def per_joint_std(self, joints: int) -> np.ndarray:
        self.validate_partition(joints)
        std = np.zeros(joints)
        for g, s in zip(self.groups, self.stds):
            for j in g:
                std[j] = s
        return std


def inject_noise(values: np.ndarray, cfg: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise per coordinate of a (..., N, 3)
    array, group-wise std, drawn from `rng`; the input is never modified."""
    values = np.asarray(values, dtype=np.float64)
    std = cfg.per_joint_std(values.shape[-2])
    noise = rng.normal(size=values.shape) * std[:, None]
    return values + noise


# -- file I/O -------------------------------------------------------------------

SEQUENCE_MAGIC = b"PSEQ1"
_MAX_ELEMENTS = 100_000_000


def write_sequence(seq: PoseSequence, path) -> None:
    with open(path, "wb") as f:
        f.write(SEQUENCE_MAGIC)
        t, n, c = seq.values.shape
        f.write(struct.pack("<III", t, n, c))
        f.write(struct.pack("<d", float(seq.fps)))
        f.write(np.ascontiguousarray(seq.values, dtype="<f4").tobytes())


def read_sequence(path) -> PoseSequence:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(SEQUENCE_MAGIC)] != SEQUENCE_MAGIC:
        raise FormatError(f"{path}: not a pose sequence file (bad magic)")
    header_end = len(SEQUENCE_MAGIC) + 12 + 8
    if len(blob) < header_end:
        raise TruncatedFileError(f"{path}: header truncated")
    t, n, c = struct.unpack_from("<III", blob, len(SEQUENCE_MAGIC))
    (fps,) = struct.unpack_from("<d", blob, len(SEQUENCE_MAGIC) + 12)
    if min(t, n, c) == 0 or t * n * c > _MAX_ELEMENTS:
        raise ShapeOverflowError(f"{path}: implausible dimensions {t}x{n}x{c}")
    if c not in (2, 3, 5):
        raise ShapeOverflowError(f"{path}: channel count {c} not in {{2,3,5}}")
    expected = header_end + 4 * t * n * c
    if len(blob) < expected:
        raise TruncatedFileError(f"{path}: payload truncated ({len(blob)} of {expected} bytes)")
    if len(blob) > expected:
        raise FormatError(f"{path}: {len(blob) - expected} bytes after the payload")
    values = np.frombuffer(blob[header_end:expected], dtype="<f4").astype(np.float64)
    return PoseSequence(values=values.reshape(t, n, c), fps=fps)


def export_csv(seq: PoseSequence, path) -> None:
    """One row per frame, columns j{i}_x, j{i}_y[, j{i}_z, ...] per joint."""
    suffixes = {2: ("x", "y"), 3: ("x", "y", "z"), 5: ("u", "v", "x", "y", "z")}[seq.channels]
    header = ",".join(f"j{j}_{s}" for j in range(seq.joints) for s in suffixes)
    _write_csv(header, seq.values.reshape(seq.frames, -1), path)


def _write_csv(header, rows, path) -> None:
    """`header` unless empty, then one line of ``.9g`` values per row, to
    the file `path`, or to standard output when `path` is empty."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as f:
        if header:
            f.write(header + "\n")
        for row in np.atleast_2d(rows):
            f.write(",".join(format(v, ".9g") for v in row) + "\n")

import hashlib

import numpy as np
import pytest

from poselift.data import (Camera, JointWave, MotionSpec, NoiseConfig, PoseSequence,
                           default_rest_offsets, export_csv, generate_motion,
                           inject_noise, project_2d, random_motion_spec,
                           read_sequence, write_sequence)
from poselift.errors import (ConfigError, DataError, FormatError, ProjectionError,
                             ShapeError, ShapeOverflowError, TruncatedFileError)
from poselift.skeleton import human36m_skeleton


class TestGenerateMotion:
    def test_zero_amplitudes_give_static_pose(self):
        sk = human36m_skeleton()
        spec = MotionSpec(rest_offsets=default_rest_offsets(sk, np.random.default_rng(0)), waves={})
        seq = generate_motion(sk, frames=10, seed=0, motion_spec=spec)
        assert np.allclose(seq.values, seq.values[0])

    def test_bone_lengths_constant(self):
        sk = human36m_skeleton()
        seq = generate_motion(sk, frames=40, seed=1)
        offsets = default_rest_offsets(sk, np.random.default_rng(0))
        parents = sk.parents()
        for j in range(1, sk.joint_count):
            bones = np.linalg.norm(seq.values[:, j] - seq.values[:, parents[j]], axis=-1)
            expected = np.linalg.norm(offsets[j])
            assert np.abs(bones - expected).max() < 1e-9 * max(expected, 1.0)

    def test_rotating_elbow_traces_circle_of_forearm_radius(self):
        sk = human36m_skeleton()
        offsets = default_rest_offsets(sk, np.random.default_rng(0))
        # joint 12 = left elbow; its wave swings the wrist (joint 13)
        spec = MotionSpec(rest_offsets=offsets,
                          waves={12: JointWave(axis=(0.0, 0.0, 1.0), amplitude=1.0,
                                               frequency=1.0, phase=0.25)})
        seq = generate_motion(sk, frames=60, fps=50.0, seed=2, motion_spec=spec)
        elbow = seq.values[:, 12]
        wrist = seq.values[:, 13]
        assert np.allclose(elbow, elbow[0])
        radii = np.linalg.norm(wrist - elbow, axis=-1)
        forearm = np.linalg.norm(offsets[13])
        assert np.abs(radii - forearm).max() < 1e-9 * forearm
        # motion confined to the rotation plane through the elbow
        assert np.abs((wrist - elbow)[:, 2] - (wrist - elbow)[0, 2]).max() < 1e-9

    def test_deterministic_per_seed_and_distinct_across_seeds(self):
        sk = human36m_skeleton()
        digests = set()
        for seed in range(20):
            a = generate_motion(sk, frames=12, seed=seed)
            b = generate_motion(sk, frames=12, seed=seed)
            assert np.array_equal(a.values, b.values)
            digests.add(hashlib.sha256(a.values.tobytes()).hexdigest())
        assert len(digests) == 20

    def test_rejects_negative_frequency(self):
        with pytest.raises(ConfigError):
            JointWave(frequency=-1.0)

    def test_rejects_bad_frames(self):
        with pytest.raises(ConfigError):
            generate_motion(human36m_skeleton(), frames=0, seed=0)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_fps(self, fps):
        with pytest.raises(ConfigError, match="fps"):
            generate_motion(human36m_skeleton(), frames=3, fps=fps, seed=0)


class TestProjection:
    def test_optical_axis_maps_to_principal_point(self):
        cam = Camera(fx=1000, fy=1000, cx=500, cy=500, width=1000, height=1000)
        seq = PoseSequence(values=np.array([[[0.0, 0.0, 4000.0]] * 17]))
        out = project_2d(seq, cam)
        # principal point at the image center normalizes to the origin
        assert np.allclose(out.values, 0.0)

    def test_doubling_depth_halves_offset(self):
        cam = Camera()
        near = PoseSequence(values=np.full((1, 17, 3), [300.0, 200.0, 2000.0]))
        far = PoseSequence(values=np.full((1, 17, 3), [300.0, 200.0, 4000.0]))
        off_near = project_2d(near, cam).values
        off_far = project_2d(far, cam).values
        assert np.allclose(off_near, 2.0 * off_far, atol=1e-12)

    def test_matches_scalar_projection_oracle(self):
        cam = Camera(fx=900.0, fy=1100.0, cx=480.0, cy=520.0, width=1000.0, height=1000.0)
        rng = np.random.default_rng(3)
        xyz = rng.uniform([-500, -500, 3000], [500, 500, 6000], size=(4, 17, 3))
        out = project_2d(PoseSequence(values=xyz), cam).values
        for t in range(4):
            for n in range(17):
                x, y, z = xyz[t, n]
                u = cam.fx * x / z + cam.cx
                v = cam.fy * y / z + cam.cy
                assert abs(out[t, n, 0] - (2 * u / cam.width - 1)) < 1e-12
                assert abs(out[t, n, 1] - (2 * v / cam.height - 1)) < 1e-12

    def test_behind_camera_rejected_with_frame_index(self):
        xyz = np.full((3, 17, 3), [0.0, 0.0, 4000.0])
        xyz[1, 5, 2] = -10.0
        with pytest.raises(ProjectionError, match="frame 1"):
            project_2d(PoseSequence(values=xyz))


class TestNoise:
    def test_zero_std_is_identity(self):
        cfg = NoiseConfig(stds=(0.0, 0.0, 0.0, 0.0))
        values = np.random.default_rng(5).normal(size=(8, 17, 3))
        out = inject_noise(values, cfg, np.random.default_rng(0))
        assert np.array_equal(out, values)

    def test_input_untouched_and_seed_reproducible(self):
        cfg = NoiseConfig()
        values = np.random.default_rng(6).normal(size=(8, 17, 3))
        copy = values.copy()
        a = inject_noise(values, cfg, np.random.default_rng(7))
        b = inject_noise(values, cfg, np.random.default_rng(7))
        assert np.array_equal(values, copy)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, values)

    def test_empirical_stds_match_groups(self):
        cfg = NoiseConfig()
        frames = 3000  # 3000*17*3 > 1e5 samples overall
        zeros = np.zeros((frames, 17, 3))
        noisy = inject_noise(zeros, cfg, np.random.default_rng(8))
        # terminal-limb joint (right wrist = 16): std 0.2
        assert abs(noisy[:, 16].std() - 0.2) < 0.01
        # torso joint (spine = 7): std 0.002
        assert abs(noisy[:, 7].std() - 0.002) < 1e-4
        # mid-limb (right knee = 2): std 0.1; limb-root (left hip = 4): std 0.01
        assert abs(noisy[:, 2].std() - 0.1) < 0.01
        assert abs(noisy[:, 4].std() - 0.01) < 1e-3

    def test_groups_must_partition(self):
        cfg = NoiseConfig(groups=((0, 1), (1, 2), (3,), (4,)), stds=(1, 1, 1, 1))
        with pytest.raises(ConfigError):
            cfg.validate_partition(5)

    @pytest.mark.parametrize("fields", [{"groups": 5}, {"groups": (5, 6, 7, 8)},
                                        {"stds": 0.1}])
    def test_non_sequence_groups_or_stds_rejected(self, fields):
        with pytest.raises(ConfigError, match="noise groups"):
            NoiseConfig(**fields)


class TestSequenceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(9, 17, 3)).astype(np.float32).astype(np.float64)
        seq = PoseSequence(values=values, fps=30.0)
        path = tmp_path / "seq.pseq"
        write_sequence(seq, path)
        loaded = read_sequence(path)
        assert np.array_equal(loaded.values, values)
        assert loaded.fps == 30.0

    def test_magic(self, tmp_path):
        path = tmp_path / "seq.pseq"
        write_sequence(PoseSequence(values=np.zeros((1, 2, 3))), path)
        assert path.read_bytes()[:5] == b"PSEQ1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pseq"
        path.write_bytes(b"JUNK!" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_sequence(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "seq.pseq"
        write_sequence(PoseSequence(values=np.ones((4, 17, 3))), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TruncatedFileError):
            read_sequence(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "seq.pseq"
        write_sequence(PoseSequence(values=np.ones((4, 17, 3))), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError, match="4 bytes after the payload"):
            read_sequence(path)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -5.0, 0.0])
    def test_bad_fps_in_file_rejected(self, tmp_path, fps):
        import struct
        path = tmp_path / "seq.pseq"
        write_sequence(PoseSequence(values=np.ones((2, 3, 3))), path)
        blob = bytearray(path.read_bytes())
        blob[17:25] = struct.pack("<d", fps)  # after the magic and three u32 dims
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="fps"):
            read_sequence(path)

    def test_shape_overflow(self, tmp_path):
        import struct
        path = tmp_path / "huge.pseq"
        path.write_bytes(b"PSEQ1" + struct.pack("<III", 2 ** 30, 2 ** 10, 3)
                         + struct.pack("<d", 50.0))
        with pytest.raises(ShapeOverflowError):
            read_sequence(path)

    def test_corpus_round_trip_preserves_checksums(self, tmp_path):
        sk = human36m_skeleton()
        digests_in, digests_out = [], []
        for i in range(100):
            rng = np.random.default_rng(i)
            values = rng.normal(size=(3, 4, 3)).astype(np.float32).astype(np.float64)
            seq = PoseSequence(values=values)
            path = tmp_path / f"{i}.pseq"
            write_sequence(seq, path)
            digests_in.append(hashlib.sha256(values.astype("<f4").tobytes()).hexdigest())
            loaded = read_sequence(path)
            digests_out.append(hashlib.sha256(loaded.values.astype("<f4").tobytes()).hexdigest())
        assert digests_in == digests_out

    def test_csv_export(self, tmp_path):
        values = np.arange(12.0).reshape(2, 2, 3)
        path = tmp_path / "seq.csv"
        export_csv(PoseSequence(values=values), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j0_x,j0_y,j0_z,j1_x,j1_y,j1_z"
        assert [float(v) for v in lines[1].split(",")] == list(range(6))


class TestPoseSequence:
    def test_rejects_bad_channel_count(self):
        with pytest.raises(ShapeError):
            PoseSequence(values=np.zeros((2, 3, 4)))

    def test_rejects_non_finite(self):
        values = np.zeros((2, 3, 3))
        values[0, 0, 0] = np.nan
        with pytest.raises(DataError):
            PoseSequence(values=values)

    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), -5.0, 0.0])
    def test_rejects_bad_fps(self, fps):
        with pytest.raises(DataError, match="fps"):
            PoseSequence(values=np.zeros((2, 3, 3)), fps=fps)

    def test_random_spec_has_valid_axes(self):
        spec = random_motion_spec(human36m_skeleton(), np.random.default_rng(12))
        for wave in spec.waves.values():
            assert abs(np.linalg.norm(wave.axis) - 1.0) < 1e-12

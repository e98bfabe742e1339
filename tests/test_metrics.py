import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from poselift import metrics
from poselift.errors import ConfigError, ShapeError
from poselift.metrics import (EvalReport, evaluate_sequences, mpjpe, mpjve,
                              p_mpjpe, pck_auc, root_relative)


def random_rotation(seed):
    return Rotation.random(random_state=seed).as_matrix()


def random_poses(seed, frames=8, joints=17, scale=100.0):
    return np.random.default_rng(seed).normal(scale=scale, size=(frames, joints, 3))


class TestMpjpe:
    def test_identical(self):
        y = random_poses(0)
        assert mpjpe(y, y) == 0.0

    def test_three_four_zero(self):
        y_hat = np.array([[[3.0, 4.0, 0.0]]])
        assert mpjpe(y_hat, np.zeros((1, 1, 3))) == 5.0

    def test_matches_loop_oracle(self):
        y_hat, y = random_poses(1, 3, 4), random_poses(2, 3, 4)
        total = 0.0
        for t in range(3):
            for n in range(4):
                total += np.linalg.norm(y_hat[t, n] - y[t, n])
        assert abs(mpjpe(y_hat, y) - total / 12) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mpjpe(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)))
        # Empty poses, and an empty list of sequences, are refused too.
        whole = lambda a, b: evaluate_sequences([a], [b])  # noqa: E731
        for shape in ((0, 17, 3), (5, 0, 3)):
            for metric in (mpjpe, p_mpjpe, pck_auc, mpjve, whole):
                with pytest.raises(ShapeError, match="non-empty"):
                    metric(np.zeros(shape), np.zeros(shape))
        with pytest.raises(ShapeError, match="no sequences"):
            evaluate_sequences([], [])


class TestPmpjpe:
    def test_exact_rigid_transform_recovered(self):
        y = random_poses(3)
        rot = random_rotation(4)
        y_hat = y @ rot.T + np.array([100.0, -50.0, 20.0])
        assert p_mpjpe(y_hat, y) < 1e-6

    def test_scale_absorbed(self):
        y = random_poses(5)
        assert p_mpjpe(2.0 * y, y) < 1e-6

    def test_scale_not_absorbed_when_rigid_only(self):
        y = random_poses(6)
        assert p_mpjpe(2.0 * y, y, allow_scale=False) > 1.0

    def test_never_exceeds_mpjpe(self):
        for seed in range(20):
            y_hat = random_poses(seed, 4, 17)
            y = y_hat + np.random.default_rng(seed + 100).normal(scale=30.0, size=y_hat.shape)
            assert p_mpjpe(y_hat, y) <= mpjpe(y_hat, y) + 1e-9

    def test_invariant_to_similarity_transform_of_prediction(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            y = random_poses(seed + 50)
            y_hat = y + rng.normal(scale=25.0, size=y.shape)
            base = p_mpjpe(y_hat, y)
            rot = random_rotation(seed)
            transformed = 1.7 * y_hat @ rot.T + rng.normal(scale=200.0, size=3)
            assert abs(p_mpjpe(transformed, y) - base) < 1e-6

    def test_matches_iterative_refinement_oracle(self):
        # optimize rotation-vector + log-scale + translation directly
        rng = np.random.default_rng(8)
        source = rng.normal(size=(6, 3))
        target = source @ random_rotation(9).T * 1.3 + rng.normal(size=(6, 3)) * 0.3

        def objective(params):
            rot = Rotation.from_rotvec(params[:3]).as_matrix()
            scale = np.exp(params[3])
            moved = scale * source @ rot.T + params[4:]
            return ((moved - target) ** 2).sum()

        best = min(
            (minimize(objective, np.concatenate([rv, [0.0], np.zeros(3)]), method="Nelder-Mead",
                      options={"maxiter": 8000, "xatol": 1e-12, "fatol": 1e-14})
             for rv in (np.zeros(3), np.array([2.0, 0.0, 0.0]), np.array([0.0, 2.0, 1.0]))),
            key=lambda r: r.fun,
        )
        aligned = metrics._align_frames(source[None], target[None], allow_scale=True)[0][0]
        closed_form = ((aligned - target) ** 2).sum()
        assert closed_form <= best.fun + 1e-6

    def test_batched_alignment_matches_per_frame_kabsch(self):
        # Per-frame Umeyama with its own SVD per frame, reflections included.
        y = random_poses(11, frames=12)
        y_hat = y + np.random.default_rng(12).normal(scale=40.0, size=y.shape)
        y_hat[::3] *= np.array([1.0, 1.0, -1.0])
        for allow_scale in (True, False):
            frames = []
            for src, dst in zip(y_hat, y):
                s0, t0 = src - src.mean(axis=0), dst - dst.mean(axis=0)
                ns, nt = np.linalg.norm(s0), np.linalg.norm(t0)
                u, sing, vt = np.linalg.svd((t0 / nt).T @ (s0 / ns))
                d = np.sign(np.linalg.det(vt.T @ u.T))
                fix = np.diag([1.0, 1.0, d])
                rot = vt.T @ fix @ u.T
                scale = (sing * np.diag(fix)).sum() * nt / ns if allow_scale else 1.0
                aligned = scale * s0 @ rot + dst.mean(axis=0)
                frames.append(np.linalg.norm(aligned - dst, axis=-1).mean())
            aligned, degenerate = metrics._align_frames(y_hat, y, allow_scale)
            per_frame = np.linalg.norm(aligned - y, axis=-1).mean(axis=-1)
            assert not degenerate.any()
            assert np.abs(per_frame - frames).max() < 1e-9
            assert abs(p_mpjpe(y_hat, y, allow_scale=allow_scale) - np.mean(frames)) < 1e-9

    def test_degenerate_frame_flagged(self):
        y = random_poses(10, frames=3)
        y_hat = y.copy()
        y_hat[1] = 7.7  # every joint coincident in this frame
        value, degenerate = p_mpjpe(y_hat, y, return_degenerate=True)
        assert degenerate == 1
        assert np.isfinite(value)


class TestMpjve:
    def test_identical(self):
        y = random_poses(11)
        assert mpjve(y, y) == 0.0

    def test_constant_offset_invariance(self):
        y = random_poses(12)
        assert mpjve(y + np.array([5.0, 5.0, 5.0]), y) < 1e-12

    def test_matches_loop_oracle_with_tminus1_denominator(self):
        y_hat, y = random_poses(13, 4, 3), random_poses(14, 4, 3)
        total = 0.0
        for t in range(1, 4):
            for n in range(3):
                total += np.linalg.norm((y_hat[t, n] - y_hat[t - 1, n]) - (y[t, n] - y[t - 1, n]))
        assert abs(mpjve(y_hat, y) - total / (3 * 3)) < 1e-12

    def test_needs_two_frames(self):
        with pytest.raises(ConfigError):
            mpjve(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)))


class TestPckAuc:
    def test_perfect_prediction(self):
        y = random_poses(15)
        assert pck_auc(y, y) == (100.0, 100.0)

    def test_all_errors_at_200mm(self):
        y = random_poses(16)
        y_hat = y + np.array([200.0, 0.0, 0.0])
        assert pck_auc(y_hat, y) == (0.0, 0.0)

    def test_counting_oracle(self):
        y = np.zeros((1, 4, 3))
        offsets = np.array([10.0, 60.0, 140.0, 160.0])
        y_hat = y.copy()
        y_hat[0, :, 0] = offsets
        pck, auc = pck_auc(y_hat, y)
        assert pck == 75.0  # three of four within 150mm
        grid = np.arange(0.0, 151.0, 5.0)
        expected_auc = 100.0 * np.mean([(offsets <= thr).mean() for thr in grid])
        assert abs(auc - expected_auc) < 1e-9


class TestInvariancesAndAggregation:
    def test_metrics_invariant_under_shared_rigid_motion(self):
        y_hat, y = random_poses(17), random_poses(18)
        rot = random_rotation(19)
        t = np.array([10.0, 20.0, 30.0])
        assert abs(mpjpe(y_hat @ rot.T + t, y @ rot.T + t) - mpjpe(y_hat, y)) < 1e-9
        assert abs(p_mpjpe(y_hat @ rot.T + t, y @ rot.T + t) - p_mpjpe(y_hat, y)) < 1e-6
        assert abs(mpjve(y_hat @ rot.T + t, y @ rot.T + t) - mpjve(y_hat, y)) < 1e-9

    def test_root_relative(self):
        y = random_poses(20)
        rel = root_relative(y, 0)
        assert np.allclose(rel[:, 0], 0.0)
        assert np.allclose(rel[:, 3], y[:, 3] - y[:, 0])

    def test_evaluate_sequences_aggregates_by_frames(self):
        y1, r1 = random_poses(21, frames=4), random_poses(22, frames=4)
        y2, r2 = random_poses(23, frames=8), random_poses(24, frames=8)
        report = evaluate_sequences([y1, y2], [r1, r2], names=["a", "b"])
        expected = (mpjpe(y1, r1) * 4 + mpjpe(y2, r2) * 8) / 12
        assert abs(report.mpjpe_mm - expected) < 1e-9
        assert set(report.per_action) == {"a", "b"}
        assert report.per_action["a"]["mpjpe_mm"] == mpjpe(y1, r1)

    def test_report_fields_non_negative(self):
        y, r = random_poses(25), random_poses(26)
        report = evaluate_sequences([y], [r])
        assert report.mpjpe_mm >= 0 and report.p_mpjpe_mm >= 0
        assert 0 <= report.pck_percent <= 100
        doc = report.to_dict()
        assert doc["mpjpe_mm"] == report.mpjpe_mm

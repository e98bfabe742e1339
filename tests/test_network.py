import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from poselift import network, numerics
from poselift.errors import ConfigError, ShapeError
from poselift.hga import hga_forward
from poselift.losses import total_loss
from poselift.network import (EncoderParams, ModelConfig, PoseLifter, embed_input,
                              encoder_forward, regression_head,
                              spatial_block_forward, temporal_block_forward,
                              two_stage_forward)
from poselift.numerics import (Parameter, Tensor, gelu, grad_check, linear, no_grad,
                               precision)
from poselift.skeleton import SkeletonGraph, human36m_skeleton
from poselift.training import AdamW, TrainConfig


TRAIN_STEP_FINGERPRINT = "b6d80727ae3ce7d0d7f2fa343a37b25eddf76ca402935cf9be17c3fc187a05ea"


def chain_skeleton(n=3):
    return SkeletonGraph(joint_count=n, edges=[(i, i + 1) for i in range(n - 1)])


def tiny_config(channels_in=2, depth=1):
    return ModelConfig(frames=3, joints=3, channels_in=channels_in, embed_dim=4,
                       depth=depth, ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.0)


def tape_counts(root):
    """Nodes reachable from `root` and the bytes of the arrays they own.

    The same walk as perfbench's ``workloads.tape_counts`` (a view is
    charged to the array that owns its memory, each owner once), kept here
    because the benchmark's directory is not an importable package and the
    unit tests put only ``src`` on the path.
    """
    seen, owners, stack = set(), {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            base = node.data
            while isinstance(base.base, np.ndarray):
                base = base.base
            owners[id(base)] = base.nbytes
            stack.extend(node._parents)
    return len(seen), sum(owners.values())


def snapshot(model):
    return {name: np.array(value) for name, value in model.state_dict().items()}


def assert_unchanged(model, state_before):
    """Every parameter and buffer of `model` equals its copy in `state_before`."""
    state = model.state_dict()
    assert state.keys() == state_before.keys()
    for name, value in state.items():
        assert np.array_equal(value, state_before[name]), name


def desk_config(channels_in=5, depth=2, frames=27):
    return ModelConfig(frames=frames, joints=17, channels_in=channels_in,
                       embed_dim=64, depth=depth, dropout=0.0)


class TestModelConfig:
    def test_rejects_bad_channels(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels_in=3)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=30, ste_heads=8)

    def test_hop_weights_default_to_ones(self):
        cfg = ModelConfig(hop_count=3)
        assert cfg.hop_weights == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field, value, named", [
        ("lambda_t", -1.0, "lambda_t"), ("lambda_m", -0.5, "lambda_m"),
        ("lambda_f", float("nan"), "lambda_f"), ("joint_weights", (-1.0,) + (1.0,) * 16, "joint"),
        ("hop_weights", (-1.0, 1.0), "hop weights"), ("hop_weights", (1.0, 2.0), "hop weights"),
        ("hop_weights", (1.0,), "hop weights")])
    def test_rejects_out_of_range_weights(self, field, value, named):
        with pytest.raises(ConfigError, match=named):
            ModelConfig(**{field: value})

    def test_json_round_trip(self):
        cfg = desk_config()
        doc = json.loads(TrainConfig(stage="main", model=cfg).to_json())
        assert TrainConfig.from_dict(doc).model == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="embed_dims"):
            TrainConfig.from_dict({"model": {"embed_dims": 64}})


class TestEmbedAndHead:
    def test_zero_input_zero_pe(self):
        w = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        out = embed_input(Tensor(np.zeros((3, 3, 2))), w, Tensor(np.zeros(4)),
                          Tensor(np.zeros((3, 4))))
        assert not out.data.any()

    def test_identity_embedding(self):
        x = np.random.default_rng(1).normal(size=(3, 3, 2))
        out = embed_input(Tensor(x), Tensor(np.eye(2)), Tensor(np.zeros(2)),
                          Tensor(np.zeros((3, 2))))
        assert np.array_equal(out.data, x)

    def test_shape_contract(self):
        w = Tensor(np.random.default_rng(2).normal(size=(5, 64)))
        out = embed_input(Tensor(np.zeros((27, 17, 5))), w, Tensor(np.zeros(64)),
                          Tensor(np.zeros((17, 64))))
        assert out.data.shape == (27, 17, 64)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            embed_input(Tensor(np.zeros((3, 3, 2))), Tensor(np.zeros((5, 8))),
                        Tensor(np.zeros(8)), Tensor(np.zeros((3, 8))))

    def test_regression_head(self):
        x = np.random.default_rng(3).normal(size=(4, 5, 8))
        zero = Tensor(np.zeros(3))
        assert not regression_head(Tensor(x), Tensor(np.zeros((8, 3))), zero).data.any()
        w = np.random.default_rng(4).normal(size=(8, 3))
        out = regression_head(Tensor(x), Tensor(w), zero)
        assert out.data.shape == (4, 5, 3)
        for t in range(4):
            assert np.allclose(out.data[t], x[t] @ w, atol=1e-12)


class TestEncoder:
    def test_zeroed_weights_reproduce_input(self):
        rng = np.random.default_rng(5)
        enc = EncoderParams(channels=8, heads=2, ff_expansion=2, rng=rng, prefix="e")
        for p in (enc.w_o, enc.b_o, enc.w_ff2, enc.b_ff2):
            p.data = np.zeros_like(p.data)
        x = rng.normal(size=(4, 5, 8))
        out = encoder_forward(Tensor(x), enc)
        assert np.array_equal(out.data, x)

    def test_gradients(self):
        rng = np.random.default_rng(6)
        enc = EncoderParams(channels=4, heads=2, ff_expansion=2, rng=rng, prefix="e")
        x = rng.normal(size=(3, 4, 4))
        assert grad_check(lambda *ps: encoder_forward(Tensor(x), enc), enc.parameters()) < 1e-4


class TestBlocks:
    def test_spatial_block_shape(self):
        cfg = ModelConfig(frames=4, joints=17, channels_in=5, embed_dim=32, dropout=0.0)
        model = PoseLifter(cfg, human36m_skeleton(), seed=0)
        sb, _ = model.blocks[0]
        x = np.random.default_rng(7).normal(size=(4, 17, 32))
        out = spatial_block_forward(Tensor(x), sb, model.hybrid.skeletal)
        assert out.data.shape == (4, 17, 32)

    def test_temporal_block_shape_and_constant_input(self):
        cfg = tiny_config()
        model = PoseLifter(cfg, chain_skeleton(), seed=1)
        _, tb = model.blocks[0]
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 3, 4))
        out = temporal_block_forward(Tensor(x), tb)
        assert out.data.shape == (3, 3, 4)
        # temporally constant input with zeroed FF/out projections stays constant
        for tte in tb.ttes:
            for p in (tte.w_o, tte.b_o, tte.w_ff2, tte.b_ff2):
                p.data = np.zeros_like(p.data)
        const = np.tile(rng.normal(size=(1, 3, 4)), (3, 1, 1))
        out = temporal_block_forward(Tensor(const), tb).data
        assert np.allclose(out, const, atol=1e-12)

    def test_spatial_block_gradient(self):
        cfg = tiny_config()
        model = PoseLifter(cfg, chain_skeleton(), seed=2)
        sb, _ = model.blocks[0]
        x = np.random.default_rng(9).normal(size=(2, 3, 4))
        err = grad_check(lambda *ps: spatial_block_forward(Tensor(x), sb, model.hybrid.skeletal,
                                                           training=True),
                         sb.parameters())
        assert err < 1e-4

    def test_temporal_block_gradient(self):
        cfg = tiny_config()
        model = PoseLifter(cfg, chain_skeleton(), seed=3)
        _, tb = model.blocks[0]
        x = np.random.default_rng(10).normal(size=(2, 3, 4))
        assert grad_check(lambda *ps: temporal_block_forward(Tensor(x), tb),
                          tb.parameters()) < 1e-4


class TestPoseLifter:
    def test_shape_contract(self):
        model = PoseLifter(desk_config(), human36m_skeleton(), seed=4)
        x = np.random.default_rng(11).normal(size=(27, 17, 5))
        assert model.forward(x).data.shape == (27, 17, 3)

    def test_batched_forward_matches_sequential(self):
        model = PoseLifter(tiny_config(), chain_skeleton(), seed=5)
        xs = np.random.default_rng(12).normal(size=(3, 3, 3, 2))
        batched = model.forward(xs).data
        for i in range(3):
            assert np.allclose(batched[i], model.forward(xs[i]).data, atol=1e-10)

    def test_determinism(self):
        model = PoseLifter(desk_config(), human36m_skeleton(), seed=6)
        x = np.random.default_rng(13).normal(size=(27, 17, 5))
        assert np.array_equal(model.forward(x).data, model.forward(x).data)

    def test_wrong_frames_or_channels_rejected(self):
        model = PoseLifter(tiny_config(), chain_skeleton(), seed=7)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((3, 3, 5)))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((4, 3, 2)))

    def test_end_to_end_gradient(self):
        model = PoseLifter(tiny_config(depth=1), chain_skeleton(), seed=8)
        x = np.random.default_rng(14).normal(size=(3, 3, 2))
        err = grad_check(lambda *ps: model.forward(Tensor(x), training=True),
                         model.parameters())
        assert err < 1e-4

    def test_training_tape_node_count(self):
        # Regression guard for the fused attention, normalisation, head
        # split and merge, residual dropout, projected GELU, HGA GELU with
        # its residual and concatenating linear nodes, the HGA's adjacency
        # sum with its product (`aggregate_hybrid`), and for the temporal
        # embedding added inside the temporal block's own joint-major swap:
        # 163 nodes, 94 of them Parameters, whose arrays hold 49,080 bytes.
        # A change here means the layers record a different tape.
        cfg = ModelConfig(frames=3, joints=3, channels_in=2, embed_dim=4, depth=1,
                          ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.25)
        model = PoseLifter(cfg, chain_skeleton(), seed=0)
        x = np.random.default_rng(0).normal(size=(2, 3, 3, 2))
        out = model.forward(x, training=True, rng=np.random.default_rng(1))
        assert len(model.parameters()) == 94
        assert tape_counts(out) == (163, 49080)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_forward_writes_nothing_and_matches_recording(self, monkeypatch, dtype):
        # The no-grad forward finishes ops in arrays it owns and slices its
        # attention (here into many small slices); neither may touch the
        # input, a parameter or a batch-norm buffer, nor change one bit.
        monkeypatch.setattr(numerics, "_ATTENTION_SLICE_BYTES", 256)
        with precision(dtype):
            model = PoseLifter(tiny_config(channels_in=5, depth=2), chain_skeleton(), seed=16)
            x = np.random.default_rng(19).normal(size=(2, 3, 3, 5)).astype(dtype)
            x_before, state_before = x.copy(), snapshot(model)
            with no_grad():
                lifted = model.forward(x).data
            recorded = model.forward(x)
        assert recorded.requires_grad
        assert np.array_equal(x, x_before)
        assert_unchanged(model, state_before)
        assert np.array_equal(lifted, recorded.data)

    def test_no_grad_forward_peak_memory(self):
        # Regression guard for the sliced attention and the freed
        # intermediates: a no-grad float64 T=81 forward peaked at 9.96 MB
        # by tracemalloc while its (1,17,8,81,81) scores existed at once and
        # every intermediate lived until its function returned; it peaks at
        # 4.24 MB now.
        cfg = ModelConfig(frames=81, channels_in=5, embed_dim=32, depth=1)
        model = PoseLifter(cfg, human36m_skeleton(), seed=0)
        x = np.random.default_rng(0).normal(size=(1, 81, 17, 5))
        tracemalloc.start()
        try:
            with no_grad():
                model.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6

    @pytest.mark.parametrize("dealt", [False, True])
    def test_training_step_peak_memory(self, monkeypatch, dealt):
        # Regression guard for what the training tape keeps: a float64
        # T=27 forward in training mode, its loss and backward peaked at
        # 36.7 MB by tracemalloc while the norms kept their normalised
        # input, the feed-forward kept its pre-activation beside GELU's
        # CDF, and each HGA fuse kept its concatenation, and at 30.9 MB
        # while each attention kept its softmax weights and each HGA its
        # GELU output before the residual.  Attention keeps only its row
        # max and sum now, and the HGA GELU adds the residual in its node:
        # 26.6 MB.  Dealt to two parts (tracemalloc follows every thread),
        # deferred gradient rows that pile up would show here.
        if dealt:
            monkeypatch.setattr(network, "_DEAL_MIN_ELEMENTS", 0)
            monkeypatch.setattr(numerics, "_WORKERS", 2)
        counts = TestParallelForward.counting_deals(monkeypatch)
        cfg = ModelConfig(frames=27, channels_in=5, embed_dim=32, depth=1)
        model = PoseLifter(cfg, human36m_skeleton(), seed=0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(2, 27, 17, 5)), rng.normal(size=(2, 27, 17, 3))
        tracemalloc.start()
        try:
            out = model.forward(x, training=True, rng=rng)
            total_loss(out, y, cfg.loss_weights()).total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two HGA cores, the STE and the temporal block, forward and backward.
        assert counts == ([2] * 8 if dealt else [])
        assert peak < 28.5e6

    def test_train_step_fingerprint(self):
        # Every number seeded training steps make, hashed: output, loss,
        # each parameter gradient, and the parameters and batch-norm
        # buffers after the update; two float32 steps, then one float64
        # step that also records the attention weights.  Memory and speed
        # work on the tape must leave the digest unchanged bit for bit.
        cfg = ModelConfig(frames=5, joints=5, channels_in=5, embed_dim=8, depth=2,
                          ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.25)
        digest = hashlib.sha256()
        for dtype, steps, sink in ((np.float32, 2, None), (np.float64, 1, [])):
            with precision(dtype):
                model = PoseLifter(cfg, chain_skeleton(5), seed=21)
                optimizer = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
                rng = np.random.default_rng(22)
                x, y = rng.normal(size=(2, 5, 5, 5)), rng.normal(size=(2, 5, 5, 3))
                for _ in range(steps):
                    out = model.forward(x, training=True, rng=rng, attn_sink=sink)
                    loss = total_loss(out, y, cfg.loss_weights()).total
                    model.zero_grad()
                    loss.backward()
                    digest.update(out.data.tobytes() + loss.data.tobytes())
                    for p in model.parameters():
                        digest.update(p.grad.tobytes())
                    optimizer.step()
                    for value in model.state_dict().values():
                        digest.update(value.tobytes())
            for weights in sink or ():
                digest.update(weights.tobytes())
        assert digest.hexdigest() == TRAIN_STEP_FINGERPRINT

    def test_activations_finite_across_seeds(self):
        model = PoseLifter(tiny_config(), chain_skeleton(), seed=9)
        for seed in range(100):
            sink = []
            x = np.random.default_rng(seed).normal(size=(3, 3, 2))
            out = model.forward(x, attn_sink=sink)
            assert np.isfinite(out.data).all()
            assert all(np.isfinite(w).all() for w in sink)

    def test_parameter_names_unique(self):
        model = PoseLifter(desk_config(), human36m_skeleton(), seed=10)
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))

    def test_state_dict_round_trip(self):
        model = PoseLifter(tiny_config(), chain_skeleton(), seed=11)
        twin = PoseLifter(tiny_config(), chain_skeleton(), seed=99)
        twin.load_state_dict(model.state_dict())
        x = np.random.default_rng(15).normal(size=(3, 3, 2))
        assert np.array_equal(model.forward(x).data, twin.forward(x).data)

    def test_missing_parameter_rejected(self):
        model = PoseLifter(tiny_config(), chain_skeleton(), seed=12)
        state = model.state_dict()
        state.pop("head.w")
        with pytest.raises(ConfigError):
            model.load_state_dict(state)


class TestParameterCount:
    def test_paper_scale_main_network(self):
        cfg = ModelConfig(frames=243, joints=17, channels_in=5, embed_dim=384, depth=2)
        model = PoseLifter(cfg, human36m_skeleton(), seed=0)
        count = model.parameter_count()
        assert abs(count - 11.41e6) / 11.41e6 < 0.05

    def test_paper_scale_preliminary_network(self):
        cfg = ModelConfig(frames=243, joints=17, channels_in=2, embed_dim=384, depth=3)
        model = PoseLifter(cfg, human36m_skeleton(), seed=0)
        count = model.parameter_count()
        assert abs(count - 17.06e6) / 17.06e6 < 0.05


class TestTwoStage:
    def make_pipeline(self, seed=13):
        skeleton = chain_skeleton()
        pre = PoseLifter(tiny_config(channels_in=2, depth=2), skeleton, seed=seed)
        main = PoseLifter(tiny_config(channels_in=5, depth=1), skeleton, seed=seed + 1)
        return pre, main

    def test_concat_channel_order(self):
        pre, main = self.make_pipeline()
        x2d = np.random.default_rng(18).normal(size=(3, 3, 2))
        captured = {}
        original = main.forward

        def spy(x, **kwargs):
            captured["x"] = np.asarray(x if isinstance(x, np.ndarray) else x.data)
            return original(x, **kwargs)

        main.forward = spy
        two_stage_forward(x2d, pre, main)
        assert np.array_equal(captured["x"][..., :2], x2d)
        expected_3d = pre.forward(x2d).data
        assert np.allclose(captured["x"][..., 2:], expected_3d, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_pipeline_writes_nothing_and_matches_recording(self, dtype):
        with precision(dtype):
            pre, main = self.make_pipeline()
            x2d = np.random.default_rng(20).normal(size=(3, 3, 2)).astype(dtype)
            x_before, pre_before, main_before = x2d.copy(), snapshot(pre), snapshot(main)
            with no_grad():
                lifted = two_stage_forward(x2d, pre, main).data
            recorded = two_stage_forward(x2d, pre, main)
        assert recorded.requires_grad
        assert np.array_equal(x2d, x_before)
        assert_unchanged(pre, pre_before)
        assert_unchanged(main, main_before)
        assert np.array_equal(lifted, recorded.data)

    def test_stage_channel_validation(self):
        pre, main = self.make_pipeline()
        with pytest.raises(ConfigError):
            two_stage_forward(np.zeros((3, 3, 2)), main, main)
        with pytest.raises(ConfigError):
            two_stage_forward(np.zeros((3, 3, 2)), pre, pre)
        longer = PoseLifter(ModelConfig(frames=4, joints=3, channels_in=5, embed_dim=4, depth=1,
                                        ste_heads=2, tte_heads=2, hga_heads=2), chain_skeleton())
        with pytest.raises(ConfigError, match="disagree"):
            two_stage_forward(np.zeros((3, 3, 2)), pre, longer)


class TestParallelForward:
    """A no-grad, eval-mode forward deals a batch's groups of sequences, or a
    single sequence's spatial-block frames and temporal-block joints, to the
    worker pool, and gives the serial result bit for bit; every other
    forward stays serial."""

    # Twelve frames: at embed_dim 256 a one-joint chunk's flat GEMMs then
    # have 12 rows, enough for OpenBLAS to give each row as in a taller GEMM.
    FRAMES = 12

    @classmethod
    def pipeline(cls, dtype, embed_dim):
        # embed_dim 256 takes `linear`'s flat GEMM for the square weights.
        with precision(dtype):
            skeleton = human36m_skeleton()
            configs = [ModelConfig(frames=cls.FRAMES, channels_in=c, embed_dim=embed_dim,
                                   depth=depth, dropout=0.25) for c, depth in ((2, 2), (5, 1))]
            pre, main = (PoseLifter(cfg, skeleton, seed=90 + i) for i, cfg in enumerate(configs))
        x2d = np.random.default_rng(91).normal(size=(3, cls.FRAMES, 17, 2)).astype(dtype)
        return pre, main, x2d

    @staticmethod
    def lifted(dtype, pre, main, x2d):
        with precision(dtype), no_grad():
            return [pre.forward(x2d).data, two_stage_forward(x2d, pre, main).data]

    @staticmethod
    def assert_bitwise(got, want):
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g.view(f"u{g.itemsize}"), w.view(f"u{w.itemsize}"))

    @staticmethod
    def counting_deals(monkeypatch):
        """Record the piece count of every deal `PoseLifter.forward` makes."""
        counts, deal = [], numerics._deal

        def counted(run, count):
            counts.append(count)
            deal(run, count)

        monkeypatch.setattr(numerics, "_deal", counted)
        return counts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("embed_dim", [16, 256])
    @pytest.mark.parametrize("chunks", ["ragged", "one index each"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("batched", [False, True])
    def test_single_sequence_deals_its_blocks(self, monkeypatch, dtype, embed_dim, chunks,
                                              workers, batched):
        pre, main, x2d = self.pipeline(dtype, embed_dim)
        x = x2d[:1] if batched else x2d[0]
        serial = self.lifted(dtype, pre, main, x)
        counts = self.counting_deals(monkeypatch)
        assert not counts
        monkeypatch.setattr(network, "_DEAL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        if chunks == "ragged":
            # Five chunks a block: frames 0-1, 2-3, 4-6, 7-8 and 9-11, or
            # joints 0-2, 3-5, 6-9, 10-12 and 13-16.
            monkeypatch.setattr(network, "_SPLIT_BLOCK_ELEMENTS",
                                self.FRAMES * 17 * embed_dim // 5)
            expected = {5}
        else:
            monkeypatch.setattr(network, "_SPLIT_BLOCK_ELEMENTS", 1)
            expected = {self.FRAMES, 17}
        self.assert_bitwise(self.lifted(dtype, pre, main, x), serial)
        assert set(counts) == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frames, embed_dim", [(16, 256), (61, 64)])
    def test_mid_size_sequence_deals_at_the_default_cut_off(self, monkeypatch, dtype, frames,
                                                            embed_dim):
        # 69,632 and 66,368 activation elements, between the deal cut-off
        # (2^16) and a chunk (2^18): one chunk per CPU.  At C=256 every
        # encoder weight takes `linear`'s flat GEMM, whose rows each chunk
        # computes in a shorter GEMM.
        with precision(dtype):
            cfg = ModelConfig(frames=frames, channels_in=2, embed_dim=embed_dim, depth=1)
            model = PoseLifter(cfg, human36m_skeleton(), seed=99)
        x = np.random.default_rng(100).normal(size=(1, frames, 17, 2)).astype(dtype)
        assert 1 << 16 <= frames * 17 * embed_dim < 1 << 18
        counts = self.counting_deals(monkeypatch)
        lifts = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            with precision(dtype), no_grad():
                lifts.append(model.forward(x).data)
            # The spatial block's frames, then the temporal block's joints.
            assert counts == ([] if workers == 1 else [workers] * 2)
            counts.clear()
        for got in lifts[1:]:
            self.assert_bitwise([got], lifts[:1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("embed_dim", [16, 256])
    @pytest.mark.parametrize("per_group", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_batch_deals_groups_that_deal_nothing(self, monkeypatch, dtype, embed_dim,
                                                  per_group, workers):
        pre, main, x2d = self.pipeline(dtype, embed_dim)
        looped = [self.lifted(dtype, pre, main, x[None]) for x in x2d]
        serial = [np.concatenate(outs) for outs in zip(*looped)]
        counts = self.counting_deals(monkeypatch)
        assert not counts
        # Every block would be dealt in chunks, were groups to deal.
        monkeypatch.setattr(network, "_DEAL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(network, "_SPLIT_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(network, "_GROUP_ELEMENTS", per_group * self.FRAMES * 17 * embed_dim)
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        self.assert_bitwise(self.lifted(dtype, pre, main, x2d), serial)
        groups = max(-(-len(x2d) // per_group), min(len(x2d), workers))
        if groups > 1:  # one deal per stage forward
            assert counts == [groups] * 3
        else:  # a batch that is one group is lifted like a single sequence
            assert set(counts) == {self.FRAMES, 17}

    @pytest.mark.parametrize("call", ["attn_sink", "recording attn_sink", "eval-mode recording",
                                      "no-grad training"])
    def test_other_forwards_stay_serial(self, monkeypatch, call):
        # Training forwards that record are dealt (TestRecordedDeal); these are not.
        pre, _, x2d = self.pipeline(np.float32, 16)
        monkeypatch.setattr(network, "_DEAL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(network, "_SPLIT_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        counts = self.counting_deals(monkeypatch)
        rng = np.random.default_rng(92)
        with precision(np.float32):
            if call == "recording attn_sink":
                assert pre.forward(x2d, training=True, rng=rng, attn_sink=[]).requires_grad
            elif call == "eval-mode recording":
                assert pre.forward(x2d).requires_grad
            with no_grad():
                if call == "no-grad training":
                    pre.forward(x2d, training=True, rng=rng)
                elif call == "attn_sink":
                    pre.forward(x2d, attn_sink=[])
        assert not counts
        with precision(np.float32), no_grad():
            pre.forward(x2d)
        assert counts

    @pytest.mark.parametrize("batched", [False, True])
    def test_float32_model_deals_in_a_float64_context(self, monkeypatch, batched):
        # Each HGA wraps the skeletal adjacency in its own dtype, so a float32
        # model lifts float32 activations in float32 whatever the context.
        pre, _, x2d = self.pipeline(np.float32, 16)
        monkeypatch.setattr(numerics, "_WORKERS", 1)
        with precision(np.float32), no_grad():
            x = Tensor(x2d if batched else x2d[:1])
            serial = pre.forward(x).data
        with no_grad():
            unsplit = pre.forward(x).data
        monkeypatch.setattr(network, "_DEAL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(network, "_SPLIT_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        counts = self.counting_deals(monkeypatch)
        with no_grad():
            dealt = pre.forward(x).data
        assert set(counts) == ({2} if batched else {self.FRAMES, 17})
        for got in (unsplit, dealt):
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), serial.view(np.uint32))

    @pytest.mark.parametrize("batched", [False, True])
    def test_float64_model_deals_in_a_float32_context(self, monkeypatch, batched):
        # Float32 input meets float64 weights in the embedding, so every piece
        # returns float64, and so does the deal, which takes its output's
        # dtype from the pieces.
        pre, _, x2d = self.pipeline(np.float64, 16)
        x = (x2d if batched else x2d[:1]).astype(np.float32)
        monkeypatch.setattr(numerics, "_WORKERS", 1)
        with precision(np.float32), no_grad():
            serial = pre.forward(x).data
        monkeypatch.setattr(network, "_DEAL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(network, "_SPLIT_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        counts = self.counting_deals(monkeypatch)
        with precision(np.float32), no_grad():
            dealt = pre.forward(x).data
        assert counts == ([2] if batched else [self.FRAMES, 17] * 2)
        assert serial.dtype == np.float64
        self.assert_bitwise([dealt], [serial])


class TestRecordedDeal:
    """A recording, training-mode forward deals each HGA core's and each
    STE's frames and each temporal block's joints to the worker pool, every
    part on its own tape, and its step equals the serial step bit for bit."""

    FRAMES = 12

    @classmethod
    def steps(cls, monkeypatch, dtype, drop, batch, depth, workers, embed_dim=16):
        """(every array one step makes, generator state after it, the deals
        made): output, loss, parameter gradients, then parameters and
        buffers after the backward and after two AdamW steps."""
        monkeypatch.setattr(network, "_DEAL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        counts = TestParallelForward.counting_deals(monkeypatch)
        with precision(dtype):
            cfg = ModelConfig(frames=cls.FRAMES, channels_in=2, embed_dim=embed_dim,
                              depth=depth, dropout=drop)
            model = PoseLifter(cfg, human36m_skeleton(), seed=93)
            optimizer = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
            rng = np.random.default_rng(94)
            x = rng.normal(size=(batch, cls.FRAMES, 17, 2))
            y = rng.normal(size=(batch, cls.FRAMES, 17, 3))
            arrays, state = [], None
            for step in range(2):
                out = model.forward(x, training=True, rng=rng)
                loss = total_loss(out, y, cfg.loss_weights()).total
                model.zero_grad()
                loss.backward()
                if step == 0:
                    arrays += [out.data, loss.data] + [p.grad for p in model.parameters()]
                    arrays += list(snapshot(model).values())
                    state = rng.bit_generator.state
                optimizer.step()
            arrays += list(snapshot(model).values())
        return arrays, state, counts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("drop", [0.0, 0.25])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_step_equals_the_serial_step(self, monkeypatch, dtype, drop, batch, depth,
                                         embed_dim=16):
        serial, serial_state, counts = self.steps(monkeypatch, dtype, drop, batch, depth, 1,
                                                  embed_dim)
        assert not counts
        for workers in (2, 3):
            dealt, state, counts = self.steps(monkeypatch, dtype, drop, batch, depth, workers,
                                              embed_dim)
            # Per step and block, two HGA cores, the STE and the temporal
            # block, forward and backward.
            assert counts == [workers] * (16 * depth)
            assert state == serial_state
            TestParallelForward.assert_bitwise([np.atleast_1d(a) for a in dealt],
                                               [np.atleast_1d(a) for a in serial])

    def test_flat_gemm_step_equals_the_serial_step(self, monkeypatch):
        # At C=256 the feed-forward weights take `linear`'s flat GEMM, whose
        # rows each chunk computes in a shorter GEMM.
        self.test_step_equals_the_serial_step(monkeypatch, np.float32, 0.25, 1, 1, 256)

    @pytest.mark.parametrize("seed_layout", ["C order", "joint-major"])
    def test_temporal_input_gradient_keeps_the_serial_layout(self, monkeypatch, seed_layout):
        # A joint-major output gradient comes back through the block's two
        # swaps as a joint-major input gradient; later sums over its leading
        # axes run in memory order, so the layout is part of the result.
        grads = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            with precision(np.float32):
                cfg = ModelConfig(frames=self.FRAMES, channels_in=2, embed_dim=16, depth=1,
                                  dropout=0.25)
                block = PoseLifter(cfg, human36m_skeleton(), seed=97).blocks[0][1]
                rng = np.random.default_rng(98)
                x = Tensor(rng.normal(size=(3, self.FRAMES, 17, 16)), requires_grad=True)
                out = numerics._in_parts(
                    lambda t, r: temporal_block_forward(t, block, True, r, 0.25),
                    x, -2, workers, rng)
                seed = rng.normal(size=out.data.shape).astype(np.float32)
                if seed_layout == "joint-major":
                    seed = np.ascontiguousarray(seed.swapaxes(1, 2)).swapaxes(1, 2)
                out.backward(seed)
            grads.append([x.grad] + [p.grad for p in block.parameters()])
        for got in grads[1:]:
            assert got[0].strides == grads[0][0].strides
            TestParallelForward.assert_bitwise(got, grads[0])
        assert x.grad.flags.c_contiguous == (seed_layout == "C order")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dealt_hga_equals_the_serial_one(self, monkeypatch, dtype):
        # Only the core between the norms is dealt: the layer norm, the batch
        # norm (whose training statistics couple every entry) and the GELU
        # with its residual run whole.  The core's head-split arrays hold a
        # part's frames on axis 1, not -3, and the adjacency gradient comes
        # to the deal unreduced.
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            counts = TestParallelForward.counting_deals(monkeypatch)
            with precision(dtype):
                cfg = ModelConfig(frames=self.FRAMES, channels_in=2, embed_dim=16, depth=1,
                                  hga_heads=4)
                model = PoseLifter(cfg, human36m_skeleton(), seed=102)
                params = model.blocks[0][0].hga1
                rng = np.random.default_rng(103)
                params.learnable_adj.data = rng.normal(scale=0.1, size=(17, 17)).astype(dtype)
                x = Tensor(rng.normal(size=(3, self.FRAMES, 17, 16)), requires_grad=True)
                out = hga_forward(x, params, model.hybrid.skeletal, training=True,
                                  per_frame=lambda core, t: numerics._in_parts(
                                      lambda c, r: core(c), t, -3, workers))
                out.backward(rng.normal(size=out.data.shape).astype(dtype))
            assert counts == ([] if workers == 1 else [workers] * 2)
            assert params.learnable_adj.grad is not None
            results.append([out.data, x.grad] + [p.grad for p in params.parameters()]
                           + [params.bn_mean, params.bn_var])
        for got in results[1:]:
            assert got[1].strides == results[0][1].strides
            TestParallelForward.assert_bitwise(got, results[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_gradient_continues_a_sum_the_backward_began(self, monkeypatch, dtype):
        # x feeds the dealt block, which uses it twice, and a residual whose
        # gradient r the backward hands x first.  Serially x.grad is
        # (r + g1) + g2, which differs from r + (g1 + g2) in the last bits.
        monkeypatch.setattr(numerics, "_WORKERS", 3)
        rng = np.random.default_rng(104)
        values = rng.normal(size=(2, self.FRAMES, 17, 16))
        seed = rng.normal(size=values.shape)
        grads = []
        with precision(dtype):
            w1, w2 = (Parameter(rng.normal(size=(16, 16)), f"w{i}") for i in (1, 2))
            for count in (1, 2, 3):
                x = Tensor(values, requires_grad=True)
                y = numerics._in_parts(lambda t, r: linear(t, w1) * linear(t, w2), x, -3, count)
                gelu(y, residual=x).backward(seed)
                grads.append([x.grad, w1.grad, w2.grad])
                w1.grad = w2.grad = None
        for got in grads[1:]:
            assert got[0].strides == grads[0][0].strides
            TestParallelForward.assert_bitwise(got, grads[0])

    @pytest.mark.parametrize("block", ["widening", "three channels"])
    @pytest.mark.parametrize("recording", [False, True])
    def test_output_takes_the_dtype_and_width_of_its_parts(self, monkeypatch, block,
                                                           recording):
        # The deal joins what its parts return: float32 chunks scaled by a
        # float64 constant come back in float64, a projection to 3 channels
        # 3 wide.
        rng = np.random.default_rng(105)
        width = 16 if block == "widening" else 3
        values = rng.normal(size=(2, self.FRAMES, 17, 16))
        seed = rng.normal(size=(2, self.FRAMES, 17, width))
        scale = Tensor(rng.normal(size=16))
        with precision(np.float32):
            w = Parameter(rng.normal(size=(16, width)), "w")

        def fn(t, r):
            return linear(t, w) * scale if block == "widening" else linear(t, w)

        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            counts = TestParallelForward.counting_deals(monkeypatch)
            with precision(np.float32):
                x = Tensor(values, requires_grad=recording)
                if recording:
                    out = numerics._in_parts(fn, x, -3, workers)
                    out.backward(seed)
                    results.append([out.data, x.grad, w.grad])
                    w.grad = None
                else:
                    with no_grad():
                        results.append([numerics._in_parts(fn, x, -3, workers).data])
            assert counts == [workers] * (1 + recording) * (workers > 1)
        dtype = np.float64 if block == "widening" else np.float32
        assert all(a.dtype == dtype for a in results[0])
        assert results[0][0].shape == seed.shape
        for got in results[1:]:
            TestParallelForward.assert_bitwise(got, results[0])

    def test_parameter_reached_by_a_non_reducing_node_is_refused(self, monkeypatch):
        # Every Parameter gradient a part makes goes to the deal unreduced.
        # Through a reshape, p's (C,) gradient holds no chunk to gather, so
        # the deal refuses it rather than let the parts add their sums to
        # p.grad in turn, in another order than the serial backward's.
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        rng = np.random.default_rng(101)
        p = Parameter(rng.normal(size=16), "p")
        x = Tensor(rng.normal(size=(2, self.FRAMES, 17, 16)), requires_grad=True)
        out = numerics._in_parts(lambda t, r: t * p.reshape((1, 16)), x, -3, 2)
        with pytest.raises(ShapeError, match="chunk on front axis 1"):
            out.backward()
        assert p.grad is None and x.grad is None

    def test_failing_part_raises_once_every_part_finished(self, monkeypatch):
        monkeypatch.setattr(numerics, "_WORKERS", 2)
        finished, deal = [], numerics._deal

        def recorded(run, count):
            def part(first, last):
                try:
                    run(first, last)
                finally:
                    finished.append(first)
            deal(part, count)

        monkeypatch.setattr(numerics, "_deal", recorded)
        with precision(np.float32):
            cfg = ModelConfig(frames=self.FRAMES, channels_in=2, embed_dim=16, depth=1)
            block = PoseLifter(cfg, human36m_skeleton(), seed=95).blocks[0][1]
            rng = np.random.default_rng(96)
            x = Tensor(rng.normal(size=(2, self.FRAMES, 17, 16)), requires_grad=True)
            out = numerics._in_parts(
                lambda t, r: temporal_block_forward(t, block, True, r, 0.25), x, -2, 2, rng)
            # Joints 8-16 are the pool's part: its first dropout backward overflows.
            seed = np.ones(out.data.shape, np.float32)
            seed[..., 8:, :] = 3e38
            finished.clear()
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                out.backward(seed)
        assert sorted(finished) == [0, 1]
        assert x.grad is None

import json

import numpy as np
import pytest

from poselift.data import NoiseConfig
from poselift.errors import ConfigError, ShapeError
from poselift.network import (EncoderParams, ModelConfig, PoseLifter, embed_input,
                              encoder_forward, preliminary_forward, regression_head,
                              spatial_block_forward, temporal_block_forward,
                              two_stage_forward)
from poselift.numerics import Parameter, Tensor, grad_check, linear
from poselift.skeleton import SkeletonGraph, human36m_skeleton


def chain_skeleton(n=3):
    return SkeletonGraph(joint_count=n, edges=[(i, i + 1) for i in range(n - 1)])


def tiny_config(channels_in=2, depth=1):
    return ModelConfig(frames=3, joints=3, channels_in=channels_in, embed_dim=4,
                       depth=depth, ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.0)


def tape_nodes(root):
    """Nodes reachable from `root` through the recorded parents.

    The same walk as perfbench's ``workloads.tape_counts``, kept here
    because the benchmark's directory is not an importable package and the
    unit tests put only ``src`` on the path.
    """
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


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

    def test_ijr_flag_is_unimplemented(self):
        with pytest.raises(ConfigError):
            ModelConfig(use_ijr=True)

    def test_json_round_trip(self):
        cfg = desk_config()
        restored = ModelConfig.from_json(cfg.to_json())
        assert restored == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"embed_dims": 64})


class TestEmbedAndHead:
    def test_zero_input_zero_pe(self):
        w = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
        out = embed_input(Tensor(np.zeros((3, 3, 2))), w)
        assert not out.data.any()

    def test_identity_embedding(self):
        x = np.random.default_rng(1).normal(size=(3, 3, 2))
        out = embed_input(Tensor(x), Tensor(np.eye(2)))
        assert np.array_equal(out.data, x)

    def test_shape_contract(self):
        w = Tensor(np.random.default_rng(2).normal(size=(5, 64)))
        out = embed_input(Tensor(np.zeros((27, 17, 5))), w)
        assert out.data.shape == (27, 17, 64)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            embed_input(Tensor(np.zeros((3, 3, 2))), Tensor(np.zeros((5, 8))))

    def test_regression_head(self):
        x = np.random.default_rng(3).normal(size=(4, 5, 8))
        assert not regression_head(Tensor(x), Tensor(np.zeros((8, 3)))).data.any()
        w = np.random.default_rng(4).normal(size=(8, 3))
        out = regression_head(Tensor(x), Tensor(w))
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
        # Regression guard for the fused attention, normalisation and
        # dropout nodes: 237 nodes, 94 of them Parameters.  A change here
        # means the layers record a different tape.
        cfg = ModelConfig(frames=3, joints=3, channels_in=2, embed_dim=4, depth=1,
                          ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.25)
        model = PoseLifter(cfg, chain_skeleton(), seed=0)
        x = np.random.default_rng(0).normal(size=(2, 3, 3, 2))
        out = model.forward(x, training=True, rng=np.random.default_rng(1))
        assert len(model.parameters()) == 94
        assert tape_nodes(out) == 237

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

    def test_preliminary_forward_guards_channels(self):
        pre, main = self.make_pipeline()
        with pytest.raises(ConfigError):
            preliminary_forward(np.zeros((3, 3, 2)), main)
        out = preliminary_forward(np.zeros((3, 3, 2)), pre)
        assert out.data.shape == (3, 3, 3)

    def test_zero_noise_is_deterministic(self):
        pre, main = self.make_pipeline()
        x2d = np.random.default_rng(16).normal(size=(3, 3, 2))
        cfg = NoiseConfig(groups=((0,), (1,), (2,), ()), stds=(0.0, 0.0, 0.0, 0.0))
        a = two_stage_forward(x2d, pre, main, cfg, np.random.default_rng(0))
        b = two_stage_forward(x2d, pre, main, cfg, np.random.default_rng(99))
        assert np.array_equal(a.data, b.data)

    def test_seeded_noise_reproducible(self):
        pre, main = self.make_pipeline()
        x2d = np.random.default_rng(17).normal(size=(3, 3, 2))
        cfg = NoiseConfig(groups=((0,), (1,), (2,), ()), stds=(0.01, 0.1, 0.2, 0.0))
        a = two_stage_forward(x2d, pre, main, cfg, np.random.default_rng(5))
        b = two_stage_forward(x2d, pre, main, cfg, np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)

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

    def test_stage_channel_validation(self):
        pre, main = self.make_pipeline()
        with pytest.raises(ConfigError):
            two_stage_forward(np.zeros((3, 3, 2)), main, main)
        with pytest.raises(ConfigError):
            two_stage_forward(np.zeros((3, 3, 2)), pre, pre)

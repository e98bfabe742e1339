import numpy as np
import pytest

from poselift.errors import ConfigError, ShapeError
from poselift.hga import (HgaParams, aggregate_hybrid, default_head_count,
                          fuse_update, hga_forward, hybrid_cross_attention,
                          npsc, project_ab)
from poselift.numerics import Tensor, grad_check, linear
from poselift.skeleton import SkeletonGraph, build_hybrid_adjacency, human36m_skeleton


def tiny_params(joints=3, channels=4, heads=2, seed=0):
    return HgaParams(joints, channels, heads, np.random.default_rng(seed), prefix="hga")


def chain_adjacency(n=3):
    graph = SkeletonGraph(joint_count=n, edges=[(i, i + 1) for i in range(n - 1)])
    return build_hybrid_adjacency(graph, hop_count=2).skeletal


class TestProjectAb:
    def test_identity_weights(self):
        params = tiny_params()
        params.w_a.data = np.eye(4)
        params.w_b.data = np.eye(4)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        a, b = project_ab(x, params)
        assert a.data.shape == b.data.shape == (2, 2, 3, 2)
        for h in range(2):
            assert np.allclose(a.data[:, h], x.data[..., 2 * h : 2 * h + 2])
            assert np.allclose(b.data[:, h], x.data[..., 2 * h : 2 * h + 2])

    def test_zero_input(self):
        params = tiny_params()
        a, b = project_ab(Tensor(np.zeros((2, 3, 4))), params)
        assert not a.data.any() and not b.data.any()

    def test_matches_per_frame_loop_oracle(self):
        params = tiny_params(seed=2)
        x = np.random.default_rng(3).normal(size=(2, 3, 4))
        a, _ = project_ab(Tensor(x), params)
        for t in range(2):
            for h in range(2):
                expected = (x[t] @ params.w_a.data)[:, 2 * h : 2 * h + 2]
                assert np.allclose(a.data[t, h], expected, atol=1e-12)


class TestSplitMergeHeads:
    """The head split (``linear(..., heads=h)``) and merge
    (``merge_heads=True``, then the w_merge product) that hga_forward and
    the encoders run."""

    def test_single_head_identity(self):
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 4)))
        stacked = linear(x, Tensor(np.eye(4)), heads=1)
        assert stacked.data.shape == (2, 1, 3, 4)
        assert np.array_equal(stacked.data[:, 0], x.data)

    def test_contiguous_chunks(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 4))
        stacked = linear(x, Tensor(np.eye(4)), heads=2)
        assert stacked.data[0, 0, 0].tolist() == [0.0, 1.0]
        assert stacked.data[0, 1, 0].tolist() == [2.0, 3.0]

    def test_round_trip_bit_exact(self):
        x = Tensor(np.random.default_rng(5).normal(size=(3, 5, 8)))
        stacked = linear(x, Tensor(np.eye(8)), heads=4)
        assert np.array_equal(linear(stacked, Tensor(np.eye(2)), merge_heads=True).data, x.data)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            HgaParams(3, 5, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.eye(4)), heads=3)

    def test_merge_with_identity_selector(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 3, 4)))
        parts = linear(x, Tensor(np.eye(4)), heads=2)
        merged = linear(linear(parts, Tensor(np.eye(2)), merge_heads=True), Tensor(np.eye(4)))
        assert np.allclose(merged.data, x.data, atol=1e-12)

    def test_merge_rejects_mismatched_parts(self):
        parts = linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.eye(4)), heads=2)
        with pytest.raises(ShapeError):
            linear(linear(parts, Tensor(np.eye(2)), merge_heads=True), Tensor(np.eye(5)))

    def test_merge_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        parts = [rng.normal(size=(2, 3, 6)) for _ in range(2)]
        w_upd = rng.normal(size=(6, 2))
        w = rng.normal(size=(4, 4))
        fused = linear(Tensor(np.stack(parts, axis=-3)), Tensor(w_upd), merge_heads=True)
        merged = linear(fused, Tensor(w))
        stacked = np.concatenate([p @ w_upd for p in parts], axis=-1)
        for t in range(2):
            assert np.allclose(merged.data[t], stacked[t] @ w, atol=1e-12)


class TestAggregateHybrid:
    def test_row_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = aggregate_hybrid(x, Tensor(np.zeros((2, 2))), swap)
        assert out.data[0].tolist() == [[3.0, 4.0], [1.0, 2.0]]

    def test_zero_adjacency(self):
        out = aggregate_hybrid(Tensor(np.ones((2, 3, 4))), Tensor(np.zeros((3, 3))),
                               np.zeros((3, 3)))
        assert not out.data.any()

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        learned, prior = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        adj = learned + prior
        x = rng.normal(size=(2, 3, 4))
        out = aggregate_hybrid(Tensor(x), Tensor(learned), prior)
        expected = np.zeros_like(x)
        for t in range(2):
            for i in range(3):
                for j in range(3):
                    expected[t, i] += adj[i, j] * x[t, j]
        assert np.allclose(out.data, expected, atol=1e-12)


class TestHybridCrossAttention:
    def test_single_joint_returns_projected_value(self):
        params = tiny_params(joints=1)
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 1, 2)))
        hyb = Tensor(rng.normal(size=(2, 1, 2)))
        out = hybrid_cross_attention(a, hyb, params)
        assert np.allclose(out.data, hyb.data @ params.w_v.data, atol=1e-12)

    def test_identity_projections_match_hand_softmax(self):
        params = tiny_params(joints=2)
        for w in (params.w_q, params.w_k, params.w_v):
            w.data = np.eye(2)
        a = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        hyb = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        out = hybrid_cross_attention(a, hyb, params)
        scores = a.data[0] @ hyb.data[0].T / np.sqrt(2)
        weights = np.exp(scores - scores.max(-1, keepdims=True))
        weights /= weights.sum(-1, keepdims=True)
        assert np.allclose(out.data[0], weights @ hyb.data[0], atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        params = tiny_params()
        rng = np.random.default_rng(10)
        sink = []
        hybrid_cross_attention(Tensor(rng.normal(size=(2, 3, 2))),
                               Tensor(rng.normal(size=(2, 3, 2))), params, attn_sink=sink)
        assert len(sink) == 1
        assert np.allclose(sink[0].sum(axis=-1), 1.0, atol=1e-6)


class TestNpsc:
    def test_single_joint(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(2, 1, 3)))
        b = Tensor(rng.normal(size=(2, 1, 3)))
        assert np.allclose(npsc(a, b).data, b.data)

    def test_zero_queries_average_rows(self):
        rng = np.random.default_rng(12)
        b = Tensor(rng.normal(size=(1, 4, 3)))
        out = npsc(Tensor(np.zeros((1, 4, 3))), b)
        assert np.allclose(out.data[0], np.tile(b.data[0].mean(axis=0), (4, 1)), atol=1e-12)

    def test_matches_scalar_oracle_no_scaling(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(1, 2, 3))
        b = rng.normal(size=(1, 2, 3))
        out = npsc(Tensor(a), Tensor(b))
        scores = a[0] @ b[0].T  # no 1/sqrt(d) factor
        weights = np.exp(scores - scores.max(-1, keepdims=True))
        weights /= weights.sum(-1, keepdims=True)
        assert np.allclose(out.data[0], weights @ b[0], atol=1e-12)


class TestFuseUpdate:
    def test_selector_matrix_returns_first_input(self):
        rng = np.random.default_rng(14)
        xs = [Tensor(rng.normal(size=(2, 2, 3, 2))) for _ in range(3)]  # (T, heads, N, C/h)
        w = np.zeros((6, 2))
        w[:2] = np.eye(2)
        out = fuse_update(xs[0], xs[1], xs[2], Tensor(w))
        merged = np.concatenate([xs[0].data[:, 0], xs[0].data[:, 1]], axis=-1)
        assert np.allclose(out.data, merged, atol=1e-12)

    def test_zero_inputs(self):
        z = Tensor(np.zeros((2, 3, 2)))
        w = Tensor(np.random.default_rng(15).normal(size=(6, 2)))
        assert not fuse_update(z, z, z, w).data.any()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(16)
        xs = [rng.normal(size=(2, 2, 3, 2)) for _ in range(3)]
        w = rng.normal(size=(6, 2))
        out = fuse_update(Tensor(xs[0]), Tensor(xs[1]), Tensor(xs[2]), Tensor(w))
        stacked = np.concatenate(xs, axis=-1)
        for t in range(2):
            for n in range(3):
                expected = np.concatenate([stacked[t, h, n] @ w for h in range(2)])
                assert np.allclose(out.data[t, n], expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse_update(Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((2, 3, 3))),
                        Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((6, 2))))


class TestHgaForward:
    def test_shape_contract(self):
        graph = human36m_skeleton()
        params = HgaParams(17, 32, 8, np.random.default_rng(17))
        adj = build_hybrid_adjacency(graph).skeletal
        x = np.random.default_rng(18).normal(size=(4, 17, 32))
        assert hga_forward(Tensor(x), params, adj).data.shape == (4, 17, 32)

    def test_matches_per_head_composition(self):
        # stacked fast path vs the public per-subspace operations
        params = tiny_params(joints=3, channels=4, heads=2, seed=19)
        adj = chain_adjacency(3)
        x = Tensor(np.random.default_rng(20).normal(size=(2, 3, 4)))
        fast = hga_forward(x, params, adj, training=False)

        from poselift.numerics import batch_norm, gelu, layer_norm
        x_in = layer_norm(x, params.ln_gamma, params.ln_beta)
        x_a, x_b = linear(x_in, params.w_a), linear(x_in, params.w_b)
        fused = []
        for h in range(2):  # one head at a time, on a head axis of length 1
            a_h = x_a[..., 2 * h : 2 * h + 2].reshape(2, 1, 3, 2)
            b_h = x_b[..., 2 * h : 2 * h + 2].reshape(2, 1, 3, 2)
            hyb = aggregate_hybrid(b_h, params.learnable_adj, adj)
            att = hybrid_cross_attention(a_h, hyb, params)
            joint = npsc(a_h, b_h)
            fused.append(fuse_update(a_h, att, joint, params.w_upd))
        merged = linear(np.concatenate([f.data for f in fused], axis=-1), params.w_merge)
        mean, var = params.bn_mean.copy(), params.bn_var.copy()
        slow = gelu(batch_norm(merged, params.bn_gamma, params.bn_beta, mean, var,
                               training=False)) + x_in
        assert np.allclose(fast.data, slow.data, atol=1e-10)

    def test_attention_rows_sum_to_one_over_seeds(self):
        params = tiny_params(joints=3, channels=4, heads=2, seed=21)
        adj = chain_adjacency(3)
        for seed in range(10):
            sink = []
            x = np.random.default_rng(seed).normal(size=(2, 3, 4))
            hga_forward(Tensor(x), params, adj, attn_sink=sink)
            assert len(sink) == 2  # cross-attention and similarity weights
            for weights in sink:
                assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_joint_permutation_equivariance(self):
        graph = human36m_skeleton()
        params = HgaParams(17, 16, 4, np.random.default_rng(22))
        params.learnable_adj.data = np.random.default_rng(23).normal(size=(17, 17)) * 0.1
        adj = build_hybrid_adjacency(graph).skeletal
        x = np.random.default_rng(24).normal(size=(3, 17, 16))
        base = hga_forward(Tensor(x), params, adj).data

        perm = np.random.default_rng(25).permutation(17)
        params_p = HgaParams(17, 16, 4, np.random.default_rng(22))
        for src, dst in zip(params.parameters(), params_p.parameters()):
            dst.data = src.data.copy()
        params_p.learnable_adj.data = params.learnable_adj.data[np.ix_(perm, perm)]
        permuted = hga_forward(Tensor(x[:, perm]), params_p, adj[np.ix_(perm, perm)]).data
        assert np.allclose(permuted, base[:, perm], atol=1e-10)

    def test_zero_learnable_adjacency_uses_skeletal_prior_only(self):
        params = tiny_params(joints=3, channels=4, heads=2, seed=26)
        adj = chain_adjacency(3)
        assert not params.learnable_adj.data.any()
        x = Tensor(np.random.default_rng(27).normal(size=(2, 3, 2)))
        with_total = aggregate_hybrid(x, params.learnable_adj, adj)
        assert np.array_equal(with_total.data, adj @ x.data)

    def test_deterministic(self):
        params = tiny_params(seed=28)
        adj = chain_adjacency(3)
        x = Tensor(np.random.default_rng(29).normal(size=(2, 3, 4)))
        assert np.array_equal(hga_forward(x, params, adj).data,
                              hga_forward(x, params, adj).data)

    def test_gradients(self):
        params = tiny_params(joints=3, channels=4, heads=2, seed=30)
        adj = chain_adjacency(3)
        x = np.random.default_rng(31).normal(size=(2, 3, 4))
        err = grad_check(lambda *ps: hga_forward(Tensor(x), params, adj, training=True),
                         params.parameters())
        assert err < 1e-4
        xt = Tensor(x.copy(), requires_grad=True)
        assert grad_check(lambda t: hga_forward(t, params, adj, training=True), [xt]) < 1e-4

    def test_rejects_wrong_width(self):
        params = tiny_params()
        with pytest.raises(ShapeError):
            hga_forward(Tensor(np.zeros((2, 3, 6))), params, chain_adjacency(3))

    def test_head_count_rule(self):
        assert default_head_count(64) == 8
        assert default_head_count(384) == 8
        assert default_head_count(32) == 2

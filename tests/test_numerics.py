import numpy as np
import pytest
from scipy.stats import norm

from poselift import numerics
from poselift.errors import DataError, FormatError, ShapeError, TruncatedFileError
from poselift.numerics import (Parameter, Tensor, batch_norm, cat, dropout, gelu,
                               grad_check, l2norm_last, layer_norm, linear,
                               load_checkpoint, no_grad, precision, save_checkpoint,
                               scaled_dot_attention, softmax_rows)


class TestLinear:
    def test_identity_weight(self):
        out = linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)))
        assert out.data.tolist() == [1.0, 2.0]

    def test_dot_product(self):
        out = linear(Tensor([1.0, 1.0]), Tensor([[2.0], [3.0]]))
        assert out.data.tolist() == [5.0]

    def test_bias(self):
        out = linear(Tensor([[1.0, 0.0]]), Tensor(np.eye(2)), Tensor([10.0, 20.0]))
        assert out.data.tolist() == [[11.0, 20.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = grad_check(lambda w_: linear(x, w_), [w])
        assert err < 1e-4


class TestLinearGemmPaths:
    """Both GEMM paths (batched below the weight-size cut-off, flattened at
    or above it) must agree with a direct contraction and pass grad_check."""

    @pytest.fixture(params=["batched", "flat"])
    def path(self, request, monkeypatch):
        cutoff = 1 if request.param == "flat" else 10**9
        monkeypatch.setattr(numerics, "_FLAT_GEMM_MIN_WEIGHT", cutoff)
        return request.param

    @pytest.mark.parametrize("shape", [(2, 3, 2, 4), (2, 1, 3, 2, 4)])
    def test_value_and_gradients(self, path, shape):
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = linear(x, w, b).data
        assert np.allclose(out, np.einsum("...i,ij->...j", x.data, w.data) + b.data, atol=1e-12)
        seed = Tensor(rng.normal(size=shape[:-1] + (3,)))
        assert grad_check(lambda s, t, u: (linear(s, t, u) * seed).sum(), [x, w, b]) < 1e-4


class TestSoftmax:
    def test_symmetry(self):
        assert softmax_rows(Tensor([0.0, 0.0])).data.tolist() == [0.5, 0.5]

    def test_shift_invariance_no_overflow(self):
        out = softmax_rows(Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5])
        assert np.isfinite(out.data).all()

    def test_scalar_evaluation(self):
        out = softmax_rows(Tensor([0.7071, 0.0]))
        assert abs(out.data[0] - 0.6698) < 1e-4
        assert abs(out.data[1] - 0.3302) < 1e-4

    @pytest.mark.parametrize("magnitude", [1.0, 100.0, 1e4])
    def test_rows_sum_to_one(self, magnitude):
        rng = np.random.default_rng(int(magnitude))
        x = Tensor(rng.uniform(-magnitude, magnitude, size=(5, 7)))
        assert np.allclose(softmax_rows(x).data.sum(axis=-1), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        seed = rng.normal(size=(3, 5))
        err = grad_check(lambda t: (softmax_rows(t) * Tensor(seed)).sum(), [x])
        assert err < 1e-4


class TestScaledDotAttention:
    def test_single_key_returns_value(self):
        q = Tensor([[1.0, 2.0]])
        k = Tensor([[0.3, -0.4]])
        v = Tensor([[7.0, 9.0]])
        assert np.allclose(scaled_dot_attention(q, k, v).data, v.data)

    def test_two_key_hand_evaluation(self):
        q = Tensor([[1.0, 0.0]])
        kv = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = scaled_dot_attention(q, kv, kv)
        assert abs(out.data[0, 0] - 0.6698) < 1e-4
        assert abs(out.data[0, 1] - 0.3302) < 1e-4

    def test_key_value_permutation_invariance(self):
        rng = np.random.default_rng(2)
        q, k, v = (Tensor(rng.normal(size=(4, 8))) for _ in range(3))
        base = scaled_dot_attention(q, k, v).data
        perm = rng.permutation(4)
        shuffled = scaled_dot_attention(q, Tensor(k.data[perm]), Tensor(v.data[perm])).data
        assert np.allclose(base, shuffled, atol=1e-12)

    def test_zero_width_rejected(self):
        z = Tensor(np.zeros((2, 0)))
        with pytest.raises(ShapeError):
            scaled_dot_attention(z, z, z)

    def test_matches_composed_softmax(self):
        rng = np.random.default_rng(41)
        q, k, v = (rng.normal(size=(2, 3, 5, 4)) for _ in range(3))
        sink = []
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), attn_sink=sink).data
        ref = softmax_rows(Tensor(q / 2.0 @ np.swapaxes(k, -1, -2))).data
        assert np.allclose(sink[0], ref, atol=1e-14)
        assert np.allclose(out, ref @ v, atol=1e-14)

    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_gradient(self, scale):
        rng = np.random.default_rng(42)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(3))
        seed = Tensor(rng.normal(size=(2, 3, 4)))
        err = grad_check(lambda a, b, c: (scaled_dot_attention(a, b, c, scale=scale) * seed).sum(),
                         [q, k, v])
        assert err < 1e-4

    def test_gradient_with_keys_broadcast_over_leading_axes(self):
        rng = np.random.default_rng(43)
        q = Tensor(rng.normal(size=(2, 3, 4, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 5, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        seed = Tensor(rng.normal(size=(2, 3, 4, 2)))
        err = grad_check(lambda a, b, c: (scaled_dot_attention(a, b, c) * seed).sum(), [q, k, v])
        assert err < 1e-4

    def test_shared_key_and_value_gradient(self):
        # hga.npsc passes one tensor as both keys and values, unscaled.
        rng = np.random.default_rng(44)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        seed = Tensor(rng.normal(size=(3, 4)))
        err = grad_check(lambda s, t: (scaled_dot_attention(s, t, t, scale=1.0) * seed).sum(), [a, b])
        assert err < 1e-4


class TestNormalizationAndGelu:
    def test_layer_norm_constant_row(self):
        out = layer_norm(Tensor([1.0, 1.0, 1.0]).reshape(1, 3))
        assert np.allclose(out.data, 0.0)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(2.0, 3.0, size=(6, 32)))
        out = layer_norm(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_layer_norm_affine_gradients(self):
        rng = np.random.default_rng(45)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gamma = Tensor(rng.normal(size=5), requires_grad=True)
        beta = Tensor(rng.normal(size=5), requires_grad=True)
        seed = Tensor(rng.normal(size=(2, 3, 5)))
        err = grad_check(lambda t, g, b: (layer_norm(t, g, b) * seed).sum(), [x, gamma, beta])
        assert err < 1e-4
        plain = layer_norm(Tensor(x.data)).data
        assert np.allclose(layer_norm(x, gamma, beta).data, plain * gamma.data + beta.data,
                           atol=1e-14)

    def test_batch_norm_eval_is_affine_in_running_stats(self):
        rng = np.random.default_rng(46)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        out = batch_norm(x, gamma, beta, mean, var, training=False).data
        ref = (x.data - mean) / np.sqrt(var + 1e-5) * gamma.data + beta.data
        assert np.allclose(out, ref, atol=1e-12)
        err = grad_check(lambda t, g, b: (batch_norm(t, g, b, mean, var, training=False) ** 2.0).sum(),
                         [x, gamma, beta])
        assert err < 1e-4

    def test_batch_norm_train_and_eval(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(5.0, 2.0, size=(8, 6, 4)))
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        mean, var = np.zeros(4), np.ones(4)
        out = batch_norm(x, gamma, beta, mean, var, training=True)
        assert np.allclose(out.data.mean(axis=(0, 1)), 0.0, atol=1e-6)
        assert (np.abs(mean) > 0.1).all()  # running stats moved toward ~5
        eval_out = batch_norm(x, gamma, beta, mean, var, training=False)
        assert eval_out.data.shape == x.data.shape

    def test_gelu_fixed_point_and_value(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        assert abs(gelu(Tensor([3.0])).data[0] - 2.9960) < 1e-3
        # exact Gaussian-CDF form, not the tanh approximation
        x = np.linspace(-2, 2, 41)
        assert np.allclose(gelu(Tensor(x)).data, x * norm.cdf(x), atol=1e-12)

    def test_gelu_monotone_on_grid(self):
        # exact GELU dips below x ~ -0.75; the tested grid sits right of it
        x = np.linspace(-0.7, 5.0, 200)
        out = gelu(Tensor(x)).data
        assert (np.diff(out) > 0).all()

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        assert grad_check(lambda t: gelu(t).sum(), [x]) < 1e-4
        assert grad_check(lambda t: layer_norm(t).sum(), [x]) < 1e-4
        mean, var = np.zeros(6), np.ones(6)
        gamma = Tensor(rng.normal(size=6), requires_grad=True)
        beta = Tensor(rng.normal(size=6), requires_grad=True)
        err = grad_check(
            lambda t, g, b: (batch_norm(t, g, b, mean, var, training=True) ** 2.0).sum(),
            [x, gamma, beta])
        assert err < 1e-4


class TestGradCheck:
    def test_identity_sum_is_exact(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        assert grad_check(lambda t: t.sum(), [x]) < 1e-10

    def test_gelu_sum(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(5,)) + 2.0, requires_grad=True)
        assert grad_check(lambda t: gelu(t).sum(), [x]) < 1e-4

    def test_l2norm_gradient_and_zero_subgradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 3)) + 1.0, requires_grad=True)
        assert grad_check(lambda t: l2norm_last(t).sum(), [x]) < 1e-4
        z = Tensor(np.zeros((2, 3)), requires_grad=True)
        l2norm_last(z).sum().backward()
        assert np.allclose(z.grad, 0.0)

    def test_broadcast_add_and_mul_gradients(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        assert grad_check(lambda s, t: ((s + t) * (s * t)).sum(), [a, b]) < 1e-4

    def test_slice_and_cat_gradients(self):
        x = Tensor(np.random.default_rng(10).normal(size=(4, 6)), requires_grad=True)
        weight = Tensor(np.random.default_rng(11).normal(size=(4, 6)))
        assert grad_check(lambda t: (cat([t[:, 0:2], t[:, 2:6]], -1) * weight).sum(), [x]) < 1e-4


class TestTensorBasics:
    def test_determinism_bit_identical(self):
        def compute():
            rng = np.random.default_rng(12)
            x = Tensor(rng.normal(size=(5, 8)))
            return softmax_rows(gelu(layer_norm(x))).data

        assert np.array_equal(compute(), compute())

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_precision_context(self):
        with precision("float32"):
            assert Tensor(np.ones(3)).data.dtype == np.float32
        assert Tensor(np.ones(3)).data.dtype == np.float64

    def test_dropout_modes(self):
        x = Tensor(np.ones((100, 10)))
        assert dropout(x, 0.5, None, training=False) is x
        rng = np.random.default_rng(13)
        out = dropout(x, 0.5, rng, training=True).data
        assert set(np.round(np.unique(out), 6)) == {0.0, 2.0}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_matches_seeded_float_mask(self, dtype):
        rate, shape = 0.25, (6, 7, 5)
        values = np.random.default_rng(47).normal(size=shape)
        with precision(dtype):
            x = Tensor(values, requires_grad=True)
            out = dropout(x, rate, np.random.default_rng(48), training=True)
            mask = (np.random.default_rng(48).random(shape) >= rate) / (1 - rate)
            expected = x.data * mask.astype(dtype)
            assert out.data.dtype == dtype
            assert np.array_equal(out.data, expected)
            seed = np.random.default_rng(49).normal(size=shape).astype(dtype)
            out.backward(seed)
            assert np.array_equal(x.grad, seed * mask.astype(dtype))


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        params = [Parameter(rng.normal(size=(3, 4)).astype(np.float32), "a.w"),
                  Parameter(rng.normal(size=(5,)).astype(np.float32), "a.b")]
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.w", "a.b"}
        for p in params:
            assert np.array_equal(loaded[p.name], p.data.astype(np.float64))

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"x": np.zeros(2)}, path)
        assert path.read_bytes()[:5] == b"HGFW1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"x": np.arange(100.0)}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(path)

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"x": np.zeros(2)}, path)
        blob = path.read_bytes()
        path.write_bytes(blob + blob[5:])
        with pytest.raises(DataError):
            load_checkpoint(path)

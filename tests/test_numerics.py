import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import poselift as pl
from poselift import numerics
from poselift.errors import DataError, FormatError, ShapeError, TruncatedFileError
from poselift.network import ModelConfig, PoseLifter
from poselift.numerics import (Parameter, Tensor, batch_norm, dropout, gelu,
                               grad_check, l2norm_last, layer_norm, linear,
                               load_checkpoint, no_grad, precision, save_checkpoint,
                               scaled_dot_attention, softmax_rows)
from poselift.skeleton import human36m_skeleton


def squared_sum(y):
    return (y * y).sum()


def assert_bitwise_equal(a, b):
    """Same dtype, shape, NaN positions and bits everywhere else (so +0 != -0)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    bits = np.dtype(f"u{a.dtype.itemsize}")
    assert np.array_equal(a[~nan].view(bits), b[~nan].view(bits))


class TestLinear:
    def test_identity_weight(self):
        out = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)))
        assert out.data.tolist() == [[1.0, 2.0]]

    def test_dot_product(self):
        out = linear(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]))
        assert out.data.tolist() == [[5.0]]

    def test_rejects_rank_one_input(self):
        with pytest.raises(ShapeError, match=r"\(2,\)"):
            linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)))

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_reduction_max(self, dtype):
        # The plain form: the row maximum from numpy's reduction.
        def reference(s):
            s = s - s.max(axis=-1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=-1, keepdims=True)
            return s

        rng = np.random.default_rng(47)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
        for n in list(range(1, 41)) + [243]:
            s = (rng.normal(size=(3, 6, n)) * 5).astype(dtype)
            s[0, 1] = 0.0
            s[0, 2] = -0.0
            s[0, 3, ::2] = -0.0
            s[0, 4] = -np.inf
            # one special value in every row of s[1], several in s[2]
            s[1, np.arange(6), rng.integers(n, size=6)] = specials[rng.integers(5, size=6)]
            spots = rng.integers(n, size=(6, 3))
            s[2, np.arange(6)[:, None], spots] = specials[rng.integers(5, size=(6, 3))]
            with np.errstate(invalid="ignore"):
                expected = reference(s)
                got = s.copy()
                numerics._softmax_inplace(got)
            assert_bitwise_equal(got, expected)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shapes, scale, merge", [
        (((3, 5, 7, 4), (3, 5, 6, 4), (3, 5, 6, 3)), None, False),  # equal leading shapes
        (((2, 5, 7, 4), (5, 6, 4), (5, 6, 3)), None, False),  # K/V broadcast
        (((3, 5, 7, 4), (3, 5, 6, 4), None), 1.0, False),  # shared K = V, unscaled
        (((7, 4), (6, 4), (6, 3)), None, False),  # 2-D: no leading axes, one slice
        (((2, 3, 5, 7, 4),) * 3, None, True),  # merged heads
    ])
    def test_slices_equal_one_slice(self, monkeypatch, dtype, shapes, scale, merge):
        rng = np.random.default_rng(45)
        values = [rng.normal(size=shape) for shape in shapes if shape is not None]
        q_shape, k_shape = shapes[0], shapes[1]
        lead = np.broadcast_shapes(q_shape[:-2], k_shape[:-2])
        matrix = q_shape[-2] * k_shape[-2] * np.dtype(dtype).itemsize

        def attend(budget):
            """[output, dQ, dK, dV] of a call keeping the weights, the
            weights, the same four of a call keeping only the row
            statistics, and the no-grad output."""
            monkeypatch.setattr(numerics, "_ATTENTION_SLICE_BYTES", budget)
            results = []
            with precision(dtype):
                for sink in ([], None):
                    q, k, *v = (Tensor(a, requires_grad=True) for a in values)
                    v = v[0] if v else k
                    out = scaled_dot_attention(q, k, v, attn_sink=sink, scale=scale,
                                               merge_heads=merge)
                    out.backward(np.random.default_rng(46).normal(size=out.data.shape).astype(dtype))
                    results += [out.data, q.grad, k.grad, v.grad] + (sink or [])
                with no_grad():
                    results.append(scaled_dot_attention(q, k, v, scale=scale, merge_heads=merge).data)
            return results

        whole = attend(1 << 62)
        # Two score matrices a slice: several slices, the last one ragged.
        monkeypatch.setattr(numerics, "_ATTENTION_SLICE_BYTES", 2 * matrix)
        slices = list(numerics._attention_slices(lead, matrix))
        if lead:
            assert len(slices) > 1 and slices[-1][-1].stop > lead[len(slices[-1]) - 1]
        sliced = attend(2 * matrix)
        for got, want in zip(sliced, whole):
            assert_bitwise_equal(got, want)
        # The statistics-only call and the no-grad output against the sink-keeping call.
        for got, want in zip(whole[5:], whole[:4] + whole[:1]):
            assert_bitwise_equal(got, want)

    def test_recording_call_keeps_only_row_statistics(self):
        # Regression guard for the statistics-only tape: a recording float64
        # call with (2,17,4,81,8) operands held 7.84 MB after its forward
        # by tracemalloc, and its forward and backward peaked at 24.3 MB,
        # while the node kept its (2,17,4,81,81) softmax weights and the
        # backward made whole-array temporaries.  It keeps two
        # (2,17,4,81,1) row statistics now and rebuilds the weights slice
        # by slice: 0.88 MB held, a 10.3 MB peak.
        rng = np.random.default_rng(71)
        q, k, v = (Tensor(rng.normal(size=(2, 17, 4, 81, 8)), requires_grad=True)
                   for _ in range(3))
        tracemalloc.start()
        try:
            out = scaled_dot_attention(q, k, v)
            held = tracemalloc.get_traced_memory()[0]
            out.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 1.5e6
        assert peak < 16e6


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
        err = grad_check(lambda t, g, b: squared_sum(batch_norm(t, g, b, mean, var, training=False)),
                         [x, gamma, beta])
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_batch_norm_gradient_ignores_later_running_stat_updates(self, dtype):
        # The node rebuilds its normalised input in the backward; a
        # training-mode call in between moves the running mean in place.
        rng = np.random.default_rng(47)
        with precision(dtype):
            x = Tensor(rng.normal(size=(4, 3)))
            gamma = Tensor(rng.normal(size=3), requires_grad=True)
            seed = rng.normal(size=(4, 3)).astype(dtype)
            grads = []
            for update in (False, True):
                mean, var = np.full(3, 0.5), np.full(3, 2.0)
                gamma.grad = None
                out = batch_norm(x, gamma, None, mean, var, training=False)
                if update:
                    batch_norm(Tensor(x.data + 3.0), gamma, None, mean, var, training=True)
                out.backward(seed)
                grads.append(gamma.grad)
        assert_bitwise_equal(grads[1], grads[0])

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_np_var_form(self, dtype):
        # The plain form: statistics from np.mean and np.var, then the same
        # closed-form gradients and running-statistic update as the node.
        def reference(x, gamma, beta, g, axes, running=None):
            mu = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            inv = (1.0 / np.sqrt(var + 1e-5)).astype(x.dtype, copy=False)
            xhat = x - mu
            xhat *= inv
            y = xhat * gamma + beta
            lead = tuple(range(x.ndim - 1))
            h = g * gamma
            gx = h - h.mean(axis=axes, keepdims=True)
            gx -= xhat * (h * xhat).mean(axis=axes, keepdims=True)
            gx *= inv
            if running is not None:
                n = x.size // x.shape[-1]
                running[0] *= 0.9
                running[0] += 0.1 * mu.reshape(-1)
                running[1] *= 0.9
                running[1] += 0.1 * var.reshape(-1) * (n / (n - 1))
            return y, gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

        rng = np.random.default_rng(48)
        shape = (2, 9, 17, 24)
        with precision(dtype):
            for mode in ("layer", "batch"):
                x = Tensor(rng.normal(3.0, 7.0, size=shape), requires_grad=True)
                gamma = Tensor(rng.normal(size=24), requires_grad=True)
                beta = Tensor(rng.normal(size=24), requires_grad=True)
                g = rng.normal(size=shape).astype(dtype)
                running = [rng.normal(size=24), rng.uniform(0.5, 2.0, size=24)]
                expected_running = [r.copy() for r in running]
                if mode == "layer":
                    y = layer_norm(x, gamma, beta)
                    expected = reference(x.data, gamma.data, beta.data, g, (-1,))
                else:
                    y = batch_norm(x, gamma, beta, *running, training=True)
                    expected = reference(x.data, gamma.data, beta.data, g, (0, 1, 2),
                                         expected_running)
                y.backward(g)
                for got, want in zip((y.data, x.grad, gamma.grad, beta.grad), expected):
                    assert_bitwise_equal(got, want)
                for got, want in zip(running, expected_running):
                    assert_bitwise_equal(got, want)

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
            lambda t, g, b: squared_sum(batch_norm(t, g, b, mean, var, training=True)),
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
        # Slices of one input, concatenated again by a tuple `linear`.
        x = Tensor(np.random.default_rng(10).normal(size=(4, 6)), requires_grad=True)
        w = Tensor(np.random.default_rng(11).normal(size=(6, 3)), requires_grad=True)
        assert grad_check(lambda t, u: linear((t[:, 0:2], t[:, 2:6]), u), [x, w]) < 1e-4


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


class TestFusedNodes:
    """The head split, head merge, residual dropout, projected GELU, GELU
    with its residual and concatenating linear nodes against the composed
    operations they replace, bit for bit: forward, every input and
    parameter gradient, and the generator state after the draw."""

    @staticmethod
    def split(t, heads):
        shape = t.data.shape
        return t.reshape(shape[:-1] + (heads, shape[-1] // heads)).swapaxes(-3, -2)

    @staticmethod
    def merge(t):
        t = t.swapaxes(-3, -2)
        return t.reshape(t.data.shape[:-2] + (-1,))

    @staticmethod
    def leaves(rng, *shapes):
        """Two lists of leaf Tensors holding the same values."""
        values = [rng.normal(size=shape) for shape in shapes]
        return tuple([Tensor(v, requires_grad=True) for v in values] for _ in range(2))

    def assert_same(self, fused, composed, g, fused_inputs, composed_inputs):
        fused.backward(g)
        composed.backward(g)
        assert_bitwise_equal(fused.data, composed.data)
        for a, b in zip(fused_inputs, composed_inputs):
            assert_bitwise_equal(a.grad, b.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [12, 256])  # batched and flat forward GEMM
    def test_head_split_equals_reshape_swapaxes(self, dtype, width):
        rng = np.random.default_rng(60)
        with precision(dtype):
            shapes = ((2, 5, 7, width), (width, width), (width,))
            fused_in, composed_in = self.leaves(rng, *shapes)
            fused = linear(*fused_in, heads=4)
            composed = self.split(linear(*composed_in), 4)
            g = rng.normal(size=fused.data.shape).astype(dtype)
            self.assert_same(fused, composed, g, fused_in, composed_in)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_head_merge_equals_swapaxes_reshape(self, dtype):
        rng = np.random.default_rng(61)
        with precision(dtype):
            qkv = ((2, 5, 3, 7, 4),) * 3
            fused_in, composed_in = self.leaves(rng, *qkv)
            fused = scaled_dot_attention(*fused_in, merge_heads=True)
            composed = self.merge(scaled_dot_attention(*composed_in))
            g = rng.normal(size=fused.data.shape).astype(dtype)
            self.assert_same(fused, composed, g, fused_in, composed_in)

            xw = ((2, 5, 3, 7, 12), (12, 4))
            fused_in, composed_in = self.leaves(rng, *xw)
            fused = linear(*fused_in, merge_heads=True)
            composed = self.merge(linear(*composed_in))
            g = rng.normal(size=fused.data.shape).astype(dtype)
            self.assert_same(fused, composed, g, fused_in, composed_in)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize("training, rate", [(True, 0.25), (True, 0.0), (False, 0.25)])
    def test_residual_dropout_equals_dropout_then_add(self, dtype, project, training, rate):
        rng = np.random.default_rng(62)
        with precision(dtype):
            shapes = ((2, 5, 7, 12), (12, 12), (12,), (2, 5, 7, 12))
            fused_in, composed_in = self.leaves(rng, *shapes)
            x, w, b, residual = fused_in
            fused_rng, composed_rng = np.random.default_rng(63), np.random.default_rng(63)
            fused = dropout(x, rate, fused_rng, training, residual=residual,
                            w=w if project else None, b=b if project else None)
            x, w, b, residual = composed_in
            value = linear(x, w, b) if project else x
            composed = residual + dropout(value, rate, composed_rng, training)
            g = rng.normal(size=fused.data.shape).astype(dtype)
            used = (0, 1, 2, 3) if project else (0, 3)
            self.assert_same(fused, composed, g, [fused_in[i] for i in used],
                             [composed_in[i] for i in used])
            # one draw of the mask, and none when nothing is dropped
            drawn = np.random.default_rng(63)
            if training and rate > 0:
                drawn.random(fused.data.shape)
            assert fused_rng.bit_generator.state == drawn.bit_generator.state
            assert composed_rng.bit_generator.state == drawn.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [12, 256])  # batched and flat forward GEMM
    def test_projected_gelu_equals_gelu_of_linear(self, dtype, width):
        rng = np.random.default_rng(68)
        with precision(dtype):
            shapes = ((2, 5, 7, width), (width, 2 * width), (2 * width,))
            fused_in, composed_in = self.leaves(rng, *shapes)
            x, w, b = fused_in
            fused = gelu(x, w=w, b=b)
            composed = gelu(linear(*composed_in))
            with no_grad():
                lifted = gelu(x, w=w, b=b).data
            g = rng.normal(size=fused.data.shape).astype(dtype)
            self.assert_same(fused, composed, g, fused_in, composed_in)
            assert_bitwise_equal(lifted, fused.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_with_residual_equals_gelu_then_add(self, dtype):
        rng = np.random.default_rng(72)
        with precision(dtype):
            fused_in, composed_in = self.leaves(rng, (2, 5, 7, 12), (2, 5, 7, 12))
            x, residual = fused_in
            before = x.data.copy(), residual.data.copy()
            fused = gelu(x, residual=residual)
            with no_grad():
                lifted = gelu(x, residual=residual).data
            composed = gelu(composed_in[0]) + composed_in[1]
            g = rng.normal(size=fused.data.shape).astype(dtype)
            self.assert_same(fused, composed, g, fused_in, composed_in)
            assert_bitwise_equal(lifted, fused.data)
            assert_bitwise_equal(x.data, before[0])
            assert_bitwise_equal(residual.data, before[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("widths, out", [((2, 4, 6), 4), ((100, 100, 56), 256)])
    @pytest.mark.parametrize("layout", ["plain", "heads", "merge_heads"])
    def test_tuple_linear_equals_linear_of_concatenation(self, dtype, widths, out, layout):
        rng = np.random.default_rng(69)
        with precision(dtype):
            lead = (2, 2, 5, 3)
            shapes = [lead + (n,) for n in widths] + [(sum(widths), out), (out,)]
            fused_in, composed_in = self.leaves(rng, *shapes)
            kwargs = {"heads": 2} if layout == "heads" else {"merge_heads": layout == "merge_heads"}
            bias = fused_in[-1] if layout != "merge_heads" else None
            fused = linear(tuple(fused_in[:3]), fused_in[3], bias, **kwargs)
            joined = Tensor(np.concatenate([t.data for t in composed_in[:3]], axis=-1),
                            requires_grad=True)
            bias = composed_in[-1] if layout != "merge_heads" else None
            composed = linear(joined, composed_in[3], bias, **kwargs)
            g = rng.normal(size=fused.data.shape).astype(dtype)
            used = [3, 4] if layout != "merge_heads" else [3]
            self.assert_same(fused, composed, g, [fused_in[i] for i in used],
                             [composed_in[i] for i in used])
            pieces = np.split(joined.grad, np.cumsum(widths)[:-1], axis=-1)
            for part, piece in zip(fused_in[:3], pieces):
                assert_bitwise_equal(part.grad, piece)

    def test_tuple_linear_gradient_reaches_only_parts_that_require_it(self):
        rng = np.random.default_rng(70)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        linear((a, c), w).backward()
        assert a.grad.shape == (3, 2) and c.grad is None
        with pytest.raises(ShapeError, match=r"\(3, 6\).*\(5, 5\)"):
            linear((a, c), Tensor(np.zeros((5, 5))))

    def test_gradients(self):
        rng = np.random.default_rng(64)
        x, w, b, residual = (rng.normal(size=shape) for shape in
                             ((2, 3, 4), (4, 4), (4,), (2, 3, 4)))
        seed = rng.normal(size=(2, 2, 3, 2))
        assert grad_check(lambda s, t, u: (linear(s, t, u, heads=2) * seed).sum(),
                          [x, w, b]) < 1e-4
        merged_seed = seed.reshape(2, 3, 4)
        assert grad_check(lambda s, t: (linear(s, t, merge_heads=True) * merged_seed).sum(),
                          [rng.normal(size=(2, 2, 3, 3)), rng.normal(size=(3, 2))]) < 1e-4
        assert grad_check(lambda q, k, v: (scaled_dot_attention(q, k, v, merge_heads=True)
                                           * merged_seed).sum(),
                          [rng.normal(size=(2, 2, 3, 2)) for _ in range(3)]) < 1e-4
        for project in (True, False):
            def fn(s, t, u, r):
                return (dropout(s, 0.25, np.random.default_rng(65), True, residual=r,
                                w=t if project else None, b=u if project else None)
                        * merged_seed).sum()
            assert grad_check(fn, [x, w, b, residual]) < 1e-4
        assert grad_check(lambda s, t, u: (gelu(s, w=t, b=u) * seed[:, 0]).sum(),
                          [rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 2)),
                           rng.normal(size=2)]) < 1e-4
        assert grad_check(lambda s, r: (gelu(s, residual=r) * merged_seed).sum(),
                          [x, residual]) < 1e-4
        assert grad_check(lambda s, t, u, v: (linear((s, t), u, heads=2) * seed).sum(),
                          [rng.normal(size=(2, 3, 1)), rng.normal(size=(2, 3, 3)),
                           rng.normal(size=(4, 4)), rng.normal(size=4)]) < 1e-4
        assert grad_check(lambda s, t, u, v: (linear((s, t, u), v, merge_heads=True)
                                              * merged_seed).sum(),
                          [rng.normal(size=(2, 2, 3, 1)) for _ in range(3)]
                          + [rng.normal(size=(3, 2))]) < 1e-4

    @pytest.mark.parametrize("training", [False, True])
    def test_residual_dropout_leaves_its_inputs_unchanged(self, training):
        # Without `w` and outside training the dropped value is x's own array,
        # so the residual must not be added into it.
        rng = np.random.default_rng(66)
        x, residual = (Tensor(rng.normal(size=(2, 5, 7))) for _ in range(2))
        before = x.data.copy(), residual.data.copy()
        out = dropout(x, 0.25, np.random.default_rng(67), training, residual=residual)
        assert_bitwise_equal(x.data, before[0])
        assert_bitwise_equal(residual.data, before[1])
        if not training:
            assert_bitwise_equal(out.data, before[1] + before[0])

    def test_residual_shape_error(self):
        with pytest.raises(ShapeError):
            dropout(Tensor(np.zeros((2, 3, 4))), 0.25, np.random.default_rng(0), True,
                    residual=Tensor(np.zeros((2, 3, 5))))
        with pytest.raises(ShapeError):
            gelu(Tensor(np.zeros((2, 3, 4))), residual=Tensor(np.zeros((3, 4))))


class TestDeal:
    """`_deal` runs every part in a copy of the caller's context, so under
    its numpy error state, covers each index exactly once and re-raises a
    part's exception only once every part has finished."""

    @staticmethod
    def overflow_on_pool_threads(monkeypatch, workers):
        """Deal one part per worker, of which only the pool threads' parts
        overflow; returns their results."""
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        threads, values = set(), []

        def run(first, last):
            if first > 0:
                threads.add(threading.current_thread().name)
                values.append(np.array([1e300]) * 1e300)

        numerics._deal(run, workers)
        assert len(values) == workers - 1
        assert threading.current_thread().name not in threads
        return values

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_parts_raise_under_callers_errstate(self, monkeypatch, workers):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            self.overflow_on_pool_threads(monkeypatch, workers)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_parts_are_silent_under_callers_errstate(self, monkeypatch, workers):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore"):
                values = self.overflow_on_pool_threads(monkeypatch, workers)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert [v.tolist() for v in values] == [[np.inf]] * (workers - 1)

    @pytest.mark.parametrize("failing", [0, 1, 2])  # the caller's part, then pool parts
    def test_failing_part_reraises_after_every_part_finished(self, monkeypatch, failing):
        monkeypatch.setattr(numerics, "_WORKERS", 3)
        finished = []

        def run(first, last):
            if first == failing:
                raise ValueError(f"part {first} failed")
            time.sleep(0.05)
            finished.append(first)

        with pytest.raises(ValueError, match=f"part {failing} failed"):
            numerics._deal(run, 3)
        assert sorted(finished) == [i for i in range(3) if i != failing]

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 100])
    def test_more_workers_than_cpus_cover_every_index_once(self, monkeypatch, count):
        # Eight workers on any machine, with the interpreter switching
        # threads as often as it can: every index is run by exactly one part.
        monkeypatch.setattr(numerics, "_WORKERS", 8)
        counts = np.zeros(count, int)

        def run(first, last):
            for i in range(first, last):
                counts[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            numerics._deal(run, count)
        finally:
            sys.setswitchinterval(interval)
        assert counts.tolist() == [1] * count


class TestContextState:
    """`no_grad` and `precision` belong to the context that enters them: a
    thread that enters and leaves one while the caller is inside the other
    changes neither what the caller records nor the dtype it makes."""

    @staticmethod
    def made():
        """(dtype of a new Tensor, whether an op on a leaf records)."""
        leaf = Tensor(np.ones(3), requires_grad=True)
        return leaf.data.dtype, (leaf * 2.0).requires_grad

    def made_while_other_thread_inside(self, manager):
        """`made()` while another thread sits inside `manager`, and again
        once it has left."""
        entered, leave = threading.Event(), threading.Event()

        def other():
            with manager:
                entered.set()
                leave.wait(10)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert entered.wait(10)
            inside = self.made()
        finally:
            leave.set()
            thread.join()
        return inside, self.made()

    def test_other_threads_no_grad_keeps_the_callers_recording(self):
        with precision(np.float32):
            inside, after = self.made_while_other_thread_inside(no_grad())
        assert inside == after == (np.float32, True)
        assert self.made() == (np.float64, True)

    def test_other_threads_precision_keeps_the_callers_dtype(self):
        with no_grad():
            inside, after = self.made_while_other_thread_inside(precision(np.float32))
        assert inside == after == (np.float64, False)
        assert self.made() == (np.float64, True)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("outer", ["none", "no_grad float32"])
    def test_evaluate_leaves_the_callers_state(self, tmp_path, monkeypatch, workers, outer):
        # evaluate enters precision and no_grad, and with two workers lifts
        # sequences on the pool thread; afterwards the caller's state is as
        # it was before the call.
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        skeleton = human36m_skeleton()
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for i in range(3):
            pl.write_sequence(pl.generate_motion(skeleton, frames=9, seed=90 + i),
                              data_dir / f"seq_{i}.pseq")
        pl.save_skeleton(skeleton, data_dir / "skeleton.json")
        model = ModelConfig(frames=9, channels_in=2, embed_dim=8, depth=1,
                            ste_heads=2, tte_heads=2, hga_heads=2)
        cfg = pl.TrainConfig(data_dir=str(data_dir), model=model,
                             precision="float32" if outer == "none" else "float64")
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(PoseLifter(model, skeleton).state_dict(), checkpoint)
        if outer == "none":
            pl.evaluate(cfg, checkpoint=str(checkpoint))
            assert self.made() == (np.float64, True)
        else:
            with no_grad(), precision(np.float32):
                pl.evaluate(cfg, checkpoint=str(checkpoint))
                assert self.made() == (np.float32, False)


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        params = [Parameter(rng.normal(size=(3, 4)).astype(np.float32), "a.w"),
                  Parameter(rng.normal(size=(5,)).astype(np.float32), "a.b")]
        path = tmp_path / "model.ckpt"
        save_checkpoint({p.name: p.data for p in params}, path)
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

"""Dense tensor arithmetic with reverse-mode differentiation.

Everything trainable in this package is built from the small set of
primitives below: a ``Tensor`` records the operations applied to it in a
DAG, and ``Tensor.backward`` replays the DAG in reverse topological order
to accumulate gradients.  Tensors hold float64 by default or float32
inside a ``precision`` context; all computation is single-threaded numpy,
so identical inputs reproduce bit-identical results.

The differentiation contract is empirical, not structural: every
differentiable operation must pass ``grad_check`` (central finite
differences, eps 1e-5) to better than 1e-4 relative error.

Also houses the parameter checkpoint format: ``HGFW1`` magic followed by
per-parameter records (u32 name length, name bytes, u32 rank, u32 dims,
little-endian f32 payload).
"""

from __future__ import annotations

import struct

import numpy as np
from scipy.special import erf as _erf_np

from .errors import DataError, DivergenceError, FormatError, ShapeError, TruncatedFileError

_SQRT2 = float(np.sqrt(2.0))
_TWO_OVER_SQRT_PI = float(2.0 / np.sqrt(np.pi))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

_grad_enabled = True
_default_dtype = np.float64


class no_grad:
    """Context manager that skips tape construction (inference only)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def default_dtype() -> np.dtype:
    return _default_dtype


class precision:
    """Context manager selecting the dtype newly created Tensors use.

    Tests and gradient checks run in float64 (the default); training may
    switch to float32 for speed.
    """

    def __init__(self, dtype):
        self._dtype = np.dtype(dtype).type
        if self._dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported tensor dtype {dtype!r}")

    def __enter__(self):
        global _default_dtype
        self._prev = _default_dtype
        _default_dtype = self._dtype
        return self

    def __exit__(self, *exc):
        global _default_dtype
        _default_dtype = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A float64 or float32 ndarray plus the tape machinery for reverse mode.

    ``data`` is the value, ``grad`` (same shape) accumulates d(output)/d(self)
    after ``backward`` runs on a downstream scalar.  Tensors are treated as
    immutable by all operations; optimizers rebind ``data`` rather than
    mutating through views.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accum(self, g: np.ndarray) -> None:
        # Copy on first write: `g` may be a view into another node's grad.
        if self.requires_grad:
            if self.grad is None:
                self.grad = np.array(g)
            else:
                self.grad += g

    def _accum_owned(self, g: np.ndarray) -> None:
        # Like _accum, for gradients the caller freshly allocated.
        if self.requires_grad:
            if self.grad is None:
                self.grad = g
            else:
                self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this tensor w.r.t. every ancestor.

        ``seed`` defaults to ones (i.e. differentiate the sum of entries);
        pass an array of this tensor's shape to seed differently.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        # Iterative post-order over the DAG; training graphs are deeper
        # than the default recursion limit.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        if seed is None:
            seed = np.ones_like(self.data)
        self._accum(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    # Interior gradients and captured forward temporaries are
                    # dead once propagated; free them so buffers get reused.
                    node.grad = None
                    node._backward = None
                    node._parents = ()

    # -- conveniences --------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic primitives ----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def bw(g):
            if self.requires_grad:
                ga = _unbroadcast(g, self.data.shape)
                (self._accum if ga is g else self._accum_owned)(ga)
            if other.requires_grad:
                gb = _unbroadcast(g, other.data.shape)
                (other._accum if gb is g else other._accum_owned)(gb)

        return Tensor._node(out_data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def bw(g):
            self._accum_owned(-g)

        return Tensor._node(-self.data, (self,), bw)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def bw(g):
            if self.requires_grad:
                self._accum_owned(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum_owned(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._node(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self * (as_tensor(other) ** -1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) * (self ** -1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        p = float(exponent)
        out_data = self.data ** p

        def bw(g):
            self._accum_owned(g * p * self.data ** (p - 1.0))

        return Tensor._node(out_data, (self,), bw)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul requires rank >= 2 operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
        out_data = a @ b

        def bw(g):
            if self.requires_grad:
                self._accum_owned(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
            if other.requires_grad:
                other._accum_owned(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))

        return Tensor._node(out_data, (self, other), bw)

    # -- reductions and shape ops ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(gg, self.data.shape))

        return Tensor._node(np.asarray(out_data), (self,), bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def bw(g):
            self._accum(g.reshape(self.data.shape))

        return Tensor._node(out_data, (self,), bw)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        # Materialize: downstream kernels are much faster on contiguous data.
        out_data = np.ascontiguousarray(np.swapaxes(self.data, a, b))

        def bw(g):
            self._accum(np.swapaxes(g, a, b))

        return Tensor._node(out_data, (self,), bw)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def bw(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            self._accum_owned(full)

        return Tensor._node(out_data, (self,), bw)

    # -- pointwise nonlinearities ----------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def bw(g):
            self._accum_owned(g * out_data)

        return Tensor._node(out_data, (self,), bw)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def bw(g):
            self._accum_owned(g * 0.5 / out_data)

        return Tensor._node(out_data, (self,), bw)

    def erf(self) -> "Tensor":
        out_data = _erf_np(self.data)

        def bw(g):
            self._accum_owned(g * _TWO_OVER_SQRT_PI * np.exp(-self.data ** 2))

        return Tensor._node(out_data, (self,), bw)


class Parameter(Tensor):
    """A named trainable Tensor; names must be unique within a model."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _axis_size(shape: tuple, axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    n = 1
    for a in axis:
        n *= shape[a]
    return n


def cat(tensors: list, axis: int = -1) -> Tensor:
    """Concatenate along `axis`; gradient splits back to each operand."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return Tensor._node(out_data, tuple(tensors), bw)


def l2norm_last(x) -> Tensor:
    """Euclidean norm over the trailing axis, with subgradient 0 at zero."""
    x = as_tensor(x)
    out_data = np.sqrt((x.data ** 2).sum(axis=-1))

    def bw(g):
        inv = np.divide(1.0, out_data, out=np.zeros_like(out_data), where=out_data > 0)
        x._accum_owned((g * inv)[..., None] * x.data)

    return Tensor._node(out_data, (x,), bw)


# -- layers ---------------------------------------------------------------

# Weights with at least this many entries take the flattened forward GEMM
# in `linear` (see its docstring for the measurement behind it).
_FLAT_GEMM_MIN_WEIGHT = 1 << 16


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Initial weights drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def linear(x, w, b=None) -> Tensor:
    """y[..., j] = sum_i x[..., i] w[i, j] (+ b[j]), as one fused node.

    For weights of at least _FLAT_GEMM_MIN_WEIGHT entries the forward
    product is one 2-D GEMM over the flattened rows; smaller weights keep
    numpy's batched ``(..., M, K) @ (K, N)``, one GEMM per leading index.
    The choice follows the weight size because that is where each form
    wins: in float32 with one BLAS thread, (8,17,27,64) @ (64,64) takes
    334 us batched and 410 us flat, while (1,243,17,384) @ (384,384)
    takes 21.5 ms batched and 11.7 ms flat.  The backward is the same for
    both forms, since the output gradient has the same shape either way:
    the weight gradient is the batched ``x^T @ g`` summed over the leading
    axes, whose summation order the seeded float32 runs depend on.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: input {x.data.shape} incompatible with weight {w.data.shape}")
    if x.data.ndim == 1:
        out = linear(x.reshape(1, x.data.shape[-1]), w, b)
        return out.reshape(out.data.shape[-1])
    b = as_tensor(b) if b is not None else None
    k, n = w.data.shape
    if w.data.size >= _FLAT_GEMM_MIN_WEIGHT:
        out_data = (x.data.reshape(-1, k) @ w.data).reshape(x.data.shape[:-1] + (n,))
    else:
        out_data = x.data @ w.data
    if b is not None:
        out_data += b.data
    parents = (x, w) if b is None else (x, w, b)

    def bw(g):
        if x.requires_grad:
            x._accum_owned(g @ w.data.T)
        if w.requires_grad:
            w._accum_owned(_unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape))
        if b is not None and b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            (b._accum if gb is g else b._accum_owned)(gb)

    return Tensor._node(out_data, parents, bw)


def _softmax_inplace(s: np.ndarray) -> np.ndarray:
    """Row-stabilized softmax over the trailing axis, written into `s`."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_grad_inplace(dp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dS = P * (dP - rowsum(dP * P)) for softmax weights P, written into `dp`."""
    dp -= (dp * p).sum(axis=-1, keepdims=True)
    dp *= p
    return dp


def softmax_rows(x) -> Tensor:
    """Row-stabilized softmax over the trailing axis (max subtraction)."""
    x = as_tensor(x)
    out_data = _softmax_inplace(x.data.copy())

    def bw(g):
        x._accum_owned(_softmax_grad_inplace(g.copy(), out_data))

    return Tensor._node(out_data, (x,), bw)


def scaled_dot_attention(q, k, v, attn_sink: list | None = None,
                         scale: float | None = None) -> Tensor:
    """softmax(scale * q k^T) v over the trailing two axes, as one node.

    `scale` defaults to 1/sqrt(d).  Leading axes broadcast, so (..., n, d)
    queries against (..., m, d) keys/values work batched.  The scores
    buffer is turned into the softmax weights in place, and the backward
    closure keeps only those weights P: with dP = g v^T it forms
    dS = P * (dP - rowsum(dP * P)), the softmax gradient in the form
    FlashAttention uses (Dao et al. 2022).  If `attn_sink` is a list, the
    weight array is appended to it (diagnostics only, no gradient).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d = q.data.shape[-1]
    if d == 0:
        raise ShapeError("attention with zero-width features")
    if k.data.shape[-1] != d:
        raise ShapeError(f"query dim {d} != key dim {k.data.shape[-1]}")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeError(f"{k.data.shape[-2]} keys vs {v.data.shape[-2]} values")
    scale = float(1.0 / np.sqrt(d) if scale is None else scale)

    def scaled_q():
        # Scaling the (smaller) queries is equivalent to scaling the scores.
        return q.data if scale == 1.0 else q.data * scale

    weights = _softmax_inplace(scaled_q() @ np.swapaxes(k.data, -1, -2))
    if attn_sink is not None:
        attn_sink.append(weights)
    out_data = weights @ v.data

    def bw(g):
        if v.requires_grad:
            v._accum_owned(_unbroadcast(np.swapaxes(weights, -1, -2) @ g, v.data.shape))
        if not (q.requires_grad or k.requires_grad):
            return
        ds = _softmax_grad_inplace(g @ np.swapaxes(v.data, -1, -2), weights)
        if q.requires_grad:
            gq = ds @ k.data
            if scale != 1.0:
                gq *= scale
            q._accum_owned(_unbroadcast(gq, q.data.shape))
        if k.requires_grad:
            k._accum_owned(_unbroadcast(np.swapaxes(ds, -1, -2) @ scaled_q(), k.data.shape))

    return Tensor._node(out_data, (q, k, v), bw)


def _normalize(x: Tensor, gamma, beta, axes: tuple | None, eps: float,
               stats: tuple | None = None) -> tuple:
    """Shared LN/BN node: y = (x - mean) / sqrt(var + eps) * gamma + beta.

    The statistics are taken over `axes` and differentiated through, unless
    `stats` gives (mean, var) as constants (batch norm's eval mode).  With
    h = g * gamma, the input gradient is the closed form
    dx = (h - mean(h) - xhat * mean(h * xhat)) / sigma with the means over
    `axes`, or h / sigma for constant statistics.  Returns (node, mean,
    var) with the statistics as plain arrays for running-stat upkeep.
    """
    gamma = as_tensor(gamma) if gamma is not None else None
    beta = as_tensor(beta) if beta is not None else None
    dtype = x.data.dtype
    if stats is None:
        mu = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
    else:
        mu, var = stats
    inv = (1.0 / np.sqrt(var + eps)).astype(dtype, copy=False)
    xhat = x.data - mu.astype(dtype, copy=False)
    xhat *= inv
    out_data = xhat
    if gamma is not None:
        out_data = xhat * gamma.data
    if beta is not None:
        out_data = out_data + beta.data
    parents = (x,) + tuple(p for p in (gamma, beta) if p is not None)

    def bw(g):
        if beta is not None and beta.requires_grad:
            gb = _unbroadcast(g, beta.data.shape)
            (beta._accum if gb is g else beta._accum_owned)(gb)
        if gamma is not None and gamma.requires_grad:
            gamma._accum_owned(_unbroadcast(g * xhat, gamma.data.shape))
        if not x.requires_grad:
            return
        h = g if gamma is None else g * gamma.data
        if stats is not None:
            x._accum_owned(h * inv)
            return
        gm = h.mean(axis=axes, keepdims=True)
        gym = (h * xhat).mean(axis=axes, keepdims=True)
        gx = h - gm
        gx -= xhat * gym
        gx *= inv
        x._accum_owned(gx)

    return Tensor._node(out_data, parents, bw), mu, var


def layer_norm(x, gamma=None, beta=None, eps: float = 1e-5) -> Tensor:
    """Normalize over the trailing feature axis to mean 0 / variance 1,
    then scale by `gamma` and shift by `beta`, all in one node."""
    return _normalize(as_tensor(x), gamma, beta, (-1,), eps)[0]


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Normalize per trailing-axis channel over all leading axes.

    In training mode the batch statistics normalize and the running
    arrays are updated in place (unbiased variance, like the usual
    momentum convention); in eval mode the running statistics normalize.
    Either way the result, with `gamma` and `beta` applied, is one node.
    """
    x = as_tensor(x)
    if not training:
        return _normalize(x, gamma, beta, None, eps, stats=(running_mean, running_var))[0]
    axes = tuple(range(x.data.ndim - 1))
    y, mu, var = _normalize(x, gamma, beta, axes, eps)
    n = x.data.size // x.data.shape[-1]
    correction = n / max(n - 1, 1)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu.reshape(-1)
    running_var *= 1.0 - momentum
    running_var += momentum * var.reshape(-1) * correction
    return y


def gelu(x) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + _erf_np(x.data / _SQRT2))
    out_data = x.data * cdf

    def bw(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data ** 2)
        x._accum_owned(g * (cdf + x.data * pdf))

    return Tensor._node(out_data, (x,), bw)


def dropout(x, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout as one node; identity when not training or rate is 0.

    The keep mask is boolean, ``rng.random(shape) >= rate``, and kept
    entries are scaled by 1 / (1 - rate).
    """
    x = as_tensor(x)
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out_data = x.data * scale
    out_data *= keep

    def bw(g):
        # C order whatever g's layout: the bias gradients upstream sum this
        # array over its leading axes, and their rounding follows its layout.
        gx = np.multiply(g, scale, order="C")
        gx *= keep
        x._accum_owned(gx)

    return Tensor._node(out_data, (x,), bw)


# -- gradient verification -------------------------------------------------


def grad_check(fn, inputs, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn` is called as fn(*tensors) and must return a Tensor; non-scalar
    outputs are reduced by summation.  `inputs` may be ndarrays or Tensors
    (Parameters included); they are perturbed in place coordinate by
    coordinate, so `fn` may also close over them and ignore its arguments.
    The error at each coordinate is |analytic - numeric| / max(1, |numeric|).
    """
    tensors = []
    for t in inputs:
        if not isinstance(t, Tensor):
            t = Tensor(np.array(t, dtype=np.float64), requires_grad=True)
        t.requires_grad = True
        t.grad = None
        tensors.append(t)

    def evaluate() -> float:
        out = fn(*tensors)
        val = float(out.data.sum())
        return val

    out = fn(*tensors)
    if out.data.size != 1:
        out = out.sum()
    if not np.isfinite(out.data):
        raise DivergenceError("grad_check: non-finite forward value")
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for i, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        aflat = analytic[i].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = evaluate()
            flat[j] = orig - eps
            f_minus = evaluate()
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise DivergenceError(f"grad_check: non-finite value perturbing input {i} coordinate {j}")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[j] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


# -- checkpoint format -------------------------------------------------------

CHECKPOINT_MAGIC = b"HGFW1"


def save_checkpoint(params, path) -> None:
    """Write named parameters; accepts Parameters or a name->array mapping."""
    if isinstance(params, dict):
        items = list(params.items())
    else:
        items = [(p.name, p.data) for p in params]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for name, value in items:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(value, dtype="<f4")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as a name -> float64 ndarray mapping."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a parameter checkpoint (bad magic)")
    out: dict[str, np.ndarray] = {}
    pos = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise TruncatedFileError(f"{path}: truncated at byte {pos}")
        piece = blob[pos : pos + n]
        pos += n
        return piece

    while pos < len(blob):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        count = int(np.prod(dims, dtype=np.int64)) if rank else 1
        payload = take(4 * count)
        if name in out:
            raise DataError(f"{path}: duplicate parameter {name!r}")
        out[name] = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
    return out

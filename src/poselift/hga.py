"""Hybrid graph attention over skeletal joints.

Per frame, the module projects normalized joint features into two views,
splits them into channel subspaces, and in each subspace combines three
signals: the features aggregated through the hybrid adjacency (fixed
skeletal prior plus a learnable additive matrix), a cross-attention of
joint features against those aggregated features, and a projection-free
similarity attention among the joints themselves.  The fused subspaces
are merged back, batch-normalized, passed through GELU, and added to the
normalized input.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
# softmax_rows is no longer called here; the name stays bound because the
# per-layer tracer (perfbench/layers.py) wraps hga.softmax_rows.
from .numerics import (Parameter, Tensor, as_tensor, batch_norm, cat, gelu,  # noqa: F401
                       layer_norm, linear, scaled_dot_attention, softmax_rows,
                       uniform_init)


def default_head_count(channels: int) -> int:
    return 8 if channels >= 64 else 2


class HgaParams:
    """Parameters of one hybrid graph attention module.

    The query/key/value projections and the fuse matrix act within a
    subspace and are shared across subspaces; the learnable adjacency is
    per module and starts at zero so training begins from the pure
    skeletal prior.
    """

    def __init__(self, joints: int, channels: int, heads: int | None,
                 rng: np.random.Generator, prefix: str = "hga"):
        heads = default_head_count(channels) if heads is None else heads
        if channels % heads:
            raise ConfigError(f"channels {channels} not divisible by {heads} heads")
        self.joints = joints
        self.channels = channels
        self.heads = heads
        sub = channels // heads
        self.ln_gamma = Parameter(np.ones(channels), f"{prefix}.ln_gamma")
        self.ln_beta = Parameter(np.zeros(channels), f"{prefix}.ln_beta")
        self.w_a = Parameter(uniform_init(rng, (channels, channels), channels), f"{prefix}.w_a")
        self.w_b = Parameter(uniform_init(rng, (channels, channels), channels), f"{prefix}.w_b")
        self.w_q = Parameter(uniform_init(rng, (sub, sub), sub), f"{prefix}.w_q")
        self.w_k = Parameter(uniform_init(rng, (sub, sub), sub), f"{prefix}.w_k")
        self.w_v = Parameter(uniform_init(rng, (sub, sub), sub), f"{prefix}.w_v")
        self.w_upd = Parameter(uniform_init(rng, (3 * sub, sub), 3 * sub), f"{prefix}.w_upd")
        self.w_merge = Parameter(uniform_init(rng, (channels, channels), channels), f"{prefix}.w_merge")
        self.learnable_adj = Parameter(np.zeros((joints, joints)), f"{prefix}.learnable_adj")
        self.bn_gamma = Parameter(np.ones(channels), f"{prefix}.bn_gamma")
        self.bn_beta = Parameter(np.zeros(channels), f"{prefix}.bn_beta")
        self.bn_mean = np.zeros(channels)
        self.bn_var = np.ones(channels)

    def parameters(self) -> list:
        return [self.ln_gamma, self.ln_beta, self.w_a, self.w_b, self.w_q, self.w_k,
                self.w_v, self.w_upd, self.w_merge, self.learnable_adj,
                self.bn_gamma, self.bn_beta]


def project_ab(x_in, params: HgaParams) -> tuple:
    """Two linear views of the normalized features, per frame."""
    return linear(x_in, params.w_a), linear(x_in, params.w_b)


def split_heads(x, heads: int) -> list:
    """Contiguous channel chunks; concatenating them restores the input."""
    x = as_tensor(x)
    channels = x.data.shape[-1]
    if channels % heads:
        raise ConfigError(f"channels {channels} not divisible by {heads} heads")
    sub = channels // heads
    return [x[..., i * sub : (i + 1) * sub] for i in range(heads)]


def aggregate_hybrid(x_b_h, adj_total) -> Tensor:
    """Mix joint features through the combined adjacency, per frame."""
    adj_total = as_tensor(adj_total)
    x_b_h = as_tensor(x_b_h)
    if adj_total.data.shape[-1] != x_b_h.data.shape[-2]:
        raise ShapeError(f"adjacency {adj_total.data.shape} vs features {x_b_h.data.shape}")
    return adj_total @ x_b_h


def hybrid_cross_attention(x_a_h, x_hyb_h, params: HgaParams,
                           attn_sink: list | None = None) -> Tensor:
    """Attend joint features (queries) over hybrid features (keys/values)."""
    q = linear(x_a_h, params.w_q)
    k = linear(x_hyb_h, params.w_k)
    v = linear(x_hyb_h, params.w_v)
    return scaled_dot_attention(q, k, v, attn_sink=attn_sink)


def npsc(x_a_h, x_b_h, attn_sink: list | None = None) -> Tensor:
    """Projection-free joint similarity: softmax(x_a x_b^T) x_b, unscaled."""
    return scaled_dot_attention(x_a_h, x_b_h, x_b_h, attn_sink=attn_sink, scale=1.0)


def fuse_update(x_a_h, x_hyb_att, x_joint_h, w_upd) -> Tensor:
    """Concatenate the three subspace signals and project back down."""
    x_a_h, x_hyb_att, x_joint_h = map(as_tensor, (x_a_h, x_hyb_att, x_joint_h))
    if not (x_a_h.data.shape == x_hyb_att.data.shape == x_joint_h.data.shape):
        raise ShapeError("fuse_update expects three identically shaped tensors")
    return linear(cat([x_a_h, x_hyb_att, x_joint_h], axis=-1), w_upd)


def merge_heads(parts: list, w_merge) -> Tensor:
    """Concatenate subspaces back to full width and mix linearly."""
    shapes = {p.data.shape for p in map(as_tensor, parts)}
    if len(shapes) != 1:
        raise ShapeError(f"inconsistent subspace shapes: {sorted(shapes)}")
    return linear(cat(list(parts), axis=-1), w_merge)


def stack_heads(x: Tensor, heads: int) -> Tensor:
    """(..., N, C) -> (..., h, N, C/h); channel grouping matches split_heads."""
    shape = x.data.shape
    sub = shape[-1] // heads
    return x.reshape(shape[:-1] + (heads, sub)).swapaxes(-3, -2)


def unstack_heads(x: Tensor) -> Tensor:
    """(..., h, N, C/h) -> (..., N, C), the inverse of stack_heads."""
    x = x.swapaxes(-3, -2)
    shape = x.data.shape
    return x.reshape(shape[:-2] + (shape[-2] * shape[-1],))


def hga_forward(x, params: HgaParams, skeletal_adj, training: bool = False,
                attn_sink: list | None = None) -> Tensor:
    """Full module: LN, two projections, per-subspace hybrid attention and
    similarity, fuse, merge, BN, GELU, residual onto the normalized input.

    Subspaces are processed as one stacked axis; the result matches
    running the per-head operations above on each split_heads chunk.
    """
    x = as_tensor(x)
    if x.data.shape[-1] != params.channels or x.data.shape[-2] != params.joints:
        raise ShapeError(f"input {x.data.shape} vs module ({params.joints} joints, "
                         f"{params.channels} channels)")
    x_in = layer_norm(x, params.ln_gamma, params.ln_beta)
    x_a, x_b = project_ab(x_in, params)
    adj_total = params.learnable_adj + Tensor(skeletal_adj)
    a = stack_heads(x_a, params.heads)
    b = stack_heads(x_b, params.heads)
    hyb = aggregate_hybrid(b, adj_total)
    hyb_att = hybrid_cross_attention(a, hyb, params, attn_sink=attn_sink)
    joint = npsc(a, b, attn_sink=attn_sink)
    fused = fuse_update(a, hyb_att, joint, params.w_upd)
    merged = linear(unstack_heads(fused), params.w_merge)
    out = batch_norm(merged, params.bn_gamma, params.bn_beta,
                     params.bn_mean, params.bn_var, training=training)
    return gelu(out) + x_in

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
from .numerics import (Module, Parameter, Tensor, as_tensor, batch_norm, gelu,  # noqa: F401
                       layer_norm, linear, scaled_dot_attention, softmax_rows,
                       uniform_init)


def default_head_count(channels: int) -> int:
    return 8 if channels >= 64 else 2


class HgaParams(Module):
    """Parameters of one hybrid graph attention module.

    The query/key/value projections and the fuse matrix act within a
    subspace and are shared across subspaces; the learnable adjacency is
    per module and starts at zero so training begins from the pure
    skeletal prior.  The batch-norm running statistics are buffers named
    ``{prefix}.bn_mean`` and ``{prefix}.bn_var``.
    """

    def __init__(self, joints: int, channels: int, heads: int | None,
                 rng: np.random.Generator, prefix: str = "hga"):
        heads = default_head_count(channels) if heads is None else heads
        if channels % heads:
            raise ConfigError(f"channels {channels} not divisible by {heads} heads")
        self.joints = joints
        self.channels = channels
        self.heads = heads
        self.prefix = prefix
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


def project_ab(x_in, params: HgaParams) -> tuple:
    """Two linear views of the normalized features, per frame, each split
    into heads: (..., N, C) -> (..., heads, N, C/heads)."""
    return (linear(x_in, params.w_a, heads=params.heads),
            linear(x_in, params.w_b, heads=params.heads))


def aggregate_hybrid(x_b_h, adj, skeletal_adj) -> Tensor:
    """Mix joint features through the adjacency `adj` plus the fixed
    `skeletal_adj`, taken in adj's dtype so that a float32 model computes
    in float32, per frame, as one node.

    The backward hands `adj` its gradient as the unreduced product pair
    (g, x_b^T), as `linear` hands its weight, so a dealt part defers its
    rows like any weight's (`numerics._Recorded`).
    """
    adj, x_b_h = as_tensor(adj), as_tensor(x_b_h)
    if adj.data.shape[-1] != x_b_h.data.shape[-2]:
        raise ShapeError(f"adjacency {adj.data.shape} vs features {x_b_h.data.shape}")
    total = adj.data + np.asarray(skeletal_adj, adj.data.dtype)

    def bw(g):
        adj._accum((g, np.swapaxes(x_b_h.data, -1, -2)))
        if x_b_h.requires_grad:
            x_b_h._accum(np.swapaxes(total, -1, -2) @ g, owned=True)

    return Tensor._node(total @ x_b_h.data, (adj, x_b_h), bw)


def hybrid_cross_attention(x_a_h, x_hyb_h, params: HgaParams,
                           attn_sink: list | None = None) -> Tensor:
    """Attend joint features (queries) over hybrid features (keys/values)."""
    q = linear(x_a_h, params.w_q)
    k = linear(x_hyb_h, params.w_k)
    v = linear(x_hyb_h, params.w_v)
    del x_hyb_h
    return scaled_dot_attention(q, k, v, attn_sink=attn_sink)


def npsc(x_a_h, x_b_h, attn_sink: list | None = None) -> Tensor:
    """Projection-free joint similarity: softmax(x_a x_b^T) x_b, unscaled."""
    return scaled_dot_attention(x_a_h, x_b_h, x_b_h, attn_sink=attn_sink, scale=1.0)


def fuse_update(x_a_h, x_hyb_att, x_joint_h, w_upd) -> Tensor:
    """Project the three (..., h, N, C/h) subspace signals, concatenated,
    back down and merge the heads: (..., N, C), keeping no concatenation."""
    x_a_h, x_hyb_att, x_joint_h = map(as_tensor, (x_a_h, x_hyb_att, x_joint_h))
    if not (x_a_h.data.shape == x_hyb_att.data.shape == x_joint_h.data.shape):
        raise ShapeError("fuse_update expects three identically shaped tensors")
    return linear((x_a_h, x_hyb_att, x_joint_h), w_upd, merge_heads=True)


def hga_core(x_in, params: HgaParams, skeletal_adj, attn_sink: list | None) -> Tensor:
    """The module between its norms, from the normalized input to the merged
    (..., N, C) update: two projections, per-subspace hybrid attention and
    similarity, fuse, merge.  Each frame's output depends on that frame's
    input alone."""
    a, b = project_ab(x_in, params)
    hyb_att = hybrid_cross_attention(a, aggregate_hybrid(b, params.learnable_adj, skeletal_adj),
                                     params, attn_sink=attn_sink)
    joint = npsc(a, b, attn_sink=attn_sink)
    del b
    fused = fuse_update(a, hyb_att, joint, params.w_upd)
    del a, hyb_att, joint
    return linear(fused, params.w_merge)


def hga_forward(x, params: HgaParams, skeletal_adj, training: bool = False,
                attn_sink: list | None = None, per_frame=None) -> Tensor:
    """Full module: LN, two projections, per-subspace hybrid attention and
    similarity, fuse, merge, BN, GELU, residual onto the normalized input.

    Subspaces are processed as one stacked axis; the result matches
    running the per-head operations above on each contiguous channel chunk.
    Each intermediate is dropped once its last consumer has run, so a
    no-grad call (whose nodes keep no parents) frees it there.

    Only the batch norm mixes frames (its training statistics couple every
    entry).  `per_frame`, if given, computes the per-frame core
    (`hga_core`) as ``per_frame(core, x_in)``: the network deals it by
    frames (`network.spatial_block_forward`), while the layer norm, the
    batch norm and the GELU with its residual run on the whole array.
    """
    x = as_tensor(x)
    if x.data.shape[-1] != params.channels or x.data.shape[-2] != params.joints:
        raise ShapeError(f"input {x.data.shape} vs module ({params.joints} joints, "
                         f"{params.channels} channels)")
    x_in = layer_norm(x, params.ln_gamma, params.ln_beta)
    core = lambda t: hga_core(t, params, skeletal_adj, attn_sink)
    out = core(x_in) if per_frame is None else per_frame(core, x_in)
    out = batch_norm(out, params.bn_gamma, params.bn_beta,
                     params.bn_mean, params.bn_var, training=training)
    return gelu(out, residual=x_in)

"""Model assembly: embeddings, spatial/temporal blocks, regression head,
and the two-stage pipeline.

The lifter alternates spatial blocks (two hybrid graph attention modules
followed by a Transformer encoder over joints) with temporal blocks
(three Transformer encoders over frames, applied per joint).  A spatial
positional embedding is added before the first spatial block and a
temporal one before the first temporal block.  The preliminary variant
is the same network with 2-channel input and a deeper stack; its noised
3D output concatenated with the 2D keypoints feeds the 5-channel model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .hga import HgaParams, default_head_count, hga_forward
from .losses import LossWeights
from .numerics import (Module, Parameter, Tensor, _deal, _grad_enabled,
                       as_tensor, dropout, gelu, layer_norm, linear, no_grad, precision,
                       scaled_dot_attention, uniform_init)
from .skeleton import SkeletonGraph, _hybrid_weights, build_hybrid_adjacency


@dataclass
class ModelConfig:
    """Shape, depth, and loss-weight configuration of one lifter.

    channels_in is 2 for the preliminary network (2D keypoints only) and
    5 for the main network (2D plus provisional 3D).
    """

    frames: int = 27
    joints: int = 17
    channels_in: int = 5
    embed_dim: int = 64
    depth: int = 2
    ste_heads: int = 8
    tte_heads: int = 8
    hga_heads: int | None = None
    ff_expansion: int = 2
    hop_count: int = 2
    hop_weights: tuple[float, ...] | None = None
    dropout: float = 0.25
    lambda_t: float = 0.1
    lambda_m: float = 1.0
    lambda_f: float = 0.1
    joint_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.channels_in not in (2, 5):
            raise ConfigError(f"channels_in must be 2 or 5, got {self.channels_in}")
        for name in ("frames", "joints", "embed_dim", "depth", "ff_expansion"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        self.hop_weights, _ = _hybrid_weights(self.hop_count, self.hop_weights)
        hga = self.hga_heads if self.hga_heads is not None else default_head_count(self.embed_dim)
        for name, heads in (("ste_heads", self.ste_heads), ("tte_heads", self.tte_heads),
                            ("hga_heads", hga)):
            if heads < 1 or self.embed_dim % heads:
                raise ConfigError(f"embed_dim {self.embed_dim} not divisible by {name}={heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0,1), got {self.dropout}")
        if self.joint_weights is not None:
            self.joint_weights = tuple(float(w) for w in self.joint_weights)
            if len(self.joint_weights) != self.joints:
                raise ConfigError(f"{len(self.joint_weights)} joint weights for {self.joints} joints")
        self.loss_weights()

    def loss_weights(self) -> LossWeights:
        """The composite loss's weights; refuses a negative or non-finite one."""
        return LossWeights(lambda_t=self.lambda_t, lambda_m=self.lambda_m,
                           lambda_f=self.lambda_f, joint_weights=self.joint_weights)


class EncoderParams(Module):
    """Pre-LN Transformer encoder: self-attention then a 2-layer GELU MLP."""

    def __init__(self, channels: int, heads: int, ff_expansion: int,
                 rng: np.random.Generator, prefix: str):
        if channels % heads:
            raise ConfigError(f"channels {channels} not divisible by {heads} heads")
        self.channels = channels
        self.heads = heads
        hidden = channels * ff_expansion
        self.ln1_gamma = Parameter(np.ones(channels), f"{prefix}.ln1_gamma")
        self.ln1_beta = Parameter(np.zeros(channels), f"{prefix}.ln1_beta")
        self.w_q = Parameter(uniform_init(rng, (channels, channels), channels), f"{prefix}.w_q")
        self.b_q = Parameter(uniform_init(rng, channels, channels), f"{prefix}.b_q")
        self.w_k = Parameter(uniform_init(rng, (channels, channels), channels), f"{prefix}.w_k")
        self.b_k = Parameter(uniform_init(rng, channels, channels), f"{prefix}.b_k")
        self.w_v = Parameter(uniform_init(rng, (channels, channels), channels), f"{prefix}.w_v")
        self.b_v = Parameter(uniform_init(rng, channels, channels), f"{prefix}.b_v")
        self.w_o = Parameter(uniform_init(rng, (channels, channels), channels), f"{prefix}.w_o")
        self.b_o = Parameter(uniform_init(rng, channels, channels), f"{prefix}.b_o")
        self.ln2_gamma = Parameter(np.ones(channels), f"{prefix}.ln2_gamma")
        self.ln2_beta = Parameter(np.zeros(channels), f"{prefix}.ln2_beta")
        self.w_ff1 = Parameter(uniform_init(rng, (channels, hidden), channels), f"{prefix}.w_ff1")
        self.b_ff1 = Parameter(uniform_init(rng, hidden, channels), f"{prefix}.b_ff1")
        self.w_ff2 = Parameter(uniform_init(rng, (hidden, channels), hidden), f"{prefix}.w_ff2")
        self.b_ff2 = Parameter(uniform_init(rng, channels, hidden), f"{prefix}.b_ff2")


def encoder_forward(x, params: EncoderParams, training: bool = False,
                    rng: np.random.Generator | None = None, drop_rate: float = 0.0) -> Tensor:
    """Self-attention over the second-to-last axis, with residuals.

    Each intermediate is dropped once its last consumer has run, so a
    no-grad call (whose nodes keep no parents) frees it there.
    """
    x = as_tensor(x)
    h = layer_norm(x, params.ln1_gamma, params.ln1_beta)
    q = linear(h, params.w_q, params.b_q, heads=params.heads)
    k = linear(h, params.w_k, params.b_k, heads=params.heads)
    v = linear(h, params.w_v, params.b_v, heads=params.heads)
    del h
    attended = scaled_dot_attention(q, k, v, merge_heads=True)
    del q, k, v
    x = dropout(attended, drop_rate, rng, training, residual=x, w=params.w_o, b=params.b_o)
    del attended
    hidden = gelu(layer_norm(x, params.ln2_gamma, params.ln2_beta), w=params.w_ff1, b=params.b_ff1)
    return dropout(hidden, drop_rate, rng, training, residual=x, w=params.w_ff2, b=params.b_ff2)


class SpatialBlock(Module):
    def __init__(self, config: ModelConfig, rng, prefix: str):
        self.hga1 = HgaParams(config.joints, config.embed_dim, config.hga_heads, rng, f"{prefix}.hga1")
        self.hga2 = HgaParams(config.joints, config.embed_dim, config.hga_heads, rng, f"{prefix}.hga2")
        self.ste = EncoderParams(config.embed_dim, config.ste_heads, config.ff_expansion, rng, f"{prefix}.ste")


class TemporalBlock(Module):
    def __init__(self, config: ModelConfig, rng, prefix: str):
        self.ttes = [EncoderParams(config.embed_dim, config.tte_heads, config.ff_expansion,
                                   rng, f"{prefix}.tte{i}") for i in range(3)]


def embed_input(x, w_emb, b_emb=None, pe_spatial=None) -> Tensor:
    """Per-joint linear projection into the embedding space (+ spatial PE)."""
    x = as_tensor(x)
    if x.data.shape[-1] != w_emb.data.shape[0]:
        raise ShapeError(f"input channels {x.data.shape[-1]} vs embedding {w_emb.data.shape}")
    e = linear(x, w_emb, b_emb)
    if pe_spatial is not None:
        e = e + pe_spatial
    return e


def spatial_block_forward(x, block: SpatialBlock, skeletal_adj, training: bool = False,
                          rng=None, drop_rate: float = 0.0, attn_sink=None) -> Tensor:
    x = hga_forward(x, block.hga1, skeletal_adj, training=training, attn_sink=attn_sink)
    x = hga_forward(x, block.hga2, skeletal_adj, training=training, attn_sink=attn_sink)
    return encoder_forward(x, block.ste, training, rng, drop_rate)


def temporal_block_forward(x, block: TemporalBlock, training: bool = False,
                           rng=None, drop_rate: float = 0.0, pe_temporal=None) -> Tensor:
    """Rearrange to joint-major, add the (T, C) `pe_temporal` if given, run
    the three encoders over frames, restore."""
    x = as_tensor(x).swapaxes(-3, -2)
    if pe_temporal is not None:
        x = x + pe_temporal
    for tte in block.ttes:
        x = encoder_forward(x, tte, training, rng, drop_rate)
    return x.swapaxes(-3, -2)


_SPLIT_MIN_ELEMENTS = 1 << 20    # activation elements from which a forward uses every CPU
_SPLIT_BLOCK_ELEMENTS = 1 << 18  # activation elements per chunk of a block


def _in_parts(block, x: Tensor, axis: int, deal: bool) -> Tensor:
    """``block(x)``; if `deal`, computed chunk by chunk, for a `block` that
    maps each index of `x` on `axis` alone to an output of x's shape and
    dtype.  The chunks, of about _SPLIT_BLOCK_ELEMENTS elements, are views
    of `x`; `_deal` hands them out in contiguous runs, one part per CPU,
    and each writes its output into one preallocated array.

    `PoseLifter.forward` deals from _SPLIT_MIN_ELEMENTS activation
    elements when no tape, batch statistics, dropout draw or attention
    sink spans the chunks.  The chunks do not depend on the number of
    CPUs, and every kernel in a block works per leading index, per row or
    per element, so the result is the serial one bit for bit.

    The cut-off was measured on a 2-vCPU Xeon in float32 with one BLAS
    thread, when the same sizes split each large forward kernel by rows:
    two parts beat one from about 26k output elements for GELU and the
    C=384 flat GEMM, 100k for layer norm and 200k for a (1,17,8,T,48)
    attention, and at 1.59M (the T=243 lift's activations) took 0.51-0.58
    of the serial time, but 0.95-1.04 where the pool thread stayed on the
    caller's CPU.  At 2^20 elements a call that gains nothing loses a few
    percent at most, and the small-array workloads stay serial: a T=27
    training step (C=64, B=8) has 235k activation elements and records
    anyway, a T=27 evaluation 29k, while a T=243 C=384 lift has 1.59M.
    An evaluation of many small sequences uses every CPU instead by lifting
    groups of whole sequences in parallel, each group of about 2^16
    elements in one batched forward, so that no group reaches the cut-off
    (``training._scored_pairs``); a T=243 C=384 sequence is a group of one.

    Chunks bound what a part allocates at once.  Each thread allocates
    from its own malloc arena, which keeps much of what it frees.  On the
    T=243 lift (two 10 s perfbench runs each, corrected op time and peak
    RSS): one chunk per part 0.97-1.00 s and 203.5 MB, chunks of 2^18
    elements (1 MiB in float32, inside the 2 MiB L2 per core) 0.91-0.93 s
    and 181-183 MB, of 2^17 0.94-0.98 s and 176 MB, of 2^16 1.02 s and
    173 MB.
    """
    n = x.data.shape[axis]
    count = min(n, x.data.size // _SPLIT_BLOCK_ELEMENTS) if deal else 1
    if count <= 1:
        return block(x)
    out = np.empty_like(x.data)
    cuts = [n * i // count for i in range(count + 1)]
    lead = (slice(None),) * (axis % x.data.ndim)

    def run(first, last):
        for i in range(first, last):
            rows = lead + (slice(cuts[i], cuts[i + 1]),)
            out[rows] = block(Tensor(x.data[rows])).data

    with precision(x.data.dtype):  # chunk views and the output keep x's dtype
        _deal(run, count)
        return Tensor(out)


def regression_head(x, w_head, b_head=None) -> Tensor:
    """Per-joint linear map from the embedding space to 3D coordinates."""
    return linear(x, w_head, b_head)


class PoseLifter(Module):
    """The full lifting network over (..., T, N, channels_in) sequences."""

    def __init__(self, config: ModelConfig, skeleton: SkeletonGraph, seed: int = 0):
        if skeleton.joint_count != config.joints:
            raise ConfigError(f"skeleton has {skeleton.joint_count} joints, config says {config.joints}")
        self.config = config
        self.skeleton = skeleton
        self.hybrid = build_hybrid_adjacency(skeleton, config.hop_count, config.hop_weights)
        rng = np.random.default_rng(seed)
        c = config.embed_dim
        self.w_emb = Parameter(uniform_init(rng, (config.channels_in, c), config.channels_in), "embed.w")
        self.b_emb = Parameter(uniform_init(rng, c, config.channels_in), "embed.b")
        self.pe_spatial = Parameter(rng.normal(0.0, 0.02, size=(config.joints, c)), "embed.pe_spatial")
        self.pe_temporal = Parameter(rng.normal(0.0, 0.02, size=(config.frames, c)), "embed.pe_temporal")
        self.blocks = [
            (SpatialBlock(config, rng, f"block{l}.spatial"),
             TemporalBlock(config, rng, f"block{l}.temporal"))
            for l in range(config.depth)
        ]
        self.w_head = Parameter(uniform_init(rng, (c, 3), c), "head.w")
        self.b_head = Parameter(uniform_init(rng, 3, c), "head.b")
        names = [name for name, _ in self.named_state()]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter or buffer names in model")

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    # -- forward -------------------------------------------------------------

    def forward(self, x, training: bool = False, rng: np.random.Generator | None = None,
                attn_sink: list | None = None) -> Tensor:
        x = as_tensor(x)
        cfg = self.config
        if x.data.ndim < 3 or x.data.shape[-1] != cfg.channels_in:
            raise ShapeError(f"expected (..., T, N, {cfg.channels_in}), got {x.data.shape}")
        if x.data.shape[-2] != cfg.joints or x.data.shape[-3] != cfg.frames:
            raise ShapeError(f"expected {cfg.frames} frames x {cfg.joints} joints, got {x.data.shape}")
        drop = cfg.dropout
        e = embed_input(x, self.w_emb, self.b_emb, self.pe_spatial)
        # A spatial block acts on each frame alone and a temporal block on
        # each joint alone, unless a tape, batch statistics, dropout draws
        # or a sink span them.  A chunk's output has e's dtype only if every
        # parameter has it.
        deal = (e.data.size >= _SPLIT_MIN_ELEMENTS and not training and attn_sink is None
                 and not _grad_enabled.get()
                 and all(p.data.dtype == e.data.dtype for p in self.parameters()))
        adj = self.hybrid.skeletal
        for l, (sb, tb) in enumerate(self.blocks):
            pe = self.pe_temporal if l == 0 else None
            e = _in_parts(lambda t: spatial_block_forward(t, sb, adj, training, rng, drop,
                                                          attn_sink), e, -3, deal)
            e = _in_parts(lambda t: temporal_block_forward(t, tb, training, rng, drop, pe),
                          e, -2, deal)
        return regression_head(e, self.w_head, self.b_head)


def two_stage_forward(x2d, preliminary: PoseLifter, main: PoseLifter) -> Tensor:
    """Preliminary 3D estimate, concat with the 2D input, main lift.

    The clean eval pipeline: the preliminary network runs detached (no
    gradient flows back into it), and the output is a deterministic
    function of the 2D input.
    """
    if preliminary.config.channels_in != 2:
        raise ConfigError("first-stage model must take 2 channels")
    if main.config.channels_in != 5:
        raise ConfigError("second-stage model must take 5 channels")
    if (preliminary.config.frames, preliminary.config.joints) != (main.config.frames, main.config.joints):
        raise ConfigError("stage models disagree on frames/joints")
    x2d = as_tensor(x2d)
    with no_grad():
        y_pre = preliminary.forward(x2d.detach()).data
    x5 = np.concatenate([x2d.data, y_pre], axis=-1)
    return main.forward(x5)

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

from . import numerics
from .errors import ConfigError, ShapeError
from .hga import HgaParams, default_head_count, hga_forward
from .losses import LossWeights
from .numerics import (Module, Parameter, Tensor, _grad_enabled, _in_parts, as_tensor, dropout,
                       gelu, layer_norm, linear, no_grad, scaled_dot_attention, uniform_init)
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


def embed_input(x, w_emb, b_emb, pe_spatial) -> Tensor:
    """Per-joint linear projection into the embedding space, plus the spatial PE."""
    x = as_tensor(x)
    if x.data.shape[-1] != w_emb.data.shape[0]:
        raise ShapeError(f"input channels {x.data.shape[-1]} vs embedding {w_emb.data.shape}")
    return linear(x, w_emb, b_emb) + pe_spatial


def spatial_block_forward(x, block: SpatialBlock, skeletal_adj, training: bool = False,
                          rng=None, drop_rate: float = 0.0, attn_sink=None,
                          frames: int = 1) -> Tensor:
    """Two HGAs, then the encoder over joints; each HGA's per-frame core
    and the encoder run their frames in `frames` chunks (`_in_parts`)."""
    def per_frame(core, t):
        return _in_parts(lambda c, r: core(c), t, -3, frames)

    for hga in (block.hga1, block.hga2):
        x = hga_forward(x, hga, skeletal_adj, training=training, attn_sink=attn_sink,
                        per_frame=per_frame)
    return _in_parts(lambda t, r: encoder_forward(t, block.ste, training, r, drop_rate),
                     x, -3, frames, rng)


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


_DEAL_MIN_ELEMENTS = 1 << 16    # activation elements from which one sequence's blocks are dealt
_SPLIT_BLOCK_ELEMENTS = 1 << 18  # activation elements per chunk of a no-grad block
_GROUP_ELEMENTS = 1 << 16        # activation elements per group of a batch


def regression_head(x, w_head, b_head) -> Tensor:
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
        """Lift (..., T, N, channels_in) to (..., T, N, 3).

        This is the one place that decides how a forward, and the backward
        of a recording one, use the CPUs.  Only a forward without an
        attention sink spreads over the worker pool, in one of three ways;
        any other runs serially.  A no-grad, eval-mode forward takes one of
        two.  A batch with more than one entry on axis 0 is cut into groups
        of consecutive entries: about _GROUP_ELEMENTS activation elements each
        (an entry counts frames x joints x embed_dim), at least one entry,
        and at least one group per CPU while entries last.  `_in_parts`
        deals the groups, and each runs the stack serially (`_stack` with
        one chunk a block).  A single sequence, or a batch that is one
        group, of at least _DEAL_MIN_ELEMENTS elements instead deals each
        spatial block's frames and each temporal block's joints, in chunks
        of about _SPLIT_BLOCK_ELEMENTS elements and at least one per CPU.
        No piece deals again.  Without a tape, batch statistics,
        dropout draws or a sink, batch norm uses its running statistics and
        norms, products and attention work per row or per leading index, so
        neither way mixes entries, frames or joints: the result equals a
        serial per-sequence lift bit for bit, for any number of CPUs, as
        long as BLAS gives each row of a GEMM as a taller GEMM would; this
        OpenBLAS does for the pieces these sizes make, but not for GEMMs of
        a few rows (6 rows at K=512 differ from the same rows among 102).

        A recording, training-mode forward of at least _DEAL_MIN_ELEMENTS
        deals each spatial block's HGA cores and encoder by frames and each
        temporal block by joints, one chunk per CPU of at least two
        indices.  An HGA's batch statistics couple every entry, so only
        its per-frame core is dealt (`hga.hga_core`), between its layer
        norm and its batch norm, which run whole.  Each part records its
        own tape, and the step's output, loss, gradients, buffers and
        generator state are the serial step's bit for bit
        (`numerics._in_parts`).  Float32 steps (forward, loss, backward
        and AdamW; T=27, C=64, depth 3, dropout 0.25, one BLAS thread,
        2-vCPU Xeon), serial on 1 worker and dealt on 2 in alternating runs
        of 10, the cut-off lowered for B=1 and 2; medians of 30 and of 50
        steps in two processes, the host's speed drifting between them:

        ===  ========  =========  =========  ============
        B    elements  serial ms  dealt ms   dealt/serial
        ===  ========  =========  =========  ============
        1    29k       118, 143   136, 163   1.16, 1.13
        2    59k       180, 226   184, 214   1.02, 0.95
        3    88k       279, 308   241, 287   0.86, 0.93
        4    118k      361, 422   323, 390   0.89, 0.93
        8    235k      765, 958   591, 738   0.77, 0.77
        ===  ========  =========  =========  ============

        With the HGAs whole, the same runs read 377 against 351 ms at B=4
        and 633 against 769 ms (0.82) at B=8.

        Grouping saves per-call overhead: a T=27 sequence is thousands of
        small numpy calls.  perfbench eval-t27 (32 sequences, C=64,
        float32, 2-vCPU Xeon, seed 29, alternating 10 s runs, medians):

        ==================  ===================  ====================  ====
        grouping            seq_per_s            peak_rss_mb           runs
        ==================  ===================  ====================  ====
        one sequence        26.2                 127.0                 8
        2 (2^16 elements)   32.2 (+23%)          128.9 (+1.5%)         5
        3                   33.9 (+29%)          132.2 (+4.0%)         3
        4 (2^17 elements)   35.0 (+34%)          131.2 (+3.3%)         8
        ==================  ===================  ====================  ====

        Memory grows with the group: a no-grad two-stage forward peaks at
        1.42 MB per sequence (tracemalloc), in the HGA cross-attention.  On
        one CPU, groups of 2 lift the 32 sequences in 1.31 s against 1.38 s
        one at a time, but one batch of all 32 takes 1.65 s against 1.49 s.
        A T=243, C=384 sequence (1.59M elements) is a group of one, two in
        flight on two CPUs.

        One cut-off, _DEAL_MIN_ELEMENTS = 2^16, serves both block deals.
        B=1 float32 no-grad lifts (channels_in 5, depth 2, one BLAS thread,
        2-vCPU Xeon), serial and dealt in alternating pairs in each of three
        processes, sizes below the cut-off dealt with it lowered; medians of
        the second process, and the pairs the deal won in each:

        ========  ========  =========  =========  ===================
        T, C      elements  serial ms  dealt ms   dealt won
        ========  ========  =========  =========  ===================
        27, 64    29k       25.0       25.2       3, 9, 28 of 30
        27, 128   59k       54.0       55.9       5, 6, 30 of 30
        61, 64    66k       50.6       53.7       1, 3, 30 of 30
        16, 256   70k       50.5       57.5       0, 6, 30 of 30
        11, 384   72k       72.4       55.7       25, 29, 30 of 30
        81, 64    88k       73.5       51.0       all 20
        243, 32   132k      197.5      137.7      all 20
        243, 64   264k      279.5      152.9      all 16
        243, 128  529k      601.5      318.7      all 12
        81, 384   529k      576.7      342.0      all 12
        243, 192  793k      748.7      477.2      all 10
        ========  ========  =========  =========  ===================

        Every dealt lift equalled the serial one bit for bit.  Up to 70k the
        outcome is the process's: in six other T=61, C=64 processes that
        lost, the pool thread had last run on the caller's CPU after every
        dealt lift.  From 72k the deal won in every process.  Chunks bound
        what a part allocates at once.  perfbench lift-t243 (seed 29, three
        alternating 15 s runs each, corrected op time and peak RSS, the pool
        sharing the caller's malloc arena): one chunk per part 0.86-0.89 s
        and 205-211 MB, chunks of 2^18 elements (1 MiB in float32, inside
        the 2 MiB L2 per core) 0.89-0.92 s and 169.5-169.7 MB, of 2^17
        0.91-0.95 s and 169.0-170.6 MB, of 2^16 1.03-1.05 s and 168.0-168.6
        MB: 2^18 keeps almost all of the memory saved for 3% of the time.
        """
        x = as_tensor(x)
        cfg = self.config
        if x.data.ndim < 3 or x.data.shape[-1] != cfg.channels_in:
            raise ShapeError(f"expected (..., T, N, {cfg.channels_in}), got {x.data.shape}")
        if x.data.shape[-2] != cfg.joints or x.data.shape[-3] != cfg.frames:
            raise ShapeError(f"expected {cfg.frames} frames x {cfg.joints} joints, got {x.data.shape}")
        recording = _grad_enabled.get()
        activations = x.data.size // cfg.channels_in * cfg.embed_dim
        entries = x.data.shape[0] if x.data.ndim > 3 else 1
        frames = joints = 1
        if attn_sink is None and not training and not recording:
            if entries > 1:
                per_group = max(1, _GROUP_ELEMENTS // (activations // entries))
                groups = max(-(-entries // per_group), min(entries, numerics._WORKERS))
                if groups > 1:
                    return _in_parts(lambda t, r: self._stack(t, training, r, attn_sink, 1, 1),
                                     x, 0, groups, rng)
            if activations >= _DEAL_MIN_ELEMENTS:
                chunks = max(numerics._WORKERS, activations // _SPLIT_BLOCK_ELEMENTS)
                frames, joints = min(cfg.frames, chunks), min(cfg.joints, chunks)
        elif attn_sink is None and training and recording and activations >= _DEAL_MIN_ELEMENTS:
            # Chunks of at least two indices: a chunk's layout then shows where its axis lies.
            frames = min(cfg.frames // 2, numerics._WORKERS)
            joints = min(cfg.joints // 2, numerics._WORKERS)
        return self._stack(x, training, rng, attn_sink, frames, joints)

    def _stack(self, x: Tensor, training: bool, rng, attn_sink, frames: int,
               joints: int) -> Tensor:
        """Embedding, blocks and head, each block's frames and joints in
        `frames` and `joints` chunks; in training, the spatial block's HGA
        cores and encoder are cut, not the block."""
        drop = self.config.dropout
        e = embed_input(x, self.w_emb, self.b_emb, self.pe_spatial)
        adj = self.hybrid.skeletal
        for l, (sb, tb) in enumerate(self.blocks):
            pe = self.pe_temporal if l == 0 else None
            if training:  # the HGAs' batch statistics couple every entry
                e = spatial_block_forward(e, sb, adj, training, rng, drop, attn_sink, frames)
            else:
                e = _in_parts(lambda t, r: spatial_block_forward(t, sb, adj, training, r, drop,
                                                                 attn_sink), e, -3, frames, rng)
            e = _in_parts(lambda t, r: temporal_block_forward(t, tb, training, r, drop, pe),
                          e, -2, joints, rng)
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

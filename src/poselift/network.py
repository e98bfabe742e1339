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

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import data as data_mod
from .errors import ConfigError, ShapeError
from .hga import HgaParams, default_head_count, hga_forward, stack_heads, unstack_heads
from .numerics import (Parameter, Tensor, as_tensor, dropout, gelu, layer_norm,
                       linear, no_grad, scaled_dot_attention, uniform_init)
from .skeleton import SkeletonGraph, build_hybrid_adjacency


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
    hop_weights: tuple | None = None
    dropout: float = 0.25
    lambda_t: float = 0.1
    lambda_m: float = 1.0
    lambda_f: float = 0.1
    joint_weights: tuple | None = None
    use_ijr: bool = False

    def __post_init__(self):
        if self.channels_in not in (2, 5):
            raise ConfigError(f"channels_in must be 2 or 5, got {self.channels_in}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.hop_count < 1:
            raise ConfigError(f"hop_count must be >= 1, got {self.hop_count}")
        if self.hop_weights is None:
            self.hop_weights = tuple(1.0 for _ in range(self.hop_count))
        else:
            self.hop_weights = tuple(float(w) for w in self.hop_weights)
        if len(self.hop_weights) != self.hop_count:
            raise ConfigError(f"{len(self.hop_weights)} hop weights for hop_count {self.hop_count}")
        hga = self.hga_heads if self.hga_heads is not None else default_head_count(self.embed_dim)
        for name, heads in (("ste_heads", self.ste_heads), ("tte_heads", self.tte_heads),
                            ("hga_heads", hga)):
            if self.embed_dim % heads:
                raise ConfigError(f"embed_dim {self.embed_dim} not divisible by {name}={heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0,1), got {self.dropout}")
        if self.use_ijr:
            raise ConfigError("the intra-joint refinement ablation is not implemented")
        if self.joint_weights is not None:
            self.joint_weights = tuple(float(w) for w in self.joint_weights)
            if len(self.joint_weights) != self.joints:
                raise ConfigError(f"{len(self.joint_weights)} joint weights for {self.joints} joints")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown model config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls.from_dict(json.loads(text))


class EncoderParams:
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

    def parameters(self) -> list:
        return [self.ln1_gamma, self.ln1_beta, self.w_q, self.b_q, self.w_k, self.b_k,
                self.w_v, self.b_v, self.w_o, self.b_o, self.ln2_gamma, self.ln2_beta,
                self.w_ff1, self.b_ff1, self.w_ff2, self.b_ff2]


def encoder_forward(x, params: EncoderParams, training: bool = False,
                    rng: np.random.Generator | None = None, drop_rate: float = 0.0) -> Tensor:
    """Self-attention over the second-to-last axis, with residuals."""
    x = as_tensor(x)
    h = layer_norm(x, params.ln1_gamma, params.ln1_beta)
    q = stack_heads(linear(h, params.w_q, params.b_q), params.heads)
    k = stack_heads(linear(h, params.w_k, params.b_k), params.heads)
    v = stack_heads(linear(h, params.w_v, params.b_v), params.heads)
    attended = unstack_heads(scaled_dot_attention(q, k, v))
    x = x + dropout(linear(attended, params.w_o, params.b_o), drop_rate, rng, training)
    h2 = layer_norm(x, params.ln2_gamma, params.ln2_beta)
    ff = linear(gelu(linear(h2, params.w_ff1, params.b_ff1)), params.w_ff2, params.b_ff2)
    return x + dropout(ff, drop_rate, rng, training)


class SpatialBlock:
    def __init__(self, config: ModelConfig, rng, prefix: str):
        self.hga1 = HgaParams(config.joints, config.embed_dim, config.hga_heads, rng, f"{prefix}.hga1")
        self.hga2 = HgaParams(config.joints, config.embed_dim, config.hga_heads, rng, f"{prefix}.hga2")
        self.ste = EncoderParams(config.embed_dim, config.ste_heads, config.ff_expansion, rng, f"{prefix}.ste")

    def parameters(self):
        return self.hga1.parameters() + self.hga2.parameters() + self.ste.parameters()


class TemporalBlock:
    def __init__(self, config: ModelConfig, rng, prefix: str):
        self.ttes = [EncoderParams(config.embed_dim, config.tte_heads, config.ff_expansion,
                                   rng, f"{prefix}.tte{i}") for i in range(3)]

    def parameters(self):
        return [p for t in self.ttes for p in t.parameters()]


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
                           rng=None, drop_rate: float = 0.0) -> Tensor:
    """Rearrange to joint-major, run the three encoders over frames, restore."""
    x = as_tensor(x).swapaxes(-3, -2)
    for tte in block.ttes:
        x = encoder_forward(x, tte, training, rng, drop_rate)
    return x.swapaxes(-3, -2)


def regression_head(x, w_head, b_head=None) -> Tensor:
    """Per-joint linear map from the embedding space to 3D coordinates."""
    return linear(x, w_head, b_head)


class PoseLifter:
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

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> list:
        params = [self.w_emb, self.b_emb, self.pe_spatial, self.pe_temporal]
        for sb, tb in self.blocks:
            params += sb.parameters() + tb.parameters()
        params += [self.w_head, self.b_head]
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names in model")
        return params

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict:
        state = {p.name: p.data for p in self.parameters()}
        for l, (sb, _) in enumerate(self.blocks):
            for m, hga in enumerate((sb.hga1, sb.hga2), start=1):
                state[f"block{l}.spatial.hga{m}.bn_mean"] = hga.bn_mean
                state[f"block{l}.spatial.hga{m}.bn_var"] = hga.bn_var
        return state

    def load_state_dict(self, state: dict) -> None:
        params = {p.name: p for p in self.parameters()}
        for name, p in params.items():
            if name not in state:
                raise ConfigError(f"checkpoint missing parameter {name!r}")
            value = np.asarray(state[name], dtype=p.data.dtype)
            if value.shape != p.data.shape:
                raise ShapeError(f"{name}: checkpoint shape {value.shape} vs model {p.data.shape}")
            p.data = value.copy()
        for l, (sb, _) in enumerate(self.blocks):
            for m, hga in enumerate((sb.hga1, sb.hga2), start=1):
                mean = state.get(f"block{l}.spatial.hga{m}.bn_mean")
                var = state.get(f"block{l}.spatial.hga{m}.bn_var")
                if mean is not None:
                    hga.bn_mean[:] = mean
                if var is not None:
                    hga.bn_var[:] = var

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
        adj = self.hybrid.skeletal
        for l, (sb, tb) in enumerate(self.blocks):
            e = spatial_block_forward(e, sb, adj, training, rng, drop, attn_sink)
            if l == 0:
                e = e.swapaxes(-3, -2) + self.pe_temporal
                e = e.swapaxes(-3, -2)
            e = temporal_block_forward(e, tb, training, rng, drop)
        return regression_head(e, self.w_head, self.b_head)

    __call__ = forward


def preliminary_forward(x2d, model: PoseLifter, training: bool = False,
                        rng=None, attn_sink=None) -> Tensor:
    """Forward of the 2D-only variant; guards the channel contract."""
    if model.config.channels_in != 2:
        raise ConfigError("preliminary model must be built with channels_in=2")
    return model.forward(x2d, training=training, rng=rng, attn_sink=attn_sink)


def two_stage_forward(x2d, preliminary: PoseLifter, main: PoseLifter,
                      noise_cfg: data_mod.NoiseConfig | None = None,
                      rng: np.random.Generator | None = None,
                      training: bool = False) -> Tensor:
    """Preliminary 3D estimate, optional group-wise noise, concat, main lift.

    The preliminary network runs detached (no gradient flows back into
    it); with no noise config or all-zero stds the output is a
    deterministic function of the 2D input.
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
    if noise_cfg is not None:
        y_pre = data_mod.inject_noise(y_pre, noise_cfg, rng)
    x5 = np.concatenate([x2d.data, y_pre], axis=-1)
    return main.forward(x5, training=training, rng=rng)

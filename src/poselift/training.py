"""Training loop, optimizer, learning-rate schedule, and evaluation.

Training is deterministic for a fixed config: one ``numpy`` generator
seeded from the config drives shuffling, input jitter, noise injection,
and dropout in a fixed single-threaded order.  Targets are root-relative
3D in units of meters (mm / 1000); reported errors are scaled back to
millimeters.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import numerics
from .errors import ConfigError, DataError, DivergenceError, config_from_dict
from .losses import total_loss
from .metrics import EvalReport, evaluate_sequences, mpjpe, root_relative
from .network import ModelConfig, PoseLifter, two_stage_forward
from .numerics import _deal, load_checkpoint, no_grad, precision, save_checkpoint
from .skeleton import SkeletonGraph, human36m_skeleton, load_skeleton

MM_PER_UNIT = 1000.0


@dataclass
class TrainConfig:
    """Everything one training stage needs; JSON-serializable."""

    seed: int = 0
    epochs: int = 100
    batch_size: int = 8
    learning_rate: float = 1e-4
    lr_decay: float = 0.99
    weight_decay: float = 0.0
    grad_clip: float | None = None
    val_fraction: float = 0.2
    eval_every: int = 1
    stage: str = "preliminary"
    data_dir: str = "data"
    out_dir: str = "runs/run0"
    model: ModelConfig = field(default_factory=lambda: ModelConfig(channels_in=2, depth=3))
    preliminary_model: ModelConfig | None = None
    preliminary_checkpoint: str | None = None
    noise: data_mod.NoiseConfig | None = None
    jitter_2d_std: float = 0.0
    root_center: bool = True
    precision: str = "float32"

    def __post_init__(self):
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32 or float64, got {self.precision!r}")
        # Written as `not 0 < x < inf` so that NaN and Infinity are refused too.
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr decay must lie in (0,1], got {self.lr_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.stage not in ("preliminary", "main"):
            raise ConfigError(f"stage must be 'preliminary' or 'main', got {self.stage!r}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val fraction must lie in [0,1), got {self.val_fraction}")
        for name in ("seed", "weight_decay", "jitter_2d_std"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.grad_clip is not None and not 0 < self.grad_clip < np.inf:
            raise ConfigError(f"grad_clip must be finite and > 0 or null, got {self.grad_clip}")
        if self.stage == "preliminary" and self.model.channels_in != 2:
            raise ConfigError("preliminary stage requires a channels_in=2 model")
        if self.stage == "main":
            if self.model.channels_in != 5:
                raise ConfigError("main stage requires a channels_in=5 model")
            if self.preliminary_model is None:
                self.preliminary_model = ModelConfig(**{**asdict(self.model),
                                                        "channels_in": 2,
                                                        "depth": self.model.depth + 1})
            if self.preliminary_model.depth <= self.model.depth:
                raise ConfigError("the preliminary network must be deeper than the main one")
            if self.noise is not None:
                self.noise.validate_partition(self.model.joints)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a train config is a JSON object, got {type(doc).__name__}")
        doc = dict(doc)
        for name, kind in (("model", ModelConfig), ("preliminary_model", ModelConfig),
                           ("noise", data_mod.NoiseConfig)):
            if name not in doc or (doc[name] is None and name != "model"):
                continue
            if not isinstance(doc[name], dict):
                raise ConfigError(f"{name} must be a JSON object, got {type(doc[name]).__name__}")
            doc[name] = config_from_dict(kind, doc[name], name)
        return config_from_dict(cls, doc, "train")

    @classmethod
    def from_json_file(cls, path) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: malformed JSON: {exc}") from None
        return cls.from_dict(doc)


# -- optimizer -----------------------------------------------------------------


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adamw_step(params, grads, state: AdamW, lr: float, weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay Adam update, in place.

    `state` holds the moment lists ``m``, ``v`` and the step count ``t``;
    the moment decays are ``ADAM_BETAS`` and the denominator's guard is
    ``ADAM_EPS``.  Weight decay multiplies the parameter directly
    (1 - lr*wd); the gradient only feeds the bias-corrected moment
    estimates.  Any non-finite gradient rejects the whole step.
    """
    beta1, beta2 = ADAM_BETAS
    for p, g in zip(params, grads):
        if g is not None and not np.isfinite(g).all():
            name = getattr(p, "name", "<tensor>")
            raise DivergenceError(f"non-finite gradient for {name}; step rejected")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            g = np.zeros_like(p.data)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data = p.data * (1.0 - lr * weight_decay) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class AdamW:
    """``adamw_step`` over a fixed parameter list, holding its own moment
    estimates ``m``, ``v`` and step count ``t``."""

    def __init__(self, params, lr: float = 1e-4, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr: float | None = None) -> None:
        grads = [p.grad for p in self.params]
        adamw_step(self.params, grads, self, self.lr if lr is None else lr, self.weight_decay)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Exponential decay: initial rate times decay^epoch."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.learning_rate * cfg.lr_decay ** epoch


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


# -- dataset handling -----------------------------------------------------------


def load_dataset(data_dir) -> tuple:
    """Read every .pseq in the directory (sorted) plus its skeleton."""
    data_dir = Path(data_dir)
    paths = sorted(data_dir.glob("*.pseq"))
    if not paths:
        raise DataError(f"no .pseq sequences in {data_dir}")
    sequences = [data_mod.read_sequence(p) for p in paths]
    for path, seq in zip(paths, sequences):
        if seq.values.shape[:2] != sequences[0].values.shape[:2]:
            raise DataError(f"{path}: {seq.frames} frames x {seq.joints} joints, but "
                            f"{paths[0].name} has {sequences[0].frames} x {sequences[0].joints}")
    skel_path = data_dir / "skeleton.json"
    skeleton = load_skeleton(skel_path) if skel_path.exists() else human36m_skeleton()
    return sequences, [p.stem for p in paths], skeleton


def prepare_pairs(sequences, skeleton: SkeletonGraph, root_center: bool = True) -> tuple:
    """Project each mm world sequence to 2D through the default camera and
    normalize the 3D target.

    Returns (x2d, y) arrays of shape (S, T, N, 2) and (S, T, N, 3); the
    target is root-relative (optional) and scaled from mm to meters.
    """
    x2d, y = [], []
    for seq in sequences:
        if seq.channels != 3:
            raise DataError(f"training sequences must be 3D, got {seq.channels} channels")
        x2d.append(data_mod.project_2d(seq).values)
        world = seq.values
        target = root_relative(world, skeleton.root_index) if root_center else world
        y.append(target / MM_PER_UNIT)
    return np.stack(x2d), np.stack(y)


@dataclass
class TrainResult:
    best_checkpoint: str
    last_checkpoint: str | None
    log_path: str
    best_val_mpjpe_mm: float
    epoch_losses: list
    epoch_val_mpjpe: list


def _stage_models(cfg: TrainConfig, skeleton: SkeletonGraph,
                  checkpoint: str | None = None) -> tuple:
    """(model, preliminary) for cfg's stage, the model loaded from `checkpoint`
    if given; for stage 'main' the preliminary loads cfg.preliminary_checkpoint."""
    model = PoseLifter(cfg.model, skeleton, seed=cfg.seed)
    if checkpoint is not None:
        model.load_state_dict(load_checkpoint(checkpoint))
    preliminary = None
    if cfg.stage == "main":
        if cfg.preliminary_checkpoint is None:
            raise ConfigError("stage 'main' requires a trained preliminary checkpoint")
        preliminary = PoseLifter(cfg.preliminary_model, skeleton, seed=cfg.seed)
        preliminary.load_state_dict(load_checkpoint(cfg.preliminary_checkpoint))
    return model, preliminary


_GROUP_ELEMENTS = 1 << 16  # activation elements `_scored_pairs` lifts in one forward


def _scored_pairs(model: PoseLifter, preliminary: PoseLifter | None, x2d_all: np.ndarray,
                  y_all: np.ndarray, indices, cfg: TrainConfig, root_index: int) -> list:
    """[(pred, ref)] per sequence in `indices`, in their order: the clean
    eval-mode prediction and its target, float64 metres, both root-relative
    when cfg.root_center is set.

    `indices` is cut into groups of consecutive entries, each lifted by one
    batched forward.  A sequence counts frames x joints x the wider stage's
    embed_dim activation elements, and a group holds about _GROUP_ELEMENTS
    of them, at least one sequence, and there are at least as many groups
    as CPUs whenever there are that many sequences.  The groups are dealt
    to the worker pool (`numerics._deal`), each part a contiguous run of
    them on one CPU.  A no-grad eval-mode forward never mixes its batch
    entries (batch norm uses its running statistics; norms, products and
    attention work per row or per leading index), so the predictions equal
    a serial per-sequence loop's bit for bit.  A non-finite prediction
    raises DivergenceError naming the first such sequence in `indices`, as
    the serial loop would.

    Grouping saves per-call overhead: a T=27 sequence is thousands of
    small numpy calls.  perfbench eval-t27 (32 sequences, C=64, float32,
    2-vCPU Xeon, seed 29, alternating 10 s runs, medians):

    ==================  ===================  ====================  ====
    grouping            seq_per_s            peak_rss_mb           runs
    ==================  ===================  ====================  ====
    one sequence        26.2                 127.0                 8
    2 (2^16 elements)   32.2 (+23%)          128.9 (+1.5%)         5
    3                   33.9 (+29%)          132.2 (+4.0%)         3
    4 (2^17 elements)   35.0 (+34%)          131.2 (+3.3%)         8
    ==================  ===================  ====================  ====

    Memory grows with the group: a no-grad two-stage forward peaks at 1.42
    MB per sequence (tracemalloc), in the HGA cross-attention.  On one
    CPU, groups of 2 lift the 32 sequences in 1.31 s against 1.38 s one at
    a time, but one batch of all 32 takes 1.65 s against 1.49 s.  A T=243,
    C=384 sequence (1.59M elements) is a group of one, whose forward deals
    its own blocks.
    """
    indices = list(indices)
    count = len(indices)
    if not count:
        return []
    config = model.config
    width = max(config.embed_dim, preliminary.config.embed_dim if preliminary else 0)
    per_group = max(1, _GROUP_ELEMENTS // (config.frames * config.joints * width))
    groups = max(-(-count // per_group), min(count, numerics._WORKERS))
    cuts = [count * g // groups for g in range(groups + 1)]
    pairs = [None] * count

    def score(first, last):
        for g in range(first, last):
            chosen = indices[cuts[g] : cuts[g + 1]]
            if preliminary is not None:
                out = two_stage_forward(x2d_all[chosen], preliminary, model)
            else:
                out = model.forward(x2d_all[chosen])
            for j, i, pred in zip(range(cuts[g], cuts[g + 1]), chosen,
                                  out.data.astype(np.float64)):
                ref = y_all[i]
                if not np.isfinite(pred).all():
                    raise DivergenceError(f"non-finite prediction for sequence {i}")
                if cfg.root_center:
                    pred, ref = root_relative(pred, root_index), root_relative(ref, root_index)
                pairs[j] = pred, ref

    with no_grad():
        _deal(score, groups)
    return pairs


def train(cfg: TrainConfig) -> TrainResult:
    """Run one training stage; writes checkpoints and the loss CSV.

    The per-step CSV row is epoch, step, L_w, L_t, L_m, L_f, total.  The
    best-by-validation-MPJPE checkpoint is kept at best.ckpt; last.ckpt
    is written at the end of the final epoch.  A non-finite loss or
    gradient aborts with DivergenceError, retaining the checkpoints
    already on disk.
    """
    with precision(cfg.precision):
        return _train_inner(cfg)


def _train_inner(cfg: TrainConfig) -> TrainResult:
    rng = np.random.default_rng(cfg.seed)
    sequences, names, skeleton = load_dataset(cfg.data_dir)
    frames = sequences[0].frames
    if frames != cfg.model.frames:
        raise ConfigError(f"sequences have {frames} frames, model expects {cfg.model.frames}")
    x2d_all, y_all = prepare_pairs(sequences, skeleton, root_center=cfg.root_center)

    count = len(sequences)
    n_val = int(round(cfg.val_fraction * count))
    train_idx = np.arange(count - n_val)
    val_idx = np.arange(count - n_val, count) if n_val else np.arange(count)
    if len(train_idx) == 0:
        raise DataError("validation split leaves no training sequences")

    model, preliminary = _stage_models(cfg, skeleton)
    weights = cfg.model.loss_weights()
    params = model.parameters()
    optimizer = AdamW(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)

    # With no input jitter, the first-stage predictions never change.
    pre_cache = None
    if preliminary is not None and cfg.jitter_2d_std == 0:
        with no_grad():
            pre_cache = preliminary.forward(x2d_all).data.astype(np.float64)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "loss_log.csv"
    best_path = out_dir / "best.ckpt"
    last_path = out_dir / "last.ckpt"
    best_val = np.inf
    epoch_losses, epoch_vals = [], []

    with open(log_path, "w", newline="", encoding="utf-8") as log_file:
        writer = csv.writer(log_file)
        writer.writerow(["epoch", "step", "L_w", "L_t", "L_m", "L_f", "total"])
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg)
            order = rng.permutation(len(train_idx))
            step_losses = []
            for step_start in range(0, len(order), cfg.batch_size):
                batch = train_idx[order[step_start : step_start + cfg.batch_size]]
                xb = x2d_all[batch]
                yb = y_all[batch]
                if cfg.jitter_2d_std > 0:
                    xb = xb + rng.normal(0.0, cfg.jitter_2d_std, size=xb.shape)
                if preliminary is not None:
                    if pre_cache is not None:
                        y_pre = pre_cache[batch]
                    else:
                        with no_grad():
                            y_pre = preliminary.forward(xb).data
                    if cfg.noise is not None:
                        y_pre = data_mod.inject_noise(y_pre, cfg.noise, rng)
                    xb = np.concatenate([xb, y_pre], axis=-1)
                out = model.forward(xb, training=True, rng=rng)
                breakdown = total_loss(out, yb, weights)
                vals = breakdown.values()
                step = step_start // cfg.batch_size
                writer.writerow([epoch, step, vals["position"], vals["temporal"],
                                 vals["velocity"], vals["frequency"], vals["total"]])
                if not np.isfinite(vals["total"]):
                    log_file.flush()
                    raise DivergenceError(
                        f"loss diverged at epoch {epoch} step {step}; last good checkpoint retained")
                model.zero_grad()
                breakdown.total.backward()
                if cfg.grad_clip is not None:
                    clip_gradients(params, cfg.grad_clip)
                optimizer.step(lr)
                step_losses.append(vals["total"])
            epoch_losses.append(float(np.mean(step_losses)))

            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                pairs = _scored_pairs(model, preliminary, x2d_all, y_all, val_idx, cfg,
                                      skeleton.root_index)
                val_err = float(np.mean([mpjpe(p, r) * MM_PER_UNIT for p, r in pairs]))
                epoch_vals.append((epoch, val_err))
                if val_err < best_val:
                    best_val = val_err
                    save_checkpoint(model.state_dict(), best_path)
        save_checkpoint(model.state_dict(), last_path)

    with open(out_dir / "config.json", "w", encoding="utf-8") as f:
        f.write(cfg.to_json() + "\n")
    return TrainResult(best_checkpoint=str(best_path), last_checkpoint=str(last_path),
                       log_path=str(log_path), best_val_mpjpe_mm=float(best_val),
                       epoch_losses=epoch_losses, epoch_val_mpjpe=epoch_vals)


def evaluate(cfg: TrainConfig, checkpoint: str | None = None, data_dir: str | None = None,
             central_frame: bool = False, allow_scale: bool = True) -> EvalReport:
    """Evaluate a checkpoint on a dataset directory.

    For stage 'main' the preliminary checkpoint from the config feeds the
    clean (noise-free) two-stage pipeline.  ``central_frame`` restricts
    the metrics to each sequence's middle frame (velocity is then
    unavailable and reported as None).
    """
    sequences, names, skeleton = load_dataset(data_dir or cfg.data_dir)
    x2d_all, y_all = prepare_pairs(sequences, skeleton, root_center=cfg.root_center)
    with precision(cfg.precision):
        model, preliminary = _stage_models(
            cfg, skeleton, checkpoint or str(Path(cfg.out_dir) / "best.ckpt"))
        predictions, references = [], []
        for pred, ref in _scored_pairs(model, preliminary, x2d_all, y_all,
                                       range(len(sequences)), cfg, skeleton.root_index):
            if central_frame:
                mid = pred.shape[0] // 2
                pred, ref = pred[mid : mid + 1], ref[mid : mid + 1]
            predictions.append(pred * MM_PER_UNIT)
            references.append(ref * MM_PER_UNIT)
    return evaluate_sequences(predictions, references, names, allow_scale=allow_scale)

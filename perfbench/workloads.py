"""The benchmark's three workloads, each driving poselift's public API.

Every workload builds its inputs from the seed alone (``generate_motion``,
``project_2d``, ``inject_noise``); model weights come from the fixed
``MODEL_SEED`` so that seeds vary the data, not the network.  Calls go
through module attributes (``losses.total_loss``, ``training.evaluate``)
so that a traced run's wrappers see them.

A workload offers ``setup(seed)`` (repeatable; timed as ``setup_s``; it
ends with one warm-up operation, so that lazy set-up and caches are paid
there, as by a user's first call, and not by the measured operations),
``prepare()`` (reference values for the checks; untimed), ``run_op()``
(one timed operation), ``check(output)`` (an error message or None) and
``finish()`` (end-of-run checks and the ``loss_end`` value).
"""

from __future__ import annotations

import hashlib
import shutil
import struct
from pathlib import Path

import numpy as np

from poselift import (data, frequency, losses, metrics, network, numerics,
                      skeleton, training)

MODEL_SEED = 0
PRECISION = "float32"
MPJPE_RTOL = 1e-5


def _motion(sk, frames: int, count: int, rng: np.random.Generator) -> list:
    seeds = rng.integers(0, 2**31 - 1, size=count)
    return [data.generate_motion(sk, frames, seed=int(s)) for s in seeds]


def _finite(value) -> bool:
    return value is not None and bool(np.isfinite(value))


def tape_counts(root) -> tuple[int, int]:
    """Nodes reachable from `root` and the bytes of the arrays they own.

    Read-only walk over the recorded parents.  A view is charged to the
    array that owns its memory, and each owner is counted once.
    """
    seen: set[int] = set()
    owners: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        base = node.data
        while isinstance(base.base, np.ndarray):
            base = base.base
        owners[id(base)] = base.nbytes
        stack.extend(node._parents)
    return len(seen), sum(owners.values())


class TrainT27:
    """Seeded training steps at the default preliminary config.

    Each operation mirrors one step of ``training._train_inner``: forward
    in training mode, ``total_loss``, ``zero_grad``, ``backward`` and
    ``AdamW.step``, with the epoch permutation and dropout drawn from one
    generator seeded by the workload seed.  ``loss_end`` is the mean total
    loss of the first epoch (one pass over the pool), as ``train`` logs it.
    """

    name = "train-t27"

    def __init__(self, frames=27, embed_dim=64, depth=3, batch=8, pool=32):
        self.frames, self.embed_dim, self.depth = frames, embed_dim, depth
        self.batch, self.pool = batch, pool
        self.seqs_per_op = batch
        self.loss_steps = -(-pool // batch)
        self.min_ops = self.loss_steps

    def setup(self, seed: int) -> None:
        self.skeleton = skeleton.human36m_skeleton()
        rng = np.random.default_rng(seed)
        sequences = _motion(self.skeleton, self.frames, self.pool, rng)
        self.x2d, self.y = training.prepare_pairs(sequences, self.skeleton)
        model_cfg = network.ModelConfig(frames=self.frames, channels_in=2,
                                        embed_dim=self.embed_dim, depth=self.depth)
        self.cfg = training.TrainConfig(seed=seed, batch_size=self.batch, model=model_cfg,
                                        precision=PRECISION)
        self.weights = losses.LossWeights(lambda_t=model_cfg.lambda_t, lambda_m=model_cfg.lambda_m,
                                          lambda_f=model_cfg.lambda_f)
        self.freq_cfg = frequency.FreqLossConfig(joint_weights=self.weights.joint_weights)
        self._start()
        self.run_op()
        self._start()

    def _start(self) -> None:
        with numerics.precision(self.cfg.precision):
            self.model = network.PoseLifter(self.cfg.model, self.skeleton, seed=MODEL_SEED)
        self.optimizer = training.AdamW(self.model.parameters(), lr=self.cfg.learning_rate,
                                        weight_decay=self.cfg.weight_decay)
        self.rng = np.random.default_rng(self.cfg.seed)
        self.epoch = -1
        self.pending: list = []
        self.losses: list[float] = []

    def prepare(self) -> None:
        pass

    def run_op(self, tape_sink=None) -> float:
        if not self.pending:
            self.epoch += 1
            self.lr = training.lr_schedule(self.epoch, self.cfg)
            order = self.rng.permutation(len(self.x2d))
            self.pending = [order[i : i + self.batch] for i in range(0, len(order), self.batch)]
        batch = self.pending.pop(0)
        with numerics.precision(self.cfg.precision):
            out = self.model.forward(self.x2d[batch], training=True, rng=self.rng)
            breakdown = losses.total_loss(out, self.y[batch], self.weights, self.freq_cfg)
            total = breakdown.values()["total"]
            if tape_sink is not None:
                tape_sink(breakdown.total)
            self.model.zero_grad()
            breakdown.total.backward()
            self.optimizer.step(self.lr)
        self.losses.append(total)
        return total

    def check(self, loss: float) -> str | None:
        return None if _finite(loss) else f"non-finite loss {loss}"

    def finish(self) -> tuple[float, list, dict]:
        """Replay the first steps from a fresh model; they must match bit for bit."""
        first = self.losses[: self.loss_steps]
        self._start()
        replay = [self.run_op() for _ in first]
        failures = [f"step {i}: loss {a!r} replayed as {b!r}"
                    for i, (a, b) in enumerate(zip(first, replay)) if a != b]
        digest = hashlib.sha256(struct.pack(f"<{len(first)}d", *first)).hexdigest()
        return float(np.mean(first)), failures, {"loss_steps": first, "loss_sha256": digest}

    def close(self) -> None:
        pass


class EvalT27:
    """``training.evaluate`` of a stage-main config over a generated dataset.

    Set-up writes the dataset (``.pseq`` files and ``skeleton.json``) and
    the preliminary (depth+1) and main checkpoints under `workdir`.
    """

    name = "eval-t27"

    def __init__(self, workdir, frames=27, sequences=32, embed_dim=64, depth=2):
        self.workdir = Path(workdir)
        self.frames, self.sequences = frames, sequences
        self.embed_dim, self.depth = embed_dim, depth
        self.seqs_per_op = sequences
        self.min_ops = 1

    def setup(self, seed: int) -> None:
        sk = skeleton.human36m_skeleton()
        data_dir = self.workdir / "data"
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        data_dir.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        for i, seq in enumerate(_motion(sk, self.frames, self.sequences, rng)):
            data.write_sequence(seq, data_dir / f"seq_{i:03d}.pseq")
        skeleton.save_skeleton(sk, data_dir / "skeleton.json")
        model_cfg = network.ModelConfig(frames=self.frames, channels_in=5,
                                        embed_dim=self.embed_dim, depth=self.depth)
        pre_path = self.workdir / "preliminary.ckpt"
        self.checkpoint = str(self.workdir / "main.ckpt")
        self.cfg = training.TrainConfig(seed=seed, stage="main", model=model_cfg,
                                        data_dir=str(data_dir), out_dir=str(self.workdir / "run"),
                                        preliminary_checkpoint=str(pre_path), precision=PRECISION)
        with numerics.precision(self.cfg.precision):
            pre = network.PoseLifter(self.cfg.preliminary_model, sk, seed=MODEL_SEED)
            main = network.PoseLifter(model_cfg, sk, seed=MODEL_SEED + 1)
        numerics.save_checkpoint(pre.state_dict(), pre_path)
        numerics.save_checkpoint(main.state_dict(), self.checkpoint)
        self.run_op()

    def prepare(self) -> None:
        """Recompute MPJPE directly: two_stage_forward plus metrics.mpjpe."""
        sequences, _, sk = training.load_dataset(self.cfg.data_dir)
        x2d, y = training.prepare_pairs(sequences, sk)
        with numerics.precision(self.cfg.precision):
            pre = network.PoseLifter(self.cfg.preliminary_model, sk, seed=MODEL_SEED)
            pre.load_state_dict(numerics.load_checkpoint(self.cfg.preliminary_checkpoint))
            main = network.PoseLifter(self.cfg.model, sk, seed=MODEL_SEED)
            main.load_state_dict(numerics.load_checkpoint(self.checkpoint))
            with numerics.no_grad():
                preds = [network.two_stage_forward(x, pre, main).data.astype(np.float64) for x in x2d]
        weighted = frames = 0.0
        for pred, ref in zip(preds, y):
            pred = metrics.root_relative(pred, sk.root_index) * training.MM_PER_UNIT
            ref = metrics.root_relative(ref, sk.root_index) * training.MM_PER_UNIT
            weighted += metrics.mpjpe(pred, ref) * len(pred)
            frames += len(pred)
        self.reference_mpjpe = weighted / frames
        with numerics.no_grad():
            self.loss = losses.total_loss(np.stack(preds), y, losses.LossWeights()).total.item()

    def run_op(self, tape_sink=None):
        return training.evaluate(self.cfg, checkpoint=self.checkpoint)

    def check(self, report) -> str | None:
        fields = [report.mpjpe_mm, report.p_mpjpe_mm, report.mpjve_mm_per_frame,
                  report.pck_percent, report.auc_percent, report.degenerate_frames]
        fields += [v for entry in report.per_action.values() for v in entry.values()]
        if not all(_finite(v) for v in fields):
            return f"non-finite EvalReport field in {report.to_dict()}"
        if len(report.per_action) != self.sequences:
            return f"{len(report.per_action)} sequences evaluated, expected {self.sequences}"
        if not np.isclose(report.mpjpe_mm, self.reference_mpjpe, rtol=MPJPE_RTOL, atol=0.0):
            return f"MPJPE {report.mpjpe_mm!r} != direct recomputation {self.reference_mpjpe!r}"
        return None

    def finish(self) -> tuple[float, list, dict]:
        return self.loss, [], {"reference_mpjpe_mm": self.reference_mpjpe}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class LiftT243:
    """No-grad forward of the main-scale model, then ``evaluate_sequences``.

    Input is one T=243 sequence: its projected 2D plus its root-relative
    3D (meters) with group-wise noise, as the main stage sees it.
    """

    name = "lift-t243"

    def __init__(self, frames=243, embed_dim=384, depth=2):
        self.frames, self.embed_dim, self.depth = frames, embed_dim, depth
        self.seqs_per_op = 1
        self.min_ops = 1

    def setup(self, seed: int) -> None:
        sk = skeleton.human36m_skeleton()
        rng = np.random.default_rng(seed)
        (seq,) = _motion(sk, self.frames, 1, rng)
        self.root = sk.root_index
        self.y = metrics.root_relative(seq.values, self.root) / training.MM_PER_UNIT
        noisy = data.inject_noise(self.y, data.NoiseConfig(), rng)
        self.x5 = np.concatenate([data.project_2d(seq).values, noisy], axis=-1)[None]
        cfg = network.ModelConfig(frames=self.frames, channels_in=5,
                                  embed_dim=self.embed_dim, depth=self.depth)
        with numerics.precision(PRECISION):
            self.model = network.PoseLifter(cfg, sk, seed=MODEL_SEED)
        self.run_op()
        self.first = None

    def prepare(self) -> None:
        pass

    def run_op(self, tape_sink=None):
        with numerics.precision(PRECISION), numerics.no_grad():
            out = self.model.forward(self.x5).data
        pred = metrics.root_relative(out[0], self.root) * training.MM_PER_UNIT
        report = metrics.evaluate_sequences([pred], [self.y * training.MM_PER_UNIT])
        return out, report

    def check(self, output) -> str | None:
        out, report = output
        expected = (1, self.frames, self.y.shape[1], 3)
        if out.shape != expected:
            return f"output shape {out.shape}, expected {expected}"
        if not np.isfinite(out).all():
            return "non-finite lifted pose"
        if self.first is None:
            self.first = out
        elif not np.array_equal(out, self.first):
            return "output differs from the run's first operation"
        if not all(_finite(v) for v in (report.mpjpe_mm, report.p_mpjpe_mm,
                                        report.mpjve_mm_per_frame, report.pck_percent)):
            return f"non-finite metrics {report.to_dict()}"
        return None

    def finish(self) -> tuple[float, list, dict]:
        if self.first is None:
            return float("nan"), ["no successful operation"], {}
        with numerics.no_grad():
            loss = losses.total_loss(self.first.astype(np.float64), self.y[None],
                                     losses.LossWeights()).total.item()
        return loss, [], {}

    def close(self) -> None:
        pass


def make(name: str, workdir) -> object:
    """The workload called `name`, at benchmark size."""
    if name == TrainT27.name:
        return TrainT27()
    if name == EvalT27.name:
        return EvalT27(workdir)
    if name == LiftT243.name:
        return LiftT243()
    raise KeyError(name)


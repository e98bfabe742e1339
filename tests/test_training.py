import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import poselift as pl
from poselift import network, numerics, training
from poselift.errors import ConfigError, DataError, DivergenceError
from poselift.metrics import root_relative
from poselift.network import ModelConfig, PoseLifter, two_stage_forward
from poselift.training import (AdamW, TrainConfig, adamw_step, clip_gradients, evaluate,
                               load_dataset, lr_schedule, prepare_pairs, train)


def reference_adamw(theta, grads, lr, betas=(0.9, 0.999), eps=1e-8, wd=0.0):
    """Standalone scalar AdamW for cross-checking the vector implementation."""
    m = v = 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        m_hat = m / (1 - betas[0] ** t)
        v_hat = v / (1 - betas[1] ** t)
        theta = theta * (1 - lr * wd) - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(theta)
    return trace


class TestAdamW:
    def test_zero_gradient_keeps_parameters(self):
        p = pl.Parameter(np.array([1.0, -2.0]), "p")
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_after_bias_correction(self):
        p = pl.Parameter(np.array([0.0]), "p")
        opt = AdamW([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert abs(-p.data[0] - 0.1 / (1.0 + 1e-8)) < 1e-12

    def test_hundred_steps_match_scalar_reference(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=100)
        p = pl.Parameter(np.array([0.7]), "p")
        opt = AdamW([p], lr=0.01, weight_decay=0.04)
        trace = []
        for g in grads:
            p.grad = np.array([g])
            opt.step()
            trace.append(p.data[0])
        expected = reference_adamw(0.7, grads, lr=0.01, wd=0.04)
        assert np.abs(np.array(trace) - np.array(expected)).max() < 1e-10

    def test_non_finite_gradient_rejected_with_name(self):
        p = pl.Parameter(np.array([1.0]), "block0.w")
        state = AdamW([p])
        with pytest.raises(DivergenceError, match="block0.w"):
            adamw_step([p], [np.array([np.nan])], state, lr=0.1)
        assert state.t == 0  # whole step rejected

    def test_decoupled_weight_decay(self):
        p = pl.Parameter(np.array([2.0]), "p")
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert abs(p.data[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-12

    def test_lr_override_per_step(self):
        p = pl.Parameter(np.array([0.0]), "p")
        opt = AdamW([p], lr=1.0)
        p.grad = np.array([1.0])
        opt.step(lr=0.01)
        assert abs(-p.data[0] - 0.01 / (1 + 1e-8)) < 1e-12


class TestLrSchedule:
    def make_cfg(self, **kw):
        return TrainConfig(model=ModelConfig(channels_in=2, depth=3), **kw)

    def test_epoch_zero_default(self):
        assert lr_schedule(0, self.make_cfg()) == 1e-4

    def test_one_multiplication(self):
        assert abs(lr_schedule(1, self.make_cfg()) - 9.9e-5) < 1e-15

    def test_hundred_epochs(self):
        assert abs(lr_schedule(100, self.make_cfg()) - 1e-4 * 0.99 ** 100) < 1e-18
        assert abs(lr_schedule(100, self.make_cfg()) - 3.660e-5) < 1e-8

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            lr_schedule(-1, self.make_cfg())


class TestClip:
    def test_noop_below_threshold(self):
        p = pl.Parameter(np.array([1.0]), "p")
        p.grad = np.array([0.3])
        clip_gradients([p], 1.0)
        assert p.grad[0] == 0.3

    def test_scales_to_max_norm(self):
        p = pl.Parameter(np.zeros(4), "p")
        p.grad = np.full(4, 2.0)
        clip_gradients([p], 1.0)
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-9


def make_dataset(tmp_path, count=3, frames=9, start_seed=50):
    data_dir = tmp_path / "data"
    data_dir.mkdir(exist_ok=True)
    skeleton = pl.human36m_skeleton()
    for i in range(count):
        seq = pl.generate_motion(skeleton, frames=frames, fps=50.0, seed=start_seed + i)
        pl.write_sequence(seq, data_dir / f"seq_{i:03d}.pseq")
    pl.save_skeleton(skeleton, data_dir / "skeleton.json")
    return data_dir


def tiny_train_config(data_dir, out_dir, stage="preliminary", **kw):
    model = ModelConfig(frames=9, joints=17, channels_in=2 if stage == "preliminary" else 5,
                        embed_dim=8, depth=1 if stage == "main" else 2,
                        ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.0)
    defaults = dict(seed=1, epochs=2, batch_size=2, learning_rate=1e-3, lr_decay=0.99,
                    val_fraction=0.0, eval_every=1, stage=stage, data_dir=str(data_dir),
                    out_dir=str(out_dir), model=model)
    if stage == "main":
        defaults["preliminary_model"] = ModelConfig(
            frames=9, joints=17, channels_in=2, embed_dim=8, depth=2,
            ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_main_requires_deeper_preliminary(self, tmp_path):
        with pytest.raises(ConfigError, match="deeper"):
            tiny_train_config(tmp_path, tmp_path, stage="main",
                              preliminary_model=ModelConfig(
                                  frames=9, joints=17, channels_in=2, embed_dim=8, depth=1,
                                  ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.0))

    def test_default_preliminary_is_one_deeper(self, tmp_path):
        cfg = tiny_train_config(tmp_path, tmp_path, stage="main", preliminary_model=None)
        assert cfg.preliminary_model.depth == cfg.model.depth + 1
        assert cfg.preliminary_model.channels_in == 2

    def test_stage_channel_mismatch(self, tmp_path):
        model = ModelConfig(frames=9, joints=17, channels_in=5, embed_dim=8, depth=1,
                            ste_heads=2, tte_heads=2, hga_heads=2)
        with pytest.raises(ConfigError):
            TrainConfig(stage="preliminary", model=model)

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_train_config(tmp_path / "d", tmp_path / "o",
                                noise=pl.NoiseConfig(stds=(0.0, 0.01, 0.1, 0.3)))
        doc = json.loads(cfg.to_json())
        restored = TrainConfig.from_dict(doc)
        assert restored.model == cfg.model
        assert restored.noise.stds == cfg.noise.stds
        assert restored.learning_rate == cfg.learning_rate

    def test_noise_object_follows_the_model_rule(self):
        default = TrainConfig.from_dict({"noise": {}}).noise
        assert default == pl.NoiseConfig()
        listed = TrainConfig.from_dict({"noise": {"groups": [[0], [1, 2]], "stds": [0.1, 0.2]}})
        assert listed.noise.groups == ((0,), (1, 2)) and listed.noise.stds == (0.1, 0.2)
        with pytest.raises(ConfigError, match="sedd"):
            TrainConfig.from_dict({"noise": {"sedd": 3}})

    def test_main_stage_noise_must_partition_the_joints(self, tmp_path):
        with pytest.raises(ConfigError, match="partition"):
            tiny_train_config(tmp_path, tmp_path, stage="main",
                              noise=pl.NoiseConfig(groups=((0, 1), (2,)), stds=(0.1, 0.2)))

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0, model=ModelConfig(channels_in=2, depth=3))
        with pytest.raises(ConfigError):
            TrainConfig(lr_decay=1.5, model=ModelConfig(channels_in=2, depth=3))
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0, model=ModelConfig(channels_in=2, depth=3))
        with pytest.raises(ConfigError):
            TrainConfig(stage="warmup", model=ModelConfig(channels_in=2, depth=3))


class TestTrainLoop:
    def test_preliminary_writes_artifacts(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        out = tmp_path / "run"
        result = train(tiny_train_config(data_dir, out))
        assert Path(result.best_checkpoint).exists()
        assert Path(result.last_checkpoint).exists()
        with open(result.log_path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "step", "L_w", "L_t", "L_m", "L_f", "total"]
        assert len(rows) == 1 + 2 * 2  # 2 epochs x ceil(3/2)=2 steps
        assert np.isfinite(result.best_val_mpjpe_mm)

    def test_seed_determinism_epoch0_loss_and_checkpoint(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        results = []
        for name in ("a", "b"):
            cfg = tiny_train_config(data_dir, tmp_path / name)
            results.append(train(cfg))
        loss_a = list(csv.DictReader(open(results[0].log_path)))[0]["total"]
        loss_b = list(csv.DictReader(open(results[1].log_path)))[0]["total"]
        assert abs(float(loss_a) - float(loss_b)) < 1e-12
        bytes_a = Path(results[0].last_checkpoint).read_bytes()
        bytes_b = Path(results[1].last_checkpoint).read_bytes()
        assert bytes_a == bytes_b

    def test_main_stage_without_preliminary_checkpoint(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg = tiny_train_config(data_dir, tmp_path / "run", stage="main")
        with pytest.raises(ConfigError, match="preliminary checkpoint"):
            train(cfg)

    def test_main_stage_pipeline(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        pre = train(tiny_train_config(data_dir, tmp_path / "pre"))
        cfg = tiny_train_config(data_dir, tmp_path / "main", stage="main",
                                preliminary_checkpoint=pre.best_checkpoint,
                                noise=pl.NoiseConfig())
        result = train(cfg)
        assert Path(result.best_checkpoint).exists()

    def test_seeded_main_stage_noise_repeats_and_varies_with_the_seed(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        pre = train(tiny_train_config(data_dir, tmp_path / "pre"))
        runs = {}
        for name, seed, noise in (("a", 1, pl.NoiseConfig()), ("b", 1, pl.NoiseConfig()),
                                  ("other seed", 2, pl.NoiseConfig()), ("clean", 1, None)):
            result = train(tiny_train_config(data_dir, tmp_path / name, stage="main", seed=seed,
                                             noise=noise,
                                             preliminary_checkpoint=pre.best_checkpoint))
            runs[name] = (Path(result.log_path).read_text(),
                          Path(result.last_checkpoint).read_bytes())
        assert runs["a"] == runs["b"]
        assert runs["other seed"][0] != runs["a"][0]
        assert runs["clean"][0] != runs["a"][0]

    def test_validation_split_uses_tail(self, tmp_path):
        data_dir = make_dataset(tmp_path, count=5)
        cfg = tiny_train_config(data_dir, tmp_path / "run", val_fraction=0.2, epochs=1)
        result = train(cfg)
        assert np.isfinite(result.best_val_mpjpe_mm)

    def test_empty_dataset_rejected(self, tmp_path):
        empty = tmp_path / "void"
        empty.mkdir()
        cfg = tiny_train_config(empty, tmp_path / "run")
        with pytest.raises(DataError):
            train(cfg)

    def test_float64_precision_mode(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg = tiny_train_config(data_dir, tmp_path / "run", precision="float64", epochs=1)
        result = train(cfg)
        assert Path(result.best_checkpoint).exists()


class TestEvaluate:
    def test_checkpoint_save_load_evaluate_stable(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg = tiny_train_config(data_dir, tmp_path / "run")
        result = train(cfg)
        report_a = evaluate(cfg, checkpoint=result.best_checkpoint)
        report_b = evaluate(cfg, checkpoint=result.best_checkpoint)
        assert report_a.to_dict() == report_b.to_dict()

    def test_report_cross_checks_metric_module(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg = tiny_train_config(data_dir, tmp_path / "run")
        result = train(cfg)
        report = evaluate(cfg, checkpoint=result.best_checkpoint)

        from poselift.metrics import mpjpe
        from poselift.numerics import load_checkpoint, no_grad, precision

        sequences, names, skeleton = load_dataset(data_dir)
        x2d, y = prepare_pairs(sequences, skeleton)
        with precision(cfg.precision):
            model = PoseLifter(cfg.model, skeleton, seed=cfg.seed)
            model.load_state_dict(load_checkpoint(result.best_checkpoint))
            direct = []
            for i in range(len(sequences)):
                with no_grad():
                    pred = model.forward(x2d[i]).data.astype(np.float64)
                direct.append(mpjpe(root_relative(pred) * 1000.0,
                                    root_relative(y[i]) * 1000.0))
        frames = [s.frames for s in sequences]
        expected = float(np.average(direct, weights=frames))
        assert abs(report.mpjpe_mm - expected) < 1e-9

    def test_ground_truth_self_evaluation_is_zero(self, tmp_path):
        from poselift.metrics import evaluate_sequences
        data_dir = make_dataset(tmp_path)
        sequences, names, skeleton = load_dataset(data_dir)
        _, y = prepare_pairs(sequences, skeleton)
        refs = [yi * 1000.0 for yi in y]
        report = evaluate_sequences(refs, refs, names)
        assert report.mpjpe_mm == 0.0
        assert report.p_mpjpe_mm < 1e-9
        assert report.mpjve_mm_per_frame == 0.0

    def test_central_frame_mode(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg = tiny_train_config(data_dir, tmp_path / "run")
        result = train(cfg)
        report = evaluate(cfg, checkpoint=result.best_checkpoint, central_frame=True)
        assert report.mpjve_mm_per_frame is None
        assert np.isfinite(report.mpjpe_mm)


class TestParallelScoring:
    """`evaluate` and `train`'s validation lift their sequences in parallel
    parts of the worker pool (`numerics._deal`) and give the serial results
    bit for bit, in the order of the sequences."""

    @pytest.fixture(scope="class")
    def stages(self, tmp_path_factory):
        """Five sequences and the config of each stage, trained briefly."""
        tmp_path = tmp_path_factory.mktemp("stages")
        data_dir = make_dataset(tmp_path, count=5)
        pre = tiny_train_config(data_dir, tmp_path / "pre")
        pre_result = train(pre)
        main = tiny_train_config(data_dir, tmp_path / "main", stage="main",
                                 preliminary_checkpoint=pre_result.best_checkpoint)
        train(main)
        return {"preliminary": pre, "main": main}

    @staticmethod
    def evaluated(cfg, monkeypatch, workers, **kwargs):
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        return evaluate(cfg, **kwargs).to_dict()

    @pytest.mark.parametrize("stage", ["preliminary", "main"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("central_frame", [False, True])
    def test_report_equals_serial(self, stages, monkeypatch, stage, precision, central_frame):
        cfg = TrainConfig.from_dict({**json.loads(stages[stage].to_json()),
                                     "precision": precision})
        serial = self.evaluated(cfg, monkeypatch, 1, central_frame=central_frame)
        for workers in (2, 3):
            report = self.evaluated(cfg, monkeypatch, workers, central_frame=central_frame)
            assert report.keys() == serial.keys()
            for name in serial:
                assert report[name] == serial[name], name

    def test_validation_history_equals_serial(self, tmp_path, monkeypatch):
        data_dir = make_dataset(tmp_path, count=5)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(numerics, "_WORKERS", workers)
            result = train(tiny_train_config(data_dir, tmp_path / str(workers),
                                              val_fraction=0.6))
            runs.append((result.epoch_val_mpjpe, result.epoch_losses,
                         Path(result.best_checkpoint).read_bytes()))
        assert len(runs[0][0]) == 2
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @staticmethod
    def group_of(monkeypatch, count, *models):
        """Set `_scored_pairs`' group size to `count` sequences of `models`."""
        cfg = models[0].config
        width = max(m.config.embed_dim for m in models)
        monkeypatch.setattr(training, "_GROUP_ELEMENTS", count * cfg.frames * cfg.joints * width)

    @pytest.mark.parametrize("stage", ["preliminary", "main", "main, wider preliminary"])
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_groups_equal_a_per_sequence_loop(self, stages, monkeypatch, stage, precision,
                                              workers):
        cfg = stages[stage.split(",")[0]]
        sequences, _, skeleton = load_dataset(cfg.data_dir)
        x2d, y = prepare_pairs(sequences, skeleton)
        root = skeleton.root_index
        with pl.precision(precision):
            model, preliminary = training._stage_models(
                cfg, skeleton, str(Path(cfg.out_dir) / "best.ckpt"))
            if stage.endswith("wider preliminary"):
                preliminary = PoseLifter(replace(cfg.preliminary_model, embed_dim=16),
                                         skeleton, seed=93)
            looped = []
            with pl.no_grad():
                for x in x2d:
                    out = (model.forward(x) if preliminary is None
                           else two_stage_forward(x, preliminary, model))
                    looped.append(root_relative(out.data.astype(np.float64), root))
        # The batch size of every forward of the scored model.
        sizes, forward = [], PoseLifter.forward

        def counted(self, x, *args, **kwargs):
            if self is model:
                sizes.append(len(x))
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(PoseLifter, "forward", counted)
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        models = [m for m in (model, preliminary) if m is not None]
        for per_group in (1, 2, 3, len(x2d)):
            self.group_of(monkeypatch, per_group, *models)
            for indices in ([0, 1, 2, 3, 4], [4, 0, 2, 3], []):
                sizes.clear()
                with pl.precision(precision):
                    pairs = training._scored_pairs(model, preliminary, x2d, y, indices, cfg, root)
                assert len(pairs) == len(indices)
                for i, (pred, ref) in zip(indices, pairs):
                    assert pred.dtype == np.float64
                    assert np.array_equal(pred.view(np.uint64), looped[i].view(np.uint64))
                    assert np.array_equal(ref, root_relative(y[i], root))
                # The fewest groups of at most per_group sequences, and at
                # least one per worker while sequences last.
                count = len(indices)
                assert sum(sizes) == count and max(sizes, default=0) <= per_group
                assert len(sizes) == max(-(-count // per_group), min(count, workers))

    def test_groups_stay_below_the_block_deal(self):
        # A group never reaches `PoseLifter.forward`'s own deal; only a
        # single large sequence does.
        assert training._GROUP_ELEMENTS < network._SPLIT_MIN_ELEMENTS

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("per_group", [1, 3, 5])
    @pytest.mark.parametrize("bad", [(1, 3), (3, 4), (0, 4), (2,)])
    def test_non_finite_prediction_names_the_first_sequence(self, stages, monkeypatch,
                                                            workers, per_group, bad):
        monkeypatch.setattr(numerics, "_WORKERS", workers)
        cfg = stages["preliminary"]
        sequences, _, skeleton = load_dataset(cfg.data_dir)
        x2d, y = prepare_pairs(sequences, skeleton)
        x2d[list(bad)] = np.nan
        with pl.precision(cfg.precision):
            model, preliminary = training._stage_models(
                cfg, skeleton, str(Path(cfg.out_dir) / "best.ckpt"))
            self.group_of(monkeypatch, per_group, model)
            with pytest.raises(DivergenceError, match=rf"sequence {bad[0]}$"):
                training._scored_pairs(model, preliminary, x2d, y, range(len(x2d)), cfg,
                                       skeleton.root_index)

    def test_nested_deal_runs_inline_without_a_hang(self, stages, monkeypatch, tmp_path):
        # Every forward deals its blocks' chunks: a sequence part on the pool
        # thread that dealt them to its own one-thread pool would wait forever.
        # A thread joined with a timeout would fail such a test but leave the
        # stuck pool thread, which interpreter exit joins forever, so the
        # evaluation runs in a child process that is killed on time-out.
        cfg_path = tmp_path / "main.json"
        cfg_path.write_text(stages["main"].to_json())
        serial = self.evaluated(stages["main"], monkeypatch, 1)
        env = {**os.environ, "PYTHONPATH": str(Path(numerics.__file__).parents[1])}
        try:
            child = subprocess.run([sys.executable, "-c", NESTED_EVALUATE, str(cfg_path)],
                                   capture_output=True, text=True, env=env, timeout=120)
        except subprocess.TimeoutExpired:
            pytest.fail("evaluate did not finish: a nested deal waited on its own pool")
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout)
        assert result["nested_deals"] > 0
        assert result["report"] == json.loads(json.dumps(serial))


# `evaluate` on two workers, one sequence a group, with every forward's
# blocks cut into chunks of 64 activation elements; prints the report and
# how many deals ran inside a part.
NESTED_EVALUATE = """
import json, sys
from poselift import network, numerics, training
training._GROUP_ELEMENTS = 1
network._SPLIT_MIN_ELEMENTS = 0
network._SPLIT_BLOCK_ELEMENTS = 64
numerics._WORKERS = 2
deal, nested = numerics._deal, []
def counted(run, count):
    nested.append(numerics._in_part.get() and count > 1)
    deal(run, count)
network._deal = training._deal = counted
report = training.evaluate(training.TrainConfig.from_json_file(sys.argv[1])).to_dict()
print(json.dumps({"report": report, "nested_deals": sum(nested)}))
"""


class TestDivergenceHandling:
    def test_diverging_run_aborts_and_keeps_artifacts(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        # an absurd learning rate reliably drives the f32 loss non-finite
        cfg = tiny_train_config(data_dir, tmp_path / "run", learning_rate=1e18,
                                epochs=50, eval_every=1)
        with pytest.raises(DivergenceError):
            train(cfg)
        assert (tmp_path / "run" / "loss_log.csv").exists()

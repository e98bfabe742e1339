import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import poselift as pl
from poselift.cli import _train_config, build_parser, main
from poselift.errors import ConfigError, DataError, PoseLiftError, ShapeError
from poselift.frequency import dct_matrix
from poselift.network import ModelConfig, PoseLifter
from poselift.training import TrainConfig


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv):
    return main([str(a) for a in argv])


class TestGenData:
    def test_writes_sequences_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run(["gen-data", "--out", out, "--count", 3, "--frames", 9, "--seed", 5]) == 0
        assert len(list(out.glob("*.pseq"))) == 3
        assert (out / "skeleton.json").exists()
        manifest = json.loads((out / "dataset.json").read_text())
        assert manifest["count"] == 3 and manifest["frames"] == 9
        seq = pl.read_sequence(out / "seq_000.pseq")
        assert seq.values.shape == (9, 17, 3)


class TestInspectAdjacency:
    def test_prints_matrices(self, capsys):
        assert run(["inspect-adjacency", "--hops", 2]) == 0
        out = capsys.readouterr().out
        assert "# k-hop adjacency, k=1" in out
        assert "# k-hop adjacency, k=2" in out
        assert "# symmetric pairs" in out
        assert "# hybrid matrix" in out
        block = out.split("# hybrid matrix")[1].strip().splitlines()[1:]
        matrix = np.array([[float(v) for v in row.split(",")] for row in block])
        expected = pl.build_hybrid_adjacency(pl.human36m_skeleton(), 2, [1.0, 1.0]).skeletal
        assert np.allclose(matrix, expected)

    def test_custom_skeleton_file(self, tmp_path, capsys):
        graph = pl.SkeletonGraph(joint_count=3, edges=[(0, 1), (1, 2)])
        path = tmp_path / "sk.json"
        pl.save_skeleton(graph, path)
        assert run(["inspect-adjacency", "--skeleton", path, "--hops", 1]) == 0
        assert "0,1,0" in capsys.readouterr().out


class TestDctAndSmooth:
    def write_trajectories(self, path, values, header=None):
        with open(path, "w") as f:
            if header:
                f.write(header + "\n")
            for row in np.atleast_2d(values):
                f.write(",".join(str(v) for v in row) + "\n")

    def test_dct_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(8, 2))
        infile = tmp_path / "traj.csv"
        self.write_trajectories(infile, values, header="a,b")
        out = tmp_path / "coeffs.csv"
        assert run(["dct", "--in", infile, "--T", 8, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        coeffs = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.allclose(coeffs, dct_matrix(8) @ values, atol=1e-6)

    def test_dct_too_few_rows_is_data_error(self, tmp_path):
        infile = tmp_path / "traj.csv"
        self.write_trajectories(infile, np.zeros((3, 1)))
        assert run(["dct", "--in", infile, "--T", 8]) == 3

    def test_smooth_keep_all_is_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(6, 2))
        infile = tmp_path / "traj.csv"
        self.write_trajectories(infile, values)
        out = tmp_path / "smooth.csv"
        assert run(["smooth", "--in", infile, "--keep", 6, "--out", out]) == 0
        smoothed = np.array([[float(v) for v in ln.split(",")]
                             for ln in out.read_text().strip().splitlines()])
        assert np.allclose(smoothed, values, atol=1e-6)

    def test_smooth_keep_one_gives_constant(self, tmp_path):
        values = np.arange(8.0).reshape(8, 1)
        infile = tmp_path / "traj.csv"
        self.write_trajectories(infile, values)
        out = tmp_path / "smooth.csv"
        assert run(["smooth", "--in", infile, "--keep", 1, "--out", out]) == 0
        smoothed = [float(ln) for ln in out.read_text().strip().splitlines()]
        assert np.allclose(smoothed, np.mean(values))

    def test_smooth_bad_keep_is_config_error(self, tmp_path):
        infile = tmp_path / "traj.csv"
        self.write_trajectories(infile, np.zeros((4, 1)))
        assert run(["smooth", "--in", infile, "--keep", 9]) == 2


class TestExportTrajectory:
    def test_round_trip(self, tmp_path, capsys):
        seq = pl.generate_motion(pl.human36m_skeleton(), frames=5, seed=3)
        pseq = tmp_path / "seq.pseq"
        pl.write_sequence(seq, pseq)
        out = tmp_path / "traj.csv"
        assert run(["export-trajectory", "--in", pseq, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("j0_x,j0_y,j0_z")
        assert len(lines) == 6

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["export-trajectory", "--in", tmp_path / "nope.pseq",
                    "--out", tmp_path / "o.csv"]) == 3


def write_train_config(tmp_path, data_dir, out_dir, **overrides):
    model = ModelConfig(frames=9, joints=17, channels_in=2, embed_dim=8, depth=2,
                        ste_heads=2, tte_heads=2, hga_heads=2, dropout=0.0)
    fields = dict(seed=0, epochs=2, batch_size=4, learning_rate=1e-3,
                  val_fraction=0.0, eval_every=1, stage="preliminary",
                  data_dir=str(data_dir), out_dir=str(out_dir), model=model)
    fields.update(overrides)
    cfg = TrainConfig(**fields)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return path


class TestTrainEvalCli:
    def test_train_then_eval(self, tmp_path, capsys):
        data_dir = tmp_path / "ds"
        assert run(["gen-data", "--out", data_dir, "--count", 3, "--frames", 9]) == 0
        cfg_path = write_train_config(tmp_path, data_dir, tmp_path / "run")
        assert run(["train", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "best validation MPJPE" in out
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert (tmp_path / "run" / "loss_log.csv").exists()

        per_action = tmp_path / "per_action.csv"
        assert run(["eval", "--config", cfg_path, "--per-action-csv", per_action]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"mpjpe_mm", "p_mpjpe_mm", "mpjve_mm_per_frame"} <= set(report)
        assert per_action.read_text().startswith("action,")

    def test_eval_reports_its_timing_on_stderr(self, tmp_path, capsys):
        data_dir = tmp_path / "ds"
        assert run(["gen-data", "--out", data_dir, "--count", 3, "--frames", 9]) == 0
        cfg_path = write_train_config(tmp_path, data_dir, tmp_path / "run", epochs=1)
        assert run(["train", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert run(["eval", "--config", cfg_path]) == 0
        captured = capsys.readouterr()
        assert set(json.loads(captured.out)) >= {"mpjpe_mm", "per_action"}
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        match = re.fullmatch(r"evaluated 3 sequences in (\S+) s \((\S+) sequences/s\)", lines[0])
        assert match, lines[0]
        assert float(match[1]) >= 0 and float(match[2]) > 0

    def test_flag_overrides(self, tmp_path, capsys):
        data_dir = tmp_path / "ds"
        run(["gen-data", "--out", data_dir, "--count", 2, "--frames", 9])
        cfg_path = write_train_config(tmp_path, data_dir, tmp_path / "run")
        assert run(["train", "--config", cfg_path, "--seed", 7, "--epochs", 1,
                    "--lambda-f", 0.5, "--out", tmp_path / "run2"]) == 0
        saved = json.loads((tmp_path / "run2" / "config.json").read_text())
        assert saved["seed"] == 7
        assert saved["model"]["lambda_f"] == 0.5

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": -1.0}))
        assert run(["train", "--config", bad]) == 2

    def test_missing_data_exit_code(self, tmp_path):
        cfg_path = write_train_config(tmp_path, tmp_path / "missing", tmp_path / "run")
        assert run(["train", "--config", cfg_path]) == 3

    def test_divergence_exit_code(self, tmp_path):
        data_dir = tmp_path / "ds"
        run(["gen-data", "--out", data_dir, "--count", 2, "--frames", 9])
        cfg_path = write_train_config(tmp_path, data_dir, tmp_path / "run",
                                      learning_rate=1e18, epochs=40)
        assert run(["train", "--config", cfg_path]) == 4

    def test_zero_epochs_is_config_error(self, tmp_path):
        data_dir = tmp_path / "ds"
        run(["gen-data", "--out", data_dir, "--count", 2, "--frames", 9])
        cfg_path = write_train_config(tmp_path, data_dir, tmp_path / "run")
        assert run(["train", "--config", cfg_path, "--epochs", 0]) == 2
        assert not (tmp_path / "run").exists()

    def test_model_overrides_reach_preliminary_model_except_depth(self, tmp_path):
        main_model = ModelConfig(frames=9, channels_in=5, embed_dim=8, depth=2,
                                 ste_heads=2, tte_heads=2, hga_heads=2)
        pre_model = ModelConfig(**{**asdict(main_model), "channels_in": 2, "depth": 4})
        cfg_path = write_train_config(tmp_path, tmp_path / "ds", tmp_path / "run", stage="main",
                                      model=main_model, preliminary_model=pre_model,
                                      preliminary_checkpoint="pre.ckpt")
        args = build_parser().parse_args(
            [str(a) for a in ["train", "--config", cfg_path, "--frames", 5, "--dim", 4,
                              "--depth", 3, "--hops", 3, "--lambda-f", 0.5, "--seed", 4,
                              "--epochs", 7, "--data", tmp_path / "d2", "--out", tmp_path / "o2"]])
        cfg = _train_config(args)
        assert (cfg.model.depth, cfg.preliminary_model.depth) == (3, 4)
        for model in (cfg.model, cfg.preliminary_model):
            assert (model.frames, model.embed_dim, model.hop_count, model.lambda_f) == (5, 4, 3, 0.5)
            assert model.hop_weights == (1.0, 1.0, 1.0)
        assert (cfg.seed, cfg.epochs, cfg.stage) == (4, 7, "main")
        assert (cfg.data_dir, cfg.out_dir) == (str(tmp_path / "d2"), str(tmp_path / "o2"))


def _without_head_w(state, deeper):
    return {k: v for k, v in state.items() if k != "head.w"}


BAD_CHECKPOINTS = {
    "missing name": (_without_head_w, ConfigError, 2),
    "unknown name": (lambda s, deeper: {**s, "head.extra": np.zeros(3)}, ConfigError, 2),
    "wrong-shaped parameter": (lambda s, deeper: {**s, "head.w": np.zeros((3, 3))}, ShapeError, 2),
    "wrong-shaped buffer": (lambda s, deeper: {**s, "block0.spatial.hga1.bn_mean": np.zeros(5)},
                            ShapeError, 2),
    "NaN value": (lambda s, deeper: {**s, "embed.w": np.full_like(s["embed.w"], np.nan)},
                  DataError, 3),
    "depth-3 checkpoint into depth-2 model": (lambda s, deeper: deeper, ConfigError, 2),
}


@pytest.mark.parametrize("corrupt, error, exit_code", BAD_CHECKPOINTS.values(),
                         ids=BAD_CHECKPOINTS.keys())
def test_strict_checkpoint_loading(tmp_path, capsys, corrupt, error, exit_code):
    data_dir = tmp_path / "ds"
    run(["gen-data", "--out", data_dir, "--count", 2, "--frames", 9])
    cfg_path = write_train_config(tmp_path, data_dir, tmp_path / "run")
    cfg = TrainConfig.from_json_file(cfg_path)
    skeleton = pl.human36m_skeleton()
    model = PoseLifter(cfg.model, skeleton)
    deeper = PoseLifter(ModelConfig(**{**asdict(cfg.model), "depth": 3}), skeleton)
    state = corrupt(dict(model.state_dict()), deeper.state_dict())
    with pytest.raises(PoseLiftError) as raised:
        model.load_state_dict(state)
    assert isinstance(raised.value, error)

    checkpoint = tmp_path / "bad.ckpt"
    pl.save_checkpoint(state, checkpoint)
    capsys.readouterr()
    assert run(["eval", "--config", cfg_path, "--checkpoint", checkpoint]) == exit_code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def _config_doc(tmp_path, model_changes=None, **changes):
    """A valid preliminary config on a generated 2-sequence dataset, edited:
    `changes` replace its fields and `model_changes` those of its model."""
    data_dir = tmp_path / "ds"
    run(["gen-data", "--out", data_dir, "--count", 2, "--frames", 9])
    path = write_train_config(tmp_path, data_dir, tmp_path / "run")
    doc = {**json.loads(path.read_text()), **changes}
    if model_changes:
        doc["model"] = {**doc["model"], **model_changes}
    path.write_text(json.dumps(doc))
    return path


def _eval_fresh_checkpoint(tmp_path, **model_changes):
    """eval of a freshly initialised checkpoint of the config's model, under
    the config with its model's fields edited."""
    path = _config_doc(tmp_path)
    doc = json.loads(path.read_text())
    checkpoint = tmp_path / "fresh.ckpt"
    model = PoseLifter(ModelConfig(**doc["model"]), pl.human36m_skeleton())
    pl.save_checkpoint(model.state_dict(), checkpoint)
    doc["model"].update(model_changes)
    path.write_text(json.dumps(doc))
    return ["eval", "--config", path, "--checkpoint", checkpoint]


def _mixed_dataset(tmp_path):
    path = _config_doc(tmp_path)
    seq = pl.generate_motion(pl.human36m_skeleton(), frames=11, seed=9)
    pl.write_sequence(seq, tmp_path / "ds" / "seq_002.pseq")
    return ["train", "--config", path]


def _written(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _inspect_skeleton(tmp_path, **changes):
    """inspect-adjacency on a 3-joint chain skeleton JSON, edited."""
    doc = {"joints": ["a", "b", "c"], "edges": [[0, 1], [1, 2]], "root": 0, **changes}
    return ["inspect-adjacency", "--skeleton", _written(tmp_path, "sk.json", json.dumps(doc))]


# name -> (argv built in tmp_path, exit code, text the one-line message names)
MALFORMED_INPUTS = {
    "eval_every 0": (lambda p: ["train", "--config", _config_doc(p, eval_every=0)], 2,
                     "eval_every"),
    "unknown noise key": (lambda p: ["train", "--config", _config_doc(
        p, noise={**asdict(pl.NoiseConfig()), "sedd": 1})], 2, "sedd"),
    "noise seed of older configs": (lambda p: ["train", "--config", _config_doc(
        p, noise={**asdict(pl.NoiseConfig()), "seed": 3})], 2, "seed"),
    "model not an object": (lambda p: ["train", "--config", _config_doc(p, model=5)], 2,
                            "model must be a JSON object"),
    "noise groups not a list": (lambda p: ["train", "--config", _config_doc(
        p, noise={"groups": 5})], 2, "noise.groups"),
    "string model depth": (lambda p: ["train", "--config", _config_doc(
        p, model={"channels_in": 2, "depth": "3"})], 2, "model.depth"),
    "string noise stds": (lambda p: ["train", "--config", _config_doc(
        p, noise={"stds": ["a", "b", "c", "d"]})], 2, "noise.stds"),
    "string epochs": (lambda p: ["train", "--config", _config_doc(p, epochs="5")], 2,
                      "train.epochs"),
    "string seed": (lambda p: ["train", "--config", _config_doc(p, seed="5")], 2, "train.seed"),
    "string jitter": (lambda p: ["train", "--config", _config_doc(p, jitter_2d_std="0.1")], 2,
                      "train.jitter_2d_std"),
    "string grad_clip": (lambda p: ["train", "--config", _config_doc(p, grad_clip="1")], 2,
                         "train.grad_clip"),
    "string root_center": (lambda p: ["train", "--config", _config_doc(p, root_center="no")], 2,
                           "train.root_center"),
    "grad_clip 0": (lambda p: ["train", "--config", _config_doc(p, grad_clip=0.0)], 2,
                    "grad_clip"),
    "negative grad_clip": (lambda p: ["train", "--config", _config_doc(p, grad_clip=-1.0)], 2,
                           "grad_clip"),
    "negative jitter": (lambda p: ["train", "--config", _config_doc(p, jitter_2d_std=-0.1)], 2,
                        "jitter_2d_std"),
    "negative weight_decay": (lambda p: ["train", "--config", _config_doc(p, weight_decay=-0.01)],
                              2, "weight_decay"),
    "negative seed": (lambda p: ["train", "--config", _config_doc(p), "--seed", -1], 2, "seed"),
    "negative embed_dim": (lambda p: ["train", "--config", _config_doc(
        p, model={"channels_in": 2, "embed_dim": -8})], 2, "embed_dim"),
    "ff_expansion 0": (lambda p: ["train", "--config", _config_doc(
        p, model={"channels_in": 2, "ff_expansion": 0})], 2, "ff_expansion"),
    "malformed config JSON": (lambda p: ["train", "--config", _written(p, "c.json", "{")], 2,
                              "malformed JSON"),
    "config not an object": (lambda p: ["train", "--config", _written(p, "c.json", "[1]")], 2,
                             "JSON object"),
    "sequences of different lengths": (_mixed_dataset, 3, "seq_002.pseq"),
    "ragged CSV": (lambda p: ["dct", "--in", _written(p, "t.csv", "a,b\n1,2\n3\n")], 3,
                   "line 3"),
    "non-numeric CSV": (lambda p: ["smooth", "--keep", 1, "--in",
                                   _written(p, "t.csv", "1,2\n3,x\n")], 3, "line 2"),
    "non-finite CSV": (lambda p: ["dct", "--in", _written(p, "t.csv", "a,b\n1,2\n3,nan\n")], 3,
                       "line 3"),
    "header-only CSV": (lambda p: ["dct", "--in", _written(p, "t.csv", "a,b\n")], 3,
                        "no data rows"),
    "skeleton without joints": (lambda p: ["inspect-adjacency", "--skeleton",
                                           _written(p, "sk.json", '{"edges": []}')], 2, "joints"),
    "malformed skeleton JSON": (lambda p: ["gen-data", "--out", p / "g", "--skeleton",
                                           _written(p, "sk.json", "{")], 2, "malformed JSON"),
    "non-integer skeleton edge": (lambda p: _inspect_skeleton(p, edges=[[0, "x"], [1, 2]]), 2,
                                  "edges"),
    "string skeleton root": (lambda p: _inspect_skeleton(p, root="x"), 2, "root index"),
    "skeleton edges not a list": (lambda p: _inspect_skeleton(p, edges=5), 2, "edges"),
    "three-joint skeleton edge": (lambda p: _inspect_skeleton(p, edges=[[0, 1, 2], [1, 2]]), 2,
                                  "edges"),
    "gen-data count 0": (lambda p: ["gen-data", "--out", p / "g", "--count", 0], 2, "--count"),
    "gen-data negative seed": (lambda p: ["gen-data", "--out", p / "g", "--seed", -1], 2,
                               "--seed"),
    "gen-data fps nan": (lambda p: ["gen-data", "--out", p / "g", "--fps", "nan"], 2, "fps"),
    "gen-data fps inf": (lambda p: ["gen-data", "--out", p / "g", "--fps", "inf"], 2, "fps"),
    "negative lambda_t": (lambda p: ["train", "--config", _config_doc(p, {"lambda_t": -5.0})], 2,
                          "lambda_t"),
    "negative joint weights": (lambda p: ["train", "--config", _config_doc(
        p, {"joint_weights": [-1.0] * 17})], 2, "joint weights"),
    "hop weight above 1": (lambda p: ["train", "--config", _config_doc(
        p, {"hop_weights": [1.0, 2.0]})], 2, "hop weights"),
    "eval negative lambda_t": (lambda p: _eval_fresh_checkpoint(p, lambda_t=-5.0), 2, "lambda_t"),
    "eval negative joint weights": (lambda p: _eval_fresh_checkpoint(
        p, joint_weights=[-1.0] * 17), 2, "joint weights"),
    "main-stage noise groups not a partition": (lambda p: ["train", "--config", _config_doc(
        p, {"channels_in": 5}, stage="main",
        noise={"groups": [[0, 1], [2]], "stds": [0.1, 0.2]})], 2, "partition"),
}


@pytest.mark.parametrize("argv, exit_code, named", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exit_codes(tmp_path, argv, exit_code, named):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [str(a) for a in argv(tmp_path)]
    result = subprocess.run([sys.executable, "-m", "poselift.cli", *argv],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == exit_code, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert named in result.stderr
    if argv[0] == "train":  # a refused run leaves no run directory behind
        assert not (tmp_path / "run").exists()

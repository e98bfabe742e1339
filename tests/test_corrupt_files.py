"""Seeded corpus of damaged input files: ``.pseq`` pose sequences and
``HGFW1`` checkpoints, each truncated, with a byte flipped, or extended;
and train-config and skeleton JSON, each with one value swapped for
another type, nested, or dropped, or one number moved out of range (or,
in a train config, made NaN or infinite).

Reading a mutant (for a checkpoint: loading it into its model) either
succeeds or raises a PoseLiftError subclass, and the command that reads
a binary file (``export-trajectory``, ``eval``) exits 2 or 3 with a
one-line message when the reader rejects it, 0 when it does not, or 4
when a checkpoint that loads overflows the forward pass (a numeric
divergence).
"""

import copy
import json
import struct

import numpy as np
import pytest

import poselift as pl
from poselift.cli import main
from poselift.errors import PoseLiftError
from poselift.network import ModelConfig, PoseLifter
from poselift.skeleton import load_skeleton
from poselift.numerics import load_checkpoint, no_grad
from poselift.training import TrainConfig

MUTANTS = 90  # per format: a third each truncated, flipped and extended


def mutants(blob: bytes, seed: int) -> list:
    """(kind, bytes) copies of `blob`, drawn from numpy's seeded generator."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(MUTANTS):
        kind = ("truncate", "flip", "extend")[i % 3]
        if kind == "truncate":
            out.append((kind, blob[: int(rng.integers(0, len(blob)))]))
        elif kind == "flip":
            flipped = bytearray(blob)
            flipped[int(rng.integers(0, len(blob)))] ^= int(rng.integers(1, 256))
            out.append((kind, bytes(flipped)))
        else:
            tail = rng.integers(0, 256, size=int(rng.integers(1, 16)), dtype=np.uint8)
            out.append((kind, blob + tail.tobytes()))
    return out


def check_mutants(capsys, blob, seed, path, read, argv):
    """Write each mutant of `blob` to `path`; `read` may only raise a
    PoseLiftError, and `argv` must exit 2 or 3 with one line exactly when
    it does, else 0 (or 4 for a numeric divergence).  Returns how many
    mutants were rejected."""
    rejected = 0
    for index, (kind, mutant) in enumerate(mutants(blob, seed)):
        path.write_bytes(mutant)
        try:
            read(path)
            ok = True
        except PoseLiftError:
            ok = False
        capsys.readouterr()
        code = main([str(a) for a in argv])
        stderr = capsys.readouterr().err.strip().splitlines()
        where = f"mutant {index} ({kind}): exit {code}, stderr {stderr}"
        if ok:
            assert code in (0, 4), where
        else:
            rejected += 1
            assert code in (2, 3) and len(stderr) == 1, where
    return rejected


def test_pose_sequence_mutants(tmp_path, capsys):
    seq = pl.generate_motion(pl.human36m_skeleton(), frames=2, seed=0)
    source = tmp_path / "seq.pseq"
    pl.write_sequence(seq, source)
    path = tmp_path / "mutant.pseq"
    rejected = check_mutants(capsys, source.read_bytes(), 0, path, pl.read_sequence,
                             ["export-trajectory", "--in", path, "--out", tmp_path / "t.csv"])
    assert rejected >= 2 * MUTANTS // 3  # every truncation and extension at least


def eval_setup(tmp_path) -> tuple:
    """(config path, model) of a tiny preliminary stage on a 2-sequence dataset."""
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--out", str(data_dir), "--count", "2", "--frames", "3"]) == 0
    model = ModelConfig(frames=3, channels_in=2, embed_dim=4, depth=1, ste_heads=2,
                        tte_heads=2, hga_heads=2, dropout=0.0)
    cfg = TrainConfig(data_dir=str(data_dir), out_dir=str(tmp_path / "run"), model=model)
    config = tmp_path / "config.json"
    config.write_text(cfg.to_json())
    return config, pl.PoseLifter(model, pl.human36m_skeleton())


def test_checkpoint_mutants(tmp_path, capsys):
    config, lifter = eval_setup(tmp_path)
    source = tmp_path / "model.ckpt"
    pl.save_checkpoint(lifter.state_dict(), source)
    path = tmp_path / "mutant.ckpt"
    rejected = check_mutants(capsys, source.read_bytes(), 1, path,
                             lambda p: lifter.load_state_dict(load_checkpoint(p)),
                             ["eval", "--config", config, "--checkpoint", path])
    assert rejected >= 2 * MUTANTS // 3


def test_checkpoint_that_overflows_the_forward(tmp_path, capsys):
    # finite weights, so the file loads, but the predictions are not finite
    config, lifter = eval_setup(tmp_path)
    state = lifter.state_dict()
    state["head.w"] = np.full_like(state["head.w"], 3e38)
    path = tmp_path / "huge.ckpt"
    pl.save_checkpoint(state, path)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["eval", "--config", str(config), "--checkpoint", str(path)]) == 4
    stderr = capsys.readouterr().err.strip().splitlines()
    assert len(stderr) == 1 and "non-finite prediction" in stderr[0]


@pytest.mark.parametrize("flip", [0x80, 0xC0])
def test_non_utf8_checkpoint_name(tmp_path, flip):
    path = tmp_path / "model.ckpt"
    pl.save_checkpoint({"w": np.zeros(2)}, path)
    blob = bytearray(path.read_bytes())
    blob[9] ^= flip  # the first name byte, after the magic and the u32 length
    path.write_bytes(bytes(blob))
    with pytest.raises(pl.FormatError, match="not UTF-8"):
        load_checkpoint(path)


def test_entry_larger_than_the_file(tmp_path):
    # 2 x (2^32 - 1) x (2^32 - 1) elements: more than int64 holds
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"HGFW1" + struct.pack("<I", 1) + b"w"
                     + struct.pack("<4I", 3, 2, 2 ** 32 - 1, 2 ** 32 - 1) + b"\0" * 8)
    with pytest.raises(pl.TruncatedFileError):
        load_checkpoint(path)


# values of every JSON type, small enough that no mutant asks for much memory
JSON_VALUES = [None, True, 0, -1, 2.5, "x", [], [1, "a"], {}, {"a": 1}]


def json_locations(node):
    """(container, key) of every value inside a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    else:
        items = list(enumerate(node)) if isinstance(node, list) else []
    for key, value in items:
        yield node, key
        yield from json_locations(value)


def json_mutants(doc, seed: int) -> list:
    """(kind, copy) of `doc` with one value anywhere in it swapped for a
    value of another type, nested in a list or an object, or dropped."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(MUTANTS):
        kind = ("swap", "nest", "drop")[i % 3]
        mutant = copy.deepcopy(doc)
        spots = list(json_locations(mutant))
        node, key = spots[int(rng.integers(len(spots)))]
        if kind == "swap":
            others = [v for v in JSON_VALUES if type(v) is not type(node[key])]
            node[key] = copy.deepcopy(others[int(rng.integers(len(others)))])
        elif kind == "nest":
            node[key] = [node[key]] if rng.integers(2) else {"v": node[key]}
        else:
            del node[key]
        out.append((kind, mutant))
    return out


# no range mutant holds a number above this, so none asks for much memory
RANGE_CAP = 128


def range_mutants(doc, seed: int) -> list:
    """(kind, copy) of `doc` with one number anywhere in it replaced by
    another of the same type: 0, -1, the value plus or minus 1, or twice
    the value, capped at RANGE_CAP."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(MUTANTS):
        mutant = copy.deepcopy(doc)
        spots = [(node, key) for node, key in json_locations(mutant)
                 if type(node[key]) in (int, float)]
        node, key = spots[int(rng.integers(len(spots)))]
        value = node[key]
        kind = type(value)
        others = [c for c in map(kind, (0, -1, value + 1, value - 1, 2 * value)) if c != value]
        node[key] = min(others[int(rng.integers(len(others)))], kind(RANGE_CAP))
        out.append(("range", mutant))
    return out


def non_finite_mutants(doc, seed: int) -> list:
    """(kind, copy) of `doc` with one float anywhere in it replaced by NaN,
    Infinity or -Infinity, which Python's json reads."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(MUTANTS):
        mutant = copy.deepcopy(doc)
        spots = [(node, key) for node, key in json_locations(mutant)
                 if type(node[key]) is float]
        node, key = spots[int(rng.integers(len(spots)))]
        node[key] = (np.nan, np.inf, -np.inf)[i % 3]
        out.append(("non-finite", json.loads(json.dumps(mutant))))
    return out


def check_json_mutants(doc, seed, read, make=json_mutants) -> int:
    """`read` of each of `doc`'s mutants (by `make`) returns or raises a
    PoseLiftError; returns how many raised."""
    rejected = 0
    for index, (kind, mutant) in enumerate(make(doc, seed)):
        try:
            read(mutant)
        except PoseLiftError:
            rejected += 1
        except Exception as exc:
            raise AssertionError(f"mutant {index} ({kind}) {json.dumps(mutant)}: "
                                 f"{type(exc).__name__}: {exc}") from exc
    return rejected


def build_and_lift(doc):
    """`TrainConfig.from_dict` of `doc`, then both stage models built as
    ``train`` builds them, each lifting a sequence to finite poses."""
    cfg = TrainConfig.from_dict(doc)
    for model_cfg in (cfg.model, cfg.preliminary_model):
        if model_cfg is None:
            continue
        lifter = PoseLifter(model_cfg, pl.human36m_skeleton(), seed=cfg.seed)
        x = np.random.default_rng(0).normal(
            size=(1, model_cfg.frames, model_cfg.joints, model_cfg.channels_in))
        with no_grad():
            out = lifter.forward(x)
        if not np.isfinite(out.data).all():
            raise AssertionError("non-finite forward")


def train_config_doc() -> dict:
    model = ModelConfig(frames=9, depth=2, joint_weights=tuple([1.0] * 17))
    cfg = TrainConfig(stage="main", model=model, noise=pl.NoiseConfig(), grad_clip=1.0,
                      preliminary_checkpoint="pre.ckpt")
    return json.loads(cfg.to_json())


def test_train_config_mutants():
    """A mutant `TrainConfig.from_dict` accepts also builds both stage
    models, each of which lifts a sequence to finite poses."""
    rejected = check_json_mutants(train_config_doc(), 2, build_and_lift)
    assert rejected >= MUTANTS // 2


def test_train_config_range_mutants():
    """The same contract for numbers of the right type out of range."""
    rejected = check_json_mutants(train_config_doc(), 4, build_and_lift, make=range_mutants)
    assert rejected >= MUTANTS // 4


def test_train_config_non_finite_mutants():
    """No float in a train config may be NaN or infinite: each such mutant
    is refused when the config is read."""
    assert check_json_mutants(train_config_doc(), 5, TrainConfig.from_dict,
                              make=non_finite_mutants) == MUTANTS


def check_skeleton_mutants(tmp_path, make) -> int:
    source = tmp_path / "source.json"
    pl.save_skeleton(pl.human36m_skeleton(), source)
    path = tmp_path / "skeleton.json"

    def read(doc):
        path.write_text(json.dumps(doc))
        return load_skeleton(path)

    return check_json_mutants(json.loads(source.read_text()), 3, read, make=make)


def test_skeleton_mutants(tmp_path):
    assert check_skeleton_mutants(tmp_path, json_mutants) >= MUTANTS // 2


def test_skeleton_range_mutants(tmp_path):
    assert check_skeleton_mutants(tmp_path, range_mutants) >= MUTANTS // 2

"""Command-line surface.

Subcommands: gen-data, train, eval, dct, smooth, inspect-adjacency,
export-trajectory.  Exit codes: 0 success, 2 configuration error,
3 data error, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ConfigError, DataError, DivergenceError
from .frequency import dct_forward, dct_inverse
from .skeleton import (build_hybrid_adjacency, human36m_skeleton, khop_adjacency,
                       load_skeleton, save_skeleton, shortest_path_hops, symmetric_matrix)
from .training import TrainConfig, evaluate, train


def _matrix_csv(matrix: np.ndarray) -> str:
    return "\n".join(",".join(format(v, ".6g") for v in row) for row in matrix)


def _load_skeleton_arg(path: str | None):
    return load_skeleton(path) if path else human36m_skeleton()


def cmd_gen_data(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    skeleton = _load_skeleton_arg(args.skeleton)
    out = Path(args.out)
    for i in range(args.count):
        seq = data_mod.generate_motion(skeleton, args.frames, fps=args.fps, seed=args.seed + i)
        if i == 0:  # made once generate_motion has accepted --frames and --fps
            out.mkdir(parents=True, exist_ok=True)
        data_mod.write_sequence(seq, out / f"seq_{i:03d}.pseq")
    save_skeleton(skeleton, out / "skeleton.json")
    manifest = {"count": args.count, "frames": args.frames, "fps": args.fps,
                "seed": args.seed, "skeleton": "skeleton.json"}
    with open(out / "dataset.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(f"wrote {args.count} sequences to {out}")
    return 0


def _train_config(args) -> TrainConfig:
    """The config file (or the defaults) with every command-line override
    applied, validated once.  Model overrides other than --depth also
    reach the preliminary model, when the config has one."""
    cfg = TrainConfig.from_json_file(args.config) if args.config else TrainConfig()
    doc = asdict(cfg)
    for name, value in (("seed", args.seed), ("stage", args.stage), ("data_dir", args.data),
                        ("out_dir", args.out), ("epochs", args.epochs)):
        if value is not None:
            doc[name] = value
    for name, value in (("frames", args.frames), ("embed_dim", args.dim),
                        ("depth", args.depth), ("hop_count", args.hops),
                        ("lambda_f", args.lambda_f)):
        if value is None:
            continue
        models = [doc["model"]]
        if doc["preliminary_model"] is not None and name != "depth":
            models.append(doc["preliminary_model"])
        for model in models:
            model[name] = value
            if name == "hop_count":
                model["hop_weights"] = None
    return TrainConfig.from_dict(doc)


def cmd_train(args) -> int:
    cfg = _train_config(args)
    result = train(cfg)
    print(f"best validation MPJPE: {result.best_val_mpjpe_mm:.3f} mm")
    print(f"checkpoints: {result.best_checkpoint} / {result.last_checkpoint}")
    print(f"loss log: {result.log_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = TrainConfig.from_json_file(args.config)
    start = time.perf_counter()
    report = evaluate(cfg, checkpoint=args.checkpoint, data_dir=args.data,
                      central_frame=args.central_frame, allow_scale=not args.no_scale)
    elapsed = time.perf_counter() - start
    count = len(report.per_action)
    print(f"evaluated {count} sequences in {elapsed:.3f} s ({count / elapsed:.2f} sequences/s)",
          file=sys.stderr)
    print(json.dumps(report.to_dict(), indent=2))
    if args.per_action_csv:
        with open(args.per_action_csv, "w", encoding="utf-8") as f:
            f.write("action,mpjpe_mm,p_mpjpe_mm,mpjve_mm_per_frame\n")
            for name, entry in report.per_action.items():
                f.write(f"{name},{entry['mpjpe_mm']:.6f},{entry['p_mpjpe_mm']:.6f},"
                        f"{entry.get('mpjve_mm_per_frame', '')}\n")
    return 0


def _read_trajectories(path) -> tuple:
    """CSV of one column per trajectory; optional non-numeric header.

    A non-numeric or non-finite value or a row of a different width than
    the first raises DataError naming its line, as does a file with no
    data rows."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [(number, ln.strip()) for number, ln in enumerate(f, 1) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty trajectory file")
    header = None
    try:
        float(lines[0][1].split(",")[0])
    except ValueError:
        header = lines.pop(0)[1]
    rows = []
    for number, line in lines:
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise DataError(f"{path}: line {number}: non-numeric value in {line!r}") from None
        if not np.isfinite(rows[-1]).all():
            raise DataError(f"{path}: line {number}: non-finite value in {line!r}")
        if len(rows[-1]) != len(rows[0]):
            raise DataError(f"{path}: line {number}: {len(rows[-1])} columns, "
                            f"expected {len(rows[0])}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def cmd_dct(args) -> int:
    header, values = _read_trajectories(args.infile)
    frames = values.shape[0] if args.frames is None else args.frames
    if frames < 1:
        raise ConfigError(f"--T must be >= 1, got {frames}")
    if values.shape[0] < frames:
        raise DataError(f"{args.infile}: {values.shape[0]} rows but --T {frames}")
    coeffs = dct_forward(values[:frames])
    data_mod._write_csv(header, coeffs, args.out)
    return 0


def cmd_smooth(args) -> int:
    header, values = _read_trajectories(args.infile)
    frames = values.shape[0]
    if args.keep < 1 or args.keep > frames:
        raise ConfigError(f"--keep must lie in [1, {frames}], got {args.keep}")
    coeffs = dct_forward(values)
    coeffs[args.keep :] = 0.0
    data_mod._write_csv(header, dct_inverse(coeffs), args.out)
    return 0


def cmd_inspect_adjacency(args) -> int:
    skeleton = _load_skeleton_arg(args.skeleton)
    hybrid = build_hybrid_adjacency(skeleton, hop_count=args.hops)  # refuses a bad --hops
    hops = shortest_path_hops(skeleton)
    for k in range(1, args.hops + 1):
        print(f"# k-hop adjacency, k={k}")
        print(_matrix_csv(khop_adjacency(hops, k)))
    print("# symmetric pairs")
    print(_matrix_csv(symmetric_matrix(skeleton)))
    print(f"# hybrid matrix (hop weights {hybrid.hop_weights}, sym weight {hybrid.sym_weight})")
    print(_matrix_csv(hybrid.skeletal))
    return 0


def cmd_export_trajectory(args) -> int:
    seq = data_mod.read_sequence(args.infile)
    data_mod.export_csv(seq, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poselift",
                                     description="2D-to-3D pose lifting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic motion sequences")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--frames", type=int, default=27)
    p.add_argument("--fps", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skeleton", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one stage")
    p.add_argument("--config", default=None, help="TrainConfig JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stage", choices=["preliminary", "main"], default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--dim", type=int, default=None, help="embedding dimension")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--hops", type=int, default=None)
    p.add_argument("--lambda-f", dest="lambda_f", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--central-frame", action="store_true")
    p.add_argument("--no-scale", action="store_true",
                   help="strictly rigid alignment in the Procrustes protocol")
    p.add_argument("--per-action-csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("dct", help="transform trajectory CSV columns")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--T", dest="frames", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dct)

    p = sub.add_parser("smooth", help="reconstruct from the lowest frequencies")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--keep", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("inspect-adjacency", help="print adjacency matrices as CSV")
    p.add_argument("--skeleton", default=None)
    p.add_argument("--hops", type=int, default=2)
    p.set_defaults(func=cmd_inspect_adjacency)

    p = sub.add_parser("export-trajectory", help="per-joint-per-axis CSV from a sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_trajectory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Run one poselift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-t27 --seed 0 --seconds 30 --trace 0

Run it from anywhere; it imports poselift from the ``src/`` directory
beside this one and writes only under ``.perfbench_out/`` there.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it print the same numbers for people, with the
machine facts; ``.perfbench_out/<workload>-seed<n>-trace<t>.json`` keeps
every sample, and a traced run also writes its spans.

Exit codes: 0 every output check passed, 1 an output check failed,
2 the poselift sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("train-t27", "eval-t27", "lift-t243")
# One BLAS thread: the client is single-threaded and the box is shared, so
# more threads add noise; this never exceeds nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _print_human(args, facts: dict, result: dict, units: dict, details_path: Path) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    details = result["details"]
    for name, value in result["metrics"].items():
        note = ""
        if name == "op_tail_s":
            t = details["op_tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} samples, {t['samples_beyond']} beyond)"
        elif name == "op_p50_s":
            note = f"  (wall clock {details['op_p50_raw_s']:.6g} s)"
        elif name == "setup_s":
            raw = statistics.median(details["setup_raw_s_samples"])
            note = f"  (median of {len(details['setup_s_samples'])} set-ups; wall clock {raw:.6g} s)"
        print(f"{name:42s} {value:>14.6g} {units[name]}{note}")
    print(f"{'error_rate':42s} {details['error_rate']:>14.6g} ratio"
          f"  ({result['failed']} failed of {result['attempted']} attempted)")
    if "loss_sha256" in details:
        print(f"loss sha256 of the first {len(details['loss_steps'])} steps: {details['loss_sha256']}")
    for failure in details["failures"]:
        print("FAILED: " + failure.strip().replace("\n", "\n    "))
    print(f"details: {details_path}")


def _write_details(path: Path, args, facts: dict, result: dict, units: dict) -> None:
    details = dict(result["details"])
    spans = details.pop("spans", None)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": facts, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
           "details": details}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        compact = {"fields": ["name", "start", "end", "parent", "op"], "names": names,
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans]}
        path.with_name(path.stem + "-spans.json").write_text(json.dumps(compact), encoding="utf-8")


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "poselift" / "__init__.py").is_file():
        print(f"perfbench: no poselift sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import bench      # numpy is first imported here, after the thread variables
    import machine
    import workloads

    facts = machine.facts(THREAD_VARS, BLAS_THREADS)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    result = bench.run(lambda: workloads.make(args.workload, workdir), args.seed,
                       args.seconds, bool(args.trace))
    units = bench.units(result["metrics"])
    details_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    _write_details(details_path, args, facts, result, units)
    _print_human(args, facts, result, units, details_path)
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

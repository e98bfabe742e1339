"""Closed-loop measurement of one workload, untraced or traced.

One client thread runs operations back to back: each starts only after
the previous one finished and was checked.  An untraced run reports the
end-to-end metrics.  A traced run alternates untraced operations with
operations under the layer wrappers, and reports per-layer self time and
calls per operation, the layer probes, the tape counts and the tracing
overhead (traced minus untraced median operation time).

End-to-end times are normalised by the calibration measured right before
and right after each set-up and operation (see ``calibrate``); the raw
wall-clock times go into the details.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback

import layers
from calibrate import REFERENCE_S, Calibration
from probes import run_probes
from tracer import Tracer, installed, summarize
from workloads import tape_counts

SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Enough operations that op_tail_s always has TAIL_BEYOND samples beyond it.
MIN_OPS = TAIL_BEYOND + 1
END_TO_END_UNITS = {"setup_s": "s", "seq_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "loss_end": "loss"}


def units(metrics) -> dict:
    """The unit of every metric name a run reports."""
    def unit(name):
        if name in END_TO_END_UNITS:
            return END_TO_END_UNITS[name]
        if name == "numerics.tape_bytes":
            return "bytes"
        if name.endswith((".calls", ".frames", ".tape_nodes")):
            return "count"
        return "s"
    return {name: unit(name) for name in metrics}


def tail(times) -> dict:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above
    it; the maximum when there are not that many samples."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n,
            "samples": n, "samples_beyond": n - rank}


def _normalised(raw: float, before: float, after: float) -> float:
    """`raw` seconds at the reference speed, the machine's speed taken as
    the mean of the calibrations measured before and after."""
    return raw * REFERENCE_S / ((before + after) / 2)


def _op(workload, failures, tracer=None, tape=None) -> float:
    """Run and check one operation; return its duration.

    With a tracer, its spans carry the operation's index; the check runs
    outside the operation.  `tape`, while empty, receives the tape counts.
    """
    def sink(root):
        tape["nodes"], tape["bytes"] = tape_counts(root)

    if tracer is not None:
        tracer.op = tracer.ops
    start = time.perf_counter()
    try:
        output, error = workload.run_op(sink if tape == {} else None), None
    except Exception:  # a failed operation is counted, and the loop goes on
        output, error = None, traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
        tracer.ops += 1
    if error is None:
        error = workload.check(output)
    if error is not None:
        failures.append(error)
    return elapsed


def run(make_workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
        min_ops: int = MIN_OPS, probe_sizes: dict | None = None) -> dict:
    """Measure the workload that `make_workload()` returns.

    Each set-up starts from a fresh workload, after the previous one is
    released, so set-ups neither share state nor add to each other's
    memory.  Returns metrics, counts, failures and details.
    """
    setups: list[float] = []
    raw_setups: list[float] = []
    failures: list[str] = []
    details: dict = {"setup_s_samples": setups, "setup_raw_s_samples": raw_setups}
    calibration = Calibration()
    workload = None
    try:
        for _ in range(setup_repeats):
            workload = None
            gc.collect()
            before = calibration.measure()
            start = time.perf_counter()
            workload = make_workload()
            workload.setup(seed)
            raw_setups.append(time.perf_counter() - start)
            setups.append(_normalised(raw_setups[-1], before, calibration.measure()))
        workload.prepare()
        deadline = time.perf_counter() + seconds
        if trace:
            # Untraced and traced operations alternate, so that drift in
            # the machine's speed falls on both halves alike.
            metrics = run_probes(**(probe_sizes or {}))
            plain, traced = [], []
            tracer, tape = Tracer(), {}
            while len(plain) + len(traced) < workload.min_ops or time.perf_counter() < deadline:
                plain.append(_op(workload, failures))
                with installed(tracer, layers.sites()):
                    traced.append(_op(workload, failures, tracer, tape))
            metrics.update(layer_metrics(tracer, len(traced), tape))
            metrics["trace.untraced_op_s"] = statistics.median(plain)
            metrics["trace.traced_op_s"] = statistics.median(traced)
            metrics["trace.overhead_s"] = metrics["trace.traced_op_s"] - metrics["trace.untraced_op_s"]
            times = plain + traced
            details["spans"] = tracer.spans
        else:
            times, raw_times, calibrations = [], [], [calibration.measure()]
            while len(times) < max(min_ops, workload.min_ops) or time.perf_counter() < deadline:
                raw_times.append(_op(workload, failures))
                calibrations.append(calibration.measure())
                times.append(_normalised(raw_times[-1], *calibrations[-2:]))
        loss_end, final_failures, extra = workload.finish()
    finally:
        if workload is not None:
            workload.close()
    failures += final_failures
    details.update(extra)
    attempted = len(times)
    failed = min(len(failures), attempted)
    if not trace:
        details["op_tail"] = tail(times)
        metrics = {
            "setup_s": statistics.median(setups),
            "seq_per_s": workload.seqs_per_op * attempted / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": details["op_tail"]["value"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_end": loss_end,
        }
        details["op_times_s"] = times
        details["op_times_raw_s"] = raw_times
        details["op_p50_raw_s"] = statistics.median(raw_times)
        details["calibration_s"] = calibrations
    details["error_rate"] = failed / attempted
    details["failures"] = failures
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "details": details}


def layer_metrics(tracer: Tracer, ops: int, tape: dict) -> dict:
    """Self seconds and calls per operation for every layer; tape counts."""
    table = summarize(tracer.spans)
    out = {}
    for name in layers.layer_names():
        entry = table.get(name, {"self_s": 0.0, "calls": 0})
        out[f"{name}.self_s"] = entry["self_s"] / ops
        out[f"{name}.calls"] = entry["calls"] / ops
    out["metrics.p_mpjpe.frames"] = tracer.counts.get("metrics.p_mpjpe", 0) / ops
    out["numerics.tape_nodes"] = tape.get("nodes", 0)
    out["numerics.tape_bytes"] = tape.get("bytes", 0)
    return out

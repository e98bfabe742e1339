"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, and a
reduced-size run of every workload that must report every metric that
BENCHMARK.json names, with its unit."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import layers
import workloads
from tracer import NO_PARENT, Tracer, installed, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_PROBES = {"frames": 9, "embed_dim": 16, "depth": 1, "repeats": 1}


def _small(name, tmp_path):
    if name == "train-t27":
        return workloads.TrainT27(frames=9, embed_dim=16, depth=1, batch=2, pool=4)
    if name == "eval-t27":
        return workloads.EvalT27(tmp_path / "work", frames=9, sequences=3, embed_dim=16, depth=1)
    return workloads.LiftT243(frames=27, embed_dim=16, depth=1)


def _wrapped_sites() -> list:
    return [(owner, attr) for owner, attr, *_ in layers.sites()
            if hasattr(owner.__dict__[attr], "__wrapped__")]


def test_self_time_of_hand_built_span_tree():
    # name, start, end, parent, op
    spans = [
        ["root", 0.0, 10.0, NO_PARENT, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
        ["a", 7.5, 8.5, 2, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.0])
    table = summarize(spans)
    assert table["a"] == {"self_s": pytest.approx(4.0), "calls": 2}
    assert table["root"]["self_s"] == pytest.approx(3.0)


def test_overlapping_children_are_covered_once_and_clipped():
    spans = [["p", 0.0, 10.0, NO_PARENT, 0], ["x", 2.0, 6.0, 0, 0],
             ["y", 4.0, 8.0, 0, 0], ["z", 9.0, 12.0, 0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_outside_an_operation_are_not_summarized():
    spans = [["p", 0.0, 1.0, NO_PARENT, None], ["q", 1.0, 3.0, NO_PARENT, 4]]
    assert set(summarize(spans)) == {"q"}


def test_tracer_records_parent_op_and_name_by_caller():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, {"outer": "inner-in-outer", None: "inner-alone"})
    outer = tracer.wrap(lambda: inner(), "outer")
    tracer.op = 7
    outer()
    inner()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner-in-outer", "inner-alone"]
    assert [s[3] for s in tracer.spans] == [NO_PARENT, 0, NO_PARENT]
    assert {s[4] for s in tracer.spans} == {7}
    assert all(s[2] > s[1] for s in tracer.spans)


def test_wrappers_are_restored_even_after_an_error():
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in layers.sites()}
    with pytest.raises(RuntimeError):
        with installed(Tracer(), layers.sites()):
            assert len(_wrapped_sites()) == len(originals)
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())


def test_tail_percentile_has_ten_samples_beyond():
    t = bench.tail([float(i) for i in range(1, 25)])
    assert (t["value"], t["samples"], t["samples_beyond"]) == (14.0, 24, 10)
    assert t["percentile"] == pytest.approx(100.0 * 14 / 24)
    assert bench.tail([3.0, 1.0, 2.0])["value"] == 3.0


def test_normalised_time_divides_by_the_mean_calibration():
    ref = bench.REFERENCE_S
    assert bench._normalised(1.0, 0.5 * ref, 1.5 * ref) == pytest.approx(1.0)
    assert bench._normalised(1.0, 1.0 * ref, 3.0 * ref) == pytest.approx(0.5)
    assert bench._normalised(2.0, 0.25 * ref, 0.25 * ref) == pytest.approx(8.0)


def test_tape_counts_charge_views_to_their_owner():
    import numpy as np
    from poselift import numerics

    base = numerics.Tensor(np.zeros((4, 8)), requires_grad=True)
    view = base.reshape(8, 4)              # a view of base's array
    out = (view * 2.0).sum()
    nodes, nbytes = workloads.tape_counts(out)
    assert nodes == 5                      # base, view, 2.0, product, sum
    assert nbytes == 32 * 8 + 8 + 32 * 8 + 8


@pytest.mark.parametrize("name", ["train-t27", "eval-t27", "lift-t243"])
def test_small_run_reports_every_metric_with_its_unit(name, tmp_path):
    seen_wrapped = []

    def make():
        workload = _small(name, tmp_path)
        run_op = workload.run_op
        workload.run_op = lambda sink=None: (seen_wrapped.append(bool(_wrapped_sites())),
                                             run_op(sink))[1]
        return workload

    plain = bench.run(make, seed=3, seconds=0.0, trace=False, setup_repeats=2, min_ops=2)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert not any(seen_wrapped), "an untraced run installed a wrapper"
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert bench.units(plain["metrics"]) == expected
    assert all(v > 0 for v in plain["metrics"].values())

    seen_wrapped.clear()
    traced = bench.run(make, seed=3, seconds=0.0, trace=True, setup_repeats=1,
                       probe_sizes=SMALL_PROBES)
    assert traced["correct"]
    assert any(seen_wrapped) and not _wrapped_sites()
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert bench.units(traced["metrics"]) == expected
    assert traced["metrics"]["network.forward.calls"] >= 1


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "lift-t243",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests of the benchmark itself: failure accounting, trace counts, the contract file.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import workloads
from spans import PER_LAYER, coverage_ok

ROOT = Path(__file__).resolve().parent.parent
TINY = workloads.Workload("tiny-merged", "A", "merged", 1, 32, "test")
TINY_TRAIN = workloads.Workload("tiny-train", "A", "train", 1, 32, "test")
TINY_ROUNDTRIP = workloads.Workload("tiny-roundtrip", "A", "roundtrip", 1, 32, "test")
COUNT_UNITS = {"count", "GFLOP_analytic", "MB_from_shapes", "MB_from_sizes"}


def _session(tmp_path, w=TINY, seed=0):
    return workloads.Session(w, seed, workloads.make_input(w, seed), tmp_path,
                             want_reference=True)


def _loop(session):
    return workloads.run_loop(session, session.reference, 0.05, workloads.HostProbe())


def test_unperturbed_ops_pass(tmp_path):
    loop = _loop(_session(tmp_path))
    assert loop.attempted >= 1
    assert loop.failures == []
    assert 0 < loop.max_rel_err <= workloads.TOLERANCE_F32


def test_perturbed_weight_counts_as_failed_op(tmp_path):
    session = _session(tmp_path)
    session.model.stages[1][0].dw_conv.weight.data[:, :, 6, 6] += 0.1
    loop = _loop(session)
    assert loop.attempted >= 1
    assert len(loop.failures) == loop.attempted
    assert loop.failures[0].startswith("relative error")


def test_nonfinite_output_counts_as_failed_op(tmp_path):
    session = _session(tmp_path)
    good = session.op()
    bad = good.copy()
    bad[0, 0] = np.nan
    session.op = lambda: bad
    loop = _loop(session)
    assert len(loop.failures) == loop.attempted >= 1
    assert loop.failures[0] == "1 non-finite logits"


def test_raising_op_counts_as_failed_op(tmp_path):
    session = _session(tmp_path)

    def broken():
        raise ValueError("boom")

    session.op = broken
    loop = _loop(session)
    assert len(loop.failures) == loop.attempted >= 1
    assert loop.failures[0] == "ValueError: boom"


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert workloads.tail(list(range(1, 21))) == (50.0, 10)
    assert workloads.tail(list(range(1, 12))) == (100.0 / 11, 1)
    assert workloads.tail([3, 1, 2]) == (100.0, 3)


def _counts(result):
    units = {name: unit for name, unit, *_ in PER_LAYER}
    return {k: v for k, v in result["per_layer"].items()
            if units[k] in COUNT_UNITS or k.endswith("useful_tap_ratio")}


@pytest.mark.parametrize("w", [TINY, TINY_TRAIN], ids=lambda w: w.name)
def test_trace_counts_repeat_and_cover_op_time(tmp_path, w):
    runs = [workloads.run_workload(w, seed, 0.05, True, tmp_path) for seed in (0, 0, 7)]
    for result in runs:
        assert result["failed"] == 0
        assert coverage_ok(result["per_layer"])
    counts = [_counts(r) for r in runs]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["tensor.conv2d.dw_k13.calls"] == 10
    dilated = counts[0]["tensor.conv2d.dw_dilated.calls"]
    assert dilated == (40 if w.mode == "train" else 0)
    assert 0 < counts[0]["tensor.conv2d.dw_k13.useful_tap_ratio"] < 1


def test_work_that_bypasses_the_wrappers_fails_coverage(tmp_path, monkeypatch):
    block_forward = workloads.model.block_forward

    def block_forward_with_hidden_work(x, block):
        time.sleep(0.005)               # work no wrapper sees
        return block_forward(x, block)

    monkeypatch.setattr(workloads.model, "block_forward", block_forward_with_hidden_work)
    result = workloads.run_workload(TINY, 0, 0.05, True, tmp_path)
    assert result["failed"] == 0
    assert result["per_layer"]["trace.coverage"] < 0.9
    assert not coverage_ok(result["per_layer"])


def test_roundtrip_trace_counts_container_bytes(tmp_path):
    result = workloads.run_workload(TINY_ROUNDTRIP, 0, 0.05, True, tmp_path)
    assert result["failed"] == 0
    layers = result["per_layer"]
    assert layers["container.mb_written"] == layers["container.mb_read"] > 0
    assert layers["container.save_model.s"] > 0
    assert not any(tmp_path.iterdir())      # container and probe file removed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} <= result["end_to_end"].keys()


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better, _ in PER_LAYER]


def test_runner_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "a-merged-b8-r64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

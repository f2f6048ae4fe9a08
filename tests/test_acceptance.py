"""Acceptance gate: every criterion asserted at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion plus timings.
"""

import gc
import json
import time

import numpy as np
import pytest

from urlknet import (
    ShapeError,
    arch_config,
    build_named,
    equivalent_kernel_size,
    forward,
    forward_stages,
    merge_for_deploy,
    param_breakdown,
)
from urlknet.cli import main as cli_main
from urlknet.model import INSTANCE_NAMES, REFERENCE_PARAMS_M
from urlknet.modality import (
    embed_audio,
    embed_pointcloud,
    embed_time_series,
    embed_video,
)
from urlknet.verify import adhoc_scenario, relative_error
from helpers import merge_equivalence_sweep


def check(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_equivalent_kernel_size_table():
    t0 = time.perf_counter()
    pairs = [(5, 1), (7, 2), (3, 3), (3, 4), (3, 5)]
    got = tuple(equivalent_kernel_size(k, r) for k, r in pairs)
    elapsed = time.perf_counter() - t0
    check(1, "default branch config maps to equivalent sizes (5,13,7,9,11)",
          got == (5, 13, 7, 9, 11), f"got {got}, {elapsed * 1000:.3f} ms")


def test_criterion_2_reference_scenario_both_precisions():
    t0 = time.perf_counter()
    rng64 = np.random.default_rng(0)
    err64 = adhoc_scenario(4, 4, 1, 13, 3, 3, rng=rng64, trials=20, dtype=np.float64)
    rng32 = np.random.default_rng(0)
    err32 = adhoc_scenario(4, 4, 1, 13, 3, 3, rng=rng32, trials=20, dtype=np.float32)
    elapsed = time.perf_counter() - t0
    check(2, "in=4 out=4 groups=1 K=13 k=3 r=3 merge: <=1e-10 f64 and <=1e-5 f32",
          err64 <= 1e-10 and err32 <= 1e-5,
          f"f64 {err64:.2e}, f32 {err32:.2e}, {elapsed:.2f} s")


def test_criterion_3_randomized_merge_sweep():
    t0 = time.perf_counter()
    worst = merge_equivalence_sweep(100, np.random.default_rng(42))
    elapsed = time.perf_counter() - t0
    check(3, "100 random block configs merge within 1e-10 (64-bit)",
          worst <= 1e-10, f"max rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_4_whole_model_equivalence_all_instances():
    t0 = time.perf_counter()
    worst_overall = 0.0
    details = []
    for name in INSTANCE_NAMES:
        model = build_named(name, seed=0)
        merged = merge_for_deploy(model)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(5):
            x = rng.standard_normal((1, 3, 64, 64))
            worst = max(worst, relative_error(forward(merged, x), forward(model, x)))
        details.append(f"{name}:{worst:.1e}")
        worst_overall = max(worst_overall, worst)
        del model, merged
        gc.collect()
    elapsed = time.perf_counter() - t0
    print("  per-instance max rel err: " + " ".join(details))
    check(4, "merged vs train-structure forward <=1e-9 for all nine instances",
          worst_overall <= 1e-9, f"worst {worst_overall:.2e}, {elapsed:.0f} s")


def test_criterion_5_parameter_audit():
    t0 = time.perf_counter()
    ok = True
    for name in INSTANCE_NAMES:
        breakdown = param_breakdown(arch_config(name))
        total = breakdown["total"]
        ref = REFERENCE_PARAMS_M[name] * 1e6
        deviation = (total - ref) / ref * 100.0
        modules = " ".join(f"{k}={v}" for k, v in breakdown.items() if k != "total")
        print(f"  {name:3} total={total} ({total / 1e6:.3f}M) ref={ref / 1e6:.1f}M "
              f"dev={deviation:+.2f}% | {modules}")
        ok = ok and abs(deviation) <= 3.0
    elapsed = time.perf_counter() - t0
    check(5, "all nine instances within +-3% of reference parameter counts",
          ok, f"{elapsed * 1000:.1f} ms")


def test_criterion_6_geometry_suite():
    t0 = time.perf_counter()
    ok = True
    for name in INSTANCE_NAMES:
        model = build_named(name, seed=0, dtype=np.float32)
        c = model.config.width
        x = np.random.default_rng(0).standard_normal((1, 3, 224, 224)).astype(np.float32)
        want = [(1, c, 56, 56), (1, 2 * c, 28, 28), (1, 4 * c, 14, 14), (1, 8 * c, 7, 7)]
        got = [t.shape for t in forward_stages(model, x)]
        if got != want:
            print(f"  {name}: stage shapes {got} != {want}")
            ok = False
        del model
        gc.collect()
    elapsed = time.perf_counter() - t0
    check(6, "224x224 input yields Cx56^2, 2Cx28^2, 4Cx14^2, 8Cx7^2 stages everywhere",
          ok, f"{elapsed:.0f} s")


def test_criterion_7_benchmark_direction(capsys):
    t0 = time.perf_counter()
    code = cli_main(["bench", "--model", "A", "--batch", "8", "--res", "64",
                     "--runs", "9", "--compare", "--seed", "0"])
    report = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print()
        runs_ok = all(report[m]["timed_runs"] >= 9 for m in ("train_structure", "merged"))
        check(7, "bench --compare on A (batch 8, res 64, 9 runs) shows merged speedup > 1.0",
              code == 0 and runs_ok and report["speedup"] > 1.0,
              f"speedup {report['speedup']:.2f}x "
              f"(train {report['train_structure']['median_ms']:.1f} ms, "
              f"merged {report['merged']['median_ms']:.1f} ms), {elapsed:.0f} s")


def test_criterion_8_modality_constraints(rng):
    t0 = time.perf_counter()
    # time-series: the H*W == L*D' map constraint is enforced
    with pytest.raises(ShapeError, match="has 120 cells but L"):
        embed_time_series(rng.standard_normal((1, 32, 4)), 1, np.eye(4), (8, 15))
    ts = embed_time_series(rng.standard_normal((2, 32, 4)), 2, np.eye(2), (8, 8))
    ok = ts.shape == (4, 1, 8, 8)
    # audio: (B, T, F) -> (B, 1, T, F)
    ok = ok and embed_audio(rng.standard_normal((2, 128, 64))).shape == (2, 1, 128, 64)
    # point cloud: fixed (3, 224, 224) projections
    ok = ok and embed_pointcloud(rng.standard_normal((1, 64, 3))).shape == (1, 3, 224, 224)
    # video: sixteen 224x224 frames lay out to 896x896
    frames = rng.standard_normal((1, 16, 3, 224, 224)).astype(np.float32)
    ok = ok and embed_video(frames).shape == (1, 3, 896, 896)
    elapsed = time.perf_counter() - t0
    check(8, "embedding maps satisfy their shape constraints exactly",
          ok, f"{elapsed:.1f} s")


def test_criterion_9_out_of_desk_scale_statement():
    print(
        "ACCEPTANCE 9 PASS: the published training-dependent results are out of scope "
        "at desk scale and are not asserted here: ImageNet top-1, COCO box/mask AP, "
        "ADE20K mIoU, the global temperature/wind forecasting MSE/MAE (needs the "
        "external decoder and weather station data), the audio/video/point-cloud "
        "accuracies, and the 100-epoch guideline ablations. Criteria 1-8 replace them "
        "with exact invariant and oracle-equivalence suites."
    )

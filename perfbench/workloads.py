"""Workloads, set-up, the closed timed loop and the output check.

Every workload is one client in one process running ops back to back (a
closed loop). An op is one f32 forward, or on the round-trip workload one
merge -> save -> load -> forward. Each op's logits are compared with the
f64 train-structure forward of the same weight seed and input.

The package is called through its module objects (`model.forward`, not a
bound name) so that the traced run's wrappers take effect.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

import paths  # noqa: F401  (puts the checkout's src/ first on sys.path)
from urlknet import container, model
from urlknet.tensor import Tensor4
from urlknet.verify import relative_error

from spans import Tracer, layer_metrics

TOLERANCE_F32 = 1e-5      # ROADMAP f32 merge-equivalence tolerance
SETUP_REPS = (5, 12)      # set-ups per run, fewest and most; setup_s is their median
SETUP_MIN_S = 4.0         # past the fewest, set up again until set-ups total this long
SETUP_PROBES = 4          # host probes timed just before and just after each set-up
# probe part times that define reference host speed for setup_s (about their
# times on the 2-core x86 VM the benchmark was defined on)
PROBE_REF_S = {"compute": 0.020, "file": 0.060}
PROBE_FILE_MB = 16        # written and read back PROBE_FILE_REPS times per file probe
PROBE_FILE_REPS = 3
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile


class HostProbe:
    """A fixed kernel mix of a forward (13x13 depthwise, 1x1 matmul, erf GELU),
    and with `file` set, writes and reads back a PROBE_FILE_MB file as a container is.

    It does not touch the package, so its wall time tracks only the host's
    speed; timing it right after each op, or around each set-up, gives a
    speed reference for that op or set-up. The host's compute speed and its
    memory and page-cache speed drift apart, so the round trip, which spends
    most of its time saving and loading a container, needs the file part.
    """

    def __init__(self, file: Path | None = None) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((1, 96, 24, 24)).astype(np.float32)
        self.k = rng.standard_normal((96, 13, 13)).astype(np.float32)
        self.w = rng.standard_normal((384, 96)).astype(np.float32)
        self.file = file
        self.blob = np.ones(PROBE_FILE_MB * 2**20 // 4, np.float32) if file else None
        self.ref_s = PROBE_REF_S["compute"] + (PROBE_REF_S["file"] if file else 0.0)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        xp = np.pad(self.x, ((0, 0), (0, 0), (6, 6), (6, 6)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (13, 13), axis=(2, 3))
        y = np.einsum("nchwij,cij->nchw", win, self.k, optimize=False)
        h = np.matmul(self.w, y.reshape(1, 96, -1))
        erf(h * np.float32(0.7071067811865476))
        for _ in range(PROBE_FILE_REPS if self.file is not None else 0):
            with open(self.file, "wb") as f:
                f.write(memoryview(self.blob))
            np.fromfile(self.file, np.float32)
        return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    instance: str
    mode: str             # "merged" | "train" | "roundtrip"
    batch: int
    res: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("a-merged-b8-r64", "A", "merged", 8, 64,
             "offline throughput on small maps (16->2 px): most 13x13 taps read only padding, "
             "so kernel cropping shows here and FFT does not"),
    Workload("a-train-b8-r64", "A", "train", 8, 64,
             "train-structure baseline the merged form must beat; the only one running "
             "reparam_forward with dilated k3/k5/k7 branches and per-branch BN"),
    Workload("s-roundtrip-b1-r64", "S", "roundtrip", 1, 64,
             "merge, save, load, forward (export -> forward path): container and model rebuild "
             "dominate; the container is read back from the page cache"),
)}


def make_input(w: Workload, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1])
    return rng.standard_normal((w.batch, 3, w.res, w.res)).astype(np.float32)


def check_logits(out, reference: np.ndarray) -> tuple[str | None, float]:
    """(None, relative error) when the op's logits pass, else (why they failed, error)."""
    out = np.asarray(out)
    if out.shape != reference.shape:
        return f"logits shape {out.shape} != reference {reference.shape}", float("inf")
    bad = int(np.count_nonzero(~np.isfinite(out)))
    if bad:
        return f"{bad} non-finite logits", float("inf")
    err = relative_error(out, reference)
    if not err <= TOLERANCE_F32:
        return f"relative error {err:.3e} > {TOLERANCE_F32:g}", err
    return None, err


class Session:
    """One set-up of a workload: the f32 model the timed ops run on, and the op itself."""

    def __init__(self, w: Workload, seed: int, x: np.ndarray, workdir: Path,
                 tracer: Tracer | None = None, want_reference: bool = False):
        self.w, self.x = w, x
        self.container_path = workdir / "model.urlk"
        self.reference = None
        self.setup_s = 0.0
        t0 = time.perf_counter()
        with _scope(tracer, "setup"):
            train64 = model.build_named(w.instance, seed=seed)
            self.train32 = model.model_astype(train64, np.float32)
        self.setup_s += time.perf_counter() - t0
        if want_reference:
            self.reference = model.forward(train64, Tensor4(x.astype(np.float64)))
        del train64
        t0 = time.perf_counter()
        if w.mode == "merged":
            with _scope(tracer, "setup"):
                self.model = model.merge_for_deploy(self.train32)
        else:
            self.model = self.train32
        self.warmup_error = self.attempt()[1]
        self.setup_s += time.perf_counter() - t0

    def op(self):
        if self.w.mode == "roundtrip":
            deployed = model.merge_for_deploy(self.train32)
            container.save_model(self.container_path, deployed)
            return model.forward(container.load_model(self.container_path), Tensor4(self.x))
        return model.forward(self.model, Tensor4(self.x))

    def attempt(self):
        try:
            return self.op(), None
        except Exception as e:          # an op that raises is a failed op
            return None, f"{type(e).__name__}: {e}"


def _scope(tracer: Tracer | None, phase: str):
    return tracer.installed(phase) if tracer is not None else nullcontext()


@dataclass
class LoopResult:
    latencies_s: list
    probes_s: list        # host probe time after each untraced op
    traced_s: list
    window_s: float
    attempted: int
    failures: list
    max_rel_err: float


def run_loop(session: Session, reference: np.ndarray, seconds: float, probe: HostProbe,
             tracer: Tracer | None = None) -> LoopResult:
    """Closed loop for `seconds`; with a tracer, every second op is traced.

    The host probe runs after each untraced op, outside the op's time.
    """
    lat, probes, traced, failures = [], [], [], []
    worst = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        trace_this = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        with _scope(tracer if trace_this else None, "op"):
            out, error = session.attempt()
        t1 = time.perf_counter()
        if trace_this:
            traced.append(t1 - t0)
        else:
            lat.append(t1 - t0)
            probes.append(probe())
        if error is None:
            error, err = check_logits(out, reference)
            worst = max(worst, err)
        if error is not None:
            failures.append(error)
        i += 1
        if t1 >= deadline and (tracer is None or i % 2 == 0):
            break
    return LoopResult(lat, probes, traced, time.perf_counter() - start, i, failures, worst)


def tail(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies and the
    maximum is returned as the 100th percentile.
    """
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND
    if k < 1:
        return 100.0, s[-1]
    return 100.0 * k / len(s), s[k - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up SETUP_REPS times (more when set-up is fast), then run the
    timed loop on the last set-up.

    setup_s is the median set-up time at reference host speed: each set-up's
    wall time divided by the mean of the host probes timed just before and
    just after it, times the probe's reference time.
    """
    x = make_input(w, seed)
    tracer = Tracer() if trace else None
    probe = HostProbe(workdir / "probe.bin" if w.mode == "roundtrip" else None)
    probe()
    setups, setup_probes, reference, session = [], [], None, None
    fewest, most = SETUP_REPS
    for rep in range(most):
        if rep >= fewest and sum(setups) >= SETUP_MIN_S:
            break
        session = None          # free the previous set-up's models first
        before = [probe() for _ in range(SETUP_PROBES)]
        session = Session(w, seed, x, workdir, tracer, want_reference=rep == 0)
        after = [probe() for _ in range(SETUP_PROBES)]
        if rep == 0:
            reference = session.reference
        setups.append(session.setup_s)
        setup_probes.append(statistics.mean(before + after))
    loop = run_loop(session, reference, seconds, probe, tracer)
    rss = peak_rss_mb()
    session.container_path.unlink(missing_ok=True)
    if probe.file is not None:
        probe.file.unlink(missing_ok=True)
    pct, tail_s = tail(loop.latencies_s)
    result = {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": sorted(set(loop.failures))[:5],
        "warmup_error": session.warmup_error,
        "max_rel_err": loop.max_rel_err,
        "tolerance": TOLERANCE_F32,
        "setup_runs_s": setups,
        "setup_probe_s": setup_probes,
        "setup_wall_s": statistics.median(setups),
        "timed_ops": len(loop.latencies_s),
        "window_s": loop.window_s,
        "end_to_end": {
            "throughput_ips": w.batch * loop.attempted / (loop.window_s - sum(loop.probes_s)),
            "latency_p50_ms": statistics.median(loop.latencies_s) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "latency_p50_per_probe": statistics.median(
                t / p for t, p in zip(loop.latencies_s, loop.probes_s)),
            "setup_s": probe.ref_s * statistics.median(
                t / p for t, p in zip(setups, setup_probes)),
            "peak_rss_mb": rss,
        },
        "latency_tail_percentile": pct,
        "probe_p50_ms": statistics.median(loop.probes_s) * 1e3,
        "error_rate": len(loop.failures) / loop.attempted,
    }
    if trace:
        result["per_layer"] = layer_metrics(
            tracer, len(setups), loop.traced_s, statistics.median(loop.latencies_s))
        result["traced_ops"] = len(loop.traced_s)
        result["phases"] = {phase: tracer.totals(phase) for phase in ("setup", "op")}
        result["spans"] = tracer.spans
    return result

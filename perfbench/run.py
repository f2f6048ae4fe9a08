"""urlknet benchmark runner.

    python3 perfbench/run.py --workload a-merged-b8-r64 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark measures the package under
`src/` beside this directory and exits with code 2 if there is none.

With --trace 0 the last stdout line is {"correct", "attempted", "failed",
"metrics"} carrying the gated end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a traced run instead; the gated metrics and their
units are the `end_to_end` entries of BENCHMARK.json. The line before it is the
full report: environment, provenance, every end-to-end figure (throughput,
p50 and tail latency too), error rate, the tail percentile and its sample
count. `--workload all` runs every workload one after another, each
in its own process, and ends with one summary line.

BLAS/OpenMP threads are capped at nproc (or URLK_THREADS, if lower) before
numpy loads, as the `urlk` CLI does.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC_PACKAGE = ROOT / "src" / "urlknet"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SCHEMA_VERSION = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> int:
    """Set every BLAS/OpenMP thread variable to at most nproc; must run before numpy loads."""
    limit = nproc()
    cap = os.environ.get("URLK_THREADS", "").strip()
    if cap.isdigit() and int(cap) > 0:
        limit = min(limit, int(cap))
    for var in THREAD_VARS:
        current = os.environ.get(var, "").strip()
        if not (current.isdigit() and 0 < int(current) <= limit):
            os.environ[var] = str(limit)
    return limit


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def src_sha256() -> str:
    """Hash of every file under src/urlknet, by relative path and content."""
    h = hashlib.sha256()
    for f in sorted(SRC_PACKAGE.rglob("*.py")):
        h.update(str(f.relative_to(SRC_PACKAGE)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def environment(np, scipy, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = None
    return {
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_cap": threads,
        "thread_env": {v: os.environ.get(v) for v in (*THREAD_VARS, "URLK_THREADS")},
        "nproc": nproc(),
    }


def run_one(args, threads: int) -> int:
    load_before = os.getloadavg()
    import numpy as np
    import scipy

    import workloads
    from spans import PER_LAYER, coverage_ok

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(np, scipy, threads)
    env.update(seed=args.seed, loadavg_before=load_before, loadavg_after=os.getloadavg())
    if w.mode == "roundtrip":
        env["page_cache"] = ("the container is written and read back from the page cache; "
                             "caches are not dropped")

    correct = result["failed"] == 0
    if args.trace:
        spans = result.pop("spans")
        values = result["per_layer"]
        covered = w.mode == "roundtrip" or coverage_ok(values)
        result["coverage_ok"] = covered
        correct = correct and covered
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{w.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps([
            [s.name, s.start, s.end, s.parent, s.phase] for s in spans]))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in gated}
    report = {
        "schema_version": SCHEMA_VERSION,
        "workload": w.name,
        "why": w.why,
        "loop": "closed, one client, one process",
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        **result,
    }
    print(json.dumps(report, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; one summary line at the end."""
    import workloads

    summary, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            summary[name] = {"returncode": proc.returncode}
            status = 1
            continue
        print(lines[-2])
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        summary[name] = {
            "correct": result["correct"],
            "error_rate": report["error_rate"],
            "latency_tail_percentile": report["latency_tail_percentile"],
            "timed_ops": report["timed_ops"],
            **report["end_to_end"],
        }
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC_PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    threads = cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())

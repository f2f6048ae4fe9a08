"""Command-line harness: verify, bench, params, forward, export, import, embed.

Exit codes: 0 success, 1 verification tolerance failure, 2 usage/config/format
error. Each command returns (exit code, report); main writes the report as
JSON on stdout, led by schema_version and the command name. Every command is
deterministic given --seed except the wall-clock fields of bench and forward
reports.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import container, dataio, modality
from .errors import ConfigError, FormatError, UrlkError
from .model import (
    INSTANCE_NAMES,
    MERGED_MODE,
    REFERENCE_PARAMS_M,
    TRAIN_MODE,
    arch_config,
    build_named,
    forward,
    iter_state,
    merge_for_deploy,
    model_astype,
    param_breakdown,
    param_count,
)
from .verify import adhoc_scenario, require_trials, verify_model

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

_MEMORY_BUDGET_BYTES = 8 << 30


def _parse_adhoc(pairs):
    spec = {"in": 4, "out": 4, "groups": 1, "K": 13, "k": 3, "r": 3}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"adhoc arguments look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in spec:
            raise ConfigError(f"unknown adhoc key {key!r}; choose from {sorted(spec)}")
        try:
            spec[key] = int(value)
        except ValueError:
            raise ConfigError(f"adhoc value for {key} must be an integer, got {value!r}") from None
    return spec


def cmd_verify(args) -> tuple[int, dict]:
    if (args.model is None) == (args.adhoc is None):
        raise ConfigError("verify needs exactly one of --model NAME and --adhoc key=value ...")
    dtype = np.float32 if args.f32 else np.float64
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = 1e-5 if args.f32 else 1e-9
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ConfigError(f"--tolerance must be finite and >= 0, got {tolerance}")
    rng = np.random.default_rng(args.seed)
    checks = []
    if args.adhoc:
        spec = _parse_adhoc(args.adhoc)
        err = adhoc_scenario(
            spec["in"], spec["out"], spec["groups"], spec["K"], spec["k"], spec["r"],
            rng=rng, trials=args.trials, dtype=dtype,
        )
        checks.append(("adhoc", err))
        target = "adhoc"
    else:
        require_trials(args.trials)  # before the build, which takes seconds and GBs for XL
        checks = verify_model(build_named(args.model, seed=args.seed, dtype=dtype), rng,
                              args.trials)
        target = args.model
    worst = float(np.max([err for _, err in checks]))  # NaN kept: fails the tolerance
    ok = worst <= tolerance
    return EXIT_OK if ok else EXIT_VERIFY_FAIL, {
        "target": target,
        "dtype": "f32" if args.f32 else "f64",
        "seed": args.seed,
        "trials": args.trials,
        "tolerance": tolerance,
        "checks": [
            {"name": name, "max_rel_err": err, "pass": err <= tolerance}
            for name, err in checks
        ],
        "max_rel_err": worst,
        "pass": ok,
    }


def _bench_guard(args, width: int, n_params: int, itemsize: int) -> None:
    modes = 2 if args.compare else 1
    # widest live activation: the stage-1 FFN expansion, batch x 4C x ceil(res/4)^2
    # (each stride-2 stem conv rounds the side up)
    act = args.batch * 4 * width * (-(-args.res // 4)) ** 2 * itemsize
    total = n_params * itemsize * (modes + 1) + 4 * act
    if total > _MEMORY_BUDGET_BYTES:
        raise ConfigError(
            f"requested benchmark needs roughly {total / 2**30:.1f} GiB; "
            "reduce --batch or --res, or benchmark one mode at a time"
        )


def _environment() -> dict:
    """Interpreter, library, BLAS and thread settings the timings were taken under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v)
                       for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bench_once(model, args) -> dict:
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(
        (args.batch, model.config.in_channels, args.res, args.res)).astype(model.dtype)
    warmup = max(2, args.warmup)
    logits = None
    for _ in range(warmup):
        logits = forward(model, x)
    per_run_ms = []
    for _ in range(args.runs):
        t0 = time.perf_counter()
        logits = forward(model, x)
        per_run_ms.append((time.perf_counter() - t0) * 1000.0)
    median_ms = float(np.median(per_run_ms))
    return {
        "model": model.name,
        "mode": model.mode,
        "batch": args.batch,
        "resolution": args.res,
        "warmup_runs": warmup,
        "timed_runs": args.runs,
        "per_run_ms": per_run_ms,
        "median_ms": median_ms,
        "min_ms": min(per_run_ms),
        "p10_ms": float(np.percentile(per_run_ms, 10)),
        "p90_ms": float(np.percentile(per_run_ms, 90)),
        "peak_rss_mb": _peak_rss_mb(),
        "throughput_ips": args.batch * 1000.0 / median_ms,
        # seed-determined; lets callers confirm two runs computed identical outputs
        "logits_checksum": float(logits.sum()),
    }


def cmd_bench(args) -> tuple[int, dict]:
    if args.runs < 5:
        raise ConfigError(f"at least 5 timed runs are required, got {args.runs}")
    if args.batch < 1 or args.res < 1:
        raise ConfigError(f"--batch and --res must be >= 1, got {args.batch} and {args.res}")
    dtype = np.float64 if args.f64 else np.float32
    cfg = arch_config(args.model)
    _bench_guard(args, cfg.width, param_breakdown(cfg)["total"], np.dtype(dtype).itemsize)
    train = build_named(args.model, seed=args.seed, dtype=dtype)
    report = {
        "dtype": "f64" if args.f64 else "f32",
        "seed": args.seed,
        "environment": _environment(),
    }
    if args.compare:
        merged = merge_for_deploy(train)
        r_train = _bench_once(train, args)
        r_merged = _bench_once(merged, args)
        report.update({
            "train_structure": r_train,
            "merged": r_merged,
            "speedup": r_train["median_ms"] / r_merged["median_ms"],
        })
    else:
        model = merge_for_deploy(train) if args.mode == MERGED_MODE else train
        report.update(_bench_once(model, args))
    return EXIT_OK, report


def cmd_params(args) -> tuple[int, dict]:
    breakdown = param_breakdown(arch_config(args.model))
    total = breakdown["total"]
    reference_m = REFERENCE_PARAMS_M[args.model]
    deviation = (total / 1e6 - reference_m) / reference_m * 100.0
    return EXIT_OK, {
        "model": args.model,
        "per_module": {k: v for k, v in breakdown.items() if k != "total"},
        "total": total,
        "total_m": total / 1e6,
        "reference_m": reference_m,
        "deviation_pct": deviation,
    }


def _read_input_tensor(path: str, dtype=None) -> np.ndarray:
    """A finite array from a container tensor or raw file, cast to dtype if given."""
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"cannot read {path}: it does not exist or is not a file")
    with open(p, "rb") as fh:
        head = fh.read(len(container.MAGIC))
    arr = container.load_tensor(p)[1] if head == container.MAGIC else dataio.read_raw_array(p)
    if dtype is not None:
        # a finite value beyond the target range becomes inf, which the check below rejects
        with np.errstate(over="ignore"):
            arr = arr.astype(dtype, copy=False)
    if not np.isfinite(arr).all():
        raise FormatError(f"input file {path} holds NaN or infinite values as {arr.dtype}")
    return arr


def cmd_forward(args) -> tuple[int, dict]:
    model = container.load_model(args.weights)
    if model.name != args.model:
        raise FormatError(
            f"weights file holds model {model.name!r}, command asked for {args.model!r}"
        )
    arr = _read_input_tensor(args.input, model.dtype)
    # logits that overflow are counted in the report, not warned about on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward(model, arr)
    container.save_tensor(args.output, "logits", logits)
    return EXIT_OK, {
        "model": model.name,
        "mode": model.mode,
        "input_shape": list(arr.shape),
        "logits_shape": list(logits.shape),
        "nonfinite_logits": int(np.count_nonzero(~np.isfinite(logits))),
        "peak_rss_mb": _peak_rss_mb(),
        "output": args.output,
    }


def cmd_export(args) -> tuple[int, dict]:
    if args.mode == MERGED_MODE:
        # merged in f64, then cast: the f32 merged bytes are pinned to that order
        model = merge_for_deploy(build_named(args.model, seed=args.seed))
        if args.f32:
            model = model_astype(model, np.float32)
    else:
        model = build_named(args.model, seed=args.seed,
                            dtype=np.float32 if args.f32 else np.float64)
    container.save_model(args.out, model)
    return EXIT_OK, {
        "model": model.name,
        "mode": model.mode,
        "dtype": "f32" if args.f32 else "f64",
        "seed": args.seed,
        "out": args.out,
        "size_bytes": Path(args.out).stat().st_size,
    }


def cmd_import(args) -> tuple[int, dict]:
    model = container.load_model(args.weights)
    # a loaded model holds exactly the file's tensors, so these counts are the manifest's
    state = [arr for _, arr in iter_state(model)]
    return EXIT_OK, {
        "model": model.name,
        "mode": model.mode,
        "tensors": len(state),
        "payload_bytes": sum(arr.nbytes for arr in state),
        "param_count": param_count(model),
    }


def _parse_grid(text):
    if text is None:
        return None
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise ConfigError(f"grid must look like 4x4, got {text!r}") from None


def cmd_embed(args) -> tuple[int, dict]:
    if args.modality == "time-series":
        if args.height is None or args.width is None:
            raise ConfigError("time-series embedding needs explicit --height and --width")
        if args.input.endswith(".csv"):
            data = dataio.read_timeseries_csv(args.input, batch=args.batch)
        else:
            data = _read_input_tensor(args.input)
        projection = _read_input_tensor(args.projection, np.float64) if args.projection else None
        emb = modality.embed_time_series(data, args.nodes, projection, (args.height, args.width))
    elif args.modality == "audio":
        emb = modality.embed_audio(_read_input_tensor(args.input))
    elif args.modality == "pointcloud":
        emb = modality.embed_pointcloud(_read_input_tensor(args.input))
    else:
        emb = modality.embed_video(_read_input_tensor(args.input), _parse_grid(args.grid))
    container.save_tensor(args.out, "embedding", emb)
    return EXIT_OK, {"modality": args.modality, "shape": list(emb.shape), "out": args.out}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urlk",
        description="Inference, kernel-merge verification, auditing and benchmarking "
                    "for large-kernel conv models with dilated-branch re-parameterization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="merge-equivalence verification")
    p.add_argument("--model", choices=INSTANCE_NAMES)
    p.add_argument("--adhoc", nargs="+", metavar="KEY=VAL",
                   help="two-layer scenario, keys: in out groups K k r")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=None,
                   help="default 1e-9 (f64) or 1e-5 (--f32)")
    p.add_argument("--f32", action="store_true", help="run in 32-bit storage")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="throughput benchmark")
    p.add_argument("--model", choices=INSTANCE_NAMES, required=True)
    p.add_argument("--mode", choices=[TRAIN_MODE, MERGED_MODE], default=MERGED_MODE)
    p.add_argument("--compare", action="store_true",
                   help="time both modes and report the merged/train speedup")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--runs", type=int, default=9)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f64", action="store_true", help="use 64-bit storage instead of 32")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("params", help="parameter audit")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("forward", help="run a model from a weights file")
    p.add_argument("--model", choices=INSTANCE_NAMES, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("export", help="write a seeded model to a weight container")
    p.add_argument("--model", choices=INSTANCE_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[TRAIN_MODE, MERGED_MODE], default=TRAIN_MODE)
    p.add_argument("--f32", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="validate a weight container and summarize it")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("embed", help="turn modality data into an embedding map")
    p.add_argument("--modality", choices=["time-series", "audio", "pointcloud", "video"],
                   required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=1, help="time-series node count")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--projection", default=None,
                   help="raw array file holding the (latent, D/n) projection")
    p.add_argument("--batch", type=int, default=1, help="batch count for CSV input")
    p.add_argument("--grid", default=None, help="video layout, e.g. 4x4")
    p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # numpy would reject a negative seed only mid-command, after a build or a write began
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        code, report = args.func(args)
    except UrlkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"schema_version": SCHEMA_VERSION, "command": args.command, **report},
                     indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())

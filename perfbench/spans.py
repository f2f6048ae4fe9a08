"""Span tracer for the traced benchmark run.

Spans are recorded from outside the package: for the duration of a traced
set-up or op, timing wrappers replace the module attributes through which
`blocks`, `model`, `reparam` and `container` call one another and `tensor`.
Nothing under `src/` is changed, and untraced runs never see a wrapper.

Each span holds (name, start, end, parent, phase, attrs); spans stay in
memory until the run ends. Self time is a span's duration minus the
durations of its direct children. Counts (calls, analytic GFLOP, MB
computed from tensor sizes, useful 13x13 taps) depend only on shapes, so
they repeat exactly across runs and seeds.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import paths  # noqa: F401  (puts the checkout's src/ first on sys.path)
from urlknet import blocks, container, model, reparam, tensor

_MB = 1e6
COVERAGE_SLACK = 0.10     # instrumented self times must sum to within 10% of traced op time
# model.forward's self time is the catch-all: work that no wrapper sees (the
# pooling and head, or a call that bypasses the module attributes) lands
# there, so it is left out of trace.coverage
_UNCOVERED = "model.forward"

CONV_KINDS = ("dw_k13", "dw_small", "dw_dilated", "pw", "dense")

# (metric name, unit, better, what it should move and where)
_SELF = ("ms", "lower")
PER_LAYER = [
    *[
        entry
        for kind, moves in (
            ("dw_k13", "throughput_ips on a-merged-b8-r64 most, a-train-b8-r64 less"),
            ("dw_small", "throughput_ips on a-train-b8-r64 only"),
            ("dw_dilated", "throughput_ips on a-train-b8-r64 only"),
            ("pw", "throughput_ips on a-merged-b8-r64 and a-train-b8-r64"),
            ("dense", "throughput_ips on a-merged-b8-r64 and a-train-b8-r64"),
        )
        for entry in (
            (f"tensor.conv2d.{kind}.self_ms", *_SELF, moves),
            (f"tensor.conv2d.{kind}.calls", "count", "lower", moves),
            (f"tensor.conv2d.{kind}.gflop", "GFLOP_analytic", "lower", moves),
            (f"tensor.conv2d.{kind}.mb", "MB_from_shapes", "lower", moves),
        )
    ],
    ("tensor.conv2d.dw_k13.useful_tap_ratio", "ratio", "higher",
     "throughput_ips on a-merged-b8-r64 once kernels are cropped"),
    *[
        entry
        for op in ("gelu", "grn", "batchnorm_infer")
        for entry in (
            (f"tensor.{op}.self_ms", *_SELF, "throughput_ips on a-merged-b8-r64"),
            (f"tensor.{op}.calls", "count", "lower", "the same as self_ms"),
            (f"tensor.{op}.mb", "MB_from_shapes", "lower", "the same as self_ms"),
        )
    ],
    *[
        (f"blocks.{fn}.self_ms", *_SELF, "throughput_ips on a-merged-b8-r64")
        for fn in ("se_forward", "ffn_forward", "block_forward", "downsample_forward")
    ],
    ("reparam.reparam_forward.self_ms", *_SELF, "throughput_ips on a-train-b8-r64"),
    ("reparam.merge_dilated_reparam.ms", "ms", "lower",
     "setup_s on a-merged-b8-r64, throughput_ips on s-roundtrip-b1-r64"),
    *[
        (f"model.{fn}.s", "s", "lower", "setup_s and peak_rss_mb, most on s-roundtrip-b1-r64")
        for fn in ("build_named", "model_astype", "merge_for_deploy", "build_from_state")
    ],
    ("model.forward.self_ms", *_SELF, "pooling, head and input checks; every forward workload"),
    ("container.save_model.s", "s", "lower",
     "throughput_ips and peak_rss_mb on s-roundtrip-b1-r64 only"),
    ("container.read_container.s", "s", "lower",
     "throughput_ips and peak_rss_mb on s-roundtrip-b1-r64 only"),
    ("container.mb_written", "MB_from_sizes", "lower", "s-roundtrip-b1-r64 only"),
    ("container.mb_read", "MB_from_sizes", "lower", "s-roundtrip-b1-r64 only"),
    ("trace.overhead_ms", "ms", "lower", "nothing: traced minus untraced p50 op time"),
    ("trace.coverage", "ratio", "higher",
     "nothing: self times of the instrumented layers (all but model.forward) over traced "
     "op wall time, must stay within 10% of 1"),
]

# per-layer metrics that sum inclusive span time over one set-up plus one op;
# every other time metric is self time per op
_INCLUSIVE = {
    "reparam.merge_dilated_reparam.ms": ("reparam.merge_dilated_reparam", 1e3),
    "model.build_named.s": ("model.build_named", 1.0),
    "model.model_astype.s": ("model.model_astype", 1.0),
    "model.merge_for_deploy.s": ("model.merge_for_deploy", 1.0),
    "model.build_from_state.s": ("model.build_from_state", 1.0),
    "container.save_model.s": ("container.save_model", 1.0),
    "container.read_container.s": ("container.read_container", 1.0),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    phase: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0


def conv_kind(layer: tensor.ConvLayer) -> str:
    """Op kind of a conv2d call, derived from the layer's shape alone."""
    kh, kw = layer.kernel_size
    if layer.is_depthwise:
        if layer.dilation != (1, 1):
            return "dw_dilated"
        return "dw_small" if max(kh, kw) < 13 else "dw_k13"
    if (kh, kw) == (1, 1):
        return "pw"
    return "dense"


def conv_counts(x: tensor.Tensor4, layer: tensor.ConvLayer) -> dict:
    """Analytic FLOPs, bytes from tensor sizes and (for dw_k13) tap usage of one conv2d."""
    n, _, h, w = x.shape
    kh, kw = layer.kernel_size
    (sh, sw), (ph, pw), (dh, dw) = layer.stride, layer.padding, layer.dilation
    oh = tensor.conv_output_size(h, kh, sh, ph, dh)
    ow = tensor.conv_output_size(w, kw, sw, pw, dw)
    c_out = layer.out_channels
    sites = n * c_out * oh * ow
    macs = sites * (layer.in_channels // layer.groups) * kh * kw
    item = x.dtype.itemsize
    bias = 0 if layer.bias is None else layer.bias.nbytes
    counts = {
        "flop": 2 * macs + (sites if layer.bias is not None else 0),
        "bytes": x.data.nbytes + layer.weight.data.nbytes + bias + sites * item,
    }
    if conv_kind(layer) == "dw_k13":
        # a tap more than h-1 rows (w-1 cols) from the centre only ever reads
        # zero padding, whatever the output site (stride 1, dilation 1)
        counts["taps"] = sites * kh * kw
        counts["useful_taps"] = sites * min(kh, 2 * h - 1) * min(kw, 2 * w - 1)
    return counts


def _span_name(fn) -> str:
    """`module.function`, e.g. `blocks.se_forward`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans while installed; `installed()` swaps wrappers in and out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._phase = ""

    # -- span recording ---------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._phase))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def _wrap(self, fn, name, counts=None):
        def traced(*args, **kwargs):
            idx = self._begin(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if counts is not None:
                self.spans[idx].attrs = counts(result, *args)
            return result
        return traced

    def _wrappers(self) -> dict:
        """Wrapped callables, keyed by the layer function they replace."""
        plain = (
            reparam.reparam_forward, reparam.merge_dilated_reparam,
            blocks.se_forward, blocks.ffn_forward, blocks.block_forward, blocks.downsample_forward,
            model.build_named, model.model_astype, model.merge_for_deploy,
            model.build_from_state, model.forward,
        )
        wrappers = {fn: self._wrap(fn, _span_name(fn)) for fn in plain}
        elementwise = lambda out, x, *rest: {"bytes": x.data.nbytes + out.data.nbytes}
        counted = {
            tensor.gelu: elementwise,
            tensor.batchnorm_infer: elementwise,
            tensor.grn: lambda out, x, g, b, *rest: {
                "bytes": x.data.nbytes + out.data.nbytes + g.nbytes + b.nbytes},
            container.save_model: lambda out, path, m: {"bytes_written": os.path.getsize(path)},
            container.read_container: lambda out, path: {"bytes_read": os.path.getsize(path)},
        }
        for fn, counts in counted.items():
            wrappers[fn] = self._wrap(fn, _span_name(fn), counts)
        wrappers[tensor.conv2d] = self._wrap(
            tensor.conv2d, lambda x, layer: f"tensor.conv2d.{conv_kind(layer)}",
            lambda out, x, layer: conv_counts(x, layer))
        return wrappers

    @contextmanager
    def installed(self, phase: str):
        """Trace every layer call made inside the block under one root span `phase`."""
        wrappers = self._wrappers()
        saved = []
        for mod in (tensor, reparam, blocks, model, container):
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        self._phase = phase
        root = self._begin(phase)
        try:
            yield
        finally:
            self._end(root)
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    # -- aggregation ------------------------------------------------------

    def totals(self, phase: str) -> dict:
        """Per span name: calls, self and inclusive seconds, summed attrs."""
        out: dict[str, dict] = {}
        for s in self.spans:
            if s.phase != phase or s.parent < 0:
                continue
            agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (s.end - s.start) - s.child_s
            agg["incl_s"] += s.end - s.start
            for key, value in s.attrs.items():
                agg[key] = agg.get(key, 0) + value
        return out


def layer_metrics(tracer: Tracer, n_setups: int, op_wall_s: list[float],
                  untraced_p50_s: float) -> dict:
    """Per-layer metric values: per op, and per set-up plus per op for build/load/save."""
    n_ops = len(op_wall_s)
    ops = tracer.totals("op")
    setups = tracer.totals("setup")

    def per_op(name: str, key: str) -> float:
        return ops.get(name, {}).get(key, 0) / n_ops

    values: dict[str, float] = {}
    for kind in CONV_KINDS:
        name = f"tensor.conv2d.{kind}"
        values[f"{name}.self_ms"] = per_op(name, "self_s") * 1e3
        values[f"{name}.calls"] = per_op(name, "calls")
        values[f"{name}.gflop"] = per_op(name, "flop") / 1e9
        values[f"{name}.mb"] = per_op(name, "bytes") / _MB
    k13 = ops.get("tensor.conv2d.dw_k13", {})
    values["tensor.conv2d.dw_k13.useful_tap_ratio"] = (
        k13.get("useful_taps", 0) / k13["taps"] if k13.get("taps") else 0.0)
    for op in ("gelu", "grn", "batchnorm_infer"):
        name = f"tensor.{op}"
        values[f"{name}.self_ms"] = per_op(name, "self_s") * 1e3
        values[f"{name}.calls"] = per_op(name, "calls")
        values[f"{name}.mb"] = per_op(name, "bytes") / _MB
    for name in ("blocks.se_forward", "blocks.ffn_forward", "blocks.block_forward",
                 "blocks.downsample_forward", "reparam.reparam_forward", "model.forward"):
        values[f"{name}.self_ms"] = per_op(name, "self_s") * 1e3
    for metric, (name, scale) in _INCLUSIVE.items():
        values[metric] = (setups.get(name, {}).get("incl_s", 0.0) / n_setups
                          + per_op(name, "incl_s")) * scale
    values["container.mb_written"] = (
        setups.get("container.save_model", {}).get("bytes_written", 0) / n_setups
        + per_op("container.save_model", "bytes_written")) / _MB
    values["container.mb_read"] = (
        setups.get("container.read_container", {}).get("bytes_read", 0) / n_setups
        + per_op("container.read_container", "bytes_read")) / _MB
    values["trace.overhead_ms"] = (statistics.median(op_wall_s) - untraced_p50_s) * 1e3
    layer_self = sum(agg["self_s"] for name, agg in ops.items() if name != _UNCOVERED)
    values["trace.coverage"] = layer_self / sum(op_wall_s)
    return values


def coverage_ok(values: dict) -> bool:
    """Whether the instrumented layers account for the traced op time (within 10%)."""
    return abs(values["trace.coverage"] - 1) <= COVERAGE_SLACK

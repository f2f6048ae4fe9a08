"""Model zoo: named architecture instances, builder, forward, merge, param audit.

The backbone has four stages at widths C, 2C, 4C, 8C, each entered through a
stride-2 downsample: ModelInstance.downsamples lines up with .stages, the stem
(two conv+BN pairs, halving twice) first, then one pair per transition, so
every walker zips the two. Stage 1 uses SmaK blocks, stages 2 and 4 use LarK
blocks only, and stage 3 repeats LarK plus N3/stage3_lark - 1 SmaK blocks
(S: LarK,SmaK,SmaK; T: LarK,SmaK; A: all LarK). A block is known by its K
alone, which ArchConfig.stage_kernels gives: a LarK block has K=13 and the
stock_branches(13) depthwise stage, a SmaK block K=3 and one 3x3 branch.

A freshly built model is in train-structure mode; merge_for_deploy returns its
deploy twin (never mutating the original): every depthwise stage, the LarK
branches or the one SmaK branch, becomes one fused KxK conv, and each post-FFN
BN folds into the FFN's second 1x1 conv. Parameter counts always describe the
deploy form and include the classifier head; BN running statistics are
buffers, not parameters, and are excluded.

forward_stages returns the four stage maps, which a dense-prediction head
reads; forward runs the classifier head (global mean pool, BN, linear) on the
last of them.

_layout(cfg, merged) is the single source of tensor names, their order in
the weight container, their shapes and their init. Building (draws in layout
order), loading (name and shape validation), dtype conversion, saving
(iter_state) and parameter counting all derive from it, and _assemble is the
only code that turns arrays in layout order into model objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .blocks import (
    BlockSpec,
    FfnBlock,
    SeBlock,
    block_forward,
    downsample_forward,
    merge_block,
)
from .errors import ConfigError, FormatError, ShapeError, StateError, UrlkError
from .reparam import stock_branches
from .tensor import BnParams, ConvLayer, _as_int, batchnorm_infer, checked_array, linear

TRAIN_MODE = "train-structure"
MERGED_MODE = "merged"

BN_EPS = 1e-5
INIT_STD = 0.02


@dataclass(frozen=True)
class ArchConfig:
    """Resolved architecture hyper-parameters for one model."""

    depths: tuple[int, int, int, int]
    width: int
    stage3_lark: int
    in_channels: int = 3
    num_classes: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(_as_int(d, "depths") for d in self.depths))
        for name in ("width", "stage3_lark", "in_channels", "num_classes"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if len(self.depths) != 4 or min(self.depths) < 1:
            raise ConfigError(f"depths must be four positive ints, got {self.depths}")
        if self.width % 4 != 0 or self.width < 8:
            raise ConfigError(f"width must be a multiple of 4 (SE bottleneck), got {self.width}")
        if self.depths[2] not in (self.stage3_lark, 2 * self.stage3_lark, 3 * self.stage3_lark):
            raise ConfigError(
                f"N3={self.depths[2]} must be 1, 2 or 3 times the stage-3 LarK count "
                f"{self.stage3_lark}"
            )
        if self.in_channels < 1 or self.num_classes < 1:
            raise ConfigError("in_channels and num_classes must be positive")

    @property
    def stage_widths(self) -> tuple[int, int, int, int]:
        c = self.width
        return c, 2 * c, 4 * c, 8 * c

    def stage_kernels(self, stage: int) -> tuple[int, ...]:
        """Each block's K for stage 1..4: 13 for a LarK block, 3 for a SmaK block."""
        n = self.depths[stage - 1]
        if stage == 1:
            return (3,) * n
        if stage in (2, 4):
            return (13,) * n
        return (13, *(3,) * (n // self.stage3_lark - 1)) * self.stage3_lark


# (N1, N2, N3, N4, stage-3 LarK count, C, reference param count in millions)
_INSTANCE_ROWS = {
    "A": (2, 2, 6, 2, 6, 40, 4.4),
    "F": (2, 2, 6, 2, 6, 48, 6.2),
    "P": (2, 2, 6, 2, 6, 64, 10.7),
    "N": (2, 2, 8, 2, 8, 80, 18.3),
    "T": (3, 3, 18, 3, 9, 80, 31.0),
    "S": (3, 3, 27, 3, 9, 96, 55.6),
    "B": (3, 3, 27, 3, 9, 128, 97.9),
    "L": (3, 3, 27, 3, 9, 192, 218.3),
    "XL": (3, 3, 27, 3, 9, 256, 386.4),
}

REFERENCE_PARAMS_M = {name: row[-1] for name, row in _INSTANCE_ROWS.items()}

INSTANCE_NAMES = tuple(_INSTANCE_ROWS)


def arch_config(name: str, in_channels: int = 3, num_classes: int = 1000) -> ArchConfig:
    """ArchConfig for one of the nine named instances (A F P N T S B L XL)."""
    if name not in _INSTANCE_ROWS:
        raise ConfigError(f"unknown model instance {name!r}; choose from {INSTANCE_NAMES}")
    *depths, lark, width, _ = _INSTANCE_ROWS[name]
    return ArchConfig(
        depths=tuple(depths),
        width=width,
        stage3_lark=lark,
        in_channels=in_channels,
        num_classes=num_classes,
    )


@dataclass(frozen=True)
class ModelInstance:
    config: ArchConfig
    downsamples: tuple[tuple[tuple[ConvLayer, BnParams], ...], ...]
    stages: tuple[tuple[BlockSpec, ...], ...]
    head_bn: BnParams
    head_weight: np.ndarray
    head_bias: np.ndarray

    def __post_init__(self):
        if len({b.merged for stage in self.stages for b in stage}) > 1:
            raise StateError("a model's blocks must be all merged or all train-structure")
        # a set of dtypes, not of dtype.name, which costs more than the walk itself
        try:
            dtypes = {arr.dtype for _, init, arr in _tensors(self) if init != "eps"}
        # no first block for self.merged to read, or _tensors' zip(strict=True) found more
        # or fewer tensors than the config's
        except (IndexError, ValueError):
            raise ShapeError("the model's blocks do not match its config") from None
        if len(dtypes) != 1:
            raise ShapeError(f"model tensors are {sorted(map(str, dtypes))}; a model holds one dtype")

    @property
    def name(self) -> str:
        """The named instance whose arch_config is this config, or "custom" if none is."""
        c = self.config
        return next((n for n in INSTANCE_NAMES
                     if arch_config(n, c.in_channels, c.num_classes) == c), "custom")

    @property
    def merged(self) -> bool:
        """Read from the blocks, which __post_init__ holds to one mode."""
        return self.stages[0][0].merged

    @property
    def mode(self) -> str:
        return MERGED_MODE if self.merged else TRAIN_MODE

    @property
    def dtype(self) -> np.dtype:
        """Read from the head, as __post_init__ holds every tensor but the BN eps to one dtype."""
        return self.head_weight.dtype


# ---------------------------------------------------------------------------
# the tensor layout: the one place container names, order and init live
# ---------------------------------------------------------------------------

# Layout init tags. "normal" is a +-2 sigma truncated normal, drawn in layout
# order; the others are constant fills. BN running statistics and eps are
# buffers, not parameters.
_FILLS = {"zeros": 0.0, "ones": 1.0, "stat0": 0.0, "stat1": 1.0, "eps": BN_EPS}
_BUFFERS = ("stat0", "stat1", "eps")


def _layout(cfg: ArchConfig, merged: bool):
    """Yield (dotted name, shape, init) of every tensor, in container order.

    Init tags describe the train-structure model that build_model draws; the
    merged layout is used for loading, counting and naming only.
    """
    def bn(prefix: str, c: int):
        yield f"{prefix}.gamma", (c,), "ones"
        yield f"{prefix}.beta", (c,), "zeros"
        yield f"{prefix}.running_mean", (c,), "stat0"
        yield f"{prefix}.running_var", (c,), "stat1"
        yield f"{prefix}.eps", (1,), "eps"

    c = cfg.width
    widths = cfg.stage_widths
    yield "stem.conv1.weight", (c // 2, cfg.in_channels, 3, 3), "normal"
    yield from bn("stem.bn1", c // 2)
    yield "stem.conv2.weight", (c, c // 2, 3, 3), "normal"
    yield from bn("stem.bn2", c)
    for s in range(1, 5):
        w = widths[s - 1]
        if s > 1:
            yield f"transition{s}.conv.weight", (w, widths[s - 2], 3, 3), "normal"
            yield from bn(f"transition{s}.bn", w)
        for i, K in enumerate(cfg.stage_kernels(s)):
            p = f"stage{s}.block{i}"
            if merged:
                yield f"{p}.dw.weight", (w, 1, K, K), "normal"
                yield f"{p}.dw.bias", (w,), "zeros"
            else:
                for j, (k, _) in enumerate(stock_branches(K)):
                    # SmaK containers name their single branch dw.weight / dw.bn.*
                    q = f"{p}.dw" if K == 3 else f"{p}.dw.branch{j}"
                    yield f"{q}.weight", (w, 1, k, k), "normal"
                    yield from bn(f"{q}.bn", w)
            yield f"{p}.se.reduce.weight", (w // 4, w), "normal"
            yield f"{p}.se.reduce.bias", (w // 4,), "zeros"
            yield f"{p}.se.expand.weight", (w, w // 4), "normal"
            yield f"{p}.se.expand.bias", (w,), "zeros"
            yield from bn(f"{p}.bn1", w)
            yield f"{p}.ffn.pw1.weight", (4 * w, w, 1, 1), "normal"
            yield f"{p}.ffn.pw1.bias", (4 * w,), "zeros"
            yield f"{p}.ffn.grn.gamma", (4 * w,), "normal"
            yield f"{p}.ffn.grn.beta", (4 * w,), "normal"
            yield f"{p}.ffn.pw2.weight", (w, 4 * w, 1, 1), "normal"
            yield f"{p}.ffn.pw2.bias", (w,), "zeros"
            if not merged:
                yield from bn(f"{p}.bn2", w)
    yield from bn("head.bn", widths[3])
    yield "head.fc.weight", (cfg.num_classes, widths[3]), "normal"
    yield "head.fc.bias", (cfg.num_classes,), "zeros"


def _assemble(cfg: ArchConfig, merged: bool, arrays) -> ModelInstance:
    """Turn arrays given in _layout order into the model objects."""
    take = iter(arrays).__next__

    def bn() -> BnParams:
        gamma, beta, mean, var, eps = (take() for _ in range(5))
        return BnParams(gamma, beta, mean, var, eps=float(eps[0]))

    def conv(stride=1, padding=0, dilation=1, groups=1, bias=False) -> ConvLayer:
        return ConvLayer(take(), take() if bias else None, stride, padding, dilation, groups)

    def block(K: int, c: int) -> BlockSpec:
        if merged:
            dw = {"dw_conv": conv(padding=K // 2, groups=c, bias=True)}
        else:
            dw = {"branches": tuple(
                (conv(padding=(k - 1) * r // 2, dilation=r, groups=c), bn())
                for k, r in stock_branches(K)
            )}
        se = SeBlock(take(), take(), take(), take())
        post_dw_bn = bn()
        ffn = FfnBlock(conv(bias=True), take(), take(), conv(bias=True))
        return BlockSpec(se=se, post_dw_bn=post_dw_bn, ffn=ffn, **dw,
                         post_ffn_bn=None if merged else bn())

    downsamples, stages = [], []
    for s, w in enumerate(cfg.stage_widths, start=1):
        downsamples.append(tuple((conv(2, 1), bn()) for _ in range(2 if s == 1 else 1)))
        stages.append(tuple(block(K, w) for K in cfg.stage_kernels(s)))
    return ModelInstance(
        config=cfg, downsamples=tuple(downsamples), stages=tuple(stages),
        head_bn=bn(), head_weight=take(), head_bias=take(),
    )


def _arrays(model: ModelInstance):
    """Every tensor of the model in _layout order, from one walk of the objects."""
    def bn(p: BnParams):
        # BnParams fields in declaration order, as _assemble passes them
        *stats, eps = (getattr(p, f.name) for f in fields(p))
        return (*stats, np.array([eps], dtype=np.float64))

    def conv(layer: ConvLayer):
        return (layer.weight.data,) if layer.bias is None else (layer.weight.data, layer.bias)

    for down, stage in zip(model.downsamples, model.stages):
        for layer, p in down:
            yield from conv(layer)
            yield from bn(p)
        for b in stage:
            if b.merged:
                yield from conv(b.dw_conv)
            else:
                for layer, p in b.branches:
                    yield from conv(layer)
                    yield from bn(p)
            gate, mlp = b.se, b.ffn
            yield from (gate.reduce_weight, gate.reduce_bias, gate.expand_weight, gate.expand_bias)
            yield from bn(b.post_dw_bn)
            yield from conv(mlp.pw1)
            yield from (mlp.grn_gamma, mlp.grn_beta)
            yield from conv(mlp.pw2)
            if b.post_ffn_bn is not None:
                yield from bn(b.post_ffn_bn)
    yield from bn(model.head_bn)
    yield from (model.head_weight, model.head_bias)


def _tensors(model: ModelInstance):
    """(name, init, array) for every tensor: _layout's entries paired with _arrays."""
    layout = _layout(model.config, model.merged)
    for (name, _, init), arr in zip(layout, _arrays(model), strict=True):
        yield name, init, arr


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def _trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    # +-2 sigma truncated normal; rejection resampling keeps the draw exact
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    while bad.size:
        draws = rng.standard_normal(bad.size)
        flat[bad] = draws
        bad = bad[np.abs(draws) > 2.0]
    x *= std
    return x


def _cast(init: str, arr: np.ndarray, dtype) -> np.ndarray:
    """arr in dtype (f32/f64); a BN eps stays as it is, f64, as _arrays writes it."""
    return arr if init == "eps" else arr.astype(np.dtype(dtype).type, copy=False)


def build_model(cfg: ArchConfig, seed: int = 0, dtype=np.float64) -> ModelInstance:
    """Deterministically initialize a train-structure model from a seed.

    Conv/linear/GRN parameters draw from a +-2 sigma truncated normal with
    std 0.02 in layout order, so equal seeds give bit-identical parameters.
    BN starts at identity statistics. Each tensor but the BN eps is drawn in
    f64 and cast to dtype at once, so the result is bit-identical to
    model_astype(build_model(cfg, seed), dtype) without ever holding the
    whole f64 model.
    """
    rng = np.random.default_rng(seed)
    arrays = [
        _cast(init, _trunc_normal(rng, shape) if init == "normal" else np.full(shape, _FILLS[init]),
              dtype)
        for _, shape, init in _layout(cfg, merged=False)
    ]
    return _assemble(cfg, False, arrays)


def build_named(name: str, seed: int = 0, in_channels: int = 3, num_classes: int = 1000,
                dtype=np.float64) -> ModelInstance:
    return build_model(arch_config(name, in_channels, num_classes), seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def forward_stages(model: ModelInstance, x) -> tuple:
    """Four (n, c, h, w) stage maps of array-like x; its stem's conv2d checks channels and dtype."""
    cur, outs = checked_array(x), []
    for s, (down, stage) in enumerate(zip(model.downsamples, model.stages), start=1):
        try:
            cur = downsample_forward(cur, down)
        except ShapeError as e:
            raise ShapeError(f"{'stem' if s == 1 else f'transition{s}'}: {e}") from None
        for b in stage:
            cur = block_forward(cur, b)
        outs.append(cur)
    return tuple(outs)


def forward(model: ModelInstance, x) -> np.ndarray:
    """Class logits, shape (batch, num_classes): the head on the pooled last stage."""
    pooled = forward_stages(model, x)[-1].mean(axis=(2, 3), keepdims=True)
    pooled = batchnorm_infer(pooled, model.head_bn)
    return linear(pooled[:, :, 0, 0], model.head_weight, model.head_bias)


# ---------------------------------------------------------------------------
# merge + dtype conversion
# ---------------------------------------------------------------------------

def merge_for_deploy(model: ModelInstance) -> ModelInstance:
    """Deploy twin with every block merged; the input model is left untouched.

    Unchanged parameter arrays (downsamples, SE, pw1, GRN, head) are shared
    between the two instances, not copied.
    """
    stages = tuple(tuple(merge_block(b) for b in stage) for stage in model.stages)
    return replace(model, stages=stages)


def model_astype(model: ModelInstance, dtype) -> ModelInstance:
    """Convert every parameter array to the given element width (f32/f64)."""
    arrays = [_cast(init, arr, dtype) for _, init, arr in _tensors(model)]
    return _assemble(model.config, model.merged, arrays)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def param_breakdown(cfg: ArchConfig) -> dict:
    """Analytic per-module scalar-parameter counts of the deploy-merged model."""
    out = dict.fromkeys(("stem", "stage1", "stage2", "stage3", "stage4", "transitions", "head"), 0)
    for name, shape, init in _layout(cfg, merged=True):
        if init not in _BUFFERS:
            top = name.split(".", 1)[0]
            # the three numbered transitions share one key
            out[top if top in out else "transitions"] += math.prod(shape)
    out["total"] = sum(out.values())
    return out


def param_count(model: ModelInstance) -> int:
    """Scalar parameters of the deploy-merged form of this model (head included)."""
    return param_breakdown(model.config)["total"]


# ---------------------------------------------------------------------------
# state-dict walking (weight container interface)
# ---------------------------------------------------------------------------

def iter_state(model: ModelInstance):
    """Yield (dotted name, array) for every tensor, in the canonical order."""
    for name, _, arr in _tensors(model):
        yield name, arr


def build_from_state(name: str, mode: str, arrays: dict) -> ModelInstance:
    """Reconstruct a ModelInstance from named tensors (the container's contents).

    The architecture comes from the instance name; input channels and class
    count are inferred from the stem and head tensor shapes. An empty one of
    these, missing, extra or mis-shaped tensors, a BN eps not in f64, and any
    tensor the model objects reject (mixed dtypes, eps <= 0, an infinite BN statistic
    or SE entry) raise FormatError.
    """
    if mode not in (TRAIN_MODE, MERGED_MODE):
        raise FormatError(f"unknown mode {mode!r}")
    merged = mode == MERGED_MODE
    if name not in _INSTANCE_ROWS:
        raise FormatError(f"container names unknown model instance {name!r}")
    # names do not depend on in_channels or num_classes: the first tensor
    # (stem conv) carries in_channels as dim 1, the last (head bias) carries
    # num_classes as dim 0
    (first, *_), *_, (last, *_) = _layout(arch_config(name), merged)
    try:
        in_channels, num_classes = arrays[first].shape[1], arrays[last].shape[0]
    except (KeyError, IndexError):
        raise FormatError(f"container lacks a well-formed {first} or {last}") from None
    for tname, size in ((first, in_channels), (last, num_classes)):
        if size < 1:
            raise FormatError(f"tensor {tname!r} has an empty dimension: {arrays[tname].shape}")
    config = arch_config(name, in_channels=in_channels, num_classes=num_classes)
    layout = list(_layout(config, merged))
    for tname, shape, _ in layout:
        if tname not in arrays:
            raise FormatError(f"weight container is missing tensor {tname!r}")
        if tuple(arrays[tname].shape) != shape:
            raise FormatError(
                f"tensor {tname!r} has shape {tuple(arrays[tname].shape)}, expected {shape}"
            )
    # every BN eps in f64, as save_model writes it; ModelInstance checks the one dtype
    if any(arrays[tname].dtype != np.float64 for tname, _, init in layout if init == "eps"):
        raise FormatError("a model holds one dtype, with every BN eps in float64")
    extra = sorted(arrays.keys() - {tname for tname, _, _ in layout})
    if extra:
        raise FormatError(
            f"container holds {len(extra)} unexpected tensor(s): {', '.join(extra[:5])} ..."
        )
    try:
        return _assemble(config, merged, [arrays[tname] for tname, _, _ in layout])
    except UrlkError as e:
        raise FormatError(f"container holds a malformed model: {e}") from None

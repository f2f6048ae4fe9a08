"""Composite blocks: SE gating, FFN with GRN, LarK/SmaK blocks, downsampling.

A block runs in one of two modes. In train-structure mode the depthwise stage
is a dilated reparam block of parallel conv->BN branches: a LarK block has a
principal 13x13 branch plus dilated small kernels, a SmaK block is the
one-branch case, a single 3x3 conv->BN. merge_block() produces the deploy
twin: the branches collapse into one KxK conv and the post-FFN BN folds into
the FFN's second 1x1 conv. Both modes compute

    y   = x + BN(SE(DW(x)))
    out = y + BN_ffn(FFN(y))        (BN_ffn already folded when merged)

and agree to ~1e-10 relative error in float64.

A block does not record its kind or width: a LarK and a SmaK block differ
only in their branches, and the width is the SE gate's. A downsample is a
tuple of (conv, BN) pairs, each run as conv -> BN -> GELU; the model keeps
one per stage in `downsamples`, the two-pair stem first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ShapeError, StateError
from .reparam import fuse_bn, merge_dilated_reparam, reparam_forward
from .tensor import (
    BnParams,
    ConvLayer,
    batchnorm_infer,
    conv2d,
    gelu,
    grn,
    linear,
)

@dataclass(frozen=True)
class SeBlock:
    """Channel gate: pool -> C/4 bottleneck -> sigmoid, reduction ratio 4 in every model, set by
    `ArchConfig`. Every entry must be finite: an infinite one would pin gates at 0 or 1."""

    reduce_weight: np.ndarray   # (C/4, C)
    reduce_bias: np.ndarray     # (C/4,)
    expand_weight: np.ndarray   # (C, C/4)
    expand_bias: np.ndarray     # (C,)

    def __post_init__(self):
        hidden, c = self.reduce_weight.shape
        if self.expand_weight.shape != (c, hidden):
            raise ShapeError(
                f"SE expand weight shape {self.expand_weight.shape} != ({c}, {hidden})"
            )
        if not all(np.isfinite(a).all() for a in (self.reduce_weight, self.reduce_bias,
                                                   self.expand_weight, self.expand_bias)):
            raise ConfigError("SE weights and biases must be finite")

    @property
    def channels(self) -> int:
        return self.reduce_weight.shape[1]


def se_forward(x: np.ndarray, se: SeBlock) -> np.ndarray:
    """Multiply x by its per-sample channel gate sigmoid(expand(relu(reduce(gap(x)))))."""
    pooled = x.mean(axis=(2, 3))                                       # (n, C)
    hidden = np.maximum(linear(pooled, se.reduce_weight, se.reduce_bias), 0)
    gate = expit(linear(hidden, se.expand_weight, se.expand_bias))
    return x * gate[:, :, None, None]


@dataclass(frozen=True)
class FfnBlock:
    """1x1 expand -> GELU -> GRN -> 1x1 project, expansion ratio 4 in every model, set by
    `ArchConfig`."""

    pw1: ConvLayer
    grn_gamma: np.ndarray
    grn_beta: np.ndarray
    pw2: ConvLayer

    def __post_init__(self):
        c = self.pw1.in_channels
        if self.pw2.out_channels != c:
            raise ShapeError(f"FFN pw2 maps to {self.pw2.out_channels} channels, expected {c}")
        for name, layer in (("pw1", self.pw1), ("pw2", self.pw2)):
            if layer.kernel_size != (1, 1):
                raise ConfigError(f"FFN {name} must be a 1x1 conv")


def ffn_forward(x: np.ndarray, ffn: FfnBlock) -> np.ndarray:
    h = gelu(conv2d(x, ffn.pw1))
    h = grn(h, ffn.grn_gamma, ffn.grn_beta)
    return conv2d(h, ffn.pw2)


@dataclass(frozen=True)
class BlockSpec:
    """One LarK or SmaK block with all parameters.

    Train structure: both kinds carry their depthwise branches, each a
    (conv, bn) pair checked by reparam_forward and merge_dilated_reparam; a
    SmaK block is the one-branch case, a single 3x3 conv->BN. Merged: both
    carry just dw_conv (with bias) and post_ffn_bn is None, already folded
    into ffn.pw2.
    """

    se: SeBlock
    post_dw_bn: BnParams
    ffn: FfnBlock
    branches: tuple[tuple[ConvLayer, BnParams], ...] | None = None
    dw_conv: ConvLayer | None = None
    post_ffn_bn: BnParams | None = None

    def __post_init__(self):
        if self.merged != (self.branches is None) or self.merged != (self.post_ffn_bn is None):
            raise StateError("a block carries either a fused dw_conv (merged) or its "
                             "branches and post-FFN BN (train structure)")

    @property
    def merged(self) -> bool:
        """A block is merged when its depthwise stage is one fused conv."""
        return self.dw_conv is not None

    @property
    def channels(self) -> int:
        return self.se.channels


def block_forward(x: np.ndarray, b: BlockSpec) -> np.ndarray:
    """y = x + BN(SE(DW(x))); out = y + BN(FFN(y)). Shape preserved."""
    dw = conv2d(x, b.dw_conv) if b.merged else reparam_forward(x, b.branches)
    # each residual add goes into the branch output this call just allocated
    y = batchnorm_infer(se_forward(dw, b.se), b.post_dw_bn)
    y += x
    f = ffn_forward(y, b.ffn)
    if b.post_ffn_bn is not None:
        f = batchnorm_infer(f, b.post_ffn_bn)
    f += y
    return f


def merge_block(b: BlockSpec) -> BlockSpec:
    """Deploy twin of a train-structure block; the input block is untouched."""
    if b.merged:
        raise StateError("block is already merged")
    fused_dw = merge_dilated_reparam(b.branches)
    ffn = replace(b.ffn, pw2=fuse_bn(b.ffn.pw2, b.post_ffn_bn))
    return BlockSpec(se=b.se, post_dw_bn=b.post_dw_bn, ffn=ffn, dw_conv=fused_dw)


def downsample_forward(x: np.ndarray, layers: tuple[tuple[ConvLayer, BnParams], ...]) -> np.ndarray:
    """Stem (two stride-2 3x3 convs) or transition (one): conv -> BN -> GELU per pair."""
    for conv, bn in layers:
        x = gelu(batchnorm_infer(conv2d(x, conv), bn))
    return x

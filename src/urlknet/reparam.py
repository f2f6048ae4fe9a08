"""Structural re-parameterization: collapse a multi-branch dilated block into one conv.

A dilated k-kernel at rate r covers a (k-1)*r+1 window, so it can be rewritten
as a non-dilated layer with a sparse larger kernel (zero insertion). A block of
parallel conv+BN branches — one principal KxK branch plus dilated small-kernel
branches — therefore merges into a single KxK layer: each branch's conv is
folded with its BN and added into its centred, r-strided window of the KxK kernel.

A block is described by its branches alone, each a (conv, bn) pair like a
downsample's: K is the principal's kernel and the channels and groups are the
convs'; stock_branches(K) gives the stock (k, r) list. A branch is checked
(see _checked) whenever its block is forwarded or merged.

All transformations here are pure and exact up to float rounding; the merged
layer reproduces the branch-sum forward to ~1e-10 relative error in float64.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import BnParams, ConvLayer, batchnorm_infer, conv2d


def equivalent_kernel_size(k: int, r: int) -> int:
    """Size of the non-dilated kernel equivalent to a k-kernel at dilation r."""
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    if k < 1 or r < 1:
        raise ConfigError(f"kernel size and dilation must be positive, got k={k}, r={r}")
    return (k - 1) * r + 1


def dilate_kernel(weight: np.ndarray, r: int) -> np.ndarray:
    """Expand a (c_out, c_in/g, kh, kw) kernel at dilation r to its non-dilated equivalent.

    Zero insertion: entry (i, j) lands at (i*r, j*r) of a ((kh-1)*r+1, (kw-1)*r+1)
    kernel and every other entry is exactly zero. r == 1 returns the weight.
    """
    if r < 1:
        raise ConfigError(f"dilation must be >= 1, got {r}")
    if r == 1:
        return weight
    c_out, cin_g, kh, kw = weight.shape
    out = np.zeros((c_out, cin_g, (kh - 1) * r + 1, (kw - 1) * r + 1), dtype=weight.dtype)
    out[..., ::r, ::r] = weight
    return out


def fuse_bn(conv: ConvLayer, bn: BnParams) -> ConvLayer:
    """Fold inference-mode BN statistics into the preceding conv layer.

    weight'[o] = weight[o] * scale_o and bias' = shift, with (scale, shift) =
    bn.affine(weight dtype, bias or 0); merge_dilated_reparam then adds each folded
    branch into its r-strided window of the merged kernel.
    """
    if bn.channels != conv.out_channels:
        raise ShapeError(f"BN has {bn.channels} channels but conv produces {conv.out_channels}")
    scale, shift = bn.affine(conv.weight.dtype, 0 if conv.bias is None else conv.bias)
    return replace(conv, weight=conv.weight.data * scale[:, None, None, None], bias=shift)


def stock_branches(K: int) -> tuple[tuple[int, int], ...]:
    """Stock (k, r) list of a KxK block: principal (K, 1) first, then k=(5,7,3,3,3), r=(1,2,3,4,5).

    The stock K=13 list has equivalent sizes (13, 5, 13, 7, 9, 11). Branches
    wider than a smaller K are dropped, so K=3 leaves the principal branch
    alone: the SmaK depthwise stage.
    """
    return ((K, 1), *((k, r) for k, r in ((5, 1), (7, 2), (3, 3), (3, 4), (3, 5))
                      if equivalent_kernel_size(k, r) <= K))


def _checked(branches: Sequence[tuple[ConvLayer, BnParams]]):
    """(branches principal first then in declared order, K, channels, groups) of one block.

    A branch is a (conv, bn) pair. Each conv needs a square kernel k (odd, as
    equivalent_kernel_size requires), one dilation rate r, stride 1 and
    padding (k-1)*r/2, so every branch preserves spatial size (fuse_bn and
    batchnorm_infer check its BN's width). The branches' own geometry is the
    block's spec: K is the principal's (largest) kernel size, every conv must
    map the same c channels to c with the same groups, K must be >= 3, no
    branch may be wider than K, and exactly one branch must be the (K, 1)
    principal. Every conv must also hold one weight dtype: mixed dtypes are a
    ShapeError, as in conv2d. Every other violation is a ConfigError.
    """
    spec = []
    for conv, _ in branches:
        (k, kw), (r, rw) = conv.kernel_size, conv.dilation
        if k != kw or r != rw:
            raise ConfigError(f"branch needs a square kernel and one dilation rate, "
                              f"got {k}x{kw} at rate {r}x{rw}")
        if conv.stride != (1, 1):
            raise ConfigError(f"branch stride must be 1, got {conv.stride}")
        half = (equivalent_kernel_size(k, r) - 1) // 2
        if conv.padding != (half, half):
            raise ConfigError(f"branch with k={k}, r={r} must use padding {half}, "
                              f"got {conv.padding}")
        spec.append((k, r))
    dtypes = {conv.weight.dtype for conv, _ in branches}
    if len(dtypes) != 1:
        raise ShapeError(f"branches must share one weight dtype, got {sorted(map(str, dtypes))}")
    groups = {conv.groups for conv, _ in branches}
    channels = {n for conv, _ in branches for n in (conv.in_channels, conv.out_channels)}
    if len(groups) != 1 or len(channels) != 1:
        raise ConfigError(f"branches must agree on channels and groups, got groups "
                          f"{sorted(groups)} and channels {sorted(channels)}")
    K = max(k for k, _ in spec)
    if K < 3:
        raise ConfigError(f"large kernel size must be >= 3, got {K}")
    for k, r in spec:
        if equivalent_kernel_size(k, r) > K:
            raise ConfigError(
                f"branch (k={k}, r={r}) has equivalent size {(k - 1) * r + 1} > K={K}"
            )
    principals = spec.count((K, 1))
    if principals != 1:
        raise ConfigError(
            f"expected exactly one principal (K={K}, r=1) branch, found {principals}"
        )
    p = spec.index((K, 1))
    ordered = (branches[p], *branches[:p], *branches[p + 1:])
    return ordered, K, channels.pop(), groups.pop()


def reparam_forward(x: np.ndarray, branches: Sequence[tuple[ConvLayer, BnParams]]) -> np.ndarray:
    """Training-structure forward: sum of conv->BN over all branches.

    Branches are summed principal-first, then in declared order, matching the
    summation order of merge_dilated_reparam bit for bit.
    """
    (conv, bn), *rest = _checked(branches)[0]
    out = batchnorm_infer(conv2d(x, conv), bn)
    for conv, bn in rest:
        out += batchnorm_infer(conv2d(x, conv), bn)  # out is this call's own buffer
    return out


def merge_dilated_reparam(branches: Sequence[tuple[ConvLayer, BnParams]]) -> ConvLayer:
    """Collapse a multi-branch block into one non-dilated KxK conv with bias.

    Per branch: the BN-folded kernel (fuse_bn) is added into its r-strided window
    kernel[:, :, s:K-s:r, s:K-s:r], s = K//2 - padding, where dilate_kernel and a
    centring pad would put it. Kernels and biases are summed principal-first, then
    in declared order, and reproduce the branch-sum forward for every input.
    """
    ordered, K, channels, groups = _checked(branches)
    dtype = branches[0][0].weight.dtype
    kernel = np.zeros((channels, channels // groups, K, K), dtype=dtype)
    bias = np.zeros(channels, dtype=dtype)
    for conv, bn in ordered:
        fused = fuse_bn(conv, bn)
        s, r = K // 2 - conv.padding[0], conv.dilation[0]
        kernel[:, :, s:K - s:r, s:K - s:r] += fused.weight.data
        bias += fused.bias
    return ConvLayer(kernel, bias, padding=K // 2, groups=groups)

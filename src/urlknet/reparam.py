"""Structural re-parameterization: collapse a multi-branch dilated block into one conv.

A dilated k-kernel at rate r covers a (k-1)*r+1 window, so it can be rewritten
as a non-dilated layer with a sparse larger kernel (zero insertion). A block of
parallel conv+BN branches — one principal KxK branch plus dilated small-kernel
branches — therefore merges into a single KxK layer: fold each BN into its
conv, expand each dilated kernel, zero-pad everything to KxK, and sum.

All transformations here are pure and exact up to float rounding; the merged
layer reproduces the branch-sum forward to ~1e-10 relative error in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import BnParams, ConvLayer, Tensor4, batchnorm_infer, conv2d


def equivalent_kernel_size(k: int, r: int) -> int:
    """Size of the non-dilated kernel equivalent to a k-kernel at dilation r."""
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    if k < 1 or r < 1:
        raise ConfigError(f"kernel size and dilation must be positive, got k={k}, r={r}")
    return (k - 1) * r + 1


def dilate_kernel(weight: Tensor4, r: int) -> Tensor4:
    """Expand a (c_out, c_in/g, k, k) kernel at dilation r to its non-dilated equivalent.

    Zero insertion: entry (i, j) lands at (i*r, j*r) of a ((k-1)*r+1)-sized
    kernel and every other entry is exactly zero. r == 1 returns the weight.
    """
    if r < 1:
        raise ConfigError(f"dilation must be >= 1, got {r}")
    if r == 1:
        return weight
    c_out, cin_g, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError(f"expected a square kernel, got shape {weight.shape}")
    out = np.zeros((c_out, cin_g, (kh - 1) * r + 1, (kh - 1) * r + 1), dtype=weight.dtype)
    out[..., ::r, ::r] = weight.data
    return Tensor4(out)


def fuse_bn(conv: ConvLayer, bn: BnParams) -> ConvLayer:
    """Fold inference-mode BN statistics into the preceding conv layer.

    weight'[o] = weight[o] * gamma_o / sqrt(var_o + eps)
    bias'_o    = beta_o + (bias_o - mean_o) * gamma_o / sqrt(var_o + eps)
    """
    if bn.channels != conv.out_channels:
        raise ShapeError(
            f"BN has {bn.channels} channels but conv produces {conv.out_channels}"
        )
    dtype = conv.weight.dtype
    scale = (bn.gamma / np.sqrt(bn.running_var + bn.eps)).astype(dtype, copy=False)
    bias0 = conv.bias if conv.bias is not None else np.zeros(conv.out_channels, dtype=dtype)
    return ConvLayer(
        weight=Tensor4(conv.weight.data * scale[:, None, None, None]),
        bias=(bn.beta.astype(dtype, copy=False) + (bias0 - bn.running_mean.astype(dtype, copy=False)) * scale),
        stride=conv.stride,
        padding=conv.padding,
        dilation=conv.dilation,
        groups=conv.groups,
    )


@dataclass(frozen=True)
class DilatedBranch:
    """One parallel conv+BN branch: square kernel k, isotropic dilation r.

    The stride must be 1 and the padding (k-1)*r/2 so every branch preserves
    spatial size, which forces k odd.
    """

    conv: ConvLayer
    bn: BnParams

    def __post_init__(self):
        kh, kw = self.conv.kernel_size
        rh, rw = self.conv.dilation
        if kh != kw:
            raise ConfigError(f"branch kernel must be square, got {kh}x{kw}")
        if rh != rw:
            raise ConfigError(f"branch dilation must be isotropic, got {rh}x{rw}")
        if self.conv.stride != (1, 1):
            raise ConfigError(f"branch stride must be 1, got {self.conv.stride}")
        if kh % 2 == 0:
            raise ConfigError(f"branch kernel size must be odd, got {kh}")
        expected = ((kh - 1) * rh) // 2
        if self.conv.padding != (expected, expected):
            raise ConfigError(
                f"branch with k={kh}, r={rh} must use padding {expected}, "
                f"got {self.conv.padding}"
            )
        if self.bn.channels != self.conv.out_channels:
            raise ShapeError(
                f"branch BN channels {self.bn.channels} != conv c_out {self.conv.out_channels}"
            )

    @property
    def k(self) -> int:
        return self.conv.kernel_size[0]

    @property
    def r(self) -> int:
        return self.conv.dilation[0]


@dataclass(frozen=True)
class DilatedReparamCfg:
    """Hyper-parameters of one block: large kernel K and the branch (k, r) list.

    The list must contain exactly one principal (K, 1) entry; every entry must
    satisfy (k-1)*r + 1 <= K. The stock configuration for K=13 pairs the
    principal branch with k=(5,7,3,3,3) at r=(1,2,3,4,5), whose equivalent
    kernel sizes are (5,13,7,9,11). It is the weight-free spec that layout,
    assembly and random init read; code holding branches derives it from them
    with from_branches.
    """

    kernel_size: int
    branches: tuple[tuple[int, int], ...]
    channels: int
    groups: int = 1

    def __post_init__(self):
        K = self.kernel_size
        if K % 2 == 0 or K < 3:
            raise ConfigError(f"large kernel size must be odd and >= 3, got {K}")
        object.__setattr__(self, "branches", tuple((int(k), int(r)) for k, r in self.branches))
        for k, r in self.branches:
            if equivalent_kernel_size(k, r) > K:
                raise ConfigError(
                    f"branch (k={k}, r={r}) has equivalent size {(k - 1) * r + 1} > K={K}"
                )
        principals = self.branches.count((K, 1))
        if principals != 1:
            raise ConfigError(
                f"expected exactly one principal (K={K}, r=1) branch, found {principals}"
            )
        if self.channels < 1 or self.groups < 1 or self.channels % self.groups:
            raise ConfigError(
                f"channels={self.channels} must be a positive multiple of groups={self.groups}"
            )

    @classmethod
    def from_branches(cls, branches: Sequence[DilatedBranch]) -> DilatedReparamCfg:
        """The spec a branch tuple describes, read from the branches' own geometry.

        K is the principal's (largest) kernel size; every conv must map the
        same c channels to c with the same groups.
        """
        groups = {b.conv.groups for b in branches}
        channels = {n for b in branches for n in (b.conv.in_channels, b.conv.out_channels)}
        if len(groups) != 1 or len(channels) != 1:
            raise ConfigError(f"branches must agree on channels and groups, got groups "
                              f"{sorted(groups)} and channels {sorted(channels)}")
        return cls(max(b.k for b in branches), tuple((b.k, b.r) for b in branches),
                   channels.pop(), groups.pop())

    def merge_order(self) -> tuple[int, ...]:
        """Branch indices with the principal branch first, then declared order."""
        p = self.branches.index((self.kernel_size, 1))
        return (p, *[i for i in range(len(self.branches)) if i != p])


def default_reparam_cfg(channels: int, kernel_size: int = 13) -> DilatedReparamCfg:
    """Stock depthwise block configuration: principal KxK plus k=(5,7,3,3,3), r=(1,2,3,4,5).

    Branches whose equivalent size would exceed a smaller K are dropped, so
    K=3 leaves the principal branch alone: the SmaK depthwise stage.
    """
    branches = [(kernel_size, 1)] + [
        (k, r) for k, r in ((5, 1), (7, 2), (3, 3), (3, 4), (3, 5))
        if equivalent_kernel_size(k, r) <= kernel_size and k <= kernel_size
    ]
    return DilatedReparamCfg(
        kernel_size=kernel_size,
        branches=tuple(branches),
        channels=channels,
        groups=channels,
    )


def reparam_forward(x: Tensor4, branches: Sequence[DilatedBranch]) -> Tensor4:
    """Training-structure forward: sum of conv->BN over all branches.

    Branches are summed principal-first, then in declared order, matching the
    summation order of merge_dilated_reparam bit for bit.
    """
    cfg = DilatedReparamCfg.from_branches(branches)
    out = None
    for i in cfg.merge_order():
        y = batchnorm_infer(conv2d(x, branches[i].conv), branches[i].bn)
        if out is None:
            out = y
        else:
            out.data += y.data  # out is this call's own buffer
    return out


def merge_dilated_reparam(branches: Sequence[DilatedBranch]) -> ConvLayer:
    """Collapse a multi-branch block into one non-dilated KxK conv with bias.

    Per branch: fold its BN, expand the kernel by zero insertion, then pad
    symmetrically by (K - equivalent_size)/2 per side. Kernels and biases are
    summed principal-first, then in declared order. The result reproduces the
    branch-sum forward for every input.
    """
    cfg = DilatedReparamCfg.from_branches(branches)
    K = cfg.kernel_size
    dtype = branches[0].conv.weight.dtype
    kernel = np.zeros((cfg.channels, cfg.channels // cfg.groups, K, K), dtype=dtype)
    bias = np.zeros(cfg.channels, dtype=dtype)
    for i in cfg.merge_order():
        fused = fuse_bn(branches[i].conv, branches[i].bn)
        expanded = dilate_kernel(fused.weight, branches[i].r)
        pad = (K - expanded.shape[2]) // 2
        kernel[:, :, pad:K - pad, pad:K - pad] += expanded.data
        bias += fused.bias
    return ConvLayer(
        weight=Tensor4(kernel),
        bias=bias,
        stride=(1, 1),
        padding=(K // 2, K // 2),
        dilation=(1, 1),
        groups=cfg.groups,
    )


def random_branches(cfg: DilatedReparamCfg, rng: np.random.Generator) -> tuple[DilatedBranch, ...]:
    """Random float64 weights (scale 0.5) and BN statistics (var in [0.1, 2)) for one block."""
    out = []
    cin_g = cfg.channels // cfg.groups
    for k, r in cfg.branches:
        conv = ConvLayer(Tensor4(rng.standard_normal((cfg.channels, cin_g, k, k)) * 0.5),
                         padding=((k - 1) * r // 2,) * 2, dilation=(r, r), groups=cfg.groups)
        bn = BnParams(
            gamma=rng.standard_normal(cfg.channels),
            beta=rng.standard_normal(cfg.channels),
            running_mean=rng.standard_normal(cfg.channels),
            running_var=rng.uniform(0.1, 2.0, cfg.channels),
        )
        out.append(DilatedBranch(conv=conv, bn=bn))
    return tuple(out)

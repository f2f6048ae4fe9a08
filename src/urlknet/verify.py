"""Merge-equivalence verification: block-level, model-level, and ad-hoc scenarios.

The error metric is the L1-relative discrepancy sum(|a - b|) / sum(|b|)
against the multi-branch (train-structure) forward as reference. In float64 a
correct merge lands around 1e-13; float32 runs sit near 1e-7.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import ModelInstance, forward, merge_for_deploy
from .reparam import (
    dilate_kernel,
    equivalent_kernel_size,
    merge_dilated_reparam,
    random_branches,
    reparam_forward,
)
from .blocks import block_forward
from .tensor import BnParams, ConvLayer, Tensor4, conv2d

# side of the random (2, c, 19, 19) inputs of the block-level checks
_SPATIAL = 19


def relative_error(actual: np.ndarray, reference: np.ndarray) -> float:
    """sum(|actual - reference|) / sum(|reference|)."""
    denom = np.abs(reference).sum()
    if denom == 0:
        return float(np.abs(actual).sum())
    return float(np.abs(actual - reference).sum() / denom)


def require_trials(trials: int) -> None:
    """Raise ConfigError unless trials >= 1; a check run zero times would pass unchecked."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")


def _worst(trials: int, trial) -> float:
    """Max of trial() over trials calls; a NaN error is kept, so it fails any tolerance."""
    require_trials(trials)
    return float(np.max([trial() for _ in range(trials)]))


def verify_reparam_merge(branches, rng: np.random.Generator, trials: int) -> float:
    """Max relative error between merged-layer and branch-sum forwards, in the branches' dtype."""
    merged = merge_dilated_reparam(branches)

    def trial():
        x = rng.standard_normal((2, merged.in_channels, _SPATIAL, _SPATIAL)).astype(merged.weight.dtype)
        return relative_error(conv2d(x, merged), reparam_forward(x, branches))

    return _worst(trials, trial)


def verify_model(model: ModelInstance, rng: np.random.Generator,
                 trials: int) -> list[tuple[str, float]]:
    """Block-by-block and whole-model merge equivalence checks.

    Every block of the train-structure model is compared against its merged
    twin on random 19x19 inputs, then the full forwards are compared at
    resolution 64. Returns a (name, max_rel_err) pair per block plus a final
    ("model", max_rel_err).
    """
    require_trials(trials)  # before the merge, which is the costly part for large models
    merged = merge_for_deploy(model)

    def block_trial(b, mb):
        x = rng.standard_normal((2, b.channels, _SPATIAL, _SPATIAL)).astype(model.dtype)
        return relative_error(block_forward(x, mb), block_forward(x, b))

    def model_trial():
        x = Tensor4(rng.standard_normal(
            (1, model.config.in_channels, 64, 64)).astype(model.dtype))
        return relative_error(forward(merged, x), forward(model, x))

    checks = []
    for s, (stage, mstage) in enumerate(zip(model.stages, merged.stages), start=1):
        for i, (b, mb) in enumerate(zip(stage, mstage)):
            checks.append((f"stage{s}.block{i}", _worst(trials, lambda: block_trial(b, mb))))
    checks.append(("model", _worst(trials, model_trial)))
    return checks


def adhoc_scenario(
    in_channels: int,
    out_channels: int,
    groups: int,
    large_kernel: int,
    small_k: int,
    small_r: int,
    rng: np.random.Generator,
    trials: int,
    dtype=np.float64,
) -> float:
    """Two-layer scenario: a KxK conv plus one dilated small conv, merged.

    Mirrors the classic hand check — both layers bias-free, no BN, random
    weights, random (2, c_in, 19, 19) inputs — and returns the max relative
    error of the single merged kernel against the two-layer sum. K and k
    must be odd and positive, r positive, and (k-1)*r+1 <= K.
    """
    if min(in_channels, out_channels, groups) < 1 or in_channels % groups or out_channels % groups:
        raise ConfigError(f"channels in={in_channels}/out={out_channels} must be positive "
                          f"multiples of groups={groups} >= 1")
    equivalent_kernel_size(large_kernel, 1)  # raises ConfigError unless K is odd and positive
    eq = equivalent_kernel_size(small_k, small_r)
    if eq > large_kernel:
        raise ConfigError(f"(k-1)*r+1 = {eq} exceeds K={large_kernel}")
    cin_g = in_channels // groups

    def trial():
        wl = rng.standard_normal((out_channels, cin_g, large_kernel, large_kernel)).astype(dtype)
        ws = rng.standard_normal((out_channels, cin_g, small_k, small_k)).astype(dtype)
        large = ConvLayer(Tensor4(wl), padding=(large_kernel // 2,) * 2, groups=groups)
        dilated = ConvLayer(Tensor4(ws), padding=(eq // 2,) * 2,
                            dilation=(small_r, small_r), groups=groups)
        x = rng.standard_normal((2, in_channels, _SPATIAL, _SPATIAL)).astype(dtype)
        reference = conv2d(x, large) + conv2d(x, dilated)
        pad = large_kernel // 2 - eq // 2
        merged_w = wl.copy()
        merged_w[:, :, pad:large_kernel - pad, pad:large_kernel - pad] += dilate_kernel(ws, small_r)
        merged = ConvLayer(Tensor4(merged_w), padding=(large_kernel // 2,) * 2, groups=groups)
        return relative_error(conv2d(x, merged), reference)

    return _worst(trials, trial)


def random_sweep_branches(rng: np.random.Generator) -> tuple[tuple[ConvLayer, BnParams], ...]:
    """One random block for the merge-equivalence sweep: its geometry, then its weights.

    K in {9, 11, 13, 15}; 1-6 branches; depthwise, grouped, or dense.
    """
    K = int(rng.choice([9, 11, 13, 15]))
    channels = int(rng.choice([4, 8]))
    groups = int(rng.choice([channels, 2, 1]))  # depthwise / grouped / dense
    n_extra = int(rng.integers(0, 6))           # plus the principal branch
    spec = [(K, 1)]
    for _ in range(n_extra):
        k = int(rng.choice([3, 5, 7]))
        max_r = (K - 1) // (k - 1)
        r = int(rng.integers(1, max_r + 1))
        spec.append((k, r))
    return random_branches(spec, channels, groups, rng)


def merge_equivalence_sweep(n_configs: int, rng: np.random.Generator) -> float:
    """Max relative error over a float64 randomized sweep, one trial per block configuration."""
    return _worst(n_configs, lambda: verify_reparam_merge(random_sweep_branches(rng), rng, 1))

"""Merge-equivalence verification: block-level, model-level, and ad-hoc scenarios.

The error metric is the L1-relative discrepancy sum(|a - b|) / sum(|b|)
against the multi-branch (train-structure) forward as reference. In float64 a
correct merge lands around 1e-13; float32 runs sit near 1e-7.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import ModelInstance, forward, merge_for_deploy
from .reparam import dilate_kernel, equivalent_kernel_size
from .blocks import block_forward
from .tensor import ConvLayer, Tensor4, conv2d

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

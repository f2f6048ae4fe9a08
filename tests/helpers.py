"""Test-side builders and checks: random branch sets, the merge-equivalence sweep,
a count of the scalars a model instance carries, a one-block-per-stage config and
BN statistics calibrated on data.

None of these is reached by `urlk` or a forward. They draw from the caller's
Generator in a fixed order, so a seeded sweep gives the same number every run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from urlknet import blocks, model as model_module, reparam
from urlknet.model import _BUFFERS, ArchConfig, ModelInstance, _assemble, _tensors, forward
from urlknet.reparam import merge_dilated_reparam, reparam_forward
from urlknet.tensor import BnParams, ConvLayer, batchnorm_infer, conv2d
from urlknet.verify import _SPATIAL, _worst, relative_error

# one block per stage: every block kind and transition, built and run in well under a second
TOY = ArchConfig(depths=(1, 1, 1, 1), width=8, stage3_lark=1, num_classes=10)


def random_branches(spec: Sequence[tuple[int, int]], channels: int, groups: int,
                    rng: np.random.Generator) -> tuple[tuple[ConvLayer, BnParams], ...]:
    """One branch per (k, r): random float64 weights (scale 0.5) and BN stats (var in [0.1, 2))."""
    out = []
    cin_g = channels // groups
    for k, r in spec:
        conv = ConvLayer(rng.standard_normal((channels, cin_g, k, k)) * 0.5,
                         padding=((k - 1) * r // 2,) * 2, dilation=(r, r), groups=groups)
        bn = BnParams(
            gamma=rng.standard_normal(channels),
            beta=rng.standard_normal(channels),
            running_mean=rng.standard_normal(channels),
            running_var=rng.uniform(0.1, 2.0, channels),
        )
        out.append((conv, bn))
    return tuple(out)


def verify_reparam_merge(branches, rng: np.random.Generator, trials: int) -> float:
    """Max relative error between merged-layer and branch-sum forwards, in the branches' dtype."""
    merged = merge_dilated_reparam(branches)

    def trial():
        x = rng.standard_normal((2, merged.in_channels, _SPATIAL, _SPATIAL)).astype(merged.weight.dtype)
        return relative_error(conv2d(x, merged), reparam_forward(x, branches))

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


def learnable_scalars(model: ModelInstance) -> int:
    """Parameters actually carried by this instance in its current mode.

    Counts conv/linear weights and biases plus BN and GRN affine pairs; BN
    running statistics are excluded. For a merged model this equals
    param_count(model).
    """
    return sum(arr.size for _, init, arr in _tensors(model) if init not in _BUFFERS)


def calibrate_bn(model: ModelInstance, x: np.ndarray, rng: np.random.Generator) -> ModelInstance:
    """A copy of a train-structure model whose BNs carry trained-looking statistics.

    One forward of x visits every BN in forward order, which is also their
    layout order. Each gets gamma ~ 1 + 0.5*N(0,1) and beta ~ 0.1*N(0,1), and
    its running mean and variance become the per-channel statistics of its
    actual input, so each later BN sees the calibrated output of the ones
    before it. The forward finds `batchnorm_infer` through module attributes,
    which are swapped for the walk as perfbench's tracer swaps them.
    """
    drawn = []

    def calibrating(inp: np.ndarray, bn: BnParams) -> np.ndarray:
        c = bn.channels
        drawn.append(BnParams(1 + 0.5 * rng.standard_normal(c), 0.1 * rng.standard_normal(c),
                              inp.mean(axis=(0, 2, 3)), inp.var(axis=(0, 2, 3)), eps=bn.eps))
        return batchnorm_infer(inp, drawn[-1])

    modules = (blocks, reparam, model_module)
    for mod in modules:
        mod.batchnorm_infer = calibrating
    try:
        forward(model, x)
    finally:
        for mod in modules:
            mod.batchnorm_infer = batchnorm_infer
    # a BN's gamma is the only tensor laid out with init "ones"
    prefixes = [name[:-len(".gamma")] for name, init, _ in _tensors(model) if init == "ones"]
    new = {f"{prefix}.{field}": getattr(bn, field)
           for prefix, bn in zip(prefixes, drawn, strict=True)
           for field in ("gamma", "beta", "running_mean", "running_var")}
    arrays = [new.get(name, arr) for name, _, arr in _tensors(model)]
    return _assemble(model.config, model.merged, arrays)

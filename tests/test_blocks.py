from dataclasses import replace

import numpy as np
import pytest

from urlknet import (
    BlockSpec,
    BnParams,
    ConfigError,
    ConvLayer,
    FfnBlock,
    SeBlock,
    ShapeError,
    StateError,
    batchnorm_infer,
    block_forward,
    build_model,
    conv2d,
    downsample_forward,
    ffn_forward,
    fuse_bn,
    gelu,
    grn,
    merge_block,
    merge_for_deploy,
    se_forward,
)
from urlknet.reparam import stock_branches
from urlknet.verify import relative_error
from helpers import TOY, random_branches
from oracles import se_naive


def make_se(rng, c):
    return SeBlock(
        reduce_weight=rng.standard_normal((c // 4, c)),
        reduce_bias=rng.standard_normal(c // 4),
        expand_weight=rng.standard_normal((c, c // 4)),
        expand_bias=rng.standard_normal(c),
    )


def make_ffn(rng, c, scale=0.2):
    return FfnBlock(
        pw1=ConvLayer(rng.standard_normal((4 * c, c, 1, 1)) * scale,
                      bias=rng.standard_normal(4 * c) * scale),
        grn_gamma=rng.standard_normal(4 * c) * scale,
        grn_beta=rng.standard_normal(4 * c) * scale,
        pw2=ConvLayer(rng.standard_normal((c, 4 * c, 1, 1)) * scale,
                      bias=rng.standard_normal(c) * scale),
    )


def identity_bn(c):
    """BN statistics that leave the input (almost) unchanged: gamma=1, beta=0, mean=0, var=1."""
    return BnParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))


def random_bn(rng, c):
    return BnParams(rng.standard_normal(c), rng.standard_normal(c),
                    rng.standard_normal(c), rng.uniform(0.1, 2.0, c), eps=1e-5)


def make_lark_block(rng, c, K=13):
    return BlockSpec(
        se=make_se(rng, c), post_dw_bn=random_bn(rng, c),
        ffn=make_ffn(rng, c), branches=random_branches(stock_branches(K), c, c, rng),
        post_ffn_bn=random_bn(rng, c),
    )


def make_smak_block(rng, c):
    # a SmaK block is the one-branch reparam case: a single 3x3 conv->BN
    return make_lark_block(rng, c, K=3)


class TestSeBlock:
    def test_zero_weights_halve_input(self, rng):
        c = 8
        se = SeBlock(np.zeros((2, 8)), np.zeros(2), np.zeros((8, 2)), np.zeros(8))
        x = rng.standard_normal((2, c, 3, 3))
        np.testing.assert_allclose(se_forward(x, se), 0.5 * x, rtol=1e-15)

    def test_quarter_reduction_enforced(self):
        with pytest.raises(ConfigError):
            SeBlock(np.zeros((3, 8)), np.zeros(3), np.zeros((8, 3)), np.zeros(8))

    def test_hidden_width(self, rng):
        se = make_se(rng, 8)
        assert se.reduce_weight.shape == (2, 8)

    def test_matches_scalar_oracle(self, rng):
        c = 8
        se = make_se(rng, c)
        x = rng.standard_normal((2, c, 4, 4))
        want = se_naive(x, se.reduce_weight, se.reduce_bias, se.expand_weight, se.expand_bias)
        np.testing.assert_allclose(se_forward(x, se), want,
                                   rtol=1e-12, atol=1e-12)

    def test_gate_strictly_inside_unit_interval(self, rng):
        c = 8
        se = make_se(rng, c)
        x = np.abs(rng.standard_normal((3, c, 5, 5))) + 0.5
        gate = se_forward(x, se) / x
        assert np.all(gate > 0.0) and np.all(gate < 1.0)


class TestFfnBlock:
    def test_zero_projection_gives_zero(self, rng):
        c = 4
        ffn = make_ffn(rng, c)
        zeroed = FfnBlock(
            pw1=ffn.pw1, grn_gamma=ffn.grn_gamma, grn_beta=ffn.grn_beta,
            pw2=ConvLayer(np.zeros((c, 4 * c, 1, 1)), bias=np.zeros(c)),
        )
        x = rng.standard_normal((1, c, 3, 3))
        np.testing.assert_array_equal(ffn_forward(x, zeroed), np.zeros((1, c, 3, 3)))

    def test_expansion_ratio(self, rng):
        ffn = make_ffn(rng, 4)
        assert ffn.pw1.out_channels == 16
        with pytest.raises(ConfigError):
            FfnBlock(
                pw1=ConvLayer(np.zeros((8, 4, 1, 1)), bias=np.zeros(8)),
                grn_gamma=np.zeros(8), grn_beta=np.zeros(8),
                pw2=ConvLayer(np.zeros((4, 8, 1, 1)), bias=np.zeros(4)),
            )

    def test_matches_composition_of_primitives(self, rng):
        c = 4
        ffn = make_ffn(rng, c)
        x = rng.standard_normal((2, c, 5, 5))
        manual = conv2d(grn(gelu(conv2d(x, ffn.pw1)), ffn.grn_gamma, ffn.grn_beta), ffn.pw2)
        np.testing.assert_allclose(ffn_forward(x, ffn), manual, rtol=1e-12)


class TestBlockForward:
    def test_identity_preserving_zero_config(self, rng):
        # zero DW weights, zero post-DW BN affine, zero FFN projection and zero
        # post-FFN affine leave only the residual paths
        c = 4
        zero_affine = BnParams(np.zeros(c), np.zeros(c), np.zeros(c), np.ones(c))
        branches = tuple(
            (replace(conv, weight=np.zeros_like(conv.weight)), identity_bn(c))
            for conv, _ in random_branches(stock_branches(13), c, c, rng)
        )
        block = BlockSpec(
            se=make_se(rng, c), post_dw_bn=zero_affine,
            ffn=make_ffn(rng, c), branches=branches,
            post_ffn_bn=zero_affine,
        )
        x = rng.standard_normal((2, c, 6, 6))
        np.testing.assert_allclose(block_forward(x, block), x, rtol=1e-12)

    @pytest.mark.parametrize("maker", [make_lark_block, make_smak_block])
    def test_train_vs_merged_equivalence(self, rng, maker):
        c = 8
        block = maker(rng, c)
        merged = merge_block(block)
        x = rng.standard_normal((2, c, 19, 19))
        err = relative_error(block_forward(x, merged), block_forward(x, block))
        assert err <= 1e-10

    def test_smak_train_forward_is_conv_then_bn(self, rng):
        c = 8
        block = make_smak_block(rng, c)
        ((conv, bn),) = block.branches
        assert (conv.kernel_size, conv.dilation) == ((3, 3), (1, 1))
        x = rng.standard_normal((2, c, 9, 9))
        dw = batchnorm_infer(conv2d(x, conv), bn)
        y = x + batchnorm_infer(se_forward(dw, block.se), block.post_dw_bn)
        want = y + batchnorm_infer(ffn_forward(y, block.ffn), block.post_ffn_bn)
        np.testing.assert_array_equal(block_forward(x, block), want)

    def test_smak_merge_is_fuse_bn(self, rng):
        block = make_smak_block(rng, 8)
        ((conv, bn),) = block.branches
        want = fuse_bn(conv, bn)
        got = merge_block(block).dw_conv
        np.testing.assert_array_equal(np.asarray(got.weight), np.asarray(want.weight))
        np.testing.assert_array_equal(got.bias, want.bias)
        assert (got.padding, got.dilation, got.groups) == (want.padding, want.dilation, want.groups)

    def test_spatial_size_preserved(self, rng):
        block = make_lark_block(rng, 4, K=13)
        x = rng.standard_normal((1, 4, 19, 19))
        assert block_forward(x, block).shape == (1, 4, 19, 19)

    def test_zero_branches_give_constant_map(self, rng):
        c = 4
        branches = tuple(
            (replace(conv, weight=np.zeros_like(conv.weight)), bn)
            for conv, bn in random_branches(stock_branches(13), c, c, rng)
        )
        from urlknet import merge_dilated_reparam, reparam_forward
        x1 = rng.standard_normal((1, c, 7, 7))
        x2 = rng.standard_normal((1, c, 7, 7))
        y1 = reparam_forward(x1, branches)
        y2 = reparam_forward(x2, branches)
        np.testing.assert_allclose(y1, y2, rtol=1e-12)          # constant in the input
        merged = merge_dilated_reparam(branches)
        assert np.all(np.asarray(merged.weight) == 0)
        np.testing.assert_allclose(conv2d(x1, merged), y1, rtol=1e-10, atol=1e-12)

    def test_double_merge_rejected(self, rng):
        block = make_smak_block(rng, 4)
        merged = merge_block(block)
        with pytest.raises(StateError):
            merge_block(merged)

    def test_merged_flag_requires_fused_conv(self, rng):
        # merged-ness is read from dw_conv, never stored
        block = make_smak_block(rng, 4)
        merged = merge_block(block)
        assert merged.merged and not block.merged
        with pytest.raises(AttributeError):
            merged.merged = False
        with pytest.raises(StateError):
            replace(merged, dw_conv=None)               # no depthwise stage at all
        with pytest.raises(StateError):
            replace(merged, branches=block.branches)    # fused conv and branches


@pytest.mark.parametrize("merged", [False, True], ids=["train", "merged"])
@pytest.mark.parametrize("fn,part", [
    (block_forward, lambda b: b), (se_forward, lambda b: b.se), (ffn_forward, lambda b: b.ffn),
], ids=["block", "se", "ffn"])
def test_wrong_channel_count_is_left_to_the_first_op(merged, fn, part):
    # a block function checks no channel count itself: the first op it calls does
    model = build_model(TOY, seed=0)
    block = (merge_for_deploy(model) if merged else model).stages[2][0]
    x = np.zeros((2, block.channels + 1, 8, 8))
    with pytest.raises(ShapeError):
        fn(x, part(block))


def _widened(v):
    return np.zeros(v.shape[0] + 1, dtype=v.dtype)


# each edit gives a block one vector or kernel whose width only the op that reads it checks
WRONG_WIDTH = {
    "se-reduce-bias": lambda b: replace(b, se=replace(b.se, reduce_bias=_widened(b.se.reduce_bias))),
    "se-expand-bias": lambda b: replace(b, se=replace(b.se, expand_bias=_widened(b.se.expand_bias))),
    "grn-gamma": lambda b: replace(b, ffn=replace(b.ffn, grn_gamma=_widened(b.ffn.grn_gamma))),
    "grn-beta": lambda b: replace(b, ffn=replace(b.ffn, grn_beta=_widened(b.ffn.grn_beta))),
    "pw2-in": lambda b: replace(b, ffn=replace(b.ffn, pw2=ConvLayer(
        np.zeros((b.channels, 2 * b.channels, 1, 1)), bias=np.zeros(b.channels)))),
    "branch-bn": lambda b: replace(b, branches=(
        b.branches[0], (b.branches[1][0], random_bn(np.random.default_rng(0), b.channels + 1)),
        *b.branches[2:])),
}


@pytest.mark.parametrize("case", WRONG_WIDTH)
def test_wrong_width_constructs_and_the_op_rejects_it(case):
    # linear, grn, conv2d, fuse_bn and batchnorm_infer each check the width they read,
    # so the block constructs and its forward (or, for a branch BN, its merge) raises
    bad = WRONG_WIDTH[case](build_model(TOY, seed=0).stages[1][0])
    x = np.zeros((1, bad.channels, 4, 4))
    with pytest.raises(ShapeError):
        block_forward(x, bad)
    if case == "branch-bn":
        with pytest.raises(ShapeError, match="BN has"):
            merge_block(bad)
    else:
        with pytest.raises(ShapeError):
            block_forward(x, merge_block(bad))


class TestDownsample:
    def _stem(self, rng, cin, c):
        return (
            (ConvLayer(rng.standard_normal((c // 2, cin, 3, 3)) * 0.1,
                       stride=(2, 2), padding=(1, 1)), identity_bn(c // 2)),
            (ConvLayer(rng.standard_normal((c, c // 2, 3, 3)) * 0.1,
                       stride=(2, 2), padding=(1, 1)), identity_bn(c)),
        )

    def test_stem_geometry_224(self, rng):
        stem = self._stem(rng, 3, 96)
        out = downsample_forward(rng.standard_normal((1, 3, 224, 224)), stem)
        assert out.shape == (1, 96, 56, 56)

    def test_transition_doubles_channels(self, rng):
        tr = ((ConvLayer(rng.standard_normal((192, 96, 3, 3)) * 0.1,
                         stride=(2, 2), padding=(1, 1)), identity_bn(192)),)
        out = downsample_forward(rng.standard_normal((1, 96, 56, 56)), tr)
        assert out.shape == (1, 192, 28, 28)

    def test_stem_on_audio_map(self, rng):
        stem = self._stem(rng, 1, 40)
        out = downsample_forward(rng.standard_normal((1, 1, 128, 64)), stem)
        assert out.shape == (1, 40, 32, 16)

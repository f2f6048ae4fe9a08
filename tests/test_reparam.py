from dataclasses import replace

import numpy as np
import pytest

from urlknet import (
    BnParams,
    ConfigError,
    ConvLayer,
    ShapeError,
    batchnorm_infer,
    conv2d,
    dilate_kernel,
    equivalent_kernel_size,
    fuse_bn,
    merge_dilated_reparam,
    reparam_forward,
    stock_branches,
)
from urlknet.verify import relative_error
from helpers import random_branches, verify_reparam_merge
from oracles import conv2d_naive


def test_equivalent_kernel_size_k3_r3():
    assert equivalent_kernel_size(3, 3) == 7


@pytest.mark.parametrize("k", [1, 3, 5, 7, 13])
def test_no_dilation_keeps_size(k):
    assert equivalent_kernel_size(k, 1) == k


def test_default_config_equivalent_sizes():
    pairs = [(5, 1), (7, 2), (3, 3), (3, 4), (3, 5)]
    assert tuple(equivalent_kernel_size(k, r) for k, r in pairs) == (5, 13, 7, 9, 11)


def test_stock_branches():
    assert stock_branches(13) == ((13, 1), (5, 1), (7, 2), (3, 3), (3, 4), (3, 5))
    assert stock_branches(9) == ((9, 1), (5, 1), (3, 3), (3, 4))
    assert stock_branches(3) == ((3, 1),)


def test_even_kernel_rejected():
    with pytest.raises(ConfigError):
        equivalent_kernel_size(4, 2)


class TestDilateKernel:
    def test_rate_one_unchanged(self, rng):
        w = rng.standard_normal((3, 2, 3, 3))
        assert dilate_kernel(w, 1) is w

    def test_depthwise_pattern(self, rng):
        w = rng.standard_normal((8, 1, 3, 3))
        out = dilate_kernel(w, 2)
        assert out.shape == (8, 1, 5, 5)
        np.testing.assert_array_equal(out[:, :, ::2, ::2], w)
        assert np.count_nonzero(out) == np.count_nonzero(w)

    def test_sparsity_per_slice(self, rng):
        w = rng.standard_normal((4, 3, 5, 5))
        out = dilate_kernel(w, 3)
        np.testing.assert_array_equal(out[:, :, ::3, ::3], w)
        for oc in range(4):
            for ic in range(3):
                assert np.count_nonzero(out[oc, ic]) == np.count_nonzero(w[oc, ic])
                assert out[oc, ic].shape == (13, 13)

    def test_dense_forward_equivalence(self, rng):
        # expanded kernel at r=1 must replay the dilated layer
        x = rng.standard_normal((2, 4, 19, 19))
        w = rng.standard_normal((4, 4, 3, 3))
        dil = ConvLayer(w, padding=(3, 3), dilation=(3, 3))
        wide = ConvLayer(dilate_kernel(w, 3), padding=(3, 3))
        np.testing.assert_allclose(
            conv2d(x, wide), conv2d(x, dil),
            rtol=1e-12, atol=1e-12,
        )

    @pytest.mark.parametrize("k,r,groups,cin", [(3, 2, 1, 2), (3, 3, 2, 4), (5, 2, 4, 4), (7, 2, 1, 1)])
    def test_dilation_equivalence_property(self, rng, k, r, groups, cin):
        # the core rewrite rule: conv at dilation r == conv at r=1 with zero-inserted kernel
        cout = cin
        x = rng.standard_normal((2, cin, 21, 21))
        w = rng.standard_normal((cout, cin // groups, k, k))
        pad = ((k - 1) * r) // 2
        dil = conv2d(x, ConvLayer(w, padding=(pad, pad), dilation=(r, r), groups=groups))
        wide = dilate_kernel(w, r)
        plain = conv2d(x, ConvLayer(wide, padding=(pad, pad), groups=groups))
        np.testing.assert_allclose(plain, dil, rtol=1e-12, atol=1e-12)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            dilate_kernel(np.zeros((1, 1, 3, 3)), 0)

    def test_rectangular_kernel_matches_naive_dilated_conv(self, rng):
        # a 3x5 kernel at r=2 expands to 5x9 and replays the dilated conv
        x = rng.standard_normal((2, 2, 11, 13))
        w = rng.standard_normal((3, 2, 3, 5))
        wide = dilate_kernel(w, 2)
        assert wide.shape == (3, 2, 5, 9)
        want = conv2d_naive(x, w, padding=(2, 4), dilation=(2, 2))
        got = conv2d(x, ConvLayer(wide, padding=(2, 4)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestFuseBn:
    def test_identity_statistics_keep_layer(self, rng):
        conv = ConvLayer(rng.standard_normal((3, 3, 3, 3)), padding=(1, 1))
        bn = BnParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-15)
        fused = fuse_bn(conv, bn)
        np.testing.assert_allclose(np.asarray(fused.weight), np.asarray(conv.weight), rtol=1e-12)
        np.testing.assert_allclose(fused.bias, np.zeros(3), atol=1e-12)

    def test_closed_form_scalar_case(self):
        conv = ConvLayer(np.ones((1, 1, 1, 1)), bias=np.zeros(1))
        bn = BnParams(np.array([2.0]), np.array([0.0]), np.array([4.0]),
                      np.array([3.0]), eps=1.0)
        fused = fuse_bn(conv, bn)
        assert np.asarray(fused.weight).item() == 1.0
        assert fused.bias.item() == -4.0

    def test_composed_forward_equivalence(self, rng):
        x = rng.standard_normal((2, 5, 9, 9))
        conv = ConvLayer(rng.standard_normal((4, 5, 3, 3)),
                         bias=rng.standard_normal(4), padding=(1, 1))
        bn = BnParams(rng.standard_normal(4), rng.standard_normal(4),
                      rng.standard_normal(4), rng.uniform(0.1, 2.0, 4), eps=1e-5)
        composed = batchnorm_infer(conv2d(x, conv), bn)
        np.testing.assert_allclose(conv2d(x, fuse_bn(conv, bn)), composed,
                                   rtol=1e-12, atol=1e-12)

    def test_idempotent_under_identity_stats(self, rng):
        conv = ConvLayer(rng.standard_normal((2, 2, 3, 3)), bias=rng.standard_normal(2))
        identity = BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), eps=1e-15)
        once = fuse_bn(conv, identity)
        twice = fuse_bn(once, identity)
        np.testing.assert_allclose(np.asarray(twice.weight), np.asarray(once.weight), rtol=1e-12)
        np.testing.assert_allclose(twice.bias, once.bias, rtol=1e-12, atol=1e-15)

    def test_linear_in_gamma(self, rng):
        conv = ConvLayer(rng.standard_normal((3, 2, 3, 3)))
        gamma = rng.standard_normal(3)
        rest = dict(beta=np.zeros(3), running_mean=rng.standard_normal(3),
                    running_var=rng.uniform(0.5, 1.5, 3), eps=1e-5)
        f1 = fuse_bn(conv, BnParams(gamma=gamma, **rest))
        f2 = fuse_bn(conv, BnParams(gamma=2 * gamma, **rest))
        np.testing.assert_allclose(np.asarray(f2.weight), 2 * np.asarray(f1.weight), rtol=1e-12)
        np.testing.assert_allclose(f2.bias, 2 * f1.bias, rtol=1e-12)

    def test_channel_mismatch(self):
        conv = ConvLayer(np.zeros((3, 1, 1, 1)))
        bn = BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(Exception):
            fuse_bn(conv, bn)


def one_branch(rng, k, r, c=2, groups=2):
    conv = ConvLayer(rng.standard_normal((c, c // groups, k, k)),
                     padding=((k - 1) * r // 2,) * 2, dilation=(r, r), groups=groups)
    return conv, BnParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))


def assert_block_rejected(rng, branches, exc, match):
    """The branches raise exc (message matching match) when merged and when forwarded."""
    with pytest.raises(exc, match=match):
        merge_dilated_reparam(branches)
    with pytest.raises(exc, match=match):
        reparam_forward(rng.standard_normal((1, 2, 9, 9)), branches)


class TestMerge:
    def test_single_principal_branch_keeps_kernel(self, rng):
        w = rng.standard_normal((3, 1, 5, 5))
        branch = (ConvLayer(w, padding=(2, 2), groups=3),
                  BnParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-15))
        merged = merge_dilated_reparam([branch])
        np.testing.assert_allclose(np.asarray(merged.weight), w, rtol=1e-12)
        assert merged.padding == (2, 2)

    def test_k9_figure_config_merges_to_9x9(self, rng):
        branches = random_branches(((9, 1), (5, 1), (3, 2), (3, 3), (3, 4)), 4, 4, rng)
        merged = merge_dilated_reparam(branches)
        assert merged.weight.shape == (4, 1, 9, 9)
        assert merged.dilation == (1, 1)
        err = verify_reparam_merge(branches, rng, trials=2)
        assert err <= 1e-10

    def test_default_k13_depthwise_block(self, rng):
        branches = random_branches(stock_branches(13), 6, 6, rng)
        assert verify_reparam_merge(branches, rng, trials=3) <= 1e-10

    @pytest.mark.parametrize("groups_kind", ["depthwise", "grouped", "dense"])
    def test_merge_across_group_kinds(self, rng, groups_kind):
        channels = 4
        groups = {"depthwise": 4, "grouped": 2, "dense": 1}[groups_kind]
        branches = random_branches(((11, 1), (5, 2), (3, 3)), channels, groups, rng)
        assert verify_reparam_merge(branches, rng, trials=2) <= 1e-10

    def test_central_window_alignment(self, rng):
        # zero the principal: the merged kernel restricted to the equivalent-size
        # window must equal the small branch's expanded kernel
        wp = np.zeros((2, 1, 13, 13))
        ws = rng.standard_normal((2, 1, 3, 3))
        identity = BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), eps=1e-15)
        branches = (
            (ConvLayer(wp, padding=(6, 6), groups=2), identity),
            (ConvLayer(ws, padding=(3, 3), dilation=(3, 3), groups=2), identity),
        )
        merged = np.asarray(merge_dilated_reparam(branches).weight)
        expanded = dilate_kernel(ws, 3)
        pad = (13 - 7) // 2
        np.testing.assert_allclose(merged[:, :, pad:13 - pad, pad:13 - pad], expanded, rtol=1e-12)
        outside = merged.copy()
        outside[:, :, pad:13 - pad, pad:13 - pad] = 0
        assert np.all(outside == 0)

    def test_branch_permutations_merge_bit_identically(self, rng):
        branches = list(random_branches(((13, 1), (5, 1), (7, 2), (3, 3)), 4, 4, rng))
        order = rng.permutation(len(branches))
        shuffled = [branches[i] for i in order]
        # canonical re-sort before merging
        key = lambda b: (b[0].kernel_size, b[0].dilation)
        canon_a = sorted(branches, key=key)
        canon_b = sorted(shuffled, key=key)
        ka = merge_dilated_reparam(canon_a)
        kb = merge_dilated_reparam(canon_b)
        np.testing.assert_array_equal(np.asarray(ka.weight), np.asarray(kb.weight))
        np.testing.assert_array_equal(ka.bias, kb.bias)

    def test_mixed_groups_rejected(self, rng):
        branches = list(random_branches(((9, 1), (3, 2)), 4, 4, rng))
        bad = (ConvLayer(rng.standard_normal((4, 2, 3, 3)),
                         padding=(2, 2), dilation=(2, 2), groups=2),
               branches[1][1])
        with pytest.raises(ConfigError, match="agree on channels and groups"):
            merge_dilated_reparam([branches[0], bad])
        with pytest.raises(ConfigError, match="agree on channels and groups"):
            reparam_forward(rng.standard_normal((1, 4, 9, 9)), [branches[0], bad])

    def test_principal_not_first_is_bit_identical(self, rng):
        # the principal is summed first whatever the declared order, so moving it
        # to the front changes neither the merged conv nor the branch-sum forward
        declared = random_branches(((3, 2), (9, 1), (5, 1)), 4, 2, rng)
        principal_first = (declared[1], declared[0], declared[2])
        a, b = merge_dilated_reparam(declared), merge_dilated_reparam(principal_first)
        assert a.weight.shape == (4, 2, 9, 9) and a.groups == 2 and a.padding == (4, 4)
        np.testing.assert_array_equal(np.asarray(a.weight), np.asarray(b.weight))
        np.testing.assert_array_equal(a.bias, b.bias)
        x = rng.standard_normal((2, 4, 11, 11))
        np.testing.assert_array_equal(reparam_forward(x, declared),
                                      reparam_forward(x, principal_first))

    def test_branch_channel_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError, match="agree on channels"):
            merge_dilated_reparam([one_branch(rng, 9, 1, c=4), one_branch(rng, 3, 2, c=2)])
        # 2 -> 4 channels: every branch must also map c to the same c
        wide = ConvLayer(rng.standard_normal((4, 1, 9, 9)), padding=(4, 4), groups=2)
        with pytest.raises(ConfigError, match="agree on channels"):
            merge_dilated_reparam([(wide, one_branch(rng, 9, 1, c=4)[1])])

    def test_strided_branch_rejected(self, rng):
        # a stride-2 branch would change the map size, and the merged conv has stride 1
        conv = ConvLayer(rng.standard_normal((2, 1, 3, 3)), stride=(2, 2),
                         padding=(1, 1), groups=2)
        branches = [one_branch(rng, 9, 1), (conv, one_branch(rng, 3, 1)[1])]
        assert_block_rejected(rng, branches, ConfigError, "stride must be 1")

    @pytest.mark.parametrize("shape,padding,dilation,bn_c,exc,match", [
        ((3, 5), (1, 2), (1, 1), 2, ConfigError, "square kernel"),
        ((3, 3), (1, 2), (1, 2), 2, ConfigError, "one dilation rate"),
        ((4, 4), (1, 1), (1, 1), 2, ConfigError, "must be odd"),
        ((3, 3), (1, 1), (2, 2), 2, ConfigError, "must use padding 2"),
        ((3, 3), (1, 1), (1, 1), 3, ShapeError, "BN has 3"),
    ], ids=["non-square", "two-rates", "even-k", "bad-padding", "bn-channels"])
    def test_branch_rule_checked(self, rng, shape, padding, dilation, bn_c, exc, match):
        # a principal plus one malformed branch: each per-branch rule is checked
        # by both merge_dilated_reparam and reparam_forward, not when the pair is built
        conv = ConvLayer(rng.standard_normal((2, 1, *shape)), padding=padding,
                         dilation=dilation, groups=2)
        bn = BnParams(np.ones(bn_c), np.zeros(bn_c), np.zeros(bn_c), np.ones(bn_c))
        assert_block_rejected(rng, [one_branch(rng, 9, 1), (conv, bn)], exc, match)

    @pytest.mark.parametrize("ks", [[(3, 2)], [(9, 1), (9, 1)], [(5, 1), (3, 3)], [(1, 1)]],
                             ids=["dilated-alone", "two-principals", "too-wide", "lone-1x1"])
    def test_branch_geometry_checked(self, rng, ks):
        # each branch is valid alone; the tuple is not a valid block
        assert_block_rejected(rng, [one_branch(rng, k, r) for k, r in ks], ConfigError, None)

    @pytest.mark.parametrize("first", [np.float32, np.float64])
    def test_mixed_dtype_branches_rejected(self, rng, first):
        # a (13, 1) principal and a (5, 1) branch of the other dtype, in both declared orders
        other = np.float64 if first == np.float32 else np.float32
        branches = [one_branch(rng, 13, 1), one_branch(rng, 5, 1)]
        branches = [(replace(conv, weight=conv.weight.data.astype(dtype)), bn)
                    for (conv, bn), dtype in zip(branches, (first, other))]
        for declared in (branches, branches[::-1]):
            assert_block_rejected(rng, declared, ShapeError, "one weight dtype")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("K", [13, 3])
    def test_strided_window_matches_dilate_then_pad(self, rng, K, dtype):
        # each folded branch lands where zero insertion and a centring pad put it
        branches = [(replace(conv, weight=conv.weight.data.astype(dtype)),
                     BnParams(*(v.astype(dtype) for v in (bn.gamma, bn.beta, bn.running_mean,
                                                           bn.running_var))))
                    for conv, bn in random_branches(stock_branches(K), 4, 4, rng)]
        want_w = np.zeros((4, 1, K, K), dtype=dtype)
        want_b = np.zeros(4, dtype=dtype)
        for conv, bn in branches:   # stock_branches lists the principal first
            fused = fuse_bn(conv, bn)
            expanded = dilate_kernel(fused.weight.data, conv.dilation[0])
            pad = (K - expanded.shape[2]) // 2
            want_w[:, :, pad:K - pad, pad:K - pad] += expanded
            want_b += fused.bias
        merged = merge_dilated_reparam(branches)
        assert merged.weight.dtype == dtype
        np.testing.assert_array_equal(merged.weight.data, want_w)
        np.testing.assert_array_equal(merged.bias, want_b)

    def test_reparam_forward_matches_manual_sum(self, rng):
        branches = random_branches(((9, 1), (3, 2), (3, 4)), 3, 3, rng)
        x = rng.standard_normal((2, 3, 15, 15))
        manual = sum(
            (batchnorm_infer(conv2d(x, conv), bn) for conv, bn in branches),
            start=np.zeros((2, 3, 15, 15)),
        )
        got = reparam_forward(x, branches)
        np.testing.assert_allclose(got, manual, rtol=1e-12, atol=1e-12)

    def test_merged_conv_matches_naive_oracle(self, rng):
        # end to end: merged kernel driven through the independent naive conv
        branches = random_branches(((9, 1), (3, 3)), 2, 2, rng)
        merged = merge_dilated_reparam(branches)
        x = rng.standard_normal((1, 2, 12, 12))
        want = conv2d_naive(x, np.asarray(merged.weight), merged.bias,
                            padding=merged.padding, groups=2)
        got = conv2d(x, merged)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        reference = reparam_forward(x, branches)
        assert relative_error(got, reference) <= 1e-10

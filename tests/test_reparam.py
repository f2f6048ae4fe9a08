import numpy as np
import pytest

from urlknet import (
    BnParams,
    ConfigError,
    ConvLayer,
    DilatedBranch,
    DilatedReparamCfg,
    Tensor4,
    batchnorm_infer,
    conv2d,
    default_reparam_cfg,
    dilate_kernel,
    equivalent_kernel_size,
    fuse_bn,
    merge_dilated_reparam,
    reparam_forward,
)
from urlknet.reparam import random_branches
from urlknet.verify import relative_error, verify_reparam_merge
from oracles import conv2d_naive


def test_equivalent_kernel_size_k3_r3():
    assert equivalent_kernel_size(3, 3) == 7


@pytest.mark.parametrize("k", [1, 3, 5, 7, 13])
def test_no_dilation_keeps_size(k):
    assert equivalent_kernel_size(k, 1) == k


def test_default_config_equivalent_sizes():
    pairs = [(5, 1), (7, 2), (3, 3), (3, 4), (3, 5)]
    assert tuple(equivalent_kernel_size(k, r) for k, r in pairs) == (5, 13, 7, 9, 11)


def test_even_kernel_rejected():
    with pytest.raises(ConfigError):
        equivalent_kernel_size(4, 2)


class TestDilateKernel:
    def test_rate_one_unchanged(self, rng):
        w = Tensor4(rng.standard_normal((3, 2, 3, 3)))
        assert dilate_kernel(w, 1) is w

    def test_depthwise_pattern(self, rng):
        w = rng.standard_normal((8, 1, 3, 3))
        out = dilate_kernel(Tensor4(w), 2).data
        assert out.shape == (8, 1, 5, 5)
        np.testing.assert_array_equal(out[:, :, ::2, ::2], w)
        assert np.count_nonzero(out) == np.count_nonzero(w)

    def test_sparsity_per_slice(self, rng):
        w = rng.standard_normal((4, 3, 5, 5))
        out = dilate_kernel(Tensor4(w), 3).data
        np.testing.assert_array_equal(out[:, :, ::3, ::3], w)
        for oc in range(4):
            for ic in range(3):
                assert np.count_nonzero(out[oc, ic]) == np.count_nonzero(w[oc, ic])
                assert out[oc, ic].shape == (13, 13)

    def test_dense_forward_equivalence(self, rng):
        # expanded kernel at r=1 must replay the dilated layer
        x = rng.standard_normal((2, 4, 19, 19))
        w = rng.standard_normal((4, 4, 3, 3))
        dil = ConvLayer(Tensor4(w), padding=(3, 3), dilation=(3, 3))
        wide = ConvLayer(dilate_kernel(Tensor4(w), 3), padding=(3, 3))
        np.testing.assert_allclose(
            conv2d(Tensor4(x), wide).data, conv2d(Tensor4(x), dil).data,
            rtol=1e-12, atol=1e-12,
        )

    @pytest.mark.parametrize("k,r,groups,cin", [(3, 2, 1, 2), (3, 3, 2, 4), (5, 2, 4, 4), (7, 2, 1, 1)])
    def test_dilation_equivalence_property(self, rng, k, r, groups, cin):
        # the core rewrite rule: conv at dilation r == conv at r=1 with zero-inserted kernel
        cout = cin
        x = rng.standard_normal((2, cin, 21, 21))
        w = rng.standard_normal((cout, cin // groups, k, k))
        pad = ((k - 1) * r) // 2
        dil = conv2d(Tensor4(x), ConvLayer(Tensor4(w), padding=(pad, pad),
                                           dilation=(r, r), groups=groups)).data
        wide = dilate_kernel(Tensor4(w), r)
        plain = conv2d(Tensor4(x), ConvLayer(wide, padding=(pad, pad), groups=groups)).data
        np.testing.assert_allclose(plain, dil, rtol=1e-12, atol=1e-12)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            dilate_kernel(Tensor4(np.zeros((1, 1, 3, 3))), 0)


class TestFuseBn:
    def test_identity_statistics_keep_layer(self, rng):
        conv = ConvLayer(Tensor4(rng.standard_normal((3, 3, 3, 3))), padding=(1, 1))
        bn = BnParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-15)
        fused = fuse_bn(conv, bn)
        np.testing.assert_allclose(fused.weight.data, conv.weight.data, rtol=1e-12)
        np.testing.assert_allclose(fused.bias, np.zeros(3), atol=1e-12)

    def test_closed_form_scalar_case(self):
        conv = ConvLayer(Tensor4(np.ones((1, 1, 1, 1))), bias=np.zeros(1))
        bn = BnParams(np.array([2.0]), np.array([0.0]), np.array([4.0]),
                      np.array([3.0]), eps=1.0)
        fused = fuse_bn(conv, bn)
        assert fused.weight.data.item() == 1.0
        assert fused.bias.item() == -4.0

    def test_composed_forward_equivalence(self, rng):
        x = Tensor4(rng.standard_normal((2, 5, 9, 9)))
        conv = ConvLayer(Tensor4(rng.standard_normal((4, 5, 3, 3))),
                         bias=rng.standard_normal(4), padding=(1, 1))
        bn = BnParams(rng.standard_normal(4), rng.standard_normal(4),
                      rng.standard_normal(4), rng.uniform(0.1, 2.0, 4), eps=1e-5)
        composed = batchnorm_infer(conv2d(x, conv), bn).data
        np.testing.assert_allclose(conv2d(x, fuse_bn(conv, bn)).data, composed,
                                   rtol=1e-12, atol=1e-12)

    def test_idempotent_under_identity_stats(self, rng):
        conv = ConvLayer(Tensor4(rng.standard_normal((2, 2, 3, 3))), bias=rng.standard_normal(2))
        identity = BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), eps=1e-15)
        once = fuse_bn(conv, identity)
        twice = fuse_bn(once, identity)
        np.testing.assert_allclose(twice.weight.data, once.weight.data, rtol=1e-12)
        np.testing.assert_allclose(twice.bias, once.bias, rtol=1e-12, atol=1e-15)

    def test_linear_in_gamma(self, rng):
        conv = ConvLayer(Tensor4(rng.standard_normal((3, 2, 3, 3))))
        gamma = rng.standard_normal(3)
        rest = dict(beta=np.zeros(3), running_mean=rng.standard_normal(3),
                    running_var=rng.uniform(0.5, 1.5, 3), eps=1e-5)
        f1 = fuse_bn(conv, BnParams(gamma=gamma, **rest))
        f2 = fuse_bn(conv, BnParams(gamma=2 * gamma, **rest))
        np.testing.assert_allclose(f2.weight.data, 2 * f1.weight.data, rtol=1e-12)
        np.testing.assert_allclose(f2.bias, 2 * f1.bias, rtol=1e-12)

    def test_channel_mismatch(self):
        conv = ConvLayer(Tensor4(np.zeros((3, 1, 1, 1))))
        bn = BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(Exception):
            fuse_bn(conv, bn)


def one_branch(rng, k, r, c=2, groups=2):
    conv = ConvLayer(Tensor4(rng.standard_normal((c, c // groups, k, k))),
                     padding=((k - 1) * r // 2,) * 2, dilation=(r, r), groups=groups)
    return DilatedBranch(conv, BnParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c)))


class TestDilatedReparamCfg:
    def test_default_cfg_branches(self):
        cfg = default_reparam_cfg(8)
        assert cfg.branches == ((13, 1), (5, 1), (7, 2), (3, 3), (3, 4), (3, 5))
        assert cfg.groups == 8

    def test_constraint_violation(self):
        with pytest.raises(ConfigError):
            DilatedReparamCfg(kernel_size=9, branches=((9, 1), (5, 3)), channels=4, groups=4)

    def test_missing_principal(self):
        with pytest.raises(ConfigError):
            DilatedReparamCfg(kernel_size=9, branches=((5, 1), (3, 2)), channels=4, groups=4)

    def test_merge_order_puts_principal_first(self):
        cfg = DilatedReparamCfg(kernel_size=9, branches=((3, 2), (9, 1), (5, 1)),
                                channels=4, groups=4)
        assert cfg.merge_order() == (1, 0, 2)


class TestMerge:
    def test_single_principal_branch_keeps_kernel(self, rng):
        w = rng.standard_normal((3, 1, 5, 5))
        branch = DilatedBranch(
            conv=ConvLayer(Tensor4(w), padding=(2, 2), groups=3),
            bn=BnParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-15),
        )
        merged = merge_dilated_reparam([branch])
        np.testing.assert_allclose(merged.weight.data, w, rtol=1e-12)
        assert merged.padding == (2, 2)

    def test_k9_figure_config_merges_to_9x9(self, rng):
        cfg = DilatedReparamCfg(
            kernel_size=9,
            branches=((9, 1), (5, 1), (3, 2), (3, 3), (3, 4)),
            channels=4, groups=4,
        )
        branches = random_branches(cfg, rng)
        merged = merge_dilated_reparam(branches)
        assert merged.weight.shape == (4, 1, 9, 9)
        assert merged.dilation == (1, 1)
        err = verify_reparam_merge(branches, rng, trials=2)
        assert err <= 1e-10

    def test_default_k13_depthwise_block(self, rng):
        cfg = default_reparam_cfg(6)
        branches = random_branches(cfg, rng)
        assert verify_reparam_merge(branches, rng, trials=3) <= 1e-10

    @pytest.mark.parametrize("groups_kind", ["depthwise", "grouped", "dense"])
    def test_merge_across_group_kinds(self, rng, groups_kind):
        channels = 4
        groups = {"depthwise": 4, "grouped": 2, "dense": 1}[groups_kind]
        cfg = DilatedReparamCfg(kernel_size=11, branches=((11, 1), (5, 2), (3, 3)),
                                channels=channels, groups=groups)
        branches = random_branches(cfg, rng)
        assert verify_reparam_merge(branches, rng, trials=2) <= 1e-10

    def test_central_window_alignment(self, rng):
        # zero the principal: the merged kernel restricted to the equivalent-size
        # window must equal the small branch's expanded kernel
        wp = np.zeros((2, 1, 13, 13))
        ws = rng.standard_normal((2, 1, 3, 3))
        identity = BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), eps=1e-15)
        branches = (
            DilatedBranch(ConvLayer(Tensor4(wp), padding=(6, 6), groups=2), identity),
            DilatedBranch(ConvLayer(Tensor4(ws), padding=(3, 3), dilation=(3, 3), groups=2), identity),
        )
        merged = merge_dilated_reparam(branches).weight.data
        expanded = dilate_kernel(Tensor4(ws), 3).data
        pad = (13 - 7) // 2
        np.testing.assert_allclose(merged[:, :, pad:13 - pad, pad:13 - pad], expanded, rtol=1e-12)
        outside = merged.copy()
        outside[:, :, pad:13 - pad, pad:13 - pad] = 0
        assert np.all(outside == 0)

    def test_branch_permutations_merge_bit_identically(self, rng):
        cfg_branches = [(13, 1), (5, 1), (7, 2), (3, 3)]
        cfg = DilatedReparamCfg(13, tuple(cfg_branches), channels=4, groups=4)
        branches = list(random_branches(cfg, rng))
        order = rng.permutation(len(branches))
        shuffled = [branches[i] for i in order]
        # canonical re-sort before merging
        key = lambda b: (b.k, b.r)
        canon_a = sorted(branches, key=key)
        canon_b = sorted(shuffled, key=key)
        ka = merge_dilated_reparam(canon_a)
        kb = merge_dilated_reparam(canon_b)
        np.testing.assert_array_equal(ka.weight.data, kb.weight.data)
        np.testing.assert_array_equal(ka.bias, kb.bias)

    def test_mixed_groups_rejected(self, rng):
        cfg = DilatedReparamCfg(kernel_size=9, branches=((9, 1), (3, 2)), channels=4, groups=4)
        branches = list(random_branches(cfg, rng))
        bad = DilatedBranch(
            conv=ConvLayer(Tensor4(rng.standard_normal((4, 2, 3, 3))),
                           padding=(2, 2), dilation=(2, 2), groups=2),
            bn=branches[1].bn,
        )
        with pytest.raises(ConfigError, match="agree on channels and groups"):
            merge_dilated_reparam([branches[0], bad])
        with pytest.raises(ConfigError, match="agree on channels and groups"):
            reparam_forward(Tensor4(rng.standard_normal((1, 4, 9, 9))), [branches[0], bad])

    def test_cfg_read_from_branches(self, rng):
        cfg = DilatedReparamCfg(kernel_size=9, branches=((3, 2), (9, 1), (5, 1)),
                                channels=4, groups=2)
        assert DilatedReparamCfg.from_branches(random_branches(cfg, rng)) == cfg

    def test_branch_channel_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError, match="agree on channels"):
            merge_dilated_reparam([one_branch(rng, 9, 1, c=4), one_branch(rng, 3, 2, c=2)])
        # 2 -> 4 channels: every branch must also map c to the same c
        wide = ConvLayer(Tensor4(rng.standard_normal((4, 1, 9, 9))), padding=(4, 4), groups=2)
        with pytest.raises(ConfigError, match="agree on channels"):
            merge_dilated_reparam([DilatedBranch(wide, one_branch(rng, 9, 1, c=4).bn)])

    def test_strided_branch_rejected(self, rng):
        # a stride-2 branch would change the map size, and the merged conv has stride 1
        conv = ConvLayer(Tensor4(rng.standard_normal((2, 1, 3, 3))), stride=(2, 2),
                         padding=(1, 1), groups=2)
        with pytest.raises(ConfigError, match="stride"):
            DilatedBranch(conv, one_branch(rng, 3, 1).bn)

    @pytest.mark.parametrize("ks", [[(3, 2)], [(9, 1), (9, 1)], [(5, 1), (3, 3)]],
                             ids=["dilated-alone", "two-principals", "too-wide"])
    def test_branch_geometry_checked(self, rng, ks):
        # each branch is valid alone; the tuple is not a valid block
        with pytest.raises(ConfigError):
            merge_dilated_reparam([one_branch(rng, k, r) for k, r in ks])

    def test_reparam_forward_matches_manual_sum(self, rng):
        cfg = DilatedReparamCfg(kernel_size=9, branches=((9, 1), (3, 2), (3, 4)),
                                channels=3, groups=3)
        branches = random_branches(cfg, rng)
        x = Tensor4(rng.standard_normal((2, 3, 15, 15)))
        manual = sum(
            (batchnorm_infer(conv2d(x, b.conv), b.bn).data for b in branches),
            start=np.zeros((2, 3, 15, 15)),
        )
        got = reparam_forward(x, branches).data
        np.testing.assert_allclose(got, manual, rtol=1e-12, atol=1e-12)

    def test_merged_conv_matches_naive_oracle(self, rng):
        # end to end: merged kernel driven through the independent naive conv
        cfg = DilatedReparamCfg(kernel_size=9, branches=((9, 1), (3, 3)), channels=2, groups=2)
        branches = random_branches(cfg, rng)
        merged = merge_dilated_reparam(branches)
        x = rng.standard_normal((1, 2, 12, 12))
        want = conv2d_naive(x, merged.weight.data, merged.bias,
                            padding=merged.padding, groups=2)
        got = conv2d(Tensor4(x), merged).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        reference = reparam_forward(Tensor4(x), branches).data
        assert relative_error(got, reference) <= 1e-10

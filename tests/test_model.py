import gc

import numpy as np
import pytest

from urlknet import (
    ArchConfig,
    ConfigError,
    GeometryError,
    ShapeError,
    StateError,
    Tensor4,
    arch_config,
    build_model,
    build_named,
    forward,
    forward_trace,
    merge_for_deploy,
    model_astype,
    param_breakdown,
    param_count,
)
from urlknet.model import (
    INSTANCE_NAMES,
    LARK,
    SMAK,
    REFERENCE_PARAMS_M,
    _layout,
    iter_state,
    learnable_scalars,
)
from urlknet.blocks import block_forward
from urlknet.reparam import reparam_forward
from urlknet.verify import relative_error

TOY = ArchConfig(depths=(1, 1, 1, 1), width=8, stage3_lark=1, stage3_smak=0,
                 num_classes=10)


@pytest.fixture(scope="module")
def model_a():
    return build_named("A", seed=0)


@pytest.fixture(scope="module")
def model_a_merged(model_a):
    return merge_for_deploy(model_a)


class TestNamedConfigs:
    def test_instance_table_resolution(self):
        cfg_t = arch_config("T")
        assert cfg_t.depths == (3, 3, 18, 3)
        assert (cfg_t.stage3_lark, cfg_t.stage3_smak) == (9, 9)
        assert cfg_t.width == 80
        cfg_s = arch_config("S")
        assert cfg_s.depths == (3, 3, 27, 3)
        assert (cfg_s.stage3_lark, cfg_s.stage3_smak) == (9, 18)
        assert cfg_s.width == 96
        assert arch_config("A").width == 40
        assert arch_config("XL").width == 256

    def test_unknown_instance(self):
        with pytest.raises(ConfigError):
            arch_config("Z")

    def test_stage_layouts(self):
        cfg = arch_config("S")
        kinds = cfg.stage_kinds(3)
        lark_positions = [i for i, k in enumerate(kinds) if k == LARK]
        assert lark_positions == [3 * i for i in range(9)]
        assert all(k == SMAK for k in cfg.stage_kinds(1))
        assert all(k == LARK for k in cfg.stage_kinds(2))
        assert all(k == LARK for k in cfg.stage_kinds(4))

    def test_alternating_layout_for_equal_split(self):
        kinds = arch_config("T").stage_kinds(3)
        lark_positions = [i for i, k in enumerate(kinds) if k == LARK]
        assert lark_positions == [2 * i for i in range(9)]

    def test_all_lark_stage3(self):
        assert all(k == LARK for k in arch_config("N").stage_kinds(3))

    def test_invalid_split_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(depths=(1, 1, 5, 1), width=8, stage3_lark=2, stage3_smak=3)

    def test_split_must_match_depth(self):
        with pytest.raises(ConfigError):
            ArchConfig(depths=(1, 1, 4, 1), width=8, stage3_lark=1, stage3_smak=1)


class TestBuild:
    def test_same_seed_bit_identical(self):
        m1 = build_model(TOY, seed=7)
        m2 = build_model(TOY, seed=7)
        for (n1, a1), (n2, a2) in zip(iter_state(m1), iter_state(m2)):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_different_seed_differs(self):
        m1 = build_model(TOY, seed=0)
        m2 = build_model(TOY, seed=1)
        assert not np.array_equal(m1.head_weight, m2.head_weight)

    def test_starts_in_train_mode(self, model_a):
        assert not model_a.merged
        assert model_a.mode == "train-structure"

    @pytest.mark.parametrize("name", ["TOY", "A", "T", "S"])
    def test_layout_matches_state(self, name):
        # T alternates LarK,SmaK in stage 3; S repeats LarK,SmaK,SmaK
        train = build_model(TOY, seed=0) if name == "TOY" else build_named(name, seed=0)
        for model in (train, merge_for_deploy(train)):
            layout = [(n, shape) for n, shape, _ in _layout(model.config, model.merged)]
            assert [(n, a.shape) for n, a in iter_state(model)] == layout
        del train, model
        gc.collect()

    def test_init_is_bounded(self):
        m = build_model(TOY, seed=3)
        for name, arr in iter_state(m):
            if name.endswith(".weight"):
                assert np.abs(arr).max() <= 2.0 * 0.02 + 1e-12


class TestForward:
    def test_stage_geometry_224(self, model_a):
        x = Tensor4(np.random.default_rng(0).standard_normal((1, 3, 224, 224)))
        trace = forward_trace(model_a, x)
        assert [t.shape for t in trace.stage_outputs] == [
            (1, 40, 56, 56), (1, 80, 28, 28), (1, 160, 14, 14), (1, 320, 7, 7)]
        assert trace.logits.shape == (1, 1000)

    def test_batch_independence(self, model_a):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 64, 64))
        both = forward(model_a, Tensor4(x))
        one = forward(model_a, Tensor4(x[0:1]))
        two = forward(model_a, Tensor4(x[1:2]))
        np.testing.assert_array_equal(both, np.concatenate([one, two]))

    def test_input_divisible_by_32_scales_to_one_32nd(self, model_a):
        x = Tensor4(np.zeros((1, 3, 96, 64)))
        trace = forward_trace(model_a, x)
        assert trace.stage_outputs[3].shape[2:] == (3, 2)

    def test_tiny_input_collapses_to_single_site(self, model_a):
        # same-padded convs never underflow: a 16x16 input legally reaches 1x1
        trace = forward_trace(model_a, Tensor4(np.zeros((1, 3, 16, 16))))
        assert trace.stage_outputs[3].shape[2:] == (1, 1)

    def test_geometry_error_names_stage(self, model_a):
        # force an underflow by stripping the padding from one transition conv
        from dataclasses import replace as dc_replace
        ((conv, bn),) = model_a.downsamples[3]
        bad_transition = ((dc_replace(conv, padding=(0, 0)), bn),)
        bad_model = dc_replace(model_a, downsamples=(*model_a.downsamples[:3], bad_transition))
        with pytest.raises(GeometryError, match="transition4"):
            forward(bad_model, Tensor4(np.zeros((1, 3, 32, 32))))

    def test_wrong_channel_count(self, model_a):
        with pytest.raises(ShapeError):
            forward(model_a, Tensor4(np.zeros((1, 4, 64, 64))))

    def test_wrong_dtype(self, model_a):
        with pytest.raises(ShapeError):
            forward(model_a, Tensor4(np.zeros((1, 3, 64, 64), dtype=np.float32)))


class TestMerge:
    def test_whole_model_equivalence(self, model_a, model_a_merged):
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = Tensor4(rng.standard_normal((1, 3, 64, 64)))
            err = relative_error(forward(model_a_merged, x), forward(model_a, x))
            assert err <= 1e-9

    def test_double_merge_rejected(self, model_a_merged):
        with pytest.raises(StateError):
            merge_for_deploy(model_a_merged)

    def test_mixed_mode_model_rejected(self, model_a, model_a_merged):
        # merged-ness is read from the blocks, so they must agree
        from dataclasses import replace as dc_replace
        assert model_a_merged.merged and model_a_merged.mode == "merged"
        mixed = (model_a_merged.stages[0], *model_a.stages[1:])
        with pytest.raises(StateError, match="all merged or all train-structure"):
            dc_replace(model_a, stages=mixed)

    def test_merge_does_not_mutate_original(self, model_a):
        assert not model_a.merged
        assert model_a.stages[1][0].branches is not None

    def test_merged_has_fewer_parameters(self, model_a, model_a_merged):
        assert learnable_scalars(model_a_merged) < learnable_scalars(model_a)

    def test_merged_dw_kernels_are_13x13_in_later_stages(self):
        m = merge_for_deploy(build_named("S", seed=0))
        for s in (2, 3, 4):
            for b, kind in zip(m.stages[s - 1], m.config.stage_kinds(s)):
                if kind == LARK:
                    assert b.dw_conv.kernel_size == (13, 13)
        for b in m.stages[0]:
            assert b.dw_conv.kernel_size == (3, 3)
        del m
        gc.collect()


class TestReadOnlyArrays:
    def test_ops_run_on_read_only_arrays_and_leave_them_unchanged(self, rng):
        # the package never writes into weights or inputs; a write here would raise
        train = build_named("A", seed=0)
        merged = merge_for_deploy(train)
        block, merged_block = train.stages[0][0], merged.stages[0][0]
        x = rng.standard_normal((2, 3, 64, 64))
        xb = rng.standard_normal((2, block.channels, 16, 16))
        arrays = [x, xb, *(a for m in (train, merged) for _, a in iter_state(m))]
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.setflags(write=False)
        for m in (train, merged):
            forward(m, Tensor4(x))
            model_astype(m, np.float32)
        merge_for_deploy(train)
        block_forward(Tensor4(xb), block)
        block_forward(Tensor4(xb), merged_block)
        reparam_forward(Tensor4(xb), block.branches)
        for a, b in zip(arrays, before, strict=True):
            np.testing.assert_array_equal(a, b, strict=True)


class TestParamCount:
    def test_toy_hand_count(self):
        # independently enumerated by hand: stem 420, stage1 754, transition2
        # 1184, stage2 5156, transition3 4672, stage3 14664, transition4 18560,
        # stage4 46736, head 778
        assert param_breakdown(TOY)["total"] == 92_924

    def test_breakdown_modules_sum_to_total(self):
        b = param_breakdown(arch_config("N"))
        assert sum(v for k, v in b.items() if k != "total") == b["total"]

    def test_analytic_matches_actual_arrays(self, model_a, model_a_merged):
        assert learnable_scalars(model_a_merged) == param_count(model_a)
        toy_merged = merge_for_deploy(build_model(TOY, seed=0))
        assert learnable_scalars(toy_merged) == param_breakdown(TOY)["total"]

    @pytest.mark.parametrize("name", INSTANCE_NAMES)
    def test_reference_within_three_percent(self, name):
        total = param_breakdown(arch_config(name))["total"]
        ref = REFERENCE_PARAMS_M[name] * 1e6
        assert abs(total - ref) / ref <= 0.03


class TestDtypeConversion:
    def test_f32_roundtrip_forward(self, model_a):
        m32 = model_astype(model_a, np.float32)
        assert m32.dtype == np.float32
        x = Tensor4(np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32))
        logits = forward(m32, x)
        assert logits.dtype == np.float32
        assert np.all(np.isfinite(logits))

    def test_eps_survives_conversion(self, model_a):
        m32 = model_astype(model_a, np.float32)
        assert m32.head_bn.eps == model_a.head_bn.eps

    def test_f32_close_to_f64(self, model_a):
        m32 = model_astype(model_a, np.float32)
        x64 = np.random.default_rng(2).standard_normal((1, 3, 64, 64))
        y64 = forward(model_a, Tensor4(x64))
        y32 = forward(m32, Tensor4(x64.astype(np.float32)))
        assert relative_error(y32.astype(np.float64), y64) < 1e-3

import gc
import hashlib

import numpy as np
import pytest

from urlknet import (
    ArchConfig,
    ConfigError,
    ShapeError,
    StateError,
    arch_config,
    build_model,
    build_named,
    forward,
    forward_stages,
    merge_for_deploy,
    model_astype,
    param_breakdown,
    param_count,
)
from urlknet.model import (
    INSTANCE_NAMES,
    REFERENCE_PARAMS_M,
    _layout,
    iter_state,
)
from urlknet import model as model_module, tensor
from urlknet.tensor import Tensor4
from urlknet.blocks import block_forward
from urlknet.reparam import reparam_forward
from urlknet.verify import relative_error
from helpers import TOY, calibrate_bn, learnable_scalars


@pytest.fixture(scope="module")
def model_a():
    return build_named("A", seed=0)


@pytest.fixture(scope="module")
def model_a_merged(model_a):
    return merge_for_deploy(model_a)


def layout_sha256(name: str, merged: bool) -> str:
    """sha256 of every (tensor name, shape, init tag) _layout yields, one line each."""
    lines = (f"{t} {shape} {init}\n" for t, shape, init in _layout(arch_config(name), merged))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# layout_sha256 per (instance, merged); any change to a tensor's name, order, shape
# or init tag changes these, including for L and XL, whose containers are too big
# for the save_model pins
_LAYOUT_SHA256 = {
    ("A", False): "d1eed49532368128d6e384b44402b75acfa77d7997043e5536c657563d028c68",
    ("A", True): "b3702a4a0fb79a17509a9e7edec358217733a9c5f8e65a38cbc5845a0a0f7d46",
    ("F", False): "848ed2bee55f30e1b6f9dca40d6d297b7563eb114720677c4d78a20044323b00",
    ("F", True): "a521538736afcda0c761b04042f0c73e4bd1536225d77d6a25e97e5d08a0b8d2",
    ("P", False): "fea65bdc045dc04834731e8aeb0e5cf5d77d20cd739ecf5408dd0f079c78e039",
    ("P", True): "6285bdb9c31579a159a7dcf1928b4c7d42058b33c99bed57c914a2e105e42aea",
    ("N", False): "85d3a5f6b58fed56ba63a2152908d294682fa52c9261304d9d833e766b2af9da",
    ("N", True): "fff025c3c4511f33fd89a3779bd0782616736a6289151e3f869101bafa6b9ecc",
    ("T", False): "96fc6319e5165bc27726a9af338e4745b2fcb87c071d8c362166f87a982838a1",
    ("T", True): "1435bc0fc47b7bd155f6317d384d2e3cf1fa1c33f49bfa221f4190d8a79bc25e",
    ("S", False): "f047cb115f5d18a2195eb427960eee38c54489607343dfea2f299be7164dc38d",
    ("S", True): "ab0315947861c9277c55badfe25571b6c58edbf822b350a4635aa27262530693",
    ("B", False): "7b7c58a9525053ff12512c23def7c6a5e45706a5776888407815c77f50269d83",
    ("B", True): "0f7a264ad35554dee3b878950f67f054750e81f9afc0cef96ac099b0f3dc3a0a",
    ("L", False): "4f2ce97eaed5b87328a92975ac2dc3f96cdab4306562d7821e5c2097dca81da8",
    ("L", True): "968f93e9075b31695471d8a659ff33dbe81962ee1b6b310cd08f20537b6d3328",
    ("XL", False): "d70f0169e2af922ea874c92cfec14d0f4e59b86314c0b348fc93fff47d44473f",
    ("XL", True): "6f3ef420ed62bab898f87d0914e4f75601c10895c1c1cf50b4725b85acb8723d",
}


class TestNamedConfigs:
    def test_instance_table_resolution(self):
        cfg_t = arch_config("T")
        assert cfg_t.depths == (3, 3, 18, 3)
        assert cfg_t.stage3_lark == 9
        assert cfg_t.width == 80
        cfg_s = arch_config("S")
        assert cfg_s.depths == (3, 3, 27, 3)
        assert cfg_s.stage3_lark == 9
        assert cfg_s.width == 96
        assert arch_config("A").width == 40
        assert arch_config("XL").width == 256

    def test_unknown_instance(self):
        with pytest.raises(ConfigError):
            arch_config("Z")

    def test_stage_layouts(self):
        cfg = arch_config("S")
        kernels = cfg.stage_kernels(3)
        assert set(kernels) == {13, 3}
        lark_positions = [i for i, K in enumerate(kernels) if K == 13]
        assert lark_positions == [3 * i for i in range(9)]
        assert cfg.stage_kernels(1) == (3,) * 3
        assert cfg.stage_kernels(2) == cfg.stage_kernels(4) == (13,) * 3

    def test_alternating_layout_for_equal_split(self):
        kernels = arch_config("T").stage_kernels(3)
        lark_positions = [i for i, K in enumerate(kernels) if K == 13]
        assert lark_positions == [2 * i for i in range(9)]

    @pytest.mark.parametrize("name,merged", list(_LAYOUT_SHA256))
    def test_layout_pinned(self, name, merged):
        assert layout_sha256(name, merged) == _LAYOUT_SHA256[name, merged]

    def test_all_lark_stage3(self):
        assert arch_config("N").stage_kernels(3) == (13,) * 8

    @pytest.mark.parametrize("fields,match", [
        # N3 = 5 over 2 LarK blocks would leave 3 SmaK: not 0, 2 or 4
        ({"depths": (1, 1, 5, 1), "stage3_lark": 2}, "1, 2 or 3 times"),
        ({"depths": (1, 1, 1)}, "four positive ints"),
        ({"depths": (1, 0, 1, 1)}, "four positive ints"),
        ({"width": 10}, "multiple of 4"),
        ({"width": 4}, "multiple of 4"),
        ({"in_channels": 0}, "must be positive"),
        ({"num_classes": 0}, "must be positive"),
    ], ids=["split-5-over-2", "three-depths", "zero-depth", "width-10", "width-4",
            "no-input-channels", "no-classes"])
    def test_invalid_config_rejected(self, fields, match):
        with pytest.raises(ConfigError, match=match):
            ArchConfig(**{"depths": (1, 1, 1, 1), "width": 8, "stage3_lark": 1, **fields})

    def test_split_must_match_depth(self):
        # N3 = 4 over one LarK block would need 3 SmaK blocks after it
        with pytest.raises(ConfigError, match="1, 2 or 3 times"):
            ArchConfig(depths=(1, 1, 4, 1), width=8, stage3_lark=1)


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

    def test_name_is_derived_from_the_config(self):
        # a config equal to a named instance's, at any in_channels and num_classes, is that
        # instance; any other is "custom"
        assert build_model(arch_config("A", in_channels=1, num_classes=7)).name == "A"
        assert build_model(TOY).name == "custom"
        assert merge_for_deploy(build_named("A")).name == "A"

    def test_tensors_hold_one_dtype(self):
        # dtype reads the head, so an f32 head on an f64 model would misreport it
        from dataclasses import replace as dc_replace
        m = build_model(TOY, seed=0)
        with pytest.raises(ShapeError, match="one dtype"):
            dc_replace(m, head_weight=m.head_weight.astype(np.float32),
                       head_bias=m.head_bias.astype(np.float32))

    @pytest.mark.parametrize("cut", ["stage4-empty", "lark-two-branches", "no-stages",
                                     "every-stage-empty"])
    def test_blocks_must_match_the_config(self, cut):
        # _tensors pairs the config's layout with the blocks; a mismatch is a ShapeError,
        # also when there is no block to read the model's mode from
        from dataclasses import replace as dc_replace
        m = build_model(TOY, seed=0)
        if cut == "stage4-empty":
            stages = (*m.stages[:3], ())
        elif cut == "no-stages":
            stages = ()
        elif cut == "every-stage-empty":
            stages = ((), (), (), ())
        else:
            lark = m.stages[1][0]
            stages = (m.stages[0], (dc_replace(lark, branches=lark.branches[:2]),), *m.stages[2:])
        with pytest.raises(ShapeError, match="do not match its config"):
            dc_replace(m, stages=stages)

    def test_init_is_bounded(self):
        m = build_model(TOY, seed=3)
        for name, arr in iter_state(m):
            if name.endswith(".weight"):
                assert np.abs(arr).max() <= 2.0 * 0.02 + 1e-12


class TestForward:
    def test_stage_geometry_224(self, model_a):
        x = np.random.default_rng(0).standard_normal((1, 3, 224, 224))
        assert [t.shape for t in forward_stages(model_a, x)] == [
            (1, 40, 56, 56), (1, 80, 28, 28), (1, 160, 14, 14), (1, 320, 7, 7)]
        assert forward(model_a, x).shape == (1, 1000)

    def test_batch_independence(self, model_a):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 64, 64))
        both = forward(model_a, x)
        one = forward(model_a, x[0:1])
        two = forward(model_a, x[1:2])
        np.testing.assert_array_equal(both, np.concatenate([one, two]))

    def test_input_divisible_by_32_scales_to_one_32nd(self, model_a):
        x = np.zeros((1, 3, 96, 64))
        assert forward_stages(model_a, x)[3].shape[2:] == (3, 2)

    def test_tiny_input_collapses_to_single_site(self, model_a):
        # same-padded convs never underflow: a 16x16 input legally reaches 1x1
        assert forward_stages(model_a, np.zeros((1, 3, 16, 16)))[3].shape[2:] == (1, 1)

    def test_geometry_error_names_stage(self, model_a):
        # force an underflow by stripping the padding from one transition conv
        from dataclasses import replace as dc_replace
        ((conv, bn),) = model_a.downsamples[3]
        bad_transition = ((dc_replace(conv, padding=(0, 0)), bn),)
        bad_model = dc_replace(model_a, downsamples=(*model_a.downsamples[:3], bad_transition))
        with pytest.raises(ShapeError, match="^transition4: kernel .* does not fit"):
            forward(bad_model, np.zeros((1, 3, 32, 32)))

    def test_wrong_channel_count(self, model_a):
        with pytest.raises(ShapeError, match="^stem: "):
            forward(model_a, np.zeros((1, 4, 64, 64)))

    def test_wrong_dtype(self, model_a):
        with pytest.raises(ShapeError, match="^stem: "):
            forward(model_a, np.zeros((1, 3, 64, 64), dtype=np.float32))

    def test_head_bias_must_match_the_classes(self):
        # linear checks its bias, so one bias cannot broadcast over every class
        from dataclasses import replace as dc_replace
        bad_model = dc_replace(build_model(TOY, seed=0), head_bias=np.zeros(1))
        with pytest.raises(ShapeError, match="bias"):
            forward(bad_model, np.zeros((1, 3, 32, 32)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_plain_array_input_matches_tensor4(self, dtype):
        # a Tensor4 input reads as its array, so both spellings run the same forward
        m = build_model(TOY, seed=0, dtype=dtype)
        x = np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(dtype)
        np.testing.assert_array_equal(forward(m, x), forward(m, Tensor4(x)))

    @pytest.mark.parametrize("x,message", [
        (np.zeros((3, 64, 64)), "4-D"),
        (np.zeros((1, 3, 64, 64), dtype=np.int64), "unsupported dtype int64"),
        (np.zeros((0, 3, 64, 64)), "all dimensions must be >= 1"),
    ], ids=["3d", "int64", "empty-batch"])
    def test_forward_stages_checks_a_plain_array(self, model_a, x, message):
        with pytest.raises(ShapeError, match=message):
            forward_stages(model_a, x)

    @pytest.mark.parametrize("merged", [False, True], ids=["train", "merged"])
    def test_forward_builds_no_tensor4(self, model_a, model_a_merged, monkeypatch, merged):
        # the input is checked once where it enters; every op below forward runs on arrays
        m = model_astype(model_a_merged if merged else model_a, np.float32)
        x = Tensor4(np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32))
        built, init = [], tensor.Tensor4.__init__
        monkeypatch.setattr(tensor.Tensor4, "__init__",
                            lambda self, data: built.append(data) or init(self, data))
        forward(m, x)
        assert len(built) == 0

    def test_forward_calls_blocks_through_module_globals(self, model_a_merged, monkeypatch):
        # perfbench traces by swapping these module attributes and writes into a merged
        # kernel; a walk that bound them when it was defined would escape the trace
        calls = {"downsample_forward": 0, "block_forward": 0}
        for fn in calls:
            def counted(*args, fn=fn, inner=getattr(model_module, fn)):
                calls[fn] += 1
                return inner(*args)
            monkeypatch.setattr(model_module, fn, counted)
        forward(model_a_merged, Tensor4(np.zeros((1, 3, 32, 32))))
        assert calls == {"downsample_forward": 4, "block_forward": 12}
        weight = model_a_merged.stages[1][0].dw_conv.weight.data
        assert isinstance(weight, np.ndarray) and weight.flags.writeable


class TestMerge:
    def test_whole_model_equivalence(self, model_a, model_a_merged):
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.standard_normal((1, 3, 64, 64))
            err = relative_error(forward(model_a_merged, x), forward(model_a, x))
            assert err <= 1e-9

    def test_whole_model_equivalence_at_calibrated_bn_statistics(self, model_a):
        # trained-looking BN statistics widen the merged kernels' range, and with it the
        # f32 rounding; identity BN, as built, makes every fold nearly a no-op
        rng = np.random.default_rng(0)
        train = calibrate_bn(model_a, rng.standard_normal((4, 3, 64, 64)), rng)
        merged = merge_for_deploy(train)
        merged32 = model_astype(merged, np.float32)
        x = rng.standard_normal((2, 3, 64, 64))
        want = (*forward_stages(train, x), forward(train, x))
        x32 = x.astype(np.float32)
        got32 = (*forward_stages(merged32, x32), forward(merged32, x32))
        err64 = relative_error(forward(merged, x), want[-1])
        err32 = [relative_error(g.astype(np.float64), w) for g, w in zip(got32, want)]
        print(f"  calibrated BN against train f64: merged f64 logits {err64:.1e}; merged f32 "
              f"stages 1-4 {' '.join(f'{e:.1e}' for e in err32[:4])}, logits {err32[-1]:.1e}")
        assert any(not np.allclose(bn.running_var, 1) for _, bn in train.downsamples[0])
        assert err64 <= 1e-9 and err32[-1] <= 1e-5

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
        for s, stage in enumerate(m.stages, start=1):
            for b, K in zip(stage, m.config.stage_kernels(s), strict=True):
                assert b.dw_conv.kernel_size == (K, K)
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
            forward(m, x)
            model_astype(m, np.float32)
        merge_for_deploy(train)
        block_forward(xb, block)
        block_forward(xb, merged_block)
        reparam_forward(xb, block.branches)
        for a, b in zip(arrays, before, strict=True):
            np.testing.assert_array_equal(a, b, strict=True)

    @pytest.mark.parametrize("merged", [False, True], ids=["train", "merged"])
    def test_f32_forward_on_read_only_arrays(self, rng, model_a, model_a_merged, merged):
        # the float32 GELU works in place and each residual add writes into the buffer
        # its call allocated; neither may write into an input or a weight
        m = model_astype(model_a_merged if merged else model_a, np.float32)
        block = m.stages[0][0]
        x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
        xb = rng.standard_normal((2, block.channels, 16, 16)).astype(np.float32)
        want = forward(m, x.copy()), block_forward(xb.copy(), block)
        arrays = [x, xb, *(a for _, a in iter_state(m))]
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.setflags(write=False)
        np.testing.assert_array_equal(forward(m, x), want[0])
        np.testing.assert_array_equal(block_forward(xb, block), want[1])
        if not merged:
            reparam_forward(xb, block.branches)
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
        x = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32)
        logits = forward(m32, x)
        assert logits.dtype == np.float32
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_build_in_dtype_equals_cast(self, model_a, dtype):
        # each tensor but eps is cast as it is drawn: same draw, same bytes, f64 eps
        built = build_named("A", seed=0, dtype=dtype)
        cast = model_astype(model_a, dtype)
        for (n1, a1), (n2, a2) in zip(iter_state(built), iter_state(cast), strict=True):
            assert n1 == n2 and a1.dtype == a2.dtype
            np.testing.assert_array_equal(a1, a2)
        assert built.dtype == dtype and built.head_bn.eps == model_a.head_bn.eps

    def test_eps_survives_conversion(self, model_a):
        m32 = model_astype(model_a, np.float32)
        assert m32.head_bn.eps == model_a.head_bn.eps

    def test_f32_close_to_f64(self, model_a):
        m32 = model_astype(model_a, np.float32)
        x64 = np.random.default_rng(2).standard_normal((1, 3, 64, 64))
        y64 = forward(model_a, x64)
        y32 = forward(m32, x64.astype(np.float32))
        assert relative_error(y32.astype(np.float64), y64) < 1e-3

import tracemalloc
import warnings

import numpy as np
import pytest

from urlknet import (
    BnParams,
    ConfigError,
    ConvLayer,
    ShapeError,
    batchnorm_infer,
    conv2d,
    conv_output_size,
    gelu,
    grn,
    linear,
)
from urlknet import tensor
from urlknet.model import build_model, forward, merge_for_deploy, model_astype
from urlknet.reparam import stock_branches
from urlknet.tensor import Tensor4
from helpers import TOY
from oracles import batchnorm_naive, conv2d_naive, grn_naive


class TestTensor4:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3, 4)))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((1, 1, 2, 2), dtype=np.int32))

    def test_shape_properties(self):
        t = Tensor4(np.zeros((2, 3, 4, 5)))
        assert t.shape == (2, 3, 4, 5)
        assert t.dtype == np.float64

    def test_reads_as_its_array_without_a_copy(self):
        t = Tensor4(np.zeros((1, 2, 3, 3), dtype=np.float32))
        assert np.asarray(t) is t.data
        assert np.asarray(t, dtype=np.float64).dtype == np.float64

    def test_conv_layer_takes_a_plain_array(self, rng):
        w = rng.standard_normal((4, 2, 3, 3))
        bare, wrapped = ConvLayer(w, groups=2), ConvLayer(Tensor4(w), groups=2)
        assert type(bare.weight) is Tensor4
        np.testing.assert_array_equal(bare.weight.data, wrapped.weight.data)


_W = np.zeros((2, 1, 3, 3))
_ONES, _ZEROS = np.ones(2), np.zeros(2)


@pytest.mark.parametrize("make,exc,match", [
    (lambda: ConvLayer(_W, stride=(1, 1, 1)), ConfigError, "stride must be an int or a pair"),
    (lambda: ConvLayer(_W, groups=0), ConfigError, "groups must be >= 1"),
    (lambda: ConvLayer(_W, stride=0), ConfigError, "must be positive"),
    (lambda: ConvLayer(_W, dilation=(1, 0)), ConfigError, "must be positive"),
    (lambda: ConvLayer(_W, padding=(0, -1)), ConfigError, "padding must be non-negative"),
    (lambda: ConvLayer(np.zeros((3, 1, 3, 3)), groups=2), ShapeError, "not divisible by groups"),
    # a (1,) bias would broadcast over every output channel
    (lambda: ConvLayer(_W, bias=np.zeros(1)), ShapeError, "bias shape"),
    # an f64 bias would be cast into the f32 output without an error
    (lambda: ConvLayer(_W.astype(np.float32), bias=_ZEROS), ShapeError, "bias dtype"),
    (lambda: BnParams(_ONES, _ZEROS, _ZEROS, np.ones((2, 1))), ShapeError, "must be 1-D"),
    (lambda: BnParams(_ONES, np.zeros(3), _ZEROS, _ONES), ShapeError, "disagree on channel count"),
    (lambda: BnParams(_ONES, _ZEROS, _ZEROS, _ONES, eps=0.0), ConfigError, "eps must be > 0"),
    (lambda: BnParams(_ONES, _ZEROS, _ZEROS, _ONES, eps=float("nan")), ConfigError,
     "eps must be > 0"),
], ids=["pair-length", "groups-0", "stride-0", "dilation-0", "padding-negative",
        "c_out-groups", "bias-shape", "bias-dtype", "bn-rank", "bn-lengths", "bn-eps-0",
        "bn-eps-nan"])
def test_layer_parameters_checked(make, exc, match):
    with pytest.raises(exc, match=match):
        make()


class TestConv2d:
    def test_identity_kernel(self):
        x = np.ones((1, 1, 3, 3))
        layer = ConvLayer(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(conv2d(x, layer), x)

    def test_stride2_shape_224(self):
        x = np.zeros((1, 3, 224, 224))
        layer = ConvLayer(np.zeros((8, 3, 3, 3)), stride=(2, 2), padding=(1, 1))
        assert conv2d(x, layer).shape == (1, 8, 112, 112)

    def test_depthwise_dilated_matches_naive(self, rng):
        x = rng.standard_normal((2, 4, 19, 19))
        w = rng.standard_normal((4, 1, 3, 3))
        layer = ConvLayer(w, padding=(3, 3), dilation=(3, 3), groups=4)
        got = conv2d(x, layer)
        want = conv2d_naive(x, w, padding=(3, 3), dilation=(3, 3), groups=4)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    # depthwise on small maps: (h, w, k, stride, dilation), padding "same" for stride 1
    @pytest.mark.parametrize("h,w,k,s,r", [
        (5, 5, 13, 1, 1),     # h < K
        (3, 5, 13, 1, 1),     # h != w
        (1, 7, 13, 1, 1),
        (4, 5, 5, 1, 2),      # the dilated train branches
        (4, 4, 7, 1, 2),
        (3, 3, 3, 1, 3),
        (2, 3, 3, 1, 4),
        (3, 2, 3, 1, 5),
        (6, 6, 13, 2, 1),     # stride 2
        (5, 7, 3, 2, 1),
        (13, 13, 13, 1, 1),   # over the 64-site cap: the shift-add form
        (3, 3, 3, 1, 1),      # 9 live taps: the shift-add form
        (10, 17, 13, 1, 1),   # 170 sites: the shift-add form
        (2, 5, 3, 1, 1),
        (8, 8, 13, 1, 1),     # h*w == 64, the cap: the dense form
        (5, 13, 13, 1, 1),    # h*w == 65: the shift-add form
        (5, 6, 7, (1, 2), (2, 1)),   # per-axis stride and dilation
    ])
    def test_depthwise_small_map_matches_naive(self, rng, h, w, k, s, r):
        c = 3
        s, r = np.broadcast_to(s, 2).tolist(), np.broadcast_to(r, 2).tolist()
        pad = [ri * (k - 1) // 2 for ri in r]
        x = rng.standard_normal((2, c, h, w))
        wt = rng.standard_normal((c, 1, k, k))
        b = rng.standard_normal(c)
        layer = ConvLayer(wt, bias=b, stride=s, padding=pad, dilation=r, groups=c)
        got = conv2d(x, layer)
        want = conv2d_naive(x, wt, b, s, pad, r, c)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    # which form runs: only the dense form builds tap tables (both forms read the live taps
    # of `_live_taps`); dense iff at most 64 sites and at least 25 taps reach the map.
    # (h, w, k, r, shift_add), with r in the id only where it is not 1
    FORMS = [
        (8, 8, 13, 1, False), (5, 13, 13, 1, True), (9, 9, 13, 1, True),
        (3, 3, 3, 1, True),     # 9 live taps: the shift-add
        (2, 5, 3, 1, True), (7, 7, 7, 1, False),
        (8, 8, 5, 1, False),    # 25 live taps
        (8, 8, 7, 2, False),    # 49 live taps
        (2, 2, 13, 1, True),    # 9 of 169 taps reach a 2x2 map
        (4, 4, 7, 2, True),     # 9 of 49 taps reach a 4x4 map
        (4, 4, 5, 1, False),    # all 25 taps reach a 4x4 map
    ]

    @pytest.mark.parametrize("h,w,k,r,shift_add", FORMS, ids=[
        f"{h}-{w}-{k}{f'r{r}' if r > 1 else ''}-{sa}" for h, w, k, r, sa in FORMS])
    def test_depthwise_form_rule(self, rng, monkeypatch, h, w, k, r, shift_add):
        tables, table = [], tensor._tap_index
        monkeypatch.setattr(tensor, "_tap_index", lambda *a: tables.append(a) or table(*a))
        layer = ConvLayer(rng.standard_normal((2, 1, k, k)), padding=r * (k - 1) // 2,
                          dilation=r, groups=2)
        conv2d(rng.standard_normal((1, 2, h, w)), layer)
        assert bool(tables) == (not shift_add)

    # every stock LarK branch (k, r) and the SmaK k3 on the maps of stages 2-4 at res 64
    # (8, 4, 2 px) and of stage 4 at res 224 (7 px), f64 against the scalar oracle; the
    # form follows the live taps, (2*min(k//2, (size-1)//r) + 1)**2 on a square map
    @pytest.mark.parametrize("size", [2, 4, 7, 8])
    @pytest.mark.parametrize("k,r", [*stock_branches(13), (3, 1)])
    def test_depthwise_stock_branches_match_naive(self, rng, monkeypatch, size, k, r):
        tables, table = [], tensor._tap_index
        monkeypatch.setattr(tensor, "_tap_index", lambda *a: tables.append(a) or table(*a))
        c = 3
        x = rng.standard_normal((2, c, size, size))
        wt = rng.standard_normal((c, 1, k, k))
        b = rng.standard_normal(c)
        pad = r * (k - 1) // 2
        layer = ConvLayer(wt, bias=b, padding=pad, dilation=r, groups=c)
        got = conv2d(x, layer)
        assert bool(tables) == ((2 * min(k // 2, (size - 1) // r) + 1) ** 2 >= 25)
        np.testing.assert_allclose(got, conv2d_naive(x, wt, b, (1, 1), (pad, pad), (r, r), c),
                                   rtol=1e-12, atol=1e-12)

    # every case but the first is a geometry whose form the live-tap rule changed (from
    # "h*w <= min(k*k, 64)"): dense at 8x8 under k5 and k7 r2; the shift-add at 3x3
    # under k3, at 4x4 under k7 r2, and at 2x2 under every stock branch
    @pytest.mark.parametrize("h,k,r", [(8, 13, 1), (4, 7, 2), (2, 13, 1), (8, 5, 1), (8, 7, 2),
                                       (3, 3, 1), (2, 5, 1), (2, 7, 2), (2, 3, 3), (2, 3, 4),
                                       (2, 3, 5)])
    def test_depthwise_small_map_batch_invariant_f32(self, rng, h, k, r):
        x = rng.standard_normal((8, 16, h, h)).astype(np.float32)
        wt = rng.standard_normal((16, 1, k, k)).astype(np.float32)
        layer = ConvLayer(wt, padding=r * (k - 1) // 2, dilation=r, groups=16)
        batched = conv2d(x, layer)
        singles = [conv2d(x[i:i + 1], layer) for i in range(8)]
        np.testing.assert_array_equal(batched, np.concatenate(singles))

    @pytest.mark.parametrize("seed", range(4))
    def test_live_taps_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            out_size, in_size, s, p, d, k = (int(v) for v in rng.integers(1, 9, 6))
            reads = {t: [o for o in range(out_size) if 0 <= o * s + t * d - p < in_size]
                     for t in range(k)}
            taps = tensor._live_taps(out_size, in_size, s, p, d, k)
            assert [t for t, _, _ in taps] == [t for t in range(k) if reads[t]]
            for t, o, i in taps:
                assert list(range(out_size))[o] == reads[t]
                assert list(range(in_size))[i] == [o * s + t * d - p for o in reads[t]]

    # the shift-add form (maps above the dense form's cap): (h, w, k, stride, padding, dilation);
    # groups 1 and 2 run the same geometries through the matmul form
    @pytest.mark.parametrize("h,w,k,s,p,r", [
        (9, 8, 3, (2, 1), (1, 1), (1, 1)),     # per-axis stride
        (8, 9, 3, (1, 2), (1, 1), (1, 1)),
        (4, 4, 3, (1, 1), (5, 5), (5, 5)),     # dilation beyond the map: only the centre tap reads it
        (5, 3, 3, (1, 1), (5, 5), (5, 5)),
        (7, 6, 5, (1, 1), (2, 0), (1, 1)),     # ph != pw, "valid" along w (dense: 42 sites)
        (9, 9, 3, (1, 1), (0, 0), (2, 2)),     # "valid" along both axes
        (6, 7, 3, (2, 1), (3, 1), (1, 2)),
        (5, 13, 13, (1, 1), (6, 6), (1, 1)),   # non-square map
        (5, 13, 3, (1, 1), (1, 1), (1, 1)),
        (3, 9, 3, (1, 1), (4, 4), (4, 1)),     # row taps 0 and 2 read only padding, their columns do not
        (2, 2, 3, (3, 3), (2, 2), (1, 1)),     # stride above the map: live rows and columns {0, 2}
        (1, 1, 2, (1, 1), (1, 1), (2, 2)),     # no tap reaches the map: the output is the bias
        (9, 9, 5, (1, 1), (2, 0), (1, 1)),     # ph != pw above the dense cap (7x6 runs dense)
    ])
    def test_depthwise_shift_add_matches_naive(self, rng, monkeypatch, h, w, k, s, p, r):
        tables, table = [], tensor._tap_index
        monkeypatch.setattr(tensor, "_tap_index", lambda *a: tables.append(a) or table(*a))
        c = 4
        x = rng.standard_normal((2, c, h, w))
        for g in (c, 1, 2):
            wt = rng.standard_normal((c, c // g, k, k))
            b = rng.standard_normal(c)
            layer = ConvLayer(wt, bias=b, stride=s, padding=p, dilation=r, groups=g)
            want = conv2d_naive(x, wt, b, s, p, r, g)
            # call 1 keeps nothing, call 2 keeps the depthwise weight-side array, call 3 uses it
            for _ in range(3):
                np.testing.assert_allclose(conv2d(x, layer), want, rtol=1e-12, atol=1e-12)
        # only the depthwise 7x6 builds tap tables: 42 sites, all 25 taps live
        assert bool(tables) == ((h, w) == (7, 6))

    @pytest.mark.parametrize("c,h,k,r", [(40, 16, 3, 1), (80, 8, 7, 2), (160, 4, 3, 5)])
    def test_depthwise_shift_add_batch_invariant_f32(self, rng, c, h, k, r):
        x = rng.standard_normal((8, c, h, h)).astype(np.float32)
        x0 = x.copy()
        wt = rng.standard_normal((c, 1, k, k)).astype(np.float32)
        layer = ConvLayer(wt, padding=r * (k - 1) // 2, dilation=r, groups=c)
        batched = conv2d(x, layer)
        singles = [conv2d(x[i:i + 1], layer) for i in range(8)]
        np.testing.assert_array_equal(batched, np.concatenate(singles))
        np.testing.assert_array_equal(x, x0)
        assert batched.flags.c_contiguous

    # every non-depthwise conv is one matmul over (n, g, ck, oh*ow) columns; under k3 s13 p2 on
    # 12x12 the middle tap reads only padding (inputs -1 and 12)
    @pytest.mark.parametrize("k,s,p,g", [(1, 1, 0, 1), (3, 2, 1, 1), (3, 1, 1, 2), (3, 13, 2, 1)])
    def test_matmul_form_batch_invariant_f32(self, rng, k, s, p, g):
        x = rng.standard_normal((8, 16, 12, 12)).astype(np.float32)
        wt = rng.standard_normal((24, 16 // g, k, k)).astype(np.float32)
        layer = ConvLayer(wt, stride=s, padding=p, groups=g)
        batched = conv2d(x, layer)
        singles = [conv2d(x[i:i + 1], layer) for i in range(8)]
        np.testing.assert_array_equal(batched, np.concatenate(singles))

    @pytest.mark.parametrize("stride,padding,dilation,groups,cin,cout", [
        ((1, 1), (0, 0), (1, 1), 1, 3, 5),
        ((2, 1), (1, 2), (1, 1), 1, 2, 4),
        ((1, 1), (2, 2), (2, 2), 2, 4, 6),
        ((2, 2), (1, 1), (1, 1), 3, 6, 3),
        ((1, 1), (0, 0), (1, 1), 1, 4, 4),
    ])
    def test_matches_naive(self, rng, stride, padding, dilation, groups, cin, cout):
        x = rng.standard_normal((2, cin, 11, 13))
        w = rng.standard_normal((cout, cin // groups, 3, 3))
        b = rng.standard_normal(cout)
        layer = ConvLayer(w, bias=b, stride=stride, padding=padding,
                          dilation=dilation, groups=groups)
        got = conv2d(x, layer)
        want = conv2d_naive(x, w, b, stride, padding, dilation, groups)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_pointwise_matches_naive(self, rng):
        x = rng.standard_normal((2, 5, 7, 7))
        w = rng.standard_normal((3, 5, 1, 1))
        got = conv2d(x, ConvLayer(w))
        np.testing.assert_allclose(got, conv2d_naive(x, w), rtol=1e-12, atol=1e-12)

    def test_pointwise_copies_nothing(self, rng):
        # a 1x1, stride-1, unpadded conv reads its input in place, so its peak is the output
        # (an FFN expansion, 160 -> 640 channels: a copy of the input would add 25%)
        x = rng.standard_normal((8, 160, 8, 8))
        layer = ConvLayer(rng.standard_normal((640, 160, 1, 1)), bias=rng.standard_normal(640))
        tracemalloc.start()
        try:
            out = conv2d(x, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * out.nbytes

    def test_grouped_equals_independent_slices(self, rng):
        g, cin, cout = 2, 6, 4
        x = rng.standard_normal((1, cin, 9, 9))
        w = rng.standard_normal((cout, cin // g, 3, 3))
        whole = conv2d(x, ConvLayer(w, padding=(1, 1), groups=g))
        parts = []
        for gi in range(g):
            xs = x[:, gi * (cin // g):(gi + 1) * (cin // g)]
            ws = w[gi * (cout // g):(gi + 1) * (cout // g)]
            parts.append(conv2d(xs, ConvLayer(ws, padding=(1, 1))))
        np.testing.assert_allclose(whole, np.concatenate(parts, axis=1), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_geometry_formula_sweep(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(6, 40)), int(rng.integers(6, 40))
        k = int(rng.choice([1, 3, 5, 7]))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 4))
        r = int(rng.integers(1, 4))
        oh = conv_output_size(h, k, s, p, r)
        ow = conv_output_size(w, k, s, p, r)
        layer = ConvLayer(np.zeros((2, 3, k, k)), stride=(s, s),
                          padding=(p, p), dilation=(r, r))
        if oh < 1 or ow < 1:
            with pytest.raises(ShapeError, match="does not fit"):
                conv2d(np.zeros((1, 3, h, w)), layer)
        else:
            assert conv2d(np.zeros((1, 3, h, w)), layer).shape == (1, 2, oh, ow)

    def test_kernel_too_big_raises(self):
        layer = ConvLayer(np.zeros((1, 1, 7, 7)))
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d(np.zeros((1, 1, 4, 4)), layer)

    def test_channel_mismatch(self):
        layer = ConvLayer(np.zeros((2, 3, 1, 1)))
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 4, 3, 3)), layer)

    def test_dtype_mismatch(self):
        layer = ConvLayer(np.zeros((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 1, 2, 2)), layer)

    def test_purity_bit_identical(self, rng):
        x = rng.standard_normal((2, 4, 10, 10))
        layer = ConvLayer(rng.standard_normal((4, 4, 3, 3)), padding=(1, 1))
        np.testing.assert_array_equal(conv2d(x, layer), conv2d(x, layer))


def _held(layer):
    """(key, whether an array is kept) of a depthwise layer's one plan entry."""
    key, arr, _ = layer._plan
    return key, arr is not None


def _depthwise_layers(m):
    return [conv for stage in m.stages for b in stage
            for conv, _ in (b.branches or ((b.dw_conv, None),))]


class TestDepthwisePlan:
    """A depthwise layer keeps its tap matrix (dense form) or its tiled live taps (shift-add)
    in one entry, from the second call with one batch size and map size on, while its weight
    is unchanged. The key holds no dtype: conv2d requires the input's to be the weight's."""

    # (h, k): 8x8 under 13x13 runs the dense form, 16x16 under 3x3 the shift-add
    SHAPES = {"dense": (8, 13), "tiled": (16, 3)}

    def _layer(self, rng, form):
        h, k = self.SHAPES[form]
        layer = ConvLayer(rng.standard_normal((4, 1, k, k)).astype(np.float32),
                          padding=k // 2, groups=4)
        return layer, rng.standard_normal((2, 4, h, h)).astype(np.float32)

    @pytest.mark.parametrize("form", ["dense", "tiled"])
    def test_kept_from_the_second_call(self, rng, form):
        layer, x = self._layer(rng, form)
        n, _, h, w = x.shape
        key = (n, h, w)
        first = conv2d(x, layer)
        assert _held(layer) == (key, False)
        np.testing.assert_array_equal(conv2d(x, layer), first)
        assert _held(layer) == (key, True)
        # the dense form keeps a (c, oh*ow, h*w) matrix, the shift-add a (rows, cols, n, c) tile
        assert layer._plan[1].ndim == {"dense": 3, "tiled": 4}[form]
        np.testing.assert_array_equal(conv2d(x, layer), first)

    @pytest.mark.parametrize("form", ["dense", "tiled"])
    def test_weight_written_in_place_is_seen(self, rng, form):
        layer, x = self._layer(rng, form)
        conv2d(x, layer)
        before = conv2d(x, layer)
        layer.weight.data[:, :, 1, 1] += 0.5
        after = conv2d(x, layer)
        fresh = ConvLayer(layer.weight.data.copy(), padding=layer.padding, groups=4)
        np.testing.assert_array_equal(after, conv2d(x, fresh))
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(conv2d(x, layer), after)

    def test_new_map_or_batch_size_replaces_the_entry(self, rng):
        dense, x = self._layer(rng, "dense")
        conv2d(x, dense)
        conv2d(x, dense)
        x7 = np.ascontiguousarray(x[:, :, :7, :7])    # 49 sites: still the dense form
        got = conv2d(x7, dense)
        assert _held(dense) == ((2, 7, 7), False)
        np.testing.assert_array_equal(got, conv2d(x7, ConvLayer(dense.weight.data, padding=6,
                                                                groups=4)))
        conv2d(x7, dense)
        single = conv2d(x7[:1], dense)
        assert _held(dense) == ((1, 7, 7), False)
        np.testing.assert_array_equal(single, got[:1])
        tiled, x = self._layer(rng, "tiled")
        conv2d(x, tiled)
        batched = conv2d(x, tiled)
        single = conv2d(x[:1], tiled)
        assert _held(tiled) == ((1, 16, 16), False)
        np.testing.assert_array_equal(single, batched[:1])
        conv2d(x[:1], tiled)
        x9 = np.ascontiguousarray(x[:1, :, :9, :9])   # 81 sites: still the shift-add
        got = conv2d(x9, tiled)
        assert _held(tiled) == ((1, 9, 9), False)
        np.testing.assert_array_equal(got, conv2d(x9, ConvLayer(tiled.weight.data, padding=1,
                                                                groups=4)))

    # (h, k, dilation) -> kept tile (live rows, live cols): 13x13 on 2x2 reaches the map
    # with its 3x3 centre taps, k3 r4 on 4x4 with its centre tap alone
    @pytest.mark.parametrize("h,k,r,live", [(2, 13, 1, 3), (4, 3, 4, 1)])
    def test_shift_add_keeps_only_its_live_taps(self, rng, h, k, r, live):
        layer = ConvLayer(rng.standard_normal((4, 1, k, k)).astype(np.float32),
                          padding=r * (k // 2), dilation=r, groups=4)
        x = rng.standard_normal((3, 4, h, h)).astype(np.float32)
        first = conv2d(x, layer)
        np.testing.assert_array_equal(conv2d(x, layer), first)
        assert layer._plan[1].shape == (live, live, 3, 4)

    @pytest.mark.parametrize("merged", [False, True])
    def test_one_forward_keeps_nothing_and_repeats_are_bit_identical(self, merged):
        m = build_model(TOY, seed=0, dtype=np.float32)
        m = merge_for_deploy(m) if merged else m
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        layers = _depthwise_layers(m)
        first = forward(m, x)
        assert not any(_held(layer)[1] for layer in layers)
        for _ in range(2):
            np.testing.assert_array_equal(forward(m, x), first)
        assert all(_held(layer)[1] for layer in layers)
        # both forms run: a dense tap matrix has rank 3, a shift-add tile rank 4
        assert {layer._plan[1].ndim for layer in layers} == {3, 4}
        # a converted copy builds new layers, which start with nothing kept
        assert all(_held(layer) == (None, False)
                   for layer in _depthwise_layers(model_astype(m, np.float64)))


class TestBatchNorm:
    def test_identity_statistics(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        bn = BnParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-15)
        np.testing.assert_allclose(batchnorm_infer(x, bn), x, rtol=1e-12)

    def test_constant_input_closed_form(self):
        x = np.full((1, 2, 3, 3), 5.0)
        bn = BnParams(np.array([2.0, 0.5]), np.array([1.0, -1.0]),
                      np.array([3.0, 7.0]), np.array([4.0, 1.0]), eps=0.25)
        out = batchnorm_infer(x, bn)
        expect0 = (5.0 - 3.0) / np.sqrt(4.25) * 2.0 + 1.0
        expect1 = (5.0 - 7.0) / np.sqrt(1.25) * 0.5 - 1.0
        np.testing.assert_allclose(out[0, 0], expect0)
        np.testing.assert_allclose(out[0, 1], expect1)

    def test_matches_scalar_oracle(self, rng):
        x = rng.standard_normal((2, 5, 6, 6))
        gamma, beta = rng.standard_normal(5), rng.standard_normal(5)
        mean, var = rng.standard_normal(5), rng.uniform(0.1, 2.0, 5)
        bn = BnParams(gamma, beta, mean, var, eps=1e-5)
        want = batchnorm_naive(x, gamma, beta, mean, var, 1e-5)
        np.testing.assert_allclose(batchnorm_infer(x, bn), want,
                                   rtol=1e-14, atol=1e-14)

    def test_channel_mismatch(self):
        bn = BnParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            batchnorm_infer(np.zeros((1, 2, 2, 2)), bn)

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_affine_matches_scalar_oracle(self, rng, with_bias):
        # BN(x + bias) = x * scale + shift per channel, bias being a folded conv's
        x = rng.standard_normal((2, 5, 6, 6))
        gamma, beta = rng.standard_normal(5), rng.standard_normal(5)
        mean, var = rng.standard_normal(5), rng.uniform(0.1, 2.0, 5)
        bias = rng.standard_normal(5) if with_bias else np.zeros(5)
        bn = BnParams(gamma, beta, mean, var)
        scale, shift = bn.affine(np.float64, bias) if with_bias else bn.affine(np.float64)
        want = batchnorm_naive(x + bias[:, None, None], gamma, beta, mean, var, 1e-5)
        np.testing.assert_allclose(x * scale[:, None, None] + shift[:, None, None], want,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batchnorm_applies_affine_bit_for_bit(self, rng, dtype):
        x = rng.standard_normal((2, 4, 5, 5)).astype(dtype)
        bn = BnParams(*(v.astype(dtype) for v in (rng.standard_normal(4), rng.standard_normal(4),
                                                   rng.standard_normal(4), rng.uniform(0.1, 2, 4))))
        scale, shift = bn.affine(dtype)
        assert scale.dtype == shift.dtype == dtype
        np.testing.assert_array_equal(batchnorm_infer(x, bn),
                                      x * scale[:, None, None] + shift[:, None, None])

    def test_numpy_eps_does_not_change_the_dtype_computed_in(self, rng):
        # a float64 scalar eps beside float32 statistics: computed in float32 all the same
        stats = [rng.standard_normal(8).astype(np.float32) for _ in range(3)]
        stats.append(rng.uniform(0.1, 2.0, 8).astype(np.float32))
        want = BnParams(*stats, eps=1e-5).affine(np.float32)
        got = BnParams(*stats, eps=np.float64(1e-5)).affine(np.float32)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_f64_statistics_on_f32_input_computed_in_f64_then_cast(self, rng):
        gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
        mean, var = rng.standard_normal(4), rng.uniform(0.1, 2.0, 4)
        x = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
        scale = gamma / np.sqrt(var + 1e-5)
        shift = beta - mean * scale
        out = batchnorm_infer(x, BnParams(gamma, beta, mean, var))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, x * scale.astype(np.float32)[:, None, None]
                                      + shift.astype(np.float32)[:, None, None])

    def test_negative_var_rejected(self):
        with pytest.raises(ShapeError):
            BnParams(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -0.1]))


class TestActivationsAndPooling:
    def test_gelu_exact_erf_form(self):
        from math import erf, sqrt
        x = np.array([1.0, -1.0, 0.0, 2.5]).reshape(1, 1, 2, 2)
        got = gelu(x).ravel()
        want = [0.5 * v * (1 + erf(v / sqrt(2))) for v in (1.0, -1.0, 0.0, 2.5)]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_linear_vector_and_batch(self, rng):
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        batch = rng.standard_normal((4, 5))
        np.testing.assert_allclose(linear(batch, w, b), batch @ w.T + b)

    def test_linear_width_mismatch(self):
        with pytest.raises(ShapeError):
            linear(np.zeros((2, 4)), np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(ShapeError):
            linear(np.zeros(5), np.zeros((3, 5)), np.zeros(3))
        with pytest.raises(ShapeError):
            linear(np.ones((2, 3)), np.ones((4, 3)), np.ones(1))


class TestGrn:
    def test_zero_gamma_beta_is_identity(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(grn(x, np.zeros(3), np.zeros(3)), x)

    def test_single_channel_closed_form(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        gamma, beta = np.array([0.7]), np.array([-0.2])
        out = grn(x, gamma, beta)
        np.testing.assert_allclose(out, 0.7 * x + (-0.2) + x, rtol=1e-5)

    def test_matches_scalar_oracle(self, rng):
        x = rng.standard_normal((2, 4, 5, 5))
        gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_allclose(
            grn(x, gamma, beta), grn_naive(x, gamma, beta),
            rtol=1e-12, atol=1e-12,
        )

    def test_param_length_mismatch(self):
        with pytest.raises(ShapeError):
            grn(np.zeros((1, 3, 2, 2)), np.zeros(2), np.zeros(2))


class TestElementwiseForms:
    """The float32 GELU's erf, tanh(z * P(z^2)), and the scale/shift forms of BN and GRN."""

    def test_f32_erf_within_1e6_of_f64_erf(self):
        from scipy.special import erf
        z = np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32)
        got = tensor._erf_f32(z.copy()).astype(np.float64)
        assert np.abs(got - erf(z.astype(np.float64))).max() <= 1e-6

    def test_f32_erf_odd_and_non_decreasing(self):
        z = np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32)
        got = tensor._erf_f32(z.copy())
        np.testing.assert_array_equal(tensor._erf_f32(-z).view(np.uint32), (-got).view(np.uint32))
        assert (np.diff(got) >= 0).all()

    def test_f32_erf_exactly_one_from_4_on(self):
        # the clip sends |z| >= 4 to z * P(z^2) = 10.5, where float32 tanh rounds to 1
        z = np.append(np.geomspace(4.0, 3.4e38, 10_001), np.finfo(np.float32).max).astype(np.float32)
        np.testing.assert_array_equal(tensor._erf_f32(z.copy()), np.ones_like(z))
        np.testing.assert_array_equal(tensor._erf_f32(-z), -np.ones_like(z))
        special = tensor._erf_f32(np.array([np.inf, -np.inf, np.nan], dtype=np.float32))
        assert special[0] == 1 and special[1] == -1 and np.isnan(special[2])

    def test_f32_gelu_finite_input_raises_no_warning(self, rng):
        big = np.finfo(np.float32).max
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.concatenate([rng.standard_normal(4096) * 3, np.linspace(-12, 12, 4097),
                            [0.0, -0.0, tiny, -tiny, 1e-30, -1e-30, 30.0, -30.0, big, -big]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gelu(x.astype(np.float32).reshape(1, 1, 1, -1))
        assert np.isfinite(out).all()

    def test_f32_gelu_near_f64_form(self, rng):
        from scipy.special import erf
        x = np.concatenate([rng.standard_normal(4096) * 3, np.linspace(-12, 12, 4097)])
        x32 = x.astype(np.float32)
        want = 0.5 * x32.astype(np.float64) * (1.0 + erf(x32.astype(np.float64) / np.sqrt(2.0)))
        got = gelu(x32.reshape(1, 1, 1, -1)).ravel()
        assert got.dtype == np.float32
        # erf error <= 1e-6 gives <= 0.5e-6 |x|; float32 rounding adds a few 1e-8 |x|
        assert (np.abs(got - want) <= 1e-6 * np.abs(x32)).all()

    def test_f32_gelu_special_values_match_scipy_form(self):
        # float64 too: both dtypes share gelu's tail, and float64 keeps scipy's erf
        from scipy.special import erf
        for dtype in (np.float32, np.float64):
            x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -30.0, 30.0, -3e38, 3e38],
                         dtype=dtype).reshape(1, 1, 1, -1)
            with np.errstate(invalid="ignore"):
                got = gelu(x)
                want = 0.5 * x * (1.0 + erf(x * dtype(np.sqrt(0.5))))
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)
            num = ~np.isnan(want)
            np.testing.assert_array_equal(np.signbit(got[num]), np.signbit(want[num]))
            assert got.ravel()[3] == np.inf and np.isnan(got.ravel()[4])

    @pytest.mark.parametrize("shape", [(2, 5, 6, 6), (3, 7, 1, 1), (1, 4, 3, 11)])
    def test_batchnorm_matches_oracle_f64(self, rng, shape):
        c = shape[1]
        x = rng.standard_normal(shape) * 4 + 2
        gamma, beta, mean = (rng.standard_normal(c) for _ in range(3))
        var = rng.uniform(0.01, 5.0, c)
        bn = BnParams(gamma, beta, mean, var, eps=1e-5)
        np.testing.assert_allclose(batchnorm_infer(x, bn),
                                   batchnorm_naive(x, gamma, beta, mean, var, 1e-5),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 6, 7, 7), (3, 5, 1, 1), (1, 9, 4, 13)])
    def test_grn_matches_oracle_f64(self, rng, shape):
        c = shape[1]
        x = rng.standard_normal(shape) * 3
        gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
        np.testing.assert_allclose(grn(x, gamma, beta), grn_naive(x, gamma, beta),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("op", ["gelu", "grn", "batchnorm_infer"])
    def test_batch_of_8_bit_equal_to_single_calls_f32(self, rng, op):
        x = rng.standard_normal((8, 40, 16, 16)).astype(np.float32)
        gamma, beta, mean = (rng.standard_normal(40).astype(np.float32) for _ in range(3))
        var = rng.uniform(0.1, 2.0, 40).astype(np.float32)
        fn = {
            "gelu": gelu,
            "grn": lambda t: grn(t, gamma, beta),
            "batchnorm_infer": lambda t: batchnorm_infer(t, BnParams(gamma, beta, mean, var)),
        }[op]
        batched = fn(x)
        assert batched.dtype == np.float32
        singles = [fn(x[i:i + 1]) for i in range(8)]
        np.testing.assert_array_equal(batched, np.concatenate(singles))

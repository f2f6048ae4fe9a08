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
from urlknet.tensor import Tensor4
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
        (13, 13, 13, 1, 1),   # h*w == k*k, over the 64-site cap: the shift-add form
        (3, 3, 3, 1, 1),      # h*w == k*k: the dense form
        (10, 17, 13, 1, 1),   # h*w == k*k + 1: the shift-add form
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

    # which form runs: only the shift-add form takes tap spans, only the dense form a tap table
    @pytest.mark.parametrize("h,w,k,shift_add", [
        (8, 8, 13, False), (5, 13, 13, True), (9, 9, 13, True),
        (3, 3, 3, False), (2, 5, 3, True), (7, 7, 7, False),
    ])
    def test_depthwise_form_rule(self, rng, monkeypatch, h, w, k, shift_add):
        spans, tables = [], []
        span, table = tensor._tap_span, tensor._tap_index
        monkeypatch.setattr(tensor, "_tap_span", lambda *a: spans.append(a) or span(*a))
        monkeypatch.setattr(tensor, "_tap_index", lambda *a: tables.append(a) or table(*a))
        layer = ConvLayer(rng.standard_normal((2, 1, k, k)), padding=k // 2, groups=2)
        conv2d(rng.standard_normal((1, 2, h, w)), layer)
        assert (bool(spans), bool(tables)) == (shift_add, not shift_add)

    @pytest.mark.parametrize("h,k,r", [(8, 13, 1), (4, 7, 2), (2, 13, 1)])
    def test_depthwise_small_map_batch_invariant_f32(self, rng, h, k, r):
        x = rng.standard_normal((8, 16, h, h)).astype(np.float32)
        wt = rng.standard_normal((16, 1, k, k)).astype(np.float32)
        layer = ConvLayer(wt, padding=r * (k - 1) // 2, dilation=r, groups=16)
        batched = conv2d(x, layer)
        singles = [conv2d(x[i:i + 1], layer) for i in range(8)]
        np.testing.assert_array_equal(batched, np.concatenate(singles))

    @pytest.mark.parametrize("seed", range(4))
    def test_tap_span_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            out_size, in_size, s, p, d, t = (int(v) for v in rng.integers(1, 9, 6))
            lo, hi, start = tensor._tap_span(out_size, in_size, s, p, d, t)
            reads = [o for o in range(out_size) if 0 <= o * s + t * d - p < in_size]
            assert list(range(lo, hi)) == reads
            if reads:
                assert start == lo * s + t * d - p

    # the shift-add form (maps above the dense form's cap): (h, w, k, stride, padding, dilation)
    @pytest.mark.parametrize("h,w,k,s,p,r", [
        (9, 8, 3, (2, 1), (1, 1), (1, 1)),     # per-axis stride
        (8, 9, 3, (1, 2), (1, 1), (1, 1)),
        (4, 4, 3, (1, 1), (5, 5), (5, 5)),     # dilation beyond the map: only the centre tap reads it
        (5, 3, 3, (1, 1), (5, 5), (5, 5)),
        (7, 6, 5, (1, 1), (2, 0), (1, 1)),     # ph != pw, "valid" along w
        (9, 9, 3, (1, 1), (0, 0), (2, 2)),     # "valid" along both axes
        (6, 7, 3, (2, 1), (3, 1), (1, 2)),
        (5, 13, 13, (1, 1), (6, 6), (1, 1)),   # non-square map
        (5, 13, 3, (1, 1), (1, 1), (1, 1)),
        (3, 9, 3, (1, 1), (4, 4), (4, 1)),     # row taps 0 and 2 read only padding, their columns do not
    ])
    def test_depthwise_shift_add_matches_naive(self, rng, monkeypatch, h, w, k, s, p, r):
        spans, span = [], tensor._tap_span
        monkeypatch.setattr(tensor, "_tap_span", lambda *a: spans.append(a) or span(*a))
        c = 3
        x = rng.standard_normal((2, c, h, w))
        wt = rng.standard_normal((c, 1, k, k))
        b = rng.standard_normal(c)
        layer = ConvLayer(wt, bias=b, stride=s, padding=p, dilation=r, groups=c)
        got = conv2d(x, layer)
        assert spans
        np.testing.assert_allclose(got, conv2d_naive(x, wt, b, s, p, r, c), rtol=1e-12, atol=1e-12)

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

    # every non-depthwise conv is one matmul over (n, g, ck, oh*ow) windows
    @pytest.mark.parametrize("k,s,p,g", [(1, 1, 0, 1), (3, 2, 1, 1), (3, 1, 1, 2)])
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
    """The float32 GELU's rational erf and the scale/shift forms of BN and GRN."""

    def test_f32_erf_within_1e6_of_f64_erf(self):
        from scipy.special import erf
        z = np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32)
        got = tensor._erf_f32(z.copy()).astype(np.float64)
        assert np.abs(got - erf(z.astype(np.float64))).max() <= 1e-6

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
        from scipy.special import erf
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, -30.0, 30.0, -3e38, 3e38],
                     dtype=np.float32).reshape(1, 1, 1, -1)
        with np.errstate(invalid="ignore"):
            got = gelu(x)
            want = 0.5 * x * (1.0 + erf(x * np.float32(np.sqrt(0.5))))
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

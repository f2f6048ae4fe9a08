"""Numeric primitives on (n, c, h, w) arrays, and the one input check.

The ops take and return plain numpy arrays; `checked_array` checks an array
once, where it enters the package (a forward input, an embedder output, a
conv weight). The reference numeric type is float64; float32 storage exists
for the benchmarking paths. All ops are pure functions of their arrays: they
never mutate their inputs and identical inputs produce bit-identical outputs.
The one state is what a depthwise layer keeps of its weight (below), which
changes no output.

Convolution comes in three forms: two for depthwise convs and one matmul for
every other conv. All three read the input through one list per axis,
`_live_taps`: each kernel row (column) that reads inside the map, with the
output rows (columns) it reaches and the input rows (columns) it reads. No
form pads the input, and a tap that reads only padding is never visited.

* depthwise — one of two forms, picked by the map size and the live taps: the
  live kernel rows times the live kernel columns. 13x13 on a 2x2 map has
  3*3 = 9 live taps.
    - dense, where h*w and oh*ow are both <= 64 and at least 25 taps are
      live: each channel is a dense (oh*ow, h*w) matrix whose entries are the
      kernel taps that link an output site to an input site (0 where none
      does), applied to each sample by one matrix-vector product per channel.
      It holds c*(oh*ow)*(h*w) <= c*64**2 elements, about 24x a 13x13 weight.
    - otherwise: an unpadded, channels-last per-tap shift-add. The input is
      laid out as (h, w, n, c), and each live tap adds w[tap] * (the input
      rows and columns it reads) into the output rows and columns it reaches,
      one contiguous broadcast over n*c per tap, with the live taps of the
      weight tiled to (live rows, live cols, n, c). Live taps are summed in
      row-major order from zero.
  The 25-tap floor is measured (f32): the shift-add was faster under k7 r2
  on 4x4 maps, under k5, k7 r2 and k3 r3 on 2x2 at batch 8, and under 13x13
  on 2x2 at batch 1; and k3 on 4x4 maps stays on it because a one-shot
  forward at batch 1, which builds the matrix for one product, ran slower
  with it dense. The rule reads neither the batch size nor a clock, so a
  batched call runs the same form as its single-sample calls and the forms
  are deterministic.
  A layer keeps one entry, keyed by the input's shape: the tap
  matrix, or the shift-add's tiled live taps. It is kept from the second call
  with the same key on, and a new key replaces it. A first call keeps
  nothing, so a one-shot forward (a model built, run once and dropped) pays
  no memory for it. A kept array is used only while the weight's bytes
  equal the copy taken when it was built; otherwise it is rebuilt.
* every other conv — one BLAS matmul of the (g, c_out/g, c_in/g*kh*kw)
  weight against the (n, c, kh, kw, oh, ow) im2col columns, laid out as
  (n, g, c_in/g*kh*kw, oh*ow): zeros, with each live tap's (output rows,
  output cols) block holding the input it reads. A 1x1, stride-1, unpadded
  kernel reads the input itself and copies nothing.

All satisfy the same contract: the value at each output site equals the
direct sliding-window sum over dilated taps, plus bias, up to the rounding of
the summation order. A batched call is bit-identical to concatenated
single-sample calls: every matmul runs one product per sample (per sample and
channel in the small-map form), because folding the batch into one product's
columns is not batch-invariant; the shift-add is elementwise.

The elementwise ops work in place on buffers they allocate. GELU in float64 is
the exact form 0.5*x*(1 + erf(x/sqrt(2))) with scipy's erf; in float32 erf is
tanh(z*P(z^2)) on z clamped to [-4, 4], P of degree 6 (absolute erf error
below 1e-6), so a GELU is 20 array passes and no divide. Batch norm and GRN
are pure per-channel scale/shift passes: x*scale + shift, with the (c,) scale
and shift taken from the BN statistics (`BnParams.affine`, which fuse_bn
also uses), or per sample from GRN's channel norms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError

SUPPORTED_DTYPES = (np.float64, np.float32)

_SQRT1_2 = float(np.sqrt(0.5))

# float32 erf(z) ~= tanh(z * P(z^2)) on |z| <= 4, highest power first. P is a minimax fit of
# atanh(erf z) on [0, 4] weighted by 1 - erf(z)^2 (the slope of tanh there), solved as a linear
# program under 4 * P(16) >= 10.5, so that float32 tanh rounds to exactly +-1 from |z| = 4 on.
_ERF_P = tuple(np.float32(v) for v in (
    1.993060152472026e-07, -6.6450975282350555e-06, 9.33887786231935e-05, -0.0006345011061057448,
    -0.00017536774976179004, 0.10276208817958832, 1.1283799409866333))


def _as_int(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _as_pair(value, name: str) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigError(f"{name} must be an int or a pair, got {value!r}")
        return _as_int(value[0], name), _as_int(value[1], name)
    return (_as_int(value, name),) * 2


def checked_array(data) -> np.ndarray:
    """data as a C-contiguous (n, c, h, w) float64 or float32 array; ShapeError otherwise."""
    arr = np.asarray(data)
    if arr.dtype not in SUPPORTED_DTYPES:
        raise ShapeError(f"unsupported dtype {arr.dtype}; expected float64 or float32")
    if arr.ndim != 4:
        raise ShapeError(f"expected a 4-D (n, c, h, w) array, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all dimensions must be >= 1, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Tensor4:
    """A checked_array held as `.data`: ConvLayer's weight, readable wherever an array is."""

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = checked_array(data)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.data, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class ConvLayer:
    """Convolution weights plus geometry.

    weight has shape (c_out, c_in/groups, k_h, k_w); bias, when present, has
    length c_out. A layer is depthwise iff groups == c_in == c_out.
    """

    weight: Tensor4  # given as any array; __post_init__ checks and wraps it
    bias: np.ndarray | None = None
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    dilation: tuple[int, int] = (1, 1)
    groups: int = 1
    # depthwise only: the one (key, array, weight bytes) entry conv2d keeps, keyed by the
    # input's shape (its dtype is the weight's); the shift-add keeps only its live taps (see _kept)
    _plan: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weight", Tensor4(self.weight))
        object.__setattr__(self, "stride", _as_pair(self.stride, "stride"))
        object.__setattr__(self, "padding", _as_pair(self.padding, "padding"))
        object.__setattr__(self, "dilation", _as_pair(self.dilation, "dilation"))
        object.__setattr__(self, "groups", _as_int(self.groups, "groups"))
        if self.groups < 1:
            raise ConfigError(f"groups must be >= 1, got {self.groups}")
        if min(self.stride) < 1 or min(self.dilation) < 1:
            raise ConfigError(f"stride {self.stride} and dilation {self.dilation} must be positive")
        if min(self.padding) < 0:
            raise ConfigError(f"padding must be non-negative, got {self.padding}")
        if self.out_channels % self.groups != 0:
            raise ShapeError(
                f"c_out={self.out_channels} not divisible by groups={self.groups}"
            )
        if self.bias is not None:
            b = np.asarray(self.bias)
            if b.shape != (self.out_channels,):
                raise ShapeError(
                    f"bias shape {b.shape} does not match c_out={self.out_channels}"
                )
            if b.dtype != self.weight.dtype:
                raise ShapeError(f"bias dtype {b.dtype} != weight dtype {self.weight.dtype}")
            object.__setattr__(self, "bias", np.ascontiguousarray(b))

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels == self.out_channels


@dataclass(frozen=True)
class BnParams:
    """Inference-mode batch-norm statistics for one channel axis."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        vecs = {
            "gamma": self.gamma,
            "beta": self.beta,
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }
        lengths = set()
        for name, v in vecs.items():
            arr = np.ascontiguousarray(v)
            if arr.ndim != 1:
                raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
            lengths.add(arr.shape[0])
            object.__setattr__(self, name, arr)
        if len(lengths) != 1:
            raise ShapeError(f"batch-norm vectors disagree on channel count: {sorted(lengths)}")
        # an infinite var or eps would turn the channel into its beta: scale = gamma/sqrt(inf) = 0
        if not np.all(np.isfinite(self.running_var) & (self.running_var >= 0)):
            raise ShapeError("running_var entries must be >= 0 and finite")
        if not 0 < self.eps < np.inf:
            raise ConfigError(f"eps must be > 0 and finite, got {self.eps}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def affine(self, dtype, bias=0) -> tuple[np.ndarray, np.ndarray]:
        """(scale, shift) with BN(x + bias) = x * scale + shift per channel: gamma / sqrt(var + eps)
        and beta + (bias - mean) * scale, computed in the vectors' own dtype and cast to dtype."""
        scale = self.gamma / np.sqrt(self.running_var + float(self.eps))  # float: keeps their dtype
        shift = self.beta + (bias - self.running_mean) * scale
        return scale.astype(dtype, copy=False), shift.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    """Closed-form output extent: floor((size + 2p - d*(k-1) - 1) / s) + 1."""
    return (size + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def _live_taps(out_size, in_size, stride, pad, dilation, k):
    """[(tap, output slice, input slice)] along one axis for each of the k taps that reads
    inside the map: output o's tap t reads input o*stride + t*dilation - pad."""
    taps = []
    for t in range(k):
        off = t * dilation - pad
        lo = max(0, -(off // stride))
        hi = min(out_size, (in_size - 1 - off) // stride + 1)
        if hi > lo:
            i0 = lo * stride + off
            taps.append((t, slice(lo, hi), slice(i0, i0 + (hi - lo - 1) * stride + 1, stride)))
    return taps


def _tap_index(taps, out_size, in_size, k):
    """(out_size, in_size) table: the tap of `taps` by which output o reads input site i, or k."""
    table = np.full((out_size, in_size), k)
    for t, o, i in taps:
        table[np.arange(out_size)[o], np.arange(in_size)[i]] = t
    return table


# the dense depthwise form runs on maps of at most this many sites, under kernels
# with at least this many taps that reach the map; see the module docstring
_DENSE_MAX_SITES = 64
_DENSE_MIN_TAPS = 25


def _kept(layer, key, build):
    """build(), kept in layer._plan as (key, array, weight bytes) from the second
    call with this key on, and reused while the weight's bytes are unchanged."""
    if layer._plan[0] != key:
        object.__setattr__(layer, "_plan", (key, None, None))
        return build()
    # compared as bytes, so any in-place write to the weight is seen
    weight = layer.weight.data.tobytes()
    if layer._plan[2] != weight:
        object.__setattr__(layer, "_plan", (key, build(), weight))
    return layer._plan[1]


def _conv2d_depthwise(x, layer, rows, cols, oh, ow):
    n, c, h, w = x.shape
    weight = layer.weight.data
    kh, kw = layer.kernel_size
    key = (n, h, w)
    if max(h * w, oh * ow) <= _DENSE_MAX_SITES and len(rows) * len(cols) >= _DENSE_MIN_TAPS:
        def taps():
            # each channel is one dense (oh*ow, h*w) matrix of kernel taps, gathered
            # from the weight with a zero tap appended for sites no tap reaches
            wz = np.zeros((c, kh + 1, kw + 1), dtype=x.dtype)
            wz[:, :kh, :kw] = weight[:, 0]
            index = (_tap_index(rows, oh, h, kh)[:, None, :, None] * (kw + 1)
                     + _tap_index(cols, ow, w, kw)[None, :, None, :])
            # np.take keeps m C-contiguous, which matmul needs to stay on BLAS
            return np.take(wz.reshape(c, -1), index, axis=1).reshape(c, oh * ow, h * w)

        m = _kept(layer, key, taps)
        # m broadcasts over the batch: one product per (sample, channel), so a batch
        # is bit-equal to single calls
        return np.matmul(m, x.reshape(n, c, h * w, 1)).reshape(n, c, oh, ow)
    # per-tap shift-add over the live taps in (h, w, n, c) layout, so each pass is one
    # long contiguous broadcast over n*c; a tap adds only where it reads inside the map
    xt = np.ascontiguousarray(x.transpose(2, 3, 0, 1))
    # (live rows, live cols, n, c): the live taps repeated per sample, so a tap's multiply
    # also runs over n*c
    wt = _kept(layer, key, lambda: np.tile(weight[:, 0].transpose(1, 2, 0)[np.ix_(
        [r[0] for r in rows], [q[0] for q in cols])][:, :, None], (1, 1, n, 1)))
    out = np.zeros((oh, ow, n, c), dtype=x.dtype)
    tmp = np.empty_like(out)
    for (_, ro, ri), wrow in zip(rows, wt):
        for (_, co, ci), wtap in zip(cols, wrow):
            out[ro, co] += np.multiply(xt[ri, ci], wtap, out=tmp[ro, co])
    return np.ascontiguousarray(out.transpose(2, 3, 0, 1))


def conv2d(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """2-D convolution with stride, zero-padding, dilation and channel groups.

    Output spatial size follows conv_output_size per axis; a non-positive
    result raises ShapeError. The value at each site is the sliding-window
    sum over dilated taps plus bias.
    """
    w = layer.weight.data
    if w.dtype != x.dtype:
        raise ShapeError(f"input dtype {x.dtype} != weight dtype {w.dtype}")
    g = layer.groups
    c_out, cin_g, kh, kw = w.shape
    n, c, ih, iw = x.shape
    if c != cin_g * g:
        raise ShapeError(
            f"input has {c} channels but layer expects {cin_g * g} "
            f"(c_in/g={cin_g}, groups={g})"
        )
    sh, sw = layer.stride
    ph, pw = layer.padding
    dh, dw = layer.dilation
    oh = conv_output_size(ih, kh, sh, ph, dh)
    ow = conv_output_size(iw, kw, sw, pw, dw)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} (dilation {dh}x{dw}, padding {ph}x{pw}) does not fit "
            f"input {ih}x{iw}: output would be {oh}x{ow}"
        )

    # the live kernel rows and columns, which every form reads
    rows = _live_taps(oh, ih, sh, ph, dh, kh)
    cols = _live_taps(ow, iw, sw, pw, dw, kw)
    if layer.is_depthwise:
        out = _conv2d_depthwise(x, layer, rows, cols, oh, ow)
    else:
        # one (c_out/g, ck) @ (ck, oh*ow) product per sample and group over im2col columns, zero
        # but where a live tap reads; a 1x1, stride-1, unpadded kernel reads x and copies nothing
        im2col = x
        if (kh, kw, sh, sw, ph, pw) != (1, 1, 1, 1, 0, 0):
            im2col = np.zeros((n, c, kh, kw, oh, ow), dtype=x.dtype)
            for i, ro, ri in rows:
                for j, co, ci in cols:
                    im2col[:, :, i, j, ro, co] = x[:, :, ri, ci]
        ck = cin_g * kh * kw
        out = np.matmul(w.reshape(g, c_out // g, ck), im2col.reshape(n, g, ck, oh * ow))
        out = out.reshape(n, c_out, oh, ow)

    if layer.bias is not None:
        out += layer.bias[None, :, None, None]
    return out


# ---------------------------------------------------------------------------
# normalization, activations, linear
# ---------------------------------------------------------------------------

def batchnorm_infer(x: np.ndarray, bn: BnParams) -> np.ndarray:
    """Per-channel affine map (x - mean) / sqrt(var + eps) * gamma + beta, as x * scale + shift."""
    if x.shape[1] != bn.channels:
        raise ShapeError(f"input has {x.shape[1]} channels, BN has {bn.channels}")
    scale, shift = bn.affine(x.dtype)
    out = x * scale[:, None, None]
    out += shift[:, None, None]
    return out


def _erf_f32(z: np.ndarray) -> np.ndarray:
    """erf of a float32 array as tanh(z * P(z^2)); overwrites z, which must be a fresh buffer."""
    np.clip(z, -4, 4, out=z)
    z2 = z * z
    p = z2 * _ERF_P[0]
    p += _ERF_P[1]
    for c in _ERF_P[2:]:
        p *= z2
        p += c
    p *= z
    return np.tanh(p, out=p)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian-CDF form: 0.5 * x * (1 + erf(x / sqrt(2))).

    float64 uses scipy's erf. float32 uses erf ~= tanh(z * P(z^2)), whose
    absolute error is below 1e-6 (1.9e-7 measured against the float64 erf over
    every float32 z); it keeps the float64 form's values at +-0, NaN and +-inf.
    """
    z = x * x.dtype.type(_SQRT1_2)
    out = _erf_f32(z) if x.dtype == np.float32 else erf(z, out=z)
    out += 1
    out *= 0.5  # exact, so this equals (0.5 * x) * (1 + erf)
    out *= x
    return out


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = x @ weight.T + bias for a (batch, in) matrix.

    Rows are multiplied sample by sample so that a batched call is
    bit-identical to concatenated single-sample calls.
    """
    if x.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear input must be (n, {weight.shape[1]}), got shape {x.shape}")
    if np.shape(bias) != weight.shape[:1]:
        raise ShapeError(f"linear bias must have shape {weight.shape[:1]}, got {np.shape(bias)}")
    return np.matmul(x[:, None, :], weight.T)[:, 0, :] + bias


def grn(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Global response normalization.

    Per sample: G_c = spatial L2 norm of channel c, N_c = G_c / (mean_c(G) + 1e-6),
    output = gamma * (x * N) + beta + x, computed as x * (1 + gamma * N) + beta.
    """
    gamma = np.asarray(gamma)
    beta = np.asarray(beta)
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"grn gamma/beta must have shape ({c},), got {gamma.shape} and {beta.shape}"
        )
    xf = x.reshape(x.shape[0], c, -1)
    gx = np.sqrt(np.einsum("ncs,ncs->nc", xf, xf))       # (n, c), no x*x temporary
    nx = gx / (gx.mean(axis=1, keepdims=True) + x.dtype.type(1e-6))
    out = x * (1 + gamma * nx)[:, :, None, None]
    out += beta[:, None, None]
    return out

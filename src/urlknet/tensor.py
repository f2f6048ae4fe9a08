"""Numeric primitives on (n, c, h, w) arrays, and the one input check.

The ops take and return plain numpy arrays; `checked_array` checks an array
once, where it enters the package (a forward input, an embedder output, a
conv weight). The reference numeric type is float64; float32 storage exists
for the benchmarking paths. All ops are pure functions of their arrays: they
never mutate their inputs and identical inputs produce bit-identical outputs.

Convolution comes in three forms: two for depthwise convs and one matmul for
every other conv. Only the matmul reads the tap-window view `_windows`.

* depthwise — one of two forms, picked from the map and kernel sizes:
    - small map (h*w and oh*ow both <= min(kh*kw, 64)): each channel is a
      dense (oh*ow, h*w) matrix whose entries are the kernel taps that link
      an output site to an input site (0 where none does), applied to each
      sample by one matrix-vector product per channel. It does no more
      multiply-adds per output than the tap sum, and its transient matrix
      holds c*(oh*ow)*(h*w) <= c*min(kh*kw, 64)**2 elements. The 64-site cap
      is measured: the matrix is rebuilt and streamed on every call, and at
      batch 8 under 13x13 it still beat the shift-add on 8x8 and 4x4 maps.
    - larger map: an unpadded, channels-last per-tap shift-add. The input is
      laid out as (h, w, n, c), and each kernel tap adds w[tap] * (the input
      rows and columns it reads) into the output rows and columns it reaches,
      one contiguous broadcast over n*c per tap. The span arithmetic
      (`_tap_span`) covers stride, dilation and per-axis padding, so nothing
      is padded, and a tap that reads only padding costs nothing. Taps are
      summed in row-major order from zero.
* every other conv — one BLAS matmul of the (g, c_out/g, c_in/g*kh*kw)
  weight against the tap-window view `_windows` (the padded input as an
  (n, c, oh, ow, kh, kw) strided view) laid out as (n, g, c_in/g*kh*kw,
  oh*ow); a 1x1, stride-1, unpadded kernel lays out as a view of the input

All satisfy the same contract: the value at each output site equals the
direct sliding-window sum over dilated taps, plus bias, up to the rounding of
the summation order. A batched call is bit-identical to concatenated
single-sample calls: every matmul runs one product per sample (the small-map
form loops over samples for this), because folding the batch into one
product's columns is not batch-invariant; the shift-add is elementwise.

The elementwise ops work in place on buffers they allocate. GELU in float64 is
the exact form 0.5*x*(1 + erf(x/sqrt(2))) with scipy's erf; in float32 erf is
the Eigen/XLA rational form z*P(z^2)/Q(z^2) on z clamped to [-4, 4], built
from in-place ufuncs (absolute erf error below 1e-6). Batch norm and GRN are
pure per-channel scale/shift passes: x*scale + shift, with the (c,) scale and
shift taken from the BN statistics, or per sample from GRN's channel norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, GeometryError, ShapeError

SUPPORTED_DTYPES = (np.float64, np.float32)

_SQRT1_2 = float(np.sqrt(0.5))

# float32 erf(z) ~= z * P(z^2) / Q(z^2) on |z| <= 4 (Eigen/XLA coefficients, highest power first)
_ERF_P = tuple(np.float32(v) for v in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(v) for v in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))


def _as_pair(value, name: str) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ConfigError(f"{name} must be an int or a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


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

    def __post_init__(self):
        object.__setattr__(self, "weight", Tensor4(self.weight))
        object.__setattr__(self, "stride", _as_pair(self.stride, "stride"))
        object.__setattr__(self, "padding", _as_pair(self.padding, "padding"))
        object.__setattr__(self, "dilation", _as_pair(self.dilation, "dilation"))
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
        if np.any(self.running_var < 0):
            raise ShapeError("running_var entries must be >= 0")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    """Closed-form output extent: floor((size + 2p - d*(k-1) - 1) / s) + 1."""
    return (size + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def _pad_input(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = x
    return out


def _tap_index(out_size, in_size, stride, pad, dilation, k):
    """(out_size, in_size) table: the tap by which output o reads input site i, or k for none."""
    t, rem = np.divmod(np.arange(in_size)[None, :] - np.arange(out_size)[:, None] * stride + pad,
                       dilation)
    return np.where((rem == 0) & (t >= 0) & (t < k), t, k)


# largest map (in sites) given the dense depthwise form; see the module docstring
_DENSE_MAX_SITES = 64


def _windows(x, kh, kw, sh, sw, ph, pw, dh, dw):
    """(n, c, oh, ow, kh, kw) read-only view of the padded input: the taps of each output site."""
    xp = _pad_input(x, ph, pw)
    n, c, h, w = xp.shape
    _, _, rs, cs = xp.strides
    # stride steps the window origin, dilation steps the taps inside the window
    return np.lib.stride_tricks.as_strided(
        xp, (n, c, conv_output_size(h, kh, sh, 0, dh), conv_output_size(w, kw, sw, 0, dw), kh, kw),
        xp.strides[:2] + (rs * sh, cs * sw, rs * dh, cs * dw), writeable=False)


def _tap_span(out_size, in_size, stride, pad, dilation, t):
    """(lo, hi, in_start): the outputs [lo, hi) whose input o*stride + t*dilation - pad
    lies inside [0, in_size), and that input for o = lo; hi <= lo when tap t reads only padding."""
    off = t * dilation - pad
    lo = max(0, -(off // stride))
    hi = min(out_size, (in_size - 1 - off) // stride + 1)
    return lo, hi, lo * stride + off


def _conv2d_depthwise(x, weight, sh, sw, ph, pw, dh, dw, oh, ow):
    n, c, h, w = x.shape
    kh, kw = weight.shape[2], weight.shape[3]
    if max(h * w, oh * ow) <= min(kh * kw, _DENSE_MAX_SITES):
        # small map: each channel is one dense (oh*ow, h*w) matrix of kernel taps,
        # gathered from the weight with a zero tap appended for sites no tap reaches
        wz = np.zeros((c, kh + 1, kw + 1), dtype=x.dtype)
        wz[:, :kh, :kw] = weight[:, 0]
        taps = (_tap_index(oh, h, sh, ph, dh, kh)[:, None, :, None] * (kw + 1)
                + _tap_index(ow, w, sw, pw, dw, kw)[None, :, None, :])
        # np.take keeps m C-contiguous, which matmul needs to stay on BLAS
        m = np.take(wz.reshape(c, -1), taps, axis=1).reshape(c, oh * ow, h * w)
        out = np.empty((n, c, oh * ow, 1), dtype=x.dtype)
        for i in range(n):  # sample by sample, so a batch is bit-equal to single calls
            np.matmul(m, x[i].reshape(c, h * w, 1), out=out[i])
        return out.reshape(n, c, oh, ow)
    # larger map: per-tap shift-add in (h, w, n, c) layout, so each pass is one long
    # contiguous broadcast over n*c; a tap adds only where it reads inside the map
    xt = np.ascontiguousarray(x.transpose(2, 3, 0, 1))
    # (kh, kw, n, c): the weight repeated per sample, so a tap's multiply also runs over n*c
    wt = np.tile(weight[:, 0].transpose(1, 2, 0)[:, :, None], (1, 1, n, 1))
    out = np.zeros((oh, ow, n, c), dtype=x.dtype)
    tmp = np.empty_like(out)
    cols = [_tap_span(ow, w, sw, pw, dw, j) for j in range(kw)]
    for i in range(kh):
        r0, r1, ri = _tap_span(oh, h, sh, ph, dh, i)
        for j, (c0, c1, ci) in enumerate(cols):
            if r1 <= r0 or c1 <= c0:
                continue
            xs = xt[ri:ri + (r1 - r0 - 1) * sh + 1:sh, ci:ci + (c1 - c0 - 1) * sw + 1:sw]
            out[r0:r1, c0:c1] += np.multiply(xs, wt[i, j], out=tmp[:r1 - r0, :c1 - c0])
    return np.ascontiguousarray(out.transpose(2, 3, 0, 1))


def conv2d(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """2-D convolution with stride, zero-padding, dilation and channel groups.

    Output spatial size follows conv_output_size per axis; a non-positive
    result raises GeometryError. The value at each site is the sliding-window
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
        raise GeometryError(
            f"kernel {kh}x{kw} (dilation {dh}x{dw}, padding {ph}x{pw}) does not fit "
            f"input {ih}x{iw}: output would be {oh}x{ow}"
        )

    if layer.is_depthwise:
        out = _conv2d_depthwise(x, w, sh, sw, ph, pw, dh, dw, oh, ow)
    else:
        # one (c_out/g, ck) @ (ck, oh*ow) product per sample and group; for a 1x1,
        # stride-1, unpadded kernel the reshape is a view of x and copies nothing
        ck = cin_g * kh * kw
        cols = _windows(x, kh, kw, sh, sw, ph, pw, dh, dw).transpose(0, 1, 4, 5, 2, 3)
        out = np.matmul(w.reshape(g, c_out // g, ck), cols.reshape(n, g, ck, oh * ow))
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
    dtype = x.dtype
    scale = bn.gamma.astype(dtype) / np.sqrt(bn.running_var.astype(dtype) + dtype.type(bn.eps))
    shift = bn.beta.astype(dtype) - bn.running_mean.astype(dtype) * scale
    out = x * scale[:, None, None]
    out += shift[:, None, None]
    return out


def _erf_f32(z: np.ndarray) -> np.ndarray:
    """erf of a float32 array by the rational form; overwrites z, which must be a fresh buffer."""
    np.clip(z, -4, 4, out=z)
    z2 = z * z
    p = z2 * _ERF_P[0]
    p += _ERF_P[1]
    for c in _ERF_P[2:]:
        p *= z2
        p += c
    p *= z
    q = np.multiply(z2, _ERF_Q[0], out=z)
    q += _ERF_Q[1]
    for c in _ERF_Q[2:]:
        q *= z2
        q += c
    p /= q
    return p


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian-CDF form: 0.5 * x * (1 + erf(x / sqrt(2))).

    float64 uses scipy's erf. float32 uses a rational erf whose absolute error
    is below 1e-6 (4.4e-7 measured against the float64 erf); it keeps the
    float64 form's values at +-0, NaN and +-inf.
    """
    if x.dtype != np.float32:
        return 0.5 * x * (1.0 + erf(x * x.dtype.type(_SQRT1_2)))
    out = _erf_f32(x * np.float32(_SQRT1_2))
    out += 1
    out *= 0.5  # exact, so this equals (0.5 * x) * (1 + erf) as in the float64 form
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

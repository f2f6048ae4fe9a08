"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written as plain scalar loops, independent of
the vectorized library paths it checks. Accumulation follows ascending
(channel, kernel-row, kernel-col) index order.
"""

import math

import numpy as np


def conv2d_naive(x, weight, bias=None, stride=(1, 1), padding=(0, 0),
                 dilation=(1, 1), groups=1):
    """Direct sliding-window convolution, triple-loop per output site."""
    n, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    oh = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    ow = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    cog = cout // groups
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oc in range(cout):
            g = oc // cog
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cin_g):
                        xc = g * cin_g + ic
                        for i in range(kh):
                            iy = oy * sh - ph + i * dh
                            if iy < 0 or iy >= h:
                                continue
                            for j in range(kw):
                                ix = ox * sw - pw + j * dw
                                if ix < 0 or ix >= w:
                                    continue
                                acc += weight[oc, ic, i, j] * x[ni, xc, iy, ix]
                    if bias is not None:
                        acc += bias[oc]
                    out[ni, oc, oy, ox] = acc
    return out


def batchnorm_naive(x, gamma, beta, mean, var, eps):
    out = np.empty_like(x)
    n, c, h, w = x.shape
    for ni in range(n):
        for ci in range(c):
            s = math.sqrt(var[ci] + eps)
            for yi in range(h):
                for xi in range(w):
                    out[ni, ci, yi, xi] = (x[ni, ci, yi, xi] - mean[ci]) / s * gamma[ci] + beta[ci]
    return out


def grn_naive(x, gamma, beta, eps=1e-6):
    n, c, h, w = x.shape
    out = np.empty_like(x)
    for ni in range(n):
        norms = [math.sqrt(float((x[ni, ci] ** 2).sum())) for ci in range(c)]
        mean_norm = sum(norms) / c
        for ci in range(c):
            nx = norms[ci] / (mean_norm + eps)
            out[ni, ci] = gamma[ci] * (x[ni, ci] * nx) + beta[ci] + x[ni, ci]
    return out


def se_naive(x, reduce_w, reduce_b, expand_w, expand_b):
    n, c, h, w = x.shape
    hidden_n = reduce_w.shape[0]
    out = np.empty_like(x)
    for ni in range(n):
        pooled = [float(x[ni, ci].mean()) for ci in range(c)]
        hidden = []
        for hi in range(hidden_n):
            v = reduce_b[hi] + sum(reduce_w[hi, ci] * pooled[ci] for ci in range(c))
            hidden.append(max(v, 0.0))
        for ci in range(c):
            v = expand_b[ci] + sum(expand_w[ci, hi] * hidden[hi] for hi in range(hidden_n))
            gate = 1.0 / (1.0 + math.exp(-v))
            out[ni, ci] = x[ni, ci] * gate
    return out


def time_series_embed_naive(data, nodes, projection, target_hw):
    """Each pipeline step materialized separately with explicit loops."""
    b, l, d = data.shape
    dn = d // nodes
    latent = projection.shape[0]
    split = np.zeros((b * nodes, l, dn), dtype=np.float64)
    for bi in range(b):
        for j in range(nodes):
            for li in range(l):
                for f in range(dn):
                    split[bi * nodes + j, li, f] = data[bi, li, j * dn + f]
    projected = np.zeros((b * nodes, l, latent))
    for row in range(b * nodes):
        for li in range(l):
            for o in range(latent):
                projected[row, li, o] = sum(
                    projection[o, f] * split[row, li, f] for f in range(dn)
                )
    h, w = target_hw
    out = np.zeros((b * nodes, 1, h, w))
    for row in range(b * nodes):
        flat = projected[row].reshape(-1)
        for yi in range(h):
            for xi in range(w):
                out[row, 0, yi, xi] = flat[yi * w + xi]
    return out

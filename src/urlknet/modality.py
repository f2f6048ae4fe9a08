"""Preprocessors turning non-image modalities into (B, C', H, W) embedding maps.

Each embedder is a pure function of its array and checks that array itself,
raising ShapeError on a malformed one:

    embed_time_series(data, nodes, projection, target_hw)   (B, L, D)        -> (B*n, 1, H, W)
    embed_audio(data)                                        (B, T, F)        -> (B, 1, T, F)
    embed_pointcloud(data)                                   (B, P, 3)        -> (B, 3, 224, 224)
    embed_video(data, grid=None)                             (B, N_F, 3, h, w) -> (B, 3, rows*h, cols*w)

Audio and video are exact permutations of the input values; time-series is a
node split, a linear projection, and a row-major reshape; point clouds are
rasterized into three-view orthographic projections at a fixed 224x224
resolution.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor4

POINTCLOUD_RESOLUTION = 224


def most_square_grid(n: int) -> tuple[int, int]:
    """Factor n as rows*cols with rows <= cols, rows as large as possible."""
    if n < 1:
        raise ConfigError(f"frame count must be positive, got {n}")
    for rows in range(int(np.sqrt(n)), 0, -1):
        if n % rows == 0:
            return rows, n // rows
    return 1, n


def embed_time_series(data, nodes: int, projection, target_hw: tuple[int, int]) -> Tensor4:
    """(B, L, D) -> (B*n, L, D/n) -> project -> (B*n, 1, H, W).

    The node split acts on the feature axis: sample b, node j lands at batch
    row b*n + j. The (D', D/n) projection maps the D/n node features to D'
    values per step; the (L, D') plane then reshapes row-major into the
    target map, so H*W must equal L*D'.
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ShapeError(f"time-series data must be (B, L, D), got shape {data.shape}")
    b, l, d = data.shape
    if nodes < 1 or d % nodes != 0:
        raise ShapeError(f"node count {nodes} must divide feature width {d}")
    proj = np.asarray(projection)
    if proj.ndim != 2 or proj.shape[1] != d // nodes:
        raise ShapeError(f"projection must map {d // nodes} -> D', got shape {proj.shape}")
    h, w = int(target_hw[0]), int(target_hw[1])
    if min(h, w) < 1:
        raise ShapeError(f"target map sides must be positive, got {h}x{w}")
    latent = proj.shape[0]
    if h * w != l * latent:
        raise ShapeError(
            f"target map {h}x{w} has {h * w} cells but L*D' = {l}*{latent} = {l * latent}"
        )
    split = data.reshape(b, l, nodes, d // nodes).transpose(0, 2, 1, 3)
    projected = split.reshape(b * nodes, l, d // nodes) @ proj.T
    return Tensor4(projected.reshape(b * nodes, 1, h, w))


def embed_audio(data) -> Tensor4:
    """(B, T, F) spectrogram batch -> (B, 1, T, F); values unchanged."""
    data = np.asarray(data)
    if data.ndim != 3 or min(data.shape) < 1:
        raise ShapeError(f"audio data must be (B, T, F), got shape {data.shape}")
    b, t, f = data.shape
    return Tensor4(data.reshape(b, 1, t, f))


def _rasterize_views(points: np.ndarray, res: int) -> np.ndarray:
    """Three-view projection of one normalized-unit-cube cloud, (3, res, res) counts."""
    out = np.zeros((3, res, res), dtype=np.float64)
    pix = np.rint(points * (res - 1)).astype(np.intp)
    for view in range(3):
        rows_axis, cols_axis = [a for a in range(3) if a != view]
        np.add.at(out[view], (pix[:, rows_axis], pix[:, cols_axis]), 1.0)
    return out


def embed_pointcloud(data) -> Tensor4:
    """(B, P, 3) XYZ coordinates -> (B, 3, 224, 224) three-view occupancy projections.

    Per sample: min-max normalize all coordinates jointly into the unit cube,
    rasterize each point to its nearest pixel in each of the three axis-drop
    views, accumulate counts, and scale each view to a maximum of 1. A sample
    whose points all coincide puts its whole mass on the center pixel.
    """
    data = np.asarray(data)
    if data.ndim != 3 or data.shape[2] != 3 or min(data.shape) < 1:
        raise ShapeError(f"point-cloud data must be (B, P, 3) with B, P >= 1, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ShapeError("point-cloud coordinates must be finite")
    res = POINTCLOUD_RESOLUTION
    maps = []
    for cloud in data:
        if np.all(cloud == cloud[0]):
            view = np.zeros((3, res, res), dtype=np.float64)
            view[:, res // 2, res // 2] = 1.0
        else:
            lo, hi = cloud.min(), cloud.max()
            view = _rasterize_views((cloud - lo) / (hi - lo), res)
            view /= view.max(axis=(1, 2), keepdims=True)
        maps.append(view)
    return Tensor4(np.stack(maps))


def embed_video(data, grid: tuple[int, int] | None = None) -> Tensor4:
    """(B, N_F, 3, h, w) -> (B, 3, rows*h, cols*w); frame t fills grid cell (t//cols, t%cols).

    The (rows, cols) grid defaults to most_square_grid(N_F).
    """
    data = np.asarray(data)
    if data.ndim != 5 or data.shape[2] != 3:
        raise ShapeError(f"video data must be (B, N_F, 3, h, w), got shape {data.shape}")
    b, nf, _, h, w = data.shape
    rows, cols = most_square_grid(nf) if grid is None else (int(grid[0]), int(grid[1]))
    if min(rows, cols) < 1:
        raise ShapeError(f"grid sides must be positive, got {rows}x{cols}")
    if rows * cols != nf:
        raise ShapeError(f"grid {rows}x{cols} does not hold N_F={nf} frames")
    tiled = data.reshape(b, rows, cols, 3, h, w).transpose(0, 3, 1, 4, 2, 5)
    return Tensor4(tiled.reshape(b, 3, rows * h, cols * w))

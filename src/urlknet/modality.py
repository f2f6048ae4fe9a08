"""Preprocessors turning non-image modalities into (B, C', H, W) embedding maps.

Each embedder is a pure function of its batch. Audio and video are exact
permutations of the input values; time-series is a node split, a linear
projection, and a row-major reshape; point clouds are rasterized into
three-view orthographic projections at a fixed 224x224 resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor4

POINTCLOUD_RESOLUTION = 224


@dataclass(frozen=True)
class TimeSeriesBatch:
    """(B, L, D) sequence batch plus the embedding-map hyper-parameters.

    The node count must divide D, and the target map must have positive sides
    with H*W == L * latent_width.
    """

    data: np.ndarray
    nodes: int
    latent_width: int
    target_hw: tuple[int, int]

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ShapeError(f"time-series data must be (B, L, D), got shape {arr.shape}")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "target_hw", (int(self.target_hw[0]), int(self.target_hw[1])))
        if self.nodes < 1 or arr.shape[2] % self.nodes != 0:
            raise ShapeError(
                f"node count {self.nodes} must divide feature width {arr.shape[2]}"
            )
        h, w = self.target_hw
        if min(h, w) < 1:
            raise ShapeError(f"target map sides must be positive, got {h}x{w}")
        if h * w != arr.shape[1] * self.latent_width:
            raise ShapeError(
                f"target map {h}x{w} has {h * w} cells but L*D' = "
                f"{arr.shape[1]}*{self.latent_width} = {arr.shape[1] * self.latent_width}"
            )


@dataclass(frozen=True)
class AudioBatch:
    """(B, T, F) spectrogram batch: T time frames by F frequency bins."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ShapeError(f"audio data must be (B, T, F), got shape {arr.shape}")
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class PointCloudBatch:
    """(B, P, 3) XYZ coordinates; projections render at a fixed 224 resolution."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3 or min(arr.shape) < 1:
            raise ShapeError(f"point-cloud data must be (B, P, 3) with B, P >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("point-cloud coordinates must be finite")
        object.__setattr__(self, "data", arr)


@dataclass(frozen=True)
class VideoBatch:
    """(B, N_F, 3, h, w) frame batch with an optional (rows, cols) layout grid."""

    data: np.ndarray
    grid: tuple[int, int] | None = None

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 5 or arr.shape[2] != 3:
            raise ShapeError(f"video data must be (B, N_F, 3, h, w), got shape {arr.shape}")
        object.__setattr__(self, "data", arr)
        grid = self.grid if self.grid is not None else most_square_grid(arr.shape[1])
        grid = (int(grid[0]), int(grid[1]))
        if min(grid) < 1:
            raise ShapeError(f"grid sides must be positive, got {grid[0]}x{grid[1]}")
        if grid[0] * grid[1] != arr.shape[1]:
            raise ShapeError(
                f"grid {grid[0]}x{grid[1]} does not hold N_F={arr.shape[1]} frames"
            )
        object.__setattr__(self, "grid", grid)


def most_square_grid(n: int) -> tuple[int, int]:
    """Factor n as rows*cols with rows <= cols, rows as large as possible."""
    if n < 1:
        raise ConfigError(f"frame count must be positive, got {n}")
    for rows in range(int(np.sqrt(n)), 0, -1):
        if n % rows == 0:
            return rows, n // rows
    return 1, n


def embed_time_series(batch: TimeSeriesBatch, projection: np.ndarray) -> Tensor4:
    """(B, L, D) -> (B*n, L, D/n) -> project -> (B*n, 1, H, W).

    The node split acts on the feature axis: sample b, node j lands at batch
    row b*n + j. The projection maps the D/n node features to latent_width
    values per step; the (L, latent_width) plane then reshapes row-major into
    the target map.
    """
    b, l, d = batch.data.shape
    n = batch.nodes
    proj = np.asarray(projection)
    if proj.shape != (batch.latent_width, d // n):
        raise ShapeError(
            f"projection must map {d // n} -> {batch.latent_width}, got shape {proj.shape}"
        )
    nodes = batch.data.reshape(b, l, n, d // n).transpose(0, 2, 1, 3).reshape(b * n, l, d // n)
    latent = nodes @ proj.T
    h, w = batch.target_hw
    return Tensor4(latent.reshape(b * n, 1, h, w))


def embed_audio(batch: AudioBatch) -> Tensor4:
    """(B, T, F) -> (B, 1, T, F); values unchanged."""
    b, t, f = batch.data.shape
    return Tensor4(batch.data.reshape(b, 1, t, f))


def _rasterize_views(points: np.ndarray, res: int) -> np.ndarray:
    """Three-view projection of one normalized-unit-cube cloud, (3, res, res) counts."""
    out = np.zeros((3, res, res), dtype=np.float64)
    pix = np.rint(points * (res - 1)).astype(np.intp)
    for view in range(3):
        rows_axis, cols_axis = [a for a in range(3) if a != view]
        np.add.at(out[view], (pix[:, rows_axis], pix[:, cols_axis]), 1.0)
    return out


def embed_pointcloud(batch: PointCloudBatch) -> Tensor4:
    """(B, P, 3) -> (B, 3, 224, 224) three-view occupancy projections.

    Per sample: min-max normalize all coordinates jointly into the unit cube,
    rasterize each point to its nearest pixel in each of the three axis-drop
    views, accumulate counts, and scale each view to a maximum of 1. A sample
    whose points all coincide puts its whole mass on the center pixel.
    """
    res = POINTCLOUD_RESOLUTION
    maps = []
    for cloud in batch.data:
        if np.all(cloud == cloud[0]):
            view = np.zeros((3, res, res), dtype=np.float64)
            view[:, res // 2, res // 2] = 1.0
        else:
            lo, hi = cloud.min(), cloud.max()
            view = _rasterize_views((cloud - lo) / (hi - lo), res)
            view /= view.max(axis=(1, 2), keepdims=True)
        maps.append(view)
    return Tensor4(np.stack(maps))


def embed_video(batch: VideoBatch) -> Tensor4:
    """(B, N_F, 3, h, w) -> (B, 3, rows*h, cols*w); frame t fills grid cell (t//cols, t%cols)."""
    b, nf, _, h, w = batch.data.shape
    rows, cols = batch.grid
    tiled = batch.data.reshape(b, rows, cols, 3, h, w).transpose(0, 3, 1, 4, 2, 5)
    return Tensor4(tiled.reshape(b, 3, rows * h, cols * w))

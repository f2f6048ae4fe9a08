import numpy as np
import pytest

from urlknet import (
    ShapeError,
    embed_audio,
    embed_pointcloud,
    embed_time_series,
    embed_video,
)
from urlknet.modality import most_square_grid
from oracles import time_series_embed_naive


class TestTimeSeries:
    def test_identity_projection_is_a_permutation(self, rng):
        data = rng.standard_normal((1, 32, 4))
        out = embed_time_series(data, 1, np.eye(4), (8, 16))
        assert out.shape == (1, 1, 8, 16)
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(data.ravel()))

    def test_node_split_expands_batch(self, rng):
        data = rng.standard_normal((3, 8, 4))
        out = embed_time_series(data, 2, np.eye(2), (4, 4))
        assert out.shape == (6, 1, 4, 4)
        # node j of sample b sits at row b*2 + j and carries features [2j, 2j+2)
        np.testing.assert_array_equal(
            out[2, 0].ravel(), data[1, :, 0:2].ravel())
        np.testing.assert_array_equal(
            out[3, 0].ravel(), data[1, :, 2:4].ravel())

    def test_random_projection_matches_step_oracle(self, rng):
        data = rng.standard_normal((2, 6, 6))
        proj = rng.standard_normal((3, 3))
        got = embed_time_series(data, 2, proj, (9, 2))
        want = time_series_embed_naive(data, 2, proj, (9, 2))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_map_size_constraint(self, rng):
        with pytest.raises(ShapeError, match="has 120 cells but L"):
            embed_time_series(rng.standard_normal((1, 32, 4)), 1, np.eye(4), (8, 15))

    def test_node_divisibility(self, rng):
        with pytest.raises(ShapeError, match="must divide feature width"):
            embed_time_series(rng.standard_normal((1, 8, 5)), 2, np.eye(2), (4, 4))

    def test_projection_shape_checked(self, rng):
        # three input features against D/n = 4
        with pytest.raises(ShapeError, match="projection must map 4"):
            embed_time_series(rng.standard_normal((1, 8, 4)), 1, np.eye(3), (8, 3))

    def test_no_projection_is_the_identity(self, rng):
        data = rng.standard_normal((2, 8, 6)).astype(np.float32)
        none = embed_time_series(data, 2, None, (8, 3))
        eye = embed_time_series(data, 2, np.eye(3), (8, 3))
        assert none.dtype == eye.dtype == np.float64
        np.testing.assert_array_equal(none, eye)

    def test_batch_shuffle_commutes(self, rng):
        data = rng.standard_normal((4, 8, 4))
        perm = np.array([2, 0, 3, 1])
        proj = rng.standard_normal((4, 4))
        straight = embed_time_series(data, 1, proj, (8, 4))
        shuffled = embed_time_series(data[perm], 1, proj, (8, 4))
        np.testing.assert_array_equal(shuffled, straight[perm])


class TestAudio:
    def test_shapes(self, rng):
        out = embed_audio(rng.standard_normal((2, 128, 64)))
        assert out.shape == (2, 1, 128, 64)

    def test_roundtrip_recovers_input(self, rng):
        data = rng.standard_normal((2, 7, 5))
        out = embed_audio(data)
        np.testing.assert_array_equal(out[:, 0], data)

    def test_rank_checked(self, rng):
        with pytest.raises(ShapeError, match="must be \\(B, T, F\\)"):
            embed_audio(rng.standard_normal((2, 7)))


class TestPointCloud:
    def test_single_point_hits_center(self):
        out = embed_pointcloud(np.array([[[0.3, -1.0, 2.0]]]))
        assert out.shape == (1, 3, 224, 224)
        for v in range(3):
            channel = out[0, v]
            assert channel[112, 112] == 1.0
            assert channel.sum() == 1.0

    def test_translation_invariance(self, rng):
        # the joint min-max normalization cancels any constant offset
        cloud = rng.standard_normal((1, 50, 3))
        a = embed_pointcloud(cloud)
        b = embed_pointcloud(cloud + 37.5)
        np.testing.assert_array_equal(a, b)

    def test_channels_normalized_to_one(self, rng):
        out = embed_pointcloud(rng.standard_normal((2, 300, 3)))
        for bi in range(2):
            for v in range(3):
                assert out[bi, v].max() == 1.0
                assert out[bi, v].min() >= 0.0

    def test_deterministic(self, rng):
        cloud = rng.standard_normal((1, 40, 3))
        a = embed_pointcloud(cloud)
        b = embed_pointcloud(cloud)
        np.testing.assert_array_equal(a, b)

    def test_nonfinite_rejected(self):
        with pytest.raises(ShapeError, match="must be finite"):
            embed_pointcloud(np.array([[[np.nan, 0.0, 0.0]]]))

    def test_batch_shuffle_commutes(self, rng):
        clouds = rng.standard_normal((3, 25, 3))
        perm = np.array([1, 2, 0])
        a = embed_pointcloud(clouds)
        b = embed_pointcloud(clouds[perm])
        np.testing.assert_array_equal(b, a[perm])


class TestVideo:
    def test_sixteen_frames_of_224_tile_to_896(self, rng):
        frames = rng.standard_normal((1, 16, 3, 224, 224)).astype(np.float32)
        out = embed_video(frames)
        assert out.shape == (1, 3, 896, 896)

    def test_single_frame_unchanged(self, rng):
        frames = rng.standard_normal((2, 1, 3, 5, 7))
        out = embed_video(frames)
        np.testing.assert_array_equal(out, frames[:, 0])

    def test_quadrant_layout(self):
        frames = np.stack([np.full((3, 2, 2), float(v)) for v in (1, 2, 3, 4)])[None]
        out = embed_video(frames)[0, 0]
        np.testing.assert_array_equal(out, np.array([
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ], dtype=float))

    def test_values_are_a_permutation(self, rng):
        frames = rng.standard_normal((1, 6, 3, 4, 4))
        out = embed_video(frames, grid=(2, 3))
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(frames.ravel()))

    def test_bad_grid(self, rng):
        with pytest.raises(ShapeError, match="does not hold N_F=6"):
            embed_video(rng.standard_normal((1, 6, 3, 2, 2)), (2, 2))

    def test_default_grid_is_most_square(self):
        assert most_square_grid(16) == (4, 4)
        assert most_square_grid(6) == (2, 3)
        assert most_square_grid(7) == (1, 7)
        assert most_square_grid(12) == (3, 4)


@pytest.mark.parametrize("embed,args,message", [
    (embed_time_series, (np.zeros((8, 4)), 1, np.eye(4), (4, 8)), "must be \\(B, L, D\\)"),
    (embed_time_series, (np.zeros((1, 8, 4)), 1, np.eye(4), (-4, -8)), "sides must be positive"),
    (embed_audio, (np.zeros((2, 0, 3)),), "must be \\(B, T, F\\)"),
    (embed_pointcloud, (np.zeros((1, 5, 2)),), "B, P >= 1"),
    (embed_video, (np.zeros((1, 4, 1, 2, 2)),), "must be \\(B, N_F, 3, h, w\\)"),
    (embed_video, (np.zeros((1, 2, 3, 2, 2)), (-1, -2)), "sides must be positive"),
    # the three below are caught by checked_array on the returned map, not the input checks
    (embed_video, (np.zeros((1, 4, 3, 0, 5)),), "all dimensions must be >= 1"),
    (embed_time_series, (np.zeros((1, 8, 4), dtype=np.int64), 1, np.eye(4, dtype=np.int64), (4, 8)),
     "unsupported dtype int64"),
    (embed_audio, (np.zeros((2, 8, 3), dtype=np.float16),), "unsupported dtype float16"),
], ids=["ts-rank", "ts-sides", "audio-empty", "pointcloud-xy", "video-rgb", "video-grid-sign",
        "video-empty-frame", "ts-int64", "audio-f16"])
def test_embedder_checks_its_input(embed, args, message):
    # the ShapeError branches the per-modality classes above do not reach
    with pytest.raises(ShapeError, match=message):
        embed(*args)


@pytest.mark.parametrize("embed,args", [
    (embed_time_series, (np.zeros((1, 8, 4)), 1, np.eye(4), (4, 8))),
    (embed_audio, (np.zeros((2, 8, 3), dtype=np.float32),)),
    (embed_pointcloud, (np.arange(6.0).reshape(1, 2, 3),)),
    (embed_video, (np.zeros((1, 4, 3, 2, 2)),)),
], ids=["time-series", "audio", "pointcloud", "video"])
def test_embedder_returns_a_plain_array(embed, args):
    # an embedding map is the same plain (n, c, h, w) array a forward takes
    out = embed(*args)
    assert type(out) is np.ndarray and out.ndim == 4 and out.flags.c_contiguous

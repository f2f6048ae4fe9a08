import errno
import hashlib
import io
import json
import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from urlknet import (
    FormatError,
    arch_config,
    build_model,
    build_named,
    forward,
    merge_for_deploy,
    model_astype,
)
from urlknet import container
from urlknet.container import (
    MAGIC,
    load_model,
    load_tensor,
    read_container,
    save_model,
    save_tensor,
    write_container,
)
from urlknet.model import ArchConfig, build_from_state, iter_state
from helpers import TOY

# stage 3 lays out LarK, SmaK, SmaK like S, so SmaK blocks sit past stage 1
TOY3 = ArchConfig(depths=(1, 1, 3, 1), width=8, stage3_lark=1, num_classes=10)


def state_dict(model):
    return {name: arr for name, arr in iter_state(model)}


class TestRoundTrip:
    def test_model_roundtrip_bitwise(self, tmp_path):
        model = build_named("A", seed=3)
        path = tmp_path / "a.urlk"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.name == "A" and loaded.mode == "train-structure"
        original = state_dict(model)
        restored = state_dict(loaded)
        assert original.keys() == restored.keys()
        for name in original:
            np.testing.assert_array_equal(original[name], restored[name], err_msg=name)

    def test_container_names_the_architecture_it_holds(self, tmp_path):
        # the name is derived from the config: a model built from A's config saves as A,
        # and build_model takes no name that could claim another instance
        path = tmp_path / "a.urlk"
        save_model(path, build_model(arch_config("A", num_classes=7), seed=0))
        assert read_container(path)[0]["model_name"] == "A"
        assert load_model(path).name == "A"
        with pytest.raises(TypeError):
            build_model(arch_config("S"), name="A")

    def test_merged_f32_roundtrip(self, tmp_path):
        model = model_astype(merge_for_deploy(build_named("A", seed=0)), np.float32)
        path = tmp_path / "a32.urlk"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.mode == "merged"
        assert loaded.dtype == np.float32
        for (n1, a1), (n2, a2) in zip(iter_state(model), iter_state(loaded)):
            assert n1 == n2 and a1.dtype == a2.dtype
            np.testing.assert_array_equal(a1, a2)
        # the payload is held once: nothing the size of a second copy is allocated on the way
        payload_bytes = sum(arr.nbytes for _, arr in iter_state(model))
        tracemalloc.start()
        try:
            _, tensors = read_container(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload_bytes, (peak, payload_bytes)
        assert all(arr.flags.aligned and arr.flags.c_contiguous for _, arr in tensors)

    def test_misaligned_tensor_is_copied_aligned(self, tmp_path):
        # the f64 tensor starts 12 bytes into the payload
        path = tmp_path / "mixed.urlk"
        small, wide = np.arange(3, dtype=np.float32), np.arange(2, dtype=np.float64)
        write_container(path, [("small", small), ("wide", wide)])
        _, tensors = read_container(path)
        assert [arr.flags.aligned for _, arr in tensors] == [True, True]
        np.testing.assert_array_equal(tensors[1][1], wide)

    # 24-byte runs split the payload between tensors and leave "mid" a buffer of its own
    @pytest.mark.parametrize("run_bytes", [container._RUN_BYTES, 24])
    def test_zero_element_tensors_roundtrip(self, tmp_path, monkeypatch, run_bytes):
        # empty tensors first, between and last, and a 0-d one: each reads back with its
        # shape and dtype
        monkeypatch.setattr(container, "_RUN_BYTES", run_bytes)
        path = tmp_path / "empty.urlk"
        written = [("lead", np.zeros((0, 4), dtype=np.float32)),
                   ("mid", np.arange(4, dtype=np.float64)),
                   ("scalar", np.array(2.5, dtype=np.float32)),
                   ("gap", np.zeros((2, 0, 3))),
                   ("tail", np.zeros(0, dtype=np.float32))]
        write_container(path, written)
        _, tensors = read_container(path)
        assert [name for name, _ in tensors] == [name for name, _ in written]
        for (_, a), (_, b) in zip(written, tensors):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert b.flags.aligned and b.flags.c_contiguous
            np.testing.assert_array_equal(a, b)

    def test_forward_after_roundtrip_is_bitwise_equal(self, tmp_path):
        model = build_named("A", seed=1)
        path = tmp_path / "w.urlk"
        save_model(path, model)
        loaded = load_model(path)
        x = np.random.default_rng(9).standard_normal((1, 3, 64, 64))
        np.testing.assert_array_equal(forward(loaded, x), forward(model, x))

    def test_single_tensor_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((2, 3, 4, 5)).astype(np.float32)
        path = tmp_path / "t.urlk"
        save_tensor(path, "embedding", arr)
        name, back = load_tensor(path)
        assert name == "embedding"
        np.testing.assert_array_equal(back, arr)

    def test_manifest_contents(self, tmp_path):
        model = build_model(TOY, seed=0)
        path = tmp_path / "toy.urlk"
        save_model(path, model)
        manifest, tensors = read_container(path)
        assert manifest["format_version"] == 1
        assert manifest["model_name"] == "custom"
        assert manifest["mode"] == "train-structure"
        assert len(manifest["tensors"]) == len(tensors)
        entry = manifest["tensors"][0]
        assert set(entry) == {"name", "shape", "dtype", "byte_offset", "byte_length"}
        # contiguous, no padding
        offset = 0
        for e in manifest["tensors"]:
            assert e["byte_offset"] == offset
            offset += e["byte_length"]


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.urlk"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_container(path)

    def test_file_too_short(self, tmp_path):
        path = tmp_path / "short.urlk"
        path.write_bytes(MAGIC[:3])
        with pytest.raises(FormatError, match="too short"):
            read_container(path)

    @pytest.mark.parametrize("text", [b"not json", b"\xff\xfe"], ids=["not-json", "not-utf8"])
    def test_manifest_not_json(self, tmp_path, text):
        path = tmp_path / "text.urlk"
        path.write_bytes(MAGIC + struct.pack("<I", len(text)) + text)
        with pytest.raises(FormatError, match="manifest is not valid JSON"):
            read_container(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.urlk"
        save_tensor(path, "x", np.ones((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            read_container(path)

    def test_trailing_payload_bytes(self, tmp_path):
        path = tmp_path / "long.urlk"
        save_tensor(path, "x", np.ones((4, 4)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError, match="payload holds 136 bytes but manifest accounts for 128"):
            read_container(path)

    def test_file_shrunk_after_size_check(self, tmp_path, monkeypatch):
        path = tmp_path / "shrunk.urlk"
        save_tensor(path, "x", np.ones((4, 4)))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-40])
        # the manifest checks see the full size; the tensor read then comes up short
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(FormatError, match="shrank while tensor 'x' was read"):
            read_container(path)

    def test_truncated_manifest(self, tmp_path):
        path = tmp_path / "tm.urlk"
        path.write_bytes(MAGIC + struct.pack("<I", 9999) + b"{}")
        with pytest.raises(FormatError, match="manifest"):
            read_container(path)

    def test_noncontiguous_offsets(self, tmp_path):
        manifest = json.dumps({
            "format_version": 1, "model_name": "", "mode": "data",
            "tensors": [{"name": "x", "shape": [2], "dtype": "f64",
                         "byte_offset": 8, "byte_length": 16}],
        }).encode()
        path = tmp_path / "gap.urlk"
        path.write_bytes(MAGIC + struct.pack("<I", len(manifest)) + manifest + b"\x00" * 24)
        with pytest.raises(FormatError, match="contiguous"):
            read_container(path)

    def test_shape_mismatch_vs_manifest(self, tmp_path):
        model = build_model(TOY, seed=0)
        arrays = state_dict(model)
        arrays["head.fc.bias"] = np.zeros(11)
        path = tmp_path / "shape.urlk"
        write_container(path, list(arrays.items()), model_name="A", mode="train-structure")
        with pytest.raises(FormatError):
            load_model(path)

    def test_missing_tensor(self, tmp_path):
        model = build_named("A", seed=0)
        arrays = state_dict(model)
        arrays.pop("head.fc.weight")
        path = tmp_path / "missing.urlk"
        write_container(path, list(arrays.items()), model_name="A", mode="train-structure")
        with pytest.raises(FormatError):
            load_model(path)

    def test_extra_tensor_rejected(self, tmp_path):
        model = build_named("A", seed=0)
        arrays = state_dict(model)
        arrays["stage9.block0.mystery"] = np.zeros(3)
        path = tmp_path / "extra.urlk"
        write_container(path, list(arrays.items()), model_name="A", mode="train-structure")
        with pytest.raises(FormatError, match="unexpected"):
            load_model(path)

    @pytest.mark.parametrize("empty", ["stem.conv1.weight", "head.fc"])
    def test_empty_stem_or_head_dimension(self, tmp_path, empty):
        # input channels and class count are read from these shapes; a 0 there is a bad file
        arrays = state_dict(build_named("A", seed=0))
        if empty == "head.fc":
            arrays["head.fc.weight"] = np.zeros((0, arrays["head.fc.weight"].shape[1]))
            arrays["head.fc.bias"] = np.zeros(0)
        else:
            arrays[empty] = np.zeros((20, 0, 3, 3))
        path = tmp_path / "empty.urlk"
        write_container(path, list(arrays.items()), model_name="A", mode="train-structure")
        with pytest.raises(FormatError, match=f"tensor '{empty}.*empty dimension"):
            load_model(path)

    @pytest.mark.parametrize("tensor", ["stem.conv1.weight", "head.fc.bias"])
    @pytest.mark.parametrize("how", ["missing", "0-d"])
    def test_stem_or_head_tensor_unreadable(self, tensor, how):
        # input channels and class count are read from these shapes, so they must exist
        # and have the dimension read; TOY's stem and head names are A's
        arrays = state_dict(build_model(TOY, seed=0))
        if how == "missing":
            del arrays[tensor]
        else:
            arrays[tensor] = np.zeros(())
        with pytest.raises(FormatError, match="lacks a well-formed stem.conv1.weight or head.fc.bias"):
            build_from_state("A", "train-structure", arrays)

    def test_unknown_model_name(self, tmp_path):
        path = tmp_path / "who.urlk"
        model = build_named("A", seed=0)
        write_container(path, list(iter_state(model)), model_name="Q", mode="train-structure")
        with pytest.raises(FormatError, match="unknown model"):
            load_model(path)

    def test_unknown_mode(self, tmp_path):
        path = tmp_path / "mode.urlk"
        model = build_named("A", seed=0)
        write_container(path, list(iter_state(model)), model_name="A", mode="eval")
        with pytest.raises(FormatError, match="mode"):
            load_model(path)

    def test_mixed_dtypes_rejected(self, mixed_dtype_weights):
        # a model holds one dtype, with every BN eps in f64 as save_model writes it
        with pytest.raises(FormatError, match="one dtype"):
            load_model(mixed_dtype_weights)

    @pytest.mark.parametrize("tensor,value,match", [
        ("stage1.block0.bn1.eps", 0.0, "eps must be > 0"),
        ("stage2.block0.bn1.running_var", -1.0, "running_var entries must be >= 0"),
    ], ids=["eps-0", "negative-var"])
    def test_rejected_bn_statistics_are_format_errors(self, tmp_path, tensor, value, match):
        # BnParams rejects these; loaded from a file, they are a malformed container
        arrays = state_dict(build_named("A", seed=0))
        arrays[tensor] = np.full_like(arrays[tensor], value)
        path = tmp_path / "bn.urlk"
        write_container(path, list(arrays.items()), model_name="A", mode="train-structure")
        with pytest.raises(FormatError, match=match):
            load_model(path)

    def test_unsupported_dtype_is_not_written(self, tmp_path):
        path = tmp_path / "i.urlk"
        with pytest.raises(FormatError, match="unsupported dtype int32"):
            save_tensor(path, "x", np.zeros(3, dtype=np.int32))
        assert list(tmp_path.iterdir()) == []


def write_raw_manifest(path, manifest, payload=b""):
    blob = json.dumps(manifest).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload)


class TestMalformedManifest:
    def test_manifest_not_an_object(self, tmp_path):
        path = tmp_path / "list.urlk"
        write_raw_manifest(path, [1, 2, 3])
        with pytest.raises(FormatError, match="must be a JSON object"):
            read_container(path)

    @pytest.mark.parametrize("entry", [
        {"name": "x", "dtype": "f64", "shape": [1], "byte_offset": 0},
        {"name": "x", "dtype": "f16", "shape": [1], "byte_offset": 0, "byte_length": 8},
        {"name": "x", "dtype": [], "shape": [1], "byte_offset": 0, "byte_length": 8},
    ], ids=["no-length", "unknown-dtype", "list-dtype"])
    def test_malformed_tensor_entry(self, tmp_path, entry):
        path = tmp_path / "entry.urlk"
        write_raw_manifest(path, {"format_version": 1, "model_name": "", "mode": "data",
                                  "tensors": [entry]}, b"\x00" * 8)
        with pytest.raises(FormatError, match="malformed tensor entry"):
            read_container(path)

    def test_tensors_not_a_list(self, tmp_path):
        path = tmp_path / "five.urlk"
        write_raw_manifest(path, {"format_version": 1, "model_name": "", "mode": "data",
                                  "tensors": 5})
        with pytest.raises(FormatError, match="must be a list"):
            read_container(path)

    def test_tensor_entry_not_an_object(self, tmp_path):
        path = tmp_path / "entry.urlk"
        write_raw_manifest(path, {"format_version": 1, "model_name": "", "mode": "data",
                                  "tensors": [5]})
        with pytest.raises(FormatError, match="must be a JSON object"):
            read_container(path)

    @pytest.mark.parametrize("manifest,payload", [
        ({"format_version": 1, "model_name": ["A"], "mode": "data", "tensors": []}, b""),
        ({"format_version": 1, "model_name": "", "mode": "data",
          "tensors": [{"name": ["x"], "shape": [1], "dtype": "f64", "byte_offset": 0,
                       "byte_length": 8}]}, b"\x00" * 8),
    ], ids=["model_name", "tensor_name"])
    def test_non_string_names(self, tmp_path, manifest, payload):
        path = tmp_path / "names.urlk"
        write_raw_manifest(path, manifest, payload)
        with pytest.raises(FormatError, match="must be a string"):
            read_container(path)

    # 8 f64 values fill the 64-byte payload, so int() would have read the
    # float and bool shapes as (2, 4) and (1, 8)
    @pytest.mark.parametrize("shape", [[-2, -4], "8", [2, 4.9], [True, 8], [1] * 64 + [8]],
                             ids=["negative", "string", "float", "bool", "65-dims"])
    def test_malformed_shape(self, tmp_path, shape):
        path = tmp_path / "shape.urlk"
        write_raw_manifest(path, {"format_version": 1, "model_name": "", "mode": "data",
                                  "tensors": [{"name": "x", "shape": shape, "dtype": "f64",
                                               "byte_offset": 0, "byte_length": 64}]},
                           b"\x00" * 64)
        with pytest.raises(FormatError, match="malformed shape"):
            read_container(path)

    def test_overflowing_shape(self, tmp_path):
        # 2**64 elements wrap to 0 in int64, which matched byte_length 0
        path = tmp_path / "huge.urlk"
        write_raw_manifest(path, {"format_version": 1, "model_name": "", "mode": "data",
                                  "tensors": [{"name": "x", "shape": [2**32, 2**32], "dtype": "f64",
                                               "byte_offset": 0, "byte_length": 0}]})
        with pytest.raises(FormatError, match="shape needs"):
            read_container(path)

    @pytest.mark.parametrize("offset,length", [(float("inf"), 8), (0, "8")],
                             ids=["infinite-offset", "string-length"])
    def test_non_integer_byte_fields(self, tmp_path, offset, length):
        path = tmp_path / "fields.urlk"
        write_raw_manifest(path, {"format_version": 1, "model_name": "", "mode": "data",
                                  "tensors": [{"name": "x", "shape": [1], "dtype": "f64",
                                               "byte_offset": offset, "byte_length": length}]},
                           b"\x00" * 8)
        with pytest.raises(FormatError, match="must be integers"):
            read_container(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None], ids=["true", "float", "string", "missing"])
    def test_format_version_must_be_the_integer_1(self, tmp_path, version):
        path = tmp_path / "version.urlk"
        manifest = {"model_name": "", "mode": "data", "tensors": []}
        if version is not None:
            manifest["format_version"] = version
        write_raw_manifest(path, manifest)
        with pytest.raises(FormatError, match="format_version"):
            read_container(path)

    def test_duplicate_tensor_name(self, tmp_path):
        model = build_model(TOY, seed=0)
        tensors = list(iter_state(model))
        first = tensors[0]
        assert first[0] == "stem.conv1.weight"
        path = tmp_path / "dup.urlk"
        write_container(path, tensors + [(first[0], np.zeros_like(first[1]))],
                        model_name="custom", mode="train-structure")
        with pytest.raises(FormatError, match="duplicate tensor name"):
            read_container(path)


# sha256 of save_model output at seed 0; any change to the draw order, the
# tensor layout or the byte encoding changes these
PINNED_SHA256 = {
    ("TOY", "train-structure", "f64"): "ecc7227bf7dd945c4ec9c03ffef184969a4de818f86f15d74d0382ef27e131f8",
    ("TOY", "train-structure", "f32"): "b3a283d1acde448fd6edb5ac5252e22d68a3de97b882fa0c4a78eb58be0a5f8d",
    ("TOY", "merged", "f64"): "afebed132e85d8f5d1bcab8d155d1ed4fbd267a74f4fd3e8943222ab2b3fa3f3",
    ("TOY", "merged", "f32"): "37d7d81dafe6ce6ce566c127da4539cf749a65085e4dfcdd1e8dc5e96d2b3a40",
    ("TOY3", "train-structure", "f64"): "ef675e6daa726e0a6f9c7e35bb0809efdf74a9e03cc0ce379f5a3534d4b10756",
    ("TOY3", "train-structure", "f32"): "a154b124c3965532b0ef50ef3787efa2e28f348a47782d93701847d8d233eee3",
    ("TOY3", "merged", "f64"): "531d4598b81b5eb3835bdf08bc44a3591b29640d35f997091d55a9c9f51d8b19",
    ("TOY3", "merged", "f32"): "1ea7305fed2adda132232b9e7b3636756e62306c5afc66ecbd2fc8573aa57ee2",
    ("A", "train-structure", "f64"): "ee64d861a6cdd5b8707a12a2d492384346bca3d014c33c0c1ffa0e7cb9e1128b",
    ("A", "train-structure", "f32"): "569b653245f0b1e8b3729c2837cd9cfa9d245120e7ec9e8946c5ff07bcebf479",
    ("A", "merged", "f64"): "ef6111f525b661a8f291a36665d05be8a4e60d87e837efebc3d1b510a7658b90",
    ("A", "merged", "f32"): "af8946cbf8fc2c2b5364b6814acfb91b5f3abf8302ef1622490b6453752427e5",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", ["TOY", "TOY3", "A"])
    def test_save_model_bytes(self, tmp_path, name):
        toys = {"TOY": TOY, "TOY3": TOY3}
        train = build_model(toys[name], seed=0) if name in toys else build_named("A", seed=0)
        for mode, model in (("train-structure", train), ("merged", merge_for_deploy(train))):
            for tag, dtype in (("f64", np.float64), ("f32", np.float32)):
                path = tmp_path / f"{name}-{mode}-{tag}.urlk"
                save_model(path, model_astype(model, dtype) if tag == "f32" else model)
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                assert digest == PINNED_SHA256[(name, mode, tag)], (name, mode, tag)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestReplace:
    def test_failed_write_leaves_old_container(self, tmp_path, monkeypatch):
        path = tmp_path / "toy.urlk"
        save_model(path, build_model(TOY, seed=0))
        old = path.read_bytes()
        new = build_model(TOY, seed=1)
        # fail once half of the new payload has been written
        limit = len(old) - sum(arr.nbytes for _, arr in iter_state(new)) // 2

        class DiskFull(io.FileIO):
            def write(self, b):
                if self.tell() + memoryview(b).nbytes > limit:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(b)

        monkeypatch.setattr(container, "open", lambda file, mode: DiskFull(file, mode.rstrip("b")),
                            raising=False)
        # OSError too, so a writer that truncates first fails on the bytes check
        with pytest.raises((FormatError, OSError)) as info:
            save_model(path, new)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["toy.urlk"]
        assert isinstance(info.value, FormatError) and "No space left" in str(info.value)

    def test_interrupted_write_leaves_old_container(self, tmp_path, monkeypatch):
        path = tmp_path / "t.urlk"
        save_tensor(path, "x", np.zeros(3))
        old = path.read_bytes()

        def interrupt(*args):
            raise KeyboardInterrupt

        # the header is packed once the temp file is open
        monkeypatch.setattr(container, "struct", SimpleNamespace(pack=interrupt))
        with pytest.raises(KeyboardInterrupt):
            save_tensor(path, "x", np.ones(3))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["t.urlk"]

    @pytest.mark.parametrize("window", ["remove", "rename"])
    def test_failed_swap(self, tmp_path, monkeypatch, window):
        # before the old file is removed, the temp goes and the old file stays; after it,
        # the complete temp is kept and named, since it holds the only container
        path = tmp_path / "t.urlk"
        save_tensor(path, "x", np.zeros(3))
        old = path.read_bytes()
        real = getattr(os, window)

        def full(src, *args):
            if window == "rename" or src == os.path.realpath(path):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(src, *args)

        monkeypatch.setattr(os, window, full)
        with pytest.raises(FormatError, match="No space left") as info:
            save_tensor(path, "x", np.ones(3))
        monkeypatch.undo()
        left = [p.name for p in tmp_path.iterdir()]
        if window == "remove":
            assert left == ["t.urlk"] and path.read_bytes() == old
        else:
            (tmp,) = left
            assert tmp.startswith(".t.urlk.") and tmp.endswith(".tmp")
            assert os.path.realpath(tmp_path / tmp) in str(info.value)
            np.testing.assert_array_equal(load_tensor(tmp_path / tmp)[1], np.ones(3))

    def test_overwrite_matches_fresh_export(self, tmp_path):
        fresh, reused = tmp_path / "fresh.urlk", tmp_path / "reused.urlk"
        save_model(reused, build_named("A", seed=0))
        model = build_named("A", seed=1)
        save_model(fresh, model)
        save_model(reused, model)
        assert sha256(reused) == sha256(fresh)

    def test_save_through_symlink_updates_target(self, tmp_path):
        target, link = tmp_path / "real.urlk", tmp_path / "link.urlk"
        save_tensor(target, "x", np.zeros(3))
        link.symlink_to(target)
        save_tensor(link, "x", np.ones(3))
        assert link.is_symlink() and link.resolve() == target.resolve()
        _, arr = load_tensor(target)
        np.testing.assert_array_equal(arr, np.ones(3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.urlk", "real.urlk"]

    def test_successful_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "t.urlk"
        save_tensor(path, "x", np.zeros(3))
        save_tensor(path, "x", np.ones(3))
        assert [p.name for p in tmp_path.iterdir()] == ["t.urlk"]


class TestCustomChannels:
    def test_audio_configured_model_roundtrip(self, tmp_path):
        model = build_named("A", seed=0, in_channels=1, num_classes=35)
        path = tmp_path / "audio.urlk"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.config.in_channels == 1
        assert loaded.config.num_classes == 35
        x = np.random.default_rng(4).standard_normal((1, 1, 128, 64))
        np.testing.assert_array_equal(forward(loaded, x), forward(model, x))

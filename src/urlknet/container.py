"""The URLKWT01 weight container: magic, JSON manifest, raw tensor payload.

File layout:

    bytes 0..7    magic b"URLKWT01"
    bytes 8..11   uint32 little-endian manifest byte length
    manifest      UTF-8 JSON {format_version, model_name, mode, tensors}
    payload       raw little-endian IEEE-754 data, tensors contiguous in
                  manifest order, no padding

Each manifest tensor entry is {name, shape, dtype: "f32"|"f64", byte_offset,
byte_length} with byte_offset relative to the payload start. The container is
lossless: export -> import round-trips every tensor bit for bit.

Writing never truncates a container in place. The path is resolved through
symlinks, the bytes go to a new hidden temp file beside the target (opened
exclusively, named with the pid and a random suffix), and only once that file
is complete and closed is the old target removed and the temp renamed onto
the free name. A failed write removes the temp and leaves the old container
as it was; an OSError becomes a FormatError. The file is not fsynced.
Neither truncating the old file nor renaming over it (os.replace) is used:
on ext4 with the default auto_da_alloc, closing a file truncated to zero, or
renaming onto an existing file, starts writeback of the whole new file. Writing
merged S in f32 (223 MB, 2-core VM, median of 11) over an existing file took
279 ms by truncation, 315 ms by temp + os.replace and 88 ms by
temp + remove + rename.

Reading checks the whole manifest against the file size, then reads the
tensors in manifest order into run buffers of at most 16 MB (a larger tensor
gets its own), each tensor 64-byte aligned. A payload-sized buffer (223 MB
for merged S f32) is above glibc's 32 MB mmap threshold, so every load would
map, fault in and zero it afresh; run buffers come from the heap and reuse
what earlier loads freed. Buffers of 4 MB or more get numpy's huge-page hint,
which keeps page faults low in a fresh process (merged S f32: 9.1k, against
41.9k for one array per tensor). The payload is not padded (merged S f32
starts at byte 78498, 2 mod 4), so mapping the file would need a format
change: mapped tensors would be misaligned and copied again. A file that
shrinks while it is read raises FormatError.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import DTYPES, parse_shape
from .errors import FormatError
from .model import ModelInstance, build_from_state, iter_state

MAGIC = b"URLKWT01"
FORMAT_VERSION = 1

_DTYPE_TAGS = {dtype: tag for tag, dtype in DTYPES.items()}

# read_container packs tensors into buffers of at most _RUN_BYTES (one larger
# tensor gets its own), each at an _ALIGN-aligned start; see the module docstring
_RUN_BYTES = 16 << 20
_ALIGN = 64


def write_container(
    path: str | Path,
    tensors: Sequence[tuple[str, np.ndarray]],
    model_name: str = "",
    mode: str = "data",
) -> None:
    """Write named tensors; order in the file follows the given order.

    Replaces an existing file through a temp file (see the module docstring).
    """
    entries = []
    payload = []
    offset = 0
    for name, arr in tensors:
        arr = np.asarray(arr, order="C")  # ascontiguousarray would make a 0-d array 1-d
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        tag = _DTYPE_TAGS.get(le.dtype)
        if tag is None:
            raise FormatError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": tag,
            "byte_offset": offset,
            "byte_length": le.nbytes,
        })
        payload.append(le)
        offset += le.nbytes
    manifest = json.dumps({
        "format_version": FORMAT_VERSION,
        "model_name": model_name,
        "mode": mode,
        "tensors": entries,
    }).encode("utf-8")
    target = os.path.realpath(path)
    folder, base = os.path.split(target)
    tmp = os.path.join(folder, f".{base}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(manifest)))
            fh.write(manifest)
            for le in payload:
                fh.write(le.data)
        with contextlib.suppress(FileNotFoundError):
            os.remove(target)
        os.rename(tmp, target)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise FormatError(f"cannot write {path}: {e.strerror or e}") from None
        raise


def read_container(path: str | Path) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """Read (manifest, [(name, array), ...]); truncated or malformed files raise FormatError.

    The whole manifest is checked against the file size before any payload
    byte is read; then each tensor is read, in manifest order, straight into
    an aligned, C-contiguous array in a run buffer of at most _RUN_BYTES.
    """
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    tensors = []
    with fh:
        manifest, specs = _read_manifest(path, fh)
        for size, run in _runs(specs):
            buf = np.empty(size, np.uint8)
            for (name, shape, dtype, nbytes), start in run:
                view = buf[start:start + nbytes]
                if fh.readinto(view) != nbytes:
                    raise FormatError(f"{path}: file shrank while tensor {name!r} was read")
                # the cast copies only on a big-endian host
                arr = view.view(dtype).reshape(shape)
                tensors.append((name, arr.astype(dtype.newbyteorder("="), copy=False)))
    return manifest, tensors


def _runs(specs):
    """Yield (buffer size, [(spec, start), ...]) for each run of consecutive tensors."""
    run, size = [], 0
    for spec in specs:
        start = -(-size // _ALIGN) * _ALIGN
        if run and start + spec[3] > _RUN_BYTES:
            yield size, run
            run, start = [], 0
        run.append((spec, start))
        size = start + spec[3]
    yield size, run


def _read_manifest(path, fh) -> tuple[dict, list[tuple[str, tuple[int, ...], np.dtype, int]]]:
    """Read the header and manifest from fh; return (manifest, [(name, shape, dtype, nbytes), ...]).

    Every entry is checked against the payload size that fstat gives, so no
    payload byte is read from a file whose manifest does not fit it exactly.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(len(MAGIC) + 4)
    if len(head) < len(MAGIC) + 4:
        raise FormatError(f"{path}: file too short to be a weight container")
    if head[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {head[:len(MAGIC)]!r}, expected {MAGIC!r}")
    (mlen,) = struct.unpack_from("<I", head, len(MAGIC))
    payload_size = size - len(head) - mlen
    if payload_size < 0:
        raise FormatError(f"{path}: truncated manifest")
    text = fh.read(mlen)
    try:
        manifest = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: manifest is not valid JSON ({e})") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format_version {version!r}")
    for key in ("model_name", "mode"):
        if not isinstance(manifest.get(key, ""), str):
            raise FormatError(f"{path}: manifest {key} must be a string")
    entries = manifest.get("tensors", [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest tensors must be a list")
    specs = []
    seen = set()
    offset = 0
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: tensor entry must be a JSON object, got {entry!r}")
        try:
            name = entry["name"]
            dtype = DTYPES[entry["dtype"]]
            shape_value, byte_offset, byte_length = (
                entry["shape"], entry["byte_offset"], entry["byte_length"])
        except (KeyError, TypeError) as e:
            raise FormatError(f"{path}: malformed tensor entry ({e})") from None
        if not isinstance(name, str):
            raise FormatError(f"{path}: tensor name must be a string, got {name!r}")
        if name in seen:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        seen.add(name)
        shape, count = parse_shape(shape_value, f"{path}: tensor {name!r}")
        if type(byte_offset) is not int or type(byte_length) is not int:
            raise FormatError(f"{path}: tensor {name!r} byte_offset and byte_length must be integers")
        if byte_offset != offset:
            raise FormatError(
                f"{path}: tensor {name!r} at offset {byte_offset}, expected {offset} "
                "(tensors must be contiguous in manifest order)"
            )
        expected = count * dtype.itemsize
        if byte_length != expected:
            raise FormatError(
                f"{path}: tensor {name!r} declares {byte_length} bytes, shape needs {expected}"
            )
        if byte_offset + byte_length > payload_size:
            raise FormatError(f"{path}: truncated payload at tensor {name!r}")
        specs.append((name, shape, dtype, byte_length))
        offset += byte_length
    if offset != payload_size:
        raise FormatError(
            f"{path}: payload holds {payload_size} bytes but manifest accounts for {offset}"
        )
    return manifest, specs


def save_model(path: str | Path, model: ModelInstance) -> None:
    write_container(path, list(iter_state(model)), model_name=model.name, mode=model.mode)


def load_model(path: str | Path) -> ModelInstance:
    manifest, tensors = read_container(path)
    return build_from_state(
        manifest.get("model_name", ""), manifest.get("mode", ""), dict(tensors)
    )


def save_tensor(path: str | Path, name: str, value: np.ndarray) -> None:
    """Store a single array (embedding map, model input, logits) as a container."""
    write_container(path, [(name, value)], model_name="", mode="data")


def load_tensor(path: str | Path) -> tuple[str, np.ndarray]:
    _, tensors = read_container(path)
    if len(tensors) != 1:
        raise FormatError(f"{path}: expected a single-tensor container, found {len(tensors)}")
    return tensors[0]

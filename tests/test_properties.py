"""Property tests: a damaged container, raw file or CSV loads or raises FormatError.

Each example truncates a valid file or replaces one of its bytes, or swaps one
field of a container's manifest entry for a value of the wrong type or range.
The readers must either return or raise FormatError, never another exception,
and `urlk import` must exit 2 with a one-line error, never a traceback.
"""

import io
import json
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urlknet import FormatError
from urlknet.cli import main
from urlknet.container import MAGIC, read_container, write_container
from urlknet.dataio import read_raw_array, read_timeseries_csv, write_raw_array

BOUNDED = settings(max_examples=200, deadline=None, database=None)


def damage(data, blob: bytes) -> bytes:
    """A random truncation or single-byte replacement of blob."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    i = data.draw(st.integers(0, len(blob) - 1), label="index")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[i]), label="byte")
    return blob[:i] + bytes([byte]) + blob[i + 1:]


MANIFEST_FIELDS = ("name", "shape", "dtype", "byte_offset", "byte_length")

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


def wrong_values(valid):
    """Any JSON value, or a near miss of `valid`: retyped, off by one or out of range."""
    near = [[valid], {"value": valid}, None]
    if isinstance(valid, str):
        near += [valid.upper(), valid + " ", "f16", "a.eps"]
    elif isinstance(valid, int):
        near += [float(valid), bool(valid), str(valid), valid - 1, valid + 1, -valid - 1,
                 2**64 + valid]
    else:  # a shape
        near += [[float(d) for d in valid], [bool(d) for d in valid], valid[:-1], [*valid, 1],
                 [-d - 1 for d in valid], [2**40 + d for d in valid]]
    return st.one_of(st.sampled_from(near), ANY_JSON)


def mutate_field(data, blob: bytes) -> bytes:
    """blob with one manifest entry's name, shape, dtype, offset or length replaced."""
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    manifest, payload = json.loads(blob[start:start + mlen]), blob[start + mlen:]
    entry = data.draw(st.sampled_from(manifest["tensors"]), label="entry")
    field = data.draw(st.sampled_from(MANIFEST_FIELDS), label="field")
    old = json.dumps(entry[field])
    entry[field] = data.draw(wrong_values(entry[field]).filter(lambda v: json.dumps(v) != old),
                             label="value")
    text = json.dumps(manifest).encode()
    return MAGIC + struct.pack("<I", len(text)) + text + payload


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@pytest.fixture(scope="module")
def container_blob(workdir):
    # small tensors keep the manifest, where parsing can go wrong, most of the file
    rng = np.random.default_rng(0)
    path = workdir / "valid.urlk"
    write_container(path, [
        ("a.weight", rng.standard_normal((3, 5)).astype(np.float32)),
        ("a.eps", np.array([1e-5])),
        ("empty", np.zeros((0, 4), dtype=np.float32)),
    ], model_name="A", mode="merged")
    return path.read_bytes()


@pytest.fixture(scope="module")
def raw_blobs(workdir):
    path = workdir / "valid.raw"
    write_raw_array(path, np.arange(6.0).reshape(1, 2, 3), dtype="f64")
    return path.read_bytes(), (workdir / "valid.raw.json").read_bytes()


@pytest.fixture(scope="module")
def csv_blob():
    # four rows of two columns, batch 2: a quoted field, a CRLF, a blank line and
    # an exponent give damage something to hit besides digits and commas
    return b'1.5,-2\r\n"3",4e-3\n\n5,6\n7,8\n'


@BOUNDED
@given(data=st.data())
def test_damaged_container_loads_or_raises_format_error(workdir, container_blob, data):
    path = workdir / "c.urlk"
    path.write_bytes(damage(data, container_blob))
    try:
        read_container(path)
    except FormatError:
        pass


@BOUNDED
@given(data=st.data())
def test_mutated_manifest_field_loads_or_raises_format_error(workdir, container_blob, data):
    path = workdir / "m.urlk"
    path.write_bytes(mutate_field(data, container_blob))
    try:
        read_container(path)
    except FormatError:
        pass


@BOUNDED
@given(data=st.data())
def test_import_of_mutated_manifest_exits_2_without_traceback(workdir, container_blob, data):
    # the tensors are no model's, so even a mutation that still reads must end in exit 2
    path = workdir / "cli.urlk"
    path.write_bytes(mutate_field(data, container_blob))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["import", "--weights", str(path)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


@BOUNDED
@given(data=st.data())
def test_damaged_raw_file_loads_or_raises_format_error(workdir, raw_blobs, data):
    path = workdir / "x.raw"
    values, sidecar = raw_blobs
    if data.draw(st.booleans(), label="damage sidecar"):
        sidecar = damage(data, sidecar)
    else:
        values = damage(data, values)
    path.write_bytes(values)
    (workdir / "x.raw.json").write_bytes(sidecar)
    try:
        read_raw_array(path)
    except FormatError:
        pass


@BOUNDED
@given(data=st.data())
def test_damaged_csv_loads_or_raises_format_error(workdir, csv_blob, data):
    path = workdir / "ts.csv"
    path.write_bytes(damage(data, csv_blob))
    try:
        read_timeseries_csv(path, batch=2)
    except FormatError:
        pass


def test_valid_files_load(workdir, container_blob, raw_blobs, csv_blob):
    # the undamaged originals read back, so the properties above are not vacuous
    (workdir / "ok.urlk").write_bytes(container_blob)
    _, tensors = read_container(workdir / "ok.urlk")
    assert [name for name, _ in tensors] == ["a.weight", "a.eps", "empty"]
    values, sidecar = raw_blobs
    (workdir / "ok.raw").write_bytes(values)
    (workdir / "ok.raw.json").write_bytes(sidecar)
    assert json.loads(sidecar)["shape"] == [1, 2, 3]
    np.testing.assert_array_equal(read_raw_array(workdir / "ok.raw"),
                                  np.arange(6.0).reshape(1, 2, 3))
    (workdir / "ok.csv").write_bytes(csv_blob)
    np.testing.assert_array_equal(read_timeseries_csv(workdir / "ok.csv", batch=2),
                                  [[[1.5, -2], [3, 4e-3]], [[5, 6], [7, 8]]])

import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from urlknet.dataio import DTYPES, read_raw_array, read_timeseries_csv, write_raw_array
from urlknet.errors import FormatError


def test_raw_file_is_held_once(tmp_path):
    path = tmp_path / "x.raw"
    values = np.arange(1 << 20, dtype=np.float32).reshape(4, 256, 1024)
    write_raw_array(path, values)
    payload = values.nbytes
    tracemalloc.start()
    try:
        got = read_raw_array(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, values)
    assert peak < 1.5 * payload, f"peak {peak} bytes for a {payload}-byte payload"


def test_csv_is_parsed_into_one_array(tmp_path):
    path = tmp_path / "ts.csv"
    values = np.random.default_rng(0).standard_normal((20000, 8))
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
    tracemalloc.start()
    try:
        got = read_timeseries_csv(path, batch=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, values.reshape(4, 5000, 8))
    assert peak < 1.5 * values.nbytes, f"peak {peak} bytes for a {values.nbytes}-byte array"


@pytest.mark.parametrize("tag", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(), (2, 3, 4)], ids=["0-d", "3-d"])
def test_raw_array_roundtrip(tmp_path, shape, tag):
    # write_raw_array -> read_raw_array keeps shape, dtype and values, a 0-d array included
    path = tmp_path / "x.raw"
    values = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) + 0.5
    write_raw_array(path, values, tag)
    got = read_raw_array(path)
    assert got.shape == shape and got.dtype == DTYPES[tag]
    np.testing.assert_array_equal(got, values)


def test_raw_file_shrunk_after_size_check(tmp_path, monkeypatch):
    path = tmp_path / "x.raw"
    write_raw_array(path, np.ones((4, 4), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:40])
    # the size check sees the full 64 bytes; the read then finds only 40
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=64))
    with pytest.raises(FormatError, match="holds 40 bytes"):
        read_raw_array(path)


def test_raw_reader_and_writer_reject_bad_files(tmp_path):
    # no sidecar: reading it is what fails, naming the sidecar
    with pytest.raises(FormatError, match="bad sidecar .*x.raw.json"):
        read_raw_array(tmp_path / "x.raw")
    # a directory where the data file should be, beside a valid sidecar
    (tmp_path / "d.raw").mkdir()
    (tmp_path / "d.raw.json").write_text('{"shape": [0]}')
    with pytest.raises(FormatError, match="cannot read"):
        read_raw_array(tmp_path / "d.raw")
    with pytest.raises(FormatError, match="dtype must be f32 or f64, got 'f16'"):
        write_raw_array(tmp_path / "h.raw", np.zeros(2), "f16")
    assert not (tmp_path / "h.raw").exists()


@pytest.mark.parametrize("text,batch,match", [
    ("1,2\n3\n", 1, "inconsistent widths \\[1, 2\\]"),
    ("1,2\n3,x\n", 1, "non-numeric CSV value"),
    ("", 1, "holds no data rows"),
    ("\n\n", 1, "holds no data rows"),
    ("1,2\n3,4\n5,6\n", 2, "holds 3 rows, not divisible into 2 batch entries"),
], ids=["ragged", "non-numeric", "empty", "blank-lines", "rows-not-divisible"])
def test_csv_reader_rejects_bad_files(tmp_path, text, batch, match):
    path = tmp_path / "ts.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=match):
        read_timeseries_csv(path, batch=batch)

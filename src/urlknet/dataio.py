"""Input readers: raw little-endian arrays with a JSON sidecar, and CSV series.

A raw array file <name> is accompanied by <name>.json holding
{"shape": [...], "dtype": "f32"|"f64"} (dtype defaults to "f32"). CSV files
carry (B, L, D) time-series: each row is one time step with D columns and the
file holds exactly B*L rows, batches stored consecutively. Unreadable files,
malformed sidecars and non-finite CSV values raise FormatError. The shape
parser and dtype tags are shared with the weight container's manifest reader.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError

DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
# the most dimensions every supported numpy (>= 1.24) can hold
MAX_NDIM = 32


def parse_shape(value, where: str) -> tuple[tuple[int, ...], int]:
    """(shape, element count) of a JSON shape, counted in Python ints so it cannot wrap.

    Anything but a list of at most MAX_NDIM non-negative, non-bool ints raises FormatError.
    """
    if not (isinstance(value, list) and len(value) <= MAX_NDIM
            and all(type(d) is int and d >= 0 for d in value)):
        raise FormatError(f"{where} has malformed shape {value!r}: need a list of at most "
                          f"{MAX_NDIM} ints, with no bool and no negative dimension")
    return tuple(value), math.prod(value)


def read_raw_array(path: str | Path) -> np.ndarray:
    """Load a raw little-endian float array described by its JSON sidecar."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".json")
    try:
        meta = json.loads(sidecar.read_text())
        shape_value = meta["shape"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise FormatError(f"bad sidecar {sidecar}: {e}") from None
    shape, count = parse_shape(shape_value, f"sidecar {sidecar}")
    tag = meta.get("dtype", "f32")
    dtype = DTYPES.get(tag) if isinstance(tag, str) else None
    if dtype is None:
        raise FormatError(f"sidecar dtype must be f32 or f64, got {tag!r}")
    expected = count * dtype.itemsize
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise FormatError(f"{path} holds {size} bytes but shape {shape} needs {expected}")
            arr = np.fromfile(fh, dtype=dtype, count=count)
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    if arr.size != count:  # the file shrank after the size check
        raise FormatError(f"{path} holds {arr.size * dtype.itemsize} bytes but shape {shape} "
                          f"needs {expected}")
    # the file is read once; the cast copies only on a big-endian host
    return arr.reshape(shape).astype(dtype.newbyteorder("="), copy=False)


def write_raw_array(path: str | Path, array: np.ndarray, dtype: str = "f32") -> None:
    """Write a raw array plus its JSON sidecar (the inverse of read_raw_array)."""
    path = Path(path)
    if dtype not in DTYPES:
        raise FormatError(f"dtype must be f32 or f64, got {dtype!r}")
    arr = np.asarray(array, dtype=DTYPES[dtype], order="C")  # keeps a 0-d array 0-d
    path.write_bytes(arr.tobytes())
    sidecar = path.with_name(path.name + ".json")
    sidecar.write_text(json.dumps({"shape": list(arr.shape), "dtype": dtype}))


def read_timeseries_csv(path: str | Path, batch: int = 1) -> np.ndarray:
    """Load (B, L, D) from CSV: rows are time steps, file holds B*L rows.

    The values are parsed straight into one float64 array; blank lines are skipped.
    """
    if batch < 1:
        raise FormatError(f"batch must be positive, got {batch}")
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                arr = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                                 quotechar='"', ndmin=2)
            except UnicodeDecodeError:
                raise
            except ValueError as e:  # a ragged row or a non-numeric field: re-read to say which
                fh.seek(0)
                widths = {len(row) for row in csv.reader(fh) if row}
                if len(widths) > 1:
                    raise FormatError(f"{path}: rows have inconsistent widths {sorted(widths)}"
                                      ) from None
                raise FormatError(f"{path}: non-numeric CSV value ({e})") from None
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{path} is not a text CSV file ({e})") from None
    if arr.size == 0:
        raise FormatError(f"{path} holds no data rows")
    if len(arr) % batch != 0:
        raise FormatError(
            f"{path} holds {len(arr)} rows, not divisible into {batch} batch entries"
        )
    if not np.isfinite(arr).all():
        raise FormatError(f"{path} holds NaN or infinite values")
    return arr.reshape(batch, len(arr) // batch, arr.shape[1])

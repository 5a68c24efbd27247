"""One JSON Lines codec for datasets and episode traces: a JSON header line,
then one JSON object per record.  Array fields are base64 strings of
little-endian bytes; a record that does not decode, or that holds a float
that is not finite or is beyond MAX_ABS, is refused with its line number.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

from .errors import DataFormatError

F8 = np.dtype("<f8")
# No stored float is larger: positions in meters within a town, clocks in
# seconds of at most a day, speeds, headings and capped context scalars.
MAX_ABS = 1e6


def pack(a: np.ndarray, dtype: np.dtype = F8) -> str:
    """Base64 of the array's little-endian bytes."""
    return base64.b64encode(np.ascontiguousarray(a, dtype).tobytes()).decode()


def unpack(rec: dict, key: str, row_shape: tuple, dtype: np.dtype = F8) -> np.ndarray:
    """A read-only (n, *row_shape) view of the rows packed in rec[key], whose
    floats, fields of a structured dtype included, are all within MAX_ABS."""
    text = rec[key]
    if not isinstance(text, str):
        raise ValueError(f"field {key!r} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"field {key!r} is not base64: {e}") from None
    row_bytes = dtype.itemsize * math.prod(row_shape)
    if len(raw) % row_bytes:
        raise ValueError(
            f"field {key!r} has {len(raw)} bytes, which do not fit rows of {row_shape}"
        )
    a = np.frombuffer(raw, dtype).reshape(-1, *row_shape)
    check_bounded(a, f"field {key!r}")
    return a


def check_bounded(a: np.ndarray, what: str) -> None:
    """Raise a ValueError, naming what, at the first float of a, fields of a
    structured dtype included, that is not finite or is beyond MAX_ABS."""
    for values in [a] if a.dtype.names is None else [a[name] for name in a.dtype.names]:
        if values.dtype.kind == "f" and not np.abs(values).max(initial=0.0) <= MAX_ABS:
            bad = values[~(np.abs(values) <= MAX_ABS)][0]
            raise ValueError(f"{what} holds {bad}, not a number of size at most {MAX_ABS:g}")


def unpack_rows(rec: dict, key: str, n: int, row_shape: tuple, dtype: np.dtype = F8) -> np.ndarray:
    """Exactly n rows packed in rec[key]."""
    a = unpack(rec, key, row_shape, dtype)
    if len(a) != n:
        raise ValueError(f"field {key!r} holds {len(a)} rows, expected {n}")
    return a


def check_version(header: dict, version: int) -> None:
    found = header.get("format_version")
    if found != version:
        raise ValueError(
            f"format_version {found!r} unsupported, expected {version} (re-record older files)"
        )


def loads(text: str | bytes):
    """json.loads; JSON nested too deeply to decode is a ValueError, as other
    bad JSON is, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def _parse_line(path, lineno: int, line: bytes, decode):
    try:
        obj = loads(line.decode())
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        return decode(obj)
    except KeyError as e:
        raise DataFormatError(f"{path}: line {lineno}: missing field {e}") from e
    except ValueError as e:  # UTF-8, JSON and base64 errors are ValueErrors too
        raise DataFormatError(f"{path}: line {lineno}: {e}") from e


def read_records(path, check_header, decode) -> tuple[dict, list]:
    """The header, as check_header returns it, and decode(record, header)
    of each later line, decoded as it is read."""
    with open(path, "rb") as f:
        lines = (line.removesuffix(b"\n") for line in f)
        first = next(lines, None)
        if first is None:
            raise DataFormatError(f"{path}: empty file")
        header = _parse_line(path, 1, first, check_header)
        records = [
            _parse_line(path, lineno, line, lambda rec: decode(rec, header))
            for lineno, line in enumerate(lines, start=2)
        ]
    return header, records


def write_records(path, header: dict, records) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for rec in records:
            f.write(json.dumps(rec) + "\n")

"""Binary container for 5-d tensors.

Layout: magic ``DMSN``, format version (u32 LE), dtype code (u32 LE; 0 = f32,
1 = f64), five u32 LE extents (n, c, t, h, w), then the payload row-major in
little-endian IEEE floats.  Round trips are bit-exact.
"""

from __future__ import annotations

import io
import struct

import numpy as np

MAGIC = b"DMSN"
VERSION = 1
_DTYPE_BY_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_BY_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_HEADER = struct.Struct("<4sII5I")


class TensorFileError(ValueError):
    """Malformed or truncated tensor container."""


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    if arr.ndim != 5:
        raise TensorFileError(f"container holds 5-d tensors, got shape {arr.shape}")
    dtype = np.dtype(arr.dtype)
    if dtype not in _CODE_BY_KIND:
        raise TensorFileError(f"unsupported dtype {dtype}; use float32 or float64")
    code = _CODE_BY_KIND[dtype]
    header = _HEADER.pack(MAGIC, VERSION, code, *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_BY_CODE[code]).tobytes()
    return header + payload


def tensor_from_stream(stream: io.BufferedIOBase) -> np.ndarray:
    """Read one tensor from a seekable stream, leaving it after the payload.

    Extents are checked before any payload byte is read: a zero extent, or a
    payload longer than what is left in the stream, is a ``TensorFileError``.
    """
    raw = stream.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise TensorFileError("truncated header")
    magic, version, code, n, c, t, h, w = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TensorFileError(f"bad magic bytes {magic!r}")
    if version != VERSION:
        raise TensorFileError(f"unsupported format version {version}")
    if code not in _DTYPE_BY_CODE:
        raise TensorFileError(f"unknown dtype code {code}")
    dtype = _DTYPE_BY_CODE[code]
    shape = (n, c, t, h, w)
    if 0 in shape:
        raise TensorFileError(f"zero extent in shape {shape}")
    nbytes = n * c * t * h * w * dtype.itemsize
    start = stream.tell()
    remaining = stream.seek(0, io.SEEK_END) - start
    stream.seek(start)
    if nbytes > remaining:
        raise TensorFileError(f"truncated payload: shape {shape} needs "
                              f"{nbytes} bytes, {remaining} remain")
    data = np.frombuffer(stream.read(nbytes), dtype=dtype).reshape(shape)
    return data.astype(dtype.newbyteorder("="), copy=True)


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(arr))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_stream(fh)

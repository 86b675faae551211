"""Binary container for 5-d tensors.

Layout: magic ``DMSN``, format version (u32 LE), dtype code (u32 LE; 0 = f32,
1 = f64), five u32 LE extents (n, c, t, h, w), then the payload row-major in
little-endian IEEE floats, which ends a tensor file.  Round trips are bit-exact.

Tensors stream to and from open files: the writer hands the array's own buffer
to ``write``, so it holds no second copy of the payload.  The reader parses and
checks the header, then asks its caller for the payload: ``read_payload``
fills a new array with ``readinto`` (a lone tensor file, a manifest's clips),
and a checkpoint returns a view of its copy-on-write file mapping, so its
payloads are never copied at all.
"""

from __future__ import annotations

import io
import os
import struct

import numpy as np

MAGIC = b"DMSN"
VERSION = 1
_DTYPE_BY_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_BY_KIND = {dtype: code for code, dtype in _DTYPE_BY_CODE.items()}
_HEADER = struct.Struct("<4sII5I")


class TensorFileError(ValueError):
    """Malformed or truncated tensor container."""


def tensor_to_stream(stream: io.BufferedIOBase, arr: np.ndarray) -> None:
    """Write one tensor's header, then its payload from the array's buffer.

    The payload is copied only when ``arr`` is not already C-contiguous
    little-endian float32/float64.  What the reader rejects (a zero extent,
    not 5-d, another dtype) is a ``TensorFileError`` before anything is
    written.
    """
    if arr.ndim != 5:
        raise TensorFileError(f"container holds 5-d tensors, got shape {arr.shape}")
    dtype = np.dtype(arr.dtype)
    if dtype not in _CODE_BY_KIND:
        raise TensorFileError(f"unsupported dtype {dtype}; use float32 or float64")
    if 0 in arr.shape:
        raise TensorFileError(f"zero extent in shape {arr.shape}")
    code = _CODE_BY_KIND[dtype]
    payload = np.ascontiguousarray(arr, dtype=_DTYPE_BY_CODE[code])
    stream.write(_HEADER.pack(MAGIC, VERSION, code, *arr.shape))
    stream.write(memoryview(payload).cast("B"))


def tensor_from_stream(stream: io.BufferedIOBase, size: int,
                       take) -> np.ndarray:
    """Read one tensor from a stream of ``size`` bytes, leaving it after the
    payload.

    ``take(stream, shape, dtype)`` returns the payload that follows the
    header, as an array of that shape and dtype, and leaves the stream after
    it; ``read_payload`` is the one for open files.  Extents are checked
    before it is called: a zero extent, or a payload longer than what is
    left of the ``size`` bytes, is a ``TensorFileError``.
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
    remaining = size - stream.tell()
    if nbytes > remaining:
        raise TensorFileError(f"truncated payload: shape {shape} needs "
                              f"{nbytes} bytes, {remaining} remain")
    data = take(stream, shape, dtype)
    # a no-op on little-endian hosts; big-endian ones swap once to native
    return data if dtype.isnative else data.astype(dtype.newbyteorder("="))


def read_payload(stream: io.BufferedIOBase, shape: tuple,
                 dtype: np.dtype) -> np.ndarray:
    """The stream's next ``shape`` x ``dtype`` payload, read into a new array
    with ``readinto``; a short read is a ``TensorFileError``."""
    data = np.empty(shape, dtype)
    got = stream.readinto(memoryview(data).cast("B"))
    if got != data.nbytes:
        raise TensorFileError(f"truncated payload: shape {shape} needs "
                              f"{data.nbytes} bytes, read {got}")
    return data


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        tensor_to_stream(fh, arr)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = tensor_from_stream(fh, size, read_payload)
        if fh.tell() != size:
            raise TensorFileError(f"{size - fh.tell()} trailing bytes after "
                                  f"the {data.shape} payload")
        return data

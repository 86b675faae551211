"""Binary tensor container round trips and failure modes."""

import io

import numpy as np
import pytest

from dmsn import tensorfile


def test_roundtrip_f32_bitexact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(2, 3, 4, 5, 6)).astype(np.float32)
    path = tmp_path / "t.dmsn"
    tensorfile.write_tensor(path, arr)
    back = tensorfile.read_tensor(path)
    assert back.dtype == np.float32
    assert arr.tobytes() == back.tobytes()


def test_roundtrip_f64_bitexact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(1, 1, 2, 2, 2))
    path = tmp_path / "t.dmsn"
    tensorfile.write_tensor(path, arr)
    back = tensorfile.read_tensor(path)
    assert back.dtype == np.float64
    assert arr.tobytes() == back.tobytes()


def test_header_layout(tmp_path):
    arr = np.zeros((1, 2, 3, 4, 5), dtype=np.float32)
    blob = tensorfile.tensor_to_bytes(arr)
    assert blob[:4] == b"DMSN"
    assert int.from_bytes(blob[4:8], "little") == 1      # version
    assert int.from_bytes(blob[8:12], "little") == 0     # f32 code
    extents = [int.from_bytes(blob[12 + 4 * i:16 + 4 * i], "little")
               for i in range(5)]
    assert extents == [1, 2, 3, 4, 5]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dmsn"
    tensorfile.write_tensor(path, np.zeros((1, 1, 1, 1, 1), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(tensorfile.TensorFileError, match="magic"):
        tensorfile.read_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.dmsn"
    tensorfile.write_tensor(path, np.ones((1, 1, 2, 2, 2), dtype=np.float64))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(tensorfile.TensorFileError, match="truncated"):
        tensorfile.read_tensor(path)


def test_non_5d_rejected():
    with pytest.raises(tensorfile.TensorFileError):
        tensorfile.tensor_to_bytes(np.zeros((2, 2), dtype=np.float32))


def test_unsupported_dtype_rejected():
    with pytest.raises(tensorfile.TensorFileError):
        tensorfile.tensor_to_bytes(np.zeros((1, 1, 1, 1, 1), dtype=np.int32))


def _header(*extents) -> bytes:
    return tensorfile._HEADER.pack(b"DMSN", 1, 0, *extents)


def test_huge_extents_rejected_before_payload():
    stream = io.BytesIO(_header(*[2 ** 32 - 1] * 5) + b"\0" * 64)
    with pytest.raises(tensorfile.TensorFileError, match="truncated"):
        tensorfile.tensor_from_stream(stream)
    assert stream.tell() == tensorfile._HEADER.size


def test_zero_extent_rejected():
    with pytest.raises(tensorfile.TensorFileError, match="zero extent"):
        tensorfile.tensor_from_stream(io.BytesIO(_header(0, 1, 1, 1, 1)))

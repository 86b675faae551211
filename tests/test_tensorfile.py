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
    tensorfile.write_tensor(tmp_path / "t.dmsn", arr)
    blob = (tmp_path / "t.dmsn").read_bytes()
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
    stream = io.BytesIO()
    with pytest.raises(tensorfile.TensorFileError):
        tensorfile.tensor_to_stream(stream, np.zeros((2, 2), dtype=np.float32))
    assert stream.getvalue() == b""


def test_unsupported_dtype_rejected():
    stream = io.BytesIO()
    with pytest.raises(tensorfile.TensorFileError):
        tensorfile.tensor_to_stream(stream,
                                    np.zeros((1, 1, 1, 1, 1), dtype=np.int32))
    assert stream.getvalue() == b""


def _header(*extents) -> bytes:
    return tensorfile._HEADER.pack(b"DMSN", 1, 0, *extents)


def test_huge_extents_rejected_before_payload():
    raw = _header(*[2 ** 32 - 1] * 5) + b"\0" * 64
    stream = io.BytesIO(raw)
    with pytest.raises(tensorfile.TensorFileError, match="truncated"):
        tensorfile.tensor_from_stream(stream, len(raw))
    assert stream.tell() == tensorfile._HEADER.size


def test_zero_extent_rejected():
    with pytest.raises(tensorfile.TensorFileError, match="zero extent"):
        tensorfile.tensor_from_stream(io.BytesIO(_header(0, 1, 1, 1, 1)),
                                      tensorfile._HEADER.size)


def test_zero_extent_write_rejected_before_header():
    stream = io.BytesIO()
    with pytest.raises(tensorfile.TensorFileError,
                       match=r"zero extent in shape \(1, 3, 0, 4, 4\)"):
        tensorfile.tensor_to_stream(stream,
                                    np.zeros((1, 3, 0, 4, 4), dtype=np.float32))
    assert stream.getvalue() == b""


def test_non_contiguous_array_written_row_major(tmp_path):
    arr = np.arange(2 * 3 * 4 * 5 * 6, dtype=np.float64).reshape(2, 3, 4, 5, 6)
    view = arr[:, ::2, :, ::-1].transpose(0, 1, 2, 4, 3)
    path = tmp_path / "t.dmsn"
    tensorfile.write_tensor(path, view)
    blob = path.read_bytes()
    assert blob[tensorfile._HEADER.size:] == view.astype("<f8").tobytes()
    back = tensorfile.read_tensor(path)
    assert back.shape == view.shape and back.flags.owndata
    np.testing.assert_array_equal(back, view)


class _ShortReads(io.BytesIO):
    """A stream whose ``readinto`` stops one byte short."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[:-1])


def test_short_read_is_truncated_payload():
    stream = _ShortReads()
    tensorfile.tensor_to_stream(stream, np.ones((1, 1, 1, 2, 2), np.float32))
    size = stream.tell()
    stream.seek(0)
    with pytest.raises(tensorfile.TensorFileError, match="truncated payload"):
        tensorfile.tensor_from_stream(stream, size)

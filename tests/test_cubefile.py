import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cassi import CubeFileError
from cassi.cubefile import HEADER_SIZE, MAGIC, read_cube, write_cube, write_pgm


def test_roundtrip_f64(tmp_path):
    path = tmp_path / "cube.hsic"
    data = np.random.Generator(np.random.Philox(1)).random((3, 4, 5))
    write_cube(path, data, dtype="f64")
    back, dtype = read_cube(path)
    assert dtype == "f64"
    np.testing.assert_array_equal(back, data)


def test_roundtrip_f32_bits_preserved(tmp_path):
    path = tmp_path / "cube.hsic"
    data = np.random.Generator(np.random.Philox(2)).random((2, 3, 3))
    write_cube(path, data, dtype="f32")
    back, dtype = read_cube(path)
    assert dtype == "f32"
    np.testing.assert_array_equal(back, data.astype(np.float32).astype(np.float64))


@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from(["f32", "f64"]),
    st.integers(0, 2**32 - 1),
)
def test_write_then_read_then_write_is_byte_identical(tmp_path_factory, c, h, w, dtype, seed):
    tmp = tmp_path_factory.mktemp("rt")
    first = tmp / "a.hsic"
    second = tmp / "b.hsic"
    data = np.random.Generator(np.random.Philox(seed)).random((c, h, w))
    write_cube(first, data, dtype=dtype)
    back, stored = read_cube(first)
    write_cube(second, back, dtype=stored)
    assert first.read_bytes() == second.read_bytes()


def test_two_d_input_stored_with_single_band(tmp_path):
    path = tmp_path / "mask.hsic"
    write_cube(path, np.ones((4, 6)))
    back, _ = read_cube(path)
    assert back.shape == (1, 4, 6)


def test_no_temp_file_left_behind(tmp_path):
    path = tmp_path / "cube.hsic"
    write_cube(path, np.zeros((1, 2, 2)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube.hsic"]


class TestMalformed:
    def write_valid(self, path):
        write_cube(path, np.zeros((1, 2, 2)))
        return bytearray(path.read_bytes())

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.hsic"
        path.write_bytes(b"HS")
        with pytest.raises(CubeFileError, match="byte offset 0"):
            read_cube(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.hsic"
        raw = self.write_valid(path)
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="byte offset 0"):
            read_cube(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "f.hsic"
        raw = self.write_valid(path)
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="byte offset 4"):
            read_cube(path)

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "f.hsic"
        raw = self.write_valid(path)
        raw[6] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="byte offset 6"):
            read_cube(path)

    def test_bad_reserved(self, tmp_path):
        path = tmp_path / "f.hsic"
        raw = self.write_valid(path)
        raw[7] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="byte offset 7"):
            read_cube(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "f.hsic"
        raw = self.write_valid(path)
        raw[8:12] = struct.pack("<I", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(CubeFileError, match="byte offset 8"):
            read_cube(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "f.hsic"
        raw = self.write_valid(path)
        path.write_bytes(bytes(raw[:-3]))
        with pytest.raises(CubeFileError, match=f"byte offset {HEADER_SIZE}"):
            read_cube(path)


def test_header_constants():
    assert MAGIC == b"HSIC"
    assert HEADER_SIZE == 20


def test_pgm_export(tmp_path):
    path = tmp_path / "band.pgm"
    plane = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 clamps to 1.0
    write_pgm(path, plane)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert raw[-4:] == bytes([0, 128, 255, 255])


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_new_files_get_the_umask_default_mode(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        write_cube(tmp_path / "cube.hsic", np.zeros((1, 2, 2)))
        write_pgm(tmp_path / "band.pgm", np.zeros((2, 2)))
    finally:
        os.umask(previous)
    for name in ("cube.hsic", "band.pgm"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.pgm", "cube.hsic"]

import errno
import io
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cassi import CubeFileError, NonFiniteValue
from cassi.cli import main
from cassi.cubefile import HEADER_SIZE, MAGIC, read_cube, write_cube, write_pgm

from conftest import traced_peak


def _header(magic=MAGIC, version=1, code=1, reserved=0, h=1, w=1, c=1) -> bytes:
    return magic + struct.pack("<HBBIII", version, code, reserved, h, w, c)


def _raises_cube_file_error(path, match=r"at byte offset \d+$"):
    with pytest.raises(CubeFileError, match=match):
        read_cube(path)


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


class TestFuzzedFiles:
    DIMS = st.one_of(st.integers(0, 4), st.integers(2**32 - 3, 2**32 - 1))
    # At most one header field is corrupted per example, so that most
    # examples reach the payload-length check.
    CORRUPTIONS = {
        "magic": st.sampled_from([b"HSIc", b"\0\0\0\0"]),
        "version": st.sampled_from([0, 2, 0xFFFF]),
        "code": st.sampled_from([2, 255]),
        "reserved": st.sampled_from([1, 255]),
        "header_cut": st.integers(0, HEADER_SIZE - 1),
    }

    @given(
        code=st.sampled_from([0, 1]),
        h=DIMS,
        w=DIMS,
        c=DIMS,
        corruption=st.one_of(
            st.just({}),
            *(st.fixed_dictionaries({k: v}) for k, v in CORRUPTIONS.items()),
        ),
        length=st.one_of(st.none(), st.integers(0, 600)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_read_returns_the_payload_or_raises_cube_file_error(
        self, tmp_path_factory, code, h, w, c, corruption, length, seed
    ):
        dtype = np.dtype("<f4" if code == 0 else "<f8")
        promised = h * w * c * dtype.itemsize
        if length is None:  # the promised payload, where it is small enough
            length = promised if promised <= 600 else 0
        fields = dict(magic=MAGIC, version=1, code=code, reserved=0, h=h, w=w, c=c)
        fields.update((k, v) for k, v in corruption.items() if k != "header_cut")
        header = _header(**fields)
        if "header_cut" in corruption:
            header, length = header[: corruption["header_cut"]], 0
        payload = np.random.Generator(np.random.Philox(seed)).bytes(length)
        path = tmp_path_factory.mktemp("fuzz") / "f.hsic"
        path.write_bytes(header + payload)
        valid = not corruption and min(h, w, c) >= 1 and length == promised
        read = read_cube if valid else _raises_cube_file_error
        result, peak = traced_peak(lambda: read(path))
        # Nothing near the promised size is allocated, even for 2**32 dims.
        assert peak < 1 << 20
        if valid:
            back, stored = result
            assert stored == ("f32" if code == 0 else "f64")
            expected = np.frombuffer(payload, dtype=dtype).reshape(c, h, w)
            np.testing.assert_array_equal(back, expected.astype(np.float64))
            return
        # Exit 2; any other exception would propagate out of main.
        assert main(["metrics", "--ref", str(path), "--test", str(path)]) == 2

    def test_huge_dimensions_on_a_header_only_file_allocate_nothing(self, tmp_path):
        path = tmp_path / "f.hsic"
        top = 2**32 - 1
        path.write_bytes(_header(h=top, w=top, c=top))
        match = (
            rf"payload length 0 does not match header "
            rf"\({top}x{top}x{top} float64\) at byte offset {HEADER_SIZE}$"
        )
        _, peak = traced_peak(lambda: _raises_cube_file_error(path, match))
        assert peak < 1 << 20


class TestOneCopy:
    """Peak traced allocation during one call, as a share of the float64
    cube: the payload moves between the file and the array once."""

    SHAPE = (16, 128, 128)

    def cube(self):
        return np.random.Generator(np.random.Philox(5)).random(self.SHAPE)

    @pytest.mark.parametrize("dtype,bound", [("f64", 0.05), ("f32", 0.55)])
    def test_write_peak(self, tmp_path, dtype, bound):
        data = self.cube()
        path = tmp_path / "cube.hsic"
        write_cube(path, data, dtype=dtype)  # the second write replaces a file
        _, peak = traced_peak(lambda: write_cube(path, data, dtype=dtype))
        assert peak < bound * data.nbytes
        back, _ = read_cube(path)
        np.testing.assert_array_equal(
            back, data if dtype == "f64" else data.astype(np.float32)
        )

    @pytest.mark.parametrize("dtype,bound", [("f64", 1.05), ("f32", 1.55)])
    def test_read_peak_and_result(self, tmp_path, dtype, bound):
        data = self.cube()
        path = tmp_path / "cube.hsic"
        write_cube(path, data, dtype=dtype)
        (back, stored), peak = traced_peak(lambda: read_cube(path))
        assert stored == dtype
        assert peak <= bound * data.nbytes
        assert back.dtype == np.float64 and back.dtype.isnative
        assert back.flags.writeable and back.flags.c_contiguous
        assert back.flags.owndata

    @pytest.mark.parametrize("delta", [-8, 8])
    def test_size_change_after_the_size_check_raises(
        self, tmp_path, monkeypatch, delta
    ):
        # Larger than the reader's buffer, so the header read cannot have
        # fetched the whole file before it changes.
        path = tmp_path / "cube.hsic"
        write_cube(path, np.zeros((2, 32, 32)))
        size = path.stat().st_size
        real_fstat = os.fstat

        def fstat_then_resize(fd):
            info = real_fstat(fd)
            monkeypatch.setattr(os, "fstat", real_fstat)
            os.truncate(path, size + delta)
            return info

        monkeypatch.setattr(os, "fstat", fstat_then_resize)
        _raises_cube_file_error(
            path,
            rf"payload length {size - HEADER_SIZE + delta} does not "
            rf"match header .* at byte offset {HEADER_SIZE}$",
        )


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipe:
    @staticmethod
    def read_through_pipe(raw: bytes):
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as fh:
                fh.write(raw)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            return read_cube(f"/dev/fd/{r}")
        finally:
            os.close(r)
            writer.join(timeout=30)
            assert not writer.is_alive()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_round_trip(self, tmp_path, dtype):
        # More than one 64 KiB pipe buffer in either dtype.
        data = np.random.Generator(np.random.Philox(6)).random((4, 64, 64))
        path = tmp_path / "cube.hsic"
        write_cube(path, data, dtype=dtype)
        back, stored = self.read_through_pipe(path.read_bytes())
        assert stored == dtype
        expected, _ = read_cube(path)
        np.testing.assert_array_equal(back, expected)
        assert back.flags.writeable and back.flags.owndata

    def test_short_payload_raises(self):
        top = 2**32 - 1
        with pytest.raises(
            CubeFileError, match=rf"payload length 4 .* at byte offset {HEADER_SIZE}$"
        ):
            self.read_through_pipe(_header(h=top, w=top, c=top) + b"abcd")


@pytest.mark.parametrize(
    "shape, dtype, message",
    [
        ((2, 2), "f16", "dtype must be 'f32' or 'f64', got 'f16'"),
        ((4,), "f64", "expected 2-D or 3-D array, got shape (4,)"),
        ((1, 2, 2, 2), "f32", "expected 2-D or 3-D array, got shape (1, 2, 2, 2)"),
    ],
)
def test_write_of_a_bad_dtype_or_rank_raises_and_creates_nothing(
    tmp_path, shape, dtype, message
):
    with pytest.raises(ValueError) as excinfo:
        write_cube(tmp_path / "c.hsic", np.zeros(shape), dtype=dtype)
    assert str(excinfo.value) == message
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", [3.5e38, -1e300, np.finfo(np.float64).max])
def test_f32_write_beyond_float32_range_raises_and_keeps_the_old_file(
    tmp_path, value
):
    path = tmp_path / "c.hsic"
    write_cube(path, np.zeros((1, 2, 2)))
    old = path.read_bytes()
    data = np.array([[np.inf, np.nan], [1.0, value]])
    with pytest.raises(CubeFileError) as excinfo:
        write_cube(path, data, dtype="f32")
    assert str(excinfo.value) == f"{path}: a finite value overflows f32"
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["c.hsic"]
    # The value f32 rounds to its largest finite number, or an infinity
    # already in the input, is stored.
    data[1, 1] = 3.4028235e38
    write_cube(path, data, dtype="f32")
    back, _ = read_cube(path)
    assert back.tobytes() == data.astype(np.float32).astype(np.float64).tobytes()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_export_of_a_non_finite_plane_raises_and_creates_nothing(tmp_path, bad):
    plane = np.zeros((2, 2))
    plane[1, 0] = bad
    with pytest.raises(NonFiniteValue, match="NaN or Inf"):
        write_pgm(tmp_path / "band.pgm", plane)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("shape", [(4,), (1, 2, 2)])
def test_pgm_export_of_a_plane_that_is_not_2d_raises_and_creates_nothing(
    tmp_path, shape
):
    with pytest.raises(ValueError) as excinfo:
        write_pgm(tmp_path / "band.pgm", np.zeros(shape))
    assert str(excinfo.value) == f"expected 2-D plane, got shape {shape}"
    assert not list(tmp_path.iterdir())


class TestWriteErrorNamesThePath:
    def test_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "cube.hsic"
        with pytest.raises(FileNotFoundError) as info:
            write_cube(path, np.zeros((1, 2, 2)))
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)

    def test_rename_over_a_directory_removes_the_temp_file(self, tmp_path):
        path = tmp_path / "adir"
        path.mkdir()
        with pytest.raises(OSError) as info:
            write_pgm(path, np.zeros((2, 2)))
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert not list(path.iterdir())

    def test_cli_message(self, tmp_path, capsys):
        path = tmp_path / "missing" / "m.hsic"
        code = main([
            "mask", "gen", "--height", "2", "--width", "2", "--density", "0.5",
            "--seed", "0", "--out", str(path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"No such file or directory: {str(path)!r}" in err
        assert ".tmp" not in err


def _fail_with(code):
    def fallocate(fd, offset, length):
        raise OSError(code, os.strerror(code))

    return fallocate


class TestPreallocation:
    """Every write reserves its whole payload with ``os.posix_fallocate``
    before the first byte; where that is not supported the write goes ahead
    unchanged, and any other failure fails the write."""

    def cube(self):
        return np.random.Generator(np.random.Philox(8)).random((3, 4, 5))

    @pytest.mark.parametrize(
        "write,size",
        [
            (lambda path, data: write_cube(path, data), HEADER_SIZE + 60 * 8),
            (lambda path, data: write_cube(path, data, "f32"), HEADER_SIZE + 60 * 4),
            (lambda path, data: write_pgm(path, data[0]), len(b"P5\n5 4\n255\n") + 20),
        ],
        ids=["f64", "f32", "pgm"],
    )
    def test_reserves_the_exact_payload_once(self, tmp_path, monkeypatch, write, size):
        calls = []

        def spy(fd, offset, length):
            calls.append((offset, length, os.fstat(fd).st_size))

        monkeypatch.setattr(os, "posix_fallocate", spy, raising=False)
        path = tmp_path / "out"
        write(path, self.cube())
        assert calls == [(0, size, 0)]
        assert path.stat().st_size == size

    @pytest.mark.parametrize("code", ["ENOSPC", "EDQUOT", "EFBIG", "EIO"])
    def test_a_refused_reservation_fails_before_any_data(
        self, tmp_path, monkeypatch, code
    ):
        path = tmp_path / "cube.hsic"
        write_cube(path, self.cube())
        old = path.read_bytes()
        sizes = []

        def refuse(fd, offset, length):
            sizes.append(os.fstat(fd).st_size)
            _fail_with(getattr(errno, code))(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", refuse, raising=False)
        with pytest.raises(OSError) as info:
            write_cube(path, np.zeros((2, 2, 2)))
        assert info.value.errno == getattr(errno, code)
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)
        assert sizes == [0]
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["cube.hsic"]

    @pytest.mark.parametrize("code", ["EOPNOTSUPP", "ENOSYS", "EINVAL", None])
    def test_without_preallocation_the_bytes_are_the_same(
        self, tmp_path, monkeypatch, code
    ):
        data = self.cube()
        expected = {"cube.hsic": tmp_path / "c.hsic", "band.pgm": tmp_path / "b.pgm"}
        write_cube(expected["cube.hsic"], data)
        write_pgm(expected["band.pgm"], data[0])
        out = tmp_path / "out"
        out.mkdir()
        write_cube(out / "cube.hsic", np.ones((1, 1, 1)))  # replaced below
        if code is None:
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            monkeypatch.setattr(
                os, "posix_fallocate", _fail_with(getattr(errno, code)), raising=False
            )
        write_cube(out / "cube.hsic", data)
        write_pgm(out / "band.pgm", data[0])
        assert sorted(p.name for p in out.iterdir()) == ["band.pgm", "cube.hsic"]
        for name, path in expected.items():
            assert (out / name).read_bytes() == path.read_bytes()


def test_a_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "cube.hsic"
    write_cube(path, np.ones((2, 3, 3)))
    old = path.read_bytes()
    writes = []

    class FailsAfterTheHeader(io.BufferedWriter):
        def write(self, chunk):
            writes.append(memoryview(chunk).nbytes)
            if len(writes) > 1:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return super().write(chunk)

    monkeypatch.setattr(
        os, "fdopen", lambda fd, mode: FailsAfterTheHeader(io.FileIO(fd, "w"))
    )
    with pytest.raises(OSError) as info:
        write_cube(path, np.zeros((2, 3, 3)))
    assert writes == [HEADER_SIZE, 2 * 3 * 3 * 8]
    assert info.value.errno == errno.EIO
    assert info.value.filename == str(path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["cube.hsic"]


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

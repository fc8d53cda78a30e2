"""Minimal binary cube container.

Layout (all integers little-endian):

====================  ======  =====================================
bytes 0..3            magic   ``HSIC``
bytes 4..5            u16     format version, currently 1
byte 6                u8      dtype code: 0 = float32 LE, 1 = float64 LE
byte 7                u8      reserved, must be 0
bytes 8..11           u32     H (rows)
bytes 12..15          u32     W (columns)
bytes 16..19          u32     C (bands)
bytes 20..            data    H*W*C values, band-major, row then column
====================  ======  =====================================

Masks and measurements are stored with C = 1.  Writes go through a
temporary file and an atomic rename: a reader, or a run that fails, sees
either the old file or the new one, never a mix.  Nothing is synced, so a
power loss may still lose a recent write.  The temporary file's whole size
is reserved before the first byte is written, so a full disk fails before
any data is written, and renaming it over an existing file on ext4 does not
force the writeback of delayed-allocation blocks.

Each payload is copied once on its way between the file and the caller.
``write_cube`` hands a float64 array's own buffer to the file, and
``read_cube`` reads a regular file's payload straight into the array it
returns, after checking the header's promise against the file size, so a
malformed header never makes it allocate.  A stream whose size is unknown,
such as a pipe, is read to its end and then validated.
"""

from __future__ import annotations

import errno
import os
import secrets
import stat
import struct

import numpy as np

from .core import _require_finite
from .errors import CubeFileError

MAGIC = b"HSIC"
VERSION = 1
HEADER_SIZE = 20

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {"f32": 0, "f64": 1}


# Errors that mean a file system cannot preallocate; the write goes ahead
# without it.
_NO_PREALLOCATION = frozenset({errno.EOPNOTSUPP, errno.ENOSYS, errno.EINVAL})


def _preallocate(fd: int, size: int) -> None:
    """Reserve ``size`` bytes of ``fd`` from offset 0, if the platform and
    the file system can; any other error, such as ``ENOSPC``, is raised."""
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(fd, 0, size)
    except OSError as exc:
        if exc.errno not in _NO_PREALLOCATION:
            raise


def _atomic_write(path: str | os.PathLike, *chunks: bytes | np.ndarray) -> None:
    """Write ``chunks`` to a fresh temporary file beside ``path``, then
    rename it over ``path``.  A chunk is any C-contiguous buffer and is
    written without a copy.  The whole payload is preallocated first, so a
    full disk fails before any chunk is written.  The temporary file is
    created with mode 0o666 less the umask, as ``open`` would create
    ``path``, and is removed on any error.  An ``OSError`` names ``path``,
    never the temporary file."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f"{name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                _preallocate(fd, sum(memoryview(chunk).nbytes for chunk in chunks))
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def write_cube(path: str | os.PathLike, data: np.ndarray, dtype: str = "f64") -> None:
    """Write a (C, H, W) or (H, W) array; 2-D input is stored with C = 1.

    A C-contiguous float64 array stored as ``f64`` is written from its own
    memory; other input is first converted into one payload-sized array.
    Raises CubeFileError, creating no file, if a value overflows ``f32``.
    """
    if dtype not in _CODES:
        raise ValueError(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ValueError(f"expected 2-D or 3-D array, got shape {arr.shape}")
    code = _CODES[dtype]
    with np.errstate(over="raise"):
        try:
            payload = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        except FloatingPointError:
            raise CubeFileError(f"{path}: a finite value overflows f32") from None
    c, h, w = arr.shape
    header = MAGIC + struct.pack("<HBBIII", VERSION, code, 0, h, w, c)
    _atomic_write(path, header, payload)


def read_cube(path: str | os.PathLike) -> tuple[np.ndarray, str]:
    """Read a cube file; returns (float64 (C, H, W) array, stored dtype name).

    The array is freshly allocated, writeable and C-contiguous.  A regular
    file's payload is read straight into it (an ``f32`` file goes through
    one float32 array), after its size is checked against the header; a
    pipe or other stream is read to its end first.

    Raises CubeFileError with the byte offset of the first malformed field.
    """
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise CubeFileError(
                f"{path}: truncated header, {len(header)} bytes at byte offset 0"
            )
        if header[:4] != MAGIC:
            raise CubeFileError(
                f"{path}: bad magic {header[:4]!r} at byte offset 0"
            )
        version, code, reserved, h, w, c = struct.unpack("<HBBIII", header[4:])
        if version != VERSION:
            raise CubeFileError(
                f"{path}: unsupported version {version} at byte offset 4"
            )
        if code not in _DTYPES:
            raise CubeFileError(
                f"{path}: unknown dtype code {code} at byte offset 6"
            )
        if reserved != 0:
            raise CubeFileError(
                f"{path}: reserved byte is {reserved} (want 0) at byte offset 7"
            )
        if h < 1 or w < 1 or c < 1:
            raise CubeFileError(
                f"{path}: zero dimension in header (H={h}, W={w}, C={c}) "
                "at byte offset 8"
            )
        dtype = _DTYPES[code]
        expected = h * w * c * dtype.itemsize

        def mismatch(length: int) -> CubeFileError:
            return CubeFileError(
                f"{path}: payload length {length} does not match header "
                f"({h}x{w}x{c} {dtype.name}) at byte offset {HEADER_SIZE}"
            )

        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            if info.st_size - HEADER_SIZE != expected:
                raise mismatch(info.st_size - HEADER_SIZE)
            arr = np.empty((c, h, w), dtype=dtype)
            got = fh.readinto(arr)
            if got != expected:  # the file shrank after the size check
                raise mismatch(got)
            if fh.read(1):  # or grew
                raise mismatch(os.fstat(fh.fileno()).st_size - HEADER_SIZE)
        else:
            payload = fh.read()
            if len(payload) != expected:
                raise mismatch(len(payload))
            # A read-only view of ``payload``; astype below copies it.
            arr = np.frombuffer(payload, dtype=dtype).reshape(c, h, w)
    name = "f32" if code == 0 else "f64"
    return arr.astype(np.float64, copy=not arr.flags.writeable), name


def write_pgm(path: str | os.PathLike, plane: np.ndarray) -> None:
    """Export one band as an 8-bit binary portable graymap (clamped to [0, 1]).

    Raises NonFiniteValue, and creates no file, if the plane holds NaN or Inf.
    """
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D plane, got shape {arr.shape}")
    _require_finite(arr, f"{path}: plane")
    arr = np.clip(arr, 0.0, 1.0)
    h, w = arr.shape
    body = np.round(arr * 255.0).astype(np.uint8)
    _atomic_write(path, f"P5\n{w} {h}\n255\n".encode("ascii"), body)

"""Core value types and the memory layout they share.

Every 3-D tensor is stored band-major as a C-contiguous ``(bands, height,
width)`` float64 array: band is the slowest axis, then row, then column, so
each band plane is a contiguous 2-D slice.  All types are immutable after
construction (frozen dataclasses holding read-only arrays) and safe to share
across threads.  The types that hold an array compare and hash by identity;
:class:`SceneConfig` compares and hashes by value.

The vector order of the dense test oracle (:mod:`cassi.dense`) differs
from this layout and is defined there; nothing else depends on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import DimensionMismatch, NonFiniteValue


def _as_int(value, name: str) -> int:
    """``value`` as an int; it must be an int or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    """``value`` as a float; it must be a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _int_at_least(value, name: str, minimum: int) -> int:
    """``value`` as an int (see :func:`_as_int`); it must be >= ``minimum``."""
    value = _as_int(value, name)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class SceneConfig:
    """Geometry shared by a scene, its sensing operator, and its measurement.

    ``shift_step`` is the horizontal pixel displacement per band introduced
    by the dispersive element; band 0 is the unshifted base band.
    """

    height: int
    width: int
    bands: int
    shift_step: int

    def __post_init__(self):
        for name in ("height", "width", "bands", "shift_step"):
            object.__setattr__(self, name, _int_at_least(getattr(self, name), name, 1))

    def measurement_width(self) -> int:
        """Detector width: scene width plus the dispersion span d*(C-1)."""
        return self.width + self.shift_step * (self.bands - 1)

    @property
    def geometry(self) -> tuple[int, int, int, int]:
        """(height, width, bands, shift_step)."""
        return (self.height, self.width, self.bands, self.shift_step)


def _all_finite(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds no NaN and no infinity, checked on the calling
    thread in cache-sized chunks (:func:`cassi._pool.row_block`) of its
    flat values, so no array-sized mask is built.

    A view that is not C-contiguous is never copied.  It is read in slabs
    of its first axis of the same size, or one sub-array at a time where a
    sub-array alone is larger.  numpy gives each check of a strided slab
    an iteration buffer of ``getbufsize()`` values (64 KiB by default),
    which a same-dtype check never uses, so the buffer size is 16 values
    while the slabs are read.
    """
    if arr.ndim < 2 or arr.flags.c_contiguous:
        arr = arr.reshape(-1)
    elif arr[0].nbytes > _pool.BLOCK_BYTES:
        return all(_all_finite(part) for part in arr)
    if not arr.size:
        return True
    rows = arr.shape[0]
    block = _pool.row_block(rows, arr.nbytes // rows)
    finite = np.empty((min(block, rows), *arr.shape[1:]), dtype=bool)
    bufsize = np.setbufsize(16)
    try:
        for lo in range(0, rows, block):
            slab = arr[lo : lo + block]
            if not np.isfinite(slab, finite[: len(slab)]).all():
                return False
    finally:
        np.setbufsize(bufsize)
    return True


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Raise NonFiniteValue unless :func:`_all_finite` holds for ``arr``."""
    if not _all_finite(arr):
        raise NonFiniteValue(f"{what} contains NaN or Inf")


def _l2_norm(arr: np.ndarray) -> float:
    """The square root of numpy's pairwise sum of the squares of ``arr``
    where that is finite; else the norm of ``arr`` scaled by its largest
    magnitude, or Inf if that is not finite.  No BLAS call, so the bits do
    not depend on a BLAS library's thread count."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(np.add.reduce(np.square(arr), axis=None)))
        if math.isfinite(norm):
            return norm
        peak = float(np.max(np.abs(arr)))
        if not math.isfinite(peak):
            return math.inf
        scaled = np.square(arr / peak)
        return peak * math.sqrt(float(np.add.reduce(scaled, axis=None)))


def _checked_array(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Defensive-copy ``data`` to a read-only float64 array of ``shape``."""
    arr = np.array(data, dtype=np.float64, order="C")
    if arr.shape != shape:
        raise DimensionMismatch(f"{what}: expected shape {shape}, got {arr.shape}")
    _require_finite(arr, what)
    arr.setflags(write=False)
    return arr


class _Adoptable:
    """Shared fast constructor of the frozen (config, data) value types."""

    @classmethod
    def _adopt(cls, config: SceneConfig, data: np.ndarray):
        """Wrap a freshly allocated, correctly shaped array without copying."""
        data.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "config", config)
        object.__setattr__(obj, "data", data)
        return obj


@dataclass(frozen=True, eq=False)
class HSICube(_Adoptable):
    """A spectral cube in scene coordinates, stored as (bands, H, W).

    Scene content is conventionally in [0, 1] but the library never clamps;
    clamping happens only inside metrics and image export.
    """

    config: SceneConfig
    data: np.ndarray

    def __post_init__(self):
        h, w, c, _ = self.config.geometry
        object.__setattr__(
            self, "data", _checked_array(self.data, (c, h, w), "HSICube")
        )


@dataclass(frozen=True, eq=False)
class CodedAperture:
    """The 2-D modulation mask in front of the scene, stored as (H, W).

    Binary masks are the common case but any finite nonnegative values are
    legal (gray masks model partial transmission).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or 0 in arr.shape:
            raise DimensionMismatch(f"mask must be 2-D and non-empty, got {arr.shape}")
        arr = _checked_array(arr, arr.shape, "CodedAperture")
        if (arr < 0.0).any():
            raise ValueError("CodedAperture values must be >= 0")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class Measurement(_Adoptable):
    """A single detector image, stored as (H, W')."""

    config: SceneConfig
    data: np.ndarray

    def __post_init__(self):
        h = self.config.height
        wp = self.config.measurement_width()
        object.__setattr__(
            self, "data", _checked_array(self.data, (h, wp), "Measurement")
        )

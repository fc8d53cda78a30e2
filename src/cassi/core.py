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

import numbers
from dataclasses import dataclass

import numpy as np

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


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{what} contains NaN or Inf")


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

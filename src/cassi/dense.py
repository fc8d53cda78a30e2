"""Explicit dense materialization of the sensing matrix, for checking only
(``cassi oracle-check`` and the tests; not exported by :mod:`cassi`).

Builds the small n x (n*C) block matrix whose c-th block is the diagonal of
the vectorized shifted-mask band, plus an SVD pseudo-inverse.  A hard entry
cap keeps this module desk-scale: it exists to check the matrix-free
operator, never to run at production size.

Vectors are ordered in shifted coordinates with the columns of each band
stacked (column-major) and the bands concatenated: detector pixel (u, v) of
band c sits at ``c*H*W' + v*H + u``.  :func:`cube_to_vec` and
:func:`meas_to_vec` build that order with ``ravel(order="F")``, and
:func:`build_dense` lays its blocks out the same way.
"""

from __future__ import annotations

import numpy as np

from .core import HSICube, Measurement, SceneConfig
from .errors import DimensionMismatch, InstanceTooLarge, NumericalFailure
from .operator import SensingOperator, _shift

# 4_194_304 float64 entries = 32 MB; not configurable by design.
MAX_DENSE_ENTRIES = 4_194_304

_SV_CUTOFF = 1e-12


def cube_to_vec(cube: HSICube) -> np.ndarray:
    """Vectorize a scene cube in shifted coordinates, in the module's order."""
    s = _shift(cube.data, cube.config.shift_step)
    return np.concatenate([s[c].ravel(order="F") for c in range(s.shape[0])])


def vec_to_cube(vec: np.ndarray, config: SceneConfig) -> HSICube:
    """Inverse of :func:`cube_to_vec` for vectors supported on the shift bands.

    Raises DimensionMismatch if the vector carries mass outside the shifted
    support (such a vector has no scene-cube preimage).
    """
    h, w, nc, d = config.geometry
    wp = config.measurement_width()
    if vec.shape != (h * wp * nc,):
        raise DimensionMismatch(f"vector length {vec.shape} != {(h * wp * nc,)}")
    planes = vec.reshape(nc, wp, h).transpose(0, 2, 1)  # undo per-band F-order
    out = np.empty((nc, h, w))
    for c in range(nc):
        lo = d * c
        out[c] = planes[c, :, lo : lo + w]
        margin = np.abs(planes[c]).sum() - np.abs(planes[c, :, lo : lo + w]).sum()
        if margin > 1e-12 * max(1.0, np.abs(vec).max()):
            raise DimensionMismatch(
                f"vector has off-support mass in band {c}; not a scene cube"
            )
    return HSICube._adopt(config, out)


def meas_to_vec(meas: Measurement) -> np.ndarray:
    """Column-major vectorization of the detector image."""
    return meas.data.ravel(order="F")


def vec_to_meas(vec: np.ndarray, config: SceneConfig) -> Measurement:
    h = config.height
    wp = config.measurement_width()
    if vec.shape != (h * wp,):
        raise DimensionMismatch(f"vector length {vec.shape} != {(h * wp,)}")
    return Measurement._adopt(config, vec.reshape(wp, h).T.copy())


def build_dense(op: SensingOperator) -> np.ndarray:
    """Materialize the n x (n*C) sensing matrix, n = H * W'.

    Block c is the diagonal of the mask shifted d*c columns, built with
    :func:`_shift` rather than the operator's own kernels.
    """
    h, w, nc, d = op.config.geometry
    wp = op.config.measurement_width()
    n = h * wp
    if n * n * nc > MAX_DENSE_ENTRIES:
        raise InstanceTooLarge(
            f"dense matrix would hold {n * n * nc} entries "
            f"(cap {MAX_DENSE_ENTRIES})"
        )
    shifted = _shift(np.broadcast_to(op.mask, (nc, h, w)), d)
    mat = np.zeros((n, n * nc))
    idx = np.arange(n)
    for c in range(nc):
        mat[idx, c * n + idx] = shifted[c].ravel(order="F")
    return mat


def dense_pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below ``1e-12 * sigma_max`` are treated as zero.
    """
    if m.size > MAX_DENSE_ENTRIES:
        raise InstanceTooLarge(f"{m.size} entries exceeds cap {MAX_DENSE_ENTRIES}")
    try:
        return np.linalg.pinv(m, rcond=_SV_CUTOFF)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc

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
:func:`build_dense` lays its blocks out the same way.  The oracle only
compares vectors, so no vector is ever mapped back to a cube or an image.
"""

from __future__ import annotations

import numpy as np

from .core import HSICube, Measurement, SceneConfig
from .errors import InstanceTooLarge, NumericalFailure
from .operator import SensingOperator, _shift

# 4_194_304 float64 entries = 32 MB; not configurable by design.
MAX_DENSE_ENTRIES = 4_194_304

_SV_CUTOFF = 1e-12


def cube_to_vec(cube: HSICube) -> np.ndarray:
    """Vectorize a scene cube in shifted coordinates, in the module's order."""
    s = _shift(cube.data, cube.config.shift_step)
    return np.concatenate([s[c].ravel(order="F") for c in range(s.shape[0])])


def meas_to_vec(meas: Measurement) -> np.ndarray:
    """Column-major vectorization of the detector image."""
    return meas.data.ravel(order="F")


def _check_dense_size(config: SceneConfig) -> None:
    """Raise InstanceTooLarge if the n x (n*C) matrix of ``config`` would
    exceed the cap; the geometry alone decides, so nothing need be built."""
    n = config.height * config.measurement_width()
    entries = n * n * config.bands
    if entries > MAX_DENSE_ENTRIES:
        raise InstanceTooLarge(
            f"dense matrix would hold {entries} entries (cap {MAX_DENSE_ENTRIES})"
        )


def build_dense(op: SensingOperator) -> np.ndarray:
    """Materialize the n x (n*C) sensing matrix, n = H * W'.

    Block c is the diagonal of the mask shifted d*c columns, built with
    :func:`_shift` rather than the operator's own kernels.
    """
    _check_dense_size(op.config)
    h, w, nc, d = op.config.geometry
    n = h * op.config.measurement_width()
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

"""Matrix-free sensing operator: forward model, adjoint, pseudo-inverse.

The sensing matrix of a dispersive snapshot imager is a row of per-band
diagonal blocks, block c being the 2-D mask shifted d*c columns right, so
its Gram matrix is diagonal: ``sigma(u, v)`` is the sum over bands of the
squared mask values that reach detector pixel (u, v).  The operator stores
only the (H, W) mask and the reciprocal of ``sigma``, 1.16 MB at
256x256x28 with d = 2.  One private kernel
pair, :func:`_forward` and :func:`_backproject`, applies the mask to band
arrays; every operation here and the GAP solver's data step go through it.
The dense matrix (hundreds of GB at full scale) is never formed outside the
test oracle.

Band c of a (C, H, W') tensor is supported on columns [d*c, d*c + W), so
the on-support region of all bands is a single strided (C, H, W) view
(:func:`_on_support`); shifting a cube copies through it.

Public operations allocate fresh outputs and are pure; the operator itself
is immutable and shareable across threads.  Per-pixel sums over bands
always run in increasing band order, so results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import CodedAperture, HSICube, Measurement, SceneConfig, ShiftedCube
from .errors import DimensionMismatch, MaskDegenerate


def _on_support(t: np.ndarray, d: int) -> np.ndarray:
    """View of band c's columns [d*c, d*c + W) of a (C, H, W') tensor.

    One band step is one plane plus d columns, so the view is (C, H, W)
    with no copy.  It is writeable exactly when ``t`` is.
    """
    nc, h, wp = t.shape
    s_band, s_row, s_col = t.strides
    return as_strided(
        t, shape=(nc, h, wp - d * (nc - 1)), strides=(s_band + d * s_col, s_row, s_col)
    )


def _forward(mask: np.ndarray, d: int, bands: np.ndarray) -> np.ndarray:
    """Detector image of (C, H, W) bands: modulate each band by the mask,
    shift band c right by d*c columns, and accumulate in band order."""
    nc, h, w = bands.shape
    y = np.zeros((h, w + d * (nc - 1)))
    for c in range(nc):
        y[:, d * c : d * c + w] += bands[c] * mask
    return y


def _backproject(
    mask: np.ndarray, d: int, y: np.ndarray, out: np.ndarray, accumulate: bool = False
) -> np.ndarray:
    """Transpose of :func:`_forward`: write (or, with ``accumulate``, add)
    ``mask * y[:, d*c : d*c + W]`` into band c of the (C, H, W) ``out``."""
    w = mask.shape[1]
    for c in range(out.shape[0]):
        window = y[:, d * c : d * c + w]
        if accumulate:
            out[c] += mask * window
        else:
            np.multiply(mask, window, out=out[c])
    return out


def _gram_diagonal(mask: np.ndarray, config: SceneConfig) -> np.ndarray:
    """Gram diagonal ``sigma``: the forward image of the mask in every band."""
    h, w, nc, d = config.geometry
    return _forward(mask, d, np.broadcast_to(mask, (nc, h, w)))


def shift_cube(cube: HSICube) -> ShiftedCube:
    """Disperse a scene cube: band c translated right by d*c columns."""
    h, _, nc, d = cube.config.geometry
    out = np.zeros((nc, h, cube.config.measurement_width()))
    _on_support(out, d)[...] = cube.data
    return ShiftedCube._adopt(cube.config, out)


@dataclass(frozen=True)
class SensingOperator:
    """Geometry plus the 2-D mask and the reciprocal Gram diagonal.

    ``mask`` is the read-only (H, W) coded aperture; band c sees it shifted
    d*c columns right.  The diagonal ``sigma`` of the operator Gram matrix
    must be strictly positive everywhere (construction raises
    :class:`MaskDegenerate` otherwise).  Only its reciprocal ``inv_sigma``
    is kept, because that is what pinv, rnd_combine and every solver
    iteration read.  Build instances with :func:`build_operator`, which
    checks the mask against the geometry.
    """

    config: SceneConfig
    mask: np.ndarray
    inv_sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        sigma = _gram_diagonal(self.mask, self.config)
        if not (sigma > 0.0).all():
            u, v = np.argwhere(sigma == 0.0)[0]
            raise MaskDegenerate(int(u), int(v))
        inv_sigma = np.divide(1.0, sigma, out=sigma)
        inv_sigma.setflags(write=False)
        object.__setattr__(self, "inv_sigma", inv_sigma)

    def _check_cube(self, cube: HSICube) -> None:
        if cube.config.geometry != self.config.geometry:
            raise DimensionMismatch("cube geometry disagrees with operator")

    def _check_meas(self, meas: Measurement) -> None:
        if meas.config.geometry != self.config.geometry:
            raise DimensionMismatch("measurement geometry disagrees with operator")

    def _adjoint_array(self, y: np.ndarray) -> np.ndarray:
        h, w, nc, d = self.config.geometry
        return _backproject(self.mask, d, y, np.empty((nc, h, w)))

    def _subtract_range(self, out: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``out -= range_project(x)`` without a full-size temporary.

        Adds the backprojection of the negated weighted image instead;
        negation is exact, so the bytes equal those of the subtraction.
        """
        r = _forward(self.mask, self.config.shift_step, x) * self.inv_sigma
        np.negative(r, out=r)
        return _backproject(self.mask, self.config.shift_step, r, out, accumulate=True)

    def forward(self, cube: HSICube) -> Measurement:
        """Detector image: per band, shift, modulate by the mask, accumulate."""
        self._check_cube(cube)
        y = _forward(self.mask, self.config.shift_step, cube.data)
        return Measurement._adopt(self.config, y)

    def adjoint(self, meas: Measurement) -> HSICube:
        """Transpose of :meth:`forward`: mask-modulated backprojection."""
        self._check_meas(meas)
        return HSICube._adopt(self.config, self._adjoint_array(meas.data))

    def pinv(self, meas: Measurement) -> HSICube:
        """Minimum-norm solution of forward(x) = meas.

        Two element-wise passes: divide by the Gram diagonal, then
        backproject.  Equals the Moore-Penrose pseudo-inverse because the
        Gram matrix is diagonal and strictly positive.
        """
        self._check_meas(meas)
        return HSICube._adopt(
            self.config, self._adjoint_array(meas.data * self.inv_sigma)
        )

    def range_project(self, cube: HSICube) -> HSICube:
        """Orthogonal projection onto the row space of the operator."""
        return self.pinv(self.forward(cube))

    def null_project(self, cube: HSICube) -> HSICube:
        """Orthogonal projection onto the null space of the operator."""
        self._check_cube(cube)
        out = self._subtract_range(cube.data.copy(), cube.data)
        return HSICube._adopt(self.config, out)

    def rnd_combine(self, meas: Measurement, q: HSICube) -> HSICube:
        """Data-consistent combination: pinv(meas) plus the null part of q.

        For any candidate q the result reproduces ``meas`` under
        :meth:`forward` up to rounding.
        """
        self._check_meas(meas)
        self._check_cube(q)
        out = self._adjoint_array(meas.data * self.inv_sigma)
        out += q.data
        return HSICube._adopt(self.config, self._subtract_range(out, q.data))

    def nbytes(self) -> int:
        """Bytes held by the operator's arrays: mask and inv_sigma."""
        return self.mask.nbytes + self.inv_sigma.nbytes


def build_operator(mask: CodedAperture, config: SceneConfig) -> SensingOperator:
    """Precompute the Gram diagonal for a mask/geometry pair.

    Raises DimensionMismatch if the mask is not H x W, and MaskDegenerate
    if any detector pixel receives no mask energy across all bands (the
    operator would not have full row rank).
    """
    h, w = config.height, config.width
    if (mask.height, mask.width) != (h, w):
        raise DimensionMismatch(
            f"mask is {mask.height}x{mask.width}, config wants {h}x{w}"
        )
    return SensingOperator(config, mask.data)

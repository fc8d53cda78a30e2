"""Matrix-free sensing operator: forward model, adjoint, pseudo-inverse.

The sensing matrix of a dispersive snapshot imager is a row of per-band
diagonal blocks, block c being the 2-D mask shifted d*c columns right, so
its Gram matrix is diagonal: ``sigma(u, v)`` is the sum over bands of the
squared mask values that reach detector pixel (u, v).  The operator stores
only the (H, W) mask and the reciprocal of ``sigma``, 1.16 MB at
256x256x28 with d = 2.  One private kernel pair, :func:`_forward` and
:func:`_backproject`, applies the mask to band arrays, and one private
method, :meth:`SensingOperator._add_pinv`, adds ``pinv(r)`` of a detector
residual ``r`` to them in place.  The GAP data step is that method with
``r = y - A z``, and :meth:`~SensingOperator.rnd_combine` is the same step
on the candidate (``pinv(y) + q - pinv(A q) = q + pinv(y - A q)``), so
``rnd-gap-tv`` is ``gap-tv`` plus one more data step.  The dense matrix
(hundreds of GB at full scale) is never formed outside the test oracle.

Band c of a (C, H, W') tensor is supported on columns [d*c, d*c + W), so
the on-support region of all bands is a single strided (C, H, W) view
(:func:`_on_support`); :func:`_shift` copies a cube through it.

:func:`_forward` and :func:`_backproject` work on blocks of detector rows
(:func:`cassi._pool.row_block`), one after another on the calling thread:
an image that fits in ``BLOCK_BYTES`` is one block, a larger one is cut
into near-equal blocks that share one scratch, and no thread is started.
Rows are independent, so the split changes no value.  In the detector
image, band c's window over rows [lo, hi) is one flat run of
``y.reshape(-1)``: it starts at ``lo*W' + d*c`` and is ``(hi-lo-1)*W' +
W`` values long, the window's rows joined by the ``W' - W`` values
between them.  So :func:`_forward` writes the band's product into the
first W columns of a zero-padded (rows, W') scratch, and adds the scratch
to that run in one contiguous add instead of one strided add per row.  The
pad adds +0 to the values between the window's rows.  That changes none of
them: ``y`` starts at +0, a sum that starts at +0 is never -0, and
``v + (+0)`` is ``v`` for every ``v`` but -0.  This one kernel builds
every detector image, ``sigma`` too: that is the forward image of the mask
broadcast to every band, whose product is then the squared mask; its
reciprocal is checked in chunks (:func:`cassi.core._all_finite`).
:meth:`SensingOperator._add_pinv` adds into (C, H, W) bands, which may be
a view.  With the crop off, the GAP solver passes the on-support view of
its full-width iterate, whose margins may hold -0, so the add stays a
strided add over the window alone: a flat add would also touch the
margins and turn a -0 there into +0.

Public operations allocate fresh outputs and are pure; the operator itself
is immutable and shareable across threads.  Per-pixel sums over bands
always run in increasing band order, so results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._pool import row_block
from .core import CodedAperture, HSICube, Measurement, SceneConfig, _all_finite
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
    wp = w + d * (nc - 1)
    y = np.zeros((h, wp))
    flat = y.reshape(-1)
    block = row_block(h, wp * y.itemsize)
    pad = np.zeros((block, wp))
    broadcast = bands.strides[0] == 0  # one band for all: modulate it once
    for lo in range(0, h, block):
        hi = min(lo + block, h)
        n, at = (hi - lo - 1) * wp + w, lo * wp
        product, run, m = pad[: hi - lo, :w], pad.reshape(-1)[:n], mask[lo:hi]
        for c, band in enumerate(bands[:, lo:hi]):
            if c == 0 or not broadcast:
                np.multiply(band, m, product)
            window = flat[at + d * c : at + d * c + n]
            np.add(window, run, window)
    return y


def _backproject(
    mask: np.ndarray, d: int, y: np.ndarray, out: np.ndarray, accumulate: bool = False
) -> np.ndarray:
    """Transpose of :func:`_forward`: write (or, with ``accumulate``, add)
    ``mask * y[:, d*c : d*c + W]`` into band c of the (C, H, W) ``out``."""
    nc, h, w = out.shape
    block = row_block(h, y.shape[1] * y.itemsize)
    if accumulate:
        scratch = np.empty((block, w))
    for lo in range(0, h, block):
        hi = min(lo + block, h)
        rows, m = y[lo:hi], mask[lo:hi]
        for c, band in enumerate(out[:, lo:hi]):
            window = rows[:, d * c : d * c + w]
            if accumulate:
                product = np.multiply(m, window, scratch[: hi - lo])
                np.add(band, product, band)
            else:
                np.multiply(m, window, band)
    return out


def _shift(bands: np.ndarray, d: int) -> np.ndarray:
    """Disperse (C, H, W) bands into a fresh (C, H, W') array: band c
    translated right by d*c columns, zero elsewhere.  The inverse of
    :func:`_on_support`."""
    nc, h, w = bands.shape
    out = np.zeros((nc, h, w + d * (nc - 1)))
    _on_support(out, d)[...] = bands
    return out


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Geometry plus the 2-D mask and the reciprocal Gram diagonal.

    ``mask`` is the read-only (H, W) coded aperture; band c sees it shifted
    d*c columns right.  The diagonal ``sigma`` of the operator Gram matrix
    must be large enough everywhere that its reciprocal is finite, and
    finite itself, so that the reciprocal is not 0 (construction raises
    :class:`MaskDegenerate` otherwise).  Only that reciprocal,
    ``inv_sigma``, is kept, because that is what pinv, rnd_combine and
    every solver iteration read.  Build instances with
    :func:`build_operator`, which checks the mask against the geometry.
    """

    config: SceneConfig
    mask: np.ndarray
    inv_sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        # A diagonal entry of 0, or below about 5.6e-309, has no finite
        # reciprocal, and one that overflows to Inf has a reciprocal of 0.
        h, w, nc, d = self.config.geometry
        with np.errstate(divide="ignore", over="ignore"):
            sigma = _forward(self.mask, d, np.broadcast_to(self.mask, (nc, h, w)))
            inv_sigma = np.divide(1.0, sigma)
            if not (_all_finite(inv_sigma) and inv_sigma.all()):
                bad = ~np.isfinite(inv_sigma) | (inv_sigma == 0.0)
                u, v = (int(i) for i in np.argwhere(bad)[0])
                raise MaskDegenerate(u, v, float(sigma[u, v]))
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

    def _add_pinv(self, bands: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``bands += pinv(r)`` in place, for (C, H, W) ``bands`` (a view
        is fine) and an (H, W') detector residual ``r``."""
        d = self.config.shift_step
        return _backproject(self.mask, d, r * self.inv_sigma, bands, accumulate=True)

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
        # -(A x), not 0 - A x: x - p and x + (-p) agree bitwise, signed zeros too.
        r = np.negative(_forward(self.mask, self.config.shift_step, cube.data))
        out = self._add_pinv(cube.data.copy(), r)
        return HSICube._adopt(self.config, out)

    def rnd_combine(self, meas: Measurement, q: HSICube) -> HSICube:
        """Data-consistent combination: pinv(meas) plus the null part of q.

        Computed as ``q + pinv(meas - A q)``, one GAP data step applied to
        q.  For any candidate q the result reproduces ``meas`` under
        :meth:`forward` up to rounding.
        """
        self._check_meas(meas)
        self._check_cube(q)
        r = meas.data - _forward(self.mask, self.config.shift_step, q.data)
        return HSICube._adopt(self.config, self._add_pinv(q.data.copy(), r))

    def nbytes(self) -> int:
        """Bytes held by the operator's arrays: mask and inv_sigma."""
        return self.mask.nbytes + self.inv_sigma.nbytes


def build_operator(mask: CodedAperture, config: SceneConfig) -> SensingOperator:
    """Precompute the Gram diagonal for a mask/geometry pair.

    Raises DimensionMismatch if the mask is not H x W, and MaskDegenerate
    if any detector pixel receives no mask energy across all bands (the
    operator would not have full row rank), so little that the reciprocal
    overflows, or so much that the energy itself overflows.
    """
    h, w = config.height, config.width
    if (mask.height, mask.width) != (h, w):
        raise DimensionMismatch(
            f"mask is {mask.height}x{mask.width}, config wants {h}x{w}"
        )
    return SensingOperator(config, mask.data)

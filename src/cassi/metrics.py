"""Reference image-quality metrics: PSNR, SSIM and MSE per band, and their
band means.  Every band has H*W pixels, so the band mean of the MSE is the
whole-cube MSE.  :func:`evaluate` gives all three and their means as a
:class:`MetricReport`; :func:`psnr_bands` and :func:`ssim_bands` give one
score per band.

Both cubes are clamped to [0, 1] before comparison (peak 1.0).  SSIM uses
the classical 11x11 Gaussian window with sigma 1.5 and stabilizers
(0.01)^2 and (0.03)^2; window statistics are computed on the valid interior
only (no padding), so bands must be at least 11x11.  The window is the
outer product of a normalised 1-D Gaussian and is applied separably, one
1-D pass per axis.

Every score comes from one pass over blocks of whole bands
(:func:`_band_pass`).  Spans of blocks run on threads of their own, each
clamping its block into its own workspace; small stacks are scored inline.
The workspaces are slices of one block that the calling thread allocates
(:func:`cassi._pool.run_band_spans`), and each workspace row starts on a
64-byte cache line.
A window pass is a few flat numpy calls over a whole block, adding the taps
in the order scipy's ``correlate1d`` uses for a symmetric kernel, so the
valid interior is bitwise what scipy gives; values whose window crosses a
row or band edge are computed and thrown away.  Every band does the same
arithmetic whatever the number of workers or block, so the results are
bitwise the same.  Only numpy is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import line_up, row_block, run_band_spans
from .core import HSICube
from .errors import DimensionMismatch

PSNR_CAP_DB = 100.0

_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2

# Block-sized arrays in an SSIM span's workspace: the clamped pair, the
# three products (the first holds the block's squared error until SSIM
# starts), and two scratch arrays for the window passes.
_SSIM_ARRAYS = 7


@dataclass(frozen=True)
class MetricReport:
    """Per-band quality numbers for one cube pair, and their band means.

    Every band has the same number of pixels, so the band mean of the MSE
    is the whole-cube MSE.
    """

    per_band_psnr: tuple[float, ...]
    per_band_ssim: tuple[float, ...]
    per_band_mse: tuple[float, ...]

    @property
    def psnr_db(self) -> float:
        return float(np.mean(self.per_band_psnr))

    @property
    def ssim(self) -> float:
        return float(np.mean(self.per_band_ssim))

    @property
    def mse(self) -> float:
        return float(np.mean(self.per_band_mse))


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """Normalised 1-D Gaussian; the 2-D window is its outer product."""
    offsets = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return g / g.sum()


_WINDOW = _gaussian_window()
_HALF = _WINDOW.size // 2


def _window_pass(out: np.ndarray, x: np.ndarray, step: int, tmp: np.ndarray) -> None:
    """Correlate the flat ``x`` with the window at a stride of ``step``.

    ``out[i]`` is the window sum centred on ``x[i + 5*step]``, so ``out``
    is ``10*step`` shorter than ``x``; ``tmp`` is scratch at least as long
    as ``out``.  The sum is ``x[c]*w[5]`` plus ``(x[c-j*step] +
    x[c+j*step])*w[5-j]`` for j = 5 down to 1, scipy's order for a
    symmetric kernel.
    """
    n = out.size
    t = tmp[:n]
    np.multiply(x[_HALF * step : _HALF * step + n], _WINDOW[_HALF], out=out)
    for j in range(_HALF, 0, -1):
        left = (_HALF - j) * step
        right = (_HALF + j) * step
        np.add(x[left : left + n], x[right : right + n], out=t)
        t *= _WINDOW[_HALF - j]
        out += t


def _ssim_block(ws: np.ndarray, bands: int, h: int, w: int, out: np.ndarray) -> None:
    """Write the SSIM of each band of a block into ``out``.

    ``ws`` is the (7, m) workspace of a block of n <= m values, its first
    two rows the clamped pair.  Each of the five window quantities is filtered
    along the rows (stride ``w``) into a scratch row and back along the
    columns, so that its index i holds the window mean at block index
    ``i + 5*w + 5``; the SSIM tail then runs in place over those flat
    values, in the order of the per-band formula.
    """
    n = bands * h * w
    q, s1, s2 = ws[:5, :n], ws[5, :n], ws[6, :n]
    np.multiply(q[0], q[0], out=q[2])
    np.multiply(q[1], q[1], out=q[3])
    np.multiply(q[0], q[1], out=q[4])
    rows = n - 2 * _HALF * w
    m = rows - 2 * _HALF
    for x in q:
        _window_pass(s1[:rows], x, w, s2)
        _window_pass(x[:m], s1[:rows], 1, s2)

    mu_a, mu_b, e_aa, e_bb, e_ab = q[:, :m]
    aa, t = s1[:m], s2[:m]
    np.multiply(mu_a, mu_a, out=aa)
    e_aa -= aa  # var_a
    np.multiply(mu_b, mu_b, out=t)
    e_bb -= t  # var_b
    aa += t
    aa += _SSIM_C1
    np.multiply(mu_a, mu_b, out=t)
    e_ab -= t  # cov
    mu_a *= 2.0
    mu_a *= mu_b
    mu_a += _SSIM_C1
    e_ab *= 2.0
    e_ab += _SSIM_C2
    mu_a *= e_ab  # numerator
    e_aa += e_bb
    e_aa += _SSIM_C2
    aa *= e_aa  # denominator
    mu_a /= aa

    # Band c's valid window starts at its own first value.  Each mean is
    # taken over a contiguous copy, which numpy sums in the same order as
    # the fresh (H-10, W-10) array of the per-band formula.
    vh, vw = h - 2 * _HALF, w - 2 * _HALF
    valid = s1[: vh * vw].reshape(vh, vw)
    for c in range(bands):
        lo = c * h * w
        np.copyto(valid, q[0, lo : lo + vh * w].reshape(vh, w)[:, :vw])
        out[c] = float(np.mean(valid))


def _band_pass(
    reference: HSICube, test: HSICube, ssim: bool
) -> tuple[list[float], np.ndarray | None]:
    """Per-band MSE of the clamped pair and, with ``ssim``, per-band SSIM.

    Blocks hold as many whole bands as keep the seven-array SSIM workspace
    within ``BLOCK_BYTES`` (one band at least), and the scores do not depend
    on the blocking or the number of workers.  Every workspace row starts
    on a cache line, and each block's squared error lives only in a row.
    """
    a, b = reference.data, test.data
    if a.shape != b.shape:
        raise DimensionMismatch(f"cube shapes differ: {a.shape} vs {b.shape}")
    nc, h, w = a.shape
    if ssim and (h < _WINDOW.size or w < _WINDOW.size):
        raise DimensionMismatch(
            f"bands of shape {(h, w)} are smaller than the 11x11 ssim window"
        )
    band_mse = [0.0] * nc
    band_ssim = np.empty(nc) if ssim else None
    block = row_block(nc, 8 * _SSIM_ARRAYS * h * w)
    rows, row = (_SSIM_ARRAYS if ssim else 3), line_up(block * h * w)

    def run_span(start: int, stop: int, scratch: np.ndarray) -> None:
        ws = scratch.reshape(rows, row)
        for lo in range(start, stop, block):
            hi = min(lo + block, stop)
            shape = (hi - lo, h, w)
            n = (hi - lo) * h * w
            ca, cb, sq = ws[0, :n], ws[1, :n], ws[2, :n]
            np.clip(a[lo:hi], 0.0, 1.0, out=ca.reshape(shape))
            np.clip(b[lo:hi], 0.0, 1.0, out=cb.reshape(shape))
            np.subtract(ca, cb, out=sq)
            np.square(sq, out=sq)
            for c, band in zip(range(lo, hi), sq.reshape(hi - lo, h * w)):
                band_mse[c] = float(np.mean(band))
            if band_ssim is not None:
                _ssim_block(ws, hi - lo, h, w, band_ssim[lo:hi])

    run_band_spans(run_span, nc, block, rows * row)
    return band_mse, band_ssim


def _psnr_planes(mse: list[float]) -> np.ndarray:
    """Per-band PSNR from per-band MSE."""
    return np.array(
        [PSNR_CAP_DB if m == 0.0 else 10.0 * np.log10(1.0 / m) for m in mse]
    )


def psnr_bands(reference: HSICube, test: HSICube) -> np.ndarray:
    """Per-band PSNR in dB against peak 1.0; a zero-MSE band reports the
    100 dB cap."""
    return _psnr_planes(_band_pass(reference, test, ssim=False)[0])


def ssim_bands(reference: HSICube, test: HSICube) -> np.ndarray:
    """Per-band structural similarity (valid-region 11x11 Gaussian window)."""
    return _band_pass(reference, test, ssim=True)[1]


def evaluate(reference: HSICube, test: HSICube) -> MetricReport:
    """Full report: per-band PSNR, SSIM and MSE, and their band means."""
    mse, s = _band_pass(reference, test, ssim=True)
    return MetricReport(
        per_band_psnr=tuple(float(x) for x in _psnr_planes(mse)),
        per_band_ssim=tuple(float(x) for x in s),
        per_band_mse=tuple(mse),
    )

"""Reference image-quality metrics: PSNR and SSIM, per band then averaged.

Both cubes are clamped to [0, 1] before comparison (peak 1.0).  SSIM uses
the classical 11x11 Gaussian window with sigma 1.5 and stabilizers
(0.01)^2 and (0.03)^2; window statistics are computed on the valid interior
only (no padding), so bands must be at least 11x11.  The window is the
outer product of a normalised 1-D Gaussian and is applied separably, one
1-D pass per axis.  Bands are scored independently, so spans of them run
on the kernel thread pool, each task in its own workspace; small stacks
are scored inline.  Every band does the same arithmetic whatever the pool
size, so the results are bitwise the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from ._pool import band_block, run_band_spans
from .core import HSICube
from .errors import DimensionMismatch

PSNR_CAP_DB = 100.0

_SSIM_C1 = 0.01**2
_SSIM_C2 = 0.03**2


@dataclass(frozen=True)
class MetricReport:
    """Per-band and averaged quality numbers for one cube pair."""

    psnr_db: float
    ssim: float
    per_band_psnr: tuple[float, ...]
    per_band_ssim: tuple[float, ...]
    per_band_mse: tuple[float, ...]
    mse: float


def _clamped_pair(reference: HSICube, test: HSICube) -> tuple[np.ndarray, np.ndarray]:
    if reference.data.shape != test.data.shape:
        raise DimensionMismatch(
            f"cube shapes differ: {reference.data.shape} vs {test.data.shape}"
        )
    return np.clip(reference.data, 0.0, 1.0), np.clip(test.data, 0.0, 1.0)


def _squared_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a - b)**2``, written over ``b`` (a private clamped copy)."""
    np.subtract(a, b, out=b)
    return np.square(b, out=b)


def _mse_planes(sq: np.ndarray) -> list[float]:
    """Per-band MSE from a stack of squared differences."""
    return [float(np.mean(plane)) for plane in sq]


def _psnr_planes(mse: list[float]) -> np.ndarray:
    """Per-band PSNR from per-band MSE."""
    return np.array(
        [PSNR_CAP_DB if m == 0.0 else 10.0 * np.log10(1.0 / m) for m in mse]
    )


def psnr_bands(reference: HSICube, test: HSICube) -> np.ndarray:
    """Per-band PSNR in dB against peak 1.0; a zero-MSE band reports the
    100 dB cap."""
    return _psnr_planes(_mse_planes(_squared_error(*_clamped_pair(reference, test))))


def psnr(reference: HSICube, test: HSICube) -> float:
    """Mean of per-band PSNR."""
    return float(np.mean(psnr_bands(reference, test)))


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    """Normalised 1-D Gaussian; the 2-D window is its outer product."""
    offsets = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return g / g.sum()


_WINDOW = _gaussian_window()
_HALF = _WINDOW.size // 2


def _ssim_plane(a: np.ndarray, b: np.ndarray, ws: np.ndarray) -> float:
    """SSIM of one plane pair, using the (5, H, W) workspace ``ws``.

    The window means come from two in-place 1-D passes of the symmetric
    window (correlation equals convolution) over the stacked planes, then a
    crop to the positions where the window fits inside the plane.
    """
    ws[0] = a
    ws[1] = b
    np.multiply(a, a, out=ws[2])
    np.multiply(b, b, out=ws[3])
    np.multiply(a, b, out=ws[4])
    correlate1d(ws, _WINDOW, axis=-2, output=ws)
    correlate1d(ws, _WINDOW, axis=-1, output=ws)
    mu_a, mu_b, e_aa, e_bb, e_ab = ws[:, _HALF:-_HALF, _HALF:-_HALF]
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(np.mean(num / den))


def _ssim_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    nc, h, w = a.shape
    if h < 11 or w < 11:
        raise DimensionMismatch(
            f"bands of shape {(h, w)} are smaller than the 11x11 ssim window"
        )
    out = np.empty(nc)

    def run_span(lo: int, hi: int) -> None:
        ws = np.empty((5, h, w))
        for c in range(lo, hi):
            out[c] = _ssim_plane(a[c], b[c], ws)

    run_band_spans(run_span, nc, band_block(nc, h, w))
    return out


def ssim_bands(reference: HSICube, test: HSICube) -> np.ndarray:
    """Per-band structural similarity (valid-region 11x11 Gaussian window)."""
    return _ssim_planes(*_clamped_pair(reference, test))


def ssim(reference: HSICube, test: HSICube) -> float:
    """Mean of per-band SSIM."""
    return float(np.mean(ssim_bands(reference, test)))


def evaluate(reference: HSICube, test: HSICube) -> MetricReport:
    """Full report: per-band PSNR/SSIM/MSE, the PSNR and SSIM means, and
    whole-cube MSE."""
    a, b = _clamped_pair(reference, test)
    s = _ssim_planes(a, b)
    sq = _squared_error(a, b)
    mse = _mse_planes(sq)
    p = _psnr_planes(mse)
    return MetricReport(
        psnr_db=float(np.mean(p)),
        ssim=float(np.mean(s)),
        per_band_psnr=tuple(float(x) for x in p),
        per_band_ssim=tuple(float(x) for x in s),
        per_band_mse=tuple(mse),
        mse=float(np.mean(sq)),
    )

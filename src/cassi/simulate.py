"""Synthetic masks, scenes, and shot noise.

Everything here is a pure function of (parameters, seed).  The generator is
numpy's Philox (counter-based), so draws are reproducible across platforms
and runs; the seed-to-stream mapping is part of the compatibility contract
because golden files depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CodedAperture,
    HSICube,
    Measurement,
    SceneConfig,
    _as_float,
    _as_int,
    _int_at_least,
)
from .errors import CropTooLarge, NegativeMeasurement
from .operator import _gram_diagonal


def _seed(seed: int) -> int:
    """The one rule for every seed: an integer >= 0."""
    return _int_at_least(seed, "seed", 0)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_seed(seed)))


@dataclass(frozen=True)
class NoiseSpec:
    """Shot-noise model: detector bit depth plus the draw seed.

    ``full_scale`` optionally fixes the photon count mapped to intensity 1.0
    instead of scaling to the per-measurement maximum.
    """

    shot_bits: int
    seed: int
    full_scale: float | None = None

    def __post_init__(self):
        if not 1 <= _as_int(self.shot_bits, "shot_bits") <= 16:
            raise ValueError(f"shot_bits must be in [1, 16], got {self.shot_bits}")
        _seed(self.seed)
        if self.full_scale is None:
            return
        full_scale = _as_float(self.full_scale, "full_scale")
        if not (math.isfinite(full_scale) and full_scale > 0):
            raise ValueError(
                f"full_scale must be finite and positive, got {self.full_scale!r}"
            )


def gen_mask(height: int, width: int, density: float, seed: int) -> CodedAperture:
    """I.i.d. Bernoulli(density) binary mask, reproducible per seed."""
    shape = (_int_at_least(height, "height", 1), _int_at_least(width, "width", 1))
    if not 0.0 < _as_float(density, "density") <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    draws = _rng(seed).random(shape)
    return CodedAperture((draws < density).astype(np.float64))


def crop_mask(mask: CodedAperture, size: int, seed: int) -> CodedAperture:
    """Uniformly random axis-aligned size x size window from a larger mask."""
    if _as_int(size, "size") < 1:
        raise ValueError(f"crop size must be >= 1, got {size}")
    if size > min(mask.height, mask.width):
        raise CropTooLarge(
            f"crop {size} exceeds mask {mask.height}x{mask.width}"
        )
    rng = _rng(seed)
    r0 = int(rng.integers(0, mask.height - size + 1))
    c0 = int(rng.integers(0, mask.width - size + 1))
    return CodedAperture(mask.data[r0 : r0 + size, c0 : c0 + size])


def repair_mask(mask: CodedAperture, config: SceneConfig) -> CodedAperture:
    """Flip the fewest zero entries to one so every detector pixel gets energy.

    Random binary masks almost surely starve the detector columns that only
    a single band reaches (the first and last d*(C-1) columns), which makes
    operator construction fail.  For each starved detector pixel this sets
    the entry of the highest contributing band to one; flips only add
    energy, so one pass suffices.  Deterministic, no seed.
    """
    _, w, nc, d = config.geometry
    data = mask.data.copy()
    sigma = _gram_diagonal(data, config)
    u, v = np.nonzero(sigma == 0.0)
    col = v - d * np.minimum(v // d, nc - 1)
    fixable = col < w  # no band reaches the other columns (d > W)
    data[u[fixable], col[fixable]] = 1.0
    return CodedAperture(data)


def gen_scene(config: SceneConfig, complexity: int, seed: int) -> HSICube:
    """Piecewise-smooth cube in [0, 1]: random rectangles painted over a
    constant background, each with a low-order polynomial spectral profile.

    The rectangles are painted as indices into an (H, W) label map, with 0
    for the background, and the cube is one gather from a (C, complexity+1)
    table of spectra.  Every voxel is written once, so the traced peak is
    about one cube.
    """
    complexity = _int_at_least(complexity, "complexity", 0)
    h, w, nc, _ = config.geometry
    rng = _rng(seed)
    spectra = np.empty((nc, complexity + 1))
    spectra[:, 0] = 0.1 + 0.2 * rng.random()
    label = np.zeros((h, w), dtype=np.min_scalar_type(complexity))
    t = np.arange(nc) / max(nc - 1, 1)
    for k in range(1, complexity + 1):
        u0 = int(rng.integers(0, h))
        u1 = int(rng.integers(u0 + 1, h + 1))
        v0 = int(rng.integers(0, w))
        v1 = int(rng.integers(v0 + 1, w + 1))
        a0 = rng.random()
        a1, a2 = rng.uniform(-0.5, 0.5, size=2)
        spectra[:, k] = np.clip(a0 + a1 * t + a2 * t * t, 0.02, 0.98)
        label[u0:u1, v0:v1] = k
    np.clip(spectra, 0.0, 1.0, out=spectra)
    return HSICube._adopt(config, np.take(spectra, label, axis=1))


def add_shot_noise(meas: Measurement, spec: NoiseSpec) -> Measurement:
    """Poisson photon noise at the given bit depth.

    The measurement is scaled so its peak maps to ``2**shot_bits - 1``
    counts (or to ``full_scale`` counts at intensity 1.0 when given), one
    Poisson draw is taken per pixel, and the result is scaled back, so the
    expectation equals the input.
    """
    if (meas.data < 0.0).any():
        raise NegativeMeasurement("shot noise requires a nonnegative measurement")
    peak_counts = float(2**spec.shot_bits - 1)
    if spec.full_scale is not None:
        scale = peak_counts / spec.full_scale
    else:
        peak = float(meas.data.max())
        if peak == 0.0:
            return Measurement._adopt(meas.config, meas.data.copy())
        scale = peak_counts / peak
    counts = _rng(spec.seed).poisson(meas.data * scale)
    return Measurement._adopt(meas.config, counts.astype(np.float64) / scale)


def bundled_suite(
    n_scenes: int = 10,
) -> tuple[SceneConfig, CodedAperture, list[HSICube]]:
    """The fixed synthetic evaluation suite used by tests and scripts.

    Ten piecewise-smooth 32x32x8 scenes with shift step 2, plus a
    full-rank-repaired Bernoulli(0.5) mask.  All seeds are pinned.
    """
    config = SceneConfig(height=32, width=32, bands=8, shift_step=2)
    mask = repair_mask(gen_mask(32, 32, 0.5, seed=424242), config)
    scenes = [gen_scene(config, complexity=6, seed=1000 + i) for i in range(n_scenes)]
    return config, mask, scenes

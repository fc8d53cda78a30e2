"""Reconstruction pipeline: initialization, priors, GAP solver, and the
data-consistent wrapper.

The solver iterates a data step, ``z += pinv(y - A z)``, followed by a
denoising step (generalized alternating projection); the RND wrapper is one
more data step on the output, through the same operator kernel.  Any object
with a ``denoise(cube, strength) -> cube`` method can serve as the prior, so
a stronger external denoiser can be plugged in unchanged; the bundled prior
is an anisotropic per-band total-variation proximal step.  Its band blocks
run on the kernel thread pool shared with the metrics; the output bytes do
not depend on the pool size.

The iterate lives in measurement-width coordinates so the denoiser can be
fed either the full dispersed tensor or only the on-support crop; with the
crop enabled, margin values pass through the denoising step untouched.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ._pool import band_block, run_band_spans
from .core import HSICube, Measurement, SceneConfig, ShiftedCube, _as_int
from .errors import DimensionMismatch, NonFiniteValue
from .operator import SensingOperator, _forward, _on_support, shift_cube


class InitStrategy(enum.Enum):
    """How a measurement is expanded into a per-band starting tensor."""

    SHIFT = "shift"
    REPEAT = "repeat"
    ROLL = "roll"

    @classmethod
    def from_name(cls, name: str) -> "InitStrategy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown init strategy {name!r}") from None


class Prior(Protocol):
    """Pluggable denoiser producing the candidate for the null-space part.

    Implementations must preserve dimensions, return finite values, and act
    as the identity at strength 0.
    """

    def denoise(self, cube: HSICube, strength: float) -> HSICube: ...


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`gap_solve_with_stats`; defaults favor the bundled TV prior.

    The solver owns the outer loop: its iteration count, the start, the
    crop and the stopping rule.  ``tv_weight`` is the strength it passes to
    the prior on each call.  Settings internal to a prior, such as the TV
    prox's inner iteration count, belong to the prior (see :class:`TvPrior`).

    ``convergence_tol`` of 0 runs all iterations; a positive value stops
    early once the max-norm iterate change falls below ``tol`` relative to
    the iterate magnitude.
    """

    iterations: int = 60
    tv_weight: float = 0.1
    init: InitStrategy = InitStrategy.ROLL
    crop_denoiser_input: bool = True
    convergence_tol: float = 0.0

    def __post_init__(self):
        if _as_int(self.iterations, "iterations") < 1:
            raise ValueError("iterations must be >= 1")
        if not (math.isfinite(self.tv_weight) and self.tv_weight >= 0):
            raise ValueError(
                f"tv_weight must be finite and >= 0, got {self.tv_weight!r}"
            )
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0):
            raise ValueError(
                f"convergence_tol must be finite and >= 0, got {self.convergence_tol!r}"
            )


@dataclass(frozen=True)
class SolveStats:
    """Per-run instrumentation from :func:`gap_solve_with_stats`."""

    iterations_run: int
    residual_l2: tuple[float, ...]
    denoised_pixels_per_iteration: int


def init_shift(meas: Measurement) -> ShiftedCube:
    """Repeat the measurement per band, band c translated right by d*c.

    The translation runs over the full measurement width: columns shifted
    past the right edge are dropped and the d*c left columns are zero, so
    band c loses exactly H*d*c values.
    """
    h, _, nc, d = meas.config.geometry
    wp = meas.config.measurement_width()
    out = np.zeros((nc, h, wp))
    for c in range(nc):
        lo = d * c
        out[c, :, lo:] = meas.data[:, : wp - lo]
    return ShiftedCube._adopt(meas.config, out)


def init_repeat(meas: Measurement) -> ShiftedCube:
    """Every band is the measurement verbatim."""
    h, _, nc, _ = meas.config.geometry
    out = np.broadcast_to(meas.data, (nc, h, meas.config.measurement_width()))
    return ShiftedCube._adopt(meas.config, np.ascontiguousarray(out))


def init_roll(meas: Measurement) -> ShiftedCube:
    """Band c is the measurement cyclically rotated right by d*c columns.

    The rotation is over the full measurement width, so every band is a
    permutation of the measurement and no values are discarded.
    """
    h, _, nc, d = meas.config.geometry
    out = np.empty((nc, h, meas.config.measurement_width()))
    for c in range(nc):
        out[c] = np.roll(meas.data, d * c, axis=1)
    return ShiftedCube._adopt(meas.config, out)


_INITS = {
    InitStrategy.SHIFT: init_shift,
    InitStrategy.REPEAT: init_repeat,
    InitStrategy.ROLL: init_roll,
}


# The TV working arrays start on cache-line boundaries.  numpy guarantees
# only 16-byte alignment, and the flat dual steps ran up to a quarter slower
# on a block 16 or 48 bytes past a line than on an aligned one, so the cost
# of a call changed with the heap's state from one process to the next.
_TV_ALIGN_BYTES = 64


def _aligned_rows(rows: int, n: int) -> np.ndarray:
    """Uninitialised (rows, n) float64 rows, each starting on a
    ``_TV_ALIGN_BYTES`` boundary (the row stride is padded to fit)."""
    per_line = _TV_ALIGN_BYTES // 8
    stride = -(-n // per_line) * per_line
    raw = np.empty(rows * stride + per_line)
    start = (-raw.ctypes.data % _TV_ALIGN_BYTES) // 8
    return raw[start : start + rows * stride].reshape(rows, stride)[:, :n]


def _tv_field(
    out: np.ndarray, f: np.ndarray, p: np.ndarray, q: np.ndarray, lam: float, w: int
) -> None:
    """Write the primal field ``f - lam * div(p, q)`` into ``out``.

    All arrays are flat views of C-contiguous band blocks; ``p`` and ``q``
    are padded duals whose last row (``p``) or last column (``q``) is +0,
    so the row shift is ``w`` and the column shift 1 across the whole
    block.  The divergence is assembled in a fixed order (+p, -p, +q, -q).
    Starting from ``p`` rather than ``0 + p``, and adding or subtracting a
    +0 pad term, leave every value unchanged because no partial sum is -0:
    the duals start at +0, and a sum rounds to -0 only when both operands
    are -0.  So the result is bitwise that of the unpadded per-band sums,
    whatever the blocking.
    """
    out[:w] = p[:w]
    np.subtract(p[w:], p[:-w], out=out[w:])
    out += q
    out[1:] -= q[:-1]
    out *= lam
    np.subtract(f, out, out=out)


def _tv_prox_planes(f: np.ndarray, lam: float, iters: int) -> np.ndarray:
    """Anisotropic TV proximal step on a stack of 2-D planes.

    Projected gradient on the dual with the classical 1/(8*lam) step;
    fixed iteration count, fully deterministic.  Planes are independent, so
    the stack is processed in blocks of whole bands sized by
    :func:`cassi._pool.band_block`, and spans of blocks run on the kernel
    pool, each in its own workspace (a stack of one block runs inline).
    Every step is one 1-D ufunc over a flat block: the duals are stored
    padded to full planes (see :func:`_tv_field`), and the one difference
    buffer has its pad row or column reset to +0 after each flat difference
    so the pads stay +0.
    """
    nc, h, w = f.shape
    out = np.empty((nc, h, w))
    block = band_block(nc, h, w)
    step = 1.0 / (8.0 * lam)

    def run_span(start: int, stop: int) -> None:
        bufs = _aligned_rows(4, block * h * w)
        for lo in range(start, stop, block):
            n = min(block, stop - lo)
            fb = f[lo : lo + n].reshape(-1)
            x, p, q, dd = (b[: n * h * w] for b in bufs)
            pad_row = dd.reshape(n, h, w)[:, -1, :]
            pad_col = dd.reshape(n, h, w)[:, :, -1]
            p.fill(0.0)
            q.fill(0.0)
            for _ in range(iters):
                _tv_field(x, fb, p, q, lam, w)
                np.subtract(x[:-w], x[w:], out=dd[:-w])
                pad_row.fill(0.0)
                dd *= step
                p += dd
                np.clip(p, -1.0, 1.0, out=p)
                np.subtract(x[:-1], x[1:], out=dd[:-1])
                pad_col.fill(0.0)
                dd *= step
                q += dd
                np.clip(q, -1.0, 1.0, out=q)
            _tv_field(out[lo : lo + n].reshape(-1), fb, p, q, lam, w)

    run_band_spans(run_span, nc, block)
    return out


def tv_denoise(cube: HSICube, strength: float, inner_iterations: int) -> HSICube:
    """Approximate prox of strength * anisotropic TV, per band independently."""
    if strength < 0:
        raise ValueError("strength must be >= 0")
    if inner_iterations < 1:
        raise ValueError("inner_iterations must be >= 1")
    if strength == 0.0:
        return HSICube._adopt(cube.config, cube.data.copy())
    out = _tv_prox_planes(cube.data, strength, inner_iterations)
    return HSICube._adopt(cube.config, out)


@dataclass(frozen=True)
class TvPrior:
    """Total-variation prior; ``strength`` is the TV weight at call time.

    ``inner_iterations`` is the number of dual steps per prox call.  The
    prior is its only owner: the solver never reads or overrides it.
    """

    inner_iterations: int = 20

    def __post_init__(self):
        if _as_int(self.inner_iterations, "inner_iterations") < 1:
            raise ValueError(
                f"inner_iterations must be >= 1, got {self.inner_iterations!r}"
            )

    def denoise(self, cube: HSICube, strength: float) -> HSICube:
        return tv_denoise(cube, strength, self.inner_iterations)


class IdentityPrior:
    """No-op prior; the solver reduces to pure data-consistency projection."""

    def denoise(self, cube: HSICube, strength: float) -> HSICube:
        return cube


def _wide_config(config: SceneConfig) -> SceneConfig:
    """A config whose scene width is the measurement width, for denoising
    the full dispersed tensor through the cube-typed prior interface."""
    return SceneConfig(
        config.height, config.measurement_width(), config.bands, config.shift_step
    )


def gap_solve_with_stats(
    op: SensingOperator,
    meas: Measurement,
    prior: Prior,
    cfg: SolverConfig,
    x0: HSICube | ShiftedCube | None = None,
) -> tuple[HSICube, SolveStats]:
    """GAP iteration returning the reconstruction and per-run stats.

    Each iteration runs the data step ``z += pinv(y - A z)``, then applies
    the prior.  With ``crop_denoiser_input`` the prior sees only the
    on-support crop and the dispersed margin is restored from the
    pre-denoise iterate; otherwise the prior sees the full-width tensor.
    Raises NonFiniteValue if an iterate diverges.
    """
    if meas.config.geometry != op.config.geometry:
        raise DimensionMismatch("measurement geometry disagrees with operator")
    h, w, nc, d = op.config.geometry
    wp = op.config.measurement_width()

    if x0 is None:
        z = _INITS[cfg.init](meas).data
    elif isinstance(x0, HSICube):
        z = shift_cube(x0).data
    else:
        z = x0.data
    if z.shape != (nc, h, wp):
        raise DimensionMismatch("x0 geometry disagrees with operator")

    # One private copy, updated in place.  The detector residual of each
    # iterate serves both its norm and the next data step.
    z = z.copy()
    wide = _wide_config(op.config)
    support = _on_support(z, d)
    r = meas.data - _forward(op.mask, d, support)
    residuals = []
    iterations_run = 0
    for _ in range(cfg.iterations):
        z_prev = z.copy() if cfg.convergence_tol > 0.0 else None
        op._add_pinv(support, r)

        if cfg.crop_denoiser_input:
            core = HSICube._adopt(op.config, support.copy())
            support[...] = prior.denoise(core, cfg.tv_weight).data
        else:
            # Priors return read-only arrays, so keep a writeable copy.
            z = prior.denoise(HSICube._adopt(wide, z), cfg.tv_weight).data.copy()
            support = _on_support(z, d)

        if not np.isfinite(z).all():
            raise NonFiniteValue(
                f"solver iterate diverged at iteration {iterations_run}"
            )
        iterations_run += 1

        r = meas.data - _forward(op.mask, d, support)
        residuals.append(float(np.linalg.norm(r)))

        if z_prev is not None:
            delta = float(np.max(np.abs(z - z_prev)))
            scale = max(float(np.max(np.abs(z_prev))), np.finfo(float).tiny)
            if delta <= cfg.convergence_tol * scale:
                break

    pixels = nc * h * (w if cfg.crop_denoiser_input else wp)
    stats = SolveStats(
        iterations_run=iterations_run,
        residual_l2=tuple(residuals),
        denoised_pixels_per_iteration=pixels,
    )
    return HSICube._adopt(op.config, _on_support(z, d).copy()), stats


def rnd_reconstruct(
    op: SensingOperator,
    meas: Measurement,
    prior: Prior,
    cfg: SolverConfig,
) -> HSICube:
    """Run the solver for a candidate, then force exact data consistency.

    The solver output contributes only its null-space component; the range
    component is replaced by the pseudo-inverse solution, so the result
    reproduces the measurement for any candidate quality.
    """
    q, _ = gap_solve_with_stats(op, meas, prior, cfg)
    return op.rnd_combine(meas, q)

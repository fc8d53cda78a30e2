"""Reconstruction pipeline: initialization, priors, GAP solver, and the
data-consistent wrapper.

The solver iterates a weighted data correction followed by a denoising step
(generalized alternating projection).  Any object with a
``denoise(cube, strength) -> cube`` method can serve as the prior, so a
stronger external denoiser can be plugged in unchanged; the bundled prior is
an anisotropic per-band total-variation proximal step.

The iterate lives in measurement-width coordinates so the denoiser can be
fed either the full dispersed tensor or only the on-support crop; with the
crop enabled, margin values pass through the denoising step untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import HSICube, Measurement, SceneConfig, ShiftedCube
from .errors import DimensionMismatch, NonFiniteValue
from .operator import (
    SensingOperator,
    _backproject,
    _forward,
    _on_support,
    shift_cube,
)


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

    ``convergence_tol`` of 0 runs all iterations; a positive value stops
    early once the max-norm iterate change falls below ``tol`` relative to
    the iterate magnitude.
    """

    iterations: int = 60
    tv_weight: float = 0.1
    tv_inner_iterations: int = 20
    init: InitStrategy = InitStrategy.ROLL
    crop_denoiser_input: bool = True
    convergence_tol: float = 0.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.tv_weight < 0:
            raise ValueError("tv_weight must be >= 0")
        if self.tv_inner_iterations < 1:
            raise ValueError("tv_inner_iterations must be >= 1")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0")


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


# Bytes per working array of one band block in the TV prox.  A block holds
# as many whole bands as fit, so its ~6 live arrays (about 3 MiB) stay in
# cache instead of streaming the whole stack through DRAM on every step.
# Large planes get one band per block, small stacks a single block, which
# keeps the per-call overhead of small stacks low.
_TV_BLOCK_BYTES = 512 * 1024


def _tv_field(
    out: np.ndarray, f: np.ndarray, p: np.ndarray, q: np.ndarray, lam: float
) -> None:
    """Write the primal field ``f - lam * div(p, q)`` into ``out``.

    The divergence is assembled from zero in a fixed order (+p, -p, +q, -q),
    so the result is bitwise independent of how the bands are blocked.
    """
    out.fill(0.0)
    out[:, :-1, :] += p
    out[:, 1:, :] -= p
    out[:, :, :-1] += q
    out[:, :, 1:] -= q
    out *= lam
    np.subtract(f, out, out=out)


def _tv_prox_planes(f: np.ndarray, lam: float, iters: int) -> np.ndarray:
    """Anisotropic TV proximal step on a stack of 2-D planes.

    Projected gradient on the dual with the classical 1/(8*lam) step;
    fixed iteration count, fully deterministic.  Planes are independent, so
    the stack is processed in blocks of whole bands sized by
    ``_TV_BLOCK_BYTES``, each updated in place in preallocated buffers.
    """
    nc, h, w = f.shape
    out = np.empty((nc, h, w))
    block = min(nc, max(1, _TV_BLOCK_BYTES // (h * w * out.itemsize)))
    x_buf = np.empty((block, h, w))
    p_buf = np.empty((block, h - 1, w))
    q_buf = np.empty((block, h, w - 1))
    dp_buf = np.empty_like(p_buf)
    dq_buf = np.empty_like(q_buf)
    step = 1.0 / (8.0 * lam)
    for lo in range(0, nc, block):
        n = min(block, nc - lo)
        fb = f[lo : lo + n]
        x, p, q, dp, dq = (b[:n] for b in (x_buf, p_buf, q_buf, dp_buf, dq_buf))
        p.fill(0.0)
        q.fill(0.0)
        for _ in range(iters):
            _tv_field(x, fb, p, q, lam)
            np.subtract(x[:, :-1, :], x[:, 1:, :], out=dp)
            dp *= step
            p += dp
            np.clip(p, -1.0, 1.0, out=p)
            np.subtract(x[:, :, :-1], x[:, :, 1:], out=dq)
            dq *= step
            q += dq
            np.clip(q, -1.0, 1.0, out=q)
        _tv_field(out[lo : lo + n], fb, p, q, lam)
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
    """Total-variation prior; ``strength`` is the TV weight at call time."""

    inner_iterations: int = 20

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

    Each iteration adds the Gram-weighted backprojected residual, then
    applies the prior.  With ``crop_denoiser_input`` the prior sees only the
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

    wide = _wide_config(op.config)
    residuals = []
    iterations_run = 0
    for _ in range(cfg.iterations):
        z_prev = z
        corr = (meas.data - _forward(op.mask, d, _on_support(z, d))) * op.inv_sigma
        z = z.copy()
        support = _on_support(z, d)
        _backproject(op.mask, d, corr, support, accumulate=True)

        if cfg.crop_denoiser_input:
            core = HSICube._adopt(op.config, support.copy())
            support[...] = prior.denoise(core, cfg.tv_weight).data
        else:
            z = prior.denoise(HSICube._adopt(wide, z), cfg.tv_weight).data
            support = _on_support(z, d)

        if not np.isfinite(z).all():
            raise NonFiniteValue(
                f"solver iterate diverged at iteration {iterations_run}"
            )
        iterations_run += 1

        y_post = _forward(op.mask, d, support)
        residuals.append(float(np.linalg.norm(meas.data - y_post)))

        if cfg.convergence_tol > 0.0:
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

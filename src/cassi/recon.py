"""Reconstruction pipeline: initialization, priors, GAP solver, and the
data-consistent wrapper.

The solver iterates a data step, ``z += pinv(y - A z)``, followed by a
denoising step (generalized alternating projection); the RND wrapper is one
more data step on the output, through the same operator kernel.  Any object
with a ``denoise(cube, strength) -> cube`` method can serve as the prior, so
a stronger external denoiser can be plugged in unchanged; the bundled prior
is an anisotropic per-band total-variation proximal step, one kernel that
the prior and the solver both call (at strength 0 it copies).  Its band
blocks are sized and spread over the CPUs as the metrics' are
(:mod:`cassi._pool`), each span working in its own line-aligned slice of
one float32 scratch block that the calling thread allocates; the output
is float64, and its bytes do not depend on the blocking or the number of
workers.  The iterate, the data step and everything else stay float64.

With the crop off the denoiser is fed the full dispersed tensor, so the
iterate lives in measurement-width coordinates, (C, H, W').  With the crop
on it is fed only the on-support crop, and the iterate is that (C, H, W)
cube; the off-support columns of a dispersed iterate would only ever hold
the start, so they are neither stored nor read.  The iterate starts from a
caller's scene cube ``x0`` (dispersed with zero off-support columns when the
crop is off), or else from one copy of a strided view of the measurement,
or with the crop of that view's support (see :class:`InitStrategy`).  The
stopping test and the residual trace read only the iterate and the detector
residual, and no BLAS call runs in the loop.
In both settings a prior whose class ``denoise`` is :meth:`TvPrior.denoise`
runs in place on what it sees; any other prior (an override included)
receives a private copy, and its output is written back into the iterate.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._pool import line_up, row_block, run_band_spans
from .core import (
    HSICube, Measurement, SceneConfig, _all_finite, _as_float, _int_at_least, _l2_norm
)
from .errors import DimensionMismatch, NonFiniteValue
from .operator import SensingOperator, _forward, _on_support, _shift


class InitStrategy(enum.Enum):
    """How a measurement is expanded into a per-band starting tensor.

    Each is one strided view of the measurement (:func:`_start`).  ROLL
    and SHIFT differ only off the support.  With
    ``crop_denoiser_input`` on the solver neither stores nor reads those
    columns, so the two give the same bytes, whatever the
    ``convergence_tol``.
    """

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
    as the identity at strength 0.  The solver hands every call a private
    copy of what the prior sees, so a prior may return or keep its input;
    only a prior whose class ``denoise`` is :meth:`TvPrior.denoise` is run
    in place on the iterate, without a call to ``denoise``.
    """

    def denoise(self, cube: HSICube, strength: float) -> HSICube: ...


def _check_tv_strength(strength: float, name: str) -> None:
    """Raise ValueError unless ``strength`` is a valid TV weight: finite and
    >= 0, and when positive, large enough that the classical dual step
    ``1/(8*strength)`` is finite.  The prox iterates on the dual scaled by
    that step's inverse, ``v = p / step``, clipped to ``[-8*strength,
    8*strength]``; a step that overflows (a positive strength below about
    6.95e-310) leaves no finite scaling to the classical dual ``p``.

    The clip bound is rounded to float32 (times a band's power-of-two
    scale, see :func:`_tv_prox_planes`), and no weight is refused for it:
    a bound that is or rounds to 0 (strength 0, or ``8*strength`` below
    about 7e-46 for a band in range) copies the band, and one that rounds
    to infinity (above about 4.25e37) never clips, as a float64 bound that
    large never binds.  The kernel checks no weight: each
    :meth:`TvPrior.denoise` call and each :class:`SolverConfig` run this."""
    if not (math.isfinite(strength) and strength >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {strength!r}")
    if strength > 0 and not math.isfinite(1.0 / (8.0 * strength)):
        raise ValueError(
            f"{name} must be 0 or large enough that 1/(8*{name}) is finite, "
            f"got {strength!r}"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`gap_solve_with_stats`; defaults favor the bundled TV prior.

    The solver owns the outer loop: its iteration count, the start, the
    crop and the stopping rule.  ``tv_weight`` is the strength it passes to
    the prior on each call.  Settings internal to a prior, such as the TV
    prox's inner iteration count, belong to the prior (see :class:`TvPrior`).

    ``convergence_tol`` of 0 runs all iterations; a positive value stops
    early once the max-norm iterate change falls below ``tol`` relative to
    the largest magnitude of the iterate before the step (the on-support
    cube with the crop, the measurement-width tensor without it).
    """

    iterations: int = 60
    tv_weight: float = 0.1
    init: InitStrategy = InitStrategy.ROLL
    crop_denoiser_input: bool = True
    convergence_tol: float = 0.0

    def __post_init__(self):
        _int_at_least(self.iterations, "iterations", 1)
        if not isinstance(self.init, InitStrategy):
            raise ValueError(f"init must be an InitStrategy, got {self.init!r}")
        _check_tv_strength(_as_float(self.tv_weight, "tv_weight"), "tv_weight")
        tol = _as_float(self.convergence_tol, "convergence_tol")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(
                f"convergence_tol must be finite and >= 0, got {self.convergence_tol!r}"
            )


@dataclass(frozen=True)
class SolveStats:
    """Per-run instrumentation from :func:`gap_solve_with_stats`."""

    residual_l2: tuple[float, ...]
    denoised_pixels_per_iteration: int

    @property
    def iterations_run(self) -> int:
        """Iterations completed: one residual norm is kept per iteration."""
        return len(self.residual_l2)


def _start(meas: Measurement, init: InitStrategy, crop: bool = False) -> np.ndarray:
    """A fresh, writeable start: band c is the measurement translated right
    by ``k`` columns over the full measurement width, (C, H, W'), or with
    ``crop`` only its on-support cube, (C, H, W).

    ``k`` is 0 for REPEAT (every band is the measurement verbatim) and d*c
    otherwise.  The k columns shifted past the right edge wrap round to the
    left for ROLL, so every band is a permutation of the measurement; for
    SHIFT they are dropped and the k left columns are zero.  Both put
    ``y[:, :W]`` on band c's on-support columns (see :class:`InitStrategy`).
    The bands are one view, of ``y`` broadcast (REPEAT, and the cropped
    ROLL and SHIFT starts, which read ``y[:, :W]`` alone), or with band c
    d*c columns back into ``[y | y]`` (ROLL) or ``[0 | y]`` (SHIFT).
    """
    y, (_, w, nc, d) = meas.data, meas.config.geometry
    h, wp = y.shape
    repeat, bands = init is InitStrategy.REPEAT, np.broadcast_to(y, (nc, h, wp))
    if crop:
        return (_on_support(bands, d) if repeat else bands[..., :w]).copy()
    if not repeat:
        both = np.zeros((h, 2 * wp))
        both[:, wp:] = y
        if init is InitStrategy.ROLL:
            both[:, :wp] = y
        s_row, s_col = both.strides
        bands = as_strided(both[:, wp:], (nc, h, wp), (-d * s_col, s_row, s_col))
    return bands.copy()


def _tv_div(
    out: np.ndarray,
    p: np.ndarray,
    p_prev: np.ndarray,
    q: np.ndarray,
    q_prev: np.ndarray,
) -> None:
    """Write the scaled divergence ``div(p, q) * 0.125`` into ``out``; the
    primal field is ``f - out``.

    All arrays are flat views of C-contiguous band blocks; ``p`` and ``q``
    are the scaled duals (see :func:`_tv_prox_planes`), padded so that
    their last row (``p``) or last column (``q``) is +0.  ``p_prev`` and
    ``q_prev`` are the same duals one row and one value earlier, behind a
    lead of +0, so the shifts hold across the whole block.  The divergence
    is assembled in a fixed order (+p, -p, +q, -q) and scaled by the exact
    0.125.  Starting from ``p - p_prev`` rather than ``0 + p - p_prev``,
    and adding or subtracting a +0 pad or lead term, leave every value
    unchanged because no partial sum is -0: the duals start at +0 and are
    never -0 (a sum rounds to -0 only when both operands are -0, a
    difference only for ``-0 - (+0)``, and the clip bounds are nonzero).
    So the result is bitwise that of the unpadded per-band sums, whatever
    the blocking.  Four numpy calls.
    """
    np.subtract(p, p_prev, out)
    out += q
    out -= q_prev
    out *= 0.125


# A band's values enter the float32 workspace as they are while their
# largest magnitude, rounded to float32, lies in this range.  Outside it
# they would overflow float32, or lose their bits to its subnormals or to
# zero, so the band is scaled into it by a power of two (see
# _band_exponents).
_TV_RANGE = (2.0**-64, 2.0**64)


def _band_exponents(f: np.ndarray, fw: np.ndarray) -> list[int] | None:
    """Per band of the float64 block ``f``, the ``k`` for which ``2**k *
    f[c]`` has its largest magnitude in [0.5, 1), or 0; None when no band
    needs a scale.

    ``fw`` is the block cast to float32, one band a row.  A band needs a
    scale unless its largest magnitude in ``fw`` lies in ``_TV_RANGE``; a
    band of zeros, or with a NaN or an infinity, keeps ``k = 0``.
    """
    big = np.maximum(fw.max(axis=1), -fw.min(axis=1))
    if ((big >= _TV_RANGE[0]) & (big <= _TV_RANGE[1])).all():
        return None
    ks = []
    for band, m in zip(f, big):
        k = 0
        if not _TV_RANGE[0] <= m <= _TV_RANGE[1]:
            top, bottom = float(band.max()), float(band.min())
            if math.isfinite(top) and math.isfinite(bottom) and (top or bottom):
                k = -math.frexp(max(top, -bottom))[1]
        ks.append(k)
    return ks


def _tv_prox_planes(f: np.ndarray, lam: float, iters: int, out: np.ndarray) -> bool:
    """Anisotropic TV proximal step on a stack of 2-D planes, written into
    ``out``; returns whether every output value is finite.

    ``f`` and ``out`` are float64 (C, H, W) arrays of any strides, and
    ``out`` may be ``f`` itself: each block of ``f`` is cast into the
    float32 workspace before its dual loop, and only the block's final
    field is written to ``out``, as the float64 ``f`` minus the float32
    divergence, so a value whose divergence is 0 passes through bitwise.
    Its finiteness is checked while the block is in cache.  The output
    differs from a float64 workspace's by float32 rounding, about 1e-7 of
    ``max|f|``.

    Projected gradient on the dual (Chambolle's classical 1/(8*lam) step),
    run on the scaled dual ``v = p / step = 8*lam*p``: the field is
    ``f - div(v) * 0.125``, the differences of the field are added
    straight into ``v``, and ``v`` is clipped to ``[-8*lam, 8*lam]``, the
    bound rounded to float32.  A bound of 0 (``lam`` of 0, or one whose
    bound rounds to 0) would clip the duals to -0 and +0, so such a band
    is copied bitwise instead (which is what the loop would compute, up
    to the sign of zero); one that rounds to infinity never clips, as in
    float64.  Fixed iteration count, fully deterministic.

    Every step is equivariant under a power-of-two scale unless a value
    over- or underflows, so a band whose largest magnitude lies outside
    ``_TV_RANGE`` is run as ``2**k * f`` with strength ``2**k * lam``, and
    its divergence is scaled back by ``2**-k`` in float64: the result is
    the prox of ``f`` itself, and a finite input beyond float32's range
    gives a finite output.  The scale is the band's own, so it does not
    depend on the blocking.  A scaled band is formed in float64 in the
    duals, which are free before its loop, and cast in from there.

    Planes are independent, so the stack is processed in blocks of whole
    bands sized by :func:`cassi._pool.row_block`, and spans of blocks run
    on their own threads, each in its own workspace (a stack of one block
    runs inline).  The workspaces are slices of one line-aligned float32
    block that the calling thread allocates
    (:func:`cassi._pool.run_band_spans`), so no span allocates a
    block-sized array: a block's finiteness is read from its largest and
    smallest value, which are NaN or infinite exactly when a value is.

    A workspace is three line-aligned buffers, four block-sized arrays in
    all: the block's input ``f``, the field ``x`` and the dual
    ``[lead | p | gap | q]``.  The lead is at least one row
    of +0 ahead of ``p``, and ``q`` starts on the first line after ``p``,
    behind a gap of up to 15 values (or behind ``p``'s last pad row); the
    lead and the gap stay +0.  The duals are stored padded to full planes
    (see :func:`_tv_div`); after the flat updates each pad row or column
    is reset to +0, so one clip covers ``p`` and ``q`` together.  Every
    view is built once per block, so a dual step is 12 numpy calls on
    whole blocks: five for the field, two per dual plus its pad reset, and
    the clip.  The last divergence is copied to float64 into the spent
    duals and the field is formed there, then copied out: the subtraction
    mixes no dtypes and never writes over an operand, either of which
    would make numpy allocate a buffer or a copy in the span.  The duals
    are then reset to +0 for the next block.
    """
    nc, h, w = f.shape
    hw = h * w
    block = row_block(nc, 4 * hw)
    lead = line_up(w, 4)
    cap = line_up(block * hw, 4)
    finite = [True] * nc

    def run_span(start: int, stop: int, ws: np.ndarray) -> None:
        fw, x, dual = ws[:cap], ws[cap : 2 * cap], ws[2 * cap :]
        dual.fill(0.0)  # and each block leaves it +0

        def prox(lo: int, bands: int, k: int) -> None:
            # fw holds 2**k * f[lo : lo + bands] in float32.
            n = bands * hw
            src, done = f[lo : lo + bands], out[lo : lo + bands]
            with np.errstate(over="ignore"):
                high = np.float32(8.0 * np.ldexp(lam, k))
            if high == 0.0:
                np.copyto(done, src)
            else:
                low = -high
                qo = lead + line_up(n, 4)
                fb, xb = fw[:n], x[:n]
                p, p_prev = dual[lead : lead + n], dual[lead - w : lead - w + n]
                q, q_prev = dual[qo : qo + n], dual[qo - 1 : qo - 1 + n]
                pq = dual[lead : qo + n]
                pad_row = p.reshape(bands, h, w)[:, -1, :]
                pad_col = q.reshape(bands, h, w)[:, :, -1]
                x_up, x_down, p_head = xb[:-w], xb[w:], p[:-w]
                x_left, x_right, q_head = xb[:-1], xb[1:], q[:-1]
                for _ in range(iters):
                    _tv_div(xb, p, p_prev, q, q_prev)
                    np.subtract(fb, xb, xb)
                    p_head += x_up
                    p_head -= x_down
                    pad_row.fill(0.0)
                    q_head += x_left
                    q_head -= x_right
                    pad_col.fill(0.0)
                    pq.clip(low, high, out=pq)
                _tv_div(xb, p, p_prev, q, q_prev)
                # The divergence, then the field, in float64 in the duals.
                field = dual[: 2 * n].view(np.float64).reshape(bands, h, w)
                np.copyto(field, xb.reshape(bands, h, w))
                if k:
                    np.ldexp(field, -k, out=field)
                np.subtract(src, field, field)
                np.copyto(done, field)
                dual[: qo + n].fill(0.0)
            finite[lo] = bool(np.isfinite(done.max()) and np.isfinite(done.min()))

        for lo in range(start, stop, block):
            bands = min(block, stop - lo)
            src, fb = f[lo : lo + bands], fw[: bands * hw]
            with np.errstate(over="ignore"):  # a band beyond float32 is scaled
                fb.reshape(bands, h, w)[...] = src
            ks = _band_exponents(src, fb.reshape(bands, hw))
            if ks is None:
                prox(lo, bands, 0)
                continue
            first = lo
            for k, run in itertools.groupby(ks):  # bands that share a scale
                n = len(list(run))
                # Scaled in float64 in the duals, then cast in.
                scaled = dual[: 2 * n * hw].view(np.float64).reshape(n, h, w)
                with np.errstate(over="ignore"):
                    np.ldexp(f[first : first + n], k, out=scaled)
                    fw[: n * hw].reshape(n, h, w)[...] = scaled
                scaled.fill(0.0)
                prox(first, n, k)
                first += n

    run_band_spans(run_span, nc, block, 4 * cap + lead, 4)
    return all(finite)


@dataclass(frozen=True)
class TvPrior:
    """Total-variation prior; ``strength`` is the TV weight at call time.

    ``inner_iterations`` is the number of dual steps per prox call.  The
    prior is its only owner: the solver never overrides it.
    """

    inner_iterations: int = 20

    def __post_init__(self):
        _int_at_least(self.inner_iterations, "inner_iterations", 1)

    def denoise(self, cube: HSICube, strength: float) -> HSICube:
        """Approximate prox of strength * anisotropic TV, per band independently."""
        strength = _as_float(strength, "strength")
        _check_tv_strength(strength, "strength")
        out = np.empty(cube.data.shape)
        _tv_prox_planes(cube.data, strength, self.inner_iterations, out)
        return HSICube._adopt(cube.config, out)


def gap_solve_with_stats(
    op: SensingOperator,
    meas: Measurement,
    prior: Prior,
    cfg: SolverConfig,
    x0: HSICube | None = None,
) -> tuple[HSICube, SolveStats]:
    """GAP iteration returning the reconstruction and per-run stats.

    Each iteration runs the data step ``z += pinv(y - A z)``, then applies
    the prior.  With ``crop_denoiser_input`` the prior sees only the
    on-support crop, and the iterate is that (C, H, W) cube: it starts as a
    copy of ``x0``, or without ``x0`` as the support of the ``cfg.init``
    start, built without the measurement-width start (:func:`_start` with
    ``crop``), and it is the returned cube.  Otherwise the
    prior sees the full-width tensor, and the iterate starts from ``x0``
    shifted into measurement width with zero off-support columns, or from
    the ``cfg.init`` start.  Either way the stopping test reads only the
    iterate, and ``residual_l2`` holds each residual's norm
    (:func:`cassi.core._l2_norm`, no BLAS call).  ``x0`` is
    never written to.  A prior whose class ``denoise`` is
    :meth:`TvPrior.denoise` runs in place on the iterate.  Any other prior
    receives a private copy, so it may return or keep its input, and its
    output is written back into the iterate.
    Raises DimensionMismatch if ``meas`` or ``x0`` disagrees with the
    operator's geometry, and NonFiniteValue if the prior's output is not
    finite.
    """
    if meas.config.geometry != op.config.geometry:
        raise DimensionMismatch("measurement geometry disagrees with operator")
    if x0 is not None and x0.config.geometry != op.config.geometry:
        raise DimensionMismatch("x0 geometry disagrees with operator")
    h, _, nc, d = op.config.geometry
    crop = cfg.crop_denoiser_input

    # The iterate is a fresh private array, updated in place; with the crop
    # it is the on-support cube alone.
    if x0 is not None:
        z = x0.data.copy() if crop else _shift(x0.data, d)
    else:
        z = _start(meas, cfg.init, crop)

    # The prior sees the whole iterate: without the crop the dispersed
    # tensor goes through the cube-typed prior interface as a scene of
    # measurement width.
    support = z if crop else _on_support(z, d)
    seen_config = op.config if crop else SceneConfig(h, z.shape[2], nc, d)
    # Asked of the class: a prior may carry ``denoise`` on the instance.
    in_place = getattr(type(prior), "denoise", None) is TvPrior.denoise
    # The detector residual of each iterate serves both its norm and the
    # next data step.
    r = meas.data - _forward(op.mask, d, support)
    residuals = []
    # The stopping test reuses one buffer: ``max|x|`` is exactly
    # ``max(x.max(), -x.min())``, so no absolute-value array is made.
    prev = np.empty_like(z) if cfg.convergence_tol > 0.0 else None
    for _ in range(cfg.iterations):
        if prev is not None:
            np.copyto(prev, z)
        op._add_pinv(support, r)
        if in_place:
            finite = _tv_prox_planes(z, float(cfg.tv_weight), prior.inner_iterations, z)
        else:
            z[...] = prior.denoise(
                HSICube._adopt(seen_config, z.copy()), cfg.tv_weight
            ).data
            finite = _all_finite(z)
        if not finite:
            raise NonFiniteValue(
                f"solver iterate diverged at iteration {len(residuals)}"
            )

        r = meas.data - _forward(op.mask, d, support)
        residuals.append(_l2_norm(r))

        if prev is not None:
            scale = max(float(prev.max()), -float(prev.min()), np.finfo(float).tiny)
            np.subtract(z, prev, out=prev)
            delta = max(float(prev.max()), -float(prev.min()))
            if delta <= cfg.convergence_tol * scale:
                break

    stats = SolveStats(
        residual_l2=tuple(residuals), denoised_pixels_per_iteration=z.size
    )
    out = z if crop else _on_support(z, d).copy()
    return HSICube._adopt(op.config, out), stats


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

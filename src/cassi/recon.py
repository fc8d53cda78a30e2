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
crop enabled, margin values pass through the denoising step untouched.  It
starts from a caller's scene cube ``x0``, dispersed with zero margins, or
else from the measurement expanded per band by an :class:`InitStrategy`.  In
both settings the bundled TV prior runs in place on what it sees; any
other prior receives a private copy, and its output is written back into
the iterate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ._pool import band_block, run_band_spans
from .core import HSICube, Measurement, SceneConfig, _as_float, _int_at_least
from .errors import DimensionMismatch, NonFiniteValue
from .operator import SensingOperator, _forward, _on_support, _shift


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
    as the identity at strength 0.  The solver hands every call a private
    copy of what the prior sees, so a prior may return or keep its input;
    only the bundled :class:`TvPrior` is run in place on the iterate.
    """

    def denoise(self, cube: HSICube, strength: float) -> HSICube: ...


def _check_tv_strength(strength: float, name: str) -> None:
    """Raise ValueError unless ``strength`` is a valid TV weight: finite and
    >= 0, and when positive, large enough that the classical dual step
    ``1/(8*strength)`` is finite.  The prox iterates on the dual scaled by
    that step's inverse, ``v = p / step``, clipped to ``[-8*strength,
    8*strength]``; a step that overflows (a positive strength below about
    6.95e-310) leaves no finite scaling to the classical dual ``p``."""
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
    the iterate magnitude.
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


def _start(meas: Measurement, init: InitStrategy) -> np.ndarray:
    """A fresh, writeable (C, H, W') start: band c is the measurement
    translated right by ``k`` columns over the full measurement width.

    ``k`` is 0 for REPEAT (every band is the measurement verbatim) and d*c
    otherwise.  The k columns shifted past the right edge wrap round to the
    left for ROLL, so every band is a permutation of the measurement; for
    SHIFT they are dropped and the k left columns are zero.
    """
    h, _, nc, d = meas.config.geometry
    y = meas.data
    wp = y.shape[1]
    z = np.empty((nc, h, wp))
    for c in range(nc):
        k = 0 if init is InitStrategy.REPEAT else d * c
        z[c, :, k:] = y[:, : wp - k]
        z[c, :, :k] = y[:, wp - k :] if init is InitStrategy.ROLL else 0.0
    return z


# The TV working arrays start on cache-line boundaries.  numpy guarantees
# only 16-byte alignment, and the flat dual steps ran up to a quarter slower
# on a block 16 or 48 bytes past a line than on an aligned one, so the cost
# of a call changed with the heap's state from one process to the next.
_TV_ALIGN_BYTES = 64
_TV_LINE = _TV_ALIGN_BYTES // 8  # float64 values per line


def _line_up(n: int) -> int:
    """``n`` float64 values rounded up to whole ``_TV_ALIGN_BYTES`` lines."""
    return -(-n // _TV_LINE) * _TV_LINE


def _aligned_rows(rows: int, n: int) -> np.ndarray:
    """Uninitialised (rows, n) float64 rows, each starting on a
    ``_TV_ALIGN_BYTES`` boundary (the row stride is padded to fit)."""
    stride = _line_up(n)
    raw = np.empty(rows * stride + _TV_LINE)
    start = (-raw.ctypes.data % _TV_ALIGN_BYTES) // 8
    return raw[start : start + rows * stride].reshape(rows, stride)[:, :n]


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


def _tv_prox_planes(f: np.ndarray, lam: float, iters: int, out: np.ndarray) -> bool:
    """Anisotropic TV proximal step on a stack of 2-D planes, written into
    ``out``; returns whether every output value is finite.

    ``f`` and ``out`` are (C, H, W) arrays of any strides, and ``out`` may
    be ``f`` itself: each block of ``f`` is copied into the workspace
    before its dual loop, and only the block's final field is written to
    ``out``, where its finiteness is checked while the block is in cache.

    Projected gradient on the dual (Chambolle's classical 1/(8*lam) step),
    run on the scaled dual ``v = p / step = 8*lam*p``: the field is
    ``f - div(v) * 0.125``, the differences of the field are added
    straight into ``v``, and ``v`` is clipped to ``[-8*lam, 8*lam]``.
    Fixed iteration count, fully deterministic.  Planes are independent, so
    the stack is processed in blocks of whole bands sized by
    :func:`cassi._pool.band_block`, and spans of blocks run on the kernel
    pool, each in its own workspace (a stack of one block runs inline).

    The workspace is one allocation of three line-aligned buffers, four
    block-sized arrays in all: the block's input ``f``, the field ``x``
    and the dual ``[lead | p | gap | q]``.  The lead is at least one row
    of +0 ahead of ``p``, and ``q`` starts on the first line after ``p``,
    behind a gap of up to 7 values (or behind ``p``'s last pad row); the
    lead and the gap stay +0.  The duals are stored padded to full planes
    (see :func:`_tv_div`); after the flat updates each pad row or column
    is reset to +0, so one clip covers ``p`` and ``q`` together.  Every
    view is built once per block, so a dual step is 12 numpy calls on
    whole blocks: five for the field, two per dual plus its pad reset, and
    the clip.
    """
    nc, h, w = f.shape
    block = band_block(nc, h, w)
    bound = np.float64(8.0 * lam)
    lead = _line_up(w)
    cap = _line_up(block * h * w)
    finite = [True] * nc

    def run_span(start: int, stop: int) -> None:
        ws = _aligned_rows(1, 4 * cap + lead)[0]
        fw, x, dual = ws[:cap], ws[cap : 2 * cap], ws[2 * cap :]
        for lo in range(start, stop, block):
            bands = min(block, stop - lo)
            n = bands * h * w
            qo = lead + _line_up(n)
            fb, xb = fw[:n], x[:n]
            fb.reshape(bands, h, w)[...] = f[lo : lo + bands]
            p, p_prev = dual[lead : lead + n], dual[lead - w : lead - w + n]
            q, q_prev = dual[qo : qo + n], dual[qo - 1 : qo - 1 + n]
            pq = dual[lead : qo + n]
            pad_row = p.reshape(bands, h, w)[:, -1, :]
            pad_col = q.reshape(bands, h, w)[:, :, -1]
            x_up, x_down, p_head = xb[:-w], xb[w:], p[:-w]
            x_left, x_right, q_head = xb[:-1], xb[1:], q[:-1]
            dual[: qo + n].fill(0.0)
            for _ in range(iters):
                _tv_div(xb, p, p_prev, q, q_prev)
                np.subtract(fb, xb, xb)
                p_head += x_up
                p_head -= x_down
                pad_row.fill(0.0)
                q_head += x_left
                q_head -= x_right
                pad_col.fill(0.0)
                np.clip(pq, -bound, bound, out=pq)
            _tv_div(xb, p, p_prev, q, q_prev)
            done = out[lo : lo + bands]
            np.subtract(fb.reshape(bands, h, w), xb.reshape(bands, h, w), done)
            finite[lo] = bool(np.isfinite(done).all())

    run_band_spans(run_span, nc, block)
    return all(finite)


@dataclass(frozen=True)
class TvPrior:
    """Total-variation prior; ``strength`` is the TV weight at call time.

    ``inner_iterations`` is the number of dual steps per prox call.  The
    prior is its only owner: the solver never reads or overrides it.
    """

    inner_iterations: int = 20

    def __post_init__(self):
        _int_at_least(self.inner_iterations, "inner_iterations", 1)

    def denoise(self, cube: HSICube, strength: float) -> HSICube:
        """Approximate prox of strength * anisotropic TV, per band independently."""
        strength = self._checked_strength(strength)
        if strength == 0.0:
            return HSICube._adopt(cube.config, cube.data.copy())
        out = np.empty(cube.data.shape)
        _tv_prox_planes(cube.data, strength, self.inner_iterations, out)
        return HSICube._adopt(cube.config, out)

    def _denoise_in_place(self, planes: np.ndarray, strength: float) -> bool:
        """:meth:`denoise` of the (C, H, W) ``planes`` (a view is fine),
        written back into them; returns whether every value is finite.
        The solver runs the prior this way, with no copy of the iterate."""
        strength = self._checked_strength(strength)
        if strength == 0.0:
            return bool(np.isfinite(planes).all())
        return _tv_prox_planes(planes, strength, self.inner_iterations, planes)

    @staticmethod
    def _checked_strength(strength: float) -> float:
        strength = _as_float(strength, "strength")
        _check_tv_strength(strength, "strength")
        return strength


def gap_solve_with_stats(
    op: SensingOperator,
    meas: Measurement,
    prior: Prior,
    cfg: SolverConfig,
    x0: HSICube | None = None,
) -> tuple[HSICube, SolveStats]:
    """GAP iteration returning the reconstruction and per-run stats.

    The iterate starts from ``x0`` shifted into measurement width with zero
    margins, or without ``x0`` from ``cfg.init`` (see :func:`_start`);
    ``x0`` is never written to.  Each iteration runs the data step
    ``z += pinv(y - A z)``, then applies the prior.  With ``crop_denoiser_input`` the prior sees only the
    on-support crop and the dispersed margin keeps its post-data-step
    values; otherwise the prior sees the full-width tensor.  The bundled
    :class:`TvPrior` runs in place on the iterate.  Any other prior
    receives a private copy, so it may return or keep its input, and its
    output is written back into the iterate.  Raises DimensionMismatch if
    ``meas`` or ``x0`` disagrees with the operator's geometry, and
    NonFiniteValue if the prior's output is not finite.
    """
    if meas.config.geometry != op.config.geometry:
        raise DimensionMismatch("measurement geometry disagrees with operator")
    h, _, nc, d = op.config.geometry
    wp = op.config.measurement_width()

    # The iterate is a fresh private array, updated in place.
    if x0 is None:
        z = _start(meas, cfg.init)
    elif x0.config.geometry == op.config.geometry:
        z = _shift(x0.data, d)
    else:
        raise DimensionMismatch("x0 geometry disagrees with operator")

    # The detector residual of each iterate serves both its norm and the
    # next data step.
    support = _on_support(z, d)
    if cfg.crop_denoiser_input:
        seen, seen_config = support, op.config
    else:
        # The full dispersed tensor goes through the cube-typed prior
        # interface as a scene of measurement width.
        seen, seen_config = z, SceneConfig(h, wp, nc, d)
    # The margins outside a crop only ever hold the finite start, so a
    # finite prior output means a finite iterate.
    in_place = getattr(prior, "_denoise_in_place", None)
    r = meas.data - _forward(op.mask, d, support)
    residuals = []
    # The stopping test reuses one buffer: ``max|x|`` is exactly
    # ``max(x.max(), -x.min())``, so no absolute-value array is made.
    prev = np.empty_like(z) if cfg.convergence_tol > 0.0 else None
    for _ in range(cfg.iterations):
        if prev is not None:
            np.copyto(prev, z)
        op._add_pinv(support, r)
        if in_place is not None:
            finite = in_place(seen, cfg.tv_weight)
        else:
            seen[...] = prior.denoise(
                HSICube._adopt(seen_config, seen.copy()), cfg.tv_weight
            ).data
            finite = np.isfinite(seen).all()
        if not finite:
            raise NonFiniteValue(
                f"solver iterate diverged at iteration {len(residuals)}"
            )

        r = meas.data - _forward(op.mask, d, support)
        residuals.append(float(np.linalg.norm(r)))

        if prev is not None:
            scale = max(float(prev.max()), -float(prev.min()), np.finfo(float).tiny)
            np.subtract(z, prev, out=prev)
            delta = max(float(prev.max()), -float(prev.min()))
            if delta <= cfg.convergence_tol * scale:
                break

    stats = SolveStats(
        residual_l2=tuple(residuals), denoised_pixels_per_iteration=seen.size
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

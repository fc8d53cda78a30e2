"""The one block rule of every kernel, and the spans of the band kernels.

Every kernel cuts its rows (detector rows, bands or values) by
:func:`row_block`, and no result depends on the blocking.  The TV prox and
the metrics treat each band on its own in numpy loops that release the
interpreter lock, so their band blocks are spread over one span per CPU this
process may run on (``taskset`` limits it).  The caller works the first
span; each other span runs on a helper thread joined before the return.

The calling thread also allocates every span's scratch, as one block cut
into line-aligned slices, before it starts a helper.  A helper allocates
nothing block-sized: glibc serves a thread's allocations from an arena of
its own, and the helpers' arenas kept megabytes resident after each call.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

# Bytes per working array of one block, for every kernel (see row_block),
# so that the TV prox's workspace (the block's input, the field and the
# duals p and q: 4 such arrays, about 2 MiB per span at 256x256) stays in
# cache instead of streaming the whole stack through DRAM on every step.
# The SSIM blocks, the detector-row blocks and the finite check's chunks
# keep to it too.  A small array is one block: low per-call overhead.
BLOCK_BYTES = 512 * 1024


# Scratch starts on cache-line boundaries.  numpy guarantees only 16-byte
# alignment, and the TV prox's flat dual steps ran up to a quarter slower on
# a block 16 or 48 bytes past a line than on an aligned one, so the cost of
# a call changed with the heap's state from one process to the next.
ALIGN_BYTES = 64
_LINE = ALIGN_BYTES // 8  # float64 values per line


def line_up(n: int) -> int:
    """``n`` float64 values rounded up to whole ``ALIGN_BYTES`` lines."""
    return -(-n // _LINE) * _LINE


def aligned(n: int) -> np.ndarray:
    """Uninitialised float64 buffer of ``n`` values starting on an
    ``ALIGN_BYTES`` boundary: one allocation."""
    raw = np.empty(n + _LINE)
    start = (-raw.ctypes.data % ALIGN_BYTES) // 8
    return raw[start : start + n]


def kernel_workers() -> int:
    """Threads the band kernels run on, the caller's included: one per CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def row_block(rows: int, row_bytes: int) -> int:
    """Rows per block of an array of ``rows`` rows of ``row_bytes`` each.

    All of them when the array fits in ``BLOCK_BYTES``.  Otherwise the rows
    are cut into the fewest near-equal blocks of ``BLOCK_BYTES`` that hold
    the array, so each is less than one row over ``BLOCK_BYTES``.  At
    least one.
    """
    size = rows * row_bytes
    if size <= BLOCK_BYTES:
        return max(1, rows)
    return -(-rows // -(-size // BLOCK_BYTES))


def run_band_spans(
    task: Callable[[int, int, np.ndarray], None], n: int, block: int, scratch: int
) -> None:
    """Call ``task(lo, hi, ws)`` on spans of whole ``block``-band blocks
    that together cover bands ``[0, n)``, and return when every call has.

    ``ws`` is the span's own scratch: ``scratch`` uninitialised float64
    values starting on an ``ALIGN_BYTES`` line.  The slices of all spans
    are cut, disjoint, from one :func:`aligned` block that the calling
    thread allocates before it starts any helper (see the module
    docstring).  There is at most one span per worker.  The calling thread
    runs the first span and a ``cassi-kernel`` helper thread each of the
    others, so a single span runs on the caller alone, and a single block
    does not ask for :func:`kernel_workers`.  Spans must be independent of
    each other.  The first exception a span raises, in band order, is
    raised here once every span is done.
    """
    blocks = -(-n // block)
    spans = 1 if blocks <= 1 else min(kernel_workers(), blocks)
    stride = line_up(scratch)
    whole = aligned(spans * stride)
    ws = [whole[i * stride : i * stride + scratch] for i in range(spans)]
    if spans <= 1:
        task(0, n, ws[0])
        return
    bounds = [min(n, i * blocks // spans * block) for i in range(spans + 1)]
    errors: list[BaseException | None] = [None] * spans

    def work(i: int) -> None:
        try:
            task(bounds[i], bounds[i + 1], ws[i])
        except BaseException as exc:  # raised in the caller, in band order
            errors[i] = exc

    helpers = []
    try:
        for i in range(1, spans):
            helper = threading.Thread(target=work, args=(i,), name="cassi-kernel")
            helper.start()
            helpers.append(helper)
        task(0, bounds[1], ws[0])
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc

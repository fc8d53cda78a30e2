"""The spans of the band kernels: the TV prox and the metrics.

Both treat every band on its own and spend their time in numpy loops that
release the interpreter lock, so their blocks of bands are spread over one
span per CPU this process may run on (``taskset`` limits it).  The calling
thread works the first span, and each other span runs on a helper thread
started for it and joined before the call returns, so a call starts one
thread fewer than there are CPUs and a stack of one block starts none.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

# Bytes per working array of one band block, so the TV prox's workspace
# (the block's input, the field and the duals p and q: 4 such arrays, about
# 2 MiB per span at 256x256) stays in cache instead of streaming the whole
# stack through DRAM on every step.  Small stacks get a single block, which
# keeps their per-call overhead low.  The metrics' 7-array SSIM blocks and
# the operator kernels' row blocks (see row_block) keep to the same budget.
BLOCK_BYTES = 512 * 1024


def kernel_workers() -> int:
    """Threads the band kernels run on, the caller's included: one per CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def band_block(bands: int, height: int, width: int) -> int:
    """Whole float64 bands per block: as many as fit in ``BLOCK_BYTES``,
    at least one and at most ``bands``."""
    return min(bands, max(1, BLOCK_BYTES // (height * width * 8)))


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


def run_band_spans(task: Callable[[int, int], None], n: int, block: int) -> None:
    """Call ``task(lo, hi)`` on spans of whole ``block``-band blocks that
    together cover bands ``[0, n)``, and return when every call has.

    There is at most one span per worker.  The calling thread runs the
    first span and a ``cassi-kernel`` helper thread each of the others, so
    a single span runs on the caller alone.  Spans must be independent of
    each other.  The first exception a span raises, in band order, is
    raised here once every span is done.
    """
    blocks = -(-n // block)
    spans = 1 if blocks <= 1 else min(kernel_workers(), blocks)
    if spans <= 1:
        task(0, n)
        return
    bounds = [min(n, i * blocks // spans * block) for i in range(spans + 1)]
    errors: list[BaseException | None] = [None] * spans

    def work(i: int) -> None:
        try:
            task(bounds[i], bounds[i + 1])
        except BaseException as exc:  # raised in the caller, in band order
            errors[i] = exc

    helpers = []
    try:
        for i in range(1, spans):
            helper = threading.Thread(target=work, args=(i,), name="cassi-kernel")
            helper.start()
            helpers.append(helper)
        task(0, bounds[1])
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc

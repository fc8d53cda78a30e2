"""The process-wide kernel thread pool of the TV prox and the metrics.

Both treat every band on its own and spend their time in numpy loops that
release the interpreter lock, so their blocks of bands are spread over one
span per CPU this process may run on (``taskset`` limits it).  The calling
thread works the first span and the pool's threads the rest, so the pool
holds one thread fewer than there are CPUs.  Every caller's threads share
the one pool.  A span must not itself run spans, or it could wait for ever
on a pool whose threads all wait too.

The pool is created on first use, and again in a forked child, whose copy
of the parent's pool has no threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

# Bytes per working array of one band block, so the TV prox's workspace
# (the block's input, the field and the duals p and q: 4 such arrays, about
# 2 MiB per span at 256x256) stays in cache instead of streaming the whole
# stack through DRAM on every step.  Small stacks get a single block, which
# keeps their per-call overhead low.  The metrics' SSIM workspace has 7 block arrays,
# so its blocks hold max(1, BLOCK_BYTES // (7*H*W*8)) bands: the whole
# workspace fits in BLOCK_BYTES, or holds one band (7 planes) when a band
# is larger.  The operator kernels cut the detector image, and the finite
# check its array, into near-equal blocks of rows of about BLOCK_BYTES
# (see row_block), worked one after another on the calling thread.
BLOCK_BYTES = 512 * 1024

_lock = threading.Lock()
# (pid, workers, executor) of the process that created the pool.
_pool: tuple[int, int, ThreadPoolExecutor] | None = None


def _pool_size() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _executor() -> tuple[int, ThreadPoolExecutor]:
    global _pool
    pool = _pool
    if pool is None or pool[0] != os.getpid():
        with _lock:
            pool = _pool
            if pool is None or pool[0] != os.getpid():
                workers = _pool_size()
                # The caller works one span; threads start when spans are queued.
                executor = ThreadPoolExecutor(
                    max(1, workers - 1), thread_name_prefix="cassi-kernel"
                )
                pool = _pool = (os.getpid(), workers, executor)
    return pool[1], pool[2]


def kernel_workers() -> int:
    """Number of threads the band kernels run on, the caller's included."""
    return _executor()[0]


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
    first span and the pool the rest, so a single span runs on the caller
    alone.  Spans must be independent of each other.  The first exception
    a span raises, in band order, is raised here once every span is done.
    """
    workers, executor = _executor()
    blocks = -(-n // block)
    spans = min(workers, blocks)
    if spans <= 1:
        task(0, n)
        return
    bounds = [min(n, i * blocks // spans * block) for i in range(spans + 1)]
    futures = [executor.submit(task, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]
    try:
        task(0, bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()

"""The process-wide kernel thread pool.

The TV prox and SSIM treat every band on its own, and they spend their time
in numpy and scipy loops that release the interpreter lock.  So their band
blocks are spread over one thread per CPU this process may run on
(``taskset`` limits it).  Every caller shares the one pool: batch
reconstruction threads queue their blocks on it rather than bring their
own.  A task must not itself wait on the pool.

The pool is created on first use, and again in a forked child, whose copy
of the parent's pool has no threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

# Bytes per working array of one band block, so the TV prox's 4 working
# arrays (2 MiB) and its slice of the input stay in cache instead of
# streaming the whole stack through DRAM on every step.  Small stacks get a
# single block, which keeps their per-call overhead low.  SSIM scores the
# same blocks, so a stack the TV prox runs inline is scored inline.
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
                executor = ThreadPoolExecutor(
                    workers, thread_name_prefix="cassi-kernel"
                )
                pool = _pool = (os.getpid(), workers, executor)
    return pool[1], pool[2]


def kernel_workers() -> int:
    """Number of threads the band kernels run on."""
    return _executor()[0]


def band_block(bands: int, height: int, width: int) -> int:
    """Whole float64 bands per block: as many as fit in ``BLOCK_BYTES``,
    at least one and at most ``bands``."""
    return min(bands, max(1, BLOCK_BYTES // (height * width * 8)))


def run_band_spans(task: Callable[[int, int], None], n: int, block: int) -> None:
    """Call ``task(lo, hi)`` on spans of whole ``block``-band blocks that
    together cover bands ``[0, n)``, and return when every call has.

    There is at most one span per worker; a single span runs inline in the
    calling thread.  Spans must be independent of each other.  The first
    exception a span raises, in band order, is raised here.
    """
    workers, executor = _executor()
    blocks = -(-n // block)
    spans = min(workers, blocks)
    if spans <= 1:
        task(0, n)
        return
    bounds = [min(n, i * blocks // spans * block) for i in range(spans + 1)]
    futures = [executor.submit(task, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    wait(futures)
    for future in futures:
        future.result()

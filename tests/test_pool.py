import os
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cassi import HSICube, SceneConfig, TvPrior, _pool, evaluate

from conftest import make_operator, random_meas


def spans_of(n, block):
    spans = []
    _pool.run_band_spans(lambda lo, hi: spans.append((lo, hi)), n, block)
    return sorted(spans)


class TestRunBandSpans:
    @given(st.integers(1, 60), st.integers(1, 12), st.integers(1, 5))
    def test_spans_cover_the_bands_in_whole_blocks(self, n, block, workers):
        blocks = -(-n // block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_executor", lambda: (workers, _Inline()))
            spans = spans_of(n, block)
        assert len(spans) == min(workers, blocks)
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo and lo % block == 0
        sizes = [-(-(hi - lo) // block) for lo, hi in spans]
        assert max(sizes) - min(sizes) <= 1

    def test_one_span_runs_in_the_calling_thread(self, kernel_pool):
        kernel_pool(3)
        ran_in = []
        _pool.run_band_spans(lambda lo, hi: ran_in.append(threading.get_ident()), 5, 8)
        assert ran_in == [threading.get_ident()]

    def test_spans_run_on_the_pool_at_once(self, kernel_pool):
        kernel_pool(2)
        started = threading.Barrier(2, timeout=30)
        ran = []

        def task(lo, hi):
            started.wait()  # both spans at once, or the barrier times out
            ran.append((lo, hi, threading.get_ident()))

        _pool.run_band_spans(task, 4, 1)
        assert sorted((lo, hi) for lo, hi, _ in ran) == [(0, 2), (2, 4)]
        assert threading.get_ident() not in {t for _, _, t in ran}

    def test_a_failing_span_raises_in_the_caller_after_all_finish(self, kernel_pool):
        kernel_pool(2)
        finished = []

        def task(lo, hi):
            if lo == 0:
                raise MemoryError("span")
            time.sleep(0.2)
            finished.append(lo)

        with pytest.raises(MemoryError, match="span"):
            _pool.run_band_spans(task, 4, 1)
        assert finished == [2]


class TestRowBlock:
    @given(
        st.integers(1, 300),
        st.integers(1, 4096),
        st.integers(1, 1 << 16),
        st.integers(1, 5),
    )
    def test_blocks_fit_the_budget_and_spread_over_the_workers(
        self, rows, row_bytes, budget, workers
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "kernel_workers", lambda: workers)
            mp.setattr(_pool, "BLOCK_BYTES", budget)
            block = _pool.row_block(rows, row_bytes)
        assert 1 <= block <= rows
        if rows * row_bytes <= budget:
            assert block == rows  # one block, run inline
        else:
            # Less than one row over the budget, and a span for every
            # worker when the rows split evenly over them.
            assert (block - 1) * row_bytes < budget
            if rows % workers == 0:
                assert -(-rows // block) >= workers

    def test_a_large_image_gives_each_worker_an_equal_span(self, kernel_pool):
        kernel_pool(2)
        spans = spans_of(256, _pool.row_block(256, 310 * 8))
        assert spans == [(0, 128), (128, 256)]


class _Inline:
    """Executor stand-in that runs each task on submit."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def multi_block_cube(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    return HSICube(SceneConfig(181, 181, 5, 1), rng.random((5, 181, 181)))


def test_concurrent_callers_get_the_serial_bytes(kernel_pool):
    # Four callers share a two-worker pool while the interpreter switches
    # threads as often as it can.
    cubes = [multi_block_cube(seed) for seed in range(4)]
    prior = TvPrior(5)
    kernel_pool(1)
    expected = [
        (prior.denoise(c, 0.1).data.tobytes(), evaluate(cubes[0], c)) for c in cubes
    ]
    kernel_pool(2)
    got = [None] * 4

    def call(i):
        got[i] = (
            prior.denoise(cubes[i], 0.1).data.tobytes(),
            evaluate(cubes[0], cubes[i]),
        )

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_concurrent_operator_callers_get_the_serial_bytes(kernel_pool, monkeypatch):
    # Four callers share a three-worker pool, more workers than this test
    # needs cores, with each detector image cut into several row blocks.
    monkeypatch.setattr(_pool, "BLOCK_BYTES", 16 * 1024)
    config = SceneConfig(181, 181, 5, 1)
    op = make_operator(config, seed=3)
    cubes = [multi_block_cube(seed).data for seed in range(4)]
    meas = [random_meas(config, seed) for seed in range(4)]

    def outputs(i):
        cube = HSICube(config, cubes[i])  # the finite check runs on the pool too
        return (
            op.forward(cube).data.tobytes(),
            op.pinv(meas[i]).data.tobytes(),
            op.rnd_combine(meas[i], cube).data.tobytes(),
        )

    kernel_pool(1)
    expected = [outputs(i) for i in range(4)]
    kernel_pool(3)
    got = [None] * 4

    def call(i):
        got[i] = outputs(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_gets_its_own_pool(kernel_pool):
    # The child inherits the parent's pool object but none of its threads;
    # work queued on it would never run.
    kernel_pool(2)
    cube = multi_block_cube(7)
    prior = TvPrior(5)
    expected = prior.denoise(cube, 0.1).data.tobytes()
    pid = os.fork()
    if pid == 0:  # child: never return into the test runner
        code = 1
        try:
            code = 0 if prior.denoise(cube, 0.1).data.tobytes() == expected else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish the TV prox within 30 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0

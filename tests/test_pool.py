import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cassi import HSICube, Measurement, SceneConfig, TvPrior, _pool, evaluate

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
            mp.setattr(_pool, "kernel_workers", lambda: workers)
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
        on = {(lo, hi): t for lo, hi, t in ran}
        assert sorted(on) == [(0, 2), (2, 4)]
        # The caller works the first span, a helper thread the second.
        assert on[0, 2] == threading.get_ident() != on[2, 4]

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
    @given(st.integers(1, 300), st.integers(1, 4096), st.integers(1, 1 << 16))
    def test_blocks_fit_the_budget(self, rows, row_bytes, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "BLOCK_BYTES", budget)
            block = _pool.row_block(rows, row_bytes)
        assert 1 <= block <= rows
        if rows * row_bytes <= budget:
            assert block == rows  # one block
        else:
            # Less than one row over the budget, and no more blocks than
            # the budget needs.
            assert (block - 1) * row_bytes < budget
            assert -(-rows // block) <= -(-rows * row_bytes // budget)

    def test_a_large_image_gives_each_worker_an_equal_span(self):
        block = _pool.row_block(256, 310 * 8)
        assert (block, -(-256 // block)) == (128, 2)


class _Refusing(threading.Thread):
    """Thread whose ``start`` raises."""

    def start(self):
        raise AssertionError("a kernel started a thread")


def test_operator_kernels_and_finite_check_never_use_the_pool(monkeypatch):
    config = SceneConfig(23, 19, 6, 2)
    op = make_operator(config, seed=5)
    rng = np.random.Generator(np.random.Philox(8))
    cube_data = rng.standard_normal((6, 23, 19))
    meas_data = rng.standard_normal((23, config.measurement_width()))
    residual = rng.standard_normal(meas_data.shape)

    def outputs():
        cube = HSICube(config, cube_data)
        meas = Measurement(config, meas_data)
        return [
            a.tobytes()
            for a in (
                cube.data,
                meas.data,
                op.forward(cube).data,
                op.adjoint(meas).data,
                op.pinv(meas).data,
                op.rnd_combine(meas, cube).data,
                op.null_project(cube).data,
                op._add_pinv(cube_data.copy(), residual),
            )
        ]

    expected = outputs()  # each input is one block
    monkeypatch.setattr(_pool, "kernel_workers", lambda: 2)
    monkeypatch.setattr(_pool.threading, "Thread", _Refusing)
    monkeypatch.setattr(_pool, "BLOCK_BYTES", 8 * 40)  # a few rows per block
    assert _pool.row_block(23, 8 * config.measurement_width()) < 23
    assert outputs() == expected


def _kernel_threads():
    return {t for t in threading.enumerate() if t.name.startswith("cassi-kernel")}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_pool_starts_one_thread_fewer_than_its_workers(
    workers, kernel_pool, monkeypatch
):
    # Each helper counts the kernel threads alive, itself included, as it
    # starts its span.
    running = []

    class Counting(threading.Thread):
        def run(self):
            running.append(len(_kernel_threads()))
            super().run()

    kernel_pool(workers)
    monkeypatch.setattr(_pool.threading, "Thread", Counting)
    cube = multi_block_cube(9)
    for _ in range(3):
        TvPrior(2).denoise(cube, 0.1)
        assert not _kernel_threads()
        evaluate(cube, cube)
        assert not _kernel_threads()
    assert bool(running) == (workers > 1)
    assert max(running, default=0) <= workers - 1


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
    # Four callers run the kernels at once, on a three-worker pool, with
    # each detector image cut into several row blocks.
    monkeypatch.setattr(_pool, "BLOCK_BYTES", 16 * 1024)
    config = SceneConfig(181, 181, 5, 1)
    op = make_operator(config, seed=3)
    cubes = [multi_block_cube(seed).data for seed in range(4)]
    meas = [random_meas(config, seed) for seed in range(4)]

    def outputs(i):
        cube = HSICube(config, cubes[i])  # the finite check runs in chunks too
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
def test_forked_child_runs_the_spans(kernel_pool):
    # The child holds only the thread that forked; its spans start helpers
    # of their own.
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

import itertools
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cassi
from cassi import HSICube, Measurement, SceneConfig, TvPrior, _pool, evaluate

from conftest import make_operator, random_meas, traced_peak


def spans_of(n, block):
    spans = []
    _pool.run_band_spans(lambda lo, hi, ws: spans.append((lo, hi)), n, block, 0, 8)
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

        def task(lo, hi, ws):
            ran_in.append(threading.get_ident())

        _pool.run_band_spans(task, 5, 8, 0, 8)
        assert ran_in == [threading.get_ident()]

    def test_spans_run_on_the_pool_at_once(self, kernel_pool):
        kernel_pool(2)
        started = threading.Barrier(2, timeout=30)
        ran = []

        def task(lo, hi, ws):
            started.wait()  # both spans at once, or the barrier times out
            ran.append((lo, hi, threading.get_ident()))

        _pool.run_band_spans(task, 4, 1, 0, 8)
        on = {(lo, hi): t for lo, hi, t in ran}
        assert sorted(on) == [(0, 2), (2, 4)]
        # The caller works the first span, a helper thread the second.
        assert on[0, 2] == threading.get_ident() != on[2, 4]

    def test_a_failing_span_raises_in_the_caller_after_all_finish(self, kernel_pool):
        kernel_pool(2)
        finished = []

        def task(lo, hi, ws):
            if lo == 0:
                raise MemoryError("span")
            time.sleep(0.2)
            finished.append(lo)

        with pytest.raises(MemoryError, match="span"):
            _pool.run_band_spans(task, 4, 1, 0, 8)
        assert finished == [2]


class TestSpanScratch:
    @staticmethod
    def spy_on_aligned(mp):
        """The sizes, item sizes and threads of ``_pool.aligned``'s
        allocations."""
        made = []
        aligned = _pool.aligned

        def spy(n, itemsize):
            made.append((n, itemsize, threading.get_ident()))
            return aligned(n, itemsize)

        mp.setattr(_pool, "aligned", spy)
        return made

    @given(
        st.integers(1, 40),
        st.integers(1, 12),
        st.integers(1, 4),
        st.integers(1, 300),
        st.sampled_from([4, 8]),
    )
    def test_one_caller_allocation_cut_into_disjoint_aligned_slices(
        self, n, block, workers, scratch, itemsize
    ):
        got = []

        def task(lo, hi, ws):
            ws[...] = lo  # each span fills its own slice
            got.append((lo, ws))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "kernel_workers", lambda: workers)
            made = self.spy_on_aligned(mp)
            _pool.run_band_spans(task, n, block, scratch, itemsize)
        assert [(k, t) for _, k, t in made] == [(itemsize, threading.get_ident())]
        assert len(got) == min(workers, -(-n // block))
        for lo, ws in got:
            assert ws.shape == (scratch,) and ws.dtype == np.dtype(f"f{itemsize}")
            assert ws.flags.c_contiguous
            assert ws.ctypes.data % _pool.ALIGN_BYTES == 0
            assert (ws == lo).all()  # no other span wrote into it
        for (_, a), (_, b) in itertools.combinations(got, 2):
            assert not np.shares_memory(a, b)

    def test_one_block_allocates_once_and_reads_no_worker_count(self, monkeypatch):
        def refuse():
            raise AssertionError("a one-block call read the worker count")

        monkeypatch.setattr(_pool, "kernel_workers", refuse)
        monkeypatch.setattr(_pool.threading, "Thread", _Refusing)
        made = self.spy_on_aligned(monkeypatch)
        got = []
        _pool.run_band_spans(lambda lo, hi, ws: got.append(ws), 5, 8, 10, 4)
        assert [n for n, _, _ in made] == [_pool.line_up(10, 4)]
        assert got[0].shape == (10,)

    @pytest.mark.parametrize("kernel", ["tv", "evaluate"])
    def test_kernels_allocate_on_the_calling_thread_alone(
        self, kernel, kernel_pool, monkeypatch
    ):
        # With two spans, each call makes one scratch allocation, on the
        # calling thread, and no thread allocates another block-sized array
        # (not even a TV block's finiteness mask, a byte a value, nor one
        # SSIM row): the traced peak is the output cube and the scratch,
        # plus 32 KiB for the threads and Python objects.
        kernel_pool(2)
        c, h, w = 40, 64, 64
        config = SceneConfig(h, w, c, 1)
        rng = np.random.Generator(np.random.Philox(11))
        cube = HSICube(config, rng.random((c, h, w)))
        other = HSICube(config, rng.random((c, h, w)))
        if kernel == "tv":
            call, out = lambda: TvPrior(3).denoise(cube, 0.1), cube.data.nbytes
            block = _pool.row_block(c, 4 * h * w)
            smallest = block * h * w
        else:
            call, out = lambda: evaluate(cube, other), 0
            block = _pool.row_block(c, 8 * 7 * h * w)
            smallest = 8 * block * h * w
        assert -(-c // block) >= 2 and smallest > 32 * 1024
        call()  # warm up outside the trace
        made = self.spy_on_aligned(monkeypatch)
        _, peak = traced_peak(call)
        [(n, itemsize, thread)] = made
        assert thread == threading.get_ident()
        assert peak <= out + itemsize * n + _pool.ALIGN_BYTES + 32 * 1024


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


ONE_CPU_RUN = """
import os, threading
import numpy as np
from cassi import HSICube, SceneConfig, TvPrior, _pool, evaluate

started = []
start = threading.Thread.start

def spy(self):
    started.append(self.name)
    start(self)

threading.Thread.start = spy
rng = np.random.Generator(np.random.Philox(3))
cube = HSICube(SceneConfig(181, 181, 5, 1), rng.random((5, 181, 181)))
tv_blocks = -(-5 // _pool.row_block(5, 4 * 181 * 181))
ssim_blocks = -(-5 // _pool.row_block(5, 8 * 7 * 181 * 181))
assert tv_blocks > 1 and ssim_blocks > 1

def kernel_threads():
    started.clear()
    TvPrior(2).denoise(cube, 0.1)
    evaluate(cube, cube)
    return started.count("cassi-kernel")

allowed = os.sched_getaffinity(0)
if len(allowed) > 1:  # a span per block, at most one per CPU
    n = len(allowed)
    assert kernel_threads() == min(n, tv_blocks) - 1 + min(n, ssim_blocks) - 1
os.sched_setaffinity(0, {min(allowed)})  # this process alone
assert _pool.kernel_workers() == 1
assert kernel_threads() == 0
print("ok")
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)
def test_kernel_workers_follow_the_cpu_affinity_mask():
    # Run where the process may use one CPU: one worker, and multi-block
    # calls of both band kernels start no helper thread.  Before the mask
    # is narrowed, the same calls start the helpers the spy counts.
    src = os.path.dirname(os.path.dirname(cassi.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", ONE_CPU_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


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

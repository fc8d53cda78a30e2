"""In-memory span tracer and the timing shims of the traced run.

Spans are recorded only from this directory: around the benchmark's own
calls into ``cassi`` and, through shims, around the module-level names that
``cassi.cli``, ``cassi.metrics``, ``cassi.simulate`` and the operator class
look up at call time.  The library source is never edited; :meth:`Tracer.install`
swaps attributes and :meth:`Tracer.uninstall` restores them, so the measured
run executes with no wrapper at all.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager

# Per-layer metrics named by the benchmark, in report order, with units.
LAYER_METRICS = {
    "operator.build_s": "s",
    "operator.bytes": "bytes",
    "operator.forward_s": "s",
    "operator.pinv_s": "s",
    "operator.rnd_combine_s": "s",
    "recon.gap_solve_s": "s",
    "recon.denoise_s": "s",
    "recon.iterations": "count",
    "recon.iteration_s": "s",
    "recon.denoised_pixels": "count",
    "metrics.evaluate_s": "s",
    "metrics.ssim_s": "s",
    "metrics.psnr_s": "s",
    "simulate.gen_scene_s": "s",
    "simulate.repair_mask_s": "s",
    "simulate.add_shot_noise_s": "s",
    "cubefile.read_s": "s",
    "cubefile.write_s": "s",
    "cubefile.bytes_read": "bytes",
    "cubefile.bytes_written": "bytes",
    "cli.simulate_s": "s",
    "cli.reconstruct_s": "s",
    "trace.overhead_ratio": "1",
}


class Tracer:
    """Collects spans ``(name, start, end, parent, op)`` and counters.

    Spans nest per thread.  A span opened on a worker thread with nothing
    open on that thread is parented to the innermost open span of the main
    thread, which is the call that handed the work to the pool.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, int] = {}
        self.op = "setup"
        self.enabled = True
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counts[name] = max(self.counts.get(name, 0), value)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        me = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(me, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(threading.main_thread().ident) or [None]
                parent = main[-1]
            index = len(self.spans)
            record = [name, 0.0, None, parent, self.op]
            self.spans.append(record)
            stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            with self._lock:
                stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self) -> None:
        """Put timing shims on every layer boundary the workloads cross."""
        from cassi import cli, cubefile, metrics, operator, recon, simulate

        def op_bytes(args, op):
            self.peak("operator.bytes", op.nbytes())

        def solve_counts(args, result):
            stats = result[1]
            self.count("recon.iterations", stats.iterations_run)
            self.count(
                "recon.denoised_pixels",
                stats.iterations_run * stats.denoised_pixels_per_iteration,
            )

        def read_bytes(args, result):
            self.count("cubefile.bytes_read", os.path.getsize(args[0]))

        def written_bytes(args, result):
            self.count("cubefile.bytes_written", os.path.getsize(args[0]))

        shims = [
            ("operator.build", (operator, cli), "build_operator", op_bytes),
            ("operator.forward", (operator.SensingOperator,), "forward", None),
            ("operator.pinv", (operator.SensingOperator,), "pinv", None),
            ("operator.rnd_combine", (operator.SensingOperator,), "rnd_combine", None),
            ("recon.gap_solve", (recon, cli), "gap_solve_with_stats", solve_counts),
            ("metrics.evaluate", (metrics, cli), "evaluate", None),
            ("metrics.psnr", (metrics,), "psnr_bands", None),
            ("metrics.ssim", (metrics,), "ssim_bands", None),
            ("simulate.gen_scene", (simulate,), "gen_scene", None),
            ("simulate.repair_mask", (simulate, cli), "repair_mask", None),
            ("simulate.add_shot_noise", (simulate, cli), "add_shot_noise", None),
            ("cubefile.read", (cubefile, cli), "read_cube", read_bytes),
            ("cubefile.write", (cubefile, cli), "write_cube", written_bytes),
        ]
        for name, owners, attr, after in shims:
            for owner in owners:
                self.patch(owner, attr, name, after)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time, call count).

        Self time is a span's duration minus the union of the intervals its
        children cover, so overlapping worker-thread children count once.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered, calls + 1)
        return out

    def layer_metrics(self, overhead_ratio: float) -> dict[str, tuple[float, int | None]]:
        """Every metric in :data:`LAYER_METRICS` as (value, call count or None)."""
        selfs = self.self_times()
        iterations = self.counts.get("recon.iterations", 0)
        gap_total = sum(e - s for n, s, e, _, _ in self.spans if n == "recon.gap_solve")
        derived = {
            "recon.iteration_s": (gap_total / iterations if iterations else 0.0, iterations),
            "trace.overhead_ratio": (overhead_ratio, None),
        }
        out: dict[str, tuple[float, int | None]] = {}
        for metric in LAYER_METRICS:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith("_s"):
                out[metric] = selfs.get(metric[:-2], (0.0, 0))
            else:
                out[metric] = (self.counts.get(metric, 0), None)
        return out

    def dump(self, path: str) -> None:
        """Write every span, in start order, as JSON."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"id": i, "name": n, "start_s": s - base, "end_s": e - base, "parent": p, "op": o}
            for i, (n, s, e, p, o) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)


class TimedPrior:
    """A ``Prior`` that times its inner prior's ``denoise`` under ``recon.denoise``.

    Uses only the public plug-in interface: any object with
    ``denoise(cube, strength) -> cube`` is accepted by the solver.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def denoise(self, cube, strength):
        with self._tracer.span("recon.denoise"):
            return self._inner.denoise(cube, strength)

#!/usr/bin/env python3
"""Benchmark runner for ``cassi``: three seeded, closed-loop, one-client workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload paper_rnd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` is the measured run: no wrapper is installed, and the last
line of standard output is a JSON object with the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` is the traced run: set-up and the second
half of the timed phase run under timing shims, and the JSON holds the
per-layer metrics.  Lines before the last start with ``#`` and add the
environment, sample counts, the latency tail and the error rate.

The package is imported from ``src/`` of the checkout that holds this file;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Thread pools are sized when numpy loads, so this precedes every import
# that can load it.  One BLAS/OpenMP thread and one CLI worker keep the
# process within nproc threads and make runs comparable.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
os.environ["CASSI_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("paper_rnd", "suite_small", "cli_pinv_batch")


def _load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _cache_sizes() -> dict[str, int | str]:
    """L2 and L3 sizes of cpu0, read-only from sysfs ("unknown" if absent)."""
    sizes: dict[str, int | str] = {"l2_bytes": "unknown", "l3_bytes": "unknown"}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="ascii") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size"), encoding="ascii") as fh:
                text = fh.read().strip()
            if level in ("2", "3"):
                scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
                sizes[f"l{level}_bytes"] = int(text.rstrip("KM")) * scale
    except OSError:
        pass
    return sizes


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(latencies)
    index = len(ordered) - 11
    if index < 0:
        return None
    return 100.0 * (index + 1) / len(ordered), ordered[index]


class Phase:
    """Latencies and outcome counts of one stretch of closed-loop operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.cubes = 0

    def cubes_per_s(self) -> float:
        busy = sum(self.latencies)
        return self.cubes / busy if busy > 0 else 0.0


def _attempt(wl, k: int, phase: Phase, tracer, timed: bool) -> None:
    """One operation: run it (timed), then check its outputs (untimed)."""
    if tracer is not None:
        tracer.op = f"op{k}"
    problems: list[str] = []
    started = time.perf_counter()
    try:
        result = wl.op_run(k)
    except Exception:  # an operation failure is counted, not fatal
        result = None
        problems = [traceback.format_exc()]
    elapsed = time.perf_counter() - started
    if result is not None:
        if tracer is not None:
            tracer.enabled = False
        try:
            problems = wl.check(k, result)
        except Exception:
            problems = [traceback.format_exc()]
        finally:
            if tracer is not None:
                tracer.enabled = True
    phase.attempted += 1
    if problems:
        phase.failed += 1
        print(f"# failed {wl.name} op {k}: {problems[0].strip()}", file=sys.stderr)
    elif timed:
        phase.cubes += wl.cubes_per_op
    if timed:
        phase.latencies.append(elapsed)


def _closed_loop(wl, first: int, seconds: float, tracer=None) -> Phase:
    """One client: the next operation starts when the previous one ends.

    Runs whole passes of ``wl.pass_ops`` operations, at least one, so every
    run times the same mix of operations.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    done = 0
    while done == 0 or done % wl.pass_ops or time.perf_counter() < deadline:
        _attempt(wl, first + done, phase, tracer, timed=True)
        done += 1
    return phase


def _setup_repeated(wl, seed: int, workdir: str) -> list[float]:
    """Mean time of one set-up in each of five batches of ``wl.setup_batch``.

    Batches of about 0.3 s smooth out the millisecond bursts of a shared
    machine, which would otherwise decide the median of a set-up as short as
    the bundled suite's.  The count is fixed rather than timed because the
    allocator's history, and with it the peak RSS of the first operation,
    depends on how many set-ups ran.  The workload keeps the last inputs.
    """
    samples: list[float] = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(wl.setup_batch):
            wl.setup(seed, workdir)
        samples.append((time.perf_counter() - started) / wl.setup_batch)
    return samples


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measured_run(wl, args, workdir: str) -> dict:
    spec = {m["name"]: m["unit"] for m in _load_benchmark_spec()["end_to_end"]}
    setups = _setup_repeated(wl, args.seed, workdir)
    warm = Phase()
    _attempt(wl, 0, warm, None, timed=False)
    phase = _closed_loop(wl, 0, args.seconds)
    psnr_db, ssim, problems = wl.quality()
    attempted = warm.attempted + phase.attempted
    failed = warm.failed + phase.failed + (1 if problems else 0)
    for problem in problems:
        print(f"# failed {wl.name} quality: {problem}", file=sys.stderr)
    values = {
        "setup_s": statistics.median(setups),
        "cubes_per_s": phase.cubes_per_s(),
        "op_latency_p50_s": statistics.median(phase.latencies),
        "psnr_db": psnr_db,
        "ssim": ssim,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(phase.latencies)
    print(f"# metric setup_s {values['setup_s']!r} s median_of={len(setups)} batches of {wl.setup_batch}")
    print(f"# metric cubes_per_s {values['cubes_per_s']!r} cubes/s cubes={phase.cubes}")
    print(f"# metric op_latency_p50_s {values['op_latency_p50_s']!r} s n={n}")
    tail = _tail(phase.latencies)
    if tail is None:
        print(f"# metric op_latency_tail_s none s n={n} (fewer than 11 operations)")
    else:
        print(f"# metric op_latency_tail_s {tail[1]!r} s p{tail[0]:.1f} n={n}")
    print(f"# metric psnr_db {psnr_db!r} dB")
    print(f"# metric ssim {ssim!r} 1")
    print(f"# metric peak_rss_mib {values['peak_rss_mib']!r} MiB")
    print(f"# metric error_rate {failed / attempted!r} 1 failed={failed} attempted={attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(values[name], unit) for name, unit in spec.items()},
    }


def traced_run(wl, args, workdir: str) -> dict:
    from tracing import LAYER_METRICS, TimedPrior, Tracer

    spec = {m["name"]: m["unit"] for m in _load_benchmark_spec()["per_layer"]}
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup(args.seed, workdir)
    finally:
        tracer.uninstall()
    warm = Phase()
    _attempt(wl, 0, warm, None, timed=False)
    half = args.seconds / 2.0
    plain = _closed_loop(wl, 0, half)
    untraced_prior = wl.prior
    tracer.install()
    wl.tracer, wl.prior = tracer, TimedPrior(untraced_prior, tracer)
    try:
        traced = _closed_loop(wl, len(plain.latencies), half, tracer)
    finally:
        tracer.uninstall()
        wl.tracer, wl.prior = None, untraced_prior
    traced_cps = traced.cubes_per_s()
    ratio = plain.cubes_per_s() / traced_cps if traced_cps > 0 else 0.0
    layers = tracer.layer_metrics(ratio)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
    tracer.dump(trace_path)
    print(f"# trace spans={len(tracer.spans)} file={os.path.relpath(trace_path, ROOT)}")
    print(
        f"# trace untraced_ops={len(plain.latencies)} traced_ops={len(traced.latencies)}"
    )
    for name, (value, calls) in layers.items():
        suffix = "" if calls is None else f" calls={calls}"
        print(f"# layer {name} {value!r} {LAYER_METRICS[name]}{suffix}")
    attempted = warm.attempted + plain.attempted + traced.attempted
    failed = warm.failed + plain.failed + traced.failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(layers[name][0], unit) for name, unit in spec.items()},
    }


def run_one(args) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](tiny=args.scale == "tiny")
    env = _environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    info = wl.info()
    if isinstance(env["l2_bytes"], int):
        info["array_vs_l2"] = f"{info['array_bytes'] / env['l2_bytes']:.2f}x"
    print(f"# workload {wl.name} loop=closed clients=1 seed={args.seed} seconds={args.seconds} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        if args.trace:
            return traced_run(wl, args, workdir)
        return measured_run(wl, args, workdir)
    finally:
        wl.close()
        os.rmdir(workdir)


def run_all(args) -> dict:
    """Each workload in a fresh process, so memory peaks and caches stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks every geometry for the smoke test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "cassi", "__init__.py")):
        print(f"error: no cassi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cassi

    if os.path.dirname(os.path.dirname(os.path.abspath(cassi.__file__))) != SRC:
        print(f"error: imported cassi from {cassi.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

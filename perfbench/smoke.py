#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

Runs every workload once measured and once traced with ``--scale tiny``
and checks that:

* the last line is the result object, with ``failed`` 0 and ``correct`` true;
* it holds every end-to-end (measured) or per-layer (traced) metric of
  ``BENCHMARK.json``, with its unit;
* the ``#`` lines print all eight end-to-end metrics, including
  ``op_latency_tail_s`` and ``error_rate`` (which must be 0), and every
  per-layer metric;
* a directory holding only ``BENCHMARK.json`` and the benchmark exits
  nonzero without printing a result.

Usage, from the root of a source checkout: ``python3 perfbench/smoke.py``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT, WORKLOAD_NAMES  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

# Units as the "# metric" lines print them.
PRINTED_METRICS = {
    "setup_s": "s",
    "cubes_per_s": "cubes/s",
    "op_latency_p50_s": "s",
    "op_latency_tail_s": "s",
    "psnr_db": "dB",
    "ssim": "1",
    "peak_rss_mib": "MiB",
    "error_rate": "1",
}


def _run(argv: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=600,
    )


def _check_result(lines: list[str], wanted: dict[str, str]) -> list[str]:
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"failed={result.get('failed')} correct={result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(wanted):
        problems.append(f"metrics {sorted(set(metrics) ^ set(wanted))} missing or extra")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: {entry}")
    return problems


def _check_lines(lines: list[str], prefix: str, wanted: dict[str, str]) -> list[str]:
    problems = []
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[:2] == ["#", prefix]:
            printed[parts[2]] = parts[3:]
    for name, unit in wanted.items():
        if name not in printed or printed[name][1] != unit:
            problems.append(f"'# {prefix} {name} … {unit}' not printed")
    if prefix == "metric" and "error_rate" in printed and float(printed["error_rate"][0]) != 0.0:
        problems.append(f"error_rate {printed['error_rate'][0]}")
    return problems


def _check_bare_directory() -> list[str]:
    """Without the package sources the benchmark must refuse to run."""
    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(["perfbench/run.py", "--workload", "paper_rnd", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], bare)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            return [f"bare directory: exit {proc.returncode}, output {lines[-1:]}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in WORKLOAD_NAMES:
        for trace, wanted, prefix, printed in (
            (0, end_to_end, "metric", PRINTED_METRICS),
            (1, per_layer, "layer", LAYER_METRICS),
        ):
            proc = _run(["perfbench/run.py", "--workload", workload, "--seed", "0",
                         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"], ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                problems = _check_result(lines, wanted) + _check_lines(lines, prefix, printed)
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
    bare = _check_bare_directory()
    failures += bare
    print(f"bare directory: {'ok' if not bare else 'FAILED'}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

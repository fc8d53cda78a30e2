import os
import subprocess
import sys
import types

import cassi

from conftest import load_script

# Every public name the package exports, modules aside.  A name added for
# tests alone, or removed by accident, shows up here.
PUBLIC_NAMES = [
    "CassiError",
    "CodedAperture",
    "ConfigFileError",
    "CropTooLarge",
    "CubeFileError",
    "DimensionMismatch",
    "HSICube",
    "InitStrategy",
    "InstanceTooLarge",
    "MaskDegenerate",
    "Measurement",
    "MetricReport",
    "NegativeMeasurement",
    "NoiseSpec",
    "NonFiniteValue",
    "NumericalFailure",
    "Prior",
    "SceneConfig",
    "SensingOperator",
    "SolveStats",
    "SolverConfig",
    "TvPrior",
    "add_shot_noise",
    "build_operator",
    "bundled_suite",
    "crop_mask",
    "evaluate",
    "gap_solve_with_stats",
    "gen_mask",
    "gen_scene",
    "psnr_bands",
    "read_cube",
    "repair_mask",
    "rnd_reconstruct",
    "ssim_bands",
    "write_cube",
    "write_pgm",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(cassi)
        if not name.startswith("_")
        and not isinstance(getattr(cassi, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


SCIPY_FREE_RUN = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import cassi

small = cassi.SceneConfig(8, 8, 2, 1)
a = cassi.HSICube(small, np.full((2, 8, 8), 0.25))
b = cassi.HSICube(small, np.full((2, 8, 8), 0.5))
assert list(cassi.psnr_bands(a, b)) == [12.041199826559248] * 2

config = cassi.SceneConfig(12, 12, 2, 1)
ref = cassi.gen_scene(config, 4, seed=1)
test = cassi.gen_scene(config, 4, seed=2)
assert tuple(cassi.ssim_bands(ref, test)) == cassi.evaluate(ref, test).per_band_ssim
assert [m for m in sys.modules if m.startswith("scipy")] == ["scipy"]
print("ok")
"""


def test_runs_without_scipy():
    # numpy is the only run-time dependency.
    src = os.path.dirname(os.path.dirname(cassi.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_import_leaves_out_concurrent_futures():
    # The band kernels start plain threads; no executor module is loaded.
    src = os.path.dirname(os.path.dirname(cassi.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cassi; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_benchmark_shims_find_and_restore_their_targets():
    # The traced benchmark run swaps library attributes (such as
    # cli.evaluate and metrics.psnr_bands) for timing shims; a rename in
    # the library breaks that run, and shows here first.
    tracer = load_script("tracing", "perfbench").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_benchmark_workloads_pass_their_own_checks(tmp_path):
    # The benchmark drives the library in process: it reads cli.main's exit
    # codes and each batch report's residual_inf_rel, and passes x0 to the
    # solver.  One tiny operation of each workload shows a break here first.
    workloads = load_script("workloads", "perfbench")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(tiny=True)
        try:
            workload.setup(seed=1, workdir=str(tmp_path))
            assert workload.check(0, workload.op_run(0)) == [], name
        finally:
            workload.close()

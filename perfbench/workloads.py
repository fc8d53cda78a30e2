"""The three benchmark workloads.

Each workload builds its inputs from the run seed in :meth:`setup`, runs one
closed-loop operation per :meth:`op_run` call, and checks every output in
:meth:`check`.  Library calls go through module attributes (``recon.…``,
``metrics.…``) so the traced run's shims see them; the measured run calls
the same attributes unwrapped.

Scenes are fixed content, like a test dataset.  The seed draws the coded
aperture and the shot noise (``paper_rnd``, ``cli_pinv_batch``) or the
operation order over the bundled suite (``suite_small``).  Scene content moves
PSNR by about 7 % between random scenes (quartile spread over ten seeds at
256x256x28), which would swamp any numerics change; mask and noise move it
by under 1 %.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from cassi import cli, cubefile, metrics, operator, recon, simulate
from cassi.core import HSICube, Measurement, SceneConfig

# RND outputs must reproduce the measurement to this relative max-norm.
RND_RESIDUAL_TOL = 1e-10
# A CLI reconstruction must read back equal to op.pinv within this.
PINV_READBACK_TOL = 1e-12

SCENE_SEED = 230509746
SCENE_COMPLEXITY = 24
SHOT_BITS = 11
TV_WEIGHT = 0.1
TV_ITERS = 20


def _seeds(seed: int, n: int) -> list[int]:
    """``n`` distinct non-negative stream seeds derived from the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _rel_max(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / (scale if scale > 0 else 1.0)


def _read_hsic(path: str) -> np.ndarray:
    """Independent reader for the 20-byte-header cube format, (C, H, W)."""
    header = np.fromfile(path, dtype="<u4", count=5)
    if header[0] != int.from_bytes(b"HSIC", "little") or (header[1] & 0xFFFF) != 1:
        raise ValueError(f"{path}: bad header")
    dtype = {0: "<f4", 1: "<f8"}[(int(header[1]) >> 16) & 0xFF]
    h, w, c = (int(v) for v in header[2:5])
    return np.fromfile(path, dtype=dtype, offset=20).reshape(c, h, w).astype(np.float64)


def _problems_rnd(op, meas: Measurement, x) -> list[str]:
    """Finite, correctly shaped and reproducing the measurement."""
    h, w, nc, _ = op.config.geometry
    if x.data.shape != (nc, h, w) or not np.isfinite(x.data).all():
        return [f"output shape {x.data.shape} or values invalid"]
    rel = _rel_max(op.forward(x).data, meas.data)
    if rel > RND_RESIDUAL_TOL:
        return [f"rnd residual {rel:.3e} > {RND_RESIDUAL_TOL:.0e}"]
    return []


class Workload:
    """Shared bookkeeping: quality per input key, first result wins.

    A repeated input must give bit-identical quality, so every operation
    after the first one on a key is also a determinism check.
    """

    name = ""
    cubes_per_op = 1
    pass_ops = 1
    setup_batch = 1

    def __init__(self):
        self.quality_keys: list = []
        self.tracer = None
        self.prior = recon.TvPrior(TV_ITERS)
        self.quality_by_key: dict = {}

    def _record_quality(self, key, report) -> list[str]:
        value = (report.psnr_db, report.ssim)
        first = self.quality_by_key.setdefault(key, value)
        if first != value:
            return [f"input {key}: quality {value} differs from first run {first}"]
        return []

    def quality(self) -> tuple[float, float, list[str]]:
        """Mean PSNR and SSIM over the workload's fixed input set."""
        missing = [k for k in self.quality_keys if k not in self.quality_by_key]
        if missing:
            return float("nan"), float("nan"), [f"no result for inputs {missing[:5]}"]
        values = [self.quality_by_key[k] for k in self.quality_keys]
        return (
            float(np.mean([v[0] for v in values])),
            float(np.mean([v[1] for v in values])),
            [],
        )

    def close(self) -> None:
        pass


class PaperRnd(Workload):
    """Paper geometry: pinv-started GAP-TV, RND wrapper, full evaluation."""

    name = "paper_rnd"
    setup_batch = 8

    def __init__(self, tiny: bool):
        super().__init__()
        self.config = SceneConfig(32, 32, 8, 2) if tiny else SceneConfig(256, 256, 28, 2)
        self.solver = recon.SolverConfig(iterations=2 if tiny else 4, tv_weight=TV_WEIGHT)
        self.quality_keys = [0]

    def info(self) -> dict:
        h, w, nc, d = self.config.geometry
        return {
            "geometry": f"{h}x{w}x{nc} d={d}",
            "gap_iterations": self.solver.iterations,
            "tv_iterations": TV_ITERS,
            "shot_bits": SHOT_BITS,
            "array_bytes": nc * h * w * 8,
        }

    def setup(self, seed: int, workdir: str) -> None:
        h, w, _, _ = self.config.geometry
        mask_seed, noise_seed = _seeds(seed, 2)
        mask = simulate.repair_mask(simulate.gen_mask(h, w, 0.5, mask_seed), self.config)
        self.op = operator.build_operator(mask, self.config)
        self.scene = simulate.gen_scene(self.config, SCENE_COMPLEXITY, SCENE_SEED)
        clean = self.op.forward(self.scene)
        self.meas = simulate.add_shot_noise(clean, simulate.NoiseSpec(SHOT_BITS, noise_seed))

    def op_run(self, k: int):
        # The library's roll init needs tens of iterations at 28 bands; from
        # the minimum-norm solution four iterations already beat pinv.
        x0 = self.op.pinv(self.meas)
        q, stats = recon.gap_solve_with_stats(self.op, self.meas, self.prior, self.solver, x0=x0)
        x = self.op.rnd_combine(self.meas, q)
        return x, stats, metrics.evaluate(self.scene, x)

    def check(self, k: int, result) -> list[str]:
        x, stats, report = result
        problems = _problems_rnd(self.op, self.meas, x)
        if stats.iterations_run != self.solver.iterations:
            problems.append(f"ran {stats.iterations_run} iterations")
        return problems + self._record_quality(0, report)


class SuiteSmall(Workload):
    """The bundled 32x32x8 suite through all 12 ablation cells."""

    name = "suite_small"
    setup_batch = 100

    def __init__(self, tiny: bool):
        super().__init__()
        self.n_scenes = 2 if tiny else 10
        self.iterations = 2 if tiny else 30
        self.cells = [
            (crop, init, wrapper)
            for crop in (False, True)
            for init in recon.InitStrategy
            for wrapper in (False, True)
        ]
        self.quality_keys = [
            (cell, scene) for cell in range(len(self.cells)) for scene in range(self.n_scenes)
        ]
        # Cells differ in cost, so runs time whole passes over the grid.
        self.pass_ops = len(self.quality_keys)

    def info(self) -> dict:
        return {
            "geometry": "32x32x8 d=2",
            "gap_iterations": self.iterations,
            "tv_iterations": TV_ITERS,
            "cells": len(self.cells),
            "scenes": self.n_scenes,
            "array_bytes": 8 * 32 * 32 * 8,
        }

    def setup(self, seed: int, workdir: str) -> None:
        config, mask, self.scenes = simulate.bundled_suite(self.n_scenes)
        self.op = operator.build_operator(mask, config)
        self.meas = [self.op.forward(s) for s in self.scenes]
        self.solvers = [
            recon.SolverConfig(
                iterations=self.iterations,
                tv_weight=TV_WEIGHT,
                init=init,
                crop_denoiser_input=crop,
            )
            for crop, init, _ in self.cells
        ]
        rng = np.random.Generator(np.random.Philox(_seeds(seed, 1)[0]))
        self.order = [self.quality_keys[i] for i in rng.permutation(len(self.quality_keys))]

    def op_run(self, k: int):
        cell, scene = self.order[k % len(self.order)]
        meas = self.meas[scene]
        q, stats = recon.gap_solve_with_stats(self.op, meas, self.prior, self.solvers[cell])
        x = self.op.rnd_combine(meas, q) if self.cells[cell][2] else q
        return x, stats, metrics.evaluate(self.scenes[scene], x)

    def check(self, k: int, result) -> list[str]:
        cell, scene = self.order[k % len(self.order)]
        x, stats, report = result
        if self.cells[cell][2]:
            problems = _problems_rnd(self.op, self.meas[scene], x)
        elif x.data.shape != self.scenes[scene].data.shape or not np.isfinite(x.data).all():
            problems = ["output shape or values invalid"]
        else:
            problems = []
        if stats.iterations_run != self.iterations:
            problems.append(f"ran {stats.iterations_run} iterations")
        return problems + self._record_quality((cell, scene), report)


class CliPinvBatch(Workload):
    """``cassi simulate`` for N files, then one ``reconstruct --method pinv`` batch."""

    name = "cli_pinv_batch"
    n_files = 2
    setup_batch = 3

    def __init__(self, tiny: bool):
        super().__init__()
        self.config = SceneConfig(32, 32, 8, 2) if tiny else SceneConfig(256, 256, 28, 2)
        self.cubes_per_op = self.n_files
        self.quality_keys = list(range(self.n_files))
        self.workdir = None

    def info(self) -> dict:
        h, w, nc, d = self.config.geometry
        return {
            "geometry": f"{h}x{w}x{nc} d={d}",
            "files_per_round": self.n_files,
            "shot_bits": SHOT_BITS,
            "cassi_threads": os.environ.get("CASSI_THREADS"),
            "array_bytes": nc * h * w * 8,
        }

    def setup(self, seed: int, workdir: str) -> None:
        self.close()
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.out_dir = os.path.join(self.workdir, "out")
        self.report_dir = os.path.join(self.workdir, "reports")
        os.makedirs(self.out_dir)
        os.makedirs(self.report_dir)
        files = range(self.n_files)
        self.cube_paths = [os.path.join(self.workdir, f"cube{i}.hsic") for i in files]
        self.meas_paths = [os.path.join(self.workdir, f"meas{i}.hsic") for i in files]
        self.recon_paths = [os.path.join(self.out_dir, f"meas{i}.recon.hsic") for i in files]
        self.report_paths = [os.path.join(self.report_dir, f"meas{i}.report.txt") for i in files]
        h, w, _, _ = self.config.geometry
        mask_seed, *noise = _seeds(seed, 1 + self.n_files)
        self.noise_seeds = noise
        mask = simulate.repair_mask(simulate.gen_mask(h, w, 0.5, mask_seed), self.config)
        self.mask_path = os.path.join(self.workdir, "mask.hsic")
        cubefile.write_cube(self.mask_path, mask.data)
        self.op = operator.build_operator(mask, self.config)
        self.scenes, self.expected_meas = [], []
        for i in range(self.n_files):
            scene = simulate.gen_scene(self.config, SCENE_COMPLEXITY, SCENE_SEED + i)
            cubefile.write_cube(self.cube_paths[i], scene.data)
            clean = self.op.forward(scene)
            spec = simulate.NoiseSpec(SHOT_BITS, noise[i])
            self.expected_meas.append(simulate.add_shot_noise(clean, spec).data)
            self.scenes.append(scene)

    def _cli(self, argv: list[str]) -> int:
        if self.tracer is None:
            return cli.main(argv)
        with self.tracer.span("cli." + argv[0]):
            return cli.main(argv)

    def op_run(self, k: int):
        d = str(self.config.shift_step)
        codes = []
        for i in range(self.n_files):
            codes.append(
                self._cli(
                    ["simulate", "--cube", self.cube_paths[i], "--mask", self.mask_path,
                     "--shift-step", d, "--shot-noise-bits", str(SHOT_BITS),
                     "--seed", str(self.noise_seeds[i]), "--out", self.meas_paths[i]]
                )
            )
        codes.append(
            self._cli(
                ["reconstruct", "--meas", *self.meas_paths,
                 "--mask", self.mask_path, "--shift-step", d, "--method", "pinv",
                 "--out", self.out_dir,
                 "--report", self.report_dir]
            )
        )
        return codes

    def check(self, k: int, codes) -> list[str]:
        if any(codes):
            return [f"exit codes {codes}"]
        problems = []
        nc, h, w = self.config.bands, self.config.height, self.config.width
        for i in range(self.n_files):
            meas = _read_hsic(self.meas_paths[i])[0]
            if _rel_max(meas, self.expected_meas[i]) > PINV_READBACK_TOL:
                problems.append(f"file {i}: simulated measurement differs")
            x = _read_hsic(self.recon_paths[i])
            if x.shape != (nc, h, w) or not np.isfinite(x).all():
                problems.append(f"file {i}: reconstruction shape {x.shape} or values invalid")
                continue
            ref = self.op.pinv(Measurement(self.config, meas)).data
            if _rel_max(x, ref) > PINV_READBACK_TOL:
                problems.append(f"file {i}: reconstruction differs from op.pinv")
            with open(self.report_paths[i], encoding="utf-8") as fh:
                report = dict(line.split(" ", 1) for line in fh.read().splitlines())
            if not float(report["residual_inf_rel"]) <= RND_RESIDUAL_TOL:
                problems.append(f"file {i}: residual_inf_rel {report['residual_inf_rel']}")
        return problems

    def quality(self) -> tuple[float, float, list[str]]:
        """Evaluate the last round's files; every round writes the same bytes."""
        for i in range(self.n_files):
            x = HSICube(self.config, _read_hsic(self.recon_paths[i]))
            self._record_quality(i, metrics.evaluate(self.scenes[i], x))
        return super().quality()

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


WORKLOADS = {cls.name: cls for cls in (PaperRnd, SuiteSmall, CliPinvBatch)}

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 2 and 3 exercise the full 256x256x28 (d = 2) geometry.
"""

import json
import os
import time

import numpy as np
import pytest

from cassi import (
    HSICube,
    InitStrategy,
    Measurement,
    NoiseSpec,
    SceneConfig,
    SolverConfig,
    TvPrior,
    add_shot_noise,
    build_operator,
    bundled_suite,
    gen_mask,
    gen_scene,
    psnr,
    repair_mask,
    rnd_reconstruct,
)
from cassi.cli import main as cli_main
from cassi.cubefile import read_cube, write_cube
from cassi.dense import build_dense, cube_to_vec, dense_pinv, meas_to_vec

from conftest import load_script, rel_err

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "data", "perf_baseline.json")

_PAPER_SCALE = SceneConfig(256, 256, 28, 2)


def _paper_scale_operator():
    mask = repair_mask(gen_mask(256, 256, 0.5, seed=2024), _PAPER_SCALE)
    return build_operator(mask, _PAPER_SCALE)


def _report(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS - {detail}")


def test_criterion_1_oracle_equivalence_on_random_instances():
    rng = np.random.Generator(np.random.Philox(101))
    started = time.perf_counter()
    worst = 0.0
    n_instances = 100
    for k in range(n_instances):
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        c = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        config = SceneConfig(h, w, c, d)
        mask = repair_mask(gen_mask(h, w, 0.7, seed=k), config)
        op = build_operator(mask, config)
        dense = build_dense(op)
        dpinv = dense_pinv(dense)
        x = HSICube(config, rng.random((c, h, w)))
        q = HSICube(config, rng.random((c, h, w)))
        y = Measurement(config, rng.random((h, config.measurement_width())))
        xv, qv, yv = cube_to_vec(x), cube_to_vec(q), meas_to_vec(y)
        checks = [
            (meas_to_vec(op.forward(x)), dense @ xv),
            (cube_to_vec(op.adjoint(y)), dense.T @ yv),
            (cube_to_vec(op.pinv(y)), dpinv @ yv),
            (cube_to_vec(op.range_project(x)), dpinv @ (dense @ xv)),
            (cube_to_vec(op.null_project(x)), xv - dpinv @ (dense @ xv)),
            (
                cube_to_vec(op.rnd_combine(y, q)),
                dpinv @ yv + qv - dpinv @ (dense @ qv),
            ),
        ]
        worst = max(worst, max(rel_err(a, b) for a, b in checks))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 30.0
    _report(
        1,
        f"{n_instances} instances, worst relative error {worst:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_2_decomposition_identities_at_paper_scale():
    started = time.perf_counter()
    op = _paper_scale_operator()
    rng = np.random.Generator(np.random.Philox(202))
    h, w, nc, _ = _PAPER_SCALE.geometry

    truth = HSICube._adopt(_PAPER_SCALE, rng.random((nc, h, w)))
    y = op.forward(truth)
    y_inf = np.abs(y.data).max()

    # (a) data consistency for ten random candidates
    worst_residual = 0.0
    for _ in range(10):
        q = HSICube._adopt(_PAPER_SCALE, rng.random((nc, h, w)))
        out = op.rnd_combine(y, q)
        residual = np.abs(op.forward(out).data - y.data).max()
        worst_residual = max(worst_residual, residual / y_inf)
    assert worst_residual <= 1e-8

    # (b) projector idempotence and mutual orthogonality
    v = HSICube._adopt(_PAPER_SCALE, rng.random((nc, h, w)))
    r = op.range_project(v)
    n = op.null_project(v)
    idem_r = rel_err(op.range_project(r).data, r.data)
    idem_n = rel_err(op.null_project(n).data, n.data)
    assert idem_r <= 1e-10
    assert idem_n <= 1e-10
    w_cube = HSICube._adopt(_PAPER_SCALE, rng.random((nc, h, w)))
    inner = float(np.sum(op.range_project(v).data * op.null_project(w_cube).data))
    assert abs(inner) <= 1e-10 * np.linalg.norm(v.data) * np.linalg.norm(
        w_cube.data
    )

    # (c) perturbing the candidate by any range-space component is invisible
    q = HSICube._adopt(_PAPER_SCALE, rng.random((nc, h, w)))
    t = HSICube._adopt(_PAPER_SCALE, rng.random((nc, h, w)))
    for k in (-3.0, 0.5, 42.0):
        q_shift = HSICube._adopt(
            _PAPER_SCALE, q.data + k * op.range_project(t).data
        )
        drift = rel_err(
            op.rnd_combine(y, q_shift).data, op.rnd_combine(y, q).data
        )
        assert drift <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        2,
        f"residual {worst_residual:.2e}, projector drift "
        f"{max(idem_r, idem_n):.2e}, {elapsed:.1f} s",
    )


def test_criterion_3_memory_and_latency_at_paper_scale():
    op = _paper_scale_operator()
    op_bytes = op.nbytes()
    assert op_bytes <= 64 * 2**20

    rng = np.random.Generator(np.random.Philox(303))
    h, w, nc, _ = _PAPER_SCALE.geometry
    cube = HSICube._adopt(_PAPER_SCALE, rng.random((nc, h, w)))
    y = op.forward(cube)
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        op.pinv(y)
        times.append((time.perf_counter() - t0) * 1e3)
    times.sort()
    median_ms = times[len(times) // 2]
    assert median_ms <= 50.0

    # Regression bound: the first green run freezes a baseline; later runs
    # must stay within a generous multiple of it.
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        assert median_ms <= 5.0 * baseline["pinv_median_ms"]
    else:
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump({"pinv_median_ms": median_ms}, fh)
    _report(
        3,
        f"operator {op_bytes / 2**20:.1f} MiB (dense would need hundreds of GB), "
        f"pinv median {median_ms:.2f} ms",
    )


class _TruthPrior:
    def __init__(self, truth):
        self.truth = truth

    def denoise(self, cube, strength):
        return self.truth


def test_criterion_4_exact_recovery_with_oracle_prior():
    config, mask, scenes = bundled_suite()
    op = build_operator(mask, config)
    cfg = SolverConfig(iterations=2)
    values = []
    for scene in scenes:
        y = op.forward(scene)
        out = rnd_reconstruct(op, y, _TruthPrior(scene), cfg)
        values.append(psnr(scene, out))
    worst = min(values)
    assert worst >= 90.0
    _report(4, f"10 scenes, worst oracle-prior PSNR {worst:.1f} dB")


@pytest.fixture(scope="module")
def ablation():
    """The bundled suite, its operator, and the ablation script's grid and
    per-scene iterates, solved once for criteria 5 and 6."""
    config, mask, scenes = bundled_suite()
    op = build_operator(mask, config)
    cells, iterates = load_script("run_ablation").ablation_grid(op, scenes)
    return config, mask, scenes, op, cells, iterates


def test_criterion_5_prior_beats_pinv_and_wrapper_fixes_residual(ablation):
    _, _, scenes, op, _, iterates = ablation
    # The grid's default cell, crop on and roll init, is the default
    # solver with TvPrior(20): criterion 6 already solved each scene.
    assert SolverConfig() == SolverConfig(
        iterations=60, tv_weight=0.1, init=InitStrategy.ROLL,
        crop_denoiser_input=True,
    )
    pinv_psnr, rnd_psnr = [], []
    ratios = []
    for scene, q in zip(scenes, iterates[(True, "roll")], strict=True):
        y = op.forward(scene)
        y_inf = np.abs(y.data).max()
        xp = op.pinv(y)
        xr = op.rnd_combine(y, q)
        pinv_psnr.append(psnr(scene, xp))
        rnd_psnr.append(psnr(scene, xr))
        raw_residual = np.abs(op.forward(q).data - y.data).max()
        rnd_residual = np.abs(op.forward(xr).data - y.data).max()
        assert rnd_residual < raw_residual  # wrapper never hurts consistency
        assert rnd_residual <= 1e-8 * y_inf
        ratios.append(raw_residual / max(rnd_residual, 1e-300))
    gain = float(np.mean(rnd_psnr) - np.mean(pinv_psnr))
    min_ratio = min(ratios)
    assert gain >= 1.0
    assert min_ratio >= 10.0
    _report(
        5,
        f"mean PSNR gain over pinv {gain:.2f} dB, residual improvement "
        f">= {min_ratio:.1e}x",
    )


def test_criterion_6_ablation_grid_structure(ablation, tmp_path):
    config, mask, scenes, op, cells, _ = ablation
    h, w, nc, d = config.geometry
    wp = config.measurement_width()

    # The script's grid: one solve per (crop, init, scene), scored with and
    # without the wrapper.
    grid = {key: psnr_db for key, (psnr_db, _, _) in cells.items()}
    pixel_counts = {crop: pixels for (crop, _, _), (_, _, pixels) in cells.items()}

    for key in sorted(grid):
        print(f"  ablation crop={key[0]!s:5} init={key[1]:6} rnd={key[2]!s:5}"
              f" psnr={grid[key]:.3f}")

    # Direction check at the default configuration (crop + wrapper on):
    # cyclic initialization must not lose to zero-padded shifting.
    assert grid[(True, "roll", True)] >= grid[(True, "shift", True)]

    # The crop changes the per-iteration denoised-pixel count by exactly
    # W / W'.
    assert pixel_counts[True] * wp == pixel_counts[False] * w

    # The CLI exposes the same grid: reproduce two cells through it and
    # confirm the reported pixel counts give the same exact ratio.
    meas_path = tmp_path / "meas.hsic"
    mask_path = tmp_path / "mask.hsic"
    write_cube(meas_path, op.forward(scenes[0]).data)
    write_cube(mask_path, mask.data)
    reported = {}
    for name, flags in (("crop", ()), ("nocrop", ("--no-crop",))):
        report = tmp_path / f"{name}.txt"
        code = cli_main([
            "reconstruct", "--meas", str(meas_path), "--mask", str(mask_path),
            "--shift-step", "2", "--method", "rnd-gap-tv", "--iters", "3",
            "--init", "roll", *flags,
            "--out", str(tmp_path / f"{name}.hsic"), "--report", str(report),
        ])
        assert code == 0
        values = dict(
            line.split(" ", 1) for line in report.read_text().splitlines()
        )
        reported[name] = int(values["denoised_pixels_per_iteration"])
    assert reported["crop"] == nc * h * w
    assert reported["nocrop"] == nc * h * wp
    _report(
        6,
        f"12-cell grid done; roll {grid[(True, 'roll', True)]:.2f} dB >= "
        f"shift {grid[(True, 'shift', True)]:.2f} dB; crop pixel ratio "
        f"{w}/{wp}",
    )


def test_criterion_7_mask_crop_robustness():
    means = load_script("run_mask_robustness").crop_means(crops=3)
    spread = float(np.std(means))
    assert spread <= 1.0
    _report(
        7,
        "crop means "
        + ", ".join(f"{m:.2f}" for m in means)
        + f" dB; std {spread:.3f} dB",
    )


def test_criterion_8_shot_noise_mean_and_monotonic_quality():
    # Monte Carlo mean preservation on one pixel over 10k draws.
    pixel_cfg = SceneConfig(1, 1, 1, 1)
    meas = Measurement(pixel_cfg, np.array([[0.8]]))
    total = 0.0
    n = 10_000
    for seed in range(n):
        total += add_shot_noise(meas, NoiseSpec(shot_bits=11, seed=seed)).data[0, 0]
    mean_err = abs(total / n - 0.8) / 0.8
    assert mean_err <= 0.01

    # Reconstruction quality must degrade monotonically from 14 to 8 bits.
    config, mask, scenes = bundled_suite()
    op = build_operator(mask, config)
    prior = TvPrior(20)
    cfg = SolverConfig()
    by_bits = []
    for bits in (14, 12, 10, 8):
        values = []
        for i, scene in enumerate(scenes[:3]):
            noisy = add_shot_noise(
                op.forward(scene), NoiseSpec(shot_bits=bits, seed=500 + i)
            )
            values.append(psnr(scene, rnd_reconstruct(op, noisy, prior, cfg)))
        by_bits.append(float(np.mean(values)))
    assert all(by_bits[i] > by_bits[i + 1] for i in range(len(by_bits) - 1))
    _report(
        8,
        f"MC mean error {mean_err * 100:.2f}%; PSNR by bits (14,12,10,8) = "
        + ", ".join(f"{v:.2f}" for v in by_bits),
    )


def test_criterion_9_format_roundtrip_and_command_determinism(tmp_path):
    # CubeFile round-trip bit-exactness for both payload dtypes.
    rng = np.random.Generator(np.random.Philox(909))
    data = rng.random((3, 5, 7))
    for dtype in ("f32", "f64"):
        first = tmp_path / f"a_{dtype}.hsic"
        second = tmp_path / f"b_{dtype}.hsic"
        write_cube(first, data, dtype=dtype)
        back, stored = read_cube(first)
        assert stored == dtype
        write_cube(second, back, dtype=stored)
        assert first.read_bytes() == second.read_bytes()

    # Byte-determinism of the seeded command pipeline, run twice.
    def run_pipeline(tag: str) -> list[bytes]:
        base = tmp_path / tag
        base.mkdir()
        mask_path = base / "mask.hsic"
        cube_path = base / "scene.hsic"
        meas_path = base / "meas.hsic"
        recon_path = base / "recon.hsic"
        report_path = base / "report.txt"
        scene = gen_scene(SceneConfig(32, 32, 8, 2), 6, seed=1000)
        write_cube(cube_path, scene.data)
        assert cli_main([
            "mask", "gen", "--height", "32", "--width", "32",
            "--density", "0.5", "--seed", "42",
            "--full-rank-bands", "8", "--full-rank-step", "2",
            "--out", str(mask_path),
        ]) == 0
        assert cli_main([
            "simulate", "--cube", str(cube_path), "--mask", str(mask_path),
            "--shift-step", "2", "--shot-noise-bits", "11", "--seed", "7",
            "--out", str(meas_path),
        ]) == 0
        assert cli_main([
            "reconstruct", "--meas", str(meas_path), "--mask", str(mask_path),
            "--shift-step", "2", "--method", "rnd-gap-tv", "--iters", "10",
            "--out", str(recon_path), "--report", str(report_path),
        ]) == 0
        # Drop run-identity lines: the two runs use different directories
        # and wall time is not part of the numerical contract.
        skip = ("wall_time_s", "input ", "output ")
        report = b"".join(
            line.encode() + b"\n"
            for line in report_path.read_text().splitlines()
            if not line.startswith(skip)
        )
        return [
            mask_path.read_bytes(),
            meas_path.read_bytes(),
            recon_path.read_bytes(),
            report,
        ]

    assert run_pipeline("first") == run_pipeline("second")
    _report(9, "round-trips bit-exact; seeded pipeline byte-identical twice")

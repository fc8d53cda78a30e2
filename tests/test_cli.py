import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cassi import (
    CodedAperture,
    InitStrategy,
    Measurement,
    SceneConfig,
    SolverConfig,
    TvPrior,
    build_operator,
    bundled_suite,
    gap_solve_with_stats,
    gen_scene,
)
from cassi import _pool, cli
from cassi.cli import main, parse_run_config
from cassi.cubefile import read_cube, write_cube
from cassi.errors import ConfigFileError

from conftest import traced_peak


def run_cli(*argv):
    return main([str(a) for a in argv])


@dataclasses.dataclass(frozen=True)
class _OtherSolverConfig(SolverConfig):
    iterations: int = 3
    tv_weight: float = 0.25
    init: InitStrategy = InitStrategy.SHIFT
    crop_denoiser_input: bool = False
    convergence_tol: float = 0.001


@dataclasses.dataclass(frozen=True)
class _OtherTvPrior(TvPrior):
    inner_iterations: int = 7


@pytest.fixture
def worked_example(tmp_path):
    """The 2x2x2 all-ones instance with the hand-computed measurement."""
    cube = np.array([[[1.0, 2], [3, 4]], [[5.0, 6], [7, 8]]])
    cube_path = tmp_path / "cube.hsic"
    mask_path = tmp_path / "mask.hsic"
    write_cube(cube_path, cube)
    write_cube(mask_path, np.ones((2, 2)))
    return cube_path, mask_path


class TestSimulate:
    def test_worked_example(self, tmp_path, worked_example):
        cube_path, mask_path = worked_example
        out = tmp_path / "meas.hsic"
        code = run_cli(
            "simulate", "--cube", cube_path, "--mask", mask_path,
            "--shift-step", 1, "--out", out,
        )
        assert code == 0
        meas, _ = read_cube(out)
        np.testing.assert_array_equal(meas[0], [[1, 7, 6], [3, 11, 8]])

    def test_zero_cube(self, tmp_path, worked_example):
        _, mask_path = worked_example
        zero_path = tmp_path / "zero.hsic"
        write_cube(zero_path, np.zeros((2, 2, 2)))
        out = tmp_path / "meas.hsic"
        assert run_cli(
            "simulate", "--cube", zero_path, "--mask", mask_path,
            "--shift-step", 1, "--out", out,
        ) == 0
        meas, _ = read_cube(out)
        assert not meas.any()

    def test_degenerate_mask_exits_3(self, tmp_path, worked_example, capsys):
        cube_path, _ = worked_example
        dead = tmp_path / "dead.hsic"
        write_cube(dead, np.array([[1.0, 0.0], [1.0, 1.0]]))
        out = tmp_path / "meas.hsic"
        code = run_cli(
            "simulate", "--cube", cube_path, "--mask", dead,
            "--shift-step", 1, "--out", out,
        )
        assert code == 3
        assert "no mask energy" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mask_too_faint_to_invert_exits_3(self, tmp_path, capsys):
        # The Gram diagonal is about 2e-320, whose reciprocal overflows.
        cube_path = tmp_path / "cube.hsic"
        mask_path = tmp_path / "faint.hsic"
        write_cube(cube_path, np.ones((2, 4, 4)))
        write_cube(mask_path, np.full((4, 4), 1e-160))
        code = run_cli(
            "simulate", "--cube", cube_path, "--mask", mask_path,
            "--shift-step", 1, "--out", tmp_path / "meas.hsic",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: detector pixel (0, 0) receives mask energy ")
        assert err.endswith(", too small to invert\n") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cube.hsic", "faint.hsic",
        ]

    def test_malformed_file_exits_2(self, tmp_path, worked_example, capsys):
        _, mask_path = worked_example
        bad = tmp_path / "bad.hsic"
        bad.write_bytes(b"garbage")
        code = run_cli(
            "simulate", "--cube", bad, "--mask", mask_path,
            "--shift-step", 1, "--out", tmp_path / "o.hsic",
        )
        assert code == 2
        assert "byte offset" in capsys.readouterr().err

    def test_non_finite_cube_exits_2(self, tmp_path, worked_example, capsys):
        _, mask_path = worked_example
        cube = np.ones((2, 2, 2))
        cube[1, 0, 1] = np.inf
        cube_path = tmp_path / "inf.hsic"
        write_cube(cube_path, cube)
        out = tmp_path / "meas.hsic"
        code = run_cli(
            "simulate", "--cube", cube_path, "--mask", mask_path,
            "--shift-step", 1, "--out", out,
        )
        assert code == 2
        assert "HSICube contains NaN or Inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_measurement_exits_2(self, tmp_path, capsys):
        # Every value is finite, but three bands of 1e308 sum past the
        # largest float64 on the detector.
        cube_path = tmp_path / "hot.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(cube_path, np.full((3, 4, 4), 1e308))
        write_cube(mask_path, np.ones((4, 4)))
        out = tmp_path / "meas.hsic"
        code = run_cli(
            "simulate", "--cube", cube_path, "--mask", mask_path,
            "--shift-step", 1, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: Measurement contains NaN or Inf\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hot.hsic", "mask.hsic",
        ]

    @pytest.mark.parametrize("text", ["inf", "nan", "1e400", "-inf", "0"])
    def test_bad_full_scale_exits_2(self, tmp_path, worked_example, capsys, text):
        cube_path, mask_path = worked_example
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shot_bits = 11\nfull_scale = {text}\n")
        out = tmp_path / "meas.hsic"
        code = run_cli(
            "simulate", "--cube", cube_path, "--mask", mask_path,
            "--shift-step", 1, "--config", cfg, "--out", out,
        )
        assert code == 2
        assert "full_scale must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_is_seed_deterministic(self, tmp_path, worked_example):
        cube_path, mask_path = worked_example
        a = tmp_path / "a.hsic"
        b = tmp_path / "b.hsic"
        for out in (a, b):
            assert run_cli(
                "simulate", "--cube", cube_path, "--mask", mask_path,
                "--shift-step", 1, "--shot-noise-bits", 11, "--seed", 3,
                "--out", out,
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestReconstruct:
    def make_measurement(self, tmp_path):
        config, mask, scenes = bundled_suite(n_scenes=1)
        op = build_operator(mask, config)
        meas = op.forward(scenes[0])
        meas_path = tmp_path / "meas.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(meas_path, meas.data)
        write_cube(mask_path, mask.data)
        return config, meas_path, mask_path, scenes[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mask_too_faint_to_invert_exits_3(self, tmp_path, capsys):
        meas_path = tmp_path / "meas.hsic"
        mask_path = tmp_path / "faint.hsic"
        write_cube(meas_path, np.ones((4, 5)))
        write_cube(mask_path, np.full((4, 4), 1e-160))
        out, report = tmp_path / "o.hsic", tmp_path / "o.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 1, "--method", "pinv", "--out", out,
            "--report", report,
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too small to invert" in err
        assert not out.exists() and not report.exists()

    def test_pinv_has_tiny_residual(self, tmp_path):
        config, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        out = tmp_path / "recon.hsic"
        report = tmp_path / "report.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", out,
            "--report", report,
        )
        assert code == 0
        values = dict(
            line.split(" ", 1) for line in report.read_text().splitlines()
        )
        assert float(values["residual_inf_rel"]) <= 1e-8
        recon, _ = read_cube(out)
        assert recon.shape == (config.bands, config.height, config.width)

    def test_rnd_gap_tv_residual_guarantee(self, tmp_path):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        out = tmp_path / "recon.hsic"
        report = tmp_path / "report.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "rnd-gap-tv", "--iters", 10,
            "--out", out, "--report", report,
        )
        assert code == 0
        values = dict(
            line.split(" ", 1) for line in report.read_text().splitlines()
        )
        assert float(values["residual_inf_rel"]) <= 1e-8
        assert values["method"] == "rnd-gap-tv"
        assert int(values["iterations_run"]) == 10

    def test_flags_change_flop_proxy(self, tmp_path):
        config, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        h, w, nc, d = config.geometry
        wp = config.measurement_width()
        seen = {}
        for flag, expected in (
            ((), nc * h * w),
            (("--no-crop",), nc * h * wp),
        ):
            report = tmp_path / f"report{len(flag)}.txt"
            code = run_cli(
                "reconstruct", "--meas", meas_path, "--mask", mask_path,
                "--shift-step", 2, "--method", "gap-tv", "--iters", 2,
                *flag, "--out", tmp_path / "r.hsic", "--report", report,
            )
            assert code == 0
            values = dict(
                line.split(" ", 1) for line in report.read_text().splitlines()
            )
            seen[flag] = int(values["denoised_pixels_per_iteration"])
            assert seen[flag] == expected

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tv_inner_iterations_reach_the_prior(self, tmp_path, source):
        config, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tv_inner_iterations = 1\n")
        one = ("--tv-iters", 1) if source == "flag" else ("--config", cfg)
        outputs, reports = {}, {}
        for name, extra in (("one", one), ("twenty", ("--tv-iters", 20))):
            out = tmp_path / f"{name}.hsic"
            report = tmp_path / f"{name}.txt"
            code = run_cli(
                "reconstruct", "--meas", meas_path, "--mask", mask_path,
                "--shift-step", 2, "--method", "gap-tv", "--iters", 3,
                *extra, "--out", out, "--report", report,
            )
            assert code == 0
            outputs[name] = read_cube(out)[0].tobytes()
            reports[name] = dict(
                line.split(" ", 1) for line in report.read_text().splitlines()
            )
        op = build_operator(
            CodedAperture(read_cube(mask_path)[0][0]), config
        )
        meas = Measurement(config, read_cube(meas_path)[0][0])
        x, _ = gap_solve_with_stats(
            op, meas, TvPrior(1), SolverConfig(iterations=3)
        )
        assert outputs["one"] == x.data.tobytes()
        assert outputs["one"] != outputs["twenty"]
        assert reports["one"]["tv_inner_iterations"] == "1"
        assert reports["twenty"]["tv_inner_iterations"] == "20"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_tv_inner_iterations_exits_2(self, tmp_path, capsys, source):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tv_inner_iterations = 0\n")
        zero = ("--tv-iters", 0) if source == "flag" else ("--config", cfg)
        out = tmp_path / "o.hsic"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "gap-tv", "--iters", 2,
            *zero, "--out", out,
        )
        assert code == 2
        assert "tv_inner_iterations" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "solver_cls,prior_cls",
        [(SolverConfig, TvPrior), (_OtherSolverConfig, _OtherTvPrior)],
    )
    def test_report_without_flags_shows_the_library_defaults(
        self, tmp_path, monkeypatch, solver_cls, prior_cls
    ):
        # The CLI passes on only what a flag or the config file gives, so
        # whatever defaults the library classes carry reach the report.
        monkeypatch.setattr(cli, "SolverConfig", solver_cls)
        monkeypatch.setattr(cli, "TvPrior", prior_cls)
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        report = tmp_path / "report.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", tmp_path / "o.hsic",
            "--report", report,
        )
        assert code == 0
        values = dict(
            line.split(" ", 1) for line in report.read_text().splitlines()
        )
        scfg, prior = solver_cls(), prior_cls()
        assert {
            key: values[key]
            for key in (
                "iterations", "tv_weight", "tv_inner_iterations", "init",
                "crop_denoiser_input", "convergence_tol",
            )
        } == {
            "iterations": str(scfg.iterations),
            "tv_weight": repr(scfg.tv_weight),
            "tv_inner_iterations": str(prior.inner_iterations),
            "init": scfg.init.value,
            "crop_denoiser_input": str(scfg.crop_denoiser_input).lower(),
            "convergence_tol": repr(scfg.convergence_tol),
        }

    def test_init_flag_accepted(self, tmp_path):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        for init in ("shift", "repeat", "roll"):
            assert run_cli(
                "reconstruct", "--meas", meas_path, "--mask", mask_path,
                "--shift-step", 2, "--method", "gap-tv", "--iters", 2,
                "--init", init, "--out", tmp_path / f"{init}.hsic",
            ) == 0

    def test_incompatible_geometry_exits_2(self, tmp_path, capsys):
        _, meas_path, _, _ = self.make_measurement(tmp_path)
        bad_mask = tmp_path / "narrow.hsic"
        write_cube(bad_mask, np.ones((32, 31)))
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", bad_mask,
            "--shift-step", 2, "--method", "pinv", "--out", tmp_path / "o.hsic",
        )
        assert code == 2
        assert "band count" in capsys.readouterr().err

    def test_batch_mode_writes_per_input(self, tmp_path):
        from cassi import CodedAperture

        config, meas_path, mask_path, scene = self.make_measurement(tmp_path)
        second = tmp_path / "meas2.hsic"
        mask = CodedAperture(read_cube(mask_path)[0][0])
        op = build_operator(mask, config)
        write_cube(second, op.forward(gen_scene(config, 4, seed=9)).data)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run_cli(
            "reconstruct", "--meas", meas_path, second, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", out_dir,
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["meas.recon.hsic", "meas2.recon.hsic"]

    def test_batch_reads_every_input_on_the_calling_thread_in_order(
        self, tmp_path, monkeypatch
    ):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        paths = [tmp_path / f"{name}.hsic" for name in ("c", "a", "d", "b")]
        for path in paths:
            path.write_bytes(meas_path.read_bytes())
        reads = []
        read = cli.read_cube

        def spy(path):
            reads.append((threading.get_ident(), path))
            return read(path)

        monkeypatch.setattr(cli, "read_cube", spy)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run_cli(
            "reconstruct", "--meas", *paths, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", out_dir,
        )
        assert code == 0
        # The mask is read first, then each measurement.
        assert reads == [
            (threading.get_ident(), str(path)) for path in [mask_path, *paths]
        ]

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("step", [0, -2])
    def test_shift_step_below_one_exits_2_before_any_read(
        self, tmp_path, capsys, monkeypatch, step, source, batch
    ):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        if source == "flag":
            given = ["--shift-step", step]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"shift_step = {step}\n")
            given = ["--config", cfg]
        if batch:
            second = tmp_path / "meas2.hsic"
            second.write_bytes(meas_path.read_bytes())
            inputs, out = [meas_path, second], tmp_path / "out"
            out.mkdir()
        else:
            inputs, out = [meas_path], tmp_path / "o.hsic"
        reads = []
        read = cli.read_cube
        monkeypatch.setattr(
            cli, "read_cube", lambda path: reads.append(path) or read(path)
        )
        code = run_cli(
            "reconstruct", "--meas", *inputs, "--mask", mask_path, *given,
            "--method", "pinv", "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: shift_step must be >= 1, got {step}\n"
        )
        assert reads == []
        assert not out.exists() or not any(out.iterdir())

    def test_batch_rejects_shared_output_stem(self, tmp_path, capsys):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        other = tmp_path / "b"
        other.mkdir()
        twin = other / meas_path.name
        twin.write_bytes(meas_path.read_bytes())
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run_cli(
            "reconstruct", "--meas", meas_path, twin, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", out_dir,
        )
        assert code == 2
        assert "output stem(s) meas" in capsys.readouterr().err
        assert not any(out_dir.iterdir())

    def test_batch_attempts_every_input_and_names_each_failure(
        self, tmp_path, capsys
    ):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        good = tmp_path / "a.hsic"
        good.write_bytes(meas_path.read_bytes())
        bad = [tmp_path / "b.hsic", tmp_path / "c.hsic"]
        for path in bad:
            path.write_bytes(b"not a cube")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run_cli(
            "reconstruct", "--meas", good, *bad, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", out_dir,
        )
        assert code == 2
        err = capsys.readouterr().err
        for path in bad:
            assert f"error: {path}: " in err
            # Named once, though the read_cube message already leads with it.
            assert err.count(str(path)) == 1
        assert f"error: {good}" not in err
        assert err.rstrip().endswith("reconstructed 1 of 3 inputs")
        assert (out_dir / "a.recon.hsic").exists()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batch_exits_with_the_first_failure_in_order(
        self, tmp_path, capsys, reverse
    ):
        # One zero mask pixel: a single-band geometry is degenerate (exit
        # 3), a three-band one is not, and a malformed file exits 2.
        plane = np.ones((8, 8))
        plane[3, 4] = 0.0
        mask_path = tmp_path / "mask.hsic"
        write_cube(mask_path, plane)
        good, degenerate, malformed = (
            tmp_path / name for name in ("a.hsic", "b.hsic", "c.hsic")
        )
        write_cube(good, np.ones((8, 12)))
        write_cube(degenerate, np.ones((8, 8)))
        malformed.write_bytes(b"HSIC")
        failing = [malformed, degenerate] if reverse else [degenerate, malformed]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run_cli(
            "reconstruct", "--meas", good, *failing, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", out_dir,
        )
        assert code == (2 if reverse else 3)
        err = capsys.readouterr().err
        assert "receives no mask energy" in err and "truncated header" in err
        assert "reconstructed 1 of 3 inputs" in err

    def test_batch_builds_each_geometry_once(self, tmp_path, monkeypatch):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        paths = [tmp_path / f"m{i}.hsic" for i in range(8)]
        for path in paths:
            path.write_bytes(meas_path.read_bytes())
        builds = []
        build = cli.build_operator

        def counting(*args):
            builds.append(args[1])
            return build(*args)

        monkeypatch.setattr(cli, "build_operator", counting)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = run_cli(
            "reconstruct", "--meas", *paths, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", out_dir,
        )
        assert code == 0
        assert len(builds) == 1
        assert len(list(out_dir.iterdir())) == len(paths)

    def test_failed_report_write_leaves_no_temp_file(self, tmp_path):
        _, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        blocked = tmp_path / "report"
        blocked.mkdir()  # the rename over a directory fails
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--out", tmp_path / "o.hsic",
            "--report", blocked,
        )
        assert code == 2
        assert not [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_directory_output_for_one_input_exits_2_before_any_read(
        self, tmp_path, capsys, flag
    ):
        # The input files do not exist, so any read would fail first.
        adir = tmp_path / "adir"
        adir.mkdir()
        out = adir if flag == "--out" else tmp_path / "o.hsic"
        report = ["--report", adir] if flag == "--report" else []
        code = run_cli(
            "reconstruct", "--meas", tmp_path / "no_meas.hsic",
            "--mask", tmp_path / "no_mask.hsic", "--shift-step", 2,
            "--method", "pinv", "--config", tmp_path / "no.cfg",
            "--out", out, *report,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} {adir} is a directory; one input needs a file path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
        assert not list(adir.iterdir())

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_batch_output_that_is_a_file_exits_2_before_any_read(
        self, tmp_path, capsys, flag
    ):
        # The input files do not exist, so any read would fail first.
        afile, adir = tmp_path / "afile", tmp_path / "adir"
        afile.write_bytes(b"kept")
        adir.mkdir()
        out, report = (afile, adir) if flag == "--out" else (adir, afile)
        code = run_cli(
            "reconstruct", "--meas", tmp_path / "a.hsic", tmp_path / "b.hsic",
            "--mask", tmp_path / "no_mask.hsic", "--shift-step", 2,
            "--method", "pinv", "--out", out, "--report", report,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag} {afile} must be an existing directory for batch input\n"
        )
        assert afile.read_bytes() == b"kept" and not any(adir.iterdir())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_solver_exits_4(self, tmp_path, capsys):
        # A faint gray mask makes the Gram diagonal tiny, so the weighted
        # correction of a near-overflow measurement goes infinite and the
        # divergence guard must trip.
        config, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        meas, _ = read_cube(meas_path)
        hot = tmp_path / "hot.hsic"
        write_cube(hot, np.full_like(meas[0], 1e307))
        faint = tmp_path / "faint.hsic"
        write_cube(faint, np.full((32, 32), 0.1))
        code = run_cli(
            "reconstruct", "--meas", hot, "--mask", faint,
            "--shift-step", 2, "--method", "gap-tv", "--iters", 5,
            "--out", tmp_path / "o.hsic",
        )
        assert code == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["pinv", "rnd-gap-tv"])
    def test_non_finite_measurement_exits_2(self, tmp_path, capsys, method):
        # Bad input, not divergence: no solver has run when it is found.
        meas = np.ones((8, 12))
        meas[3, 5] = np.nan
        meas_path = tmp_path / "nan.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(meas_path, meas)
        write_cube(mask_path, np.ones((8, 8)))
        out = tmp_path / "o.hsic"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", method, "--iters", 2, "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {meas_path}: " in err and "NaN or Inf" in err
        assert "diverged" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "method, message",
        [
            ("pinv", "reconstruction contains NaN or Inf"),
            ("gap-tv", "solver iterate diverged at iteration 0"),
            ("rnd-gap-tv", "solver iterate diverged at iteration 0"),
        ],
    )
    def test_non_finite_reconstruction_exits_4_and_writes_nothing(
        self, tmp_path, capsys, method, message
    ):
        # The Gram diagonal, 1e-300 or 2e-300, has a finite reciprocal, but
        # a measurement of 1e10 divided by it overflows.
        meas_path, mask_path = tmp_path / "meas.hsic", tmp_path / "mask.hsic"
        write_cube(meas_path, np.full((4, 5), 1e10))
        write_cube(mask_path, np.full((4, 4), 1e-150))
        out, report = tmp_path / "o.hsic", tmp_path / "o.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 1, "--method", method, "--iters", 2,
            "--out", out, "--report", report,
        )
        assert code == 4
        assert capsys.readouterr().err == f"error: {meas_path}: {message}\n"
        assert not out.exists() and not report.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["pinv", "rnd-gap-tv"])
    def test_mask_whose_energy_overflows_exits_3(self, tmp_path, capsys, method):
        meas_path, mask_path = tmp_path / "meas.hsic", tmp_path / "mask.hsic"
        write_cube(meas_path, np.ones((8, 12)))
        write_cube(mask_path, np.full((8, 8), 1e200))
        out, report = tmp_path / "o.hsic", tmp_path / "o.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", method, "--iters", 2,
            "--out", out, "--report", report,
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {meas_path}: detector pixel (0, 0) receives mask energy "
            "that overflows\n"
        )
        assert not out.exists() and not report.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["pinv", "gap-tv", "rnd-gap-tv"])
    def test_report_of_a_huge_measurement_is_finite(self, tmp_path, method):
        # The residual is about 1e184, so its sum of squares overflows.
        meas = np.random.Generator(np.random.Philox(3)).random((8, 12)) * 1e200
        meas_path, mask_path = tmp_path / "meas.hsic", tmp_path / "mask.hsic"
        write_cube(meas_path, meas)
        write_cube(mask_path, np.ones((8, 8)))
        out, report = tmp_path / "o.hsic", tmp_path / "o.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", method, "--iters", 2,
            "--out", out, "--report", report,
        )
        assert code == 0
        values = dict(line.split(" ", 1) for line in report.read_text().splitlines())
        r_inf, r_l2 = float(values["residual_inf"]), float(values["residual_l2"])
        assert float(values["residual_inf_rel"]) <= 1e-8
        assert 0 < r_inf <= r_l2 <= r_inf * np.sqrt(meas.size)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no-shift-step", "shift step not given (flag or config file)"),
            ("mask-bands", "{mask}: mask files must have C = 1, got 2"),
            ("meas-bands", "{meas}: measurement files must have C = 1"),
            ("rows", "{meas}: measurement has 8 rows but mask has 7"),
        ],
    )
    def test_input_error_exits_2_and_writes_nothing(
        self, tmp_path, capsys, case, message
    ):
        meas, mask, step = np.ones((8, 12)), np.ones((8, 8)), ["--shift-step", 2]
        if case == "no-shift-step":
            step = []
        elif case == "mask-bands":
            mask = np.ones((2, 8, 8))
        elif case == "meas-bands":
            meas = np.ones((2, 8, 12))
        else:
            mask = np.ones((7, 8))
        meas_path, mask_path = tmp_path / "meas.hsic", tmp_path / "mask.hsic"
        write_cube(meas_path, meas)
        write_cube(mask_path, mask)
        out, report = tmp_path / "o.hsic", tmp_path / "o.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path, *step,
            "--method", "pinv", "--out", out, "--report", report,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(meas=meas_path, mask=mask_path)}\n"
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("method", ["pinv", "rnd-gap-tv"])
    def test_batch_writes_what_each_input_writes_alone(self, tmp_path, method):
        config, meas_path, mask_path, _ = self.make_measurement(tmp_path)
        second = tmp_path / "meas2.hsic"
        op = build_operator(CodedAperture(read_cube(mask_path)[0][0]), config)
        write_cube(second, op.forward(gen_scene(config, 4, seed=9)).data)
        common = [
            "--mask", mask_path, "--shift-step", 2, "--method", method,
            "--iters", 3,
        ]
        batch = tmp_path / "batch"
        batch.mkdir()
        code = run_cli(
            "reconstruct", "--meas", meas_path, second, *common,
            "--out", batch, "--report", batch,
        )
        assert code == 0

        def report_lines(path):
            # The output path and the timing are all that may differ.
            lines = path.read_text().splitlines()
            return [line for line in lines if line.split(" ")[0] not in (
                "output", "wall_time_s",
            )]

        for path in (meas_path, second):
            out, report = tmp_path / "alone.hsic", tmp_path / "alone.txt"
            code = run_cli(
                "reconstruct", "--meas", path, *common,
                "--out", out, "--report", report,
            )
            assert code == 0
            stem = path.stem
            assert (batch / f"{stem}.recon.hsic").read_bytes() == out.read_bytes()
            batch_report = batch / f"{stem}.report.txt"
            assert report_lines(batch_report) == report_lines(report)
            assert len(report_lines(report)) == 18


class TestOutputCheckedFirst:
    """An output that cannot be written is refused with exit 2 before any
    input is read, so no work is lost and nothing is created."""

    COMMANDS = {
        "simulate": ["simulate", "--cube", "{cube}", "--mask", "{mask}",
                     "--shift-step", 1, "--out", "{out}"],
        "mask-gen": ["mask", "gen", "--height", 2, "--width", 2, "--density",
                     0.5, "--seed", 0, "--out", "{out}"],
        "mask-crop": ["mask", "crop", "--mask", "{mask}", "--size", 2,
                      "--seed", 0, "--out", "{out}"],
        "reconstruct": ["reconstruct", "--meas", "{meas}", "--mask", "{mask}",
                        "--shift-step", 1, "--method", "pinv", "--out", "{out}"],
        "reconstruct-report": ["reconstruct", "--meas", "{meas}", "--mask",
                               "{mask}", "--shift-step", 1, "--method", "pinv",
                               "--out", "{ok}", "--report", "{out}"],
    }

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch, worked_example):
        """Readable inputs for every command, and the list of paths that
        ``read_cube`` is asked for."""
        cube, mask = worked_example
        meas = tmp_path / "meas.hsic"
        write_cube(meas, np.ones((2, 3)))
        reads = []

        def spy(path):
            reads.append(path)
            return read_cube(path)

        monkeypatch.setattr(cli, "read_cube", spy)
        paths = {"cube": cube, "mask": mask, "meas": meas, "ok": tmp_path / "o.hsic"}
        return paths, reads

    @staticmethod
    def deny(monkeypatch, directory):
        """Make ``os.access`` refuse ``directory``.  It answers for the
        caller's real rights, so the case runs under any user, root too."""
        real_access = os.access
        monkeypatch.setattr(
            os, "access", lambda path, mode: path != str(directory) and real_access(path, mode)
        )

    def run(self, tmp_path, inputs, command, out):
        paths, reads = inputs
        before = sorted(tmp_path.rglob("*"))
        argv = [str(a).format(out=out, **paths) for a in self.COMMANDS[command]]
        code = main(argv)
        assert reads == []
        assert sorted(tmp_path.rglob("*")) == before
        return code

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_missing_directory(self, tmp_path, capsys, inputs, command):
        out = tmp_path / "missing" / "o.hsic"
        assert self.run(tmp_path, inputs, command, out) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_parent_is_a_file(self, tmp_path, capsys, inputs, command):
        out = tmp_path / "cube.hsic" / "o.hsic"
        assert self.run(tmp_path, inputs, command, out) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 20] Not a directory: {str(out)!r}\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_directory_per_access(
        self, tmp_path, capsys, monkeypatch, inputs, command
    ):
        locked = tmp_path / "locked"
        locked.mkdir()
        self.deny(monkeypatch, locked)
        out = locked / "o.hsic"
        assert self.run(tmp_path, inputs, command, out) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 13] Permission denied: {str(out)!r}\n"

    @pytest.mark.skipif(
        os.name != "posix" or os.geteuid() == 0, reason="root writes anywhere"
    )
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_directory(self, tmp_path, capsys, inputs, command):
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        try:
            out = locked / "o.hsic"
            assert self.run(tmp_path, inputs, command, out) == 2
        finally:
            locked.chmod(0o700)
        err = capsys.readouterr().err
        assert err == f"error: [Errno 13] Permission denied: {str(out)!r}\n"

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_batch_directory_per_access(
        self, tmp_path, capsys, monkeypatch, inputs, flag
    ):
        paths, reads = inputs
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        locked = out_dir if flag == "--out" else report_dir
        self.deny(monkeypatch, locked)
        code = run_cli(
            "reconstruct", "--meas", paths["meas"], paths["cube"], "--mask",
            paths["mask"], "--shift-step", 1, "--method", "pinv",
            "--out", out_dir, "--report", report_dir,
        )
        assert code == 2
        assert reads == []
        err = capsys.readouterr().err
        assert err == f"error: [Errno 13] Permission denied: {str(locked)!r}\n"
        assert not any(out_dir.iterdir()) and not any(report_dir.iterdir())


class TestMetrics:
    def test_identical_files(self, tmp_path, capsys):
        cube = gen_scene(SceneConfig(16, 16, 2, 1), 4, seed=1)
        a = tmp_path / "a.hsic"
        write_cube(a, cube.data)
        assert run_cli("metrics", "--ref", a, "--test", a) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["psnr_db"] == 100.0
        assert payload["ssim"] == 1.0

    def test_uniform_offset_pair(self, tmp_path, capsys):
        a = tmp_path / "a.hsic"
        b = tmp_path / "b.hsic"
        write_cube(a, np.full((2, 16, 16), 0.4))
        write_cube(b, np.full((2, 16, 16), 0.5))
        assert run_cli("metrics", "--ref", a, "--test", b) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["psnr_db"] - 20.0) < 1e-9

    def test_csv_format(self, tmp_path, capsys):
        cube = gen_scene(SceneConfig(16, 16, 2, 1), 4, seed=2)
        a = tmp_path / "a.hsic"
        write_cube(a, cube.data)
        assert run_cli("metrics", "--ref", a, "--test", a, "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "band,psnr_db,ssim,mse"
        assert len(lines) == 2 + cube.config.bands
        assert lines[-1].startswith("mean,")

    def test_csv_band_mse_is_the_clamped_band_mean(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(21))
        ref = rng.random((3, 16, 16))
        test = ref + 0.3 * rng.standard_normal((3, 16, 16))  # some out of [0, 1]
        a, b = tmp_path / "a.hsic", tmp_path / "b.hsic"
        write_cube(a, ref)
        write_cube(b, test)
        assert run_cli("metrics", "--ref", a, "--test", b, "--format", "csv") == 0
        rows = capsys.readouterr().out.splitlines()[1:-1]
        for c, row in enumerate(rows):
            diff = np.clip(ref[c], 0.0, 1.0) - np.clip(test[c], 0.0, 1.0)
            assert row.split(",")[3] == repr(float(np.mean(diff**2)))

    def test_json_and_csv_carry_the_same_numbers(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.Philox(23))
        ref = rng.random((3, 16, 16))
        a, b = tmp_path / "a.hsic", tmp_path / "b.hsic"
        write_cube(a, ref)
        write_cube(b, ref + 0.3 * rng.standard_normal((3, 16, 16)))
        assert run_cli("metrics", "--ref", a, "--test", b) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "psnr_db", "ssim", "mse", "per_band_psnr", "per_band_ssim", "per_band_mse",
        }
        assert payload["mse"] == float(np.mean(payload["per_band_mse"]))
        assert run_cli("metrics", "--ref", a, "--test", b, "--format", "csv") == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        columns = ("per_band_psnr", "per_band_ssim", "per_band_mse")
        for c, row in enumerate(rows[:-1]):
            assert row[0] == str(c)
            assert [float(v) for v in row[1:]] == [payload[k][c] for k in columns]
        assert rows[-1][0] == "mean"
        assert [float(v) for v in rows[-1][1:]] == [
            payload[k] for k in ("psnr_db", "ssim", "mse")
        ]

    def test_malformed_file_exits_2_with_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.hsic"
        bad.write_bytes(b"HSICxxxxxxxxxxxxxxxxxx")
        good = tmp_path / "good.hsic"
        write_cube(good, np.zeros((1, 16, 16)))
        assert run_cli("metrics", "--ref", bad, "--test", good) == 2
        assert "byte offset" in capsys.readouterr().err

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.hsic"
        b = tmp_path / "b.hsic"
        write_cube(a, np.zeros((1, 16, 16)))
        write_cube(b, np.zeros((1, 16, 17)))
        assert run_cli("metrics", "--ref", a, "--test", b) == 2

    @pytest.mark.parametrize("bad", ["ref", "test"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, bad):
        paths = {name: tmp_path / f"{name}.hsic" for name in ("ref", "test")}
        for name, path in paths.items():
            data = np.zeros((1, 16, 16))
            if name == bad:
                data[0, 3, 4] = np.nan
            write_cube(path, data)
        code = run_cli("metrics", "--ref", paths["ref"], "--test", paths["test"])
        assert code == 2
        assert capsys.readouterr().err == "error: HSICube contains NaN or Inf\n"

    def test_inputs_are_not_copied(self, tmp_path, capsys, kernel_pool):
        # The two cubes read (2x one cube) plus evaluate's own work, which
        # is one seven-band SSIM workspace on one worker and never a whole
        # cube (TestEvaluateMemory): under 3x.  A defensive copy of either
        # input would add 1x.
        kernel_pool(1)
        rng = np.random.Generator(np.random.Philox(22))
        ref = rng.random((16, 96, 96))
        a, b = tmp_path / "a.hsic", tmp_path / "b.hsic"
        write_cube(a, ref)
        write_cube(b, np.clip(ref + 0.01 * rng.standard_normal(ref.shape), 0, 1))
        argv = ("metrics", "--ref", a, "--test", b)
        code, peak = traced_peak(lambda: run_cli(*argv))
        assert code == 0
        assert peak <= 3.0 * ref.nbytes


class TestOracleCheck:
    def test_small_instance_passes(self, capsys):
        code = run_cli(
            "oracle-check", "--height", 4, "--width", 4, "--bands", 3,
            "--shift-step", 1, "--seed", 7,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pinv_apply_rel_err" in out

    def test_paper_scale_exits_2(self, capsys):
        code = run_cli(
            "oracle-check", "--height", 256, "--width", 256, "--bands", 28,
            "--shift-step", 2, "--seed", 0,
        )
        assert code == 2

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_exits_2(self, capsys, seed):
        code = run_cli(
            "oracle-check", "--height", 4, "--width", 4, "--bands", 3,
            "--shift-step", 1, "--seed", seed,
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"

    def test_corrupted_sigma_exits_5(self, capsys, monkeypatch):
        # Perturb one reciprocal Gram entry, so pinv disagrees with the
        # dense oracle, which is built from the mask alone.
        def tampered_operator(mask, config):
            op = build_operator(mask, config)
            inv_sigma = op.inv_sigma.copy()
            inv_sigma[0, inv_sigma.shape[1] // 2] *= 1.01
            object.__setattr__(op, "inv_sigma", inv_sigma)
            return op

        monkeypatch.setattr(cli, "build_operator", tampered_operator)
        code = run_cli(
            "oracle-check", "--height", 4, "--width", 4, "--bands", 3,
            "--shift-step", 1, "--seed", 7,
        )
        assert code == 5
        assert "exceeds tolerance" in capsys.readouterr().err


class TestBench:
    def test_single_rep_has_no_percentile(self, capsys):
        code = run_cli(
            "bench", "--height", 8, "--width", 8, "--bands", 2,
            "--shift-step", 1, "--reps", 1,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phi_apply_ms" in out
        assert "adjoint_apply_ms" in out
        assert "build_operator_ms" in out
        assert "p95" not in out
        assert "evaluate" not in out  # 8x8 bands are smaller than the window
        assert f"kernel_workers {_pool.kernel_workers()}\n" in out

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_below_one_exits_2(self, capsys, reps):
        code = run_cli(
            "bench", "--height", 8, "--width", 8, "--bands", 2,
            "--shift-step", 1, "--reps", reps,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --reps must be >= 1, got {reps}\n"
        assert captured.out == ""

    def test_evaluate_runs_from_11x11_bands(self, capsys):
        for height, width, shown in ((11, 11, True), (11, 10, False)):
            code = run_cli(
                "bench", "--height", height, "--width", width, "--bands", 3,
                "--shift-step", 1, "--reps", 2,
            )
            assert code == 0
            out = capsys.readouterr().out
            assert ("evaluate_median_ms" in out) == shown
            assert ("evaluate_p95_ms" in out) == shown

    def test_multi_rep_reports_median_and_p95(self, capsys):
        code = run_cli(
            "bench", "--height", 8, "--width", 8, "--bands", 2,
            "--shift-step", 1, "--reps", 5,
        )
        assert code == 0
        out = capsys.readouterr().out
        for target in (
            "build_operator", "phi_apply", "adjoint_apply", "pinv_apply",
            "rnd_combine", "tv_denoise",
        ):
            assert f"{target}_median_ms" in out
            assert f"{target}_p95_ms" in out
        assert "operator_bytes" in out

    def test_json_has_the_keys_and_values_of_the_text_lines(self, capsys):
        argv = ("bench", "--height", 11, "--width", 11, "--bands", 2,
                "--shift-step", 1, "--reps", 3)
        assert run_cli(*argv) == 0
        text = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
        assert run_cli(*argv, "--format", "json") == 0
        got = json.loads(capsys.readouterr().out)
        assert list(got) == list(text)
        assert "evaluate_median_ms" in got
        for key, value in got.items():
            if key.endswith("_ms"):  # timings differ between the two runs
                assert isinstance(value, float) and value >= 0
                assert value == round(value, 3)
            else:
                assert str(value) == text[key]

    def test_single_rep_json(self, capsys):
        argv = ("bench", "--height", 8, "--width", 8, "--bands", 2,
                "--shift-step", 1, "--reps", 1, "--format", "json")
        assert run_cli(*argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert "tv_denoise_ms" in got and "tv_denoise_p95_ms" not in got
        assert got["kernel_workers"] == _pool.kernel_workers()


class TestMask:
    def test_gen_full_density(self, tmp_path):
        out = tmp_path / "mask.hsic"
        assert run_cli(
            "mask", "gen", "--height", 6, "--width", 6, "--density", 1.0,
            "--seed", 0, "--out", out,
        ) == 0
        data, _ = read_cube(out)
        np.testing.assert_array_equal(data[0], np.ones((6, 6)))

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.hsic"
        b = tmp_path / "b.hsic"
        for out in (a, b):
            assert run_cli(
                "mask", "gen", "--height", 16, "--width", 16, "--density", 0.5,
                "--seed", 42, "--out", out,
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_identity_crop_is_byte_identical_payload(self, tmp_path):
        src = tmp_path / "src.hsic"
        out = tmp_path / "crop.hsic"
        assert run_cli(
            "mask", "gen", "--height", 12, "--width", 12, "--density", 0.5,
            "--seed", 3, "--out", src,
        ) == 0
        assert run_cli(
            "mask", "crop", "--mask", src, "--size", 12, "--seed", 9,
            "--out", out,
        ) == 0
        assert src.read_bytes() == out.read_bytes()

    def test_crop_too_large_exits_2(self, tmp_path, capsys):
        src = tmp_path / "src.hsic"
        write_cube(src, np.ones((4, 4)))
        assert run_cli(
            "mask", "crop", "--mask", src, "--size", 5, "--seed", 0,
            "--out", tmp_path / "o.hsic",
        ) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["crop", "--size", 0, "--seed", 0],
            ["crop", "--size", -1, "--seed", 0],
            ["gen", "--height", 0, "--width", 4, "--density", 0.5, "--seed", 1],
        ],
        ids=["crop-0", "crop-negative", "gen-zero-height"],
    )
    def test_empty_or_negative_mask_exits_2(self, tmp_path, capsys, argv):
        # A mask with no rows or columns cannot be read back, so it is never
        # written.
        src = tmp_path / "src.hsic"
        write_cube(src, np.ones((4, 4)))
        out = tmp_path / "o.hsic"
        if argv[0] == "crop":
            argv = [*argv, "--mask", src]
        assert run_cli("mask", *argv, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--height", 4, "--width", 4, "--density", 0.5, "--seed", -1],
            ["crop", "--size", 2, "--seed", -5],
        ],
        ids=["gen", "crop"],
    )
    def test_negative_seed_exits_2_and_names_it(self, tmp_path, capsys, argv):
        src = tmp_path / "src.hsic"
        write_cube(src, np.ones((4, 4)))
        out = tmp_path / "o.hsic"
        if argv[0] == "crop":
            argv = [*argv, "--mask", src]
        assert run_cli("mask", *argv, "--out", out) == 2
        seed = argv[argv.index("--seed") + 1]
        assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "given", [["--full-rank-bands", 3], ["--full-rank-step", 2]]
    )
    def test_full_rank_flag_alone_exits_2(self, tmp_path, capsys, given):
        out = tmp_path / "mask.hsic"
        code = run_cli(
            "mask", "gen", "--height", 4, "--width", 4, "--density", 0.5,
            "--seed", 1, *given, "--out", out,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --full-rank-bands and --full-rank-step must be given together\n"
        )
        assert not out.exists()

    def test_full_rank_repair_flags(self, tmp_path):
        out = tmp_path / "mask.hsic"
        assert run_cli(
            "mask", "gen", "--height", 32, "--width", 32, "--density", 0.5,
            "--seed", 5, "--full-rank-bands", 8, "--full-rank-step", 2,
            "--out", out,
        ) == 0
        data, _ = read_cube(out)
        from cassi import CodedAperture

        build_operator(
            CodedAperture(data[0]), SceneConfig(32, 32, 8, 2)
        )


class TestExport:
    def test_pgm_per_band(self, tmp_path):
        cube = gen_scene(SceneConfig(8, 8, 3, 1), 3, seed=1)
        src = tmp_path / "cube.hsic"
        write_cube(src, cube.data)
        out_dir = tmp_path / "bands"
        assert run_cli("export", "--cube", src, "--out-dir", out_dir) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["band_000.pgm", "band_001.pgm", "band_002.pgm"]
        assert (out_dir / "band_000.pgm").read_bytes().startswith(b"P5\n8 8\n255\n")

    @pytest.mark.parametrize("band", [None, 0, 2])
    def test_non_finite_cube_exits_2_and_creates_nothing(self, tmp_path, capsys, band):
        data = np.zeros((3, 4, 4))
        data[2, 1, 1] = np.nan
        data[0, 3, 2] = np.inf
        src = tmp_path / "cube.hsic"
        write_cube(src, data)
        out_dir = tmp_path / "bands"
        extra = [] if band is None else ["--band", band]
        code = run_cli("export", "--cube", src, "--out-dir", out_dir, *extra)
        assert code == 2
        assert f"error: {src}: cube contains NaN or Inf" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_one_finite_band_of_a_non_finite_cube_exports(self, tmp_path):
        data = np.zeros((3, 4, 4))
        data[2, 1, 1] = np.nan
        src = tmp_path / "cube.hsic"
        write_cube(src, data)
        out_dir = tmp_path / "bands"
        code = run_cli(
            "export", "--cube", src, "--out-dir", out_dir, "--band", 1,
            "--prefix", "s_",
        )
        assert code == 0
        assert [p.name for p in out_dir.iterdir()] == ["s_band_001.pgm"]

    @pytest.mark.parametrize("band", [3, 7, -1])
    def test_band_out_of_range_exits_2_and_creates_nothing(self, tmp_path, capsys, band):
        src = tmp_path / "cube.hsic"
        write_cube(src, np.zeros((3, 4, 4)))
        out_dir = tmp_path / "bands"
        code = run_cli("export", "--cube", src, "--out-dir", out_dir, "--band", band)
        assert code == 2
        assert f"band {band} outside [0, 3)" in capsys.readouterr().err
        assert not out_dir.exists()


class TestRunConfig:
    def test_parse_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# solver settings\n"
            "iterations = 4\n"
            "tv_weight = 0.25\n"
            "init = repeat\n"
            "crop_denoiser_input = false\n"
        )
        parsed = parse_run_config(str(cfg))
        assert parsed == {
            "iterations": 4,
            "tv_weight": 0.25,
            "init": "repeat",
            "crop_denoiser_input": False,
        }

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ConfigFileError):
            parse_run_config(str(cfg))

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = soon\n")
        with pytest.raises(ConfigFileError):
            parse_run_config(str(cfg))

    @pytest.mark.parametrize(
        "text", ["450,,460", "450, ,460", "450,460,", ",450", "", " , "]
    )
    def test_empty_wavelength_entry_rejected(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"wavelengths = {text}\n")
        match = re.escape(f"{cfg}:1: bad value {text.strip()!r} for wavelengths")
        with pytest.raises(ConfigFileError, match=f"^{match}$"):
            parse_run_config(str(cfg))

    def test_wavelengths_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelengths = 450, 460.5 ,470\n")
        assert parse_run_config(str(cfg)) == {"wavelengths": (450.0, 460.5, 470.0)}

    def test_undecodable_file_names_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"iterations = 3\r\ntv_weight = 0.1\rseed = \xff4\n")
        where = re.escape(str(cfg))
        match = rf"^{where}:3: not valid UTF-8: byte 0xff at byte offset 39$"
        with pytest.raises(ConfigFileError, match=match):
            parse_run_config(str(cfg))
        code = run_cli(
            "reconstruct", "--meas", cfg, "--mask", cfg, "--method", "pinv",
            "--config", cfg, "--out", tmp_path / "o.hsic",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:3: ")

    @pytest.mark.parametrize("key", ["tv_weight", "convergence_tol"])
    @pytest.mark.parametrize("text", ["nan", "inf", "1e400"])
    def test_non_finite_solver_value_exits_2(self, tmp_path, capsys, key, text):
        config, mask, scenes = bundled_suite(n_scenes=1)
        op = build_operator(mask, config)
        meas_path = tmp_path / "meas.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(meas_path, op.forward(scenes[0]).data)
        write_cube(mask_path, mask.data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        out = tmp_path / "o.hsic"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "gap-tv", "--iters", 2,
            "--config", cfg, "--out", out,
        )
        assert code == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["1e-310", "1e-320"])
    def test_tv_weight_whose_dual_step_overflows_exits_2(
        self, tmp_path, capsys, weight
    ):
        # 1/(8 * tv_weight) overflows, so the TV prox would return NaN and
        # the solve would end as a divergence (exit 4).
        config, mask, scenes = bundled_suite(n_scenes=1)
        op = build_operator(mask, config)
        meas_path = tmp_path / "meas.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(meas_path, op.forward(scenes[0]).data)
        write_cube(mask_path, mask.data)
        out = tmp_path / "o.hsic"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "gap-tv", "--iters", 2,
            "--tv-weight", weight, "--out", out,
        )
        assert code == 2
        assert "tv_weight must be" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_config_file(self, tmp_path):
        config, mask, scenes = bundled_suite(n_scenes=1)
        op = build_operator(mask, config)
        meas_path = tmp_path / "meas.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(meas_path, op.forward(scenes[0]).data)
        write_cube(mask_path, mask.data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shift_step = 2\niterations = 3\n")
        report = tmp_path / "report.txt"
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--method", "gap-tv", "--config", cfg, "--iters", 5,
            "--out", tmp_path / "o.hsic", "--report", report,
        )
        assert code == 0
        values = dict(
            line.split(" ", 1) for line in report.read_text().splitlines()
        )
        assert int(values["iterations"]) == 5  # flag beat the config file

    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_wavelength_count_is_cross_checked(self, tmp_path, capsys, command):
        config, mask, scenes = bundled_suite(n_scenes=1)
        op = build_operator(mask, config)
        cube_path = tmp_path / "cube.hsic"
        meas_path = tmp_path / "meas.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(cube_path, scenes[0].data)
        write_cube(meas_path, op.forward(scenes[0]).data)
        write_cube(mask_path, mask.data)
        source = ["--cube", cube_path] if command == "simulate" else [
            "--meas", meas_path, "--method", "pinv"
        ]
        cfg = tmp_path / "run.cfg"
        for count, expected in ((7, 2), (8, 0)):
            cfg.write_text(
                "wavelengths = " + ", ".join(str(450 + 10 * i) for i in range(count))
            )
            out = tmp_path / f"o{count}.hsic"
            code = run_cli(
                command, *source, "--mask", mask_path, "--shift-step", 2,
                "--config", cfg, "--out", out,
            )
            assert code == expected
            assert out.exists() == (expected == 0)
        err = capsys.readouterr().err
        assert "7 wavelengths for 8 bands" in err

    def test_config_cross_check_failure(self, tmp_path, capsys):
        config, mask, scenes = bundled_suite(n_scenes=1)
        op = build_operator(mask, config)
        meas_path = tmp_path / "meas.hsic"
        mask_path = tmp_path / "mask.hsic"
        write_cube(meas_path, op.forward(scenes[0]).data)
        write_cube(mask_path, mask.data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bands = 9\n")
        code = run_cli(
            "reconstruct", "--meas", meas_path, "--mask", mask_path,
            "--shift-step", 2, "--method", "pinv", "--config", cfg,
            "--out", tmp_path / "o.hsic",
        )
        assert code == 2
        assert "bands" in capsys.readouterr().err


# Hostile numeric text: non-finite, overflowing, underflowing, or junk.
_CONFIG_NUMBERS = st.one_of(
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-0.0", "x", ""]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-1, 3).map(str),
)


def _config_files(*keys):
    """Arbitrary bytes, one line with any key and a hostile value, or lines
    over ``keys`` with values of the key's type, each present or not, one of
    them made hostile."""
    typed = {
        int: st.integers(0, 16).map(str),
        float: st.floats(0.0, 4.0).map(repr),
        bool: st.sampled_from(["true", "off"]),
        str: st.sampled_from(["roll", "shift", "repeat"]),
    }

    def lines(pairs):
        return "".join(f"{k} = {v}\n" for k, v in pairs.items()).encode()

    def spoil(args):
        pairs, key, value = args
        return lines({**pairs, key: value})

    any_key = st.sampled_from(sorted(cli._CONFIG_KEYS) + ["mystery"])
    optional = {k: typed[cli._CONFIG_KEYS[k]] for k in keys}
    return st.one_of(
        st.binary(max_size=64),
        st.dictionaries(any_key, _CONFIG_NUMBERS, max_size=1).map(lines),
        st.tuples(
            st.fixed_dictionaries({}, optional=optional),
            st.sampled_from(keys),
            _CONFIG_NUMBERS,
        ).map(spoil),
    )


class TestFuzzedConfig:
    """Any ``--config`` file exits 0 with a finite output, or exits 2 with a
    one-line diagnostic and no output; nothing else escapes ``main``."""

    def _check(self, root, text, *argv):
        cfg, out = root / "run.cfg", root / "out.hsic"
        cfg.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(*argv, "--config", cfg, "--out", out)
        err = err.getvalue()
        assert code in (0, 2), err
        if code == 0:
            assert np.isfinite(read_cube(out)[0]).all()
            return
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        try:
            text.decode("utf-8")
        except UnicodeDecodeError:
            assert err.startswith(f"error: {cfg}:")

    @settings(max_examples=150)
    @given(text=_config_files("shot_bits", "seed", "full_scale"), noise=st.booleans())
    @example(text=b"full_scale = inf\n", noise=True)
    @example(text=b"shot_bits = 11\nfull_scale = 1e400\n", noise=False)
    @example(text=b"seed = 1\n\xff\n", noise=True)
    def test_simulate(self, tmp_path_factory, text, noise):
        root = tmp_path_factory.mktemp("fuzz")
        cube, mask = root / "cube.hsic", root / "mask.hsic"
        write_cube(cube, np.linspace(0.0, 1.0, 24).reshape(2, 3, 4))
        write_cube(mask, np.ones((3, 4)))
        bits = ["--shot-noise-bits", 11] if noise else []
        self._check(
            root, text, "simulate", "--cube", cube, "--mask", mask,
            "--shift-step", 1, *bits,
        )

    @settings(max_examples=150)
    @given(
        text=_config_files(
            "iterations", "tv_weight", "tv_inner_iterations", "init",
            "crop_denoiser_input", "convergence_tol",
        )
    )
    @example(text=b"tv_weight = nan\n")
    @example(text=b"tv_weight = inf\n")
    def test_reconstruct_gap_tv(self, tmp_path_factory, text):
        root = tmp_path_factory.mktemp("fuzz")
        meas, mask = root / "meas.hsic", root / "mask.hsic"
        write_cube(meas, np.linspace(0.0, 1.0, 15).reshape(3, 5))
        write_cube(mask, np.ones((3, 4)))
        self._check(
            root, text, "reconstruct", "--meas", meas, "--mask", mask,
            "--shift-step", 1, "--method", "gap-tv",
        )


def _spread(rng, shape, exponents, signed, zeros):
    """Values whose magnitudes spread over ``10**lo`` to ``10**hi``."""
    lo, hi = sorted(exponents)
    values = rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(lo, hi + 1, shape)
    if signed:
        values *= rng.choice([-1.0, 1.0], shape)
    values[rng.random(shape) < zeros] = 0.0
    return values


_EXPONENTS = st.tuples(st.integers(-300, 299), st.integers(-300, 299))


class TestNoExit0WithANonFiniteOutput:
    """Over magnitudes from 1e-300 to 1e300 in the cube, the mask and the
    measurement, ``simulate`` and every ``reconstruct`` method exit 0 with
    a finite output file and a finite report, or exit 2, 3 or 4 with one
    ``error:`` line and no output file."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200)
    @given(
        command=st.sampled_from(["simulate", "pinv", "gap-tv", "rnd-gap-tv"]),
        geometry=st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
            st.integers(1, 2),
        ),
        data=_EXPONENTS,
        mask=_EXPONENTS,
        signed=st.booleans(),
        zeros=st.sampled_from([0.0, 0.25]),
        seed=st.integers(0, 2**32 - 1),
    )
    # A measurement of 1e10 over a mask of 1e-150 overflows pinv and the
    # solver's first data step; a mask of 1e200 overflows the Gram
    # diagonal; the residual of a measurement of 1e200 overflows its L2
    # norm.
    @example("pinv", (4, 4, 2, 1), (10, 10), (-150, -150), False, 0.0, 0)
    @example("rnd-gap-tv", (4, 4, 2, 1), (10, 10), (-150, -150), False, 0.0, 0)
    @example("pinv", (4, 4, 3, 2), (0, 0), (200, 200), False, 0.0, 0)
    @example("simulate", (4, 4, 3, 2), (0, 0), (200, 200), False, 0.0, 0)
    @example("gap-tv", (4, 4, 3, 2), (200, 200), (0, 0), False, 0.0, 0)
    def test_exit_0_means_finite_files(
        self, tmp_path_factory, command, geometry, data, mask, signed, zeros, seed
    ):
        root = tmp_path_factory.mktemp("magnitudes")
        rng = np.random.Generator(np.random.Philox(seed))
        h, w, bands, d = geometry
        mask_path, in_path = root / "mask.hsic", root / "in.hsic"
        out, report = root / "out.hsic", root / "report.txt"
        write_cube(mask_path, _spread(rng, (h, w), mask, False, zeros))
        if command == "simulate":
            write_cube(in_path, _spread(rng, (bands, h, w), data, signed, zeros))
            argv = ["simulate", "--cube", in_path]
        else:
            wp = w + d * (bands - 1)
            write_cube(in_path, _spread(rng, (h, wp), data, signed, zeros))
            argv = [
                "reconstruct", "--meas", in_path, "--method", command,
                "--iters", 2, "--report", report,
            ]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(
                *argv, "--mask", mask_path, "--shift-step", d, "--out", out
            )
        err = err.getvalue()
        if code == 0:
            assert err == ""
            assert np.isfinite(read_cube(out)[0]).all()
            if command != "simulate":
                for line in report.read_text().splitlines():
                    key, value = line.split(" ", 1)
                    with contextlib.suppress(ValueError):
                        assert np.isfinite(float(value)), line
            return
        assert code in (2, 3, 4), err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() and not report.exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cassi", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for seed in (1, 2):
        assert run_cli(
            "mask", "gen", "--height", 4, "--width", 4, "--density", 0.5,
            "--seed", seed, "--out", tmp_path / f"mask{seed}.hsic",
        ) == 0
    assert len(used) == 2
    assert used[0] is used[1]

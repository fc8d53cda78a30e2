import types

import cassi

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
    "ShiftedCube",
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
    "psnr",
    "psnr_bands",
    "read_cube",
    "repair_mask",
    "rnd_reconstruct",
    "shift_cube",
    "ssim",
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

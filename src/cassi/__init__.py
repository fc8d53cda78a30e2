"""Matrix-free simulation and range-null-space reconstruction for
coded-aperture snapshot spectral imaging."""

__version__ = "0.1.0"

from .core import (
    CodedAperture,
    HSICube,
    Measurement,
    SceneConfig,
    ShiftedCube,
)
from .errors import (
    CassiError,
    ConfigFileError,
    CropTooLarge,
    CubeFileError,
    DimensionMismatch,
    InstanceTooLarge,
    MaskDegenerate,
    NegativeMeasurement,
    NonFiniteValue,
    NumericalFailure,
)
from .operator import (
    SensingOperator,
    build_operator,
    shift_cube,
)
from .recon import (
    IdentityPrior,
    InitStrategy,
    Prior,
    SolveStats,
    SolverConfig,
    TvPrior,
    gap_solve_with_stats,
    init_repeat,
    init_roll,
    init_shift,
    rnd_reconstruct,
    tv_denoise,
)
from .simulate import (
    NoiseSpec,
    add_shot_noise,
    bundled_suite,
    crop_mask,
    gen_mask,
    gen_scene,
    repair_mask,
)
from .metrics import (
    MetricReport,
    evaluate,
    psnr,
    psnr_bands,
    ssim,
    ssim_bands,
)
from .cubefile import read_cube, write_cube, write_pgm

"""Matrix-free simulation and range-null-space reconstruction for
coded-aperture snapshot spectral imaging."""

__version__ = "0.1.0"

from .core import (
    CodedAperture,
    HSICube,
    Measurement,
    SceneConfig,
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
)
from .recon import (
    InitStrategy,
    Prior,
    SolveStats,
    SolverConfig,
    TvPrior,
    gap_solve_with_stats,
    rnd_reconstruct,
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
    psnr_bands,
    ssim_bands,
)
from .cubefile import read_cube, write_cube, write_pgm

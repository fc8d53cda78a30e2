"""Exception types shared across the package."""


class CassiError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(CassiError):
    """Array shape disagrees with the scene configuration."""


class NonFiniteValue(CassiError):
    """NaN or Inf encountered where finite values are required."""


class MaskDegenerate(CassiError):
    """A detector pixel receives no mask energy from any band.

    The diagonal of the operator Gram matrix vanishes there, so the
    element-wise pseudo-inverse does not exist and construction fails.
    """

    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(
            f"detector pixel ({row}, {col}) receives no mask energy from any band"
        )


class InstanceTooLarge(CassiError):
    """Dense materialization would exceed the hard entry cap."""


class NumericalFailure(CassiError):
    """A numerical routine (SVD) failed to converge."""


class CropTooLarge(CassiError):
    """Requested crop window exceeds the source mask."""


class NegativeMeasurement(CassiError):
    """Shot noise requires a nonnegative measurement."""


class CubeFileError(CassiError):
    """Malformed cube container file."""


class ConfigFileError(CassiError):
    """Malformed run-config file or unknown key."""

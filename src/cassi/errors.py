"""Exception types shared across the package."""


class CassiError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(CassiError):
    """Array shape disagrees with the scene configuration."""


class NonFiniteValue(CassiError):
    """NaN or Inf encountered where finite values are required."""


class MaskDegenerate(CassiError):
    """A detector pixel receives no mask energy from any band, so little
    that its reciprocal overflows, or so much that the energy overflows.

    The diagonal of the operator Gram matrix vanishes there, is too small
    to invert, or is not finite, so the element-wise pseudo-inverse does
    not exist and construction fails.  ``energy`` is that diagonal entry.
    """

    def __init__(self, row: int, col: int, energy: float = 0.0):
        self.row = row
        self.col = col
        self.energy = energy
        if energy == 0.0:
            what = "receives no mask energy from any band"
        elif energy == float("inf"):
            what = "receives mask energy that overflows"
        else:
            what = f"receives mask energy {energy!r}, too small to invert"
        super().__init__(f"detector pixel ({row}, {col}) {what}")


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

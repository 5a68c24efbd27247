"""Exception types shared across the package."""


class PolydriveError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PolydriveError):
    """Input values are non-finite or outside the documented domain."""


class ShapeError(PolydriveError):
    """Array/series shapes do not match the operation contract."""


class SpawnError(PolydriveError):
    """Agent placement exceeded map capacity."""


class DataFormatError(PolydriveError):
    """A serialized artifact is truncated, corrupted or version-incompatible."""


class NumericalError(PolydriveError):
    """A numerical computation produced non-finite values."""


class SkipSample(PolydriveError):
    """Signal that an augmentation target is degenerate and should be dropped."""

"""Exception types shared across the package."""


class TractFieldError(Exception):
    """Base class for every error raised by this package."""


class FormatError(TractFieldError):
    """A file does not conform to its declared format."""


class TruncationError(FormatError):
    """Header-declared payload size disagrees with the actual payload."""


class DomainError(TractFieldError):
    """An input violates a documented precondition."""


class ConnectivityError(TractFieldError):
    """Requested endpoints are not connected inside the mask."""


class GeometryError(TractFieldError):
    """A phantom's grid exceeds the voxel budget, or its tube covers no
    voxel center."""


class UnderdeterminedError(TractFieldError):
    """Too few samples to determine the field coefficients."""


class ConditioningError(TractFieldError):
    """A linear system is singular beyond the requested regularization."""


class EmptyTractError(TractFieldError):
    """Tracking produced no usable streamline."""

"""Exception types shared across the package.

The class decides a command's exit code: a ``FormatError`` or a
``DomainError`` is a data error, a ``ConditioningError`` a numerical one.
"""


class TractFieldError(Exception):
    """Base class for every error raised by this package."""


class FormatError(TractFieldError):
    """A file does not conform to its declared format, its payload size
    included."""


class DomainError(TractFieldError):
    """An input violates a documented precondition, such as endpoints the
    mask does not connect or tracking that keeps no streamline."""


class ConditioningError(TractFieldError):
    """A linear system is underdetermined or singular beyond the requested
    regularization."""

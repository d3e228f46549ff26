"""Exception taxonomy shared across the package.

Grouped by how callers should react: ``UsageError`` means the caller passed
something malformed (fix the call), ``InputFormatError`` means an input file
or artifact is bad (fix the data), ``NumericalError`` means a numerical
procedure failed honestly (retry with different parameters, or give up).
The CLI maps the three groups to distinct exit codes.
"""


class SpecdensError(Exception):
    """Base class for all package-specific errors."""


class UsageError(SpecdensError, ValueError):
    """Malformed arguments or configuration."""


class InputFormatError(SpecdensError):
    """An input file violates its documented format or is inconsistent."""


class NumericalError(SpecdensError):
    """A numerical procedure failed to produce a trustworthy result."""


class DimensionMismatchError(InputFormatError):
    """Two artifacts that must agree on dimensions do not."""


class ConvergenceError(NumericalError):
    """An iteration hit its cap without converging."""


class DegenerateSpectrumError(NumericalError):
    """Spectral range collapsed to a point; normalization impossible."""


"""Exception types shared across the package."""


class LbmError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(LbmError, ValueError):
    """An argument violates a documented precondition."""


class MatrixParseError(LbmError, ValueError):
    """A data file could not be parsed into a binary matrix.

    ``line`` and ``column`` are 1-based file coordinates when known.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class NumericalError(LbmError, ArithmeticError):
    """A numerical routine produced a non-finite intermediate value."""


class ExperimentError(LbmError, RuntimeError):
    """A robustness data set had no accepted simulation within the attempt cap."""

"""Exception types shared across the package, and the one check on a count or seed."""

import math
import numbers


class LbmError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(LbmError, ValueError):
    """An argument violates a documented precondition."""


def _whole(value, name, least=1):
    """``value`` as an int: a count or seed is a whole number, at least ``least``.

    A whole float or a numpy integer is taken as the int it equals; anything
    else, such as 2.5, NaN, an infinity, None or "3", is refused.
    """
    # NaN and the infinities are refused before int() could raise
    if not (isinstance(value, numbers.Real) and abs(value) < math.inf and value == int(value)):
        raise ValidationError(f"{name} must be a whole number, got {value}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")
    return int(value)


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

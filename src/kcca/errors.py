"""Exception hierarchy shared across the library.

The CLI maps InputError (bad data, parameters or model files) and the
NumericalError subclasses alike to exit 3, with an error[domain] line.
"""


class InputError(ValueError):
    """Bad caller input: shapes, ranges, parse failures."""


class NumericalError(ArithmeticError):
    """Base for failures of the numerical routines."""


class NotPositiveDefiniteError(NumericalError):
    """Cholesky hit a non-positive pivot."""

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"matrix is not positive definite (pivot {pivot})")


class SingularRegularizationError(NumericalError):
    """Whitening factors could not be formed even with jitter."""


class DegenerateFeatureError(NumericalError):
    """A projected feature column has zero variance."""

    def __init__(self, column, message=None):
        self.column = column
        super().__init__(message or f"feature column {column} has zero variance")

"""Exception types shared across the package."""


class QfrtError(Exception):
    """Base class for package-specific errors."""


class DimensionError(QfrtError, ValueError):
    """An argument is of the wrong kind or shape, or a size, wire, index or
    exponent is not an integer in its range."""


class QubitBudgetError(QfrtError, ValueError):
    """An operation would exceed the configured qubit budget."""


class NotDyadicOrderError(QfrtError, ValueError):
    """An operator fails the U**(2**n) = I order check."""


class ExportError(QfrtError, ValueError):
    """A circuit contains operations the text format cannot express."""

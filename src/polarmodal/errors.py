"""Exception types shared across the package."""


class PolarModalError(Exception):
    """Base class for all errors raised by this package."""


class SortError(PolarModalError):
    """An ill-sorted point, set, tuple or formula."""


class ParseError(PolarModalError):
    """Lexical or syntactic error, with position information."""

    def __init__(self, message, line=None, column=None):
        self.message = message  # without the position prefix
        self.line = line
        self.column = column
        if line is not None:
            col = "" if column is None else f", col {column}"
            message = f"line {line}{col}: {message}"
        super().__init__(message)


class PreconditionError(PolarModalError):
    """A documented operation precondition was violated."""


class NormalityError(PolarModalError):
    """An operator table fails a normality requirement.

    Carries the operator name, the offending coordinate and a witness.
    """

    def __init__(self, message, operator=None, coordinate=None, witness=None):
        self.operator = operator
        self.coordinate = coordinate
        self.witness = witness
        super().__init__(message)


class CapExceeded(PolarModalError):
    """An exhaustive search would exceed the configured resource cap."""

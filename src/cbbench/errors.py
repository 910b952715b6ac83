"""Exception hierarchy shared by all toolkit modules."""

__all__ = [
    "CbBenchError", "InvalidArgumentError", "DegenerateInputError", "NumericError", "ParseError",
]


class CbBenchError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(CbBenchError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(CbBenchError, ValueError):
    """Input is structurally valid but numerically degenerate (e.g. rank deficient)."""


class NumericError(CbBenchError, ArithmeticError):
    """A numerical routine failed beyond repair (e.g. factorization of a singular matrix)."""


class ParseError(CbBenchError, ValueError):
    """A file could not be parsed; the message names the offending location."""

"""Exception hierarchy.

Every error raised deliberately by this package derives from NormRegError so
callers (and the CLI) can distinguish tool errors from genuine bugs.
"""

from __future__ import annotations


class NormRegError(Exception):
    """Base class for all errors raised by normreg."""


class DomainError(NormRegError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionMismatchError(NormRegError, ValueError):
    """Array shapes are inconsistent with each other."""


class KindMismatchError(NormRegError, ValueError):
    """A normalization strategy was applied to a column of the wrong kind."""


class ZeroScaleError(NormRegError, ValueError):
    """A normalization scale factor came out as zero on a column that varies."""


class ParseError(NormRegError, ValueError):
    """A data file could not be parsed.

    Carries enough position information to point at the offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnsupportedLimitError(NormRegError, ValueError):
    """The requested asymptotic limit is outside every supported regime."""

"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`MajoError`, so
callers (notably the CLI) can map any contract violation to a single
"input error" exit path while still catching specific conditions.
"""

from __future__ import annotations


class MajoError(Exception):
    """Base error for the package."""


class InvalidRationalError(MajoError, ValueError):
    """Text that is not an integer or ``p/q`` with a nonzero denominator."""


class RationalTooLongError(MajoError):
    """A rational with more digits than Python writes out as an integer."""


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


class NonCanonicalError(MajoError, ValueError):
    """A step function constructed directly is not in canonical form."""


class NegativeMassError(MajoError):
    """A level set was given a zero or negative mass."""


class NegativeValueOnInfiniteSpaceError(MajoError):
    """Negative values are not representable on an infinite measure space."""


class MassExceedsTotalError(MajoError):
    """The masses of the level sets exceed the total measure of the space."""


class SOutOfRangeError(MajoError):
    """Partial-integral endpoint outside [0, total measure]."""


class DivergentHingeError(MajoError):
    """Hinge integral at u < 0 diverges on an infinite measure space."""


class DeltaOutOfRangeError(MajoError):
    """Small-set budget outside [0, total measure]."""


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


class MeasureMismatchError(MajoError):
    """The two functions do not live on spaces of the same total measure."""


class EmptyFamilyError(MajoError, ValueError):
    """A function family or gcd input with no members."""


class InternalInconsistencyError(MajoError):
    """Two provably equivalent criteria disagreed: an implementation bug.

    Carries the conflicting verdicts for post-mortem inspection.
    """

    def __init__(self, message: str, verdicts=()):
        super().__init__(message)
        self.verdicts = tuple(verdicts)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class InvalidPartitionError(MajoError, ValueError):
    """A partition's tail does not fit the space (or a finite tail is empty)."""


class InvalidTTransformError(MajoError, ValueError):
    """A T-transform's coordinates or mixing weight are out of range."""


class NegativeEntryError(MajoError):
    """Operator matrices and kernels must have nonnegative entries."""


class DimensionMismatchError(MajoError):
    """Matrix/vector/partition dimensions do not line up."""


class PartitionMisalignedError(MajoError):
    """A function is not constant on the atoms of a partition, or its
    support reaches past the explicit atoms."""


class NotStochasticError(MajoError):
    """The operator does not meet the stochasticity class required here."""


class NotMajorizedError(MajoError):
    """A witness was requested for a pair that is not majorized."""


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------


class ParseError(MajoError):
    """Malformed input file; records position and the offending token.

    The message quotes at most the token's first 40 characters; ``token``
    keeps all of it.
    """

    def __init__(self, message: str, *, line: int, column: int = 1, token: str = ""):
        detail = f"line {line}, column {column}"
        if token:
            detail += f", near {token[:40]!r}"
        super().__init__(f"{message} ({detail})")
        self.line = line
        self.column = column
        self.token = token

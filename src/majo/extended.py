"""Exact rationals extended with a single positive infinity.

Measures take values in the nonnegative rationals plus ``INF``; there is no
negative infinity anywhere in this package. ``INF`` compares above every
rational and has no arithmetic: adding, subtracting or negating it raises
``TypeError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import EmptyFamilyError, InvalidRationalError

# an optionally signed integer, or p/q with a nonzero denominator
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


class Infinity:
    """The extended value +inf (a singleton, see module-level ``INF``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    # -- ordering -----------------------------------------------------------

    def __lt__(self, other) -> bool:
        if isinstance(other, (Infinity, int, Fraction)):
            return False
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, Infinity):
            return True
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __gt__(self, other) -> bool:
        if isinstance(other, Infinity):
            return False
        if isinstance(other, (int, Fraction)):
            return True
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, (Infinity, int, Fraction)):
            return True
        return NotImplemented


INF = Infinity()

ExtendedRational = Union[Fraction, Infinity]


def as_fraction(x) -> Fraction:
    """Coerce an exact rational given as int, Fraction or 'p/q' string.

    Strings follow the rule of the text formats: an optionally signed
    integer or ``p/q``, never a decimal or exponent, and never a zero
    denominator; anything else raises :class:`InvalidRationalError`. Floats
    are rejected: binary rounding would silently break the exactness
    guarantees every verdict in this package relies on.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # one match gives both integers; Fraction(x) would match the text again
        match = _RATIONAL.fullmatch(x.strip())
        if match:
            numerator, denominator = match.groups()
            try:
                return Fraction(int(numerator), int(denominator) if denominator else 1)
            except ValueError:  # more digits than int() converts
                pass
        raise InvalidRationalError(f"expected an integer or p/q, got {x[:40]!r}")
    raise TypeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


def as_extended(x) -> ExtendedRational:
    """Coerce to a finite Fraction or INF; accepts the string 'inf'."""
    if isinstance(x, Infinity):
        return INF
    if isinstance(x, str) and x.strip().lower() in ("inf", "+inf", "infinity"):
        return INF
    return as_fraction(x)


def _shown(x: ExtendedRational) -> str:
    """``str(x)`` for an error message, or its size where a numerator or
    denominator has more digits than Python writes out as an integer."""
    try:
        return str(x)
    except ValueError:  # over the int-to-text digit limit
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        return f"a rational of {bits} bits"


def common_scale(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """The lcm of the denominators of some rationals, and each rational times it.

    Sums and comparisons of the scaled integers are exact and normalize
    nothing, where each ``Fraction`` operation reduces by a gcd. No values
    give the scale 1.
    """
    # one as_integer_ratio() call per value, where .numerator and
    # .denominator are a property call each
    return _scale_ratios([v.as_integer_ratio() for v in values])


def _scale_ratios(ratios: Sequence[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """:func:`common_scale` on rationals given as (numerator, positive
    denominator) pairs."""
    # lcm(*list), not lcm(*generator): a tuple CPython builds from a generator
    # by resizing parks a block in its tuple free list; the list bounded RSS
    # on the decide pool about 1 MiB lower after 95 cycles (FOUND line in
    # CHANGES.md)
    scale = lcm(*[d for _, d in ratios])
    return scale, [n * (scale // d) for n, d in ratios]


def exact_sum(values: Sequence[Fraction]) -> Fraction:
    """Sum over the lcm of the denominators, with one normalization.

    Pairwise ``Fraction`` additions reduce every partial sum by a gcd, which
    dominates on many terms or long ones.
    """
    scale, scaled = common_scale(values)
    return Fraction(sum(scaled), scale)


def fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """Greatest common divisor of a nonempty collection of positive rationals."""
    values = [as_fraction(v) for v in values]
    if not values:
        raise EmptyFamilyError("gcd of an empty collection")
    scale, scaled = common_scale(values)
    return Fraction(gcd(*scaled), scale)

"""Exact rationals extended with a single positive infinity.

Measures take values in the nonnegative rationals plus ``INF``; there is no
negative infinity anywhere in this package. ``INF`` compares above every
rational and has no arithmetic: adding, subtracting or negating it raises
``TypeError``.

This is also the toolkit for exact integer pairs (numerator, positive
denominator), the form every value and mass is stored in: :func:`_read_ratio`
(the one reader of a rational written as text, with no regex),
:func:`_reduced`, :func:`_scale_ratios` and :func:`_sum` (over the lcm of the
denominators), :func:`_combine`, :class:`_Ratio`, :func:`_format_ratio` and
:func:`_shown`, the one writer of a number in an error message or ``check``'s
text, which never raises. No other module reduces a pair.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import EmptyFamilyError, InvalidRationalError, RationalTooLongError, _cut


@functools.total_ordering
class Infinity:
    """The extended value +inf (a singleton, see module-level ``INF``): above
    every int and ``Fraction``, and equal only to itself, by identity.
    ``<=``, ``>`` and ``>=`` follow from ``<``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __lt__(self, other) -> bool:
        if isinstance(other, (Infinity, int, Fraction)):
            return False
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
        pair = _read_ratio(x.strip())
        if pair is None:
            raise InvalidRationalError(f"expected an integer or p/q, got {_cut(x)!r}")
        return Fraction(*pair)
    raise TypeError(f"exact rational expected, got {type(x).__name__}: {x!r}")


def as_extended(x) -> ExtendedRational:
    """Coerce to a finite Fraction or INF; accepts the string 'inf'."""
    if isinstance(x, Infinity):
        return INF
    if isinstance(x, str) and x.strip().lower() in ("inf", "+inf", "infinity"):
        return INF
    return as_fraction(x)


def exact_sum(values: Sequence[Fraction]) -> Fraction:
    """Sum over the lcm of the denominators, with one normalization.

    Pairwise ``Fraction`` additions reduce every partial sum by a gcd, which
    dominates on many terms or long ones.
    """
    return Fraction(*_sum([v.as_integer_ratio() for v in values]))


def fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """Greatest common divisor of a nonempty collection of positive rationals."""
    values = [as_fraction(v) for v in values]
    if not values:
        raise EmptyFamilyError("gcd of an empty collection")
    scale, scaled = _scale_ratios([v.as_integer_ratio() for v in values])
    return Fraction(gcd(*scaled), scale)


Pair = Tuple[int, int]  # (numerator, positive denominator)


@numbers.Rational.register
class _Ratio(NamedTuple):
    """An integer pair in lowest terms, as a ``numbers.Rational`` is by contract:
    ``Fraction(ratio)`` takes both integers as they are, where ``Fraction(n,
    d)`` runs a gcd on them again, quadratic in their length. The ABC check
    makes it a constant 0.73-0.77 us, where ``Fraction(n, d)`` of random
    coprime integers takes 0.44 us at 8 bits, 0.74 us at 64, 1.6 us at 256
    and 33 us at 4096 (Python 3.11, best of 5 ``timeit`` runs on a shared
    2-core machine): it pays only past about 64 bits."""

    numerator: int
    denominator: int


def _as_ratio(x) -> Pair:
    """An exact rational, coerced as :func:`as_fraction` does, as a pair."""
    return (x if type(x) is Fraction else as_fraction(x)).as_integer_ratio()


def _read_ratio(token: str) -> Optional[Pair]:
    """A token of the grammar ``[+-]?[0-9]+(/0*[1-9][0-9]*)?`` as a pair in
    lowest terms; None for any other token, or one with more digits than
    ``int()`` converts. Only ASCII digits pass the checks, which so refuse
    the ``١``, ``²``, whitespace and ``_`` that ``int()`` would take."""
    numerator, slash, denominator = token.partition("/")
    # a second sign is left to int() to refuse
    if not (token.isascii() and numerator.lstrip("+-").isdigit()
            and (denominator.isdigit() or not slash)):
        return None
    try:
        n, d = int(numerator), int(denominator) if slash else 1
    except ValueError:  # more digits than int() converts
        return None
    return _reduced(n, d) if d else None


def _reduced(n: int, d: int) -> Pair:
    """n/d in lowest terms, for a positive d."""
    common = gcd(n, d)
    return n // common, d // common


def _scale_ratios(ratios: Sequence[Pair]) -> Tuple[int, List[int]]:
    """The lcm of the denominators of some pairs, and each pair times it, so
    sums and comparisons normalize nothing, where each ``Fraction`` operation
    reduces by a gcd. No pairs give the scale 1."""
    # lcm(*list), not lcm(*generator): a tuple CPython builds from a generator
    # by resizing parks a block in its tuple free list; the list bounded RSS
    # on the decide pool about 1 MiB lower after 95 cycles (FOUND line in
    # CHANGES.md)
    scale = lcm(*[d for _, d in ratios])
    return scale, [n * (scale // d) for n, d in ratios]


def _sum(pairs: Sequence[Pair]) -> Pair:
    """The sum of some pairs over the lcm of their denominators, unreduced."""
    scale, scaled = _scale_ratios(pairs)
    return sum(scaled), scale


def _combine(p: int, q: int, d: int, x: Pair, y: Pair) -> Pair:
    """(p·x + q·y) / d in lowest terms, where p/d, q/d, x and y are.

    Two nonzero terms are reduced by one gcd. One term reduces as Fraction
    multiplies, by two gcds of a short and a long integer, where one gcd of
    two long integers with a short result would take time quadratic in
    their length.
    """
    (xn, xd), (yn, yd) = x, y
    if not xn or not yn:
        n, m, w = (yn, yd, q) if not xn else (xn, xd, p)
        if not n * w:
            return 0, 1
        a, b = gcd(w, m), gcd(n, d)
        return (w // a) * (n // b), (d // b) * (m // a)
    return _reduced(p * xn * yd + q * yn * xd, d * xd * yd)


def _format_ratio(numerator: int, denominator: int) -> str:
    """A pair in lowest terms as ``str`` writes the ``Fraction``: ``n``, or
    ``n/d`` when d is not 1. A numerator or denominator with more digits than
    Python converts to text (``sys.get_int_max_str_digits``) raises
    :class:`RationalTooLongError`."""
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError:  # over the int-to-text digit limit
        digits = max(_digit_count(numerator), _digit_count(denominator))
        raise RationalTooLongError(
            f"a numerator or denominator of {digits} digits is over Python's "
            f"limit of {sys.get_int_max_str_digits()} digits for writing an integer"
        ) from None


def _digit_count(n: int) -> int:
    """Decimal digits of |n|, counted without converting it to text."""
    n = abs(n)
    estimate = int((max(n.bit_length(), 1) - 1) * math.log10(2)) + 1
    return estimate + (n >= 10**estimate)


def _shown(x) -> str:
    """``str(x)`` for an error message or ``check``'s text, for an int,
    ``Fraction``, ``_Ratio`` or ``INF``; past the digit limit of
    :func:`_format_ratio`, the size of the integer or rational in bits, so a
    message or verdict never fails to be written."""
    if isinstance(x, Infinity):
        return "inf"
    n, d = x.numerator, x.denominator
    try:
        return _format_ratio(n, d)
    except RationalTooLongError:
        kind = "an integer" if isinstance(x, int) else "a rational"
        return f"{kind} of {max(n.bit_length(), d.bit_length())} bits"

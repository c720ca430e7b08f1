"""Exact step functions on finite or sigma-finite measure spaces.

A step function is stored as its level sets: ``(value, mass)`` pairs with
positive rational masses, sorted by strictly decreasing value. On a space of
infinite total measure the remainder of the space is an implicit zero tail
(never stored), and all values must be nonnegative. Only the masses of level
sets matter; the geometry of the underlying sets never enters a computation,
so the canonical piece order *is* the decreasing rearrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple

from .errors import (
    DivergentHingeError,
    MassExceedsTotalError,
    NegativeMassError,
    NegativeValueOnInfiniteSpaceError,
    NonCanonicalError,
    SOutOfRangeError,
)
from .extended import (
    INF,
    ExtendedRational,
    as_extended,
    as_fraction,
    exact_sum,
)

ZERO = Fraction(0)


class Piece(NamedTuple):
    """One level set: the function takes ``value`` on a set of measure ``mass``."""

    value: Fraction
    mass: Fraction


@dataclass(frozen=True)
class StepFunction:
    """Canonical exact representation of an integrable step function.

    Construct through :func:`canonicalize`. Direct construction is
    ``canonicalize`` plus a comparison: it raises what ``canonicalize``
    raises on the same pieces and total, and :class:`NonCanonicalError`
    unless ``canonicalize`` gives those pieces back unchanged.
    """

    pieces: Tuple[Piece, ...]
    total_measure: ExtendedRational

    def __post_init__(self):
        # built from a list, not a generator, as in extended.common_scale
        pieces = tuple([Piece(as_fraction(v), as_fraction(m)) for v, m in self.pieces])
        total = as_extended(self.total_measure)
        if canonicalize(pieces, total).pieces != pieces:
            raise NonCanonicalError(
                "pieces are not in canonical form: merged, sorted by strictly "
                "decreasing value, with no zero piece on an infinite space and "
                "tiling a finite one; build through canonicalize"
            )
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "total_measure", total)

    @classmethod
    def _trusted(cls, pieces: Tuple[Piece, ...], total: ExtendedRational):
        """Build from pieces the caller has already put in canonical form."""
        function = object.__new__(cls)
        object.__setattr__(function, "pieces", pieces)
        object.__setattr__(function, "total_measure", total)
        return function

    # -- derived structure ---------------------------------------------------

    @property
    def infinite(self) -> bool:
        return self.total_measure is INF

    @property
    def support_measure(self) -> Fraction:
        """Total mass of the explicitly stored level sets."""
        return sum((p.mass for p in self.pieces), ZERO)

    def values(self) -> Tuple[Fraction, ...]:
        return tuple([p.value for p in self.pieces])

    def cumulative_masses(self) -> Tuple[Fraction, ...]:
        """Running mass totals: the breakpoints of the rearrangement layout."""
        out, acc = [], ZERO
        for piece in self.pieces:
            acc += piece.mass
            out.append(acc)
        return tuple(out)

    # -- primitives ----------------------------------------------------------

    def integral(self) -> Fraction:
        return sum((p.value * p.mass for p in self.pieces), ZERO)

    def distribution(self, t) -> ExtendedRational:
        """Measure of the strict super-level set {x : f(x) > t}."""
        t = as_fraction(t)
        if self.infinite and t < 0:
            return INF
        return sum((p.mass for p in self.pieces if p.value > t), ZERO)

    def rearrangement(self) -> "StepFunction":
        """Decreasing rearrangement, a step function on [0, total measure).

        The canonical piece order already lists level sets by decreasing
        value, so the rearrangement is the function itself; the operation is
        idempotent by construction.
        """
        return self

    def partial_integral(self, s) -> Fraction:
        """Integral of the decreasing rearrangement over [0, s]."""
        s = as_extended(s)
        if s < 0 or s > self.total_measure:
            raise SOutOfRangeError(f"s = {s} outside [0, {self.total_measure}]")
        if s is INF:
            return self.integral()
        acc, remaining = ZERO, s
        for value, mass in self.pieces:
            if remaining <= 0:
                break
            take = mass if mass < remaining else remaining
            acc += value * take
            remaining -= take
        return acc

    def hinge_integral(self, u) -> Fraction:
        """Integral of max(f - u, 0) over the whole space."""
        u = as_fraction(u)
        if self.infinite and u < 0:
            raise DivergentHingeError(
                f"hinge at u = {u} < 0 diverges on an infinite measure space"
            )
        return sum(((p.value - u) * p.mass for p in self.pieces if p.value > u), ZERO)

    def tail_distribution_integral(self, u) -> Fraction:
        """Integral of the distribution function over [u, +oo).

        Computed directly by summing the distribution function over its
        constancy intervals; an independent route to the same quantity as
        :meth:`hinge_integral`.
        """
        u = as_fraction(u)
        if self.infinite and u < 0:
            raise DivergentHingeError(
                f"tail integral from u = {u} < 0 diverges on an infinite measure space"
            )
        cuts = sorted({p.value for p in self.pieces if p.value > u})
        acc, lo = ZERO, u
        for hi in cuts:
            acc += self.distribution(lo) * (hi - lo)
            lo = hi
        return acc

    def ess_sup(self) -> Fraction:
        """Largest value attained on a set of positive measure (0 if none)."""
        return self.pieces[0].value if self.pieces else ZERO

    def __str__(self) -> str:
        body = " + ".join(f"{p.value}*chi[{p.mass}]" for p in self.pieces) or "0"
        return f"{body} on total {self.total_measure}"


def canonicalize(raw_pieces: Iterable, total) -> StepFunction:
    """Build the canonical StepFunction from raw (value, mass) pairs.

    Equal values are merged, pieces are sorted by strictly decreasing value,
    zero pieces are absorbed into the tail on infinite spaces, and on finite
    spaces any unassigned remainder of the space becomes an explicit zero
    piece (the function is zero where unspecified). Idempotent. Every input
    rule is checked here and nowhere else: a :class:`StepFunction` built
    directly runs this function on its pieces.
    """
    total = as_extended(total)
    infinite = total is INF
    # keyed on (numerator, denominator): hashing a Fraction takes a modular
    # inverse of its denominator, hashing a pair of ints does not
    merged: dict = {}
    for value, mass in raw_pieces:
        if type(value) is not Fraction:
            value = as_fraction(value)
        if type(mass) is not Fraction:
            mass = as_fraction(mass)
        # merging could hide a nonpositive mass
        if mass.numerator <= 0:
            raise NegativeMassError(f"mass {mass} must be positive")
        key = value.as_integer_ratio()
        level = merged.get(key)
        if level is None:
            merged[key] = [value, mass]
        else:
            level[1] += mass
    if infinite:
        merged.pop(_ZERO_KEY, None)
    else:
        if total < 0:
            raise MassExceedsTotalError(f"total measure {total} must be nonnegative")
        supp = exact_sum([mass for _, mass in merged.values()])
        if supp > total:
            raise MassExceedsTotalError(f"masses sum to {supp} > total measure {total}")
        if supp < total:
            zero = merged.get(_ZERO_KEY)
            if zero is None:
                merged[_ZERO_KEY] = [ZERO, total - supp]
            else:
                zero[1] += total - supp
    # sorted on floor(value * 2^64), which never decreases as the value grows,
    # then on the value itself, compared only between values closer than
    # 2^-64; values are distinct, so masses are never compared. The floor is
    # at most 64 bits longer than the value, where a key over the lcm of all
    # value denominators would grow with their number. Tuples, not a key
    # function: the sort makes no Python call unless two floors tie.
    levels = sorted(
        [((n << 64) // d, value, mass) for (n, d), (value, mass) in merged.items()],
        reverse=True,
    )
    if infinite and levels and levels[-1][0] < 0:
        negative = next(value for key, value, _ in levels if key < 0)
        raise NegativeValueOnInfiniteSpaceError(
            f"value {negative} < 0 on an infinite measure space"
        )
    return StepFunction._trusted(
        tuple([Piece(value, mass) for _, value, mass in levels]), total
    )


_ZERO_KEY = (0, 1)


def _in_order(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> Iterator[Tuple[int, int, Fraction]]:
    """Lay two sequences of positive masses left to right from 0 and walk both.

    Yields ``(i, j, mass)`` for each segment of the common refinement, in
    order: the segment lies in the i-th mass of ``a`` and the j-th mass of
    ``b``. Past the end of the shorter sequence its index equals its length,
    so the segments cover both sequences whole.
    """
    i = j = 0
    left_a = a[0] if a else ZERO
    left_b = b[0] if b else ZERO
    while i < len(a) or j < len(b):
        take = left_a if j == len(b) or (i < len(a) and left_a < left_b) else left_b
        yield i, j, take
        # a segment that ends a mass advances without a Fraction subtraction
        if i < len(a):
            if left_a == take:
                i += 1
                left_a = a[i] if i < len(a) else ZERO
            else:
                left_a -= take
        if j < len(b):
            if left_b == take:
                j += 1
                left_b = b[j] if j < len(b) else ZERO
            else:
                left_b -= take


def indicator(mass, total=INF) -> StepFunction:
    """Indicator function of a set of the given measure."""
    return canonicalize([(Fraction(1), mass)], total)

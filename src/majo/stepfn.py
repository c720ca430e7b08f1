"""Exact step functions on finite or sigma-finite measure spaces.

A step function is stored as its level sets: ``(value, mass)`` pairs with
positive rational masses, sorted by strictly decreasing value. On a space of
infinite total measure the remainder of the space is an implicit zero tail
(never stored), and all values must be nonnegative. Only the masses of level
sets matter; the geometry of the underlying sets never enters a computation,
so the canonical piece order *is* the decreasing rearrangement.

The stored form is integers: each value and mass is a pair (numerator,
positive denominator) in lowest terms, so two functions are equal exactly
when their pairs and totals are. :attr:`StepFunction.pieces`, the same level
sets as ``Fraction``s, is built from the pairs when it is first read.
``_canonical`` puts raw pairs in canonical form, with the pair arithmetic of
``extended``; the text loader feeds it the pairs it reads,
``WitnessChain.apply_to`` its mixed values and atoms, and :func:`canonicalize`
the ratios of its coerced inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    Pair,
    _as_ratio,
    _Ratio,
    _reduced,
    _shown,
    _sum,
    as_extended,
    as_fraction,
)

ZERO = Fraction(0)

Level = Tuple[Pair, Pair]  # (value, mass), each in lowest terms


class _BuiltOnFirstRead:
    """A dataclass field that takes a value or a function building it; the
    function is called on the first read of the field, and its result kept."""

    def __set_name__(self, owner, name: str):
        self.key = "_" + name

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(self.key)  # the field has no default
        value = instance.__dict__[self.key]
        if callable(value):
            value = instance.__dict__[self.key] = value()
        return value

    def __set__(self, instance, value):
        instance.__dict__[self.key] = value


class Piece(NamedTuple):
    """One level set: the function takes ``value`` on a set of measure ``mass``."""

    value: Fraction
    mass: Fraction


def _pieces(levels: Tuple[Level, ...]) -> Tuple[Piece, ...]:
    return tuple([
        Piece(Fraction(_Ratio(*value)), Fraction(_Ratio(*mass))) for value, mass in levels
    ])


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Canonical exact representation of an integrable step function.

    Construct through :func:`canonicalize`. Direct construction is
    ``canonicalize`` plus a comparison: it raises what ``canonicalize``
    raises on the same pieces and total, and :class:`NonCanonicalError`
    unless ``canonicalize`` gives those pieces back unchanged.

    The level sets are stored as ``_levels``, integer pairs in lowest terms
    (module docstring); ``pieces`` is built from them on its first read.
    Equality and hashing compare the pairs and the total.
    """

    pieces: Tuple[Piece, ...] = _BuiltOnFirstRead()
    total_measure: ExtendedRational

    def __post_init__(self):
        # built from a list, not a generator, as in extended._scale_ratios
        pieces = tuple([Piece(as_fraction(v), as_fraction(m)) for v, m in self.pieces])
        total = as_extended(self.total_measure)
        levels = tuple([(v.as_integer_ratio(), m.as_integer_ratio()) for v, m in pieces])
        if _canonical(levels, total)._levels != levels:
            raise NonCanonicalError(
                "pieces are not in canonical form: merged, sorted by strictly "
                "decreasing value, with no zero piece on an infinite space and "
                "tiling a finite one; build through canonicalize"
            )
        vars(self).update(_levels=levels, _pieces=pieces, total_measure=total)

    @classmethod
    def _trusted(cls, levels: Tuple[Level, ...], total: ExtendedRational):
        """Build from integer levels the caller has already put in canonical form."""
        function = object.__new__(cls)
        vars(function).update(
            _levels=levels, _pieces=partial(_pieces, levels), total_measure=total
        )
        return function

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._levels == other._levels and self.total_measure == other.total_measure

    def __hash__(self):
        return hash((self._levels, self.total_measure))

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
    directly runs this function on its pieces. Each piece is coerced as the
    integer core reaches it, so an error names the first bad piece in order.
    """
    total = as_extended(total)
    return _canonical(
        ((_as_ratio(value), _as_ratio(mass)) for value, mass in raw_pieces), total
    )


def _canonical(levels: Iterable[Level], total: ExtendedRational) -> StepFunction:
    """The integer core of :func:`canonicalize`, on (value, mass) pairs in
    lowest terms with positive denominators, and a coerced total.

    Merges on the value pairs, summing a repeated value's masses over the lcm
    of their denominators, and tiles a finite space with one such sum; only
    an error message builds a ``Fraction``.
    """
    infinite = total is INF
    merged: dict = {}
    repeated: dict = {}  # value -> its masses, for a value given more than once
    for value, mass in levels:
        # merging could hide a nonpositive mass
        if mass[0] <= 0:
            raise NegativeMassError(f"mass {_shown(_Ratio(*mass))} must be positive")
        first = merged.get(value)
        if first is None:
            merged[value] = mass
        else:
            repeated.setdefault(value, [first]).append(mass)
    for value, masses in repeated.items():
        merged[value] = _reduced(*_sum(masses))
    if infinite:
        merged.pop(_ZERO_KEY, None)
    else:
        if total < 0:
            raise MassExceedsTotalError(f"total measure {total} must be nonnegative")
        sn, sd = _sum(merged.values())
        tn, td = total.as_integer_ratio()
        rest = tn * sd - sn * td  # the total minus the support, times sd·td
        if rest < 0:
            raise MassExceedsTotalError(
                f"masses sum to {_shown(Fraction(sn, sd))} > total measure {total}"
            )
        if rest:
            zero = merged.get(_ZERO_KEY)
            rest = _reduced(rest, sd * td)
            merged[_ZERO_KEY] = rest if zero is None else _reduced(*_sum([zero, rest]))
    # sorted on floor(value * 2^64), which never decreases as the value grows;
    # the floor is at most 64 bits longer than the value, where a key over the
    # lcm of all value denominators would grow with their number. Distinct
    # floors sort as ints, with no Python call; values closer than 2^-64 can
    # share a floor, and then the levels sort on the exact value.
    keyed = {(v[0] << 64) // v[1]: (v, m) for v, m in merged.items()}
    if len(keyed) == len(merged):
        ordered = tuple([level for _, level in sorted(keyed.items(), reverse=True)])
    else:
        ordered = tuple(
            sorted(merged.items(), key=lambda level: Fraction(*level[0]), reverse=True)
        )
    # the lowest value comes last; a pair's numerator carries its sign
    if infinite and ordered and ordered[-1][0][0] < 0:
        negative = next(value for value, _ in ordered if value[0] < 0)
        raise NegativeValueOnInfiniteSpaceError(
            f"value {_shown(_Ratio(*negative))} < 0 on an infinite measure space"
        )
    return StepFunction._trusted(ordered, total)


_ZERO_KEY = (0, 1)


def _in_order(a: Sequence, b: Sequence) -> Iterator[Tuple[int, int, object]]:
    """Lay two sequences of positive masses left to right from 0 and walk both.

    Yields ``(i, j, mass)`` for each segment of the common refinement, in
    order: the segment lies in the i-th mass of ``a`` and the j-th mass of
    ``b``. Past the end of the shorter sequence its index equals its length,
    so the segments cover both sequences whole. Masses and segments are ints
    or ``Fraction``s. The one walk of a common refinement in the package:
    the rearrangement criterion, ``ds_witness``, ``l1_distance``,
    ``partition_average`` and ``partition_average_matrix`` read it.
    """
    n, m = len(a), len(b)
    i = j = 0
    left_a = a[0] if n else 0  # what is left of the current masses; 0 past the last
    left_b = b[0] if m else 0
    while i < n or j < m:
        take = left_a if j == m or (i < n and left_a < left_b) else left_b
        yield i, j, take
        # a segment that ends a mass advances without a subtraction
        if i < n:
            if left_a == take:
                i += 1
                left_a = a[i] if i < n else 0
            else:
                left_a -= take
        if j < m:
            if left_b == take:
                j += 1
                left_b = b[j] if j < m else 0
            else:
                left_b -= take


def indicator(mass, total=INF) -> StepFunction:
    """Indicator function of a set of the given measure."""
    return canonicalize([(Fraction(1), mass)], total)

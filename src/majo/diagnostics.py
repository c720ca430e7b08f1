"""Quantitative equi-integrability diagnostics for families of step functions.

An image of f under a semi-doubly stochastic operator is majorized by f, so
its small-set modulus, the integral of its decreasing rearrangement over
[0, delta], is at most f's: K(delta, f; L1, L-inf) = min over c of
hinge(f, c) + c * delta. For nonnegative f this is the largest integral of f
over a set of measure at most delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DeltaOutOfRangeError, EmptyFamilyError
from .extended import as_fraction
from .majorize import _require_same_total
from .stepfn import ZERO, StepFunction, _in_order


def small_set_modulus(h: StepFunction, delta) -> Fraction:
    """The integral of the decreasing rearrangement h* over [0, delta].

    For nonnegative h this is the largest integral of h over a measurable
    set of measure at most delta. For signed h it can be smaller: on a
    negative h* it is negative, while the empty set integrates to 0.
    """
    delta = as_fraction(delta)
    if delta < 0 or delta > h.total_measure:
        raise DeltaOutOfRangeError(f"delta = {delta} outside [0, {h.total_measure}]")
    return h.partial_integral(delta)


@dataclass(frozen=True)
class EquiIntegrabilityReport:
    """Worst small-set integral over a family, against its certified bound.

    A family whose modulus vanishes as delta does is equi-integrable; on a
    finite measure space a norm-bounded equi-integrable family is relatively
    weakly compact. The report only quantifies the modulus and bound; the
    compactness consequence is recorded here, not computed.
    """

    delta: Fraction
    modulus: Fraction
    bound: Fraction
    family_size: int

    @property
    def within_bound(self) -> bool:
        return self.modulus <= self.bound


def equi_modulus(
    family: Sequence[StepFunction], delta, source: StepFunction
) -> EquiIntegrabilityReport:
    """Small-set modulus of a family against the modulus of its source.

    Each function is read at ``min(delta, total)`` for its own total: past a
    finite total, its modulus is its integral. ``bound`` is the source's; it
    holds for every image of ``source`` under a semi-doubly stochastic
    operator. Past a finite source's total, a nonnegative source reads as
    extended by zero; a signed one cannot, so a member on another total
    raises :class:`MeasureMismatchError`. A negative delta is out of range.
    """
    family = list(family)
    if not family:
        raise EmptyFamilyError("equi-integrability of an empty family")
    delta = as_fraction(delta)
    for h in family:
        _require_comparable(h, source)
    modulus = max(small_set_modulus(h, min(delta, h.total_measure)) for h in family)
    bound = small_set_modulus(source, min(delta, source.total_measure))
    return EquiIntegrabilityReport(
        delta=delta, modulus=modulus, bound=bound, family_size=len(family)
    )


def _require_comparable(h: StepFunction, source: StepFunction) -> None:
    """Refuse a family member on another total than a signed source."""
    if source.pieces and source.pieces[-1].value < 0:
        _require_same_total(h, source)


def l1_distance(f: StepFunction, g: StepFunction) -> Fraction:
    """L1 distance of the canonical layouts over their common refinement.

    Both functions are laid out as their rearrangements on [0, total); the
    piece masses of both induce the common refinement on which the pointwise
    difference is constant per segment (zero past a support).
    """
    _require_same_total(f, g)
    a, b = f.values() + (ZERO,), g.values() + (ZERO,)
    segments = _in_order([p.mass for p in f.pieces], [p.mass for p in g.pieces])
    return sum((abs(a[i] - b[j]) * mass for i, j, mass in segments), ZERO)

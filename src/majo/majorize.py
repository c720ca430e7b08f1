"""Decide majorization by each of its equivalent criteria, with certificates.

For step functions both sides of every criterion are piecewise linear in the
scan parameter (s for partial integrals, u for hinge and tail integrals), so
the union of the breakpoints of both sides is a complete test set: the
difference is piecewise linear and attains its extrema at breakpoints. Every
verdict therefore carries either the full list of checked breakpoints or a
single violating point that re-verifies by direct evaluation.

Each criterion evaluates a function at all of its breakpoints in one ordered
sweep with running sums, rather than evaluating each point from scratch:

* rearrangement: one forward pass over the sorted cumulative masses of f and
  g, carrying the integral up to the current piece;
* hinge: one downward pass over the value grid, carrying W = sum v*m and
  M = sum m over the pieces above u, so the hinge integral is W - u*M;
* tail distribution: one downward pass carrying the mass above u and adding
  one layer of the layer-cake sum per grid step.

A sweep costs one sort of the m + n breakpoints plus O(m + n) exact rational
operations per function. The three sweeps share only their grids, so
:func:`cross_check` still compares independent computations; the direct
per-point evaluators on :class:`StepFunction` re-verify any certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import (
    InternalInconsistencyError,
    MeasureMismatchError,
    SignednessViolationError,
)
from .extended import INF, ExtendedRational
from .stepfn import ZERO, StepFunction


class Criterion(enum.Enum):
    REARRANGEMENT = "rearrangement"
    TAIL_DISTRIBUTION = "tail-distribution"
    HINGE = "hinge"


class Relation(enum.Enum):
    LE = "<="
    EQ = "=="


@dataclass(frozen=True)
class CheckPoint:
    """One evaluated comparison: left vs right at a scan point."""

    point: object  # Fraction or INF
    left: Fraction
    right: Fraction
    relation: Relation = Relation.LE

    @property
    def satisfied(self) -> bool:
        if self.relation is Relation.LE:
            return self.left <= self.right
        return self.left == self.right


@dataclass(frozen=True)
class MajorizationVerdict:
    """Decision plus certificate.

    When ``holds`` is false, ``violation`` is the first failing checkpoint
    and re-verifies by evaluating both sides at that point. When true,
    ``checked`` covers every slope change of both sides.
    """

    holds: bool
    criterion: Criterion
    weak: bool
    checked: Tuple[CheckPoint, ...]
    violation: CheckPoint | None = None


@dataclass(frozen=True)
class CrossCheckReport:
    """Agreement report for the three exact criteria."""

    holds: bool
    weak: bool
    verdicts: Tuple[MajorizationVerdict, ...]


def _require_same_total(f: StepFunction, g: StepFunction) -> None:
    if f.total_measure != g.total_measure:
        raise MeasureMismatchError(
            f"total measures differ: {f.total_measure} vs {g.total_measure}"
        )


def _require_nonnegative(f: StepFunction, g: StepFunction) -> None:
    if not (f.nonnegative and g.nonnegative):
        raise SignednessViolationError("this criterion requires nonnegative functions")


def _decide(criterion: Criterion, weak: bool, points) -> MajorizationVerdict:
    checked = tuple(points)
    violation = next((p for p in checked if not p.satisfied), None)
    return MajorizationVerdict(
        holds=violation is None,
        criterion=criterion,
        weak=weak,
        checked=checked,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# partial-integral (rearrangement) criterion
# ---------------------------------------------------------------------------


def _partial_points(f: StepFunction, g: StepFunction):
    cuts = {ZERO}
    cuts.update(f.cumulative_masses())
    cuts.update(g.cumulative_masses())
    endpoint: ExtendedRational = f.total_measure
    points = sorted(cuts) + ([INF] if endpoint is INF else [])
    if endpoint is not INF and endpoint not in cuts:
        points.append(endpoint)
    return map(CheckPoint, points, _partial_sweep(f, points), _partial_sweep(g, points))


def _partial_sweep(h: StepFunction, points):
    """Integral of h's rearrangement over [0, s] for each s of an ascending list."""
    pieces, k = h.pieces, 0
    base = start = ZERO  # integral over [0, start), start = left end of piece k
    end = pieces[0].mass if pieces else None
    out = []
    for s in points:
        while end is not None and end <= s:
            base += pieces[k].value * pieces[k].mass
            start, k = end, k + 1
            end = start + pieces[k].mass if k < len(pieces) else None
        out.append(base if end is None or s == start
                   else base + pieces[k].value * (s - start))
    return out


def weak_majorize(f: StepFunction, g: StepFunction) -> MajorizationVerdict:
    """Decide f <w g: partial integrals of the rearrangements never cross."""
    _require_same_total(f, g)
    return _decide(Criterion.REARRANGEMENT, True, _partial_points(f, g))


def majorize(f: StepFunction, g: StepFunction) -> MajorizationVerdict:
    """Decide f < g: weak majorization plus exactly equal total integrals."""
    _require_same_total(f, g)
    points = list(_partial_points(f, g))
    last = points[-1]  # at the endpoint (or INF): both full integrals
    points.append(CheckPoint(f.total_measure, last.left, last.right, Relation.EQ))
    return _decide(Criterion.REARRANGEMENT, False, points)


# ---------------------------------------------------------------------------
# hinge and tail-distribution criteria
# ---------------------------------------------------------------------------


def _value_grid(f: StepFunction, g: StepFunction):
    cuts = {ZERO}
    cuts.update(v for v in f.values())
    cuts.update(v for v in g.values())
    return sorted(cuts)


def _scan_points(f, g, sweep, weak: bool):
    grid = _value_grid(f, g)
    for u, left, right in zip(grid, sweep(f, grid), sweep(g, grid)):
        if u == 0 and not weak:
            yield CheckPoint(u, left, right, Relation.EQ)
        else:
            yield CheckPoint(u, left, right)


def _hinge_sweep(h: StepFunction, grid):
    """Integral of (h - u)+ for each u of any ascending grid.

    Negative points are valid only on a finite space, where signed sources
    put them on the grid.
    """
    pieces, k = h.pieces, 0
    weight = mass = ZERO  # sum of v*m and of m over the pieces with v > u
    out = []
    for u in reversed(grid):
        while k < len(pieces) and pieces[k].value > u:
            weight += pieces[k].value * pieces[k].mass
            mass += pieces[k].mass
            k += 1
        out.append(weight - u * mass)
    return out[::-1]


def _tail_sweep(h: StepFunction, grid):
    """Integral of d_h over [u, oo) for each u of an ascending grid holding h's values.

    Between two grid points d_h is constant, equal to the mass strictly above
    the lower point, so each step adds one layer of the layer-cake sum.
    """
    pieces, k = h.pieces, 0
    above = tail = ZERO  # mass strictly above u, integral of d_h over [u, oo)
    previous = grid[-1]
    out = []
    for u in reversed(grid):
        while k < len(pieces) and pieces[k].value > u:
            above += pieces[k].mass
            k += 1
        tail += above * (previous - u)
        out.append(tail)
        previous = u
    return out[::-1]


def hinge_criterion(
    f: StepFunction, g: StepFunction, *, weak: bool = False
) -> MajorizationVerdict:
    """Decide majorization through the hinge integrals u -> integral (f-u)+.

    The inequality is checked on the union of the piece values of f and g
    (the hinge difference is piecewise linear in u with breakpoints there);
    u = 0 carries the equal-integrals clause unless ``weak``.
    """
    _require_same_total(f, g)
    _require_nonnegative(f, g)
    points = _scan_points(f, g, _hinge_sweep, weak)
    return _decide(Criterion.HINGE, weak, points)


def tail_distribution_criterion(
    f: StepFunction, g: StepFunction, *, weak: bool = False
) -> MajorizationVerdict:
    """Decide majorization through tail integrals of the distribution function.

    Evaluates integral_u^oo d_f exactly by summing the distribution function
    over its constancy intervals, an independent computation that must agree
    with :func:`hinge_criterion` everywhere.
    """
    _require_same_total(f, g)
    _require_nonnegative(f, g)
    points = _scan_points(f, g, _tail_sweep, weak)
    return _decide(Criterion.TAIL_DISTRIBUTION, weak, points)


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------


def cross_check(
    f: StepFunction, g: StepFunction, *, weak: bool = False
) -> CrossCheckReport:
    """Run the three exact criteria and require unanimous agreement.

    A disagreement is an implementation bug, never a mathematical state, and
    raises :class:`InternalInconsistencyError` carrying all certificates.
    """
    _require_same_total(f, g)
    _require_nonnegative(f, g)
    rearr = weak_majorize(f, g) if weak else majorize(f, g)
    verdicts = (
        rearr,
        hinge_criterion(f, g, weak=weak),
        tail_distribution_criterion(f, g, weak=weak),
    )
    answers = {v.holds for v in verdicts}
    if len(answers) != 1:
        raise InternalInconsistencyError(
            "equivalent majorization criteria disagree: "
            + ", ".join(f"{v.criterion.value}={v.holds}" for v in verdicts),
            verdicts=verdicts,
        )
    return CrossCheckReport(holds=verdicts[0].holds, weak=weak, verdicts=verdicts)

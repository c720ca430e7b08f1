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

The sweeps run on integers over scales shared by the pair: every mass of f
and g times the lcm of their mass denominators, every value times the lcm of
their value denominators. Breakpoints are then integers over one scale and
criterion values integers over the product of both, so the first violation
is found by integer comparison. A sweep costs one sort of the m + n
breakpoints plus O(m + n) integer operations per function. Only the violating
checkpoint is built as ``Fraction``s at once. The certificate of every
breakpoint, :attr:`MajorizationVerdict.checked`, is built when first read,
by the same sweep on the exact values.

That is a trade. A caller that only reads ``holds`` and ``violation`` runs
only the integer sweep. A caller that reads ``checked`` too, as ``majo check
--json`` does, runs both sweeps and pays about 13 % more than a single eager
``Fraction`` sweep: ``cross_check`` plus a read of every certificate takes
1.62 ms per pair on the seed-1 ``decide`` pool, against 1.43 ms, and 8.65 s
against 8.2 s on a 2000-piece pair with 4-digit prime denominators.

The pair is put on its integer scales once per call, in :func:`_scaled`:
each public criterion scales it for itself, and :func:`cross_check` scales it
once for all three criteria, as they would share a common denominator. Each
criterion still runs its own sweep on the scaled pair, so :func:`cross_check`
compares independent computations. The direct per-point evaluators on
:class:`StepFunction` re-verify any certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, count
from operator import gt
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError, MeasureMismatchError
from .extended import INF, common_scale
from .stepfn import StepFunction


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


@dataclass(frozen=True)
class MajorizationVerdict:
    """Decision plus certificate.

    When ``holds`` is false, ``violation`` is the first failing checkpoint
    and re-verifies by evaluating both sides at that point. When true,
    ``checked`` covers every slope change of both sides. ``checked`` may be
    given as a function returning the tuple, which is then called on the
    first read; equality, hashing and the repr read it too.
    """

    holds: bool
    criterion: Criterion
    weak: bool
    checked: Tuple[CheckPoint, ...] = _BuiltOnFirstRead()
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


# A function as its decreasing piece values and their masses, both in one
# exact number type: scaled ints to decide, Fractions to certify.
Levels = Tuple[Sequence, Sequence]
# (points, left, right, index of the equality clause or None)
Layout = Tuple[list, list, list, Optional[int]]
Scaled = Tuple[int, int, Levels, Levels]  # as _scaled returns it


def _scaled(f: StepFunction, g: StepFunction) -> Scaled:
    """The pair on shared integer scales: (mass scale, value scale, f, g), with
    every mass of f and g times the lcm of their mass denominators and every
    value times the lcm of their value denominators. On a finite space the
    masses tile the total, so it is on the mass scale too.

    The one place a pair is put on integers: unequal totals are refused
    first, then one :func:`common_scale` runs over the values of both
    functions and one over their masses. A caller that runs several sweeps
    on one pair scales it once and passes the result to each."""
    _require_same_total(f, g)
    pieces = f.pieces + g.pieces
    value_scale, values = common_scale([v for v, _ in pieces])
    mass_scale, masses = common_scale([m for _, m in pieces])
    n = len(f.pieces)
    return mass_scale, value_scale, (values[:n], masses[:n]), (values[n:], masses[n:])


def _levels(h: StepFunction) -> Levels:
    return [v for v, _ in h.pieces], [m for _, m in h.pieces]


def _decide(
    criterion: Criterion,
    weak: bool,
    f: StepFunction,
    g: StepFunction,
    scaled: Scaled,
) -> MajorizationVerdict:
    """Verdict from a criterion's layout on ``scaled``, the pair as
    :func:`_scaled` gives it; a caller scales the pair once for all the
    criteria it runs.

    The criterion's layout (:data:`_LAYOUTS`) gives the scan points and both
    sides at each, in the number type of the levels it is given. On the
    integers a point is over the mass scale (rearrangement) or the value
    scale (hinge, tail), and a side over the product of both. The first
    violation is found there by integer comparison and built at once. The
    full certificate is the same layout on the exact ``Fraction`` levels, run
    when ``checked`` is first read: adding small exact terms normalizes far
    more cheaply than reducing every integer by the whole scale, whose gcds
    grow with the square of its length. A reader of ``checked`` so runs the
    layout twice (see the module docstring for what that costs).
    """
    mass_scale, value_scale, f_scaled, g_scaled = scaled
    layout = _LAYOUTS[criterion]
    infinite = f.infinite
    points, left, right, eq = layout(f_scaled, g_scaled, infinite, weak)
    first = next(compress(count(), map(gt, left, right)), None)
    if eq is not None and left[eq] != right[eq] and (first is None or eq < first):
        first = eq
    violation = None
    if first is not None:
        point = points[first]
        if point is not INF:
            rearrangement = criterion is Criterion.REARRANGEMENT
            point = Fraction(point, mass_scale if rearrangement else value_scale)
        violation = CheckPoint(
            point,
            Fraction(left[first], mass_scale * value_scale),
            Fraction(right[first], mass_scale * value_scale),
            Relation.EQ if first == eq else Relation.LE,
        )

    def certificate() -> Tuple[CheckPoint, ...]:
        points, left, right, eq = layout(_levels(f), _levels(g), infinite, weak)
        # Fraction(): an empty sum, and the point 0, are the int 0
        return tuple(
            CheckPoint(
                p if p is INF else Fraction(p),
                Fraction(a),
                Fraction(b),
                Relation.EQ if i == eq else Relation.LE,
            )
            for i, (p, a, b) in enumerate(zip(points, left, right))
        )

    return MajorizationVerdict(
        holds=first is None,
        criterion=criterion,
        weak=weak,
        checked=certificate,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# partial-integral (rearrangement) criterion
# ---------------------------------------------------------------------------


def _partial_layout(f: Levels, g: Levels, infinite: bool, weak: bool) -> Layout:
    """Partial integrals at 0 and every cumulative mass of f and g, then at INF
    on an infinite space; unless ``weak``, the endpoint once more for the
    equal-integrals clause. On a finite space the last cumulative mass is the
    total; at it, and at INF, both sweeps have reached the full integrals."""
    (fv, fm), (gv, gm) = f, g
    points = sorted({0, *accumulate(fm), *accumulate(gm)})
    left, right = _partial_sweep(fv, fm, points), _partial_sweep(gv, gm, points)
    if infinite:
        points.append(INF)
    if not weak:  # the endpoint again, for the equality clause
        points.append(points[-1])
    left += [left[-1]] * (len(points) - len(left))
    right += [right[-1]] * (len(points) - len(right))
    return points, left, right, None if weak else len(points) - 1


def _partial_sweep(values: Sequence, masses: Sequence, points) -> list:
    """Integral of the rearrangement over [0, s] for each s of an ascending list.

    On scaled integers an integral comes out on the product of the value and
    mass scales.
    """
    n, k = len(masses), 0
    base = start = 0  # integral over [0, start), start = left end of piece k
    end = masses[0] if n else None
    out = []
    for s in points:
        while end is not None and end <= s:
            base += values[k] * masses[k]
            start, k = end, k + 1
            end = start + masses[k] if k < n else None
        integral = base if end is None or s == start else base + values[k] * (s - start)
        out.append(integral)
    return out


def weak_majorize(f: StepFunction, g: StepFunction) -> MajorizationVerdict:
    """Decide f <w g: partial integrals of the rearrangements never cross."""
    return _decide(Criterion.REARRANGEMENT, True, f, g, _scaled(f, g))


def majorize(f: StepFunction, g: StepFunction) -> MajorizationVerdict:
    """Decide f < g: weak majorization plus exactly equal total integrals.

    The first read of the verdict's ``checked`` runs the sweep again on
    ``Fraction``s, so reading every certificate costs more than deciding.
    """
    return _decide(Criterion.REARRANGEMENT, False, f, g, _scaled(f, g))


# ---------------------------------------------------------------------------
# hinge and tail-distribution criteria
# ---------------------------------------------------------------------------


def _value_layout(sweep, f: Levels, g: Levels, infinite: bool, weak: bool) -> Layout:
    """A criterion swept over the value grid of a pair: its piece values and 0.

    Unless ``weak``, the first grid point carries the equal-integrals clause.
    On a finite space of total T it lies at or below every value, where the
    hinge and the tail integral are the integral minus u*T, so equal sides
    there mean equal integrals; on an infinite space it is u = 0.
    """
    grid = sorted({0, *f[0], *g[0]})
    return grid, sweep(*f, grid), sweep(*g, grid), None if weak else 0


def _hinge_sweep(values: Sequence, masses: Sequence, grid) -> list:
    """Integral of (h - u)+ for each u of any ascending grid, h given by its
    decreasing values and their masses; on scaled integers the results are on
    the product scale.

    Negative points are valid only on a finite space, where signed functions
    put them on the grid.
    """
    n, k = len(values), 0
    weight = mass = 0  # sum of v*m and of m over the pieces with v > u
    out = []
    for u in reversed(grid):
        while k < n and values[k] > u:
            weight += values[k] * masses[k]
            mass += masses[k]
            k += 1
        out.append(weight - u * mass)
    out.reverse()
    return out


def _tail_sweep(values: Sequence, masses: Sequence, grid) -> list:
    """Integral of d_h over [u, oo) for each u of an ascending grid holding h's
    values; on scaled integers the results are on the product scale.

    Between two grid points d_h is constant, equal to the mass strictly above
    the lower point, so each step adds one layer of the layer-cake sum.
    """
    n, k = len(values), 0
    above = tail = 0  # mass strictly above u, integral of d_h over [u, oo)
    previous = grid[-1]
    out = []
    for u in reversed(grid):
        while k < n and values[k] > u:
            above += masses[k]
            k += 1
        tail += above * (previous - u)
        out.append(tail)
        previous = u
    out.reverse()
    return out


def hinge_criterion(
    f: StepFunction, g: StepFunction, *, weak: bool = False
) -> MajorizationVerdict:
    """Decide majorization through the hinge integrals u -> integral (f-u)+.

    The inequality is checked on the union of the piece values of f and g
    and 0 (the hinge difference is piecewise linear in u with breakpoints
    there); the smallest of them carries the equal-integrals clause unless
    ``weak``. Values of both signs are allowed on a finite space.
    """
    return _decide(Criterion.HINGE, weak, f, g, _scaled(f, g))


def tail_distribution_criterion(
    f: StepFunction, g: StepFunction, *, weak: bool = False
) -> MajorizationVerdict:
    """Decide majorization through tail integrals of the distribution function.

    Evaluates integral_u^oo d_f exactly by summing the distribution function
    over its constancy intervals, an independent computation that must agree
    with :func:`hinge_criterion` everywhere.
    """
    return _decide(Criterion.TAIL_DISTRIBUTION, weak, f, g, _scaled(f, g))


# Each criterion's layout, in the order cross_check reports them.
_LAYOUTS: Dict[Criterion, Callable[[Levels, Levels, bool, bool], Layout]] = {
    Criterion.REARRANGEMENT: _partial_layout,
    Criterion.HINGE: partial(_value_layout, _hinge_sweep),
    Criterion.TAIL_DISTRIBUTION: partial(_value_layout, _tail_sweep),
}


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------


def cross_check(
    f: StepFunction, g: StepFunction, *, weak: bool = False
) -> CrossCheckReport:
    """Run the three exact criteria and require unanimous agreement.

    A disagreement is an implementation bug, never a mathematical state, and
    raises :class:`InternalInconsistencyError` carrying all certificates.
    The pair is scaled once; each criterion runs its own sweep on it.
    """
    scaled = _scaled(f, g)
    verdicts = tuple([_decide(c, weak, f, g, scaled) for c in _LAYOUTS])
    answers = {v.holds for v in verdicts}
    if len(answers) != 1:
        raise InternalInconsistencyError(
            "equivalent majorization criteria disagree: "
            + ", ".join(f"{v.criterion.value}={v.holds}" for v in verdicts),
            verdicts=verdicts,
        )
    return CrossCheckReport(holds=verdicts[0].holds, weak=weak, verdicts=verdicts)

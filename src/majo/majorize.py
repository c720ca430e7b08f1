"""Decide majorization by each of its equivalent criteria, with certificates.

For step functions both sides of every criterion are piecewise linear in the
scan parameter (s for partial integrals, u for hinge and tail integrals), so
the union of the breakpoints of both sides is a complete test set: the
difference is piecewise linear and attains its extrema at breakpoints. Every
verdict therefore carries either the full list of checked breakpoints or a
single violating point that re-verifies by direct evaluation.

Each criterion is one ordered sweep over the breakpoints of f and g with
running sums, comparing the two sides at each point as it reaches it:

* rearrangement: a two-pointer merge of the ascending cumulative masses of f
  and g, carrying each integral up to the left end of its current piece;
* hinge: one upward pass over the sorted value grid, from W = sum v*m and
  M = sum m over every piece, dropping each piece as u reaches its value, so
  the hinge integral is W - u*M;
* tail distribution: one downward pass carrying the mass above u and adding
  one layer of the layer-cake sum per grid step.

To decide, a sweep stops at the first violation; the tail sums build from the
top, so its pass keeps the lowest violation it meets. To certify, the same
sweep runs to the end and appends every breakpoint to a list. A sweep costs
O(m + n) integer operations for m and n level sets, after a sort of the
value grid. The decision runs on integers: :func:`_scaled` puts the integer
pairs each :class:`StepFunction` stores on shared scales once per call, and
only the violation is built as ``Fraction``s, so deciding never builds the
functions' ``pieces``. The certificate, :attr:`MajorizationVerdict.checked`,
is the full sweep on the exact values, run when first read, so a caller that
reads it (``majo check --json``) pays for that sweep, and for both functions'
``pieces``, on top of the decision.
:func:`cross_check` scales the pair once for all three criteria, and each
still runs its own sweep on it, so it compares independent computations. The
direct per-point evaluators on :class:`StepFunction` re-verify any
certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError, MeasureMismatchError
from .extended import INF, _scale_ratios
from .stepfn import StepFunction, _BuiltOnFirstRead


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
Point = Tuple[object, object, object, Relation]  # point, left, right, relation
Scaled = Tuple[int, int, Levels, Levels]  # as _scaled returns it
LE, EQ = Relation.LE, Relation.EQ


def _scaled(f: StepFunction, g: StepFunction) -> Scaled:
    """The pair on shared integer scales: (mass scale, value scale, f, g), with
    every mass of f and g times the lcm of their mass denominators and every
    value times the lcm of their value denominators. On a finite space the
    masses tile the total, so it is on the mass scale too.

    The one place a pair is put on integers: unequal totals are refused
    first, then the stored pairs of both functions (``StepFunction._levels``)
    go on one scale for the values and one for the masses, with no
    ``Fraction`` read. A caller that runs several sweeps on one pair scales
    it once and passes the result to each; swapping its two halves gives the
    pair (g, f)."""
    _require_same_total(f, g)
    levels = f._levels + g._levels
    value_scale, values = _scale_ratios([v for v, _ in levels])
    mass_scale, masses = _scale_ratios([m for _, m in levels])
    n = len(f._levels)
    return mass_scale, value_scale, (values[:n], masses[:n]), (values[n:], masses[n:])


def _levels(h: StepFunction) -> Levels:
    return [v for v, _ in h.pieces], [m for _, m in h.pieces]


def _decide(
    criterion: Criterion, weak: bool, f: StepFunction, g: StepFunction, scaled: Scaled
) -> MajorizationVerdict:
    """Verdict from a criterion's sweep on ``scaled``, the pair as
    :func:`_scaled` gives it; a caller scales the pair once for all the
    criteria it runs.

    The sweep (:data:`_SWEEPS`) returns the first violation, or None; given
    a list, it appends every checkpoint to it instead, in ascending order,
    and returns None. On the integers a point is over the mass scale
    (rearrangement) or the value scale (hinge, tail), and a side over the
    product of both. The certificate sweeps the exact ``Fraction`` levels:
    adding small exact terms normalizes far more cheaply than reducing every
    integer by the whole scale, whose gcds grow with the square of its length.
    """
    mass_scale, value_scale, f_scaled, g_scaled = scaled
    sweep = _SWEEPS[criterion]
    first = sweep(f_scaled, g_scaled, f.infinite, weak)
    violation = None
    if first is not None:
        point, left, right, relation = first
        if point is not INF:
            rearrangement = criterion is Criterion.REARRANGEMENT
            point = Fraction(point, mass_scale if rearrangement else value_scale)
        product = mass_scale * value_scale
        left, right = Fraction(left, product), Fraction(right, product)
        violation = CheckPoint(point, left, right, relation)

    def certificate() -> Tuple[CheckPoint, ...]:
        checked: List[Point] = []
        sweep(_levels(f), _levels(g), f.infinite, weak, checked)
        # Fraction(): an empty sum, and the point 0, are the int 0
        return tuple([
            CheckPoint(p if p is INF else Fraction(p), Fraction(a), Fraction(b), r)
            for p, a, b, r in checked
        ])

    return MajorizationVerdict(first is None, criterion, weak, certificate, violation)


# ---------------------------------------------------------------------------
# partial-integral (rearrangement) criterion
# ---------------------------------------------------------------------------


def _partial_sweep(
    f: Levels, g: Levels, infinite: bool, weak: bool, checked: Optional[list] = None
) -> Optional[Point]:
    """Partial integrals at 0 and every cumulative mass of f and g, then at INF
    on an infinite space; unless ``weak``, the endpoint once more for the
    equal-integrals clause. On a finite space the last cumulative mass is the
    total; at it, and at INF, both sides have reached the full integrals. A
    point inside a piece costs one product. On scaled integers an integral
    comes out on the product of the value and mass scales."""
    (fv, fm), (gv, gm) = f, g
    n, m = len(fm), len(gm)
    i = j = 0
    a = b = fs = gs = 0  # integrals of f* over [0, fs) and of g* over [0, gs)
    fe = fm[0] if n else None  # right ends of pieces i and j, None past the last
    ge = gm[0] if m else None
    s = left = right = 0
    while True:
        if checked is not None:
            checked.append((s, left, right, LE))
        elif left > right:
            return s, left, right, LE
        if fe is None and ge is None:
            break
        s = fe if ge is None or (fe is not None and fe <= ge) else ge
        if fe == s:
            a += fv[i] * fm[i]
            fs, i = fe, i + 1
            fe = fs + fm[i] if i < n else None
            left = a
        else:
            left = a if fe is None else a + fv[i] * (s - fs)
        if ge == s:
            b += gv[j] * gm[j]
            gs, j = ge, j + 1
            ge = gs + gm[j] if j < m else None
            right = b
        else:
            right = b if ge is None else b + gv[j] * (s - gs)
    # INF repeats the sides at the last cumulative mass, compared above
    end = INF if infinite else s
    if checked is not None:
        if infinite:
            checked.append((INF, a, b, LE))
        if not weak:
            checked.append((end, a, b, EQ))
    elif not weak and a != b:
        return end, a, b, EQ
    return None


def weak_majorize(f: StepFunction, g: StepFunction) -> MajorizationVerdict:
    """Decide f <w g: partial integrals of the rearrangements never cross."""
    return _decide(Criterion.REARRANGEMENT, True, f, g, _scaled(f, g))


def majorize(f: StepFunction, g: StepFunction) -> MajorizationVerdict:
    """Decide f < g: weak majorization plus exactly equal total integrals.

    The first read of the verdict's ``checked`` runs the whole sweep on
    ``Fraction``s, so reading every certificate costs more than deciding.
    """
    return _decide(Criterion.REARRANGEMENT, False, f, g, _scaled(f, g))


# ---------------------------------------------------------------------------
# hinge and tail-distribution criteria
# ---------------------------------------------------------------------------
# Both sweep the value grid: the piece values of f and g, and 0. Unless weak,
# its lowest point carries the equal-integrals clause: on a finite space of
# total T, where signed values may put it below 0, both sides there are the
# integral minus u*T; on an infinite space it is u = 0.


def _hinge_sweep(
    f: Levels, g: Levels, infinite: bool, weak: bool, checked: Optional[list] = None
) -> Optional[Point]:
    """Integral of (h - u)+ for h = f and g at each u of the value grid, upward:
    W - u*M, with W = sum v*m and M = sum m over the pieces above u. A piece
    leaves W with its product, computed once, as u reaches its value. On
    scaled integers the results are on the product scale."""
    (fv, fm), (gv, gm) = f, g
    fp, gp = list(map(mul, fv, fm)), list(map(mul, gv, gm))
    fw, gw, fmass, gmass = sum(fp), sum(gp), sum(fm), sum(gm)
    i, j = len(fv) - 1, len(gv) - 1  # the lowest pieces above u
    relation = LE if weak else EQ
    for u in sorted({0, *fv, *gv}):
        while i >= 0 and fv[i] <= u:
            fw -= fp[i]
            fmass -= fm[i]
            i -= 1
        while j >= 0 and gv[j] <= u:
            gw -= gp[j]
            gmass -= gm[j]
            j -= 1
        left, right = fw - u * fmass, gw - u * gmass
        if checked is not None:
            checked.append((u, left, right, relation))
        elif left > right or (relation is EQ and left != right):
            return u, left, right, relation
        relation = LE
    return None


def _tail_sweep(
    f: Levels, g: Levels, infinite: bool, weak: bool, checked: Optional[list] = None
) -> Optional[Point]:
    """Integral of d_h over [u, oo) for h = f and g at each u of the value grid.

    Between two grid points d_h is constant, equal to the mass strictly above
    the lower point, so a downward pass adds one layer of the layer-cake sum
    per grid step. On scaled integers the results are on the product scale.
    """
    (fv, fm), (gv, gm) = f, g
    n, m = len(fv), len(gv)
    i = j = 0
    fa = ga = ft = gt = 0  # masses strictly above u, integrals of d over [u, oo)
    grid = sorted({0, *fv, *gv})
    previous, first = grid[-1], None
    for u in reversed(grid):
        while i < n and fv[i] > u:
            fa += fm[i]
            i += 1
        while j < m and gv[j] > u:
            ga += gm[j]
            j += 1
        step, previous = previous - u, u
        ft += fa * step
        gt += ga * step
        if checked is not None:
            checked.append((u, ft, gt, LE))
        elif ft > gt:
            first = u, ft, gt, LE
    # u is the lowest point, reached last: the equality clause unless weak
    if checked is not None:
        checked[-1] = (u, ft, gt, LE if weak else EQ)
        checked.reverse()
    elif not weak and ft != gt:
        first = u, ft, gt, EQ
    return first


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


# Each criterion's sweep, in the order cross_check reports them.
_SWEEPS: Dict[Criterion, Callable[..., Optional[Point]]] = {
    Criterion.REARRANGEMENT: _partial_sweep,
    Criterion.HINGE: _hinge_sweep,
    Criterion.TAIL_DISTRIBUTION: _tail_sweep,
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
    return _cross_check(weak, f, g, _scaled(f, g))


def _cross_check(
    weak: bool, f: StepFunction, g: StepFunction, scaled: Scaled
) -> CrossCheckReport:
    verdicts = tuple([_decide(c, weak, f, g, scaled) for c in _SWEEPS])
    if len({v.holds for v in verdicts}) != 1:
        raise InternalInconsistencyError(
            "equivalent majorization criteria disagree: "
            + ", ".join(f"{v.criterion.value}={v.holds}" for v in verdicts),
            verdicts=verdicts,
        )
    return CrossCheckReport(holds=verdicts[0].holds, weak=weak, verdicts=verdicts)

"""Decide majorization by each of its equivalent criteria, with certificates.

For step functions both sides of every criterion are piecewise linear in the
scan parameter (s for partial integrals, u for hinge and tail integrals), so
the union of the breakpoints of both sides is a complete test set: the
difference is piecewise linear and attains its extrema at breakpoints. Every
verdict therefore carries either the full list of checked breakpoints or a
single violating point that re-verifies by direct evaluation.

Each criterion is one ordered sweep over the breakpoints of f and g with
running sums, giving the two sides at each point as it reaches it:

* rearrangement: a fold over the common refinement of the mass layouts of f
  and g (``stepfn._in_order``), adding one product to each integral per
  segment;
* hinge: one upward pass over the sorted value grid, from W = sum v*m and
  M = sum m over every piece, dropping each piece as u reaches its value, so
  the hinge integral is W - u*M;
* tail distribution: one downward pass carrying the mass above u and adding
  one layer of the layer-cake sum per grid step.

Each sweep is a stream of checkpoints in ascending order of its scan
parameter. To decide, :func:`_decide` reads the stream up to its first
failing point; to certify, it reads the same stream to its end. The tail
sums build from the top, so that sweep collects its points downward and
reverses them. A sweep costs O(m + n) integer operations for m and n level
sets, after a sort of the value grid. The decision runs on integers:
:func:`_scaled` puts the integer pairs each :class:`StepFunction` stores on
shared scales, cached on the two level tuples for the last pair only, so
``majorize(g, f)`` after ``cross_check(f, g)`` scales nothing; only the
violation is built as ``Fraction``s, so deciding never builds the functions'
``pieces``. The certificate, :attr:`MajorizationVerdict.checked`, is the
full sweep on the exact values, run when first read, so a caller that reads
it (``majo check --json``) pays for that sweep, and for both functions'
``pieces``, on top of the decision.
:func:`cross_check` scales the pair once for all three criteria and sorts
its value grid once for the hinge and tail sweeps; each criterion still runs
its own sweep, so it compares independent computations. The direct
per-point evaluators on :class:`StepFunction` re-verify any certificate;
``ds_witness`` runs no sweep, as its chain scan stops at the rearrangement
sweep's first violation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError, MeasureMismatchError
from .extended import INF, _scale_ratios
from .stepfn import Level, StepFunction, _BuiltOnFirstRead, _in_order


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
# as _scaled returns it: mass scale, value scale, f, g
Scaled = Tuple[int, int, Levels, Levels]
LE, EQ = Relation.LE, Relation.EQ


def _scaled(f: StepFunction, g: StepFunction) -> Scaled:
    """The pair on shared integer scales: (mass scale, value scale, f, g),
    with every mass of f and g times the lcm of their mass denominators and
    every value times the lcm of their value denominators. On a finite space
    the masses tile the total, so it is on the mass scale too.

    The one place a pair is put on integers: unequal totals are refused
    first, then :func:`_scaled_levels` scales the stored pairs of both
    functions (``StepFunction._levels``), taking the two level tuples in one
    fixed order and swapping the halves back, so ``_scaled(g, f)`` after
    ``_scaled(f, g)`` hits its cache: the criteria of ``cross_check``, the
    reverse verdict of ``majo check`` and ``ds_witness`` (whose chain scan
    stops at the rearrangement criterion's first violation, so it runs no
    sweep) scale a pair once. Nothing is written into the cached record."""
    _require_same_total(f, g)
    if g._levels < f._levels:
        mass_scale, value_scale, g_scaled, f_scaled = _scaled_levels(g._levels, f._levels)
        return mass_scale, value_scale, f_scaled, g_scaled
    return _scaled_levels(f._levels, g._levels)


@lru_cache(maxsize=1)
def _scaled_levels(a: Tuple[Level, ...], b: Tuple[Level, ...]) -> Scaled:
    """Two level tuples on one value scale and one mass scale, with a's
    levels first. The scaling depends on nothing else, so an equal pair of
    other functions shares it; only the last pair is kept, as every pair's
    scaled integers would otherwise stay alive."""
    levels = a + b
    value_scale, values = _scale_ratios([v for v, _ in levels])
    mass_scale, masses = _scale_ratios([m for _, m in levels])
    n = len(a)
    return mass_scale, value_scale, (values[:n], masses[:n]), (values[n:], masses[n:])


def _levels(h: StepFunction) -> Levels:
    return [v for v, _ in h.pieces], [m for _, m in h.pieces]


def _decide(
    criterion: Criterion, weak: bool, f: StepFunction, g: StepFunction,
    scaled: Scaled, grid: Optional[List[int]] = None,
) -> MajorizationVerdict:
    """Verdict from a criterion's sweep on ``scaled``, the pair as
    :func:`_scaled` gives it once for all the criteria a caller runs.

    The sweep (:data:`_SWEEPS`) is one stream of checkpoints, in ascending
    order, read up to its first failing point to decide and to its end to
    certify; the hinge and tail sweeps read ``grid``, the scaled value grid
    that :func:`cross_check` sorts once for both, or sort their own when
    given None, as the certificate does. On the integers a point is over the
    mass scale (rearrangement) or the value scale (hinge, tail), and a side
    over the product of both. The certificate sweeps the exact ``Fraction``
    levels: the integer sweep over the scales gives the three certificates
    of the 40 seed-1 ``decide`` benchmark pairs in 17 ms, not 58 ms, but
    those of a 2000-level file of 4-digit prime denominators against itself
    in 9.9 s, not 1.6 s, in gcds with the whole scale (Python 3.11, one core).
    """
    mass_scale, value_scale, f_scaled, g_scaled = scaled
    sweep = _SWEEPS[criterion]
    violation = None
    for point, left, right, relation in sweep(f_scaled, g_scaled, f.infinite, weak, grid):
        if left > right or (relation is EQ and left != right):
            if point is not INF:
                rearrangement = criterion is Criterion.REARRANGEMENT
                point = Fraction(point, mass_scale if rearrangement else value_scale)
            product = mass_scale * value_scale
            left, right = Fraction(left, product), Fraction(right, product)
            violation = CheckPoint(point, left, right, relation)
            break

    def certificate() -> Tuple[CheckPoint, ...]:
        # Fraction(): an empty sum, and the point 0, are the int 0
        return tuple([
            CheckPoint(p if p is INF else Fraction(p), Fraction(a), Fraction(b), r)
            for p, a, b, r in sweep(_levels(f), _levels(g), f.infinite, weak, None)
        ])

    return MajorizationVerdict(violation is None, criterion, weak, certificate, violation)


# ---------------------------------------------------------------------------
# partial-integral (rearrangement) criterion
# ---------------------------------------------------------------------------


def _partial_sweep(
    f: Levels, g: Levels, infinite: bool, weak: bool, grid: object
) -> Iterator[Point]:
    """Partial integrals at 0 and every cumulative mass of f and g, then at INF
    on an infinite space; unless ``weak``, the endpoint once more for the
    equal-integrals clause. On a finite space the last cumulative mass is the
    total; at it, and at INF, both sides have reached the full integrals.

    A fold over :func:`_in_order`, the walk of the common refinement of both
    mass layouts: each segment adds one product to each integral, and the
    right end of each is a cumulative mass, so it reads no value grid. On
    scaled integers an integral comes out on the product of the value and
    mass scales."""
    (fv, fm), (gv, gm) = f, g
    fv, gv = [*fv, 0], [*gv, 0]  # past each support the integrand is 0
    s = left = right = 0
    yield s, left, right, LE
    for i, j, mass in _in_order(fm, gm):
        s += mass
        left += fv[i] * mass
        right += gv[j] * mass
        yield s, left, right, LE
    # INF repeats the sides at the last cumulative mass
    if infinite:
        yield INF, left, right, LE
    if not weak:
        yield INF if infinite else s, left, right, EQ


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
    f: Levels, g: Levels, infinite: bool, weak: bool, grid: Optional[List]
) -> Iterator[Point]:
    """Integral of (h - u)+ for h = f and g at each u of the value grid, upward:
    W - u*M, with W = sum v*m and M = sum m over the pieces above u. A piece
    leaves W with its product, computed once, as u reaches its value. On
    scaled integers the results are on the product scale."""
    (fv, fm), (gv, gm) = f, g
    fp, gp = list(map(mul, fv, fm)), list(map(mul, gv, gm))
    fw, gw, fmass, gmass = sum(fp), sum(gp), sum(fm), sum(gm)
    i, j = len(fv) - 1, len(gv) - 1  # the lowest pieces above u
    relation = LE if weak else EQ
    if grid is None:
        grid = sorted({0, *fv, *gv})
    for u in grid:
        while i >= 0 and fv[i] <= u:
            fw -= fp[i]
            fmass -= fm[i]
            i -= 1
        while j >= 0 and gv[j] <= u:
            gw -= gp[j]
            gmass -= gm[j]
            j -= 1
        yield u, fw - u * fmass, gw - u * gmass, relation
        relation = LE


def _tail_sweep(
    f: Levels, g: Levels, infinite: bool, weak: bool, grid: Optional[List]
) -> List[Point]:
    """Integral of d_h over [u, oo) for h = f and g at each u of the value grid.

    Between two grid points d_h is constant, equal to the mass strictly above
    the lower point, so a downward pass adds one layer of the layer-cake sum
    per grid step; it collects the points and returns them reversed, in
    ascending order. On scaled integers the results are on the product scale.
    """
    (fv, fm), (gv, gm) = f, g
    n, m = len(fv), len(gv)
    i = j = 0
    fa = ga = ft = gt = 0  # masses strictly above u, integrals of d over [u, oo)
    if grid is None:
        grid = sorted({0, *fv, *gv})
    previous, points = grid[-1], []
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
        points.append((u, ft, gt, LE))
    # u is the lowest point, reached last: the equality clause unless weak
    if not weak:
        points[-1] = (u, ft, gt, EQ)
    points.reverse()
    return points


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
_SWEEPS: Dict[Criterion, Callable[..., Iterable[Point]]] = {
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
    The pair is scaled once, and its value grid sorted once for the hinge
    and tail sweeps; each criterion runs its own sweep on it.
    """
    scaled = _scaled(f, g)
    (fv, _), (gv, _) = scaled[2:]
    grid = sorted({0, *fv, *gv})
    verdicts = tuple([_decide(c, weak, f, g, scaled, grid) for c in _SWEEPS])
    if len({v.holds for v in verdicts}) != 1:
        raise InternalInconsistencyError(
            "equivalent majorization criteria disagree: "
            + ", ".join(f"{v.criterion.value}={v.holds}" for v in verdicts),
            verdicts=verdicts,
        )
    return CrossCheckReport(holds=verdicts[0].holds, weak=weak, verdicts=verdicts)

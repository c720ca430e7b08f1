"""Seeded random generators for the property and acceptance suites.

Everything is driven by a caller-supplied :class:`random.Random`, so one
integer seed reproduces every randomized suite byte for byte. All generated
quantities are exact rationals with small denominators.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DimensionMismatchError
from .extended import INF
from .operators import OperatorMatrix, Partition, TTransform
from .stepfn import StepFunction, canonicalize


def random_fraction(
    rng: random.Random,
    *,
    max_numerator: int = 9,
    denominators: Tuple[int, ...] = (1, 2, 3, 4),
    positive: bool = False,
) -> Fraction:
    lo = 1 if positive else 0
    return Fraction(rng.randint(lo, max_numerator), rng.choice(denominators))


def random_step_function(
    rng: random.Random,
    *,
    infinite: Optional[bool] = None,
    max_pieces: int = 5,
    signed: bool = False,
    total=None,
) -> StepFunction:
    """Random canonical step function, nonnegative unless ``signed``.

    ``total`` fixes the total measure (it must dominate the generated
    support); by default infinite spaces close with the implicit tail and
    finite ones are padded up to a random slack above the support.
    """
    if infinite is None:
        infinite = rng.random() < 0.5
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        value = random_fraction(rng, positive=not signed or infinite)
        if signed and not infinite and rng.random() < 0.4:
            value = -value
        mass = random_fraction(rng, max_numerator=6, positive=True)
        pieces.append((value, mass))
    if infinite:
        return canonicalize(pieces, INF)
    support = sum(m for _, m in pieces)
    if total is None:
        total = support + (random_fraction(rng, max_numerator=3) if rng.random() < 0.3 else 0)
    elif support > total:
        pieces = [(v, m * total / support) for v, m in pieces]
    return canonicalize(pieces, total)


def random_pair_same_total(
    rng: random.Random, *, infinite: Optional[bool] = None, equal_integrals: bool = False
) -> Tuple[StepFunction, StepFunction]:
    """Random nonnegative pair on one space, optionally with equal integrals."""
    if infinite is None:
        infinite = rng.random() < 0.5
    f = random_step_function(rng, infinite=infinite)
    if infinite:
        g = random_step_function(rng, infinite=True)
    else:
        g = random_step_function(rng, infinite=False, total=None)
        total = max(f.total_measure, g.total_measure)
        f = canonicalize(f.pieces, total)
        g = canonicalize(g.pieces, total)
    if equal_integrals and g.integral() != f.integral():
        f_low = f.integral() < g.integral()
        low, high = (f, g) if f_low else (g, f)
        gap = high.integral() - low.integral()
        extra = Fraction(1, 2)
        patched_pieces = list(low.pieces) + [(gap / extra, extra)]
        if infinite:
            low = canonicalize(patched_pieces, INF)
        else:
            total = high.total_measure + extra
            low = canonicalize(patched_pieces, total)
            high = canonicalize(high.pieces, total)
        f, g = (low, high) if f_low else (high, low)
    return f, g


def random_markov_matrix(rng: random.Random, rows: int, cols: int) -> OperatorMatrix:
    """Random column-stochastic matrix: each column a rational simplex point."""
    columns = []
    for _ in range(cols):
        weights = [rng.randint(0, 9) for _ in range(rows)]
        if not any(weights):
            weights[rng.randrange(rows)] = 1
        total = sum(weights)
        columns.append([Fraction(w, total) for w in weights])
    entries = tuple(tuple(columns[j][i] for j in range(cols)) for i in range(rows))
    return OperatorMatrix(entries)


def random_t_transform(rng: random.Random, n: int) -> TTransform:
    j, k = sorted(rng.sample(range(n), 2))
    weight = Fraction(rng.randint(0, 8), 8)
    return TTransform(j, k, weight)


def random_doubly_stochastic(
    rng: random.Random, n: int, *, steps: Optional[int] = None
) -> OperatorMatrix:
    """Random doubly stochastic matrix: identity rows mixed by random T-transforms."""
    if n == 1:
        return OperatorMatrix.identity(1)
    if steps is None:
        steps = rng.randint(1, 2 * n)
    rows = list(OperatorMatrix.identity(n).entries)
    for _ in range(steps):
        random_t_transform(rng, n)._mix(rows)
    return OperatorMatrix(tuple(rows))


def random_sds_matrix(rng: random.Random, rows: int, cols: int) -> OperatorMatrix:
    """Random semi-doubly stochastic matrix (rows >= cols).

    A convex combination of injection matrices (each column sends its unit
    mass to a distinct row), so column sums are exactly 1 and row sums at
    most 1.
    """
    if rows < cols:
        raise DimensionMismatchError("semi-doubly stochastic mixtures need rows >= cols")
    count = rng.randint(1, 4)
    weights = [rng.randint(1, 6) for _ in range(count)]
    total = sum(weights)
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    for weight in weights:
        image = rng.sample(range(rows), cols)
        share = Fraction(weight, total)
        for j, i in enumerate(image):
            entries[i][j] += share
    return OperatorMatrix(tuple(tuple(row) for row in entries))


def random_vector(
    rng: random.Random, n: int, *, signed: bool = False
) -> Tuple[Fraction, ...]:
    values: List[Fraction] = []
    for _ in range(n):
        v = random_fraction(rng)
        if signed and rng.random() < 0.5:
            v = -v
        values.append(v)
    if not any(values):
        values[rng.randrange(n)] = Fraction(1)
    return tuple(values)


def random_equal_mass_partition(
    rng: random.Random, count: int, *, infinite: bool = True
) -> Partition:
    mass = random_fraction(rng, max_numerator=4, positive=True)
    total = INF if infinite else mass * count
    return Partition.equal_mass(count, mass, total)


def random_unequal_partition(rng: random.Random, count: int) -> Partition:
    """Finite-measure partition with (typically) differing atom masses."""
    atoms = tuple(random_fraction(rng, max_numerator=5, positive=True) for _ in range(count))
    return Partition(atoms=atoms, total_measure=sum(atoms), tail=None)


def random_integer_step_function(
    rng: random.Random, *, max_pieces: int = 4, max_value: int = 8, max_mass: int = 4
) -> StepFunction:
    """Integer-valued, integer-mass function on an infinite space.

    Used by the dense-grid oracle: with integer data the piecewise-linear
    criterion differences change by at least 1 across unit windows, so a
    10^4-point grid over the (padded) domain cannot miss a violation.
    """
    pieces = [
        (rng.randint(1, max_value), rng.randint(1, max_mass))
        for _ in range(rng.randint(1, max_pieces))
    ]
    return canonicalize(pieces, INF)

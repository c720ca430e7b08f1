"""Property tests in the regime the seeded generators miss: many atoms and
large coprime denominators."""

import importlib
import random
import re
import sys
from fractions import Fraction as F
from itertools import accumulate
from math import gcd, lcm

import pytest

from majo import (
    INF,
    AlignedStep,
    CheckPoint,
    Criterion,
    OperatorClass,
    OperatorMatrix,
    Partition,
    Relation,
    StepFunction,
    StepKernel,
    Tail,
    align,
    apply_matrix,
    canonicalize,
    classify_matrix,
    cross_check,
    ds_witness,
    equi_modulus,
    fraction_gcd,
    hinge_criterion,
    kernel_apply,
    kernel_classify,
    lift,
    lift_apply,
    majorize,
    matrix_to_kernel,
    partition_average,
    partition_average_matrix,
    phi,
    psi,
    sequence_apply,
    small_set_modulus,
    tail_distribution_criterion,
    weak_majorize,
)
from majo.errors import (
    DimensionMismatchError,
    InvalidRationalError,
    MajoError,
    MassExceedsTotalError,
    MeasureMismatchError,
    NegativeMassError,
    NegativeValueOnInfiniteSpaceError,
    NonCanonicalError,
    NotMajorizedError,
    NotStochasticError,
    PartitionMisalignedError,
)
from majo.errors import RationalTooLongError
from majo.extended import (
    _combine,
    _format_ratio,
    _Ratio,
    _read_ratio,
    _reduced,
    _scale_ratios,
    _shown,
    _sum,
    as_extended,
    as_fraction,
)
from majo.formats import dumps_mat, dumps_sfn, loads_mat, loads_sfn
from majo.majorize import _scaled, _scaled_levels
from majo.operators import TTransform, WitnessChain, _t_transform_chain
from majo.stepfn import _in_order

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRIMES = [p for p in range(2, 10**4) if all(p % q for q in range(2, int(p**0.5) + 1))]


@st.composite
def rationals(draw, positive=False):
    numerator = draw(st.integers(1 if positive else -(10**4), 10**4))
    return F(numerator, draw(st.sampled_from((1,) + tuple(PRIMES))))


@st.composite
def actions(draw):
    """A doubly stochastic d (the square semi-doubly stochastic matrices), a
    partition and a function aligned with it."""
    n = draw(st.integers(1, 50))
    if draw(st.booleans()):
        atoms = (draw(rationals(positive=True)),) * n
    else:
        atoms = tuple(draw(rationals(positive=True)) for _ in range(n))
    infinite = draw(st.booleans())
    total = INF if infinite else sum(atoms)
    tail = Tail(atoms[-1]) if infinite else None
    partition = Partition(atoms=atoms, total_measure=total, tail=tail)
    weights = [F(draw(st.integers(1, 10**4))) for _ in range(draw(st.integers(1, 4)))]
    entries = [[F(0)] * n for _ in range(n)]
    for weight in weights:
        for column, row in enumerate(draw(st.permutations(range(n)))):
            entries[row][column] += weight / sum(weights)
    values = [abs(v) if infinite else v for v in (draw(rationals()) for _ in range(n))]
    return partition, OperatorMatrix(entries), AlignedStep(partition, values)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(actions())
def test_lift_kernel_and_sequence_actions_agree(case):
    partition, d, f = case
    image = lift_apply(partition, d, f)
    assert image == kernel_apply(matrix_to_kernel(partition, d), f)
    if partition.equal_masses:
        g = f.step_function()
        via_sequence, rows = sequence_apply(d, g, partition.atoms[0])
        assert rows == partition
        via_lift = lift_apply(partition, d, align(partition, g))
        assert via_lift.step_function() == via_sequence


def prime_distribution(rng, length):
    """``length`` nonnegative rationals over one prime denominator, summing to 1."""
    p = rng.choice(PRIMES)
    cuts = sorted(rng.randint(0, p) for _ in range(length - 1))
    return [F(b - a, p) for a, b in zip([0, *cuts], [*cuts, p])]


@st.composite
def kernel_cases(draw):
    """A partition of up to 60 atoms with prime-denominator masses, a sequence
    matrix on it (doubly stochastic, Markov on all atoms, Markov on leading
    atoms only, or zero; no rows on no atoms), the column partition of its
    kernel (the matrix's own atoms, as ``matrix_to_kernel`` takes them, or
    other ones) and a refinement of the partition."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(0, 60))
    atoms = tuple(draw(rationals(positive=True)) for _ in range(n))
    infinite = draw(st.booleans())
    tail = Tail(atoms[-1] if atoms else 1) if infinite else None
    partition = Partition(atoms, INF if infinite else sum(atoms, F(0)), tail)
    kind = draw(st.sampled_from(("doubly", "markov", "narrow", "zero")))
    cols = draw(st.integers(0, n - 1)) if kind == "narrow" and n else n
    if kind == "doubly":
        weights = prime_distribution(rng, rng.randint(1, 4))
        entries = [[F(0)] * n for _ in range(n)]
        for weight in weights:
            for column, row in enumerate(rng.sample(range(n), n)):
                entries[row][column] += weight
    elif kind == "zero":
        entries = [[F(0)] * cols for _ in range(n)]
    else:
        columns = [prime_distribution(rng, n) for _ in range(cols)]
        entries = [[column[row] for column in columns] for row in range(n)]
    if cols == n and not draw(st.booleans()):
        col_partition = partition
    else:
        own = atoms[:cols] if draw(st.booleans()) else tuple(
            draw(rationals(positive=True)) for _ in range(cols)
        )
        col_partition = Partition(own, sum(own, F(0)))
    pieces = []
    for atom in atoms:
        pieces += [atom * w for w in prime_distribution(rng, rng.randint(1, 3)) if w]
    refinement = Partition(tuple(pieces), partition.total_measure, tail)
    return partition, col_partition, OperatorMatrix(entries), refinement


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(kernel_cases())
def test_kernel_views_are_the_dense_change_of_basis(case):
    partition, col_partition, d, refinement = case
    kernel = StepKernel(partition, col_partition, d)
    # the marginals of d, in plain Fraction loops; a kernel is built exactly
    # when every column sums to 1
    column_sums = [sum((row[j] for row in d.entries), F(0)) for j in range(d.cols)]
    row_sums = [sum(row, F(0)) for row in d.entries]
    assert d.column_sums() == tuple(column_sums)
    assert d.row_sums() == tuple(row_sums)
    if any(s != 1 for s in column_sums):
        with pytest.raises(NotStochasticError):
            matrix_to_kernel(partition, d)
    else:
        built = matrix_to_kernel(partition, d)
        assert (built == kernel) == (built.col_partition == col_partition)
    # the dense reference: K = diag(1/r) · d, and the value-basis matrix
    # diag(1/r) · d · diag(c), in plain Fraction loops
    rows, cols = partition.atoms, col_partition.atoms
    values = [[d.entries[n][j] / rows[n] for j in range(len(cols))] for n in range(len(rows))]
    value_basis = [
        [values[n][j] * cols[j] for j in range(len(cols))] for n in range(len(rows))
    ]
    row_integrals = [sum(row, F(0)) for row in value_basis]
    column_integrals = [
        sum((values[n][j] * rows[n] for n in range(len(rows))), F(0))
        for j in range(len(cols))
    ]
    assert kernel.values == tuple(tuple(row) for row in values)
    assert kernel.row_integrals() == tuple(row_integrals)
    assert kernel.column_integrals() == tuple(column_integrals)
    assert kernel_classify(kernel) == OperatorClass.from_marginals(
        column_integrals, row_integrals
    )
    # lift is the value-basis matrix of d with the partition on both sides
    try:
        lifted = lift(partition, d)
    except (DimensionMismatchError, NotStochasticError):
        square = d.rows == d.cols == len(rows)
        assert not square or classify_matrix(d) < OperatorClass.SEMI_DOUBLY_STOCHASTIC
    else:
        assert lifted.entries == tuple(
            tuple(d.entries[n][j] / rows[n] * rows[j] for j in range(len(rows)))
            for n in range(len(rows))
        )
    # averaging over the partition's atoms, seen on the refinement: mass(r) /
    # mass(block) where fine atoms r and c share a block, and 0 elsewhere
    fine = refinement.atoms
    owner, k = [], 0
    for n, atom in enumerate(rows):
        covered = F(0)
        while covered < atom:
            covered += fine[k]
            owner.append(n)
            k += 1
    averaging = [
        [fine[r] / rows[owner[r]] if owner[r] == owner[c] else F(0) for c in range(len(fine))]
        for r in range(len(fine))
    ]
    assert partition_average_matrix(partition, refinement).entries == tuple(
        tuple(row) for row in averaging
    )


@st.composite
def witnessed(draw):
    """A majorized pair (g averaged over coarse unequal blocks of its atoms,
    and g), on a grid of at most 60 atoms, and values for every grid atom."""
    n = draw(st.integers(1, 60))
    unit = draw(rationals(positive=True))
    infinite = draw(st.booleans())
    total = INF if infinite else unit * n
    values = [abs(v) if infinite else v for v in (draw(rationals()) for _ in range(n))]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = list(zip([0] + cuts, cuts + [n]))
    averaged = [(sum(values[a:b]) / (b - a), unit * (b - a)) for a, b in blocks]
    f = canonicalize(averaged, total)
    g = canonicalize([(v, unit) for v in values], total)
    h = [abs(v) if infinite else v for v in (draw(rationals()) for _ in range(n))]
    return f, g, h


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(witnessed())
def test_witness_steps_and_product_are_one_operator(case):
    """apply_to on the level-set atoms and product on the grid agree on any
    function constant on those atoms (its values laid out decreasingly)."""
    f, g, h_values = case
    chain = ds_witness(f, g)
    partition, grid = chain.source_partition, chain.grid
    assert chain.apply_to(g) == f
    h_values = sorted(h_values[: partition.size], reverse=True)
    h = AlignedStep(partition, h_values).step_function()
    via_product = psi(grid, apply_matrix(chain.product, phi(grid, h)))
    assert chain.apply_to(h) == via_product.step_function()


def reference_mix(chain, rows):
    """The chain's steps applied to rows of Fractions, as TTransform states
    them: row j takes w·y_j + (1-w)·y_k and row k takes β·y_j + (1-β)·y_k,
    with β = (1-w)·a_j/a_k."""
    rows, masses = list(rows), chain.source_partition.atoms
    for step in chain.steps:
        w, a, b = step.weight, rows[step.j], rows[step.k]
        beta = (1 - w) * masses[step.j] / masses[step.k]
        rows[step.j] = tuple(w * y_j + (1 - w) * y_k for y_j, y_k in zip(a, b))
        rows[step.k] = tuple(beta * y_j + (1 - beta) * y_k for y_j, y_k in zip(a, b))
    return rows


@st.composite
def chains_on_unequal_atoms(draw, small=False):
    """A valid chain on an unequal partition and decreasing values on its
    atoms. Masses have prime denominators up to 10^4, or up to 3 when
    ``small``, so that the gcd grid of the dense product stays small; the
    weights have prime denominators up to 10^4 either way, and each lies in
    [max(0, 1 - a_k/a_j), 1], which keeps β in [0, 1]."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(2, 5 if small else 40)
    denominators = (1, 2, 3) if small else PRIMES
    atoms = tuple(F(rng.randint(1, 3), rng.choice(denominators)) for _ in range(n))
    hypothesis.assume(len(set(atoms)) > 1)
    infinite = draw(st.booleans())
    partition = Partition(
        atoms, INF if infinite else sum(atoms), Tail(F(1)) if infinite else None
    )
    steps = []
    for _ in range(rng.randint(1, 3 * n)):
        j, k = sorted(rng.sample(range(n), 2))
        low = max(F(0), 1 - atoms[k] / atoms[j])
        p = rng.choice(PRIMES)
        steps.append(TTransform(j, k, low + (1 - low) * F(rng.randint(0, p), p)))
    least = 0 if infinite else -(10**4)
    values = [F(rng.randint(least, 10**4), rng.choice(PRIMES)) for _ in range(n)]
    values.sort(reverse=True)
    return WitnessChain(tuple(steps), partition), values


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(chains_on_unequal_atoms())
def test_integer_mixing_is_the_fraction_mix(case):
    """apply_to on any function aligned with the atoms, not only the source
    the chain was built for, equals the mix written out in Fractions."""
    chain, values = case
    partition = chain.source_partition
    h = AlignedStep(partition, values).step_function()
    expected = [v for (v,) in reference_mix(chain, [(v,) for v in values])]
    assert chain.apply_to(h) == AlignedStep(partition, expected).step_function()


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(chains_on_unequal_atoms(small=True))
def test_product_is_the_fraction_mix_of_identity_rows(case):
    """The product on the grid is the Fraction mix of identity rows on the
    atoms, a mixed row spread evenly over the grid atoms of each atom and an
    unmixed atom keeping the grid's identity rows."""
    chain, _ = case
    grid, n = chain.grid, chain.dimension
    mixed_rows = reference_mix(chain, OperatorMatrix.identity(n).entries)
    counts = [int(a / grid.atoms[0]) for a in chain.source_partition.atoms]
    mixed = {step.j for step in chain.steps} | {step.k for step in chain.steps}
    identity = OperatorMatrix.identity(grid.size).entries
    expected, start = [], 0
    for atom, (row, count) in enumerate(zip(mixed_rows, counts)):
        if atom in mixed:
            spread = tuple(e / c for e, c in zip(row, counts) for _ in range(c))
            expected += [spread] * count
        else:
            expected += identity[start : start + count]
        start += count
    assert chain.product.entries == tuple(expected)


@st.composite
def level_set_pairs(draw):
    """A majorized pair (g averaged over a partition whose cuts fall inside
    g's level sets, and g). Either up to 200 level sets and cuts with prime
    denominators up to 10^4, or a few with denominators up to 4, so that the
    gcd grid sometimes fits the budget. On an infinite space the averaging
    partition reaches past g's support into the zero tail, or is empty when
    g is zero and the reach draws nothing."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    small = draw(st.booleans())
    denominators = (1, 2, 3, 4) if small else PRIMES
    n = rng.randint(1, 6 if small else 200)
    masses = [F(rng.randint(1, 3), rng.choice(denominators)) for _ in range(n)]
    infinite = draw(st.booleans())
    top = 20 if small else 10**4
    values = [F(rng.randint(0 if infinite else -top, top), rng.choice(denominators))
              for _ in range(n)]
    total = INF if infinite else sum(masses)
    g = canonicalize(list(zip(values, masses)), total)
    reach = g.support_measure + (F(rng.randint(0, 3), 2) if infinite else 0)
    if small:  # cuts on the lattice of twelfths keep the grid under 250 atoms
        cuts = {F(rng.randint(1, 12 * int(reach) + 11), 12) for _ in range(rng.randint(0, 8))}
    else:
        cuts = {F(rng.randint(1, p - 1), p) * reach
                for p in rng.choices(PRIMES, k=rng.randint(0, 100))}
    points = sorted(c for c in cuts if 0 < c < reach) + ([reach] if reach else [])
    atoms = tuple(b - a for a, b in zip([F(0)] + points, points))
    tail = Tail(F(1)) if infinite else None
    coarse = Partition(atoms=atoms, total_measure=total, tail=tail)
    return partition_average(coarse, g).step_function(), g


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(level_set_pairs())
@hypothesis.example((canonicalize([], INF), canonicalize([], INF)))
def test_level_set_witness_is_exact_and_small(case):
    f, g = case
    chain = ds_witness(f, g)
    assert chain.apply_to(g) == f
    assert chain.dimension <= len(f.pieces) + len(g.pieces)
    assert len(chain.steps) <= max(chain.dimension - 1, 0)
    try:
        grid = chain.grid
    except MajoError:
        return  # no dense matrix over the budget
    assert classify_matrix(chain.product) is OperatorClass.DOUBLY_STOCHASTIC
    assert apply_matrix(chain.product, align(grid, g).values) == align(grid, f).values


def quadratic_chain(target, source):
    """The chain's scan rule as first written: both scans restart at 0."""
    x, y, steps = list(target), list(source), []
    n = len(x)
    for _ in range(n + 1):
        j = next((i for i in range(n) if y[i] != x[i]), None)
        if j is None:
            break
        assert y[j] > x[j]
        k = next(i for i in range(j + 1, n) if y[i] < x[i])
        delta = min(y[j] - x[j], x[k] - y[k])
        steps.append(TTransform(j, k, 1 - delta / (y[j] - y[k])))
        y[j] -= delta
        y[k] += delta
    return tuple(steps)


@st.composite
def chain_pairs(draw):
    """(target, source): decreasing vectors of up to 200 coordinates, signed
    or nonnegative over one to three prime denominators up to 10^4 (few
    distinct numerators make ties), the target averaging the source over
    random blocks and then mixing random coordinate pairs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=3))
    top = draw(st.sampled_from((3, 10**4)))
    lo = -top if draw(st.booleans()) else 0
    n = draw(st.integers(1, 200))
    source = [F(rng.randint(lo, top), rng.choice(primes)) for _ in range(n)]
    source.sort(reverse=True)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    target = []
    for a, b in zip([0] + cuts, cuts + [n]):
        target += [sum(source[a:b]) / (b - a)] * (b - a)
    for _ in range(rng.randint(0, 10) if n > 1 else 0):
        i, k = rng.sample(range(n), 2)
        p = rng.choice(PRIMES)
        w = F(rng.randint(0, p), p)
        target[i], target[k] = (
            w * target[i] + (1 - w) * target[k],
            (1 - w) * target[i] + w * target[k],
        )
    return sorted(target, reverse=True), source


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(chain_pairs())
def test_chain_takes_the_steps_of_the_quadratic_scan(case):
    target, source = case
    masses = (F(1),) * len(target)
    assert _t_transform_chain(masses, target, source) == quadratic_chain(target, source)


@st.composite
def scan_inputs(draw):
    """(masses, target, source) on 1 to 200 atoms: positive integer masses and
    decreasing integer values, signed, with ties and zeros. The source is the
    target spread by integral-preserving moves from an atom to a later one
    ("spread"), then perhaps one value nudged ("nudged") or the two swapped
    ("reversed"), or drawn on its own ("fresh")."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(1, 200)
    top = rng.choice((2, 10, 10**4))
    masses = [rng.randint(1, rng.choice((1, 5, 100))) for _ in range(n)]

    def decreasing():
        return sorted((rng.randint(-top, top) for _ in range(n)), reverse=True)

    kinds = ("spread", "nudged", "reversed", "fresh")
    target, kind = decreasing(), draw(st.sampled_from(kinds))
    if kind == "fresh":
        return masses, target, decreasing()
    source = list(target)
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        j, k = sorted(rng.sample(range(n), 2))
        j, k = rng.choice((0, j)), rng.choice((k, n - 1))  # the ends have room
        # source[j] gains t·masses[k] and source[k] loses t·masses[j]; the
        # room above j and below k keeps the source decreasing
        room = [top]
        if j:
            room.append((source[j - 1] - source[j]) // masses[k])
        if k < n - 1:
            room.append((source[k] - source[k + 1]) // masses[j])
        t = min(room) // rng.choice((1, 2))
        source[j] += t * masses[k]
        source[k] -= t * masses[j]
    if kind == "nudged":
        k = rng.randrange(n)
        low = source[k + 1] if k < n - 1 else source[k] - 1
        high = source[k - 1] if k else source[k] + 1
        source[k] = rng.randint(low, high)
    if kind == "reversed":
        return masses, source, target
    return masses, target, source


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(scan_inputs())
def test_chain_scan_is_the_prefix_sum_test(case):
    """The scan finds no chain exactly when a prefix sum of the target's atom
    integrals exceeds the source's or the integrals differ, and returns the
    first atom whose prefix sums do, or the atom count when only the totals
    differ; otherwise its at most n - 1 steps carry the source onto the
    target."""
    masses, target, source = case
    x = list(accumulate(m * v for m, v in zip(masses, target)))
    y = list(accumulate(m * v for m, v in zip(masses, source)))
    first = next((i for i, (a, b) in enumerate(zip(x, y)) if a > b), None)
    if first is None and x[-1] != y[-1]:
        first = len(masses)
    steps = _t_transform_chain(masses, target, source)
    if first is not None:
        assert steps == first
    else:
        assert len(steps) <= len(masses) - 1
        partition = Partition(tuple(map(F, masses)), sum(masses))
        chain = WitnessChain(steps, partition)
        assert reference_mix(chain, [(F(v),) for v in source]) == [(v,) for v in target]


@st.composite
def averaging_cases(draw):
    """A function and an unequal partition of its space: finite (signed
    values, atoms rescaled to tile the total) or infinite (explicit atoms
    covering the support, then an unbounded tail)."""
    infinite = draw(st.booleans())
    count = draw(st.integers(0, 30))
    raw = [(draw(rationals()), draw(rationals(positive=True))) for _ in range(count)]
    pieces = [(abs(v) if infinite else v, m) for v, m in raw]
    f = canonicalize(pieces, INF if infinite else sum(m for _, m in pieces))
    atoms = [draw(rationals(positive=True)) for _ in range(draw(st.integers(1, 30)))]
    if infinite:
        short = f.support_measure - sum(atoms)
        if short > 0:
            atoms.append(short + draw(rationals(positive=True)))
        return f, Partition(tuple(atoms), INF, Tail(draw(rationals(positive=True))))
    if f.total_measure == 0:
        return f, Partition((), 0)
    scale = f.total_measure / sum(atoms)
    return f, Partition(tuple(a * scale for a in atoms), f.total_measure)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(averaging_cases())
def test_averaging_is_the_conditional_expectation_of_the_layout(case):
    f, partition = case
    average = partition_average(partition, f)
    cuts = [F(0)]
    for atom in partition.atoms:
        cuts.append(cuts[-1] + atom)
    for n, atom in enumerate(partition.atoms):
        inside = f.partial_integral(cuts[n + 1]) - f.partial_integral(cuts[n])
        assert average.values[n] == inside / atom
    assert average.integral() == f.integral()
    assert majorize(average.step_function(), f).holds
    assert partition_average(partition, average.step_function()) == average


@st.composite
def mass_sequences(draw):
    """Two sequences of positive masses, all ints or all Fractions with prime
    denominators up to 10^4, either possibly empty: unrelated, equal, or the
    second cut at some cumulative masses of the first and at points of its
    own, so that the two layouts share cuts."""
    mass = st.integers(1, 10**6) if draw(st.booleans()) else rationals(positive=True)
    a = draw(st.lists(mass, max_size=30))
    shape = draw(st.sampled_from(("unrelated", "equal", "shared cuts")))
    if shape == "unrelated":
        return a, draw(st.lists(mass, max_size=30))
    if shape == "equal":
        return a, list(a)
    kept = {end for end in accumulate(a) if draw(st.booleans())}
    cuts = sorted(kept | set(draw(st.lists(mass, max_size=5))))
    return a, [right - left for left, right in zip([0, *cuts], cuts)]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(mass_sequences())
def test_in_order_walks_the_common_refinement(case):
    a, b = case
    ends_a, ends_b = [0, *accumulate(a)], [0, *accumulate(b)]
    left, rights = 0, []
    for i, j, mass in _in_order(a, b):
        assert mass > 0 and type(mass) in {type(x) for x in a + b}
        right = left + mass
        # inside the masses it names, or past the end of a sequence, where
        # its index is that sequence's length
        for k, seq, ends in ((i, a, ends_a), (j, b, ends_b)):
            if k < len(seq):
                assert ends[k] <= left and right <= ends[k + 1]
            else:
                assert k == len(seq) and left >= ends[-1]
        rights.append(right)
        left = right
    # positive segments from 0 with these right ends tile [0, max of the sums)
    assert left == max(ends_a[-1], ends_b[-1])
    assert rights == sorted(set(ends_a[1:]) | set(ends_b[1:]))


def fraction_layout(partition, f):
    """The layout rule on Fractions, the reference for the integer walk: f's
    level masses and the atoms laid side by side by ``_in_order``."""
    if partition.total_measure != f.total_measure:
        raise MeasureMismatchError(
            f"partition tiles {partition.total_measure}, function lives on "
            f"{f.total_measure}"
        )
    for n, k, mass in _in_order(partition.atoms, [p.mass for p in f.pieces]):
        if n < partition.size:
            yield n, k, mass
        elif f.pieces[k].value != 0:
            raise PartitionMisalignedError(
                "support extends past the explicit atoms into the tail"
            )


def fraction_align(partition, f):
    levels = f.values() + (F(0),)
    values = []
    for n, k, mass in fraction_layout(partition, f):
        if mass != partition.atoms[n]:
            raise PartitionMisalignedError(
                f"atom of mass {partition.atoms[n]} straddles a level boundary "
                f"(only {mass} left at value {levels[k]})"
            )
        values.append(levels[k])
    return AlignedStep(partition=partition, values=tuple(values))


def reference_average(partition, f):
    """partition_average by its definition, with no walk: the mean of f's
    rearrangement over the atom [c_{n-1}, c_n) is the rise of f's partial
    integral over it, divided by the atom's mass. Past the atoms f must be
    zero, which f's cumulative masses tell."""
    if partition.total_measure != f.total_measure:
        raise MeasureMismatchError(
            f"partition tiles {partition.total_measure}, function lives on "
            f"{f.total_measure}"
        )
    ends = [F(0), *accumulate(partition.atoms)]
    if any(p.value and end > ends[-1]
           for p, end in zip(f.pieces, accumulate(p.mass for p in f.pieces))):
        raise PartitionMisalignedError("support extends past the explicit atoms into the tail")
    integrals = [f.partial_integral(c) for c in ends]
    return AlignedStep(partition, tuple(
        (right - left) / mass
        for left, right, mass in zip(integrals, integrals[1:], partition.atoms)
    ))


@st.composite
def layout_cases(draw):
    """A function and an unequal partition cut from its level sets. Masses
    and cuts have prime denominators up to 10^4. Some adjacent atoms are
    merged, so that an atom straddles a level boundary; the explicit atoms
    stop before, at or past the end of the support, and a finite or
    unbounded tail covers the rest of the space, or all of it when the
    partition has no atoms. A finite space may carry a zero level set."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    infinite = draw(st.booleans())
    n = rng.randint(0, 12)
    masses = [F(rng.randint(1, 5), rng.choice(PRIMES)) for _ in range(n)]
    values = [F(rng.randint(0 if infinite else -20, 20), rng.choice(PRIMES))
              for _ in range(n)]
    zero = F(rng.randint(0, 3), rng.choice(PRIMES))
    f = canonicalize(list(zip(values, masses)), INF if infinite else sum(masses) + zero)
    atoms = []
    for piece in f.pieces:
        cuts = sorted({F(rng.randint(1, p - 1), p) * piece.mass
                       for p in rng.choices(PRIMES, k=rng.randint(0, 2))})
        atoms += [b - a for a, b in zip([F(0)] + cuts, cuts + [piece.mass])]
    if infinite:
        atoms += [F(rng.randint(1, 5), rng.choice(PRIMES)) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 2)):
        if len(atoms) > 1:
            i = rng.randrange(len(atoms) - 1)
            atoms[i : i + 2] = [atoms[i] + atoms[i + 1]]
    atoms = tuple(atoms[: rng.choice((len(atoms), rng.randint(0, len(atoms))))])
    if infinite:
        return f, Partition(atoms, INF, Tail(F(1, rng.choice(PRIMES))))
    rest = f.total_measure - sum(atoms)
    count = rng.randint(1, 3)
    return f, Partition(atoms, f.total_measure, Tail(rest / count, count) if rest else None)


def layout_outcome(action, partition, f):
    try:
        return action(partition, f)
    except MajoError as exc:
        return type(exc), str(exc)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(layout_cases())
@hypothesis.example((canonicalize([], INF), Partition((), INF, Tail(F(1)))))
@hypothesis.example((canonicalize([], 0), Partition((), 0)))
# a finite zero level set reaching a finite tail; the atoms end with the support
@hypothesis.example((canonicalize([(2, F(1, 3)), (1, F(1, 5))], 1),
                     Partition((F(1, 3), F(1, 5)), 1, Tail(F(7, 30), 2))))
# the first atom straddles the first level boundary
@hypothesis.example((canonicalize([(2, F(1, 3)), (1, F(1, 5))], INF),
                     Partition((F(1, 2),), INF, Tail(F(1)))))
# the support runs past the atoms by part of a level set
@hypothesis.example((canonicalize([(2, F(1, 3)), (1, F(1, 5))], INF),
                     Partition((F(1, 3), F(1, 7)), INF, Tail(F(1)))))
# a finite partition and a function on an infinite space
@hypothesis.example((canonicalize([(2, F(1, 3))], INF), Partition((F(1, 3),), F(1, 3))))
def test_integer_layout_walk_is_the_fraction_walk(case):
    """align gives the Fraction walk's values, and partition_average the
    partial-integral means, or each raises its reference's exception with its
    message."""
    f, partition = case
    assert layout_outcome(align, partition, f) == layout_outcome(fraction_align, partition, f)
    assert (layout_outcome(partition_average, partition, f)
            == layout_outcome(reference_average, partition, f))


@st.composite
def prime_mass_pairs(draw):
    """A majorized pair (g averaged over blocks of its level sets, and g),
    whose masses carry at least three distinct prime denominators up to
    10^4. On an infinite space the last block may take in a share of the
    zero tail."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    infinite = draw(st.booleans())
    primes = rng.sample(PRIMES, rng.randint(3, 6))
    n = rng.randint(3, 40)
    masses = [F(rng.randint(1, 5), primes[i % len(primes)]) for i in range(n)]
    values = [F(rng.randint(0 if infinite else -(10**4), 10**4), rng.choice(PRIMES))
              for _ in range(n)]
    total = INF if infinite else sum(masses)
    g = canonicalize(list(zip(values, masses)), total)
    cuts = sorted(rng.sample(range(1, len(g.pieces)), rng.randint(0, len(g.pieces) - 1)))
    blocks = [g.pieces[a:b] for a, b in zip([0] + cuts, cuts + [len(g.pieces)])]
    spread = [[sum(v * m for v, m in block), sum(m for _, m in block)] for block in blocks]
    if infinite and rng.random() < 0.5:
        spread[-1][1] += F(rng.randint(1, 5), rng.choice(primes))
    f = canonicalize([(integral / mass, mass) for integral, mass in spread], total)
    denominators = {p.mass.denominator for p in f.pieces + g.pieces}
    hypothesis.assume(len(denominators) >= 3)
    return f, g


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(prime_mass_pairs())
def test_witness_image_is_f_over_three_mass_denominators(case):
    f, g = case
    assert ds_witness(f, g).apply_to(g) == f


@st.composite
def chains_and_functions(draw):
    """The chain of a majorized pair with prime-denominator masses, and a
    function h on the same total. In most draws h is laid out on the chain's
    atoms: decreasing values from a small pool, so that runs of atoms share a
    level set, and on an infinite space the last atoms may lie past the
    support. Otherwise h has level sets of its own, cut from the finite
    total or of random masses on an infinite space, so that an atom may
    straddle a level boundary or the support may run into the tail."""
    f, g = draw(prime_mass_pairs())
    chain = ds_witness(f, g)
    partition = chain.source_partition
    total = partition.total_measure
    rng = random.Random(draw(st.integers(0, 2**32)))
    least = 0 if total is INF else -(10**4)
    pool = [F(rng.randint(least, 10**4), rng.choice(PRIMES)) for _ in range(rng.randint(1, 6))]
    pool += [F(0)] * rng.randint(0, 1)
    if rng.random() < 0.75:
        values = sorted((rng.choice(pool) for _ in partition.atoms), reverse=True)
        return chain, AlignedStep(partition, values).step_function()
    if total is INF:
        masses = [F(rng.randint(1, 5), rng.choice(PRIMES)) for _ in range(rng.randint(0, 12))]
    else:
        cuts = sorted({total * F(rng.randint(1, p - 1), p)
                       for p in rng.choices(PRIMES, k=rng.randint(0, 12))})
        masses = [b - a for a, b in zip([F(0), *cuts], [*cuts, total])]
    return chain, canonicalize([(rng.choice(pool), m) for m in masses], total)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(chains_and_functions())
def test_apply_to_lays_out_any_function_as_align_does(case):
    """apply_to on a function other than g refuses exactly what align refuses,
    with its message, and otherwise is the Fraction mix of align's values."""
    chain, h = case
    partition = chain.source_partition
    aligned = layout_outcome(align, partition, h)
    if not isinstance(aligned, AlignedStep):
        assert layout_outcome(lambda _, h: chain.apply_to(h), partition, h) == aligned
        return
    mixed = [v for (v,) in reference_mix(chain, [(v,) for v in aligned.values])]
    assert chain.apply_to(h) == canonicalize(zip(mixed, partition.atoms), partition.total_measure)


@st.composite
def documents(draw):
    """A function of up to 10^3 pieces, alone or with a partition of up to
    10^3 atoms and a tail."""
    infinite = draw(st.booleans())
    count = draw(st.integers(0, 1000))
    raw = [(draw(rationals()), draw(rationals(positive=True))) for _ in range(count)]
    pieces = [(abs(v) if infinite else v, m) for v, m in raw]
    rest = draw(rationals(positive=True))
    atoms = tuple(m for _, m in pieces)
    f = canonicalize(pieces, INF if infinite else sum(atoms) + rest)
    if draw(st.booleans()):
        return f, None
    if infinite:
        return f, Partition(atoms, INF, Tail(draw(rationals(positive=True))))
    tail_count = draw(st.integers(1, 10))
    return f, Partition(atoms, f.total_measure, Tail(rest / tail_count, tail_count))


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(documents())
def test_sfn_round_trip_and_canonical_form_at_scale(case):
    f, partition = case
    document = loads_sfn(dumps_sfn(f, partition))
    assert (document.function, document.partition) == (f, partition)
    assert canonicalize(f.pieces, f.total_measure) == f


@st.composite
def raw_pieces(draw):
    """Raw (value, mass) pairs and a total that may break any input rule:
    unsorted or repeated values, zero and negative values and masses, and
    masses short of, equal to or over a finite total, or an infinite one."""
    pool = [-draw(rationals(positive=True)), F(0)]
    pool += draw(st.lists(rationals(positive=True), min_size=1, max_size=4))
    count = draw(st.integers(0, 8))
    pieces = [
        (draw(st.sampled_from(pool)), draw(rationals(positive=True)))
        for _ in range(count)
    ]
    if pieces and draw(st.integers(0, 3)) == 0:
        value, mass = pieces[draw(st.integers(0, count - 1))]
        pieces.append((value, -mass if draw(st.booleans()) else F(0)))
    if draw(st.booleans()):
        pieces.sort(key=lambda piece: piece[0], reverse=True)
    support = sum(m for _, m in pieces)
    total = draw(
        st.sampled_from((INF, support, support + 1, support - 1, F(-1)))
        | rationals()
    )
    return pieces, total


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(raw_pieces())
def test_direct_construction_is_canonicalize_plus_a_comparison(case):
    pieces, total = case
    try:
        canonical = canonicalize(pieces, total)
    except MajoError as error:
        with pytest.raises(MajoError) as direct:
            StepFunction(pieces, total)
        assert type(direct.value) is type(error)
        return
    if canonical.pieces == tuple(pieces):
        assert StepFunction(pieces, total) == canonical
    else:
        with pytest.raises(NonCanonicalError):
            StepFunction(pieces, total)
    assert StepFunction(list(canonical.pieces), canonical.total_measure) == canonical


def two_pass_rational(text):
    """The text rule read in two passes: the format's pattern on the stripped
    text, then ``Fraction`` parsing the whole text again."""
    if not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", text.strip()):
        raise InvalidRationalError(text)
    try:
        return F(text)
    except ValueError:  # more digits than int() converts
        raise InvalidRationalError(text) from None


@st.composite
def long_tokens(draw):
    """Integers and p/q with one part just under, at or just over the number
    of digits int() converts, some of them leading zeros."""
    limit = sys.get_int_max_str_digits()
    digits = draw(st.integers(limit - 1, limit + 1))
    part = draw(st.sampled_from(("7" * digits, "0" * (digits - 1) + "1")))
    form = draw(st.sampled_from(("{}", "-{}", "+{}", "{}/3", "3/{}", "-{}/{}")))
    return form.format(part, part)


TOKEN_PIECES = ("0", "1", "7", "9", "000", "+", "-", "/", "_", ".", "e", " ",
                "\t", "\u00a0", "٣", "³")


@st.composite
def rational_like_tokens(draw):
    """An optional sign, digit runs, maybe a slash and more digit runs, then
    up to two pieces of the alphabet above inserted anywhere."""
    digits = st.lists(st.sampled_from(("0", "1", "7", "9", "000")), max_size=3)
    token = draw(st.sampled_from(("", "+", "-"))) + "".join(draw(digits))
    if draw(st.booleans()):
        token += "/" + "".join(draw(digits))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(token)))
        token = token[:at] + draw(st.sampled_from(TOKEN_PIECES)) + token[at:]
    return token


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(rational_like_tokens() | long_tokens())
def test_rational_reader_matches_the_two_pass_rule(token):
    try:
        expected = two_pass_rational(token)
    except InvalidRationalError:
        with pytest.raises(InvalidRationalError):
            as_fraction(token)
        return
    value = as_fraction(token)
    assert type(value) is F
    assert (value.numerator, value.denominator) == (
        expected.numerator, expected.denominator)


# the text rule for a rational, kept here only: the library reads it with no regex
RATIONAL_PATTERN = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")
# every character str.isspace() takes but the two that end a line
INLINE_WHITESPACE = tuple(
    c for c in map(chr, range(0x110000)) if c.isspace() and c not in "\r\n"
)


def pattern_ratio(token):
    """``token`` read by the pattern and int(), in lowest terms, or None."""
    match = RATIONAL_PATTERN.fullmatch(token)
    if not match:
        return None
    numerator, denominator = match.groups()
    try:
        return F(int(numerator), int(denominator or 1)).as_integer_ratio()
    except ValueError:  # more digits than int() converts
        return None


# ASCII digits, the signs, the slash, the digit separator int() takes,
# whitespace, and digits that are not ASCII: an Arabic-Indic one and a
# mathematical bold nine, which int() reads, and a superscript two, which
# it refuses
READER_ALPHABET = tuple("0123456789+-/_") + (" ", "\t", "\x1c", "\x85", "\u2028",
                                             "\u0661", "\u00b2", "\U0001d7d7")


@hypothesis.settings(max_examples=2000, deadline=None)
@hypothesis.given(
    st.text(st.sampled_from(READER_ALPHABET), max_size=12)
    | rational_like_tokens()
    | long_tokens(),
    st.text(st.sampled_from(INLINE_WHITESPACE + ("\n", "\r")), max_size=2),
    st.text(st.sampled_from(INLINE_WHITESPACE + ("\n", "\r")), max_size=2),
)
def test_ratio_reader_is_the_pattern(token, left, right):
    """``_read_ratio`` reads what the pattern reads and refuses the rest, and
    ``as_fraction`` does the same after stripping surrounding whitespace."""
    assert _read_ratio(token) == pattern_ratio(token)
    text = left + token + right
    expected = pattern_ratio(text.strip())
    if expected is None:
        with pytest.raises(InvalidRationalError):
            as_fraction(text)
    else:
        assert as_fraction(text).as_integer_ratio() == expected


def fraction_keyed_canonicalize(raw, total):
    """The canonical pieces by the definition: merge equal values in a dict
    keyed on Fractions, sort its keys with ``sorted(..., reverse=True)``."""
    total = as_extended(total)
    merged = {}
    for value, mass in raw:
        value, mass = as_fraction(value), as_fraction(mass)
        if mass <= 0:
            raise NegativeMassError(mass)
        merged[value] = merged.get(value, F(0)) + mass
    if total is INF:
        merged.pop(F(0), None)
    else:
        support = sum(merged.values(), F(0))
        if total < 0 or support > total:
            raise MassExceedsTotalError(total)
        if support < total:
            merged[F(0)] = merged.get(F(0), F(0)) + total - support
    if total is INF and any(v < 0 for v in merged):
        raise NegativeValueOnInfiniteSpaceError(total)
    return tuple((v, merged[v]) for v in sorted(merged, reverse=True))


def spellings(value, k):
    """Ways to write one rational: Fractions built from two int pairs, and
    p/q text reduced or scaled by k, padded or not; integers bare too, and
    0 and 1 as bools."""
    n, d = value.numerator, value.denominator
    out = [value, F(n * k, d * k), f"{n}/{d}", f"{n * k}/{d * k}", f" {n * k}/{d * k}\t"]
    if d == 1:
        out += [n, str(n)]
    if value in (0, 1):
        out.append(bool(value))
    return out


@st.composite
def spelled_pieces(draw):
    """Raw pieces over a few anchor values and their neighbours closer than
    2^-64, some with 400-digit numerators, of both signs, each value and
    mass spelled any of several ways; now and then a nonpositive mass. A
    midpoint of a 2^-64 grid cell shares floor(v * 2^64) with both its
    neighbours, so the sort must break ties on the exact value."""
    anchors = draw(st.lists(rationals(), min_size=1, max_size=3))
    if draw(st.booleans()):
        sign = draw(st.sampled_from((1, -1)))
        anchors.append(F(sign * draw(st.integers(10**399, 10**400 - 1)),
                         draw(st.sampled_from(PRIMES))))
    if draw(st.booleans()):
        anchors.append(F(2 * draw(st.integers(-(2**70), 2**70)) + 1, 2**65))
    pool = [F(0)]
    for anchor in anchors:
        gap = F(1, 2**70 * draw(st.sampled_from(PRIMES)))
        pool += [anchor, anchor + gap, anchor - gap]
    pieces = []
    for _ in range(draw(st.integers(0, 12))):
        value = draw(st.sampled_from(pool))
        mass = draw(rationals(positive=True))
        if draw(st.integers(0, 30)) == 0:
            mass = -mass if draw(st.booleans()) else F(0)
        k = draw(st.integers(2, 5))
        pieces.append((draw(st.sampled_from(spellings(value, k))),
                       draw(st.sampled_from(spellings(mass, k)))))
    support = sum((as_fraction(m) for _, m in pieces), F(0))
    total = draw(st.sampled_from((INF, "inf", support, support + 1, support - 1, F(-1))))
    return pieces, total


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(spelled_pieces())
def test_canonicalize_orders_and_merges_as_fraction_keys_do(case):
    pieces, total = case
    try:
        expected = fraction_keyed_canonicalize(pieces, total)
    except MajoError as error:
        with pytest.raises(type(error)):
            canonicalize(pieces, total)
        return
    f = canonicalize(pieces, total)
    assert f.pieces == expected
    assert all(type(v) is F and type(m) is F for v, m in f.pieces)
    assert canonicalize([(as_fraction(v), as_fraction(m)) for v, m in pieces], total) == f


INLINE_SPACES = (" ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\x0b", "\x0c",
                 "\x85", "\u2028", "\u2029")
SPACE = st.sampled_from(INLINE_SPACES)
PAD = st.sampled_from(("",) + INLINE_SPACES)
COMMENT = st.sampled_from(("", "#", "# top level", " # 1 2 3", "#\tpartition 1",
                           " # a \u2028 b", "# c \x85 d", "# # twice"))


def spelled_token(draw, value):
    """A rational as text: scaled by k, with a sign where optional, leading
    zeros on the numerator or the denominator, integers bare or over 1."""
    k = draw(st.integers(1, 3))
    n, d = value.numerator * k, value.denominator * k
    sign = "-" if n < 0 else draw(st.sampled_from(("", "+")))
    numerator = draw(st.sampled_from(("", "0", "00"))) + str(abs(n))
    if d == 1 and draw(st.booleans()):
        return sign + numerator
    return f"{sign}{numerator}/{draw(st.sampled_from(('', '0', '00')))}{d}"


@st.composite
def sfn_texts(draw):
    """A valid .sfn text: spelled tokens, repeated values, any whitespace
    but a line end between tokens, comments, blank and comment-only lines,
    a partition block anywhere after the header, and mixed line ends."""
    infinite = draw(st.booleans())
    pool = draw(st.lists(rationals(), min_size=1, max_size=4))
    if infinite:
        pool = [abs(v) for v in pool]
    pieces = [(draw(st.sampled_from(pool)), draw(rationals(positive=True)))
              for _ in range(draw(st.integers(0, 8)))]
    support = sum((m for _, m in pieces), F(0))
    total = INF if infinite else support + draw(st.sampled_from((F(0), F(1), F(2, 3))))
    total_token = (draw(st.sampled_from(("inf", "INF", "Inf"))) if infinite
                   else spelled_token(draw, total))
    body = [draw(PAD) + spelled_token(draw, v) + draw(SPACE) + spelled_token(draw, m)
            + draw(PAD) + draw(COMMENT) for v, m in pieces]
    if draw(st.booleans()):
        block = []
        if infinite:
            atoms = draw(st.lists(rationals(positive=True), max_size=3))
            block.append(" ".join(["partition"] + [spelled_token(draw, a) for a in atoms]))
            if not atoms or draw(st.booleans()):
                block.append(f"tail {spelled_token(draw, draw(rationals(positive=True)))} x inf")
        else:
            k = draw(st.integers(1, 3))
            atom = spelled_token(draw, total / k)
            if total > 0 and draw(st.booleans()):
                block += ["partition", f"tail {atom} x {k}"]
            else:
                block.append(" ".join(["partition"] + ([atom] * k if total > 0 else [])))
        for line in block:
            line = draw(PAD) + line + draw(PAD) + draw(COMMENT)
            body.insert(draw(st.integers(0, len(body))), line)
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(PAD) + draw(COMMENT))
    lines = [draw(PAD) + draw(COMMENT)] * draw(st.integers(0, 1))
    lines += [f"{draw(PAD)}total{draw(SPACE)}{total_token}{draw(PAD)}{draw(COMMENT)}"] + body
    ends = [draw(st.sampled_from(("\n", "\r\n", "\r"))) for _ in lines]
    ends[-1] = draw(st.sampled_from(("", "\n", "\r\n", "\r")))
    return "".join(line + end for line, end in zip(lines, ends))


def token_reader(text):
    """loads_sfn written token by token: lines end at \\n, \\r\\n or \\r, a
    comment runs to the end of its line, and every rational is read by
    as_fraction."""
    lines = [line.split("#", 1)[0].split() for line in re.split(r"\r\n|\r|\n", text)]
    header, *body = [tokens for tokens in lines if tokens]
    assert header[0] == "total"
    total = as_extended(header[1])
    pieces, atoms, tail = [], None, None
    for tokens in body:
        if tokens[0] == "partition":
            atoms = [as_fraction(a) for a in tokens[1:]]
        elif tokens[0] == "tail":
            tail = Tail(as_fraction(tokens[1]), None if tokens[3] == "inf" else int(tokens[3]))
        else:
            value, mass = tokens
            pieces.append((as_fraction(value), as_fraction(mass)))
    function = canonicalize(pieces, total)
    if atoms is None:
        return function, None
    if total is INF and tail is None:
        tail = Tail(atoms[-1])
    return function, Partition(tuple(atoms), total, tail)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(sfn_texts())
def test_loader_matches_a_token_by_token_reader(text):
    document = loads_sfn(text)
    assert (document.function, document.partition) == token_reader(text)


def route_rational(draw, primes):
    """A rational whose denominator is 1, a small prime or a prime of four or
    five digits."""
    denominator = draw(st.sampled_from((1, 2, 3) + tuple(primes)))
    return F(draw(st.integers(-(10**5), 10**5)), denominator)


def unreduced_token(draw, value):
    """``value`` as a .sfn token that is seldom in lowest terms: scaled by k,
    leading zeros, an optional '+', and zero sometimes as -0/q."""
    if value == 0 and draw(st.booleans()):
        return f"-0/{draw(st.integers(1, 9))}"
    k = draw(st.sampled_from((1, 2, 3, 7)))
    n, d = value.numerator * k, value.denominator * k
    sign = "-" if n < 0 else draw(st.sampled_from(("", "+")))
    numerator = draw(st.sampled_from(("", "0"))) + str(abs(n))
    if d == 1 and draw(st.booleans()):
        return sign + numerator
    return f"{sign}{numerator}/{draw(st.sampled_from(('', '0')))}{d}"


def coerced_input(draw, value):
    """``value`` as canonicalize takes it: a Fraction, an int or a p/q string."""
    forms = [value, f"{value.numerator * 2}/{value.denominator * 2}"]
    if value.denominator == 1:
        forms.append(value.numerator)
    return draw(st.sampled_from(forms))


@st.composite
def routed_functions(draw):
    """Raw level sets over a few values, each repeated on several lines, with
    zero level sets, signed values on finite spaces, masses and values over
    prime denominators of up to five digits, and a total the masses reach
    or fall short of."""
    primes = draw(st.lists(st.sampled_from(LONG_PRIMES), min_size=1, max_size=3))
    infinite = draw(st.booleans())
    values = [route_rational(draw, primes) for _ in range(draw(st.integers(1, 4)))] + [F(0)]
    if infinite or not draw(st.booleans()):
        values = [abs(v) for v in values]
    raw = []
    for _ in range(draw(st.integers(0, 10))):
        mass = abs(route_rational(draw, primes)) or F(1)
        raw.append((draw(st.sampled_from(values)), mass))
    support = sum((m for _, m in raw), F(0))
    total = INF if infinite else support + draw(st.sampled_from((F(0), F(1, 3), F(5))))
    return raw, total


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(routed_functions(), st.data())
def test_every_route_stores_the_same_reduced_pairs(case, data):
    """The loader (from unreduced tokens), canonicalize (from Fractions, ints
    and p/q strings), direct construction and a witness image all give one
    function: equal, with equal hashes and reprs, and stored pairs that are
    the ratios of its pieces."""
    raw, total = case
    draw = data.draw
    lines = [f"{unreduced_token(draw, v)} {unreduced_token(draw, m)}" for v, m in raw]
    header = "total " + ("inf" if total is INF else unreduced_token(draw, total))
    loaded = loads_sfn("\n".join([header, *lines]) + "\n").function
    coerced = canonicalize(
        [(coerced_input(draw, v), coerced_input(draw, m)) for v, m in raw], total
    )
    direct = StepFunction(list(coerced.pieces), total)
    # g splits every level set of f into two halves at v + v/2 and v - v/2, so
    # f is its conditional expectation and the witness carries g onto f
    g = canonicalize(
        [(v + sign * abs(v) / 2, m / 2) for v, m in coerced.pieces for sign in (1, -1)],
        total,
    )
    image = ds_witness(coerced, g).apply_to(g)
    routes = (loaded, coerced, direct, image)
    for function in routes:
        assert function == loaded
        assert hash(function) == hash(loaded)
        assert repr(function) == repr(loaded)
        assert function._levels == tuple(
            (v.as_integer_ratio(), m.as_integer_ratio()) for v, m in function.pieces
        )
    assert all(gcd(*ratio) == 1 for level in loaded._levels for ratio in level)


@st.composite
def step_functions(draw):
    """Up to 30 level sets with values of both signs on a finite space."""
    infinite = draw(st.booleans())
    raw = draw(st.lists(st.tuples(rationals(), rationals(positive=True)), max_size=30))
    if infinite:
        return canonicalize([(abs(v), m) for v, m in raw], INF)
    return canonicalize(raw, sum((m for _, m in raw), F(0)) + draw(rationals(positive=True)))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(step_functions(), st.lists(step_functions(), min_size=1, max_size=4))
def test_pair_scales_are_exact_and_least(f, partners):
    """One function against several partners, in both argument orders: every
    scaled value and mass is the original over its scale, each scale is the
    lcm of the pair's denominators, and the first function's levels come
    first. Unequal totals are refused; two finite functions are then compared
    again on the larger total."""
    for g in partners:
        for a, b in ((f, g), (g, f)):
            if a.total_measure != b.total_measure:
                with pytest.raises(MeasureMismatchError):
                    _scaled(a, b)
                if a.infinite or b.infinite:
                    continue
                total = max(a.total_measure, b.total_measure)
                a, b = canonicalize(a.pieces, total), canonicalize(b.pieces, total)
            mass_scale, value_scale, left, right = _scaled(a, b)
            pieces = a.pieces + b.pieces
            assert value_scale == lcm(*[v.denominator for v, _ in pieces])
            assert mass_scale == lcm(*[m.denominator for _, m in pieces])
            values, masses = [*left[0], *right[0]], [*left[1], *right[1]]
            assert [F(n, value_scale) for n in values] == [v for v, _ in pieces]
            assert [F(n, mass_scale) for n in masses] == [m for _, m in pieces]
            assert len(left[0]) == len(left[1]) == len(a.pieces)
    fresh = canonicalize(f.pieces, f.total_measure)
    assert f == fresh and fresh == f
    assert hash(f) == hash(fresh)
    assert repr(f) == repr(fresh)


@st.composite
def same_total_family(draw):
    """Two to four step functions on one total: infinite, or a finite total
    that every function's masses tile, with values of both signs."""
    infinite = draw(st.booleans())
    total = INF if infinite else draw(rationals(positive=True))
    family = []
    for _ in range(draw(st.integers(2, 4))):
        raw = draw(st.lists(st.tuples(rationals(), rationals(positive=True)), max_size=8))
        if infinite:
            family.append(canonicalize([(abs(v), m) for v, m in raw], INF))
            continue
        share = total / (sum((m for _, m in raw), F(0)) + draw(rationals(positive=True)))
        family.append(canonicalize([(v, m * share) for v, m in raw], total))
    return family


# the calls that scale a pair, and how each is made
_SCALING_CALLS = (
    cross_check,
    lambda f, g: cross_check(f, g, weak=True),
    majorize,
    weak_majorize,
    hinge_criterion,
    tail_distribution_criterion,
    _scaled,
)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(
    same_total_family(),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 7)), max_size=12),
)
def test_kept_scalings_equal_fresh_ones(family, calls):
    """After interleaved calls with switching partners, the scaling of every
    ordered pair of the family, whether the cache holds it or not, equals an
    uncached scaling with the first function's levels first."""
    for i, j, call in calls:
        f, g = family[i % len(family)], family[j % len(family)]
        if call == len(_SCALING_CALLS):
            try:
                ds_witness(f, g)
            except NotMajorizedError:
                pass
        else:
            _SCALING_CALLS[call](f, g)
    for a in family:
        for b in family:
            assert _scaled(a, b) == _scaled_levels.__wrapped__(a._levels, b._levels)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.lists(rationals(positive=True), min_size=1, max_size=20))
def test_fraction_gcd_leaves_coprime_integers(values):
    quotients = [v / fraction_gcd(values) for v in values]
    assert all(q.denominator == 1 for q in quotients)
    assert gcd(*(q.numerator for q in quotients)) == 1


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.integers(0, 40), st.integers(0, 25), st.data())
def test_mat_round_trip_at_scale(rows, cols, data):
    matrix = OperatorMatrix(
        [[abs(data.draw(rationals())) for _ in range(cols)] for _ in range(rows)]
    )
    assert loads_mat(dumps_mat(matrix)) == matrix


@st.composite
def criterion_pairs(draw):
    """(f, g, kind): g has up to 10^3 level sets over one to three prime
    denominators up to 10^4, with values of both signs on some finite spaces,
    and f averages g over runs of consecutive level sets (on an infinite space
    the last run may take a share of the zero tail). ``kind`` keeps f < g
    ("majorized"), swaps the pair ("reversed"), or moves one value of f
    ("perturbed")."""
    infinite = draw(st.booleans())
    low = 1 if infinite or draw(st.booleans()) else -(10**4)
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=3))
    # bulk draws come from a seeded generator: drawn one by one, 10^3 level
    # sets overrun hypothesis's example buffer
    rng = random.Random(draw(st.integers(0, 2**32)))

    def rational(lo=0):
        return F(rng.randint(lo, 10**4), rng.choice(primes))

    count = draw(st.integers(1, 1000) | st.just(1000))
    raw = [(rational(low), rational(1)) for _ in range(count)]
    total = INF if infinite else sum(m for _, m in raw) + rational()
    g = canonicalize(raw, total)
    averaged, run = [], []
    for k, piece in enumerate(g.pieces):
        run.append(piece)
        last = k == len(g.pieces) - 1
        if last or rng.random() < 0.3:
            mass = sum(m for _, m in run) + (rational() if infinite and last else 0)
            averaged.append((sum(v * m for v, m in run) / mass, mass))
            run = []
    kind = draw(st.sampled_from(("majorized", "reversed", "perturbed")))
    if kind == "perturbed":
        k = rng.randrange(len(averaged))
        averaged[k] = (averaged[k][0] + F(1, rng.choice(primes)), averaged[k][1])
    f = canonicalize(averaged, total)
    return (g, f, kind) if kind == "reversed" else (f, g, kind)


def fails(point):
    """The failure rule, stated apart from ``majorize._decide``: a ``<=``
    checkpoint fails on left > right, an ``==`` checkpoint on left != right."""
    if point.relation is Relation.LE:
        return point.left > point.right
    return point.left != point.right


DIRECT = {
    Criterion.REARRANGEMENT: "partial_integral",
    Criterion.HINGE: "hinge_integral",
    Criterion.TAIL_DISTRIBUTION: "tail_distribution_integral",
}


@hypothesis.settings(max_examples=12, deadline=None)
@hypothesis.given(criterion_pairs(), st.booleans(), st.randoms(use_true_random=False))
def test_criteria_agree_and_certificates_reverify_at_scale(case, weak, rng):
    f, g, kind = case
    report = cross_check(f, g, weak=weak)  # raises if the criteria disagree
    if kind == "majorized":
        assert report.holds
    elif kind == "reversed":
        assert report.holds == (f == g)
    for verdict in report.verdicts:
        evaluate = DIRECT[verdict.criterion]
        if verdict.violation is not None:
            point = verdict.violation
            assert fails(point)
            assert point.left == getattr(f, evaluate)(point.point)
            assert point.right == getattr(g, evaluate)(point.point)
        # the tail evaluator costs O(n^2) per point (about 2 s at 10^3 level
        # sets), so sampled tail checkpoints are re-verified by the hinge
        # evaluator, the same quantity by the layer-cake formula
        if verdict.criterion is Criterion.TAIL_DISTRIBUTION:
            evaluate = DIRECT[Criterion.HINGE]
        for point in rng.sample(verdict.checked, min(3, len(verdict.checked))):
            assert point.left == getattr(f, evaluate)(point.point)
            assert point.right == getattr(g, evaluate)(point.point)


@st.composite
def many_piece_pairs(draw, pool=PRIMES):
    """(f, g): g has up to 200 level sets with values and masses over up to
    twelve prime denominators from ``pool``, on a finite or an infinite space,
    with values of both signs on some finite ones. f averages g over runs of
    consecutive level sets ("average"), then perhaps moves one value up or
    down ("perturbed"), or puts fresh values on g's masses split in two
    ("fresh"), so that every criterion both holds and fails, weak and
    strict."""
    infinite = draw(st.booleans())
    low = 1 if infinite or draw(st.booleans()) else -(10**4)
    primes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def rational(lo=0):
        return F(rng.randint(lo, 10**4), rng.choice(primes))

    raw = [(rational(low), rational(1)) for _ in range(draw(st.integers(1, 200)))]
    total = INF if infinite else sum(m for _, m in raw) + rational()
    g = canonicalize(raw, total)
    kind = draw(st.sampled_from(("average", "perturbed", "fresh")))
    if kind == "fresh":
        halves = [m / 2 for _, m in g.pieces for _ in range(2)]
        return canonicalize([(rational(min(low, 0)), m) for m in halves], total), g
    averaged, run = [], []
    for k, piece in enumerate(g.pieces):
        run.append(piece)
        if k == len(g.pieces) - 1 or rng.random() < 0.3:
            mass = sum(m for _, m in run)
            averaged.append((sum(v * m for v, m in run) / mass, mass))
            run = []
    if kind == "perturbed":
        k = rng.randrange(len(averaged))
        value, mass = averaged[k]
        averaged[k] = (value * rng.choice((F(1, 2), F(3, 2))), mass)
    return canonicalize(averaged, total), g


# an example at 200 level sets takes up to about 2 s, nearly all of it in the
# direct evaluators
@hypothesis.settings(max_examples=10, deadline=None)
@hypothesis.given(many_piece_pairs(), st.randoms(use_true_random=False))
def test_every_checkpoint_is_the_direct_value_at_scale(case, rng):
    """Each criterion, weak and strict, on many pieces and long denominators:
    every checkpoint equals the per-point evaluators of StepFunction, the
    violation is the first failing checkpoint, and cross_check returns the
    same verdicts."""
    f, g = case
    cache = {}

    def direct(h, name, point):
        key = (h is f, name, point)
        if key not in cache:
            cache[key] = getattr(h, name)(point)
        return cache[key]

    for weak in (False, True):
        rearr = weak_majorize(f, g) if weak else majorize(f, g)
        verdicts = (
            rearr,
            hinge_criterion(f, g, weak=weak),
            tail_distribution_criterion(f, g, weak=weak),
        )
        assert len({v.holds for v in verdicts}) == 1
        assert cross_check(f, g, weak=weak).verdicts == verdicts
        for verdict in verdicts:
            # the direct tail evaluator costs O(n^2) per point, so every tail
            # checkpoint is compared with the hinge evaluator (the same
            # quantity by the layer-cake formula) and the violation and two
            # sampled checkpoints with the tail evaluator itself
            evaluate = DIRECT[verdict.criterion]
            if verdict.criterion is Criterion.TAIL_DISTRIBUTION:
                evaluate = DIRECT[Criterion.HINGE]
                sampled = rng.sample(verdict.checked, min(2, len(verdict.checked)))
                for point in sampled + [verdict.violation] * (not verdict.holds):
                    assert point.left == f.tail_distribution_integral(point.point)
                    assert point.right == g.tail_distribution_integral(point.point)
            for point in verdict.checked:
                assert type(point.left) is F and type(point.right) is F
                assert point.left == direct(f, evaluate, point.point)
                assert point.right == direct(g, evaluate, point.point)
            assert verdict.violation == next(
                (p for p in verdict.checked if fails(p)), None
            )
            assert verdict.holds == (verdict.violation is None)


# prime denominators of four and five digits
LONG_PRIMES = [p for p in range(1000, 10**5) if all(p % q for q in range(2, 317))]


@st.composite
def tie_pairs(draw):
    """(f, g) of up to 8 level sets each, drawn from a few values, some 2^-64
    apart, and a few masses, so that levels, cumulative masses and the two
    sides of a criterion often coincide exactly; on a finite or an infinite
    space, with values of both signs on some finite ones."""
    infinite = draw(st.booleans())
    values = draw(st.lists(rationals(), min_size=1, max_size=4))
    values += [v + F(k, 2**64) for v in values for k in draw(st.sets(st.sampled_from((-1, 1))))]
    signed = not infinite and draw(st.booleans())
    levels = st.tuples(
        st.sampled_from(values if signed else [abs(v) for v in values]),
        st.sampled_from((F(1), F(1, 2), F(1, 3), F(2, 3))),
    )
    f_raw, g_raw = draw(st.lists(levels, max_size=8)), draw(st.lists(levels, max_size=8))
    if infinite:
        return canonicalize(f_raw, INF), canonicalize(g_raw, INF)
    total = max(sum(m for _, m in f_raw), sum(m for _, m in g_raw)) + draw(
        st.sampled_from((0, F(1, 3), 1))
    )
    return canonicalize(f_raw, total), canonicalize(g_raw, total)


# the pairs of many_piece_pairs at prime denominators of four and five digits,
# in either order
long_pairs = st.tuples(many_piece_pairs(LONG_PRIMES), st.booleans()).map(
    lambda case: case[0][::-1] if case[1] else case[0]
)


def reference_checkpoints(criterion, f, g, weak, memo):
    """Every scan point of a criterion, in order, with both sides evaluated by
    StepFunction's per-point evaluators: the partial integrals at 0 and every
    cumulative mass, at INF on an infinite space and, unless weak, at the end
    again for the equality clause; the hinge and tail integrals at 0 and every
    value, the lowest carrying the equality clause unless weak. The tail
    evaluator costs O(n^2) per point, so past 40 level sets the tail sides
    are the hinge evaluator's, the same quantity by the layer-cake formula,
    and the tail evaluator checks the violation only (by the caller). Each
    side is kept in ``memo``, keyed on the side, the evaluator and the point,
    for the other mode."""
    le, eq = Relation.LE, Relation.EQ
    if criterion is Criterion.REARRANGEMENT:
        cuts = [accumulate(p.mass for p in h.pieces) for h in (f, g)]
        points = sorted({F(0), *cuts[0], *cuts[1]})
        points += [INF] * f.infinite
        relations = [le] * len(points) + [eq] * (not weak)
        points += points[-1:] * (not weak)
        evaluate = "partial_integral"
    else:
        points = sorted({F(0), *f.values(), *g.values()})
        relations = [le if weak else eq] + [le] * (len(points) - 1)
        evaluate = DIRECT[criterion]
        if len(f.pieces) + len(g.pieces) > 40:
            evaluate = "hinge_integral"
    for key in [(h, evaluate, p) for p in points for h in "fg"]:
        if key not in memo:
            memo[key] = getattr(f if key[0] == "f" else g, evaluate)(key[2])
    return tuple(
        CheckPoint(p, memo["f", evaluate, p], memo["g", evaluate, p], r)
        for p, r in zip(points, relations)
    )


INF_PAIR = (canonicalize([(2, 1)], INF), canonicalize([(1, 1)], INF))
LAST_POINT = (canonicalize([(2, 1), (F(1, 2), 1)], 2), canonicalize([(2, 1)], 2))
SIGNED = (canonicalize([(1, 1), (-2, 1)], 2), canonicalize([(2, 1), (-2, 1)], 2))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(tie_pairs() | long_pairs)
@hypothesis.example(INF_PAIR)  # every criterion fails at its first scan point
@hypothesis.example(INF_PAIR[::-1])  # weakly majorized: strict fails at the clause only
@hypothesis.example(LAST_POINT)  # the partial integrals cross at the last mass only
@hypothesis.example(SIGNED[::-1])
@hypothesis.example(SIGNED)  # signed: weakly majorized, with unequal integrals
def test_each_criterion_stops_at_its_first_violation(case):
    """Each criterion, weak and strict, stops its sweep at the first failing
    point of the reference: the verdict, the violation and every checkpoint
    equal those of the per-point evaluators."""
    f, g = case
    memo = {}
    for weak in (False, True):
        verdicts = (
            weak_majorize(f, g) if weak else majorize(f, g),
            hinge_criterion(f, g, weak=weak),
            tail_distribution_criterion(f, g, weak=weak),
        )
        for verdict in verdicts:
            reference = reference_checkpoints(verdict.criterion, f, g, weak, memo)
            first = next((p for p in reference if fails(p)), None)
            assert verdict.violation == first
            assert verdict.holds == (first is None)
            assert verdict.checked == reference
            if first is not None and verdict.criterion is Criterion.TAIL_DISTRIBUTION:
                assert first.left == f.tail_distribution_integral(first.point)
                assert first.right == g.tail_distribution_integral(first.point)


@st.composite
def witness_cases(draw):
    """(f, g): g on up to 200 level sets, each value and mass over a prime
    denominator of four or five digits. f averages g over runs of consecutive
    level sets ("average"), or g so averages f ("reversed"); f is drawn on
    g's masses split in two and moved to g's integral ("incomparable"); or,
    on an infinite space, f is the average with every mass stretched or
    shrunk, so that its support and integral differ from g's ("unequal").
    "signed" is one of the first three on a finite space with values of both
    signs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = ("average", "reversed", "incomparable", "unequal", "signed")
    kind = draw(st.sampled_from(kinds))
    infinite = kind != "signed"
    if not infinite:
        kind = rng.choice(("average", "reversed", "incomparable"))

    def rational(lo):
        return F(rng.randint(lo, 10**4), rng.choice(LONG_PRIMES))

    low = 1 if infinite else -(10**4)
    raw = [(rational(low), rational(1)) for _ in range(rng.randint(1, 200))]
    total = INF if infinite else sum(m for _, m in raw) + rational(0)
    g = canonicalize(raw, total)
    if kind == "incomparable":
        halves = [m / 2 for _, m in g.pieces for _ in range(2)]
        f = canonicalize([(rational(low), m) for m in halves], total)
        if infinite:
            scale = g.integral() / f.integral()
            return canonicalize([(v * scale, m) for v, m in f.pieces], total), g
        shift = (g.integral() - f.integral()) / total
        return canonicalize([(v + shift, m) for v, m in f.pieces], total), g
    averaged, run = [], []
    for k, piece in enumerate(g.pieces):
        run.append(piece)
        if k == len(g.pieces) - 1 or rng.random() < 0.3:
            mass = sum(m for _, m in run)
            averaged.append((sum(v * m for v, m in run) / mass, mass))
            run = []
    if kind == "unequal":
        stretch = rng.choice((F(1, 2), F(9973, 10007), F(10007, 9973), F(2)))
        averaged = [(v, m * stretch) for v, m in averaged]
    f = canonicalize(averaged, total)
    return (g, f) if kind == "reversed" else (f, g)


OPERATORS = importlib.import_module("majo.operators")
MAJORIZE = importlib.import_module("majo.majorize")


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(witness_cases())
def test_witness_refuses_exactly_what_majorize_refuses(case):
    """ds_witness refuses a pair exactly when majorize does, naming the same
    violation; the refinement is walked once, and no criterion runs, on an
    accepted pair or a refused one: the chain scan names the violation."""
    f, g = case
    verdict = majorize(f, g)
    calls = {"_decide": 0, "sweep": 0, "_in_order": 0}

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OPERATORS, "_in_order", counting("_in_order", OPERATORS._in_order))
        patch.setattr(MAJORIZE, "_decide", counting("_decide", MAJORIZE._decide))
        for criterion, sweep in MAJORIZE._SWEEPS.items():
            patch.setitem(MAJORIZE._SWEEPS, criterion, counting("sweep", sweep))
        try:
            chain = ds_witness(f, g)
        except NotMajorizedError as error:
            assert not verdict.holds
            assert str(error) == (
                f"f is not majorized by g (violation at {verdict.violation.point} "
                "under the rearrangement criterion)"
            )
        else:
            assert verdict.holds
            assert chain.apply_to(g) == f
    assert calls == {"_decide": 0, "sweep": 0, "_in_order": 1}


@st.composite
def equi_sources(draw):
    """(source, delta): a finite source with signed values or an infinite one,
    with up to 150 level sets over one to three prime denominators, and a
    small-set budget inside its space."""
    infinite = draw(st.booleans())
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def rational(lo):
        return F(rng.randint(lo, 10**4), rng.choice(primes))

    count = draw(st.integers(0, 150))
    raw = [(rational(1 if infinite else -(10**4)), rational(1)) for _ in range(count)]
    total = INF if infinite else sum(m for _, m in raw) + rational(0)
    source = canonicalize(raw, total)
    share = F(draw(st.integers(0, 64)), 64)
    delta = share * rational(0) if infinite else share * total
    return source, delta


# the direct minimum costs O(n^2): about 5 s at 10^3 level sets, so that size
# is one fixed infinite source rather than a drawn one
BIG_SOURCE = canonicalize([(F(k, 7), F(k % 5 + 1, 3)) for k in range(1, 1001)], INF)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(equi_sources())
@hypothesis.example((BIG_SOURCE, F(1, 2)))
def test_equi_bound_is_the_direct_truncation_minimum(case):
    source, delta = case
    report = equi_modulus([source], delta, source)
    grid = {p.value for p in source.pieces} | {F(0)}
    assert report.bound == min(source.hinge_integral(c) + c * delta for c in grid)
    assert report.bound == small_set_modulus(source, delta)
    assert report.modulus == small_set_modulus(source, delta)


@st.composite
def rectangular_images(draw):
    """(source, image, delta): a nonnegative source on n atoms of one mass,
    its image under a semi-doubly stochastic mixture of injections onto more
    atoms of that mass, and a budget between the two totals."""
    n = draw(st.integers(1, 30))
    rows = n + draw(st.integers(1, 10))
    unit = draw(rationals(positive=True))
    source = canonicalize([(abs(draw(rationals())), unit) for _ in range(n)], unit * n)
    weights = [F(draw(st.integers(1, 10**4))) for _ in range(draw(st.integers(1, 4)))]
    entries = [[F(0)] * n for _ in range(rows)]
    for weight in weights:
        for column, row in enumerate(draw(st.permutations(range(rows)))[:n]):
            entries[row][column] += weight / sum(weights)
    image, _ = sequence_apply(OperatorMatrix(entries), source, unit)
    delta = unit * (n + F(draw(st.integers(0, 64)), 64) * (rows - n))
    return source, image, delta


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(rectangular_images())
def test_equi_bound_past_a_nonnegative_source_is_its_integral(case):
    """Read as extended by zero onto the image's larger space, the source
    integrates to its integral over any budget past its own total."""
    source, image, delta = case
    report = equi_modulus([image], delta, source)
    assert report.bound == source.integral()
    assert report.within_bound


@st.composite
def toolkit_rationals(draw):
    """Up to 8 rationals of both signs and zero over 4-5 digit primes, powers
    of two up to 2^64 and small denominators, some 2^-64 apart."""
    denominators = st.one_of(
        st.sampled_from(LONG_PRIMES),
        st.integers(0, 64).map(lambda k: 2**k),
        st.integers(1, 12),
    )
    numerators = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**80), 2**80))
    values = draw(st.lists(st.builds(F, numerators, denominators), max_size=8))
    values += [v + F(k, 2**64) for v in values for k in draw(st.sets(st.sampled_from((-1, 1))))]
    return values


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(
    toolkit_rationals(),
    st.integers(1, 10**6),
    st.fractions(0, 1, max_denominator=10**6) | st.just(F(1, 2**64)),
    st.sampled_from(LONG_PRIMES) | st.integers(1, 12),
)
@hypothesis.example(values=[], k=1, weight=F(1, 2**64), count=9)
def test_the_pair_toolkit_agrees_with_fraction(values, k, weight, count):
    """Each integer-pair helper of ``extended`` gives what ``Fraction`` gives:
    reduction, the shared scale and the sum over it, the two mixes
    ``WitnessChain._mix`` and ``WitnessChain.product`` make, and the text."""
    pairs = [v.as_integer_ratio() for v in values]
    scale, scaled = _scale_ratios(pairs)
    assert scale == lcm(*[d for _, d in pairs])
    assert [F(n, scale) for n in scaled] == values
    assert _sum(pairs) == (sum(scaled), scale)
    assert F(*_sum(pairs)) == sum(values, F(0))
    wn, wd = weight.as_integer_ratio()
    for (n, d), v in zip(pairs, values):
        assert _reduced(n * k, d * k) == (n, d)
        assert _format_ratio(n, d) == _shown(_Ratio(n, d)) == _shown(v) == str(v)
        assert _combine(1, 0, count, (n, d), (0, 1)) == (v / count).as_integer_ratio()
        for y, w in zip(pairs, values):
            mixed = weight * v + (1 - weight) * w
            assert _combine(wn, wd - wn, wd, (n, d), y) == mixed.as_integer_ratio()
    assert _shown(INF) == "inf" and _shown(scale) == str(scale)
    limit = sys.get_int_max_str_digits()
    if limit:  # past the digit limit the writer refuses and a message gives bits
        # count < 10**5, so the reduced numerator keeps more than limit digits
        long = F(10 ** (limit + 6) * (k + 1) + 1, count)
        for x in (long, 1 / long):
            with pytest.raises(RationalTooLongError):
                _format_ratio(*x.as_integer_ratio())
            bits = max(x.numerator.bit_length(), x.denominator.bit_length())
            assert _shown(x) == f"a rational of {bits} bits"
        # a count is an int, and a message names it as an integer
        whole = long.numerator
        assert _shown(whole) == f"an integer of {whole.bit_length()} bits"
        assert _shown(F(whole)) == f"a rational of {whole.bit_length()} bits"


def unreduced(rng, x):
    """``x`` written k·n/k·d for a random k."""
    k = rng.randint(1, 12)
    return f"{x.numerator * k}/{x.denominator * k}"


def scattered_text(rng, lines):
    """Lines of tokens as text: runs of any whitespace that does not end a
    line before, between and after the tokens, some trailing comments that
    hold whitespace and tokens, and \\n, \\r\\n or \\r line ends."""
    def gap(least):
        return "".join(rng.choice(INLINE_WHITESPACE) for _ in range(rng.randint(least, 2)))

    text = []
    for tokens in lines:
        line = gap(0) + "".join(token + gap(1) for token in tokens[:-1]) + tokens[-1] + gap(0)
        if rng.random() < 0.3:
            line += "#" + gap(0) + rng.choice(("", "1 1", "partition 1", "note")) + gap(0)
        text.append(line + rng.choice(("\n", "\r\n", "\r")))
    return "".join(text)


@st.composite
def prime_denominator_functions(draw):
    """A function of up to 300 level sets whose values and masses have prime
    denominators of four and five digits, on a finite or an infinite space."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    infinite = draw(st.booleans())
    primes = rng.sample(LONG_PRIMES, rng.randint(1, 6))
    low = 0 if infinite else -(10**6)
    pieces = [
        (F(rng.randint(low, 10**6), rng.choice(primes)),
         F(rng.randint(1, 10**4), rng.choice(primes)))
        for _ in range(draw(st.integers(0, 300)))
    ]
    support = sum((m for _, m in pieces), F(0))
    total = INF if infinite else support + F(rng.randint(0, 9), rng.choice(primes))
    return canonicalize(pieces, total)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(prime_denominator_functions(), st.randoms(use_true_random=False))
def test_sfn_text_at_prime_denominators_reads_back(f, rng):
    """The level sets written in shuffled order with unreduced tokens,
    scattered whitespace, comments and mixed line ends read back as f."""
    lines = [[unreduced(rng, v), unreduced(rng, m)] for v, m in f.pieces]
    rng.shuffle(lines)
    total = "inf" if f.total_measure is INF else unreduced(rng, f.total_measure)
    document = loads_sfn(scattered_text(rng, [["total", total], *lines]))
    assert (document.function, document.partition) == (f, None)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.integers(1, 20), st.integers(1, 20), st.randoms(use_true_random=False))
def test_mat_text_at_prime_denominators_reads_back(rows, cols, rng):
    """Entries over prime denominators of four and five digits, written
    unreduced, wrapped at random and scattered as in the .sfn test, read
    back as the matrix."""
    primes = rng.sample(LONG_PRIMES, rng.randint(1, 6))
    matrix = OperatorMatrix(
        [[F(rng.randint(0, 10**4), rng.choice(primes)) for _ in range(cols)]
         for _ in range(rows)]
    )
    entries = [unreduced(rng, e) for row in matrix.entries for e in row]
    lines = [[str(rows), str(cols)]]
    while entries:
        cut = rng.randint(1, 8)
        lines.append(entries[:cut])
        entries = entries[cut:]
    assert loads_mat(scattered_text(rng, lines)) == matrix

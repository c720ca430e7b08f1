"""Property tests in the regime the seeded generators miss: many atoms and
large coprime denominators."""

from fractions import Fraction as F

import pytest

from majo import (
    INF,
    AlignedStep,
    OperatorMatrix,
    Partition,
    Tail,
    align,
    kernel_apply,
    lift_apply,
    matrix_to_kernel,
    sequence_apply,
)

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

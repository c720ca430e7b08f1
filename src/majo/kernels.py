"""Piecewise-constant integral kernels over products of partitions.

A step kernel takes the value K[n][j] on the box A_n x B_j. Its marginals
carry the stochasticity conditions in mass-aware form: a kernel is Markov
when every column integral (over x) is exactly 1, semi-doubly stochastic
when additionally every row integral (over y) is at most 1, and doubly
stochastic when the row integrals equal 1. Applying a kernel to a function
aligned with the column partition integrates against it exactly.

A kernel is a change of basis of a sequence matrix: with row masses r, the
kernel K and the sequence matrix d = diag(r) · K describe one operator, so
the marginals and the action are those of d.

On a partition with an unbounded tail the kernel is stored over the explicit
atoms only; applied to aligned functions (zero on the tail) this coincides
with an operator acting as the identity on the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Tuple

from .errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NotStochasticError,
    PartitionMisalignedError,
)
from .extended import as_fraction
from .operators import (
    ONE,
    AlignedStep,
    OperatorClass,
    OperatorMatrix,
    Partition,
    _image,
    _rescale,
    classify_matrix,
)
from .stepfn import ZERO


@dataclass(frozen=True)
class StepKernel:
    """Kernel constant on boxes of row_partition x col_partition."""

    row_partition: Partition
    col_partition: Partition
    values: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.values)
        object.__setattr__(self, "values", rows)
        if len(rows) != self.row_partition.size:
            raise DimensionMismatchError(
                f"{len(rows)} kernel rows for {self.row_partition.size} row atoms"
            )
        for row in rows:
            if len(row) != self.col_partition.size:
                raise DimensionMismatchError(
                    f"kernel row of length {len(row)} for "
                    f"{self.col_partition.size} column atoms"
                )
            for value in row:
                if value < 0:
                    raise NegativeEntryError(f"negative kernel value {value}")

    def column_integrals(self) -> Tuple[Fraction, ...]:
        """Integral over x of K(x, y) on each column atom."""
        # a kernel without rows integrates to 0 over every column atom
        sums = _sequence_matrix(self).column_sums()
        return sums or (ZERO,) * self.col_partition.size

    def row_integrals(self) -> Tuple[Fraction, ...]:
        """Integral over y of K(x, y) on each row atom."""
        return _rescale(repeat(ONE), self.values, self.col_partition.atoms).row_sums()


def _sequence_matrix(kernel: StepKernel) -> OperatorMatrix:
    """The sequence matrix diag(r) · K of the kernel's operator."""
    return _rescale(kernel.row_partition.atoms, kernel.values, repeat(ONE))


def kernel_classify(kernel: StepKernel) -> OperatorClass:
    """Most specific class by exact marginal integrals."""
    return OperatorClass.from_marginals(
        kernel.column_integrals(), kernel.row_integrals()
    )


def kernel_apply(kernel: StepKernel, g: AlignedStep) -> AlignedStep:
    """Integrate the kernel against g: the induced integral operator."""
    if g.partition != kernel.col_partition:
        raise PartitionMisalignedError(
            "function must be aligned with the kernel's column partition"
        )
    matrix = _sequence_matrix(kernel)
    return _image(matrix, kernel.col_partition, g, kernel.row_partition)


def matrix_to_kernel(partition: Partition, matrix: OperatorMatrix) -> StepKernel:
    """Kernel form of the operator a sequence matrix induces on the partition.

    K[n][j] = d[n][j] / mass(n), so applying the kernel to an aligned
    function reproduces the lifted operator exactly. The matrix must have one
    row per explicit atom; a narrower matrix gets the leading atoms as its
    column partition.
    """
    if classify_matrix(matrix) < OperatorClass.MARKOV:
        raise NotStochasticError("kernels are built from Markov matrices only")
    if matrix.rows != partition.size:
        raise DimensionMismatchError(
            f"{matrix.rows} matrix rows for {partition.size} atoms"
        )
    if matrix.cols > matrix.rows:
        raise DimensionMismatchError(
            "matrix has more columns than the partition has atoms to carry them"
        )
    if matrix.cols == partition.size:
        col_partition = partition
    else:
        leading = partition.atoms[: matrix.cols]
        col_partition = Partition(
            atoms=leading, total_measure=sum(leading, ZERO), tail=None
        )
    inverse = [1 / m for m in partition.atoms]
    values = _rescale(inverse, matrix.entries, repeat(ONE)).entries
    return StepKernel(
        row_partition=partition, col_partition=col_partition, values=values
    )

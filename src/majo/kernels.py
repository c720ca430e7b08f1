"""Piecewise-constant integral kernels over products of partitions.

A step kernel takes the value K[n][j] on the box A_n x B_j. Its marginals
carry the stochasticity conditions in mass-aware form: a kernel is Markov
when every column integral (over x) is exactly 1, semi-doubly stochastic
when additionally every row integral (over y) is at most 1, and doubly
stochastic when the row integrals equal 1. Applying a kernel to a function
aligned with the column partition integrates against it exactly.

A kernel is a change of basis of a sequence matrix: a sequence matrix d
between row masses r and column masses c has the kernel K = diag(1/r) · d
and the value-basis matrix diag(1/r) · d · diag(c) (``operators.lift``), and
all three describe one operator. The kernel is stored as d, and every view
reads d itself, with no second matrix built: the values are
K[n][j] = d[n][j] / r_n, the column integrals are d's column sums, the row
integrals are sum_j d[n][j] · c_j / r_n (the value-basis matrix's row sums),
and the action is d's.

On a partition with an unbounded tail the kernel is stored over the explicit
atoms only; applied to aligned functions (zero on the tail) this coincides
with an operator acting as the identity on the tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Tuple

from .errors import DimensionMismatchError, NotStochasticError
from .extended import exact_sum
from .operators import (
    AlignedStep,
    OperatorClass,
    OperatorMatrix,
    Partition,
    _image,
)
from .stepfn import ZERO


@dataclass(frozen=True)
class StepKernel:
    """Kernel constant on boxes of row_partition x col_partition.

    Stored as its sequence matrix d, one row per row atom and one column per
    column atom; the kernel values are diag(1/r) · d.
    """

    row_partition: Partition
    col_partition: Partition
    matrix: OperatorMatrix

    def __post_init__(self):
        rows, cols = self.row_partition.size, self.col_partition.size
        # a matrix without rows has no columns to count
        if self.matrix.rows != rows or (rows and self.matrix.cols != cols):
            raise DimensionMismatchError(
                f"{self.matrix.rows}x{self.matrix.cols} sequence matrix for "
                f"{rows} row atoms and {cols} column atoms"
            )

    @property
    def values(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """K[n][j] = d[n][j] / mass(n), the kernel's value on box n x j."""
        rows = zip(self.row_partition.atoms, self.matrix.entries)
        return tuple([tuple([x / r for x in row]) for r, row in rows])

    def column_integrals(self) -> Tuple[Fraction, ...]:
        """Integral over x of K(x, y) on each column atom: d's column sums."""
        # a kernel without rows integrates to 0 over every column atom
        return self.matrix.column_sums() or (ZERO,) * self.col_partition.size

    def row_integrals(self) -> Tuple[Fraction, ...]:
        """Integral over y of K(x, y) on each row atom: sum_j d[n][j] · c_j / r_n."""
        masses = self.col_partition.atoms
        rows = zip(self.row_partition.atoms, self.matrix.entries)
        return tuple([exact_sum(list(map(mul, row, masses))) / r for r, row in rows])


def kernel_classify(kernel: StepKernel) -> OperatorClass:
    """Most specific class by exact marginal integrals."""
    return OperatorClass.from_marginals(
        kernel.column_integrals(), kernel.row_integrals()
    )


def kernel_apply(kernel: StepKernel, g: AlignedStep) -> AlignedStep:
    """Integrate the kernel against g (aligned with the column partition)."""
    return _image(kernel.matrix, kernel.col_partition, g, kernel.row_partition)


def matrix_to_kernel(partition: Partition, matrix: OperatorMatrix) -> StepKernel:
    """Kernel of the operator a sequence matrix induces on the partition.

    The matrix must have one row per explicit atom; a narrower matrix gets
    the leading atoms as its column partition. :class:`StepKernel` refuses
    any other shape.
    """
    if any(s != 1 for s in matrix.column_sums()):
        raise NotStochasticError("kernels are built from Markov matrices only")
    if matrix.cols == partition.size:
        col_partition = partition
    else:
        leading = partition.atoms[: matrix.cols]
        col_partition = Partition(
            atoms=leading, total_measure=sum(leading, ZERO), tail=None
        )
    return StepKernel(
        row_partition=partition, col_partition=col_partition, matrix=matrix
    )

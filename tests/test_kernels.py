"""Step kernels: marginals, classification, and consistency with matrices."""

import random
from fractions import Fraction as F

import pytest

from majo import (
    INF,
    AlignedStep,
    OperatorClass,
    OperatorMatrix,
    Partition,
    StepKernel,
    kernel_apply,
    kernel_classify,
    lift_apply,
    matrix_to_kernel,
)
from majo.errors import (
    DimensionMismatchError,
    NotStochasticError,
    PartitionMisalignedError,
)
from majo.sampling import (
    random_doubly_stochastic,
    random_fraction,
    random_sds_matrix,
    random_unequal_partition,
    random_vector,
)
from majo.selftest import shift_truncation, summing_truncation


class TestMatrixToKernel:
    def test_identity_on_unit_masses(self):
        partition = Partition.equal_mass(2, 1, 2)
        kernel = matrix_to_kernel(partition, OperatorMatrix.identity(2))
        assert kernel.values == ((F(1), F(0)), (F(0), F(1)))
        assert kernel_classify(kernel) is OperatorClass.DOUBLY_STOCHASTIC

    def test_column_integrals_are_column_sums(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(2, 5)
            partition = random_unequal_partition(rng, n)
            mixer = random_doubly_stochastic(rng, n)
            kernel = matrix_to_kernel(partition, mixer)
            assert kernel.column_integrals() == (F(1),) * n

    def test_shift_kernel_is_sds_with_zero_first_row(self):
        partition = Partition.equal_mass(5, 1, INF)
        kernel = matrix_to_kernel(partition, shift_truncation(5, 4))
        assert kernel.row_integrals()[0] == 0
        assert kernel_classify(kernel) is OperatorClass.SEMI_DOUBLY_STOCHASTIC

    def test_rejects_non_markov(self):
        partition = Partition.equal_mass(2, 1, 2)
        broken = OperatorMatrix(((F(1, 2), F(0)), (F(1, 4), F(1))))
        with pytest.raises(NotStochasticError):
            matrix_to_kernel(partition, broken)

    def test_row_count_must_match(self):
        partition = Partition.equal_mass(3, 1, 3)
        with pytest.raises(DimensionMismatchError):
            matrix_to_kernel(partition, OperatorMatrix.identity(2))


class TestStepKernel:
    def test_matrix_must_fit_the_partitions(self):
        partition = Partition.equal_mass(2, 1, 2)
        narrow = Partition(atoms=(F(1),), total_measure=F(1))
        for rows, cols in ((partition, narrow), (narrow, partition)):
            with pytest.raises(DimensionMismatchError):
                StepKernel(rows, cols, OperatorMatrix.identity(2))

    def test_values_are_the_matrix_over_row_masses(self):
        rng = random.Random(109)
        for _ in range(40):
            n = rng.randint(1, 5)
            partition = random_unequal_partition(rng, n)
            mixer = random_doubly_stochastic(rng, n)
            kernel = matrix_to_kernel(partition, mixer)
            assert kernel.matrix == mixer
            for row, d_row, mass in zip(kernel.values, mixer.entries, partition.atoms):
                assert [v * mass for v in row] == list(d_row)


class TestKernelClassify:
    def test_all_zero_kernel_is_none(self):
        partition = Partition.equal_mass(2, 1, 2)
        zero = OperatorMatrix(((F(0), F(0)), (F(0), F(0))))
        kernel = StepKernel(partition, partition, zero)
        assert kernel_classify(kernel) is OperatorClass.NONE

    def test_unequal_mass_averaging_kernel_is_ds(self):
        # constant kernel 1/total on one block averages with any masses;
        # its sequence matrix d = diag(r) · K has rows r * 1/4
        partition = Partition(atoms=(F(1), F(3)), total_measure=F(4))
        d = OperatorMatrix(((F(1, 4),) * 2, (F(3, 4),) * 2))
        kernel = StepKernel(partition, partition, d)
        assert kernel.values == ((F(1, 4),) * 2,) * 2
        assert kernel_classify(kernel) is OperatorClass.DOUBLY_STOCHASTIC

    def test_markov_only_when_rows_overflow(self):
        partition = Partition.equal_mass(2, 1, 2)
        kernel = matrix_to_kernel(partition, summing_truncation(2))
        assert kernel_classify(kernel) is OperatorClass.MARKOV


class TestKernelApply:
    def test_identity_kernel(self):
        partition = Partition.equal_mass(3, F(1, 2), INF)
        kernel = matrix_to_kernel(partition, OperatorMatrix.identity(3))
        f = AlignedStep(partition, (F(3), F(1), F(0)))
        assert kernel_apply(kernel, f) == f

    def test_uniform_kernel_flattens(self):
        partition = Partition.equal_mass(2, 1, 2)
        # unit masses: d = diag(r) · K equals K
        uniform = OperatorMatrix(((F(1, 2),) * 2,) * 2)
        kernel = StepKernel(partition, partition, uniform)
        f = AlignedStep(partition, (F(3), F(1)))
        image = kernel_apply(kernel, f)
        assert image.values == (F(2), F(2))
        assert image.integral() == f.integral()

    def test_zero_function_maps_to_zero(self):
        partition = Partition.equal_mass(2, 1, 2)
        kernel = matrix_to_kernel(partition, OperatorMatrix.identity(2))
        zero = AlignedStep(partition, (F(0), F(0)))
        assert kernel_apply(kernel, zero).values == (F(0), F(0))

    def test_misaligned_function_rejected(self):
        partition = Partition.equal_mass(2, 1, 2)
        other = Partition.equal_mass(2, 1, INF)
        kernel = matrix_to_kernel(partition, OperatorMatrix.identity(2))
        with pytest.raises(PartitionMisalignedError):
            kernel_apply(kernel, AlignedStep(other, (F(1), F(1))))

    def test_matches_lifted_application_exactly(self):
        rng = random.Random(103)
        for _ in range(80):
            n = rng.randint(2, 5)
            partition = random_unequal_partition(rng, n)
            mixer = random_doubly_stochastic(rng, n)
            f = AlignedStep(partition, random_vector(rng, n))
            via_kernel = kernel_apply(matrix_to_kernel(partition, mixer), f)
            via_lift = lift_apply(partition, mixer, f)
            assert via_kernel == via_lift

    def test_kernel_class_matches_lift_class_on_equal_masses(self):
        rng = random.Random(107)
        for _ in range(60):
            cols = rng.randint(2, 4)
            rows = cols + rng.randint(0, 2)
            mass = random_fraction(rng, max_numerator=3, positive=True)
            partition = Partition.equal_mass(rows, mass, INF)
            operator = random_sds_matrix(rng, rows, cols)
            kernel = matrix_to_kernel(partition, operator)
            # on equal masses the kernel marginals mirror the plain sums
            from majo import classify_matrix

            assert kernel_classify(kernel) == classify_matrix(operator)

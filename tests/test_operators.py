"""Classification, partition operators, lifting, and witness construction."""

import random
import time
from fractions import Fraction as F

import pytest

from majo import (
    INF,
    AlignedStep,
    OperatorClass,
    OperatorMatrix,
    Partition,
    Tail,
    align,
    apply_matrix,
    canonicalize,
    classify_matrix,
    ds_witness,
    l1_distance,
    lift,
    lift_apply,
    majorize,
    partition_average,
    partition_average_matrix,
    phi,
    psi,
    sequence_apply,
)
from majo.errors import (
    DimensionMismatchError,
    InvalidTTransformError,
    MajoError,
    MeasureMismatchError,
    NegativeEntryError,
    NegativeMassError,
    NegativeValueOnInfiniteSpaceError,
    NotMajorizedError,
    NotStochasticError,
    PartitionMisalignedError,
)
from majo.kernels import kernel_apply, kernel_classify, matrix_to_kernel
from majo.operators import (
    WITNESS_ATOM_BUDGET,
    TTransform,
    WitnessChain,
    _t_transform_chain,
)
from majo.sampling import (
    random_doubly_stochastic,
    random_fraction,
    random_sds_matrix,
    random_vector,
)
from majo.selftest import shift_truncation, summing_truncation


def compose(a, b):
    """The product ab, as a applied to each column of b."""
    return OperatorMatrix(tuple(zip(*(apply_matrix(a, column) for column in zip(*b.entries)))))


class TestClassify:
    def test_summing_truncation_is_markov_only(self):
        assert classify_matrix(summing_truncation(4)) is OperatorClass.MARKOV

    def test_shift_truncation_is_semi_doubly_stochastic(self):
        assert (
            classify_matrix(shift_truncation(5, 4))
            is OperatorClass.SEMI_DOUBLY_STOCHASTIC
        )

    def test_identity_is_doubly_stochastic(self):
        assert (
            classify_matrix(OperatorMatrix.identity(4))
            is OperatorClass.DOUBLY_STOCHASTIC
        )

    def test_broken_column_is_none(self):
        matrix = OperatorMatrix(((F(1, 2),), (F(1, 4),)))
        assert classify_matrix(matrix) is OperatorClass.NONE

    def test_negative_entries_rejected(self):
        with pytest.raises(NegativeEntryError):
            OperatorMatrix(((F(-1),),))

    def test_ragged_rows_and_mismatched_shapes_are_refused(self):
        with pytest.raises(DimensionMismatchError, match="differing lengths"):
            OperatorMatrix(((F(1), F(0)), (F(1),)))
        with pytest.raises(DimensionMismatchError, match="length 3 for a 2x2"):
            compose(OperatorMatrix.identity(2), OperatorMatrix.identity(3))

    def test_inclusion_chain_on_random_matrices(self):
        rng = random.Random(61)
        for _ in range(150):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            entries = tuple(
                tuple(random_fraction(rng, max_numerator=3) for _ in range(cols))
                for _ in range(rows)
            )
            matrix = OperatorMatrix(entries)
            cls = classify_matrix(matrix)
            markov = all(s == 1 for s in matrix.column_sums())
            sds = markov and all(s <= 1 for s in matrix.row_sums())
            ds = markov and all(s == 1 for s in matrix.row_sums())
            assert (cls >= OperatorClass.MARKOV) == markov
            assert (cls >= OperatorClass.SEMI_DOUBLY_STOCHASTIC) == sds
            assert (cls >= OperatorClass.DOUBLY_STOCHASTIC) == ds

    def test_composition_closure(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(2, 4)
            a = random_sds_matrix(rng, n + rng.randint(0, 2), n)
            b = random_sds_matrix(rng, n, rng.randint(1, n))
            composed = compose(a, b)
            assert classify_matrix(composed) >= OperatorClass.SEMI_DOUBLY_STOCHASTIC
            d1 = random_doubly_stochastic(rng, n)
            d2 = random_doubly_stochastic(rng, n)
            assert classify_matrix(compose(d1, d2)) is OperatorClass.DOUBLY_STOCHASTIC


class TestApplyMatrix:
    def test_identity(self):
        v = (F(1), F(2), F(3))
        assert apply_matrix(OperatorMatrix.identity(3), v) == v

    def test_uniform_mix(self):
        half = OperatorMatrix(((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
        assert apply_matrix(half, (2, 0)) == (F(1), F(1))

    def test_shift(self):
        assert apply_matrix(shift_truncation(4, 3), (1, 2, 3)) == (
            F(0),
            F(1),
            F(2),
            F(3),
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_matrix(OperatorMatrix.identity(2), (1, 2, 3))


class TestPartition:
    def test_infinite_needs_unbounded_tail(self):
        with pytest.raises(ValueError):
            Partition(atoms=(F(1),), total_measure=INF, tail=None)

    def test_finite_must_tile(self):
        with pytest.raises(MeasureMismatchError):
            Partition(atoms=(F(1), F(1)), total_measure=F(3), tail=None)
        Partition(atoms=(F(1), F(1)), total_measure=F(3), tail=Tail(F(1, 2), 2))

    def test_tail_of_zero_mass_is_refused(self):
        with pytest.raises(NegativeMassError, match="tail atom mass 0"):
            Tail(F(0))

    def test_equal_mass_helper(self):
        p = Partition.equal_mass(3, F(1, 2), INF)
        assert p.atoms == (F(1, 2),) * 3
        assert p.tail.mass == F(1, 2)
        assert p.equal_masses


class TestAlign:
    def test_aligned_values(self):
        partition = Partition.equal_mass(2, 1, INF)
        f = canonicalize([(2, 2)], INF)
        assert align(partition, f).values == (F(2), F(2))

    def test_straddling_atom_rejected(self):
        partition = Partition.equal_mass(1, 2, INF)
        f = canonicalize([(3, 1), (1, 1)], INF)
        with pytest.raises(PartitionMisalignedError):
            align(partition, f)

    def test_support_must_fit_explicit_atoms(self):
        partition = Partition.equal_mass(1, 1, INF)
        f = canonicalize([(1, 2)], INF)
        with pytest.raises(PartitionMisalignedError):
            align(partition, f)

    def test_zero_level_set_may_reach_a_finite_tail(self):
        partition = Partition((F(1),), F(2), Tail(F(1), 1))
        f = canonicalize([(1, 1)], 2)
        assert align(partition, f).values == (F(1),)

    @pytest.mark.parametrize("lay", [align, partition_average])
    def test_a_partition_of_another_total_is_refused(self, lay):
        partition = Partition.equal_mass(2, 1, 2)
        with pytest.raises(MeasureMismatchError, match="total measures differ: 2 vs 3"):
            lay(partition, canonicalize([(1, 1)], 3))

    def test_aligned_step_refuses_extra_values_and_negative_infinite_values(self):
        with pytest.raises(DimensionMismatchError, match="2 values for 1 atoms"):
            AlignedStep(Partition.equal_mass(1, 1, 1), (F(1), F(2)))
        with pytest.raises(NegativeValueOnInfiniteSpaceError):
            AlignedStep(Partition.equal_mass(1, 1, INF), (F(-1),))

    def test_nonzero_level_set_may_not_reach_a_finite_tail(self):
        partition = Partition((F(1),), F(2), Tail(F(1), 1))
        for pieces in ([(2, 1), (1, 1)], [(1, 1), (-1, 1)]):
            with pytest.raises(PartitionMisalignedError, match="into the tail"):
                align(partition, canonicalize(pieces, 2))


class TestPhiPsi:
    def test_phi_example(self):
        partition = Partition.equal_mass(2, 1, INF)
        f = canonicalize([(2, 2)], INF)
        assert phi(partition, f) == (F(2), F(2))

    def test_phi_zero_function(self):
        partition = Partition.equal_mass(3, 1, 3)
        assert phi(partition, canonicalize([], 3)) == (F(0), F(0), F(0))

    def test_phi_indicator_of_single_atom(self):
        partition = Partition(atoms=(F(2), F(3)), total_measure=F(5))
        f = canonicalize([(1, 2), (0, 3)], 5)
        assert phi(partition, f) == (F(2), F(0))

    def test_psi_divides_by_masses(self):
        partition = Partition.equal_mass(2, 1, 2)
        image = psi(partition, (2, 2))
        assert image.values == (F(2), F(2))
        assert image.integral() == 4

    def test_psi_zero_padded(self):
        partition = Partition.equal_mass(3, 1, INF)
        assert psi(partition, (3,)).values == (F(3), F(0), F(0))

    def test_psi_refuses_more_coefficients_than_atoms(self):
        with pytest.raises(DimensionMismatchError, match="2 coefficients for 1 atoms"):
            psi(Partition.equal_mass(1, 1, 1), (1, 2))

    def test_phi_contracts_the_l1_norm(self):
        rng = random.Random(179)
        for _ in range(60):
            n = rng.randint(1, 5)
            atoms = tuple(random_fraction(rng, positive=True) for _ in range(n))
            partition = Partition(atoms=atoms, total_measure=sum(atoms))
            f = AlignedStep(partition, random_vector(rng, n, signed=True))
            image_norm = sum(map(abs, phi(partition, f)), F(0))
            function_norm = sum(
                (abs(v) * m for v, m in zip(f.values, atoms)), F(0)
            )
            assert image_norm <= function_norm
            if all(v >= 0 for v in f.values):
                assert image_norm == function_norm

    def test_psi_integral_is_coefficient_sum(self):
        rng = random.Random(181)
        for _ in range(40):
            n = rng.randint(1, 5)
            atoms = tuple(random_fraction(rng, positive=True) for _ in range(n))
            partition = Partition(atoms=atoms, total_measure=sum(atoms))
            coefficients = random_vector(rng, rng.randint(1, n), signed=True)
            assert psi(partition, coefficients).integral() == sum(coefficients, F(0))

    def test_psi_left_inverse_of_phi_on_aligned_functions(self):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(1, 5)
            atoms = tuple(random_fraction(rng, positive=True) for _ in range(n))
            partition = Partition(atoms=atoms, total_measure=sum(atoms))
            f = AlignedStep(partition, random_vector(rng, n))
            recovered = psi(partition, phi(partition, f))
            assert recovered == f
            assert sum(phi(partition, f), F(0)) == f.integral()


class TestPartitionAverage:
    def test_aligned_function_is_fixed(self):
        partition = Partition.equal_mass(2, 1, 2)
        f = canonicalize([(3, 1), (1, 1)], 2)
        averaged = partition_average(partition, f)
        assert averaged.step_function() == f

    def test_merging_two_atoms_averages(self):
        partition = Partition(atoms=(F(2),), total_measure=F(2))
        f = canonicalize([(3, 1), (1, 1)], 2)
        averaged = partition_average(partition, f)
        assert averaged.values == (F(2),)
        assert majorize(averaged.step_function(), f).holds

    def test_zero_function(self):
        partition = Partition.equal_mass(2, 1, 2)
        f = canonicalize([], 2)
        assert partition_average(partition, f).step_function() == f

    def test_zero_level_set_may_reach_a_finite_tail(self):
        partition = Partition((F(2),), F(3), Tail(F(1), 1))
        f = canonicalize([(3, 1), (1, 1)], 3)
        assert partition_average(partition, f).values == (F(2),)
        with pytest.raises(PartitionMisalignedError, match="into the tail"):
            partition_average(partition, canonicalize([(3, 1), (1, 2)], 3))

    def test_integral_preserved(self):
        rng = random.Random(73)
        for _ in range(60):
            atoms = tuple(random_fraction(rng, positive=True) for _ in range(3))
            partition = Partition(atoms=atoms, total_measure=sum(atoms))
            from majo.sampling import random_step_function

            f = random_step_function(rng, infinite=False, total=sum(atoms))
            averaged = partition_average(partition, f)
            assert averaged.integral() == f.integral()

    def test_average_matrix_classifies_markov_and_kernel_ds(self):
        coarse = Partition(atoms=(F(1), F(3)), total_measure=F(4))
        fine = Partition(atoms=(F(1), F(2), F(1)), total_measure=F(4))
        matrix = partition_average_matrix(coarse, fine)
        assert classify_matrix(matrix) >= OperatorClass.MARKOV
        from majo import kernel_classify, matrix_to_kernel

        assert (
            kernel_classify(matrix_to_kernel(fine, matrix))
            is OperatorClass.DOUBLY_STOCHASTIC
        )

    @pytest.mark.parametrize(
        "coarse, fine, error, message",
        [
            (Partition.equal_mass(2, 1, 2), Partition.equal_mass(3, 1, 3),
             MeasureMismatchError, "total measures differ: 2 vs 3"),
            (Partition((F(1),), F(3), Tail(F(1), 2)), Partition.equal_mass(3, 1, 3),
             PartitionMisalignedError, "must tile the partition's"),
            (Partition((F(1), F(2)), F(3)), Partition((F(2), F(1)), F(3)),
             PartitionMisalignedError, "fine atom of mass 2 straddles"),
        ],
        ids=["totals", "explicit-measure", "straddle"],
    )
    def test_average_matrix_refusals(self, coarse, fine, error, message):
        with pytest.raises(error, match=message):
            partition_average_matrix(coarse, fine)


class TestLiftRestrict:
    def test_identity_lifts_to_identity(self):
        partition = Partition.equal_mass(3, F(1, 2), INF)
        assert lift(partition, OperatorMatrix.identity(3)) == OperatorMatrix.identity(3)

    def test_unequal_mass_swap(self):
        partition = Partition(atoms=(F(1), F(2)), total_measure=F(3))
        swap = OperatorMatrix(((F(0), F(1)), (F(1), F(0))))
        lifted = lift(partition, swap)
        assert lifted.entries == ((F(0), F(2)), (F(1, 2), F(0)))
        # the integral-basis operator keeps its column sums (Markov survives)
        assert classify_matrix(swap) is OperatorClass.DOUBLY_STOCHASTIC

    def test_lifted_ds_majorizes_on_equal_masses(self):
        rng = random.Random(79)
        for _ in range(80):
            n = rng.randint(2, 5)
            partition = Partition.equal_mass(n, 1, INF)
            f = AlignedStep(partition, random_vector(rng, n))
            mixer = random_doubly_stochastic(rng, n)
            image = lift_apply(partition, mixer, f)
            assert majorize(image.step_function(), f.step_function()).holds
            assert image.integral() == f.integral()

    def test_markov_only_matrix_rejected(self):
        partition = Partition.equal_mass(4, 1, INF)
        with pytest.raises(NotStochasticError):
            lift(partition, summing_truncation(4))

    def test_lift_is_the_sequence_matrix_on_equal_masses(self):
        rng = random.Random(83)
        for _ in range(60):
            n = rng.randint(2, 5)
            partition = Partition.equal_mass(n, random_fraction(rng, positive=True), INF)
            mixer = random_doubly_stochastic(rng, n)
            assert lift(partition, mixer) == mixer

    def test_lift_classification_stays_sds_on_equal_masses(self):
        rng = random.Random(89)
        for _ in range(40):
            n = rng.randint(2, 4)
            partition = Partition.equal_mass(n, F(1, 3), INF)
            mixer = random_doubly_stochastic(rng, n)
            lifted = lift(partition, mixer)
            assert classify_matrix(lifted) >= OperatorClass.SEMI_DOUBLY_STOCHASTIC


class TestTTransform:
    def test_matrix_block(self):
        step = TTransform(0, 2, F(3, 4))
        matrix = WitnessChain((step,), Partition.equal_mass(3, 1, 3)).product
        assert matrix.entries == (
            (F(3, 4), F(0), F(1, 4)),
            (F(0), F(1), F(0)),
            (F(1, 4), F(0), F(3, 4)),
        )
        assert classify_matrix(matrix) is OperatorClass.DOUBLY_STOCHASTIC

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            TTransform(0, 1, F(3, 2))
        with pytest.raises(ValueError):
            TTransform(1, 1, F(1, 2))

    def test_bad_parameters_are_majo_errors(self):
        with pytest.raises(MajoError):
            TTransform(0, 1, F(-1, 2))
        with pytest.raises(MajoError):
            TTransform(2, 1, F(1, 2))

    def test_chain_steps_must_fit_the_partition(self):
        with pytest.raises(DimensionMismatchError):
            WitnessChain((TTransform(0, 3, F(1, 2)),), Partition.equal_mass(2, 1, 2))
        with pytest.raises(DimensionMismatchError):
            WitnessChain((TTransform(0, 2, F(1, 2)),), Partition.equal_mass(2, 1, 2))

    def test_chain_refuses_a_second_weight_outside_the_unit_interval(self):
        """On atoms of masses 2 and 1, weight 1/4 gives beta = 3/4 * 2/1 > 1."""
        partition = Partition(atoms=(F(2), F(1)), total_measure=F(3))
        with pytest.raises(InvalidTTransformError, match="3/2 outside"):
            WitnessChain((TTransform(0, 1, F(1, 4)),), partition)
        # beta = 1 exactly: atom 1 takes atom 0's old value
        chain = WitnessChain((TTransform(0, 1, F(1, 2)),), partition)
        g = canonicalize([(4, 2), (1, 1)], 3)
        assert chain.apply_to(g) == canonicalize([(F(5, 2), 2), (4, 1)], 3)


class TestTTransformChain:
    """Where the target is not majorized the scan returns the atom it refuses
    at, not a chain; its steps are pinned in test_properties."""

    def test_first_discrepancy_a_deficit_is_refused(self):
        assert _t_transform_chain((F(1), F(1)), (F(2), F(0)), (F(1), F(1))) == 0

    def test_surplus_without_a_later_deficit_is_refused(self):
        target, source = (F(1), F(1), F(0)), (F(1), F(2), F(0))
        assert _t_transform_chain((F(1),) * 3, target, source) == 3

    def test_a_refusal_at_the_first_atom_forms_two_products(self):
        """Each atom's integrals are formed when the scan first reaches it, so
        a pair refused at its first atom multiplies one mass by its two
        values and reads no later atom."""
        products = []

        class Counted(int):
            def __mul__(self, other):
                products.append(other)
                return int(self) * other

            __rmul__ = __mul__

        n = 1000
        masses = [Counted(m) for m in range(1, n + 1)]
        target, source = [2] + [1] * (n - 1), [1] * n
        assert _t_transform_chain(masses, target, source) == 0
        assert len(products) <= 2


class TestSequenceApply:
    def test_rectangular_shift_lands_on_the_row_total(self):
        f = canonicalize([(3, 1), (1, 1)], 2)
        image, partition = sequence_apply(shift_truncation(3, 2), f, 1)
        assert image == canonicalize([(0, 1), (3, 1), (1, 1)], 3)
        assert partition == Partition.equal_mass(3, 1, 3)

    def test_atoms_must_tile_a_finite_space(self):
        f = canonicalize([(1, 2)], 2)
        with pytest.raises(MeasureMismatchError):
            sequence_apply(OperatorMatrix.identity(2), f, 2)

    def test_support_must_fit_the_columns(self):
        f = canonicalize([(1, 3)], INF)
        with pytest.raises(DimensionMismatchError):
            sequence_apply(OperatorMatrix.identity(2), f, 1)


class TestDsWitness:
    def test_single_transform_example(self):
        f = canonicalize([(1, 2)], 2)
        g = canonicalize([(2, 1), (0, 1)], 2)
        chain = ds_witness(f, g)
        assert len(chain.steps) == 1
        assert chain.steps[0].weight == F(1, 2)
        assert chain.product.entries == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_identity_for_equal_functions(self):
        f = canonicalize([(2, 1), (1, 2)], INF)
        chain = ds_witness(f, f)
        assert chain.steps == ()
        assert (chain.dimension, chain.grid.size) == (2, 3)
        assert chain.product == OperatorMatrix.identity(chain.grid.size)

    def test_unmixed_atom_keeps_identity_rows_on_the_grid(self):
        """One step on atoms 1/7 and 1/11; the 77 grid atoms of 1/13 stay put."""
        g = canonicalize([(3, F(1, 7)), (2, F(1, 11)), (1, F(1, 13))], INF)
        f = canonicalize([(F(47, 18), F(18, 77)), (1, F(1, 13))], INF)
        chain = ds_witness(f, g)
        assert len(chain.steps) == 1
        grid = chain.grid
        assert (grid.size, grid.atoms[0]) == (311, F(1, 1001))
        product = chain.product
        identity = OperatorMatrix.identity(grid.size).entries
        # the last 77 grid atoms, after 143 of 1/7 and 91 of 1/11
        assert product.entries[234:] == identity[234:]
        assert classify_matrix(product) is OperatorClass.DOUBLY_STOCHASTIC
        assert apply_matrix(product, align(grid, g).values) == align(grid, f).values

    def test_rejects_non_majorized(self):
        f = canonicalize([(3, 1), (F(1, 2), 1)], INF)
        g = canonicalize([(2, 2)], INF)
        with pytest.raises(NotMajorizedError):
            ds_witness(f, g)

    def test_zero_functions(self):
        zero = canonicalize([], INF)
        chain = ds_witness(zero, zero)
        assert chain.apply_to(zero) == zero

    def test_null_space_gives_the_empty_witness(self):
        null = canonicalize([], 0)
        chain = ds_witness(null, null)
        assert (chain.dimension, chain.steps) == (0, ())
        assert chain.product == OperatorMatrix(())
        assert chain.apply_to(null) == null

    def test_padding_when_supports_differ(self):
        f = canonicalize([(1, 4)], INF)
        g = canonicalize([(2, 2)], INF)
        chain = ds_witness(f, g)
        assert chain.source_partition.atoms == (2, 2)  # covers both supports
        assert chain.grid.atoms == (2, 2)
        assert chain.apply_to(g) == f

    def test_signed_pair_on_finite_space(self):
        f = canonicalize([(0, 2)], 2)
        g = canonicalize([(1, 1), (-1, 1)], 2)
        chain = ds_witness(f, g)
        assert chain.product.entries == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        assert chain.apply_to(g) == f

    def test_intermediate_steps_form_a_monotone_chain(self):
        """Each T-transform image is majorized by its predecessor."""
        rng = random.Random(191)
        for _ in range(40):
            n = rng.randint(3, 6)
            partition = Partition.equal_mass(n, 1, n)
            values = random_vector(rng, n)
            g = AlignedStep(partition, values).step_function()
            mixed = apply_matrix(random_doubly_stochastic(rng, n), values)
            f = AlignedStep(partition, mixed).step_function()
            chain = ds_witness(f, g)
            grid = chain.grid
            current = align(grid, g).values
            for step in chain.steps:
                one_step = WitnessChain((step,), chain.source_partition)
                following = apply_matrix(one_step.product, current)
                before = AlignedStep(grid, current).step_function()
                after = AlignedStep(grid, following).step_function()
                assert majorize(after, before).holds
                current = following
            assert AlignedStep(grid, current).step_function() == f

    def test_large_refinement_dimension_from_mixed_denominators(self):
        """Averaging over a coarse unequal partition forces a fine gcd grid."""
        rng = random.Random(211)
        seen_dimensions = []
        for _ in range(25):
            g = canonicalize(
                [
                    (rng.randint(1, 6), F(rng.randint(1, 3), rng.choice((2, 3, 4))))
                    for _ in range(3)
                ],
                INF,
            )
            total = g.support_measure
            weights = [rng.randint(1, 3) for _ in range(2)]
            coarse = Partition(
                atoms=tuple(total * F(w, sum(weights)) for w in weights),
                total_measure=INF,
                tail=Tail(F(1), None),
            )
            f = partition_average(coarse, g).step_function()
            chain = ds_witness(f, g)
            seen_dimensions.append(chain.grid.size)
            assert chain.dimension <= len(f.pieces) + len(g.pieces)
            assert len(chain.steps) <= chain.dimension - 1
            assert classify_matrix(chain.product) is OperatorClass.DOUBLY_STOCHASTIC
            grid_g, grid_f = align(chain.grid, g).values, align(chain.grid, f).values
            assert apply_matrix(chain.product, grid_g) == grid_f
            assert chain.apply_to(g) == f
        assert max(seen_dimensions) >= 12  # the gcd grid really is fine

    @staticmethod
    def averaged_pair(p, q):
        """g with level sets of masses 1/p and 1/q, and f its average."""
        g = canonicalize([(2, F(1, p)), (1, F(1, q))], INF)
        mass = F(1, p) + F(1, q)
        return canonicalize([(g.integral() / mass, mass)], INF), g

    def test_refinement_over_the_atom_budget_is_refused_before_it_is_built(self):
        """The chain needs no grid; its matrix needs one of 4002 atoms."""
        f, g = self.averaged_pair(2003, 1999)
        chain = ds_witness(f, g)
        assert (chain.dimension, len(chain.steps)) == (2, 1)
        assert chain.apply_to(g) == f
        start = time.monotonic()
        with pytest.raises(MajoError, match="4002 atoms .* budget of 1024"):
            chain.product
        with pytest.raises(MajoError, match="4002 atoms .* budget of 1024"):
            chain.grid
        assert time.monotonic() - start < 1

    def test_refinement_inside_the_atom_budget_is_built(self):
        f, g = self.averaged_pair(211, 199)
        chain = ds_witness(f, g)
        assert chain.grid.size == 410 <= WITNESS_ATOM_BUDGET
        assert chain.grid.atoms[0] == F(1, 211 * 199)
        assert chain.apply_to(g) == f

    def test_coprime_denominators_near_ten_thousand_take_one_step(self):
        """A gcd grid of 19 980 atoms; on level sets, two atoms and one step."""
        f, g = self.averaged_pair(10007, 9973)
        start = time.monotonic()
        chain = ds_witness(f, g)
        assert chain.apply_to(g) == f
        assert time.monotonic() - start < 0.5
        assert chain.source_partition.atoms == (F(1, 10007), F(1, 9973))
        assert len(chain.steps) == 1

    def test_level_set_operator_is_a_doubly_stochastic_kernel(self):
        f, g = self.averaged_pair(10007, 9973)
        chain = ds_witness(f, g)
        masses = chain.source_partition.atoms
        # the chain's _mix works on integer (numerator, denominator) pairs
        rows = [
            tuple(e.as_integer_ratio() for e in row)
            for row in OperatorMatrix.identity(chain.dimension).entries
        ]
        chain._mix(rows)
        # the value-basis matrix M in the integral basis: d = diag(a) M diag(1/a)
        d = OperatorMatrix(
            tuple(
                tuple(a * F(*e) / c for e, c in zip(row, masses))
                for a, row in zip(masses, rows)
            )
        )
        kernel = matrix_to_kernel(chain.source_partition, d)
        assert kernel_classify(kernel) is OperatorClass.DOUBLY_STOCHASTIC
        image = kernel_apply(kernel, align(chain.source_partition, g))
        assert image.step_function() == f

    def test_randomized_validity(self):
        rng = random.Random(97)
        for _ in range(120):
            n = rng.randint(2, 6)
            mass = random_fraction(rng, max_numerator=3, positive=True)
            infinite = rng.random() < 0.5
            partition = Partition.equal_mass(n, mass, INF if infinite else mass * n)
            values = random_vector(rng, n)
            g = AlignedStep(partition, values).step_function()
            mixed = apply_matrix(random_doubly_stochastic(rng, n), values)
            f = AlignedStep(partition, mixed).step_function()
            chain = ds_witness(f, g)
            assert len(chain.steps) <= max(chain.dimension - 1, 0)
            assert classify_matrix(chain.product) is OperatorClass.DOUBLY_STOCHASTIC
            factors = [
                WitnessChain((step,), chain.source_partition).product
                for step in chain.steps
            ]
            for step_matrix in factors:
                assert classify_matrix(step_matrix) is OperatorClass.DOUBLY_STOCHASTIC
            ordered = OperatorMatrix.identity(chain.grid.size)
            for step_matrix in factors:
                ordered = compose(step_matrix, ordered)
            assert ordered == chain.product
            v_f = align(chain.grid, f).values
            v_g = align(chain.grid, g).values
            assert apply_matrix(chain.product, v_g) == v_f
            assert l1_distance(chain.apply_to(g), f) == 0


def test_a_straddling_remainder_past_the_digit_limit_is_named_by_its_bits():
    """At the first level boundary, 1/10, the level set's remainder left
    after about 3000 atoms 1/p (p prime from 10007) has a 23 695-bit
    denominator: the refusal names its size, where ``str`` would raise."""
    f = canonicalize([(2, F(1, 10)), (1, F(1, 10))], INF)
    primes = [p for p in range(10007, 80000) if all(p % q for q in range(2, 283))]
    atoms = [F(1, p) for p in primes[:6401]]  # they sum past 1/5, f's support
    with pytest.raises(PartitionMisalignedError, match=(
        r"^atom of mass 1/\d+ straddles a level boundary "
        r"\(only a rational of \d+ bits left at value 2\)$"
    )):
        align(Partition(atoms, INF, Tail(F(1, 7))), f)

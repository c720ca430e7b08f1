"""Small-set moduli, the truncation bound, and L1 distances."""

import itertools
import random
from fractions import Fraction as F

import pytest

from majo import (
    INF,
    AlignedStep,
    OperatorMatrix,
    Partition,
    align,
    apply_matrix,
    canonicalize,
    equi_modulus,
    fraction_gcd,
    l1_distance,
    majorize,
    sequence_apply,
    small_set_modulus,
)
from majo.errors import (
    DeltaOutOfRangeError,
    EmptyFamilyError,
    MeasureMismatchError,
)
from majo.sampling import (
    random_fraction,
    random_sds_matrix,
    random_step_function,
    random_vector,
)


def tall_narrow():
    return canonicalize([(3, 1), (F(1, 2), 1)], INF)


class TestSmallSetModulus:
    def test_top_slice(self):
        assert small_set_modulus(tall_narrow(), 1) == 3

    def test_zero_budget(self):
        assert small_set_modulus(tall_narrow(), 0) == 0

    def test_whole_finite_space(self):
        f = canonicalize([(2, 1), (1, 2)], 3)
        assert small_set_modulus(f, 3) == f.integral()

    def test_out_of_range(self):
        f = canonicalize([(2, 1)], 1)
        with pytest.raises(DeltaOutOfRangeError):
            small_set_modulus(f, 2)
        with pytest.raises(DeltaOutOfRangeError):
            small_set_modulus(f, -1)

    def test_dominates_every_explicit_selection(self):
        """Brute force over level-set subsets: none beats the top slice."""
        rng = random.Random(109)
        for _ in range(40):
            f = random_step_function(rng, max_pieces=4)
            pieces = f.pieces
            for size in range(len(pieces) + 1):
                for chosen in itertools.combinations(pieces, size):
                    delta = sum((p.mass for p in chosen), F(0))
                    selected = sum((p.value * p.mass for p in chosen), F(0))
                    assert selected <= small_set_modulus(f, delta)

    def test_greedy_top_selection_attains_the_modulus(self):
        rng = random.Random(113)
        for _ in range(40):
            f = random_step_function(rng, max_pieces=4)
            for prefix in range(1, len(f.pieces) + 1):
                top = f.pieces[:prefix]
                delta = sum((p.mass for p in top), F(0))
                attained = sum((p.value * p.mass for p in top), F(0))
                assert attained == small_set_modulus(f, delta)

    def test_bounded_by_ess_sup_of_dominating_function(self):
        """If f is majorized by a bounded g, small sets obey the sup bound."""
        rng = random.Random(127)
        for _ in range(60):
            n = rng.randint(2, 4)
            partition = Partition.equal_mass(n, 1, INF)
            values = random_vector(rng, n)
            g = AlignedStep(partition, values).step_function()
            from majo.sampling import random_doubly_stochastic

            mixed = apply_matrix(random_doubly_stochastic(rng, n), values)
            f = AlignedStep(partition, mixed).step_function()
            assert majorize(f, g).holds
            for delta in (F(1, 4), F(1, 2), F(1), F(2)):
                assert small_set_modulus(f, delta) <= g.ess_sup() * delta


class TestEquiModulus:
    def test_identity_family_with_ess_sup_truncation(self):
        f = tall_narrow()
        delta = F(1, 2)
        report = equi_modulus([f], delta, f)
        # c = ess_sup is on the default grid, where the hinge vanishes
        assert report.bound <= f.ess_sup() * delta
        grid = {p.value for p in f.pieces} | {F(0)}
        assert report.bound == min(f.hinge_integral(c) + c * delta for c in grid)
        assert report.modulus == small_set_modulus(f, delta)
        assert report.within_bound

    def test_whole_space_budget_on_finite_family(self):
        f = canonicalize([(2, 1), (1, 1)], 2)
        report = equi_modulus([f], 2, f)
        assert report.modulus == f.integral()
        assert report.within_bound  # c = 0 gives bound = integral(f)

    def test_signed_source_refuses_a_member_on_another_total(self):
        # zeros padded onto the larger space sit above the level -1, so the
        # image is not majorized by its source
        f = canonicalize([(-1, 1)], 1)
        operator = OperatorMatrix(((F(1),), (F(0),)))
        image, _ = sequence_apply(operator, f, 1)
        assert image.total_measure == 2
        with pytest.raises(MeasureMismatchError):
            equi_modulus([image], 1, f)
        with pytest.raises(MeasureMismatchError):
            equi_modulus([f, image], 1, f)
        assert equi_modulus([f], 1, f).bound == -1

    def test_a_member_past_its_finite_total_reads_its_integral(self):
        # on total 1/4 the square identity and the 2x1 operator (1, 0) give
        # the same rows: past a total, each side is its own integral
        f = canonicalize([(1, F(1, 4))], F(1, 4))
        square, _ = sequence_apply(OperatorMatrix(((F(1),),)), f, F(1, 4))
        tall, _ = sequence_apply(OperatorMatrix(((F(1),), (F(0),))), f, F(1, 4))
        assert (square.total_measure, tall.total_measure) == (F(1, 4), F(1, 2))
        for k in range(1, 9):
            delta = F(1, 2**k)
            rows = [equi_modulus([h], delta, f) for h in (square, tall)]
            assert rows[0] == rows[1]
            assert rows[0].modulus == rows[0].bound == min(delta, F(1, 4))

    def test_a_signed_source_past_its_total_reads_its_integral(self):
        f = canonicalize([(2, 1), (-3, 1)], 2)
        for delta in (F(5, 2), 3):
            report = equi_modulus([f], delta, f)
            assert report.modulus == report.bound == f.integral() == -1
        with pytest.raises(DeltaOutOfRangeError):
            equi_modulus([f], -1, f)

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            equi_modulus([], 1, tall_narrow())

    def test_modulus_nondecreasing_in_delta(self):
        rng = random.Random(131)
        for _ in range(40):
            f = random_step_function(rng, infinite=True)
            deltas = sorted(random_fraction(rng, max_numerator=5) for _ in range(4))
            moduli = [equi_modulus([f], d, f).modulus for d in deltas]
            assert all(a <= b for a, b in zip(moduli, moduli[1:]))

    def test_sds_family_stays_within_bound_on_grid(self):
        rng = random.Random(137)
        deltas = [F(1, 2**k) for k in range(1, 9)]
        for _ in range(25):
            cols = rng.randint(2, 4)
            mass = random_fraction(rng, max_numerator=3, positive=True)
            col_part = Partition.equal_mass(cols, mass, INF)
            values = random_vector(rng, cols)
            f = AlignedStep(col_part, values).step_function()
            family = []
            for _ in range(8):
                operator = random_sds_matrix(rng, cols + rng.randint(0, 2), cols)
                family.append(sequence_apply(operator, f, mass)[0])
            for delta in deltas:
                assert equi_modulus(family, delta, f).within_bound


class TestL1Distance:
    def test_identical(self):
        f = tall_narrow()
        assert l1_distance(f, f) == 0

    def test_single_atom_difference(self):
        f = canonicalize([(3, 1)], 1)
        g = canonicalize([(1, 1)], 1)
        assert l1_distance(f, g) == 2

    def test_example_pair_refinement(self):
        f = tall_narrow()
        g = canonicalize([(2, 2)], INF)
        assert l1_distance(f, g) == F(5, 2)

    def test_measure_mismatch(self):
        with pytest.raises(MeasureMismatchError):
            l1_distance(canonicalize([(1, 1)], 1), canonicalize([(1, 1)], 2))

    def test_triangle_inequality_and_symmetry(self):
        rng = random.Random(139)
        for _ in range(60):
            f = random_step_function(rng, infinite=True)
            g = random_step_function(rng, infinite=True)
            h = random_step_function(rng, infinite=True)
            assert l1_distance(f, g) == l1_distance(g, f)
            assert l1_distance(f, h) <= l1_distance(f, g) + l1_distance(g, h)

    def test_zero_distance_means_equal_canonical_forms(self):
        rng = random.Random(149)
        for _ in range(60):
            f = random_step_function(rng, infinite=True)
            g = random_step_function(rng, infinite=True)
            assert (l1_distance(f, g) == 0) == (f == g)

    def test_signed_finite_pairs_match_a_common_equal_mass_grid(self):
        rng = random.Random(151)
        for _ in range(40):
            f = random_step_function(rng, infinite=False, signed=True, max_pieces=40)
            g = random_step_function(rng, infinite=False, signed=True, max_pieces=40)
            total = max(f.total_measure, g.total_measure)
            f, g = canonicalize(f.pieces, total), canonicalize(g.pieces, total)
            unit = fraction_gcd([p.mass for p in f.pieces + g.pieces])
            grid = Partition.equal_mass(int(total / unit), unit, total)
            a, b = align(grid, f).values, align(grid, g).values
            expected = sum((abs(x - y) for x, y in zip(a, b)), F(0)) * unit
            assert l1_distance(f, g) == expected

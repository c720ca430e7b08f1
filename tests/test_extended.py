"""The extended-rational layer: one infinity, exact coercions, gcd."""

import operator
import sys
from fractions import Fraction as F

import pytest

from majo import (
    INF,
    OperatorMatrix,
    Partition,
    StepFunction,
    Tail,
    TTransform,
    WitnessChain,
    align,
    as_fraction,
    canonicalize,
    equi_modulus,
    fraction_gcd,
    indicator,
    l1_distance,
    majorize,
    partition_average,
    partition_average_matrix,
    small_set_modulus,
)
from majo.errors import (
    DeltaOutOfRangeError,
    DimensionMismatchError,
    DivergentHingeError,
    InvalidTTransformError,
    MajoError,
    MassExceedsTotalError,
    MeasureMismatchError,
    NegativeEntryError,
    NegativeMassError,
    PartitionMisalignedError,
    SOutOfRangeError,
)
from majo.extended import Infinity, as_extended


class TestInfinity:
    def test_singleton(self):
        assert Infinity() is INF

    def test_ordering_against_rationals(self):
        assert INF > F(10**9)
        assert F(-3) < INF
        assert INF >= INF
        assert not INF > INF
        assert INF == INF
        assert INF != F(1)

    @pytest.mark.parametrize(
        "other", [INF, 0, 7, -2, F(1, 3), F(-5, 2), True, 0.5, "inf", None]
    )
    def test_comparison_table(self, other):
        """All six comparisons in both operand orders: INF is above every
        int and Fraction (a bool is an int), equal only to itself, and
        unordered against any other type."""
        ops = operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne
        if other is INF:
            left = right = (False, True, False, True, True, False)
        elif isinstance(other, (int, F)):
            left = (False, False, True, True, False, True)  # INF ? other
            right = (True, True, False, False, False, True)  # other ? INF
        else:
            left = right = (TypeError,) * 4 + (False, True)

        def outcome(op, a, b):
            try:
                return op(a, b)
            except TypeError:
                return TypeError

        assert tuple(outcome(op, INF, other) for op in ops) == left
        assert tuple(outcome(op, other, INF) for op in ops) == right

    def test_sorting_puts_infinity_last(self):
        assert sorted([INF, F(2), F(1, 2)]) == [F(1, 2), F(2), INF]

    def test_has_no_arithmetic(self):
        with pytest.raises(TypeError):
            INF + 1
        with pytest.raises(TypeError):
            INF - 1
        with pytest.raises(TypeError):
            -INF


class TestCoercions:
    def test_accepts_int_str_fraction(self):
        assert as_fraction(3) == F(3)
        assert as_fraction("7/4") == F(7, 4)
        assert as_fraction(F(1, 3)) == F(1, 3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)

    @pytest.mark.parametrize(
        "text", ["0.5", "1.0", "1e3", "1_0", "abc", "", "1/0", "2/00"]
    )
    def test_strings_follow_the_integer_or_p_over_q_rule(self, text):
        with pytest.raises(MajoError) as info:
            as_fraction(text)
        assert isinstance(info.value, ValueError)

    def test_extended_accepts_inf_spelling(self):
        assert as_extended("inf") is INF
        assert as_extended(INF) is INF
        assert as_extended("5/2") == F(5, 2)


class TestFractionGcd:
    def test_integers(self):
        assert fraction_gcd([4, 6]) == 2

    def test_fractions(self):
        assert fraction_gcd([F(1, 2), F(1, 3)]) == F(1, 6)
        assert fraction_gcd([F(3, 4), F(1, 2), F(5, 4)]) == F(1, 4)

    def test_divides_all_inputs(self):
        values = [F(9, 10), F(3, 5), F(6, 7)]
        unit = fraction_gcd(values)
        for v in values:
            assert (v / unit).denominator == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fraction_gcd([])


class TestErrorContract:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: StepFunction(((0, 1),), INF),
            lambda: StepFunction(((1, 1), (2, 1)), 2),
            lambda: StepFunction(((1, 1),), 2),
            lambda: equi_modulus([], 0, indicator(1, 2)),
            lambda: as_fraction("1.5"),
            lambda: fraction_gcd([]),
        ],
    )
    def test_value_errors_are_majo_errors(self, build):
        with pytest.raises(MajoError) as info:
            build()
        assert isinstance(info.value, ValueError)


# past the smallest digit limit Python allows, 640 digits, which the fixture
# below sets
BIG = 10**700


@pytest.fixture
def digit_limit_640():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python writes integers of any length")
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def bits(x) -> str:
    """The size by which ``extended._shown`` names a number past the digit
    limit, after "an integer" or "a rational"."""
    x = F(x)
    return f"of {max(x.numerator.bit_length(), x.denominator.bit_length())} bits"


def on(total):
    """A partition of one atom of mass 1 and one tail atom tiling ``total``."""
    return Partition((F(1),), total, Tail(total - 1, 1))


@pytest.mark.usefixtures("digit_limit_640")
class TestRefusalsPastTheDigitLimit:
    """Every refusal writes its numbers with ``extended._shown``: past the
    digit limit it raises its own error, naming the number by its size,
    where ``str`` would raise ``ValueError``."""

    @pytest.mark.parametrize("refuse, error, number", [
        (lambda: majorize(canonicalize([], BIG), canonicalize([], 1)),
         MeasureMismatchError, BIG),
        (lambda: small_set_modulus(canonicalize([], 1), BIG), DeltaOutOfRangeError, BIG),
        (lambda: align(Partition((F(BIG + 1, 2 * BIG), F(BIG - 1, 2 * BIG)), 1),
                       canonicalize([(2, F(1, 2))], 1)),
         PartitionMisalignedError, F(BIG + 1, 2 * BIG)),
        (lambda: Tail(-BIG), NegativeMassError, BIG),
        (lambda: Partition((F(-BIG),), INF, Tail(1)), NegativeMassError, BIG),
        (lambda: Partition((F(1),), BIG), MeasureMismatchError, BIG),
        (lambda: OperatorMatrix(((-BIG,),)), NegativeEntryError, BIG),
        (lambda: partition_average_matrix(
            Partition.equal_mass(2, 1, 2), Partition((1 + F(1, BIG), 1 - F(1, BIG)), 2)),
         PartitionMisalignedError, 1 + F(1, BIG)),
        (lambda: TTransform(0, 1, BIG), InvalidTTransformError, BIG),
        (lambda: canonicalize([], 1).partial_integral(BIG), SOutOfRangeError, BIG),
        (lambda: canonicalize([], INF).hinge_integral(-BIG), DivergentHingeError, BIG),
        (lambda: canonicalize([], INF).tail_distribution_integral(-BIG),
         DivergentHingeError, BIG),
        (lambda: canonicalize([], -BIG), MassExceedsTotalError, BIG),
        (lambda: canonicalize([(1, 2)], 1 + F(1, BIG)), MassExceedsTotalError,
         1 + F(1, BIG)),
        (lambda: WitnessChain((TTransform(0, BIG, 0),), Partition.equal_mass(1, 1, 1)),
         DimensionMismatchError, BIG),
    ], ids=["same-total", "small-set-modulus", "straddle", "tail-mass", "atom-mass",
            "partition-total", "negative-entry", "fine-atom", "weight", "s", "hinge-u",
            "tail-u", "negative-total", "masses-over-total", "chain-coordinate"])
    def test_a_refusal_names_a_long_number_by_its_size(self, refuse, error, number):
        with pytest.raises(MajoError) as info:
            refuse()
        assert type(info.value) is error
        assert bits(number) in str(info.value)

    @pytest.mark.parametrize("refuse, first, second", [
        (lambda: align(Partition.equal_mass(2, 1, 2), canonicalize([(1, 1)], BIG)), 2, BIG),
        (lambda: partition_average(Partition.equal_mass(2, 1, 2),
                                   canonicalize([(1, 1)], BIG)), 2, BIG),
        (lambda: partition_average_matrix(Partition.equal_mass(2, 1, 2), on(BIG)), 2, BIG),
        (lambda: majorize(canonicalize([(1, 1)], BIG), indicator(1, 2)), BIG, 2),
        (lambda: l1_distance(indicator(1, 2), canonicalize([(1, 1)], BIG)), 2, BIG),
        (lambda: equi_modulus([canonicalize([(1, 1)], BIG)], 1,
                              canonicalize([(-1, 1)], 2)), BIG, 2),
    ], ids=["align", "partition_average", "partition_average_matrix", "majorize",
            "l1_distance", "equi_modulus"])
    def test_every_unequal_total_is_one_refusal(self, refuse, first, second):
        with pytest.raises(MeasureMismatchError) as info:
            refuse()
        shown = [f"a rational {bits(t)}" if t is BIG else str(t) for t in (first, second)]
        assert str(info.value) == f"total measures differ: {shown[0]} vs {shown[1]}"

"""The extended-rational layer: one infinity, exact coercions, gcd."""

from fractions import Fraction as F

import pytest

from majo import INF, StepFunction, as_fraction, equi_modulus, fraction_gcd, indicator
from majo.errors import MajoError
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

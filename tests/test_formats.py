"""Round trips and error reporting for the .sfn and .mat text formats."""

import random
import sys
from fractions import Fraction as F

import pytest

from majo import INF, OperatorMatrix, Partition, Tail, canonicalize
from majo.errors import InvalidPartitionError, ParseError, RationalTooLongError
from majo.formats import (
    dump_mat,
    dumps_mat,
    dumps_sfn,
    format_rational,
    loads_mat,
    loads_sfn,
)
from majo.sampling import random_fraction, random_step_function


class TestRationalFormat:
    def test_integers_bare(self):
        assert format_rational(F(4)) == "4"

    def test_fractions_as_p_over_q(self):
        assert format_rational(F(-7, 3)) == "-7/3"

    def test_infinity(self):
        assert format_rational(INF) == "inf"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python writes integers of any length",
    )
    def test_over_the_digit_limit_is_a_majo_error_and_writes_nothing(self, tmp_path):
        long = F(1, 10**4400 + 1)  # a denominator of 4401 digits
        with pytest.raises(RationalTooLongError, match="4401 digits"):
            format_rational(long)
        with pytest.raises(RationalTooLongError, match="5001 digits"):
            format_rational(F(-(10**5000)))
        out = tmp_path / "D.mat"
        with pytest.raises(RationalTooLongError):
            dump_mat(out, OperatorMatrix(((long, 1 - long), (1 - long, long))))
        assert not out.exists()


class TestSfn:
    def test_parse_with_comments_and_order(self):
        doc = loads_sfn(
            """
            # a scrambled function
            total inf
            1/2 1   # low piece first
            3 1
            """
        )
        assert doc.function == canonicalize([(3, 1), (F(1, 2), 1)], INF)
        assert doc.partition is None

    def test_round_trip(self):
        rng = random.Random(151)
        for _ in range(80):
            f = random_step_function(rng, signed=rng.random() < 0.3)
            assert loads_sfn(dumps_sfn(f)).function == f

    def test_partition_block_round_trip(self):
        f = canonicalize([(2, 2)], INF)
        partition = Partition(
            atoms=(F(1), F(1)), total_measure=INF, tail=Tail(F(1), None)
        )
        text = dumps_sfn(f, partition)
        doc = loads_sfn(text)
        assert doc.partition == partition
        assert dumps_sfn(doc.function, doc.partition) == text

    def test_finite_partition_with_counted_tail(self):
        doc = loads_sfn("total 3\n2 1\npartition 1 1\ntail 1/2 x 2\n")
        assert doc.partition.atoms == (F(1), F(1))
        assert doc.partition.tail == Tail(F(1, 2), 2)

    def test_infinite_partition_defaults_tail_to_last_atom(self):
        doc = loads_sfn("total inf\n2 2\npartition 1 1\n")
        assert doc.partition.tail == Tail(F(1), None)

    @pytest.mark.parametrize(
        "total, tail", [(F(0), None), (INF, Tail(F(1), None))]
    )
    def test_partition_without_atoms_round_trips(self, total, tail):
        f = canonicalize([], total)
        partition = Partition(atoms=(), total_measure=total, tail=tail)
        doc = loads_sfn(dumps_sfn(f, partition))
        assert (doc.function, doc.partition) == (f, partition)

    def test_bare_partition_on_an_infinite_space_needs_a_tail(self):
        with pytest.raises(InvalidPartitionError):
            loads_sfn("total inf\npartition\n")

    def test_missing_total_line(self):
        with pytest.raises(ParseError) as err:
            loads_sfn("3 1\n")
        assert err.value.line == 1

    def test_bad_rational_reports_position(self):
        with pytest.raises(ParseError) as err:
            loads_sfn("total 2\n3 0.5\n")
        assert err.value.line == 2
        assert err.value.column == 2
        assert err.value.token == "0.5"

    def test_tail_without_partition(self):
        with pytest.raises(ParseError):
            loads_sfn("total inf\n1 1\ntail 1 x inf\n")

    def test_junk_line(self):
        with pytest.raises(ParseError) as err:
            loads_sfn("total 2\n1 1 1\n")
        assert err.value.line == 2


class TestMat:
    def test_parse_simple(self):
        matrix = loads_mat("2 2\n1/2 1/2\n1/2 1/2\n")
        assert matrix.entries == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_round_trip(self):
        rng = random.Random(157)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            matrix = OperatorMatrix(
                tuple(
                    tuple(random_fraction(rng) for _ in range(cols))
                    for _ in range(rows)
                )
            )
            assert loads_mat(dumps_mat(matrix)) == matrix

    def test_entries_may_wrap_lines(self):
        matrix = loads_mat("2 2\n1 0 0\n1\n")
        assert matrix == OperatorMatrix(((F(1), F(0)), (F(0), F(1))))

    def test_wrong_entry_count(self):
        # reported on the last line with content
        for text, line in (("2 2\n1 0 0\n", 2), ("2 2\n", 1), ("2 2\n1 0\n# end\n\n", 2)):
            with pytest.raises(ParseError) as err:
                loads_mat(text)
            assert err.value.line == line

    def test_empty_files(self):
        for load in (loads_mat, loads_sfn):
            for text in ("", "\n# a comment\n"):
                with pytest.raises(ParseError) as err:
                    load(text)
                assert err.value.line == 1

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            loads_mat("2\n1 0\n")
        assert err.value.line == 1

    def test_comments_ignored(self):
        matrix = loads_mat("# witness\n2 2  # shape\n1 0\n0 1\n")
        assert matrix == OperatorMatrix.identity(2)

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
    load_mat,
    load_sfn,
    loads_mat,
    loads_sfn,
)
from majo.sampling import random_fraction, random_step_function


# the characters str.splitlines() also ends a line at
OTHER_SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
RATIONAL_ERROR = "expected a rational p/q or integer"
LINE_ERROR = "expected '<value> <mass>', 'partition ...' or 'tail ...'"
COUNT_ERROR = "tail count must be a nonnegative integer or inf"
SHAPE_ERROR = "rows and cols must be nonnegative integers"
# tokens one character away from a rational or a count: a signed or empty
# side of the slash, a digit separator, digits that are not ASCII, a zero
# denominator, two slashes, two signs
NEAR_MISSES = ("1/+2", "1/-2", "1_0", "\u0661", "\u00b2", "1/0", "1//2", "+-1", "1/", "/2")


def assert_parse_error(load, text, message, line, column, token):
    with pytest.raises(ParseError) as err:
        load(text)
    assert str(err.value) == f"{message} (line {line}, column {column}, near {token!r})"
    assert (err.value.line, err.value.column, err.value.token) == (line, column, token)


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
        "total, tail, text",
        [
            (F(0), None, "total 0\npartition\n"),
            (INF, Tail(F(1), None), "total inf\npartition\ntail 1 x inf\n"),
        ],
        ids=["total0-None", "total1-tail1"],
    )
    def test_partition_without_atoms_round_trips(self, total, tail, text):
        f = canonicalize([], total)
        partition = Partition(atoms=(), total_measure=total, tail=tail)
        assert dumps_sfn(f, partition) == text
        doc = loads_sfn(text)
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

    def test_tail_line_without_a_count(self):
        with pytest.raises(ParseError, match="^tail syntax is ") as err:
            loads_sfn("total inf\n1 1\npartition 1\ntail 1 x\n")
        assert (err.value.line, err.value.token) == (4, "tail 1 x")

    def test_junk_line(self):
        with pytest.raises(ParseError) as err:
            loads_sfn("total 2\n1 1 1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("separator", OTHER_SEPARATORS)
    def test_comment_with_a_line_separator_stays_a_comment(self, separator):
        doc = loads_sfn(f"total inf\n2 1 # mass {separator} of the top level\n1 1\n")
        assert doc.function == canonicalize([(2, 1), (1, 1)], INF)
        with pytest.raises(ParseError) as err:
            loads_sfn(f"total inf\n2 1 # mass {separator} of the top level\n1 bad\n")
        assert (err.value.line, err.value.column, err.value.token) == (3, 2, "bad")

    @pytest.mark.parametrize("separator", OTHER_SEPARATORS)
    def test_other_separators_are_whitespace_inside_a_line(self, separator):
        doc = loads_sfn(f"total{separator}inf\n{separator}2{separator}1{separator}\n")
        assert doc.function == canonicalize([(2, 1)], INF)
        with pytest.raises(ParseError) as err:
            loads_sfn(f"total inf\n2 1{separator}1 1\n")
        assert (err.value.line, err.value.token) == (2, "2 1 1 1")

    def test_lines_end_at_universal_newlines(self):
        lines = ["total 3", "# c", "2 1", "", "1 1"]
        for newline in ("\n", "\r\n", "\r"):
            doc = loads_sfn(newline.join(lines))
            assert doc.function == canonicalize([(2, 1), (1, 1)], 3)
            with pytest.raises(ParseError) as err:
                loads_sfn(newline.join(lines + ["1 x"]))
            assert (err.value.line, err.value.column) == (6, 2)

    # errors of the token path, which reads every line the level-line match
    # refuses: message, line, column and token must stay as they are
    @pytest.mark.parametrize("text, message, line, column, token", [
        ("total 3\n1/0 1\n", RATIONAL_ERROR, 2, 1, "1/0"),
        ("total 3\n1 1/0\n", RATIONAL_ERROR, 2, 2, "1/0"),
        ("total 3\n# c\n\n1.5 1\n", RATIONAL_ERROR, 4, 1, "1.5"),
        ("total 3\n2 1\n1 1.5  # half\n", RATIONAL_ERROR, 3, 2, "1.5"),
        ("total 3\n1_0 1\n", RATIONAL_ERROR, 2, 1, "1_0"),
        ("total 3\n\t\u0663 1\n", RATIONAL_ERROR, 2, 1, "\u0663"),
        ("total 3\n2 \u0663\n", RATIONAL_ERROR, 2, 2, "\u0663"),
        ("total 3\n+-1 1\n", RATIONAL_ERROR, 2, 1, "+-1"),
        ("total 3\n1 +-1\n", RATIONAL_ERROR, 2, 2, "+-1"),
        ("total 3\n1 1 1\n", LINE_ERROR, 2, 1, "1 1 1"),
        ("total 3\n1 1 # x\n1 2 3 # y\n", LINE_ERROR, 3, 1, "1 2 3"),
    ])
    def test_malformed_level_lines(self, text, message, line, column, token):
        with pytest.raises(ParseError) as err:
            loads_sfn(text)
        assert str(err.value) == (
            f"{message} (line {line}, column {column}, near {token!r})")
        assert (err.value.line, err.value.column, err.value.token) == (line, column, token)

    @pytest.mark.parametrize("token", NEAR_MISSES)
    @pytest.mark.parametrize("text, message, line, column", [
        ("total 3\n{} 1\n", RATIONAL_ERROR, 2, 1),
        ("total 3\n1 {}\n", RATIONAL_ERROR, 2, 2),
        ("total {}\n", RATIONAL_ERROR, 1, 2),
        ("total inf\n1 1\npartition 1 {}\n", RATIONAL_ERROR, 3, 3),
        ("total inf\n1 1\npartition 1\ntail {} x inf\n", RATIONAL_ERROR, 4, 2),
        ("total inf\n1 1\npartition 1\ntail 1 x {}\n", COUNT_ERROR, 4, 4),
    ], ids=["value", "mass", "total", "atom", "tail-mass", "tail-count"])
    def test_near_miss_tokens_in_every_slot(self, text, message, line, column, token):
        assert_parse_error(loads_sfn, text.format(token), message, line, column, token)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python reads integers of any length",
    )
    @pytest.mark.parametrize("line, column, token", [
        ("{} 1", 1, "{}"), ("1 {}", 2, "{}"), ("1/{} 1", 1, "1/{}"),
    ])
    def test_level_line_over_the_digit_limit(self, line, column, token):
        long = "7" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as err:
            loads_sfn("total 3\n" + line.format(long) + "\n")
        assert str(err.value).startswith(f"{RATIONAL_ERROR} (line 2, column {column}, ")
        assert (err.value.line, err.value.column) == (2, column)
        assert err.value.token == token.format(long)


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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_reports_its_line(self, tmp_path, newline):
        end = newline.encode()
        sfn = [b"total 2", b"# \xe2\x80\xa8 c", b"1 \xff2", b""]  # U+2028 in a comment
        (tmp_path / "f.sfn").write_bytes(end.join(sfn))
        (tmp_path / "m.mat").write_bytes(end.join([b"1 1", b"# \x0c", b"\xc3", b""]))
        for load, name in ((load_sfn, "f.sfn"), (load_mat, "m.mat")):
            with pytest.raises(ParseError) as err:
                load(tmp_path / name)
            assert err.value.line == 3

    @pytest.mark.parametrize("token", NEAR_MISSES)
    @pytest.mark.parametrize("text, message, line, column", [
        ("1 2\n1 {}\n", RATIONAL_ERROR, 2, 2),
        ("{} 1\n1\n", SHAPE_ERROR, 1, 1),
        ("1 {}\n1\n", SHAPE_ERROR, 1, 2),
    ], ids=["entry", "rows", "cols"])
    def test_near_miss_tokens_in_every_slot(self, text, message, line, column, token):
        assert_parse_error(loads_mat, text.format(token), message, line, column, token)

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            loads_mat("2\n1 0\n")
        assert err.value.line == 1

    def test_comments_ignored(self):
        matrix = loads_mat("# witness\n2 2  # shape\n1 0\n0 1\n")
        assert matrix == OperatorMatrix.identity(2)

    @pytest.mark.parametrize("separator", OTHER_SEPARATORS)
    def test_comment_with_a_line_separator_stays_a_comment(self, separator):
        text = f"2 2 # shape {separator} 3 3\n1 0 # first row {separator} then\n0 1\n"
        assert loads_mat(text) == OperatorMatrix.identity(2)
        with pytest.raises(ParseError) as err:
            loads_mat(f"2 2\n1 0 # first row {separator} then\n0 x\n")
        assert (err.value.line, err.value.column, err.value.token) == (3, 2, "x")
        with pytest.raises(ParseError) as err:
            loads_mat(f"2 2\n1 0 # {separator} 0\n0\n\n")
        assert err.value.line == 3  # the last line with content

    @pytest.mark.parametrize("separator", OTHER_SEPARATORS)
    def test_other_separators_are_whitespace_inside_a_line(self, separator):
        matrix = loads_mat(f"2{separator}2\n1{separator}0{separator}0 1")
        assert matrix == OperatorMatrix.identity(2)


# tokens the rational reader takes that are no count: a sign or a slash
@pytest.mark.parametrize("token", ["+1", "-0", "1/1", "2/2"])
@pytest.mark.parametrize("load, text, message, line, column", [
    (loads_mat, "{} 1\n1\n", SHAPE_ERROR, 1, 1),
    (loads_mat, "1 {}\n1\n", SHAPE_ERROR, 1, 2),
    (loads_sfn, "total inf\n1 1\npartition 1\ntail 1 x {}\n", COUNT_ERROR, 4, 4),
], ids=["rows", "cols", "tail-count"])
def test_a_count_is_digits_alone(load, text, message, line, column, token):
    assert_parse_error(load, text.format(token), message, line, column, token)

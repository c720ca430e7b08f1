r"""Text formats for step functions (.sfn) and operator matrices (.mat).

A step-function file starts with ``total <rational>|inf``, followed by one
``<value> <mass>`` line per level set in any order (the loader
canonicalizes). An optional alignment block gives a partition of the same
space: ``partition <mass> ...`` (zero or more masses) and, when needed,
``tail <mass> x <count|inf>``. ``#`` starts a comment that runs to the end
of its line; rationals are written ``p/q`` or as plain integers, never as
decimals. In both formats a line ends at ``\n``, ``\r\n`` or ``\r``, and
nowhere else.

A matrix file is ``rows cols`` on the first effective line followed by
row-major entries separated by arbitrary whitespace.

Each line is split into tokens once, and every number token (a level's value
and mass, the total, the partition atoms, the tail mass and count, a matrix
entry, the header counts) is read by the one reader ``extended._read_ratio``,
with no regex. A level set's value and mass stay integer pairs in lowest terms
and go to the integer core of ``canonicalize`` with no ``Fraction`` built; the
writer formats a function from the same pairs with ``extended._format_ratio``.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from .errors import ParseError, _cut
from .extended import INF, _format_ratio, _read_ratio, _shown
from .operators import OperatorMatrix, Partition, Tail
# canonicalize is not called here, but majo.formats.canonicalize stays a name
# for it: bench/tracing.py and its tests find it in this module
from .stepfn import StepFunction, _canonical, canonicalize  # noqa: F401


def format_rational(x) -> str:
    """Serialize exactly: integers bare, otherwise p/q; never decimals.

    A numerator or denominator with more digits than Python converts to text
    (``sys.get_int_max_str_digits``) raises :class:`RationalTooLongError`.
    """
    if x is INF:
        return "inf"
    return _format_ratio(*Fraction(x).as_integer_ratio())


_NOT_RATIONAL = "expected a rational p/q or integer"


def _parse_rational(token: str, line: int, column: int) -> Fraction:
    pair = _read_ratio(token)
    if pair is None:
        raise ParseError(_NOT_RATIONAL, line=line, column=column, token=token)
    return Fraction(*pair)


def _parse_count(token: str, line: int, column: int, message: str) -> int:
    """Digits alone, no sign or slash, read by ``_read_ratio`` as an integer."""
    pair = _read_ratio(token) if token.isdigit() else None
    if pair is None:
        raise ParseError(message, line=line, column=column, token=token)
    return pair[0]


def _read_text(path) -> str:
    """A file's text; bytes that are not UTF-8 are a parse error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_split_lines(data[:exc.start].decode("utf-8")))
        raise ParseError(f"{_cut(path)} is not UTF-8 text", line=line) from None


def _split_lines(text: str) -> List[str]:
    r"""The lines of a text, which end at ``\n``, ``\r\n`` or ``\r`` only
    (universal newlines).

    The other separators ``str.splitlines`` knows (``\x0b``, ``\x0c``,
    ``\x1c``-``\x1e``, ``\x85``, U+2028, U+2029) are whitespace inside a
    line, so a comment holding one of them does not spill onto a content line.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _effective_lines(
    lines: Iterator[Tuple[int, str]]
) -> Iterator[Tuple[int, List[str]]]:
    """(line number, tokens) for every line with content, comments stripped.

    Lines are split as they are read, so a loader holds the tokens of one
    line at a time, not of the whole file, while it builds its result.
    """
    for number, line in lines:
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield number, tokens


# ---------------------------------------------------------------------------
# .sfn
# ---------------------------------------------------------------------------


class SfnDocument:
    """A parsed step-function file: the function plus an optional partition."""

    def __init__(self, function: StepFunction, partition: Optional[Partition] = None):
        self.function = function
        self.partition = partition


def loads_sfn(text: str) -> SfnDocument:
    lines = _effective_lines(enumerate(_split_lines(text), start=1))
    number, tokens = next(lines, (None, None))
    if number is None:
        raise ParseError("empty step-function file", line=1)
    if tokens[0] != "total" or len(tokens) != 2:
        raise ParseError(
            "first line must be 'total <rational>|inf'",
            line=number,
            token=" ".join(tokens),
        )
    total = INF if tokens[1].lower() == "inf" else _parse_rational(tokens[1], number, 2)

    pieces = []
    atoms: Optional[List[Fraction]] = None
    tail: Optional[Tail] = None
    tail_line = None
    for number, tokens in lines:
        if len(tokens) == 2:
            # a level set, in lowest terms, as the integer core takes it
            value, mass = _read_ratio(tokens[0]), _read_ratio(tokens[1])
            if value and mass:
                pieces.append((value, mass))
                continue
        if tokens[0] == "partition":
            if atoms is not None:
                raise ParseError("second partition block", line=number)
            atoms = [
                _parse_rational(tok, number, col)
                for col, tok in enumerate(tokens[1:], start=2)
            ]
        elif tokens[0] == "tail":
            if tail is not None:
                raise ParseError("second tail line", line=number)
            if len(tokens) != 4 or tokens[2] != "x":
                raise ParseError(
                    "tail syntax is 'tail <mass> x <count|inf>'",
                    line=number,
                    token=" ".join(tokens),
                )
            mass = _parse_rational(tokens[1], number, 2)
            message = "tail count must be a nonnegative integer or inf"
            inf = tokens[3].lower() == "inf"
            count = None if inf else _parse_count(tokens[3], number, 4, message)
            tail = Tail(mass, count)
            tail_line = number
        else:
            if len(tokens) == 2:  # the first token that does not read
                column = 2 if value else 1
                raise ParseError(
                    _NOT_RATIONAL, line=number, column=column, token=tokens[column - 1]
                )
            raise ParseError(
                "expected '<value> <mass>', 'partition ...' or 'tail ...'",
                line=number,
                token=" ".join(tokens),
            )
    if tail is not None and atoms is None:
        raise ParseError("tail line without a partition line", line=tail_line)
    function = _canonical(pieces, total)
    partition = None
    if atoms is not None:
        if total is INF and tail is None and atoms:
            tail = Tail(atoms[-1], None)
        partition = Partition(atoms=tuple(atoms), total_measure=total, tail=tail)
    return SfnDocument(function, partition)


def dumps_sfn(
    function: StepFunction, partition: Optional[Partition] = None
) -> str:
    lines = [f"total {format_rational(function.total_measure)}"]
    for value, mass in function._levels:
        lines.append(f"{_format_ratio(*value)} {_format_ratio(*mass)}")
    if partition is not None:
        lines.append(" ".join(["partition", *map(format_rational, partition.atoms)]))
        if partition.tail is not None:
            count = "inf" if partition.tail.count is None else str(partition.tail.count)
            lines.append(f"tail {format_rational(partition.tail.mass)} x {count}")
    return "\n".join(lines) + "\n"


def load_sfn(path) -> SfnDocument:
    return loads_sfn(_read_text(path))


def dump_sfn(path, function: StepFunction, partition: Optional[Partition] = None) -> None:
    Path(path).write_text(dumps_sfn(function, partition))


# ---------------------------------------------------------------------------
# .mat
# ---------------------------------------------------------------------------


def loads_mat(text: str) -> OperatorMatrix:
    lines = _effective_lines(enumerate(_split_lines(text), start=1))
    number, tokens = next(lines, (None, None))
    if number is None:
        raise ParseError("empty matrix file", line=1)
    if len(tokens) != 2:
        raise ParseError(
            "first line must be 'rows cols'", line=number, token=" ".join(tokens)
        )
    message = "rows and cols must be nonnegative integers"
    rows, cols = (_parse_count(t, number, c, message) for c, t in enumerate(tokens, 1))
    if rows == 0 and cols > 0:
        raise ParseError("a matrix without rows has no columns", line=number)
    entries: List[Fraction] = []
    for number, tokens in lines:
        for column, token in enumerate(tokens, start=1):
            entries.append(_parse_rational(token, number, column))
    if len(entries) != rows * cols:
        # number is the last effective line
        raise ParseError(
            f"expected {_shown(rows * cols)} entries, found {len(entries)}", line=number
        )
    # rows sliced from the entry list, and tuples built from lists, not from
    # generators, as in extended._scale_ratios
    return OperatorMatrix(
        tuple([tuple(entries[r * cols:(r + 1) * cols]) for r in range(rows)])
    )


def dumps_mat(matrix: OperatorMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        lines.append(" ".join(format_rational(e) for e in row))
    return "\n".join(lines) + "\n"


def load_mat(path) -> OperatorMatrix:
    return loads_mat(_read_text(path))


def dump_mat(path, matrix: OperatorMatrix) -> None:
    Path(path).write_text(dumps_mat(matrix))

"""Text formats for step functions (.sfn) and operator matrices (.mat).

A step-function file starts with ``total <rational>|inf``, followed by one
``<value> <mass>`` line per level set in any order (the loader
canonicalizes). An optional alignment block gives a partition of the same
space: ``partition <mass> ...`` (zero or more masses) and, when needed,
``tail <mass> x <count|inf>``. ``#`` starts a comment anywhere; rationals
are written ``p/q`` or as plain integers, never as decimals.

A matrix file is ``rows cols`` on the first effective line followed by
row-major entries separated by arbitrary whitespace.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import InvalidRationalError, ParseError
from .extended import INF, ExtendedRational, Infinity, as_fraction
from .operators import OperatorMatrix, Partition, Tail
from .stepfn import StepFunction, canonicalize


def format_rational(x) -> str:
    """Serialize exactly: integers bare, otherwise p/q; never decimals."""
    if isinstance(x, Infinity):
        return "inf"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _parse_rational(token: str, line: int, column: int) -> Fraction:
    try:
        return as_fraction(token)
    except InvalidRationalError:
        raise ParseError(
            "expected a rational p/q or integer", line=line, column=column, token=token
        ) from None


_COUNT = re.compile("[0-9]+")


def _parse_count(token: str, line: int, column: int, message: str) -> int:
    """A nonnegative integer written in ASCII digits only (no sign, no '_')."""
    if _COUNT.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(message, line=line, column=column, token=token)


def _effective_lines(text: str) -> List[Tuple[int, List[str]]]:
    """(line number, tokens) for every line with content, comments stripped."""
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((number, body.split()))
    return out


# ---------------------------------------------------------------------------
# .sfn
# ---------------------------------------------------------------------------


class SfnDocument:
    """A parsed step-function file: the function plus an optional partition."""

    def __init__(self, function: StepFunction, partition: Optional[Partition] = None):
        self.function = function
        self.partition = partition


def loads_sfn(text: str) -> SfnDocument:
    lines = _effective_lines(text)
    if not lines:
        raise ParseError("empty step-function file", line=1)
    number, tokens = lines[0]
    if tokens[0] != "total" or len(tokens) != 2:
        raise ParseError(
            "first line must be 'total <rational>|inf'",
            line=number,
            token=" ".join(tokens),
        )
    total: ExtendedRational
    if tokens[1].lower() == "inf":
        total = INF
    else:
        total = _parse_rational(tokens[1], number, 2)

    pieces = []
    atoms: Optional[List[Fraction]] = None
    tail: Optional[Tail] = None
    tail_line = None
    for number, tokens in lines[1:]:
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
            count = None
            if tokens[3].lower() != "inf":
                message = "tail count must be a nonnegative integer or inf"
                count = _parse_count(tokens[3], number, 4, message)
            tail = Tail(mass, count)
            tail_line = number
        elif len(tokens) == 2:
            value = _parse_rational(tokens[0], number, 1)
            mass = _parse_rational(tokens[1], number, 2)
            pieces.append((value, mass))
        else:
            raise ParseError(
                "expected '<value> <mass>', 'partition ...' or 'tail ...'",
                line=number,
                token=" ".join(tokens),
            )
    if tail is not None and atoms is None:
        raise ParseError("tail line without a partition line", line=tail_line)
    function = canonicalize(pieces, total)
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
    for piece in function.pieces:
        lines.append(f"{format_rational(piece.value)} {format_rational(piece.mass)}")
    if partition is not None:
        lines.append("partition " + " ".join(format_rational(a) for a in partition.atoms))
        if partition.tail is not None:
            count = "inf" if partition.tail.count is None else str(partition.tail.count)
            lines.append(f"tail {format_rational(partition.tail.mass)} x {count}")
    return "\n".join(lines) + "\n"


def load_sfn(path) -> SfnDocument:
    return loads_sfn(Path(path).read_text())


def dump_sfn(path, function: StepFunction, partition: Optional[Partition] = None) -> None:
    Path(path).write_text(dumps_sfn(function, partition))


# ---------------------------------------------------------------------------
# .mat
# ---------------------------------------------------------------------------


def loads_mat(text: str) -> OperatorMatrix:
    lines = _effective_lines(text)
    if not lines:
        raise ParseError("empty matrix file", line=1)
    number, tokens = lines[0]
    if len(tokens) != 2:
        raise ParseError(
            "first line must be 'rows cols'", line=number, token=" ".join(tokens)
        )
    message = "rows and cols must be nonnegative integers"
    rows = _parse_count(tokens[0], number, 1, message)
    cols = _parse_count(tokens[1], number, 2, message)
    if rows == 0 and cols > 0:
        raise ParseError("a matrix without rows has no columns", line=number)
    entries: List[Fraction] = []
    for number, tokens in lines[1:]:
        for column, token in enumerate(tokens, start=1):
            entries.append(_parse_rational(token, number, column))
    if len(entries) != rows * cols:
        raise ParseError(
            f"expected {rows * cols} entries, found {len(entries)}",
            line=lines[-1][0],
        )
    grid = tuple(
        tuple(entries[r * cols + c] for c in range(cols)) for r in range(rows)
    )
    return OperatorMatrix(grid)


def dumps_mat(matrix: OperatorMatrix) -> str:
    lines = [f"{matrix.rows} {matrix.cols}"]
    for row in matrix.entries:
        lines.append(" ".join(format_rational(e) for e in row))
    return "\n".join(lines) + "\n"


def load_mat(path) -> OperatorMatrix:
    return loads_mat(Path(path).read_text())


def dump_mat(path, matrix: OperatorMatrix) -> None:
    Path(path).write_text(dumps_mat(matrix))

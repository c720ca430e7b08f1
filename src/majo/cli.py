"""Command-line front end.

Exit codes: 0 success (relation holds / command completed), 1 the checked
relation fails, 2 malformed input or violated precondition, 3 internal
inconsistency (equivalent criteria disagreed, or a witness chain does not
carry g onto f, which is a bug). JSON reports
use stable key order and serialize every rational as 'p/q', so identical
inputs and seed produce byte-identical output; timings are emitted only on
request because they would break that.

Output: every handler ends in one call to ``_emit``, which builds only what
it writes: the ``--output`` text, then the JSON report under ``--json`` or
the text otherwise. It builds both before it writes either, ``--output``
first. A number too long to write exits 2 naming its target ("cannot write
<path | standard output>: ..."), and no file is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .diagnostics import _require_comparable, equi_modulus
from .errors import (
    InternalInconsistencyError,
    MajoError,
    NotMajorizedError,
    RationalTooLongError,
)
from .extended import INF, Infinity, _shown, as_fraction, fraction_gcd
from .formats import dumps_mat, dumps_sfn, format_rational, load_mat, load_sfn
from .kernels import kernel_classify, matrix_to_kernel
from .majorize import (
    MajorizationVerdict,
    cross_check,
    hinge_criterion,
    majorize,
    tail_distribution_criterion,
    weak_majorize,
)
from .operators import (
    Partition,
    classify_matrix,
    ds_witness,
    lift,
    lift_apply,
    sequence_apply,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

# the names of selftest.SUITE, for `selftest --only`: the parser lists them
# without importing selftest, so no other command loads it or sampling
_BATTERIES = (
    "equivalence",
    "fixtures",
    "sds-majorization",
    "witness",
    "partition-ops",
    "equi-bound",
    "markov-norm",
    "grid-oracle",
)


def _jsonable(value):
    if isinstance(value, (Fraction, Infinity)):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


@contextmanager
def _writing(target: str):
    """Name ``target`` in the error of a number too long to write into it."""
    try:
        yield
    except RationalTooLongError as exc:
        raise RationalTooLongError(f"cannot write {target}: {exc}") from None


def _emit(args, code: int, text, report, written=None) -> int:
    """Write ``written()``, or ``text()`` when it is None, to ``--output``,
    then print ``report()`` (the JSON report past its "command" key) under
    ``--json`` or ``text()``; return ``code``."""
    output = getattr(args, "output", None)
    if output:
        with _writing(output):
            body = (written or text)()
    with _writing("standard output"):
        if args.json:
            whole = {"command": args.command, **report()}
            shown = json.dumps(_jsonable(whole), indent=2) + "\n"
        else:
            shown = body if output and written is None else text()
    if output:
        Path(output).write_text(body)
    sys.stdout.write(shown)
    return code


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _checkpoint_dict(point) -> Optional[dict]:
    if point is None:
        return None
    return {
        "point": point.point,
        "left": point.left,
        "right": point.right,
        "relation": point.relation.value,
    }


def _verdict_dict(verdict: MajorizationVerdict) -> dict:
    return {
        "criterion": verdict.criterion.value,
        "holds": verdict.holds,
        "weak": verdict.weak,
        "violation": _checkpoint_dict(verdict.violation),
        "checked": [_checkpoint_dict(p) for p in verdict.checked],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rearrange(args) -> int:
    rearranged = load_sfn(args.function).function.rearrangement()
    # only the JSON report reads the level sets as Fractions
    return _emit(args, EXIT_HOLDS, lambda: dumps_sfn(rearranged), lambda: {
        "input": args.function,
        "pieces": [[p.value, p.mass] for p in rearranged.pieces],
        "total": rearranged.total_measure,
        "output": args.output,
    })


def _rearrangement(f, g, *, weak: bool) -> MajorizationVerdict:
    return weak_majorize(f, g) if weak else majorize(f, g)


_CRITERIA = {
    "rearr": _rearrangement,
    "hinge": hinge_criterion,
    "tail": tail_distribution_criterion,
}


def cmd_check(args) -> int:
    f = load_sfn(args.f).function
    g = load_sfn(args.g).function
    start = time.monotonic()
    if args.criterion == "all":
        verdicts, agreement = list(cross_check(f, g, weak=args.weak).verdicts), True
    else:
        verdicts, agreement = [_CRITERIA[args.criterion](f, g, weak=args.weak)], None
    holds = verdicts[0].holds

    # the pair's scaling is cached, so the reverse verdict reuses it
    reverse_holds = None if holds else _rearrangement(g, f, weak=args.weak).holds
    if holds:
        summary = f"f is {'weakly ' if args.weak else ''}majorized by g"
    elif reverse_holds:
        summary = "not majorized (the reverse direction holds)"
    else:
        summary = "incomparable: both directions fail"

    def text():
        lines = []
        for v in verdicts:
            mark = "holds" if v.holds else f"fails at {_point_str(v.violation)}"
            lines.append(f"{v.criterion.value}: {mark}")
        if agreement is not None:
            lines.append("cross-check: all criteria agree")
        return _lines([*lines, summary])

    def report():
        # reading every checkpoint runs each criterion's sweep again, in
        # full, on Fractions
        first_violation = next((v.violation for v in verdicts if v.violation), None)
        return {
            "inputs": {"f": args.f, "g": args.g},
            "weak": args.weak,
            "verdicts": {v.criterion.value: _verdict_dict(v) for v in verdicts},
            "certificate": _checkpoint_dict(first_violation),
            "agreement": agreement,
            "reverse_holds": reverse_holds,
            "summary": summary,
            "witness_path": None,
            "timings": {"total_s": round(time.monotonic() - start, 6)}
            if args.timings
            else None,
        }

    return _emit(args, EXIT_HOLDS if holds else EXIT_FAILS, text, report)


def _point_str(violation) -> str:
    """The violation as text; a number past the digit limit is written by
    its size in bits, so printing never decides the exit code."""
    op = "!=" if violation.relation.value == "==" else ">"
    return (
        f"{_shown(violation.point)} "
        f"({_shown(violation.left)} {op} {_shown(violation.right)})"
    )


def cmd_witness(args) -> int:
    f = load_sfn(args.f).function
    g = load_sfn(args.g).function
    chain = ds_witness(f, g)
    # a pass independent of the scan backs the chain before anything is
    # printed or written
    if chain.apply_to(g) != f:
        raise InternalInconsistencyError("the witness chain does not carry g onto f")
    partition = chain.source_partition
    atoms = f"{chain.dimension} level-set atom(s)" if chain.dimension else "no atoms"
    dimension = atom_mass = None
    if args.output:
        # the grid refuses a matrix over the atom budget before any output
        grid = chain.grid
        dimension = grid.size
        atom_mass = grid.atoms[0] if grid.atoms else None

    def text():
        lines = [f"chain of {len(chain.steps)} T-transform(s) on {atoms}"]
        if args.output:
            on = f" on atoms of mass {format_rational(atom_mass)}" if atom_mass else ""
            wrote = f"wrote {dimension}x{dimension} doubly stochastic witness{on}"
            lines.insert(0, f"{wrote} to {args.output}")
        return _lines(lines)

    return _emit(args, EXIT_HOLDS, text, lambda: {
        "inputs": {"f": args.f, "g": args.g},
        "witness_path": args.output,
        "steps": [[s.j, s.k, s.weight] for s in chain.steps],
        "partition": list(partition.atoms),
        "dimension": dimension,
        "atom_mass": atom_mass,
        "total": partition.total_measure,
    }, written=lambda: dumps_mat(chain.product))


def cmd_classify(args) -> int:
    matrix = load_mat(args.matrix)
    cls = classify_matrix(matrix)
    return _emit(args, EXIT_HOLDS, lambda: _lines([cls.label]), lambda: {
        "input": args.matrix,
        "class": cls.label,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "column_sums": list(matrix.column_sums()),
        "row_sums": list(matrix.row_sums()),
    })


def _load_partition(path) -> Partition:
    doc = load_sfn(path)
    if doc.partition is None:
        raise MajoError(f"{path} carries no partition block")
    return doc.partition


def cmd_lift(args) -> int:
    partition = _load_partition(args.partition)
    matrix = load_mat(args.matrix)
    lifted = lift(partition, matrix)
    return _emit(args, EXIT_HOLDS, lambda: dumps_mat(lifted), lambda: {
        "partition": args.partition,
        "matrix": args.matrix,
        "entries": [list(row) for row in lifted.entries],
        "output": args.output,
    })


def cmd_kernel(args) -> int:
    partition = _load_partition(args.partition)
    matrix = load_mat(args.matrix)
    kernel = matrix_to_kernel(partition, matrix)
    cls = kernel_classify(kernel)
    values = kernel.values

    def text():
        rows = (" ".join(format_rational(v) for v in row) for row in values)
        return _lines([f"kernel classifies {cls.label}", *rows])

    # only the report reads the marginals again
    return _emit(args, EXIT_HOLDS, text, lambda: {
        "partition": args.partition,
        "matrix": args.matrix,
        "class": cls.label,
        "values": [list(row) for row in values],
        "column_integrals": list(kernel.column_integrals()),
        "row_integrals": list(kernel.row_integrals()),
    })


def cmd_apply(args) -> int:
    matrix = load_mat(args.matrix)
    doc = load_sfn(args.function)
    f, partition = doc.function, doc.partition
    if partition is not None and args.atom_mass is None and (
        partition.size == matrix.cols == matrix.rows
    ):
        # a square matrix on the file's own partition
        result = lift_apply(partition, matrix, f).step_function()
    else:
        # equal-mass atoms, rectangular matrices allowed
        if args.atom_mass is not None:
            mass = as_fraction(args.atom_mass)
        elif partition is not None and partition.equal_masses and partition.atoms:
            mass = partition.atoms[0]
        elif f.total_measure is not INF:
            mass = _tiling_mass(f, matrix)
        else:
            raise MajoError(
                "an infinite-measure function needs a partition block or "
                "--atom-mass to fix the alignment"
            )
        result, partition = sequence_apply(matrix, f, mass)
    return _emit(args, EXIT_HOLDS, lambda: dumps_sfn(result, partition), lambda: {
        "matrix": args.matrix,
        "function": args.function,
        "pieces": [[p.value, p.mass] for p in result.pieces],
        "total": result.total_measure,
        "output": args.output,
    })


def _tiling_mass(f, matrix) -> Fraction:
    """The atom mass whose ``matrix.cols`` atoms would tile a finite space."""
    return f.total_measure / max(matrix.cols, 1)


def _parse_delta_grid(pattern: str):
    pattern = pattern.strip()
    if ".." in pattern:
        lo, hi = pattern.split("..", 1)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()

        def power(tok: str) -> int:
            tok = tok.strip()
            if tok.startswith("2^"):
                try:
                    k = int(tok[2:])
                except ValueError:
                    pass
                else:
                    # 2^|k| has floor(|k| log10 2) + 1 digits; refused before
                    # a grid that grows quadratically in bits is built
                    if limit and abs(k) * Fraction(math.log10(2)) >= limit:
                        raise RationalTooLongError(
                            f"the delta grid bound {tok[:40]!r} needs an integer "
                            f"of more than {limit} digits, Python's limit for "
                            "writing one"
                        )
                    return k
            raise MajoError(f"delta grid bounds look like 2^-3, got {tok!r}")

        a, b = power(lo), power(hi)
        step = -1 if a > b else 1
        return [Fraction(2) ** k for k in range(a, b + step, step)]
    deltas = [as_fraction(tok) for tok in pattern.split(",") if tok.strip()]
    if not deltas:
        raise MajoError(f"delta grid {pattern!r} lists no deltas")
    return deltas


def cmd_equi(args) -> int:
    f = load_sfn(args.function).function
    deltas = _parse_delta_grid(args.delta_grid)
    ops_dir = Path(args.ops)
    matrices = sorted(ops_dir.glob("*.mat"))
    if not matrices:
        raise MajoError(f"no .mat files under {ops_dir}")
    infinite = f.total_measure is INF
    if infinite:
        # the coarsest grid that refines every level set
        unit = fraction_gcd([p.mass for p in f.pieces]) if f.pieces else Fraction(1)
    family = []
    names = []
    for path in matrices:
        try:
            matrix = load_mat(path)
            mass = unit if infinite else _tiling_mass(f, matrix)
            image = sequence_apply(matrix, f, mass)[0]
            _require_comparable(image, f)
        except MajoError as exc:
            raise MajoError(f"{path.name}: {exc}") from None
        family.append(image)
        names.append(path.name)

    def row(delta) -> dict:
        report = equi_modulus(family, delta, f)
        return {
            "delta": report.delta,
            "modulus": report.modulus,
            "bound": report.bound,
            "within_bound": report.within_bound,
        }

    # the row of the longest delta first: an entry with more digits than
    # Python writes then fails before the shorter rows are computed
    bits = [max(d.numerator.bit_length(), d.denominator.bit_length()) for d in deltas]
    longest = bits.index(max(bits))
    first = row(deltas[longest])
    with _writing("standard output"):
        for key in ("delta", "modulus", "bound"):
            format_rational(first[key])
    rows = [first if i == longest else row(d) for i, d in enumerate(deltas)]

    def text():
        return _lines([f"{'delta':>12} {'modulus':>12} {'bound':>12}  ok", *(
            f"{format_rational(r['delta']):>12} "
            f"{format_rational(r['modulus']):>12} "
            f"{format_rational(r['bound']):>12}  "
            f"{'yes' if r['within_bound'] else 'NO'}"
            for r in rows
        )])

    code = EXIT_HOLDS if all(r["within_bound"] for r in rows) else EXIT_FAILS
    return _emit(args, code, text, lambda: {
        "function": args.function,
        "operators": names,
        "family_size": len(family),
        "rows": rows,
    })


def cmd_selftest(args) -> int:
    from . import selftest

    outcomes = selftest.run_all(args.seed, only=args.only or None)
    passed = sum(o.passed for o in outcomes)

    def text():
        lines = [o.line() for o in outcomes]
        for o in outcomes:
            lines.extend(f"    {msg}" for msg in o.failures)
        lines.append(f"{passed}/{len(outcomes)} criteria passed (seed {args.seed})")
        return _lines(lines)

    code = EXIT_HOLDS if passed == len(outcomes) else EXIT_FAILS
    return _emit(args, code, text, lambda: {
        "seed": args.seed,
        "passed": passed,
        "failed": len(outcomes) - passed,
        "outcomes": [
            {
                "name": o.name,
                "passed": o.passed,
                "cases": o.cases,
                "note": o.note,
                "failures": o.failures,
            }
            for o in outcomes
        ],
    })


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majo",
        description=(
            "Decide and certify majorization between exact step functions, "
            "classify and construct stochastic operators, and run the "
            "randomized invariant suite."
        ),
        epilog=(
            "Formats: .sfn starts with 'total <rational>|inf', then one "
            "'<value> <mass>' line per level set, optionally 'partition "
            "<mass> ...' and 'tail <mass> x <count|inf>'; '#' comments. "
            ".mat is 'rows cols' then row-major rational entries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rearrange", help="canonical decreasing rearrangement")
    p.add_argument("function", help=".sfn file")
    p.add_argument("-o", "--output", help="write the result here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_rearrange)

    p = sub.add_parser("check", help="decide whether f is majorized by g")
    p.add_argument("f", help=".sfn file")
    p.add_argument("g", help=".sfn file")
    p.add_argument(
        "--criterion", choices=("rearr", "hinge", "tail", "all"), default="all"
    )
    p.add_argument("--weak", action="store_true", help="drop the equality clause")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true", help="include timings in JSON")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("witness", help="doubly stochastic witness for f < g")
    p.add_argument("f", help=".sfn file")
    p.add_argument("g", help=".sfn file")
    p.add_argument(
        "-o", "--output", help="write the witness .mat on its equal-mass grid here"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("classify", help="Markov / semi-doubly / doubly stochastic")
    p.add_argument("matrix", help=".mat file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("lift", help="value-basis matrix on a partition")
    p.add_argument("partition", help=".sfn file with a partition block")
    p.add_argument("matrix", help=".mat file")
    p.add_argument("-o", "--output", help="write the lifted .mat here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_lift)

    p = sub.add_parser("kernel", help="piecewise-constant kernel of a matrix")
    p.add_argument("partition", help=".sfn file with a partition block")
    p.add_argument("matrix", help=".mat file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("apply", help="apply a matrix to a step function")
    p.add_argument("matrix", help=".mat file")
    p.add_argument("function", help=".sfn file")
    p.add_argument(
        "--atom-mass",
        help="alignment atom mass when the .sfn has no partition block",
    )
    p.add_argument("-o", "--output", help="write the image .sfn here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_apply)

    p = sub.add_parser("equi", help="equi-integrability report for operator images")
    p.add_argument("function", help=".sfn file")
    p.add_argument("--ops", required=True, help="directory of .mat operators")
    p.add_argument(
        "--delta-grid",
        default="2^-1..2^-8",
        help="'2^-1..2^-8' or a comma-separated list of rationals",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_equi)

    p = sub.add_parser("selftest", help="run the randomized invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--only",
        action="append",
        choices=_BATTERIES,
        help="run a single battery (repeatable)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except NotMajorizedError as exc:
        print(f"not majorized: {exc}", file=sys.stderr)
        return EXIT_FAILS
    except (MajoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        # an input too large for the memory at hand, not a failed relation
        print(f"error: majo {args.command} ran out of memory", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success (relation holds / command completed), 1 the checked
relation fails, 2 malformed input or violated precondition, 3 internal
inconsistency (equivalent criteria disagreed, which is a bug). JSON reports
use stable key order and serialize every rational as 'p/q', so identical
inputs and seed produce byte-identical output; timings are emitted only on
request because they would break that.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import selftest
from .diagnostics import _require_comparable, equi_modulus
from .errors import (
    InternalInconsistencyError,
    MajoError,
    NotMajorizedError,
    RationalTooLongError,
)
from .extended import INF, Infinity, as_fraction, fraction_gcd
from .formats import (
    dump_mat,
    dumps_mat,
    dumps_sfn,
    format_rational,
    load_mat,
    load_sfn,
)
from .kernels import kernel_classify, matrix_to_kernel
from .majorize import Criterion, MajorizationVerdict, _cross_check, _decide, _scaled
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


def _jsonable(value):
    if isinstance(value, (Fraction, Infinity)):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(report: Optional[dict], as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(_jsonable(report), indent=2))
    else:
        for line in lines:
            print(line)


def _emit_text(args, report: dict, text: str) -> int:
    """Write ``text`` to ``--output`` when given, then print the report or it."""
    if args.output:
        Path(args.output).write_text(text)
    _emit(report, args.json, text.splitlines())
    return EXIT_HOLDS


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
    doc = load_sfn(args.function)
    rearranged = doc.function.rearrangement()
    # only the JSON report reads the level sets as Fractions
    report = {
        "command": "rearrange",
        "input": args.function,
        "pieces": [[p.value, p.mass] for p in rearranged.pieces],
        "total": rearranged.total_measure,
        "output": args.output,
    } if args.json else None
    return _emit_text(args, report, dumps_sfn(rearranged))


_CRITERIA = {
    "rearr": Criterion.REARRANGEMENT,
    "hinge": Criterion.HINGE,
    "tail": Criterion.TAIL_DISTRIBUTION,
}


def cmd_check(args) -> int:
    f = load_sfn(args.f).function
    g = load_sfn(args.g).function
    start = time.monotonic()
    # scaled once: the reverse verdict takes the halves swapped
    mass_scale, value_scale, f_levels, g_levels = scaled = _scaled(f, g)
    if args.criterion == "all":
        report_obj = _cross_check(args.weak, f, g, scaled)
        verdicts = list(report_obj.verdicts)
        holds = report_obj.holds
        agreement = True
    else:
        verdict = _decide(_CRITERIA[args.criterion], args.weak, f, g, scaled)
        verdicts = [verdict]
        holds = verdict.holds
        agreement = None

    reverse_holds = None
    if holds:
        relation = "weakly majorized" if args.weak else "majorized"
        summary = f"f is {relation} by g"
    else:
        swapped = (mass_scale, value_scale, g_levels, f_levels)
        reverse_holds = _decide(Criterion.REARRANGEMENT, args.weak, g, f, swapped).holds
        if reverse_holds:
            summary = "not majorized (the reverse direction holds)"
        else:
            summary = "incomparable: both directions fail"

    # only the JSON report reads every checkpoint; building them runs each
    # criterion's sweep again, in full, on Fractions
    report = None
    if args.json:
        first_violation = next((v.violation for v in verdicts if v.violation), None)
        report = {
            "command": "check",
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
    lines = []
    for v in verdicts:
        mark = "holds" if v.holds else f"fails at {_point_str(v.violation)}"
        lines.append(f"{v.criterion.value}: {mark}")
    if agreement is not None:
        lines.append("cross-check: all criteria agree")
    lines.append(summary)
    _emit(report, args.json, lines)
    return EXIT_HOLDS if holds else EXIT_FAILS


def _point_str(violation) -> str:
    op = "!=" if violation.relation.value == "==" else ">"
    return (
        f"{format_rational(violation.point)} "
        f"({format_rational(violation.left)} {op} {format_rational(violation.right)})"
    )


def cmd_witness(args) -> int:
    f = load_sfn(args.f).function
    g = load_sfn(args.g).function
    chain = ds_witness(f, g)
    partition = chain.source_partition
    atoms = f"{chain.dimension} level-set atom(s)" if chain.dimension else "no atoms"
    lines = [f"chain of {len(chain.steps)} T-transform(s) on {atoms}"]
    dimension = atom_mass = None
    if args.output:
        grid = chain.grid
        dump_mat(args.output, chain.product)
        dimension = grid.size
        atom_mass = grid.atoms[0] if grid.atoms else None
        on = f" on atoms of mass {format_rational(atom_mass)}" if atom_mass else ""
        lines.insert(
            0,
            f"wrote {dimension}x{dimension} doubly stochastic witness{on} "
            f"to {args.output}",
        )
    report = {
        "command": "witness",
        "inputs": {"f": args.f, "g": args.g},
        "witness_path": args.output,
        "steps": [[s.j, s.k, s.weight] for s in chain.steps],
        "partition": list(partition.atoms),
        "dimension": dimension,
        "atom_mass": atom_mass,
        "total": partition.total_measure,
    }
    _emit(report, args.json, lines)
    return EXIT_HOLDS


def cmd_classify(args) -> int:
    matrix = load_mat(args.matrix)
    cls = classify_matrix(matrix)
    report = {
        "command": "classify",
        "input": args.matrix,
        "class": cls.label,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "column_sums": list(matrix.column_sums()),
        "row_sums": list(matrix.row_sums()),
    }
    _emit(report, args.json, [cls.label])
    return EXIT_HOLDS


def _load_partition(path) -> Partition:
    doc = load_sfn(path)
    if doc.partition is None:
        raise MajoError(f"{path} carries no partition block")
    return doc.partition


def cmd_lift(args) -> int:
    partition = _load_partition(args.partition)
    matrix = load_mat(args.matrix)
    lifted = lift(partition, matrix)
    report = {
        "command": "lift",
        "partition": args.partition,
        "matrix": args.matrix,
        "entries": [list(row) for row in lifted.entries],
        "output": args.output,
    }
    return _emit_text(args, report, dumps_mat(lifted))


def cmd_kernel(args) -> int:
    partition = _load_partition(args.partition)
    matrix = load_mat(args.matrix)
    kernel = matrix_to_kernel(partition, matrix)
    cls = kernel_classify(kernel)
    report = {
        "command": "kernel",
        "partition": args.partition,
        "matrix": args.matrix,
        "class": cls.label,
        "values": [list(row) for row in kernel.values],
        "column_integrals": list(kernel.column_integrals()),
        "row_integrals": list(kernel.row_integrals()),
    }
    lines = [f"kernel classifies {cls.label}"]
    for row in kernel.values:
        lines.append(" ".join(format_rational(v) for v in row))
    _emit(report, args.json, lines)
    return EXIT_HOLDS


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
    report = {
        "command": "apply",
        "matrix": args.matrix,
        "function": args.function,
        "pieces": [[p.value, p.mass] for p in result.pieces],
        "total": result.total_measure,
        "output": args.output,
    }
    return _emit_text(args, report, dumps_sfn(result, partition))


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
    doc = load_sfn(args.function)
    f = doc.function
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
    for key in ("delta", "modulus", "bound"):
        format_rational(first[key])
    rows = [first if i == longest else row(d) for i, d in enumerate(deltas)]
    all_within = all(r["within_bound"] for r in rows)
    report = {
        "command": "equi",
        "function": args.function,
        "operators": names,
        "family_size": len(family),
        "rows": rows,
    }
    lines = [f"{'delta':>12} {'modulus':>12} {'bound':>12}  ok"]
    for row in rows:
        lines.append(
            f"{format_rational(row['delta']):>12} "
            f"{format_rational(row['modulus']):>12} "
            f"{format_rational(row['bound']):>12}  "
            f"{'yes' if row['within_bound'] else 'NO'}"
        )
    _emit(report, args.json, lines)
    return EXIT_HOLDS if all_within else EXIT_FAILS


def cmd_selftest(args) -> int:
    outcomes = selftest.run_all(args.seed, only=args.only or None)
    passed = sum(o.passed for o in outcomes)
    report = {
        "command": "selftest",
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
    }
    lines = [o.line() for o in outcomes]
    for o in outcomes:
        lines.extend(f"    {msg}" for msg in o.failures)
    lines.append(f"{passed}/{len(outcomes)} criteria passed (seed {args.seed})")
    _emit(report, args.json, lines)
    return EXIT_HOLDS if passed == len(outcomes) else EXIT_FAILS


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
        choices=[name for name, _ in selftest.SUITE],
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


if __name__ == "__main__":
    sys.exit(main())

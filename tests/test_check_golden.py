"""`majo check --json` stays byte-identical to recorded reports.

``tests/golden/check_json.json`` maps the arguments after ``check`` to the
exit code and standard output the ``Fraction`` implementation of the
criterion sweeps gave, run from ``tests/golden`` so that the reports name
the inputs by relative path. The pairs: a finite space, an infinite space,
and level sets with 4-digit prime denominators in both directions, under
every criterion, weak and strict. Re-record only for an intended change of
the report.
"""

import json
from pathlib import Path

import pytest

from majo.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = json.loads((GOLDEN / "check_json.json").read_text())


def test_cases_cover_every_pair_criterion_and_mode():
    pairs = {"finite_f.sfn finite_g.sfn", "infinite_f.sfn infinite_g.sfn",
             "primes_f.sfn primes_g.sfn", "primes_g.sfn primes_f.sfn"}
    assert set(EXPECTED) == {
        f"{pair} --criterion {criterion} --json{weak}"
        for pair in pairs
        for criterion in ("all", "rearr", "hinge", "tail")
        for weak in ("", " --weak")
    }
    assert {case["exit"] for case in EXPECTED.values()} == {0, 1}


@pytest.mark.parametrize("arguments", sorted(EXPECTED))
def test_report_is_byte_identical(arguments, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    code = main(["check", *arguments.split()])
    assert (code, capsys.readouterr().out) == (
        EXPECTED[arguments]["exit"],
        EXPECTED[arguments]["stdout"],
    )

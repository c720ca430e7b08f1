"""Every `majo` subcommand stays byte-identical to recorded runs.

``tests/golden/cli_outputs.json`` maps each command line of ``CASES``, run
from a copy of ``tests/golden`` so that reports name the inputs by relative
path, to its exit code, standard output, standard error and the text of its
``-o`` file (null when none is written). Every subcommand but ``selftest``
is here in text and ``--json``, with an exit-1 and an exit-2 case for each
command that has them (``equi`` has no exit 1 on operators it accepts, and
``--timings`` prints times, so neither appears). ``check --json`` has its own
golden file. Re-record with ``PYTHONPATH=src python tests/test_cli_golden.py``
only for an intended change of an output.
"""

import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from majo import cli
from majo.cli import main
from majo.operators import OperatorMatrix

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "cli_outputs.json"

_BOTH = ("", " --json")
CASES = [
    *(f"rearrange {args}{mode}" for args in (
        "finite_f.sfn", "part.sfn", "infinite_g.sfn -o out.sfn",
        "missing.sfn", "mix.mat",
    ) for mode in _BOTH),
    *(f"check {args}" for args in (
        "primes_f.sfn primes_g.sfn", "finite_f.sfn finite_g.sfn",
        "primes_g.sfn primes_f.sfn", "flat.sfn peak.sfn --criterion hinge",
        "peak.sfn flat.sfn --weak --criterion tail", "flat.sfn missing.sfn",
        "flat.sfn missing.sfn --json",
    )),
    *(f"witness {args}{mode}" for args in (
        "flat.sfn peak.sfn", "flat.sfn peak.sfn -o W.mat",
        "primes_f.sfn primes_g.sfn", "primes_f.sfn primes_g.sfn -o W.mat",
        "finite_f.sfn finite_g.sfn", "peak.sfn flat.sfn -o W.mat",
        "missing.sfn peak.sfn",
    ) for mode in _BOTH),
    *(f"classify {args}{mode}" for args in (
        "mix.mat", "shift.mat", "markov.mat", "swap.mat", "signed.mat", "part.sfn",
    ) for mode in _BOTH),
    *(f"lift {args}{mode}" for args in (
        "part.sfn swap.mat", "part.sfn mix.mat -o lifted.mat",
        "part.sfn markov.mat", "finite_f.sfn mix.mat",
    ) for mode in _BOTH),
    *(f"kernel {args}{mode}" for args in (
        "part.sfn mix.mat", "halves.sfn swap.mat", "halves.sfn shift.mat",
        "finite_f.sfn mix.mat",
    ) for mode in _BOTH),
    *(f"apply {args}{mode}" for args in (
        "mix.mat part.sfn", "mix.mat part.sfn -o image.sfn",
        "shift.mat halves.sfn", "swap.mat peak.sfn",
        "mix.mat infinite_g.sfn --atom-mass 9/4", "mix.mat infinite_g.sfn",
        "markov.mat flat.sfn",
    ) for mode in _BOTH),
    *(f"equi {args}{mode}" for args in (
        "equi.sfn --ops ops", "equi.sfn --ops ops --delta-grid 2^-1..2^-4",
        "flat.sfn --ops ops --delta-grid 1,1/3,7", "infinite_f.sfn --ops ops",
        "equi.sfn --ops ops --delta-grid 2^x..2^-2", "equi.sfn --ops missing",
    ) for mode in _BOTH),
]


def _target(argv):
    return argv[argv.index("-o") + 1] if "-o" in argv else None


def run(command: str, where: Path) -> dict:
    """Run ``majo <command>`` in ``where`` and collect what it printed and wrote."""
    argv = command.split()
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    target = _target(argv)
    written = None
    if target is not None and (where / target).exists():
        written = (where / target).read_bytes().decode()
        (where / target).unlink()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "output": written}


@pytest.fixture
def golden_copy(tmp_path, monkeypatch):
    where = tmp_path / "golden"
    shutil.copytree(GOLDEN, where)
    monkeypatch.chdir(where)
    return where


def test_cases_cover_every_command_and_code():
    expected = json.loads(RECORD.read_text())
    assert list(expected) == CASES
    codes = {}
    for command, case in expected.items():
        codes.setdefault(command.split()[0], set()).add(case["exit"])
    assert codes == {
        "rearrange": {0, 2}, "check": {0, 1, 2}, "witness": {0, 1, 2},
        "classify": {0, 2}, "lift": {0, 2}, "kernel": {0, 2}, "apply": {0, 2},
        "equi": {0, 2},
    }


@pytest.mark.parametrize("command", CASES)
def test_output_is_byte_identical(command, golden_copy):
    expected = json.loads(RECORD.read_text())[command]
    assert run(command, golden_copy) == expected


def _refuse(*args, **kwargs):
    raise AssertionError("a text-mode command built its JSON report")


@pytest.mark.parametrize("command", [c for c in CASES if "--json" not in c.split()])
def test_text_mode_builds_no_report(command, golden_copy, monkeypatch):
    expected = json.loads(RECORD.read_text())[command]
    monkeypatch.setattr(cli, "_jsonable", _refuse)
    assert run(command, golden_copy) == expected


def test_classify_text_sums_the_columns_once(golden_copy, monkeypatch, capsys):
    calls = []
    column_sums = OperatorMatrix.column_sums

    def counted(self):
        calls.append(self)
        return column_sums(self)

    monkeypatch.setattr(OperatorMatrix, "column_sums", counted)
    assert main(["classify", "mix.mat"]) == 0
    assert capsys.readouterr().out == "doubly-stochastic\n"
    assert len(calls) == 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        where = Path(scratch) / "golden"
        shutil.copytree(GOLDEN, where)
        os.chdir(where)
        record = {command: run(command, where) for command in CASES}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")

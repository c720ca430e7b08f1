"""Command-line fuzzing: random argv for every subcommand over random file bytes.

Each example writes a small set of input files (valid documents, truncated
ones, ones with an undecodable byte, or random bytes) and runs
``majo.cli.main`` in process. Whatever the input, no exception may escape
``main``: it returns 0, 1 (only from a command that reports a verdict) or 2.
"""

from fractions import Fraction as F

import pytest

from majo.cli import main
from majo.formats import format_rational

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# small denominators keep every witness grid a few hundred atoms at most
RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4)))
MASSES = st.builds(F, st.integers(1, 4), st.sampled_from((1, 2, 3, 4)))

# existing files are drawn more often than missing ones
SFN_NAMES = ("f.sfn", "g.sfn", "p.sfn", "p.sfn", "missing.sfn")
MAT_NAMES = ("m.mat", "m.mat", "m.mat", "missing.mat")
OPS_DIRS = ("ops", "ops", "ops", "missing-ops")
# the cheapest selftest batteries; the full suite runs in tests/test_selftest.py
BATTERIES = ("fixtures", "markov-norm", "equi-bound")
VERDICT_COMMANDS = {"check", "witness", "equi", "selftest"}


def _text(*lines):
    return "\n".join(lines) + "\n"


@st.composite
def sfn_documents(draw, size, partition):
    """A step function, aligned with a partition of ``size`` atoms or not."""
    infinite = draw(st.booleans())
    values = RATIONALS.map(abs) if infinite else RATIONALS
    atoms = draw(st.lists(MASSES, min_size=size, max_size=size))
    if draw(st.booleans()):  # aligned with its partition block
        pieces = [(draw(values), a) for a in atoms]
    else:
        pieces = draw(st.lists(st.tuples(values, MASSES), max_size=4))
    support = sum((m for _, m in pieces), F(0))
    offset = draw(st.sampled_from((0, 0, 1, -1)))
    total = "inf" if infinite else format_rational(support + offset)
    lines = [f"total {total}"]
    lines += [f"{format_rational(v)} {format_rational(m)}" for v, m in pieces]
    if partition or draw(st.booleans()):
        lines.append("partition " + " ".join(map(format_rational, atoms)))
        if infinite and draw(st.booleans()):
            lines.append(f"tail {format_rational(draw(MASSES))} x inf")
    return _text(*lines)


@st.composite
def mat_documents(draw, size):
    n = draw(st.sampled_from((size, size, draw(st.integers(0, 3)))))
    kind = draw(st.sampled_from(("identity", "uniform", "random")))
    if kind == "identity":
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
    elif kind == "uniform":
        rows = [[F(1, n)] * n for _ in range(n)]
    else:
        cols = draw(st.integers(0, 3)) if n else 0
        rows = [[abs(draw(RATIONALS)) for _ in range(cols)] for _ in range(n)]
    cols = len(rows[0]) if rows else 0
    return _text(f"{n} {cols}", *(" ".join(map(format_rational, r)) for r in rows))


@st.composite
def file_bytes(draw, documents):
    """A valid document, a truncation of one, one with a bad byte, or noise."""
    data = draw(documents).encode()
    mode = draw(st.sampled_from(("valid",) * 4 + ("truncated", "non-utf8", "noise")))
    if mode == "truncated":
        return data[: draw(st.integers(0, len(data)))]
    if mode == "non-utf8":
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from((b"\xff", b"\x80", b"\xc3")))
        return data[:at] + bad + data[at:]
    if mode == "noise":
        return draw(st.binary(max_size=40))
    return data


def _flags(draw, *options):
    """Each option independently present or absent, in a drawn order."""
    chosen = [o for o in options if draw(st.booleans())]
    return [part for o in draw(st.permutations(chosen)) for part in o]


TEXT = st.text(alphabet="0123456789/-^.,abinf ", max_size=6)


@st.composite
def argvs(draw, command):
    sfn = lambda: draw(st.sampled_from(SFN_NAMES))  # noqa: E731
    mat = lambda: draw(st.sampled_from(MAT_NAMES))  # noqa: E731
    json_flag = ["--json"]
    if command == "rearrange":
        return [command, sfn(), *_flags(draw, json_flag, ["-o", "out.sfn"])]
    if command == "check":
        criteria = ("rearr", "hinge", "tail", "all")
        criterion = "--criterion=" + draw(st.sampled_from(criteria))
        flags = _flags(draw, json_flag, [criterion], ["--weak"], ["--timings"])
        return [command, sfn(), sfn(), *flags]
    if command == "witness":
        return [command, sfn(), sfn(), *_flags(draw, json_flag, ["-o", "w.mat"])]
    if command == "classify":
        return [command, mat(), *_flags(draw, json_flag)]
    if command == "lift":
        return [command, sfn(), mat(), *_flags(draw, json_flag, ["-o", "out.mat"])]
    if command == "kernel":
        return [command, sfn(), mat(), *_flags(draw, json_flag)]
    if command == "apply":
        masses = st.sampled_from(("1", "1/2", "2"))
        mass = "--atom-mass=" + draw(st.one_of(masses, TEXT))
        flags = _flags(draw, json_flag, [mass], ["-o", "out.sfn"])
        return [command, mat(), sfn(), *flags]
    if command == "equi":
        grids = st.sampled_from(("2^-1..2^-3", "1/2,1/4"))
        grid = "--delta-grid=" + draw(st.one_of(grids, TEXT))
        ops = "--ops=" + draw(st.sampled_from(OPS_DIRS))
        return [command, sfn(), ops, *_flags(draw, json_flag, [grid])]
    seed = f"--seed={draw(st.integers(0, 2**16))}"
    only = "--only=" + draw(st.sampled_from(BATTERIES))
    return [command, only, *_flags(draw, json_flag, [seed])]


COMMANDS = (
    "rearrange", "check", "witness", "classify", "lift", "kernel", "apply", "equi",
    "selftest",
)


@pytest.mark.parametrize("command", COMMANDS)
@hypothesis.settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(data=st.data())
def test_main_returns_an_exit_code_for_any_input(
    command, data, tmp_path, monkeypatch, capsys
):
    size = data.draw(st.integers(0, 3), label="size")
    files = {
        "f.sfn": sfn_documents(size, partition=False),
        "g.sfn": sfn_documents(size, partition=False),
        "p.sfn": sfn_documents(size, partition=True),
        "m.mat": mat_documents(size),
        "ops/a.mat": mat_documents(size),
    }
    (tmp_path / "ops").mkdir(exist_ok=True)
    for name, documents in files.items():
        (tmp_path / name).write_bytes(data.draw(file_bytes(documents), label=name))
    argv = data.draw(argvs(command), label="argv")
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    allowed = {0, 1, 2} if command in VERDICT_COMMANDS else {0, 2}
    assert code in allowed, (argv, err)
    assert "Traceback" not in err

"""The three workloads: seeded pools, the operation each runs, and its checks.

* ``decide``: one full ``majo check`` from .sfn text per operation. Nearly
  all the time goes to the criterion scans in ``majorize``/``stepfn``;
  ``operators`` is never entered.
* ``witness``: ``ds_witness`` plus ``apply_to`` per operation. The cost
  follows the gcd refinement dimension, not the number of level sets, and
  the criterion scan inside ``ds_witness`` is small at these sizes.
* ``cli-ops``: the ``majo`` command as a subprocess, as users run it. It
  exercises file parsing and writing, the ``cli`` glue, matrix operators,
  ``kernels`` and ``diagnostics``, and pays interpreter start, but runs no
  criterion scan and no witness.

``run`` is the timed call; ``check`` runs outside the timing and returns a
failure message or None.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Dict, List, Optional

import inputs

LAYERS = ("formats", "stepfn", "majorize", "operators", "kernels", "diagnostics", "cli")


class Library:
    """Freshly imported ``majo`` layer modules, looked up by attribute at call time."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "majo" or m.startswith("majo.")]:
            del sys.modules[name]
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"majo.{layer}"))
        if not Path(self.cli.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"imported majo from {self.cli.__file__}, not from {src}")
        self.src = src


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _partial(pieces, s) -> Fraction:
    """Integral of the decreasing layout over [0, s]; s None means the whole line."""
    acc = Fraction(0)
    for value, mass in pieces:
        take = mass if s is None else min(mass, s)
        acc += value * take
        if s is not None:
            s -= take
            if s <= 0:
                break
    return acc


def _hinge(pieces, u) -> Fraction:
    return sum(((v - u) * m for v, m in pieces if v > u), Fraction(0))


def _recheck(lib, point, f, g, hinge_like: bool) -> Optional[str]:
    """Re-evaluate a violation certificate directly on the generated pieces."""
    INF = lib.stepfn.INF
    if hinge_like:
        left, right = _hinge(f, point.point), _hinge(g, point.point)
    else:
        s = None if point.point is INF else point.point
        left, right = _partial(f, s), _partial(g, s)
    if (left, right) != (point.left, point.right):
        return f"certificate at {point.point} does not re-evaluate"
    holds = left == right if point.relation.value == "==" else left <= right
    return f"certificate at {point.point} is not a violation" if holds else None


class Decide:
    name = "decide"
    pool_size = 40
    trace_slice = 16
    warmup = 2
    # Runs in this process, like the host probe, so each run is scaled by the
    # probe taken around it (see run.py).
    scaled_by_probe = True

    def setup(self, lib: Library, seed: int, workdir: Path):
        rng = Random(seed)
        return [inputs.decision_pair(rng, i) for i in range(self.pool_size)]

    def run(self, lib: Library, pair):
        f = lib.formats.loads_sfn(pair.text_f).function
        g = lib.formats.loads_sfn(pair.text_g).function
        report = lib.majorize.cross_check(f, g)
        reverse = None if report.holds else lib.majorize.majorize(g, f)
        return report, reverse

    def check(self, lib: Library, pair, result) -> Optional[str]:
        report, reverse = result
        if report.holds != pair.label.holds:
            return f"{pair.label.kind} pair decided holds={report.holds}"
        if reverse is not None and reverse.holds != pair.label.reverse:
            return f"{pair.label.kind} pair decided reverse={reverse.holds}"
        certificates = [(v, pair.f, pair.g) for v in report.verdicts]
        if reverse is not None:
            certificates.append((reverse, pair.g, pair.f))
        for verdict, f, g in certificates:
            if verdict.holds != (verdict.violation is None):
                return f"{verdict.criterion.value} verdict and certificate disagree"
            if verdict.violation is not None:
                hinge_like = verdict.criterion.value != "rearrangement"
                message = _recheck(lib, verdict.violation, f, g, hinge_like)
                if message:
                    return f"{verdict.criterion.value}: {message}"
        return None


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


class Witness:
    name = "witness"
    pool_size = 30
    trace_slice = 10
    warmup = 2
    scaled_by_probe = True  # runs in this process, like the host probe

    def setup(self, lib: Library, seed: int, workdir: Path):
        rng = Random(seed)
        return [inputs.witness_pair(rng, i) for i in range(self.pool_size)]

    def run(self, lib: Library, pair):
        f = lib.formats.loads_sfn(pair.text_f).function
        g = lib.formats.loads_sfn(pair.text_g).function
        witness = lib.operators.ds_witness(f, g)
        image = witness.apply_to(g)
        return witness, image, image == f

    def check(self, lib: Library, pair, result) -> Optional[str]:
        witness, image, exact = result
        if not exact or tuple(map(tuple, image.pieces)) != pair.f:
            return "witness image differs from f"
        f = lib.stepfn.canonicalize(pair.f, lib.stepfn.INF if pair.total is None else pair.total)
        if lib.diagnostics.l1_distance(image, f) != 0:
            return "witness image is at positive L1 distance from f"
        cls = lib.operators.classify_matrix(witness.product)
        if cls is not lib.operators.OperatorClass.DOUBLY_STOCHASTIC:
            return f"witness classifies as {cls.label}"
        return None


# ---------------------------------------------------------------------------
# cli-ops
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One ``majo`` invocation with what its JSON report and output file must hold."""

    cwd: Path  # file names in argv are relative to it, so reports do not hold the path
    argv: List[str]
    report: Dict[str, object] = field(default_factory=dict)
    output: Optional[str] = None
    expected: object = None  # library object the output file must re-load to
    verified_text: Optional[str] = None  # output bytes already re-loaded and matched


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text)
    return name


def pythonpath_env(src: Path) -> dict:
    """The environment with ``src`` first on PYTHONPATH, for ``python -m majo.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spread_out(groups: List[List[Command]]) -> List[Command]:
    """Interleave the groups so that each one is spread evenly over the cycle."""
    keyed = [((j + 0.5) / len(group), g, cmd)
             for g, group in enumerate(groups) for j, cmd in enumerate(group)]
    return [cmd for _, _, cmd in sorted(keyed, key=lambda item: item[:2])]


class CliOps:
    """One cycle of 20 commands: 4 rearrange, 4 classify, 3 each of lift, kernel, apply, equi."""

    name = "cli-ops"
    trace_slice = None  # the whole cycle
    warmup = 1
    scaled_by_probe = False  # subprocesses did not slow with the probe

    def setup(self, lib: Library, seed: int, workdir: Path):
        rng = Random(seed)
        fmt = inputs.fmt
        stepfn, formats, operators, kernels = lib.stepfn, lib.formats, lib.operators, lib.kernels
        rearrange, classify, lift, kernel, apply, equi = [], [], [], [], [], []

        for i in range(4):
            pieces, total = inputs.unsorted_function(rng, 600 + 600 * i)
            src = _write(workdir, f"unsorted{i}.sfn", inputs.sfn_text(pieces, total))
            out = f"sorted{i}.sfn"
            expected = stepfn.canonicalize(pieces, stepfn.INF if total is None else total)
            rearrange.append(Command(workdir, ["rearrange", src, "-o", out, "--json"],
                                     {"total": fmt(total)}, out, expected))

        for i in range(4):
            label, n = ("markov", "doubly-stochastic", "semi-doubly-stochastic")[i % 3], 40 + 15 * i
            entries = (inputs.markov_matrix(rng, n, n) if label == "markov"
                       else inputs.injection_mixture(rng, n + n // 2 * (i % 3 == 2), n))
            path = _write(workdir, f"classify{i}.mat", inputs.mat_text(entries))
            classify.append(Command(workdir, ["classify", path, "--json"], {"class": label}))

        for i, n in enumerate((30, 60, 90)):
            atoms = [Fraction(rng.randint(1, 6), rng.choice((2, 3, 5))) for _ in range(n)]
            pieces, total = inputs.aligned_function(rng, atoms)
            part = _write(workdir, f"part{i}.sfn", inputs.sfn_text(pieces, total, partition=atoms))
            ds_entries = inputs.injection_mixture(rng, n, n)
            mk_entries = inputs.markov_matrix(rng, n, n)
            ds = _write(workdir, f"ds{i}.mat", inputs.mat_text(ds_entries))
            mk = _write(workdir, f"mk{i}.mat", inputs.mat_text(mk_entries))
            doc = formats.loads_sfn((workdir / part).read_text())
            ds_matrix = operators.OperatorMatrix(ds_entries)

            out = f"lifted{i}.mat"
            lift.append(Command(workdir, ["lift", part, ds, "-o", out, "--json"], {}, out,
                                operators.lift(doc.partition, ds_matrix)))

            k = kernels.matrix_to_kernel(doc.partition, operators.OperatorMatrix(mk_entries))
            kernel.append(Command(workdir, ["kernel", part, mk, "--json"], {
                "class": kernels.kernel_classify(k).label,
                "values": [[fmt(v) for v in row] for row in k.values],
            }))

            out = f"image{i}.sfn"
            image = operators.lift_apply(doc.partition, ds_matrix, doc.function)
            apply.append(Command(workdir, ["apply", ds, part, "-o", out, "--json"], {}, out,
                                 (image.step_function(), doc.partition)))

        for i, n in enumerate((30, 50, 70)):
            unit = Fraction(1, rng.choice((3, 5, 7)))
            runs = [1]  # one level set of exactly the unit mass fixes the gcd
            while sum(runs) < n:
                runs.append(min(rng.randint(1, 6), n - sum(runs)))
            values = sorted(rng.sample(range(1, 20 * n), len(runs)), reverse=True)
            pieces = [(Fraction(v, 3), c * unit) for v, c in zip(values, runs)]
            total = n * unit
            func = _write(workdir, f"equi{i}.sfn", inputs.sfn_text(pieces, total, rng))
            ops_dir = f"ops{i}"
            (workdir / ops_dir).mkdir(exist_ok=True)
            f = stepfn.canonicalize(pieces, total)
            partition = operators.Partition.equal_mass(n, unit, total)
            values = operators.align(partition, f).values
            family = []
            for j in range(3):
                entries = inputs.injection_mixture(rng, n, n)
                _write(workdir, f"{ops_dir}/d{j}.mat", inputs.mat_text(entries))
                image = operators.apply_matrix(operators.OperatorMatrix(entries), values)
                family.append(stepfn.canonicalize(zip(image, partition.atoms), total))
            rows = []
            for k in range(1, 9):
                r = lib.diagnostics.equi_modulus(family, Fraction(1, 2**k), f)
                rows.append({"delta": fmt(r.delta), "modulus": fmt(r.modulus),
                             "bound": fmt(r.bound), "within_bound": r.within_bound})
            equi.append(Command(workdir, ["equi", func, "--ops", ops_dir, "--json"],
                                {"family_size": 3, "rows": rows}))

        return _spread_out([rearrange, classify, lift, kernel, apply, equi])

    def run(self, lib: Library, command: Command):
        done = subprocess.run([sys.executable, "-m", "majo.cli", *command.argv],
                              cwd=command.cwd, env=pythonpath_env(lib.src),
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout

    def run_in_process(self, lib: Library, command: Command):
        """The traced variant: ``majo.cli.main(argv)`` with stdout captured."""
        buffer = io.StringIO()
        previous = os.getcwd()
        os.chdir(command.cwd)
        try:
            with contextlib.redirect_stdout(buffer):
                code = lib.cli.main(command.argv)
        finally:
            os.chdir(previous)
        return code, buffer.getvalue()

    def check(self, lib: Library, command: Command, result) -> Optional[str]:
        code, stdout = result
        if code != 0:
            return f"{command.argv[0]} exited {code}"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{command.argv[0]} printed no JSON report ({exc})"
        for key, want in command.report.items():
            if report.get(key) != want:
                return f"{command.argv[0]} report has {key}={report.get(key)!r}"
        if command.output is None:
            return None
        path = command.cwd / command.output
        text = path.read_text()
        path.unlink()  # the next run has to write it again
        if text == command.verified_text:
            return None
        if command.argv[0] == "lift":
            ok = lib.formats.loads_mat(text) == command.expected
        elif command.argv[0] == "apply":
            doc = lib.formats.loads_sfn(text)
            ok = (doc.function, doc.partition) == command.expected
        else:
            ok = lib.formats.loads_sfn(text).function == command.expected
        if not ok:
            return f"{command.argv[0]} wrote {command.output} unlike the library result"
        command.verified_text = text
        return None


WORKLOADS = {w.name: w for w in (Decide(), Witness(), CliOps())}

"""Checks on the benchmark itself: exact counters and the declared metric names."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def fresh_majo():
    """Library() re-imports majo; put the caller's modules back afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k == "majo" or k.startswith("majo.")}
    yield
    for name in [k for k in sys.modules if k == "majo" or k.startswith("majo.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _counts(seed: int, workdir: Path) -> dict:
    workdir.mkdir()
    lib = workloads.Library(run.SRC)
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        tracer = tracing.Tracer()
        with tracing.installed(tracer, lib):
            for index, op in enumerate(workload.setup(lib, seed, workdir)[:4]):
                _, failure = run.run_once(workload, lib, op, tracer, f"{name}-{index}")
                assert failure is None
        assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
        out[name] = dict(tracer.counts)
    return out


def test_two_runs_on_one_seed_give_identical_counts(tmp_path, fresh_majo):
    first = _counts(5, tmp_path / "a")
    second = _counts(5, tmp_path / "b")
    assert first == second
    assert first["decide"]["majorize.points_checked"] > 0
    assert first["witness"]["operators.witness_dim"] > 0
    assert first["cli-ops"]["cli.report_bytes"] > 0


def test_wrappers_are_removed_after_a_traced_pass(tmp_path, fresh_majo):
    lib = workloads.Library(run.SRC)
    before = lib.formats.canonicalize
    with tracing.installed(tracing.Tracer(), lib):
        assert lib.formats.canonicalize is not before
    assert lib.formats.canonicalize is before


def test_declared_metric_names_match_the_benchmark():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(run.per_layer_names())

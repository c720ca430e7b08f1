"""Benchmark for majo: three seeded closed-loop workloads and a traced profile.

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # all three workloads, one after another

One client keeps one operation in flight. ``--trace 0`` times whole
operations and prints the end-to-end metrics; ``--trace 1`` runs each
operation of a fixed slice of every workload untraced and traced, and prints
per-layer self times, exact counters, the capped size ladder and the probes. Every
operation's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Details,
the full ladder (cut-off cells as null) and the spans go to ``bench/out/``.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # setup_s is the median of these
MIN_CYCLES = 5  # runs of every pool operation; its latency is the best of them
HARD_LIMIT_S = 150.0
STARTUP_RUNS = 5
# The probe rate in a fast phase of the machine this benchmark was built on.
REFERENCE_PROBE_OPS_S = 300_000

END_TO_END = ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mib")

# ladder cells that finish well inside the cap today; the rest are in bench/out only
LADDER_METRICS = tuple(
    [f"majorize.{c}.n{n}.{k}_ms" for c in ("rearr", "hinge") for n in (10, 100)
     for k in ("small", "large")]
    + [f"majorize.tail.n10.{k}_ms" for k in ("small", "large")]
    + ["diagnostics.l1_distance.n10_ms", "diagnostics.l1_distance.n100_ms",
       "operators.ds_witness.d32_ms", "operators.ds_witness.d128_ms"]
)


def per_layer_names() -> list:
    """Names of the ``--trace 1`` metrics, in the order they are printed."""
    from tracing import COUNTERS, GROUPS

    return ([f"{group}_ms" for group in GROUPS] + list(COUNTERS)
            + [f"trace.overhead_share.{name}" for name in ("decide", "witness", "cli-ops")]
            + ["cli.startup_ms", "host.fraction_probe_ops_s"] + list(LADDER_METRICS))


def probe_batch(iterations: int = 1000) -> float:
    """Rate of one batch of a fixed Fraction loop, in iterations per second."""
    start = time.perf_counter()
    for k in range(1, iterations + 1):
        Fraction(k, 7) + Fraction(3, k)
    return iterations / (time.perf_counter() - start)


def fraction_probe(seconds: float = 0.5) -> float:
    """Median probe rate over ``seconds``, to tell a slow host phase from a regression."""
    rates = [probe_batch(2000)]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        rates.append(probe_batch(2000))
    return statistics.median(rates)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    from workloads import WORKLOADS, Library

    workload = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = Library(SRC)
        pool = workload.setup(lib, seed, workdir)
        for op in pool[: workload.warmup]:
            workload.run(lib, op)
        setups.append(time.perf_counter() - start)

    # Seconds of each successful run, per pool operation, as measured and, for
    # a workload scaled by the probe, at the reference host speed: each run
    # is scaled by the mean of the probe batches just before and after it.
    runs = [[] for _ in pool]
    scaled_runs = [[] for _ in pool]
    failures, cycles, probes = [], 0, []
    begin = time.perf_counter()
    while True:
        before = probe_batch() if workload.scaled_by_probe else 0.0
        for op, times, scaled in zip(pool, runs, scaled_runs):
            start = time.perf_counter()
            try:
                result = workload.run(lib, op)
                elapsed = time.perf_counter() - start
                error = workload.check(lib, op, result)
            except Exception as exc:  # any exception is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            if error:
                failures.append(error)
            else:
                times.append(elapsed)
            if workload.scaled_by_probe:
                after = probe_batch()
                if not error:
                    scaled.append(elapsed * (before + after) / 2 / REFERENCE_PROBE_OPS_S)
                before = after
        cycles += 1
        probes.append(fraction_probe(0.05))
        wall = time.perf_counter() - begin
        if (wall >= seconds and cycles >= MIN_CYCLES) or wall >= HARD_LIMIT_S:
            break

    # The host changes speed for seconds at a time, so each operation's
    # latency is its best run across cycles spread over the run.
    def figures(per_op):
        best = [min(times) for times in per_op if times] or [float("nan")]
        return {
            "throughput_ops_s": (len(best) / sum(best), "ops/s"),
            "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "latency_p90_ms": (percentile(best, 90) * 1e3, "ms"),
        }

    attempted = cycles * len(pool)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if name == "cli-ops" else resource.RUSAGE_SELF)
    raw = figures(runs)
    metrics = figures(scaled_runs) if workload.scaled_by_probe else dict(raw)
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mib"] = (usage.ru_maxrss / 1024, "MiB")
    extra = {
        **{f"raw.{key}": value for key, value in raw.items()},
        "failed_share": (len(failures) / attempted, "ratio"),
        "large_denominator_share": (
            sum(getattr(op, "large", False) for op in pool) / len(pool), "ratio"),
        "latency_samples": (sum(1 for times in runs if times), "count"),
        "runs_per_operation": (cycles, "count"),
        "wall_s": (wall, "s"),
        "host.fraction_probe_ops_s": (max(probes), "ops/s"),
    }
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "extra": extra, "setup_runs_s": setups, "operation_runs_s": runs,
            "probes_ops_s": probes}


# ---------------------------------------------------------------------------
# traced profile
# ---------------------------------------------------------------------------


def run_once(workload, lib, op, tracer=None, op_id: str = ""):
    """One operation, traced when ``tracer`` is given: (seconds, failure or None)."""
    run = workload.run_in_process if workload.name == "cli-ops" else workload.run
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        result = run(lib, op)
        spent = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
            if workload.name == "cli-ops":
                tracer.counts["cli.report_bytes"] += len(result[1].encode())
        return spent, workload.check(lib, op, result)
    except Exception as exc:  # any exception is a failed operation
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.op = None


def profile(seed: int, seconds: float, workdir: Path) -> dict:
    import ladder
    from tracing import COUNTERS, Tracer, installed
    from workloads import WORKLOADS, Library, pythonpath_env

    lib = Library(SRC)
    slices = {}
    for name, workload in WORKLOADS.items():
        pool = workload.setup(lib, seed, workdir)
        slices[name] = pool[: workload.trace_slice] if workload.trace_slice else pool

    # Each operation runs untraced and traced back to back, in alternating
    # order, so that both runs of a pair see the same host speed.
    untraced = dict.fromkeys(WORKLOADS, 0.0)
    traced = dict.fromkeys(WORKLOADS, 0.0)
    layer_ms, counts, failures, spans = [], None, [], []
    begin = time.perf_counter()
    while not layer_ms or (time.perf_counter() - begin < seconds / 2 and len(layer_ms) < 5):
        round_ms, round_counts = {}, {}
        for name, workload in WORKLOADS.items():
            tracer = Tracer()
            for index, op in enumerate(slices[name]):
                for traced_run in ((False, True) if index % 2 else (True, False)):
                    if traced_run:
                        with installed(tracer, lib):
                            spent, error = run_once(workload, lib, op, tracer, f"{name}-{index}")
                        traced[name] += spent
                    else:
                        spent, error = run_once(workload, lib, op)
                        untraced[name] += spent
                    if error:
                        failures.append(error)
            for group, ms in tracer.self_ms().items():
                round_ms[group] = round_ms.get(group, 0.0) + ms
            for key in COUNTERS:
                round_counts[key] = round_counts.get(key, 0) + tracer.counts[key]
            if not layer_ms:
                spans += tracer.dump()
        if counts is not None and round_counts != counts:
            failures.append("counters differ between two traced passes of one slice")
        counts = round_counts
        layer_ms.append(round_ms)

    metrics = {f"{group}_ms": (min(r[group] for r in layer_ms), "ms") for group in layer_ms[0]}
    metrics.update({key: (counts[key], "count") for key in COUNTERS})
    for name in WORKLOADS:
        metrics[f"trace.overhead_share.{name}"] = (traced[name] / untraced[name], "ratio")

    startups = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import majo.cli"], env=pythonpath_env(SRC),
                       check=True, timeout=60)
        startups.append(time.perf_counter() - start)
    metrics["cli.startup_ms"] = (statistics.median(startups) * 1e3, "ms")
    metrics["host.fraction_probe_ops_s"] = (fraction_probe(), "ops/s")

    cells = ladder.run(lib, seed)
    for name in LADDER_METRICS:
        metrics[name] = (cells[name], "ms")
    if list(metrics) != per_layer_names():
        raise RuntimeError("per-layer metrics differ from per_layer_names()")
    attempted = sum(len(s) for s in slices.values()) * len(layer_ms) * 2
    return {"attempted": attempted, "failures": failures, "metrics": metrics,
            "ladder": cells, "spans": spans, "passes": len(layer_ms)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_result(result: dict) -> None:
    for name, (value, unit) in {**result["metrics"], **result.get("extra", {})}.items():
        print(f"{name:44s} {value!s:>22} {unit}")
    for message in result["failures"][:10]:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"attempted": 0, "failures": [], "metrics": {}}
    for name in ("decide", "witness", "cli-ops"):
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=HARD_LIMIT_S + 120)
        print(done.stdout, end="")
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        merged["attempted"] += last["attempted"]
        merged["failures"] += [f"{name}: failed"] * last["failed"]
        for key, metric in last["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = (metric["value"], metric["unit"])
    print("== all")
    _print_result(merged)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("decide", "witness", "cli-ops", "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "majo" / "__init__.py").is_file():
        print(f"error: no majo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            result = profile(args.seed, args.seconds, workdir)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "args": vars(args)}, indent=1, default=str))
    _print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

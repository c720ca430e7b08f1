"""Capped size ladder: one timed call per cell, growing sizes, cut at a cap.

Rows are the rearrangement, hinge and tail criteria on pairs of n level sets
(small and large denominators), ``l1_distance`` on the same pairs, and
``ds_witness`` at gcd refinement dimension d. A cell that runs past the cap
is interrupted by a timer signal and recorded as ``None``; once a row is cut,
its larger cells are recorded as ``None`` without running.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from random import Random
from typing import Callable, Dict, Optional

import inputs

CAP_S = 1.0
SIZES = (10, 100, 1000, 10000)
DIMENSIONS = (32, 128, 512)


class _CutOff(Exception):
    pass


def _alarm(signum, frame):
    raise _CutOff


def _timed(call: Callable[[], object]) -> Optional[float]:
    """Milliseconds for one call, or None if it ran past the cap."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        start = time.perf_counter()
        call()
        return (time.perf_counter() - start) * 1e3
    except _CutOff:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _pair(lib, seed: int, n: int, large: bool):
    """Canonical f, g with about n level sets each on an infinite space, f averaged from g."""
    rng = Random(seed * 7919 + n * 2 + large)
    g, _ = inputs.step_function(rng, rng, n, large, infinite=True)
    f = inputs.average(rng, g, None, steps=1)
    INF = lib.stepfn.INF
    return lib.stepfn.canonicalize(f, INF), lib.stepfn.canonicalize(g, INF)


def _witness_pair(lib, d: int):
    """Three level sets of coprime integer masses on [0, d); f averages the top two."""
    a, b = 1, d // 2
    g = [(Fraction(3), Fraction(a)), (Fraction(2), Fraction(b)), (Fraction(1), Fraction(d - a - b))]
    f = [((3 * a + 2 * b) / Fraction(a + b), Fraction(a + b)), g[2]]
    return lib.stepfn.canonicalize(f, d), lib.stepfn.canonicalize(g, d)


def run(lib, seed: int) -> Dict[str, Optional[float]]:
    m, diag, ops = lib.majorize, lib.diagnostics, lib.operators
    rows = {
        "majorize.rearr": m.majorize,
        "majorize.hinge": m.hinge_criterion,
        "majorize.tail": m.tail_distribution_criterion,
    }
    cells: Dict[str, Optional[float]] = {}
    for kind in ("small", "large"):
        pairs = {}
        for row, fn in list(rows.items()) + [("diagnostics.l1_distance", diag.l1_distance)]:
            if row.startswith("diagnostics") and kind == "large":
                continue
            cut = False
            for n in SIZES:
                name = (f"{row}.n{n}.{kind}_ms" if row.startswith("majorize")
                        else f"{row}.n{n}_ms")
                if cut:
                    cells[name] = None
                    continue
                if n not in pairs:
                    pairs[n] = _pair(lib, seed, n, kind == "large")
                cells[name] = _timed(lambda: fn(*pairs[n]))
                cut = cells[name] is None
    cut = False
    for d in DIMENSIONS:
        name = f"operators.ds_witness.d{d}_ms"
        if cut:
            cells[name] = None
            continue
        pair = _witness_pair(lib, d)
        cells[name] = _timed(lambda: ops.ds_witness(*pair))
        cut = cells[name] is None
    return cells

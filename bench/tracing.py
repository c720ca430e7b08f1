"""Per-layer spans and exact counters, recorded from outside the library.

The traced run replaces module attributes such as ``majo.formats.canonicalize``
and ``majo.cli.load_sfn`` with wrappers, in every ``majo`` module that holds
a reference to the same function, and puts the originals back afterwards.
Nothing in the library changes.

A call is recorded as a span only when it enters a layer from outside it:
a call made while a span of the same module is open (``load_sfn`` calling
``loads_sfn``, ``apply_to`` calling ``apply_matrix``) belongs to that span.
``cross_check`` is not wrapped, so the three criteria it runs keep their own
spans. Counters are read from arguments and return values only.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

_Count = Optional[Callable[[Counter, tuple, object], None]]


def _text_bytes(counts, args, result):
    counts["formats.bytes_read"] += len(args[0].encode())


def _dumped_bytes(counts, args, result):
    counts["formats.bytes_written"] += len(result.encode())


def _level_sets(counts, args, result):
    counts["stepfn.level_sets"] += len(result.pieces)


def _verdict(counts, args, result):
    counts["majorize.points_checked"] += len(result.checked)
    counts["majorize.violations"] += result.violation is not None


def _witness(counts, args, result):
    counts["operators.witness_dim"] += result.dimension
    counts["operators.witness_steps"] += len(result.steps)
    bits = max((e.denominator.bit_length() for row in result.product.entries for e in row),
               default=0)
    counts["operators.witness_den_bits"] = max(counts["operators.witness_den_bits"], bits)


# (module, attribute, metric group, counter); "Class.method" wraps a method.
WRAPPED = (
    ("formats", "loads_sfn", "formats.parse", _text_bytes),
    ("formats", "loads_mat", "formats.parse", _text_bytes),
    ("formats", "load_sfn", "formats.parse", None),
    ("formats", "load_mat", "formats.parse", None),
    ("formats", "dumps_sfn", "formats.dump", _dumped_bytes),
    ("formats", "dumps_mat", "formats.dump", _dumped_bytes),
    ("formats", "dump_sfn", "formats.dump", None),
    ("formats", "dump_mat", "formats.dump", None),
    ("stepfn", "canonicalize", "stepfn.canonicalize", _level_sets),
    ("majorize", "majorize", "majorize.rearr", _verdict),
    ("majorize", "weak_majorize", "majorize.rearr", _verdict),
    ("majorize", "hinge_criterion", "majorize.hinge", _verdict),
    ("majorize", "tail_distribution_criterion", "majorize.tail", _verdict),
    ("operators", "ds_witness", "operators.ds_witness", _witness),
    ("operators", "WitnessChain.apply_to", "operators.apply_to", None),
    ("operators", "align", "operators.matrix", None),
    ("operators", "apply_matrix", "operators.matrix", None),
    ("operators", "lift", "operators.matrix", None),
    ("operators", "psi", "operators.matrix", None),
    ("operators", "classify_matrix", "operators.matrix", None),
    ("kernels", "matrix_to_kernel", "kernels.matrix_to_kernel", None),
    ("kernels", "kernel_classify", "kernels.kernel_classify", None),
    ("diagnostics", "equi_modulus", "diagnostics.equi_modulus", None),
    ("cli", "main", "cli.self", None),
)

GROUPS = tuple(dict.fromkeys(group for _, _, group, _ in WRAPPED))
COUNTERS = ("formats.bytes_read", "formats.bytes_written", "stepfn.level_sets",
            "majorize.points_checked", "majorize.violations", "operators.witness_dim",
            "operators.witness_steps", "operators.witness_den_bits", "cli.report_bytes")


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    op: str
    end: float = 0.0
    children: float = 0.0  # time covered by child spans

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children


class Tracer:
    """Holds the spans and counts of one traced pass in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[str] = None  # spans are recorded only inside an operation
        self._open: List[int] = []

    def wrap(self, fn, group: str, count: _Count):
        module = group.split(".")[0]

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            nested = self._open and self.spans[self._open[-1]].name.split(".")[0] == module
            if nested:
                result = fn(*args, **kwargs)
            else:
                parent = self._open[-1] if self._open else None
                self.spans.append(Span(group, time.perf_counter(), parent, self.op))
                self._open.append(len(self.spans) - 1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = self.spans[self._open.pop()]
                    span.end = time.perf_counter()
                    if span.parent is not None:
                        self.spans[span.parent].children += span.end - span.start
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def self_ms(self) -> Dict[str, float]:
        out = dict.fromkeys(GROUPS, 0.0)
        for span in self.spans:
            out[span.name] += span.self_time * 1e3
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]


@contextlib.contextmanager
def installed(tracer: Tracer, lib):
    """Wrap every entry of WRAPPED in all loaded majo modules; restore them on exit."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "majo" or name.startswith("majo."))]
    undo = []
    try:
        for layer, attr, group, count in WRAPPED:
            holders = modules
            owner = getattr(lib, layer)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, group, count)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, name, original))
                        setattr(holder, name, wrapper)
        yield tracer
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)

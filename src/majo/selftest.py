"""The randomized invariant suite behind the acceptance tests and the CLI.

Each criterion is a battery returning a :class:`SuiteOutcome`, seeded by
(seed, name) alone: one integer seed reproduces every battery exactly, and a
battery run alone (``selftest --only``) gives its outcome from the full run.
Every battery fails once it reaches the 30 s budget. The batteries only ever
compare exact rationals, so a single failure message is a genuine
counterexample, never a tolerance artifact.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .diagnostics import equi_modulus, l1_distance
from .extended import INF
from .kernels import kernel_apply, kernel_classify, matrix_to_kernel
from .majorize import cross_check, hinge_criterion, majorize, weak_majorize
from .operators import (
    AlignedStep,
    OperatorClass,
    OperatorMatrix,
    Partition,
    align,
    apply_matrix,
    classify_matrix,
    ds_witness,
    lift,
    partition_average,
    partition_average_matrix,
    sequence_apply,
)
from .sampling import (
    random_doubly_stochastic,
    random_equal_mass_partition,
    random_fraction,
    random_integer_step_function,
    random_markov_matrix,
    random_pair_same_total,
    random_sds_matrix,
    random_step_function,
    random_unequal_partition,
    random_vector,
)
from .stepfn import ZERO, StepFunction, canonicalize

ONE = Fraction(1)
MAX_FAILURES = 8  # failure messages kept per battery


@dataclass
class SuiteOutcome:
    """Result of one criterion battery."""

    name: str
    cases: int
    failures: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(message)
        elif len(self.failures) == MAX_FAILURES:
            self.failures.append("... further failures suppressed")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        return f"[{status}] {self.name}: {self.cases} cases in {self.elapsed_s:.2f}s{extra}"


SUITE: List[Tuple[str, Callable[[int], SuiteOutcome]]] = []


def _battery(name: str, title: str, cases: int):
    """Register a body that draws ``cases`` cases into the rng and outcome it
    is handed; ``run`` seeds it by (seed, name), times it and applies the
    budget. ``SUITE`` keeps definition order."""

    def register(body: Callable[[random.Random, SuiteOutcome], None]):
        def run(seed: int) -> SuiteOutcome:
            outcome = SuiteOutcome(title, cases)
            start = time.monotonic()
            body(random.Random(f"{seed}:{name}"), outcome)
            outcome.elapsed_s = time.monotonic() - start
            if outcome.elapsed_s >= 30.0:
                outcome.fail(f"runtime {outcome.elapsed_s:.1f}s breaches the 30s budget")
            return outcome

        SUITE.append((name, run))
        return run

    return register


def run_all(seed: int, only: Optional[Sequence[str]] = None) -> List[SuiteOutcome]:
    return [run(seed) for name, run in SUITE if not only or name in only]


def _constructed_majorized_pair(
    rng: random.Random,
) -> Tuple[StepFunction, StepFunction]:
    """Pair (f, g) with f majorized by g, built by a doubly stochastic mix."""
    n = rng.randint(2, 5)
    mass = random_fraction(rng, max_numerator=4, positive=True)
    infinite = rng.random() < 0.5
    partition = Partition.equal_mass(n, mass, INF if infinite else mass * n)
    values = random_vector(rng, n)
    mixer = random_doubly_stochastic(rng, n)
    g = AlignedStep(partition, values).step_function()
    f = AlignedStep(partition, apply_matrix(mixer, values)).step_function()
    return f, g


# ---------------------------------------------------------------------------
# criterion 1: the three exact criteria agree
# ---------------------------------------------------------------------------


@_battery("equivalence", "criterion equivalence (rearrangement = hinge = tail)", 1000)
def criterion_equivalence(rng: random.Random, outcome: SuiteOutcome) -> None:
    holds_count = 0
    for index in range(outcome.cases):
        style = index % 5
        if style == 0:
            f, g = _constructed_majorized_pair(rng)
        else:  # styles 3 and 4: values of both signs on a finite space
            f, g = random_pair_same_total(
                rng, equal_integrals=style in (1, 3), signed=style >= 3
            )
        try:
            report = cross_check(f, g)
        except Exception as exc:  # disagreement or contract bug
            outcome.fail(f"pair #{index}: {exc} (f={f}, g={g})")
            continue
        holds_count += report.holds
    outcome.note = f"{holds_count} majorized, {outcome.cases - holds_count} not"


# ---------------------------------------------------------------------------
# criterion 2: published fixtures
# ---------------------------------------------------------------------------


def shift_truncation(rows: int, cols: int) -> OperatorMatrix:
    """Mass-preserving truncation of the right shift: ones under the diagonal."""
    return OperatorMatrix(
        tuple(
            tuple(ONE if i == j + 1 else ZERO for j in range(cols))
            for i in range(rows)
        )
    )


def summing_truncation(n: int) -> OperatorMatrix:
    """Truncation of the operator collapsing every sequence onto slot one."""
    return OperatorMatrix(
        tuple(tuple(ONE for _ in range(n)) if i == 0 else (ZERO,) * n for i in range(n))
    )


def incomparable_fixture() -> Tuple[StepFunction, StepFunction]:
    """The canonical incomparable pair: tall-narrow against low-wide."""
    f = canonicalize([(3, 1), (Fraction(1, 2), 1)], INF)
    g = canonicalize([(2, 2)], INF)
    return f, g


@_battery("fixtures", "published fixtures (incomparable pair, T1/T2/T3)", 8)
def criterion_fixtures(rng: random.Random, outcome: SuiteOutcome) -> None:
    f, g = incomparable_fixture()

    forward = weak_majorize(f, g)
    if forward.holds or forward.violation.point != 1:
        outcome.fail(f"forward direction: expected violation at s=1, got {forward}")
    elif (forward.violation.left, forward.violation.right) != (3, 2):
        outcome.fail(f"forward certificate values wrong: {forward.violation}")

    backward = weak_majorize(g, f)
    if backward.holds or backward.violation.point != 2:
        outcome.fail(f"backward direction: expected violation at s=2, got {backward}")
    elif (backward.violation.left, backward.violation.right) != (4, Fraction(7, 2)):
        outcome.fail(f"backward certificate values wrong: {backward.violation}")

    for direction, (a, b) in (("f,g", (f, g)), ("g,f", (g, f))):
        report = cross_check(a, b)
        if report.holds:
            outcome.fail(f"cross-check {direction} claims majorization")

    t1 = summing_truncation(4)
    t2 = shift_truncation(5, 4)
    t3 = OperatorMatrix.identity(4)
    expected = (
        (t1, OperatorClass.MARKOV, "T1"),
        (t2, OperatorClass.SEMI_DOUBLY_STOCHASTIC, "T2"),
        (t3, OperatorClass.DOUBLY_STOCHASTIC, "T3"),
    )
    for matrix, want, label in expected:
        got = classify_matrix(matrix)
        if got != want:
            outcome.fail(f"{label} classified {got.label}, expected {want.label}")


# ---------------------------------------------------------------------------
# criterion 3: semi-doubly stochastic images are majorized
# ---------------------------------------------------------------------------


@_battery("sds-majorization", "SDS image majorized by the source", 500)
def criterion_sds_majorization(rng: random.Random, outcome: SuiteOutcome) -> None:
    for index in range(outcome.cases):
        cols = rng.randint(2, 5)
        rows = cols + rng.randint(0, 3)
        mass = random_fraction(rng, max_numerator=4, positive=True)
        col_part = Partition.equal_mass(cols, mass, INF)
        operator = random_sds_matrix(rng, rows, cols)
        values = random_vector(rng, cols)
        f = AlignedStep(col_part, values).step_function()
        image, _ = sequence_apply(operator, f, mass)
        verdict = majorize(image, f)
        if not verdict.holds:
            outcome.fail(
                f"case #{index}: Sf not majorized by f at {verdict.violation}"
            )
    # the Markov-but-not-SDS fixture moves mass together: an indicator breaks;
    # sequence_apply refuses a matrix below SDS, so it acts through its kernel
    partition = Partition.equal_mass(4, 1, INF)
    t1 = matrix_to_kernel(partition, summing_truncation(4))
    broken = None
    for k in range(1, 5):
        indicator = AlignedStep(partition, (ONE,) * k + (ZERO,) * (4 - k))
        image = kernel_apply(t1, indicator).step_function()
        if not majorize(image, indicator.step_function()).holds:
            broken = k
            break
    if broken is None:
        outcome.fail("no indicator defeats the summing truncation")
    else:
        outcome.note = f"T1 defeated by the indicator of {broken} atoms"


# ---------------------------------------------------------------------------
# criterion 4: witness exactness
# ---------------------------------------------------------------------------


@_battery("witness", "doubly stochastic witness exactness", 500)
def criterion_witness(rng: random.Random, outcome: SuiteOutcome) -> None:
    max_dimension = 0
    for index in range(outcome.cases):
        f, g = _constructed_majorized_pair(rng)
        try:
            chain = ds_witness(f, g)
        except Exception as exc:
            outcome.fail(f"case #{index}: witness construction failed: {exc}")
            continue
        max_dimension = max(max_dimension, chain.dimension)
        if chain.dimension > len(f.pieces) + len(g.pieces):
            outcome.fail(
                f"case #{index}: {chain.dimension} atoms exceed the "
                f"{len(f.pieces)} + {len(g.pieces)} level sets"
            )
        if len(chain.steps) > max(chain.dimension - 1, 0):
            outcome.fail(
                f"case #{index}: {len(chain.steps)} steps exceeds n-1 "
                f"on dimension {chain.dimension}"
            )
        product, grid = chain.product, chain.grid
        if classify_matrix(product) != OperatorClass.DOUBLY_STOCHASTIC:
            outcome.fail(f"case #{index}: witness product is not doubly stochastic")
        v_g = align(grid, g).values
        v_f = align(grid, f).values
        if apply_matrix(product, v_g) != v_f:
            outcome.fail(f"case #{index}: witness product misses the target vector")
        if l1_distance(chain.apply_to(g), f) != 0:
            outcome.fail(f"case #{index}: lift-apply does not reproduce f exactly")
    outcome.note = f"largest refinement dimension {max_dimension}"


# ---------------------------------------------------------------------------
# criterion 5: averaging, lifting, kernels
# ---------------------------------------------------------------------------


def _random_refinement(rng: random.Random, partition: Partition) -> Partition:
    atoms: List[Fraction] = []
    for atom in partition.atoms:
        parts = rng.randint(1, 3)
        weights = [rng.randint(1, 4) for _ in range(parts)]
        total = sum(weights)
        atoms.extend(atom * Fraction(w, total) for w in weights)
    return Partition(
        atoms=tuple(atoms), total_measure=partition.total_measure, tail=partition.tail
    )


@_battery("partition-ops", "averaging, lifting and kernel marginals", 200)
def criterion_partition_ops(rng: random.Random, outcome: SuiteOutcome) -> None:
    for index in range(outcome.cases):
        # averaging operators classify doubly stochastic through their kernel
        coarse = random_unequal_partition(rng, rng.randint(2, 4))
        fine = _random_refinement(rng, coarse)
        averaging = partition_average_matrix(coarse, fine)
        if classify_matrix(averaging) < OperatorClass.MARKOV:
            outcome.fail(f"case #{index}: averaging matrix lost its column sums")
        kernel_class = kernel_classify(matrix_to_kernel(fine, averaging))
        if kernel_class != OperatorClass.DOUBLY_STOCHASTIC:
            outcome.fail(
                f"case #{index}: averaging kernel classed {kernel_class.label}"
            )

        # averaging a random function never breaks majorization
        f = random_step_function(rng, infinite=False, total=coarse.total_measure)
        averaged = partition_average(coarse, f)
        if not majorize(averaged.step_function(), f).holds:
            outcome.fail(f"case #{index}: averaged function escapes majorization")
        if averaged.integral() != f.integral():
            outcome.fail(f"case #{index}: averaging changed the integral")

        # on equal masses the value basis is the sequence basis
        n = rng.randint(2, 5)
        equal = random_equal_mass_partition(rng, n, infinite=rng.random() < 0.5)
        mixer = random_doubly_stochastic(rng, n)
        if lift(equal, mixer) != mixer:
            outcome.fail(f"case #{index}: lift(D) != D on equal masses")

        # kernel marginals of semi-doubly stochastic matrices, equal masses
        cols = rng.randint(2, 4)
        rows = cols + rng.randint(0, 2)
        mass = random_fraction(rng, max_numerator=3, positive=True)
        tall = Partition.equal_mass(rows, mass, INF)
        sds = random_sds_matrix(rng, rows, cols)
        kernel = matrix_to_kernel(tall, sds)
        if any(s != 1 for s in kernel.column_integrals()):
            outcome.fail(f"case #{index}: kernel column integral differs from 1")
        if any(s > 1 for s in kernel.row_integrals()):
            outcome.fail(f"case #{index}: kernel row integral exceeds 1")


# ---------------------------------------------------------------------------
# criterion 6: equi-integrability bound
# ---------------------------------------------------------------------------


@_battery("equi-bound", "equi-integrability truncation bound", 10 * 50)
def criterion_equi_bound(rng: random.Random, outcome: SuiteOutcome) -> None:
    functions, operators = 10, 50
    deltas = [Fraction(1, 2**k) for k in range(1, 9)]
    for f_index in range(functions):
        cols = rng.randint(2, 4)
        mass = random_fraction(rng, max_numerator=3, positive=True)
        col_part = Partition.equal_mass(cols, mass, INF)
        values = random_vector(rng, cols)
        f = AlignedStep(col_part, values).step_function()
        family = []
        for _ in range(operators):
            rows = cols + rng.randint(0, 2)
            operator = random_sds_matrix(rng, rows, cols)
            sf, _ = sequence_apply(operator, f, mass)
            if sf.integral() != f.integral():
                outcome.fail(f"f #{f_index}: image integral drifted")
            family.append(sf)
        truncations = sorted({p.value for p in f.pieces} | {ZERO})
        for delta in deltas:
            # the bound is f's own small-set modulus, equal to the minimum of
            # the truncation bounds checked one by one below (the K-functional
            # of (L1, L-inf) at delta)
            report = equi_modulus(family, delta, f)
            if not report.within_bound:
                outcome.fail(
                    f"f #{f_index}, delta {delta}: modulus {report.modulus} "
                    f"exceeds bound {report.bound}"
                )
            for c in truncations:
                bound = f.hinge_integral(c) + c * delta
                if report.modulus > bound:
                    outcome.fail(
                        f"f #{f_index}, delta {delta}, c {c}: pointwise bound broken"
                    )


# ---------------------------------------------------------------------------
# criterion 7: Markov operators have norm one
# ---------------------------------------------------------------------------


@_battery("markov-norm", "Markov norm (column-stochastic contraction)", 500)
def criterion_markov_norm(rng: random.Random, outcome: SuiteOutcome) -> None:
    top_ratio = ZERO
    for index in range(outcome.cases):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = random_markov_matrix(rng, rows, cols)
        if classify_matrix(matrix) < OperatorClass.MARKOV:
            outcome.fail(f"case #{index}: generator produced a non-Markov matrix")
            continue
        plus = random_vector(rng, cols)
        image = apply_matrix(matrix, plus)
        norm_in = sum(map(abs, plus), ZERO)
        norm_out = sum(map(abs, image), ZERO)
        if norm_out != norm_in:
            outcome.fail(f"case #{index}: nonnegative norm changed {norm_in}->{norm_out}")
        if norm_in:
            top_ratio = max(top_ratio, norm_out / norm_in)
        signed = random_vector(rng, cols, signed=True)
        image = apply_matrix(matrix, signed)
        norm_in = sum(map(abs, signed), ZERO)
        norm_out = sum(map(abs, image), ZERO)
        if norm_out > norm_in:
            outcome.fail(f"case #{index}: signed norm expanded {norm_in}->{norm_out}")
        if norm_in:
            top_ratio = max(top_ratio, norm_out / norm_in)
    if top_ratio != 1:
        outcome.fail(f"supremum of norm ratios is {top_ratio}, expected exactly 1")


# ---------------------------------------------------------------------------
# criterion 8: breakpoint procedure against a dense grid
# ---------------------------------------------------------------------------


def _scaled_partial_values(f: StepFunction, span: int, grid: int) -> List[int]:
    """grid * partial_integral(f, k*span/grid) for k = 0..grid, as integers.

    Requires integer piece values and masses; evaluated incrementally so the
    whole sweep is integer arithmetic.
    """
    pieces = [(int(p.value), int(p.mass)) for p in f.pieces]
    out = []
    index, prev_cum, base = 0, 0, 0
    current = pieces[0][0] if pieces else 0
    next_cum = pieces[0][1] * grid if pieces else None
    for k in range(grid + 1):
        s = k * span
        while next_cum is not None and s >= next_cum:
            base += current * (next_cum - prev_cum)
            prev_cum = next_cum
            index += 1
            if index < len(pieces):
                current = pieces[index][0]
                next_cum += pieces[index][1] * grid
            else:
                current, next_cum = 0, None
        out.append(base + current * (s - prev_cum))
    return out


def _scaled_hinge_values(f: StepFunction, span: int, grid: int) -> List[int]:
    """grid * hinge_integral(f, k*span/grid) for k = 0..grid, as integers."""
    pieces = sorted((int(p.value), int(p.mass)) for p in f.pieces)
    weighted = sum(v * m for v, m in pieces)
    mass = sum(m for _, m in pieces)
    out = []
    pointer = 0
    for k in range(grid + 1):
        u = k * span
        while pointer < len(pieces) and u >= pieces[pointer][0] * grid:
            v, m = pieces[pointer]
            weighted -= v * m
            mass -= m
            pointer += 1
        out.append(weighted * grid - u * mass)
    return out


@_battery("grid-oracle", "breakpoint procedure against the dense grid", 200)
def criterion_grid_oracle(rng: random.Random, outcome: SuiteOutcome) -> None:
    grid = 10**4
    agreements = {True: 0, False: 0}
    for index in range(outcome.cases):
        if index % 3 == 0:
            # an integer Robin Hood transfer keeps the pair weakly majorized
            g = random_integer_step_function(rng)
            spread = [
                int(p.value) for p in g.pieces for _ in range(int(p.mass))
            ]
            f = canonicalize([(v, 1) for v in spread], INF) if len(spread) < 2 else None
            if f is None:
                i = rng.randrange(len(spread) - 1)
                d = (spread[i] - spread[i + 1]) // 2
                spread[i] -= d
                spread[i + 1] += d
                f = canonicalize([(v, 1) for v in spread if v], INF)
        else:
            f = random_integer_step_function(rng)
            g = random_integer_step_function(rng)

        span_s = int(max(f.support_measure, g.support_measure)) + 1
        partial_grid = all(
            a <= b
            for a, b in zip(
                _scaled_partial_values(f, span_s, grid),
                _scaled_partial_values(g, span_s, grid),
            )
        )
        partial_breaks = weak_majorize(f, g).holds
        if partial_grid != partial_breaks:
            outcome.fail(
                f"pair #{index}: partial-integral grid says {partial_grid}, "
                f"breakpoints say {partial_breaks}"
            )
        span_u = int(max(f.ess_sup(), g.ess_sup())) + 1
        hinge_grid = all(
            a <= b
            for a, b in zip(
                _scaled_hinge_values(f, span_u, grid),
                _scaled_hinge_values(g, span_u, grid),
            )
        )
        hinge_breaks = hinge_criterion(f, g, weak=True).holds
        if hinge_grid != hinge_breaks:
            outcome.fail(
                f"pair #{index}: hinge grid says {hinge_grid}, "
                f"breakpoints say {hinge_breaks}"
            )
        agreements[partial_breaks] += 1
    outcome.note = (
        f"{agreements[True]} weakly majorized, {agreements[False]} not, "
        f"{grid + 1} grid points each"
    )

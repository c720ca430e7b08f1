"""Criteria, certificates, cross-checks, and the preorder laws."""

import importlib
import math
import random
from fractions import Fraction as F

import pytest

from majo import (
    INF,
    Criterion,
    Relation,
    canonicalize,
    cross_check,
    ds_witness,
    hinge_criterion,
    majorize,
    tail_distribution_criterion,
    weak_majorize,
)
from majo.errors import MeasureMismatchError, NotMajorizedError
from majo.operators import (
    AlignedStep,
    Partition,
    apply_matrix,
    partition_average,
)
from majo.sampling import (
    random_doubly_stochastic,
    random_fraction,
    random_pair_same_total,
    random_step_function,
    random_unequal_partition,
    random_vector,
)

# the modules, not the functions of the same names that majo exports
MAJORIZE = importlib.import_module("majo.majorize")
OPERATORS = importlib.import_module("majo.operators")
CLI = importlib.import_module("majo.cli")


def incomparable_pair():
    f = canonicalize([(3, 1), (F(1, 2), 1)], INF)
    g = canonicalize([(2, 2)], INF)
    return f, g


def majorized_pair(rng):
    """(f, g) with f majorized by g, via a random doubly stochastic mix."""
    n = rng.randint(2, 5)
    mass = random_fraction(rng, max_numerator=4, positive=True)
    infinite = rng.random() < 0.5
    partition = Partition.equal_mass(n, mass, INF if infinite else mass * n)
    values = random_vector(rng, n)
    g = AlignedStep(partition, values).step_function()
    mixed = apply_matrix(random_doubly_stochastic(rng, n), values)
    f = AlignedStep(partition, mixed).step_function()
    return f, g


class TestWeakMajorize:
    def test_incomparable_forward_certificate(self):
        f, g = incomparable_pair()
        verdict = weak_majorize(f, g)
        assert not verdict.holds
        assert verdict.violation.point == 1
        assert verdict.violation.left == 3
        assert verdict.violation.right == 2

    def test_incomparable_backward_certificate(self):
        f, g = incomparable_pair()
        verdict = weak_majorize(g, f)
        assert not verdict.holds
        assert verdict.violation.point == 2
        assert verdict.violation.left == 4
        assert verdict.violation.right == F(7, 2)

    def test_reflexive(self):
        f, _ = incomparable_pair()
        assert weak_majorize(f, f).holds

    def test_measure_mismatch(self):
        with pytest.raises(MeasureMismatchError):
            weak_majorize(canonicalize([(1, 1)], 1), canonicalize([(1, 1)], 2))

    def test_success_certificate_covers_all_breakpoints(self):
        rng = random.Random(2)
        for _ in range(40):
            f, g = majorized_pair(rng)
            verdict = weak_majorize(f, g)
            assert verdict.holds
            points = {p.point for p in verdict.checked}
            expected = {F(0)} | set(f.cumulative_masses()) | set(g.cumulative_masses())
            assert expected <= points

    def test_failure_certificate_reverifies(self):
        rng = random.Random(3)
        seen = 0
        for _ in range(300):
            f, g = random_pair_same_total(rng)
            verdict = weak_majorize(f, g)
            if verdict.holds:
                continue
            seen += 1
            witness = verdict.violation
            assert f.partial_integral(witness.point) == witness.left
            assert g.partial_integral(witness.point) == witness.right
            assert witness.left > witness.right
        assert seen > 20


class TestMajorize:
    def test_flat_pair(self):
        f = canonicalize([(1, 1), (1, 1)], 2)
        g = canonicalize([(2, 1), (0, 1)], 2)
        assert majorize(f, g).holds

    def test_reflexive(self):
        f = canonicalize([(2, 1), (1, 3)], INF)
        assert majorize(f, f).holds

    def test_equality_clause(self):
        g = canonicalize([(2, 2)], 2)
        half = canonicalize([(1, 2)], 2)
        verdict = majorize(half, g)
        assert not verdict.holds
        assert verdict.violation.relation is Relation.EQ

    def test_transitive(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 4)
            partition = Partition.equal_mass(n, 1, n)
            values = random_vector(rng, n)
            h = AlignedStep(partition, values).step_function()
            mixed_once = apply_matrix(random_doubly_stochastic(rng, n), values)
            g = AlignedStep(partition, mixed_once).step_function()
            mixed_twice = apply_matrix(random_doubly_stochastic(rng, n), mixed_once)
            f = AlignedStep(partition, mixed_twice).step_function()
            assert majorize(g, h).holds
            assert majorize(f, g).holds
            assert majorize(f, h).holds

    def test_rearrangement_invariance(self):
        rng = random.Random(9)
        for _ in range(60):
            f, g = random_pair_same_total(rng)
            assert majorize(f, g).holds == majorize(f.rearrangement(), g).holds

    def test_signed_functions_on_finite_space(self):
        f = canonicalize([(0, 2)], 2)
        g = canonicalize([(1, 1), (-1, 1)], 2)
        assert majorize(f, g).holds
        assert not majorize(g, f).holds


class TestHingeCriterion:
    def test_flat_pair_breakpoints(self):
        f = canonicalize([(1, 1), (1, 1)], 2)
        g = canonicalize([(2, 1), (0, 1)], 2)
        assert f.hinge_integral(1) == 0 <= g.hinge_integral(1) == 1
        assert f.hinge_integral(2) == 0 == g.hinge_integral(2)
        assert hinge_criterion(f, g).holds

    def test_incomparable_fails_on_integrals(self):
        f, g = incomparable_pair()
        verdict = hinge_criterion(f, g)
        assert not verdict.holds
        assert verdict.violation.relation is Relation.EQ
        assert (verdict.violation.left, verdict.violation.right) == (F(7, 2), F(4))

    def test_reflexive(self):
        f, _ = incomparable_pair()
        assert hinge_criterion(f, f).holds

    def test_signed_pair_exact_values(self):
        f = canonicalize([(1, 1), (-1, 1)], 2)
        zero = canonicalize([], 2)
        for criterion in (hinge_criterion, tail_distribution_criterion):
            # the smallest grid point, u = -1, carries the equal-integrals clause
            assert [
                (p.point, p.left, p.right, p.relation)
                for p in criterion(zero, f).checked
            ] == [(-1, 2, 2, Relation.EQ), (0, 0, 1, Relation.LE), (1, 0, 0, Relation.LE)]
            assert [p.right for p in criterion(f, f).checked] == [2, 1, 0]
            violation = criterion(f, zero).violation
            assert (violation.point, violation.left, violation.right) == (0, 1, 0)


class TestTailDistributionCriterion:
    def test_matches_hinge_everywhere(self):
        rng = random.Random(13)
        for _ in range(250):
            f, g = random_pair_same_total(rng)
            assert (
                tail_distribution_criterion(f, g).holds
                == hinge_criterion(f, g).holds
            )

    def test_no_violation_at_matched_tails(self):
        f, g = incomparable_pair()
        assert f.tail_distribution_integral(1) == g.tail_distribution_integral(1) == 2

    def test_reflexive(self):
        _, g = incomparable_pair()
        assert tail_distribution_criterion(g, g).holds


class TestCrossCheck:
    def test_incomparable_pair_consistent(self):
        f, g = incomparable_pair()
        for a, b in ((f, g), (g, f)):
            report = cross_check(a, b)
            assert not report.holds
            assert len(report.verdicts) == 3

    def test_randomized_agreement(self):
        rng = random.Random(37)
        for index in range(200):
            if index % 3 == 0:
                f, g = majorized_pair(rng)
            else:
                f, g = random_pair_same_total(rng, equal_integrals=index % 3 == 1)
            report = cross_check(f, g)
            assert {v.holds for v in report.verdicts} == {report.holds}

    def test_weak_mode_agreement(self):
        rng = random.Random(39)
        for _ in range(150):
            f, g = random_pair_same_total(rng)
            report = cross_check(f, g, weak=True)
            assert report.holds == weak_majorize(f, g).holds

    def test_constructed_pairs_hold(self):
        rng = random.Random(43)
        for _ in range(80):
            f, g = majorized_pair(rng)
            assert cross_check(f, g).holds


class TestOneScalingPerCall:
    """A pair is put on integers once per cross_check, per ds_witness and per
    majo check."""

    @pytest.fixture
    def scalings(self, monkeypatch):
        calls, scaled = [], MAJORIZE._scaled

        def counting(f, g):
            calls.append((f, g))
            return scaled(f, g)

        monkeypatch.setattr(MAJORIZE, "_scaled", counting)
        monkeypatch.setattr(OPERATORS, "_scaled", counting)
        monkeypatch.setattr(CLI, "_scaled", counting)
        return calls

    @pytest.mark.parametrize("weak", [False, True])
    def test_cross_check_scales_once(self, scalings, weak):
        f, g = majorized_pair(random.Random(5))
        report = cross_check(f, g, weak=weak)
        assert len(scalings) == 1
        rearr = weak_majorize(f, g) if weak else majorize(f, g)
        hinge = hinge_criterion(f, g, weak=weak)
        tail = tail_distribution_criterion(f, g, weak=weak)
        assert report.verdicts == (rearr, hinge, tail)

    @pytest.mark.parametrize("criterion", ["all", "rearr", "hinge", "tail"])
    @pytest.mark.parametrize("weak", [[], ["--weak"]])
    def test_check_scales_a_failing_pair_once(
        self, scalings, tmp_path, capsys, criterion, weak
    ):
        """The reverse verdict takes the forward scaling with its halves
        swapped: the peak is not majorized by the flat function, the reverse
        holds, and the pair (f, g) in its place would fail."""
        peak, flat = tmp_path / "peak.sfn", tmp_path / "flat.sfn"
        peak.write_text("total 2\n2 1\n0 1\n")
        flat.write_text("total 2\n1 2\n")
        argv = ["check", str(peak), str(flat), "--criterion", criterion, *weak]
        assert CLI.main(argv) == 1
        assert len(scalings) == 1
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == "not majorized (the reverse direction holds)"

    def test_ds_witness_scales_once(self, scalings):
        f, g = majorized_pair(random.Random(7))
        assert ds_witness(f, g).apply_to(g) == f
        assert len(scalings) == 1

    def test_unequal_totals_are_refused_before_scaling(self, monkeypatch):
        scaled = []
        monkeypatch.setattr(MAJORIZE, "_scale_ratios", scaled.append)
        f, g = canonicalize([(1, 2)], 2), canonicalize([(2, 1)], 3)
        message = "^total measures differ: 2 vs 3$"
        for decide in (cross_check, majorize, weak_majorize, hinge_criterion,
                       tail_distribution_criterion, ds_witness):
            with pytest.raises(MeasureMismatchError, match=message):
                decide(f, g)
        assert scaled == []

    def test_a_pair_not_majorized_gets_no_witness(self, scalings):
        f, g = incomparable_pair()
        with pytest.raises(NotMajorizedError) as info:
            ds_witness(f, g)
        assert str(info.value) == (
            "f is not majorized by g (violation at 1 under the rearrangement criterion)"
        )
        assert len(scalings) == 1


class TestDilationMonotonicity:
    def test_averaging_never_breaks_majorization(self):
        rng = random.Random(47)
        for _ in range(80):
            partition = random_unequal_partition(rng, rng.randint(2, 4))
            f = random_step_function(rng, infinite=False, total=partition.total_measure)
            averaged = partition_average(partition, f)
            assert majorize(averaged.step_function(), f).holds


class TestBreakpointSufficiency:
    """The breakpoint procedure agrees with a dense rational grid."""

    def test_partial_integral_grid(self):
        rng = random.Random(53)
        for _ in range(60):
            f, g = random_pair_same_total(rng)
            span = max(f.support_measure, g.support_measure, F(1)) + 1
            grid_holds = all(
                f.partial_integral(span * k / 400) <= g.partial_integral(span * k / 400)
                for k in range(401)
                if span * k / 400 <= f.total_measure
            )
            breaks = weak_majorize(f, g).holds
            # the grid is a subset of all s, so it can only be more lenient
            if breaks:
                assert grid_holds

    def test_hinge_grid(self):
        rng = random.Random(59)
        for _ in range(60):
            f, g = random_pair_same_total(rng)
            top = max(f.ess_sup(), g.ess_sup()) + 1
            grid_holds = all(
                f.hinge_integral(top * k / 400) <= g.hinge_integral(top * k / 400)
                for k in range(401)
            )
            if hinge_criterion(f, g, weak=True).holds:
                assert grid_holds


def wide_pair(rng, kind):
    """Two step functions of about 60 level sets on one space, sharing some values.

    ``kind`` is "signed" (finite space, values of both signs), "finite" or
    "infinite" (both nonnegative).
    """
    low = -300 if kind == "signed" else 0

    def raw(shared=()):
        values = list(shared) + [
            F(rng.randint(low, 300), rng.choice((1, 2, 3, 5)))
            for _ in range(60 - len(shared))
        ]
        return [(v, F(rng.randint(1, 6), rng.randint(1, 12))) for v in values]

    f_raw = raw()
    g_raw = raw(rng.sample([v for v, _ in f_raw], 20))
    if kind == "infinite":
        total = INF
    else:
        support = max(sum(m for _, m in f_raw), sum(m for _, m in g_raw))
        total = F(math.ceil(support) + rng.randint(0, 1))
    return canonicalize(f_raw, total), canonicalize(g_raw, total)


class TestSweepsMatchDirectEvaluators:
    """Every checkpoint of every criterion equals the per-point definition."""

    EVALUATORS = {
        Criterion.REARRANGEMENT: "partial_integral",
        Criterion.HINGE: "hinge_integral",
        Criterion.TAIL_DISTRIBUTION: "tail_distribution_integral",
    }

    def verdicts(self, kind, f, g):
        for a, b in ((f, g), (g, f), (f, f)):
            yield a, b, majorize(a, b)
            yield a, b, weak_majorize(a, b)
            for weak in (False, True):
                for verdict in cross_check(a, b, weak=weak).verdicts[1:]:
                    yield a, b, verdict

    def expected_points(self, verdict, f, g):
        if verdict.criterion is Criterion.REARRANGEMENT:
            cuts = {F(0)} | set(f.cumulative_masses()) | set(g.cumulative_masses())
            points = sorted(cuts | ({f.total_measure} - {INF}))
            points += [INF] if f.infinite else []
            return points + ([] if verdict.weak else [f.total_measure])
        return sorted({F(0)} | set(f.values()) | set(g.values()))

    def test_checkpoints_equal_direct_evaluation(self):
        rng = random.Random(61)
        cache = {}

        def direct(h, name, point):
            key = (id(h), name, point)
            if key not in cache:
                cache[key] = getattr(h, name)(point)
            return cache[key]

        seen = set()
        for kind in ("signed", "finite", "infinite"):
            for _ in range(2):
                f, g = wide_pair(rng, kind)
                # keyed by id(): a freed pair's ids may be reused by the next
                cache.clear()
                assert min(len(f.pieces), len(g.pieces)) >= 40
                for a, b, verdict in self.verdicts(kind, f, g):
                    name = self.EVALUATORS[verdict.criterion]
                    points = [p.point for p in verdict.checked]
                    assert points == self.expected_points(verdict, a, b)
                    for p in verdict.checked:
                        assert type(p.left) is F and type(p.right) is F
                        assert p.left == direct(a, name, p.point)
                        assert p.right == direct(b, name, p.point)
                    strict_points = {p.point for p in verdict.checked
                                     if p.relation is Relation.EQ}
                    if verdict.weak:
                        assert not strict_points
                    elif verdict.criterion is Criterion.REARRANGEMENT:
                        assert verdict.checked[-1].relation is Relation.EQ
                        assert verdict.checked[-1].left == a.integral()
                    else:  # the smallest grid point: 0, or a negative value
                        assert strict_points == {verdict.checked[0].point}
                    assert verdict.violation == next(
                        (p for p in verdict.checked if not p.satisfied), None
                    )
                    seen.add((kind, verdict.criterion, verdict.holds))
        # both outcomes occur for every criterion on every kind of input
        for kind in ("signed", "finite", "infinite"):
            for criterion in self.EVALUATORS:
                assert {(kind, criterion, True), (kind, criterion, False)} <= seen

"""Criteria, certificates, cross-checks, and the preorder laws."""

import copy
import gc
import importlib
import inspect
import math
import pickle
import random
import sys
import threading
import weakref
from fractions import Fraction as F
from itertools import accumulate

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
from majo.errors import InternalInconsistencyError, MeasureMismatchError, NotMajorizedError
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
CLI = importlib.import_module("majo.cli")


def cumulative(f):
    """The running totals of f's level-set masses, the breakpoints of f*."""
    return accumulate(p.mass for p in f.pieces)


def fails(point):
    """The failure rule, stated apart from ``majorize._decide``: a ``<=``
    checkpoint fails on left > right, an ``==`` checkpoint on left != right."""
    if point.relation is Relation.LE:
        return point.left > point.right
    return point.left != point.right


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
            expected = {F(0), *cumulative(f), *cumulative(g)}
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

    def test_a_disagreeing_sweep_raises_with_all_three_verdicts(self, monkeypatch):
        """A hinge sweep that finds no violation, patched in, disagrees with
        the other two on a pair that is not majorized."""
        monkeypatch.setitem(MAJORIZE._SWEEPS, Criterion.HINGE, lambda *_: ())
        f, g = incomparable_pair()
        with pytest.raises(InternalInconsistencyError, match="criteria disagree") as err:
            cross_check(f, g)
        assert [(v.criterion, v.holds) for v in err.value.verdicts] == [
            (Criterion.REARRANGEMENT, False),
            (Criterion.HINGE, True),
            (Criterion.TAIL_DISTRIBUTION, False),
        ]


class TestDecideStopsAtTheFirstViolation:
    """_decide draws a criterion's checkpoint stream only through its first
    failing point; the rearrangement and hinge streams are generators, so
    they compute no point past it either (the tail stream is built from the
    top, in full)."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """One [stream, points drawn] record per sweep call, in call order."""
        records = []

        def counting(sweep):
            def counted(*args):
                record = [sweep(*args), 0]
                records.append(record)
                for point in record[0]:
                    record[1] += 1
                    yield point

            return counted

        for criterion, sweep in list(MAJORIZE._SWEEPS.items()):
            monkeypatch.setitem(MAJORIZE._SWEEPS, criterion, counting(sweep))
        return records

    def test_failing_pairs_are_drawn_through_their_first_failing_point(self, draws):
        rng = random.Random(53)
        pairs = [incomparable_pair(), incomparable_pair()[::-1]]
        pairs += [majorized_pair(rng)[::-1] for _ in range(30)]
        pairs += [random_pair_same_total(rng) for _ in range(30)]
        failed = 0
        for f, g in pairs:
            for weak in (False, True):
                for criterion in (
                    weak_majorize if weak else majorize,
                    lambda f, g: hinge_criterion(f, g, weak=weak),
                    lambda f, g: tail_distribution_criterion(f, g, weak=weak),
                ):
                    draws.clear()
                    verdict = criterion(f, g)
                    [(stream, drawn)] = draws
                    checked = verdict.checked
                    if verdict.holds:
                        assert drawn == len(checked)
                        continue
                    failed += 1
                    first = next(i for i, p in enumerate(checked) if fails(p))
                    assert drawn == first + 1, verdict.criterion
                    if verdict.criterion is not Criterion.TAIL_DISTRIBUTION:
                        # paused at the yield of the failing point
                        assert inspect.getgeneratorstate(stream) == inspect.GEN_SUSPENDED
        assert failed >= 150


class TestOneScalingPerCall:
    """A pair is put on integers once per cross_check, per ds_witness and per
    majo check, and once for both directions: the scaling is cached on the
    pair's two level tuples, for the last pair only."""

    @pytest.fixture
    def scalings(self, monkeypatch):
        """The number of pairs put on integers so far: one scaling calls
        _scale_ratios twice, on the values and on the masses of both
        functions."""
        calls, scale = [], MAJORIZE._scale_ratios

        def counting(ratios):
            calls.append(ratios)
            return scale(ratios)

        MAJORIZE._scaled_levels.cache_clear()  # the cache outlives a test
        monkeypatch.setattr(MAJORIZE, "_scale_ratios", counting)
        return lambda: len(calls) / 2

    @pytest.mark.parametrize("weak", [False, True])
    def test_cross_check_scales_once(self, scalings, weak):
        f, g = majorized_pair(random.Random(5))
        report = cross_check(f, g, weak=weak)
        assert scalings() == 1
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
        assert scalings() == 1
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == "not majorized (the reverse direction holds)"

    def test_ds_witness_scales_once(self, scalings):
        f, g = majorized_pair(random.Random(7))
        assert ds_witness(f, g).apply_to(g) == f
        assert scalings() == 1

    @pytest.mark.parametrize("weak", [False, True])
    def test_the_reverse_direction_reuses_the_scaling(self, scalings, weak):
        """majorize(g, f) after cross_check(f, g), as majo check and the
        decide benchmark ask it, takes the cached scaling with its halves
        swapped; fresh equal copies of the pair reuse it and give the same
        verdict."""
        f, g = majorized_pair(random.Random(11))
        assert cross_check(f, g, weak=weak).holds
        reverse = weak_majorize(g, f) if weak else majorize(g, f)
        assert scalings() == 1
        g2, f2 = (canonicalize(h.pieces, h.total_measure) for h in (g, f))
        assert reverse == (weak_majorize(g2, f2) if weak else majorize(g2, f2))
        assert scalings() == 1

    def test_an_equal_partner_shares_the_scaling(self, scalings):
        """The scaling depends on the two level tuples only, so an equal but
        distinct partner shares it, from either side."""
        f, g = majorized_pair(random.Random(13))
        twin = canonicalize(g.pieces, g.total_measure)
        assert twin == g and twin is not g
        scaled = MAJORIZE._scaled(f, g)
        assert MAJORIZE._scaled(f, twin) == scaled
        back = MAJORIZE._scaled(twin, f)
        assert back == (*scaled[:2], scaled[3], scaled[2])
        assert scalings() == 1

    def test_the_partner_is_not_kept_alive(self, scalings):
        f, g = majorized_pair(random.Random(17))
        assert cross_check(f, g).holds  # the report, dropped here, holds g
        partner = weakref.ref(g)
        del g
        gc.collect()
        assert partner() is None
        assert majorize(f, f).holds and scalings() == 2

    def test_scaling_writes_nothing_into_the_functions(self):
        """Every call that scales a pair, accepted or refused and in both
        argument orders, leaves each function holding its own state only."""
        f, g = majorized_pair(random.Random(23))
        for call in (cross_check, lambda a, b: cross_check(a, b, weak=True), majorize,
                     hinge_criterion, tail_distribution_criterion):
            assert call(f, g).holds
        assert not majorize(g, f).holds and not weak_majorize(g, f).holds
        assert ds_witness(f, g).apply_to(g) == f
        with pytest.raises(NotMajorizedError):
            ds_witness(g, f)
        for h in (f, g):
            assert set(vars(h)) <= {"_levels", "_pieces", "total_measure"}

    def test_a_scaled_function_pickles_without_its_partner(self):
        f, g = majorized_pair(random.Random(19))
        assert cross_check(f, g).holds
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and "_scaling" not in vars(copy)

    def test_threads_sharing_functions_get_fresh_results(self):
        """Threads scaling pairs of one shared family with switching partners,
        under a short switch interval, get what fresh copies give."""
        rng = random.Random(23)
        family = [random_step_function(rng, infinite=True) for _ in range(4)]
        copies = [canonicalize(h.pieces, INF) for h in family]
        fresh = {
            (i, j): MAJORIZE._scaled(copies[i], copies[j])
            for i in range(4) for j in range(4) if i != j
        }
        errors = []

        def work(seed):
            r = random.Random(seed)
            for _ in range(300):
                i, j = r.sample(range(4), 2)
                scaled = MAJORIZE._scaled(family[i], family[j])
                if scaled != fresh[i, j]:
                    errors.append((i, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_a_kept_record_is_never_written(self, scalings):
        """Every later call that scales the pair, in either argument order,
        reads the cached record and leaves each of its fields as it was."""
        f, g = majorized_pair(random.Random(29))
        MAJORIZE._scaled(f, g)
        key = sorted((f._levels, g._levels))
        kept = MAJORIZE._scaled_levels(*key)
        snapshot = copy.deepcopy(kept)
        calls = (cross_check, lambda a, b: cross_check(a, b, weak=True), majorize,
                 weak_majorize, hinge_criterion, tail_distribution_criterion,
                 ds_witness, MAJORIZE._scaled)
        for call in calls:
            for a, b in ((f, g), (g, f)):
                try:
                    call(a, b)
                except NotMajorizedError:
                    pass
                assert MAJORIZE._scaled_levels(*key) is kept
                assert kept == snapshot
        assert scalings() == 1

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
        assert scalings() == 1


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
            cuts = {F(0), *cumulative(f), *cumulative(g)}
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
                        (p for p in verdict.checked if fails(p)), None
                    )
                    seen.add((kind, verdict.criterion, verdict.holds))
        # both outcomes occur for every criterion on every kind of input
        for kind in ("signed", "finite", "infinite"):
            for criterion in self.EVALUATORS:
                assert {(kind, criterion, True), (kind, criterion, False)} <= seen

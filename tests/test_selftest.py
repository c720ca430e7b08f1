"""The suite's own machinery: scaled oracles, determinism, fixtures."""

import random
from fractions import Fraction as F
from types import SimpleNamespace

from majo import selftest
from majo.selftest import (
    SUITE,
    _scaled_hinge_values,
    _scaled_partial_values,
    criterion_fixtures,
    criterion_grid_oracle,
    run_all,
)
from majo.sampling import random_integer_step_function


class TestScaledOracles:
    """The integer sweep must agree with direct rational evaluation."""

    def test_partial_values_match_fraction_arithmetic(self):
        rng = random.Random(163)
        for _ in range(25):
            f = random_integer_step_function(rng)
            span, grid = int(f.support_measure) + 1, 64
            scaled = _scaled_partial_values(f, span, grid)
            for k in range(grid + 1):
                s = F(k * span, grid)
                assert F(scaled[k], grid) == f.partial_integral(s)

    def test_hinge_values_match_fraction_arithmetic(self):
        rng = random.Random(167)
        for _ in range(25):
            f = random_integer_step_function(rng)
            span, grid = int(f.ess_sup()) + 1, 64
            scaled = _scaled_hinge_values(f, span, grid)
            for k in range(grid + 1):
                u = F(k * span, grid)
                assert F(scaled[k], grid) == f.hinge_integral(u)


class TestDeterminism:
    def test_same_seed_reproduces_the_battery(self):
        first = criterion_grid_oracle(99)
        second = criterion_grid_oracle(99)
        assert first.note == second.note
        assert first.failures == second.failures


class TestRunner:
    def test_only_filter(self):
        outcomes = run_all(3, only=["fixtures"])
        assert len(outcomes) == 1
        assert outcomes[0].passed

    def test_fixture_battery_counts(self):
        outcome = criterion_fixtures(0)
        assert outcome.passed
        assert outcome.cases == 8

    def test_each_battery_alone_gives_its_outcome_from_the_full_run(self):
        full = run_all(0)
        assert len(full) == len(SUITE)
        for (name, _), whole in zip(SUITE, full):
            (alone,) = run_all(0, only=[name])
            assert (alone.name, alone.cases, alone.note, alone.failures) == (
                whole.name, whole.cases, whole.note, whole.failures
            ), name

    def test_every_battery_fails_past_the_budget(self, monkeypatch):
        clock = iter([0.0, 31.0]).__next__
        monkeypatch.setattr(selftest, "time", SimpleNamespace(monotonic=clock))
        outcome = criterion_fixtures(0)
        assert outcome.failures == ["runtime 31.0s breaches the 30s budget"]

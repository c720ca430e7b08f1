"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every battery is exact (rational arithmetic, zero tolerance) and seeded, so
a failure message is a reproducible counterexample. Run with ``pytest -s``
to see the per-criterion lines.
"""

from fractions import Fraction as F

from majo import (
    INF,
    OperatorClass,
    canonicalize,
    classify_matrix,
    cross_check,
    weak_majorize,
)
from majo.selftest import (
    SuiteOutcome,
    criterion_equi_bound,
    criterion_equivalence,
    criterion_fixtures,
    criterion_grid_oracle,
    criterion_markov_norm,
    criterion_partition_ops,
    criterion_sds_majorization,
    criterion_witness,
    incomparable_fixture,
    shift_truncation,
    summing_truncation,
)

SEED = 20260810


def _report(outcome: SuiteOutcome) -> None:
    print()
    print(outcome.line())
    for message in outcome.failures:
        print("   ", message)
    assert outcome.passed, f"{outcome.name}: {outcome.failures}"


def test_criterion_1_three_criteria_agree_exactly():
    """>= 1000 random pairs, finite and infinite, zero-tolerance agreement."""
    outcome = criterion_equivalence(SEED)
    _report(outcome)
    assert outcome.cases >= 1000
    assert outcome.elapsed_s < 30.0


def test_criterion_2_published_fixtures():
    """The incomparable example pair and the three operator truncations."""
    outcome = criterion_fixtures(SEED)
    _report(outcome)
    # re-assert the headline facts directly, independent of the battery
    f, g = incomparable_fixture()
    assert f == canonicalize([(3, 1), (F(1, 2), 1)], INF)
    forward, backward = weak_majorize(f, g), weak_majorize(g, f)
    assert (forward.holds, backward.holds) == (False, False)
    assert (forward.violation.point, backward.violation.point) == (1, 2)
    assert (forward.violation.left, forward.violation.right) == (3, 2)
    assert (backward.violation.left, backward.violation.right) == (4, F(7, 2))
    assert not cross_check(f, g).holds and not cross_check(g, f).holds
    assert classify_matrix(summing_truncation(4)) is OperatorClass.MARKOV
    assert (
        classify_matrix(shift_truncation(5, 4))
        is OperatorClass.SEMI_DOUBLY_STOCHASTIC
    )
    from majo import OperatorMatrix

    assert (
        classify_matrix(OperatorMatrix.identity(4))
        is OperatorClass.DOUBLY_STOCHASTIC
    )


def test_criterion_3_sds_images_are_majorized():
    """>= 500 equal-mass SDS lifts; the Markov-only fixture is defeated."""
    outcome = criterion_sds_majorization(SEED)
    _report(outcome)
    assert outcome.cases >= 500
    assert "defeated" in outcome.note


def test_criterion_4_witness_exactness():
    """>= 500 constructed pairs; chains of <= n-1 exact doubly stochastic steps."""
    outcome = criterion_witness(SEED)
    _report(outcome)
    assert outcome.cases >= 500


def test_criterion_5_averaging_lifting_kernels():
    """Averaging is doubly stochastic; lift(D) is D on equal masses; marginals hold."""
    outcome = criterion_partition_ops(SEED)
    _report(outcome)


def test_criterion_6_equi_integrability_bound():
    """>= 50 SDS operators on each of 10 functions, all c and delta grid points."""
    outcome = criterion_equi_bound(SEED)
    _report(outcome)
    assert outcome.cases >= 500


def test_criterion_7_markov_norm():
    """>= 500 random Markov matrices: exact isometry on the positive cone."""
    outcome = criterion_markov_norm(SEED)
    _report(outcome)
    assert outcome.cases >= 500


def test_criterion_8_breakpoints_match_dense_grid():
    """>= 200 pairs against a 10^4-point grid for both scan families."""
    outcome = criterion_grid_oracle(SEED)
    _report(outcome)
    assert outcome.cases >= 200

"""Canonical form, rearrangement, distribution, and integral primitives."""

import random
from fractions import Fraction as F
from itertools import accumulate

import pytest

from majo import (
    INF,
    StepFunction,
    canonicalize,
    cross_check,
    ds_witness,
    hinge_criterion,
    majorize,
)
from majo import stepfn
from majo.cli import main
from majo.formats import loads_sfn
from majo.errors import (
    DivergentHingeError,
    MassExceedsTotalError,
    NegativeMassError,
    NegativeValueOnInfiniteSpaceError,
    SOutOfRangeError,
)
from majo.sampling import random_step_function


def tall_narrow():
    """3 on a unit of mass, then 1/2 on another unit, zero beyond."""
    return canonicalize([(3, 1), (F(1, 2), 1)], INF)


def low_wide():
    return canonicalize([(2, 2)], INF)


class TestCanonicalize:
    def test_merges_equal_values(self):
        f = canonicalize([(2, 1), (2, 1)], 2)
        assert f.pieces == ((F(2), F(2)),)
        assert f.total_measure == 2

    def test_zero_piece_absorbed_into_infinite_tail(self):
        f = canonicalize([(0, 5), (3, 1)], INF)
        assert f.pieces == ((F(3), F(1)),)
        assert f.total_measure is INF

    def test_negative_value_on_infinite_space_rejected(self):
        with pytest.raises(NegativeValueOnInfiniteSpaceError):
            canonicalize([(1, 1), (-1, 1)], INF)

    def test_sorts_decreasing(self):
        f = canonicalize([(1, 2), (5, 1)], 3)
        assert f.values() == (F(5), F(1))

    def test_finite_space_padded_with_zero(self):
        f = canonicalize([(2, 1)], 3)
        assert f.pieces == ((F(2), F(1)), (F(0), F(2)))
        assert f.integral() == 2

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(NegativeMassError):
            canonicalize([(1, 0)], INF)
        with pytest.raises(NegativeMassError):
            canonicalize([(1, -2)], 4)

    def test_mass_exceeding_total_rejected(self):
        with pytest.raises(MassExceedsTotalError):
            canonicalize([(1, 3)], 2)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_step_function(rng, signed=True)
            again = canonicalize(f.pieces, f.total_measure)
            assert again == f

    def test_signed_values_allowed_on_finite_space(self):
        f = canonicalize([(-1, 1), (2, 1)], 2)
        assert f.values() == (F(2), F(-1))

    def test_direct_construction_requires_canonical_form(self):
        with pytest.raises(ValueError):
            StepFunction(pieces=((F(1), F(1)), (F(2), F(1))), total_measure=F(2))


# invariants canonicalize leaves to StepFunction: (raw pieces, canonical
# pieces, total, .sfn text, error)
STEPFUNCTION_INVARIANTS = {
    "negative-value-on-infinite-space": (
        [(2, 1), (-1, 1)],
        ((F(2), F(1)), (F(-1), F(1))),
        INF,
        "total inf\n2 1\n-1 1\n",
        NegativeValueOnInfiniteSpaceError,
    ),
    "masses-above-total": (
        [(1, 2), (1, 1)],
        ((F(1), F(3)),),
        2,
        "total 2\n1 2\n1 1\n",
        MassExceedsTotalError,
    ),
    "negative-total": (
        [(1, 1)],
        ((F(1), F(1)),),
        -1,
        "total -1\n1 1\n",
        MassExceedsTotalError,
    ),
}


@pytest.mark.parametrize("invariant", sorted(STEPFUNCTION_INVARIANTS))
class TestOneCheckPerInvariant:
    def test_canonicalize_and_direct_construction_raise_alike(self, invariant):
        raw, pieces, total, _, error = STEPFUNCTION_INVARIANTS[invariant]
        with pytest.raises(error) as via_canonicalize:
            canonicalize(raw, total)
        with pytest.raises(error) as direct:
            StepFunction(pieces, total)
        assert type(via_canonicalize.value) is type(direct.value)
        assert str(via_canonicalize.value) == str(direct.value)

    def test_sfn_loader_raises_the_same_error(self, invariant):
        raw, _, total, text, error = STEPFUNCTION_INVARIANTS[invariant]
        with pytest.raises(error) as via_canonicalize:
            canonicalize(raw, total)
        with pytest.raises(error) as loaded:
            loads_sfn(text)
        assert str(loaded.value) == str(via_canonicalize.value)


# text errors the integer path checks: (.sfn text, error, message). The
# level-set lines are also handed to canonicalize as p/q strings.
TEXT_ERRORS = {
    "first-nonpositive-mass-in-file-order": (
        "total 10\n1 2\n2 -4/2\n3 0/5\n",
        NegativeMassError,
        "mass -2 must be positive",
    ),
    "zero-mass-before-negative-mass": (
        "total inf\n5 1\n1 -0/3\n2 -1\n",
        NegativeMassError,
        "mass 0 must be positive",
    ),
    "masses-over-the-total": (
        "total 3\n1 4/2\n2 6/6\n1/2 1/3\n",
        MassExceedsTotalError,
        "masses sum to 10/3 > total measure 3",
    ),
    "negative-total": (
        "total -1/2\n1 1\n",
        MassExceedsTotalError,
        "total measure -1/2 must be nonnegative",
    ),
    "negative-value-on-an-infinite-space": (
        "total inf\n-6/4 1\n2 1\n-1/3 2\n-1/3 1\n",
        NegativeValueOnInfiniteSpaceError,
        "value -1/3 < 0 on an infinite measure space",
    ),
}


@pytest.mark.parametrize("case", sorted(TEXT_ERRORS))
def test_text_errors_match_canonicalize_and_exit_2(case, tmp_path, capsys):
    """The loader hands its integers to canonicalize's integer core: the same
    error, with the same message, as canonicalize on the same pieces, and
    ``majo check`` exits 2 with it."""
    text, error, message = TEXT_ERRORS[case]
    header, *lines = text.splitlines()
    pieces = [line.split() for line in lines]
    total = header.split()[1]
    with pytest.raises(error) as loaded:
        loads_sfn(text)
    with pytest.raises(error) as via_canonicalize:
        canonicalize(pieces, total)
    assert str(loaded.value) == str(via_canonicalize.value) == message
    path = tmp_path / "f.sfn"
    path.write_text(text)
    assert main(["check", str(path), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestPiecesBuiltOnFirstRead:
    """A function read from text keeps its level sets as integer pairs: the
    decisions and the witness never build its ``pieces``."""

    F_TEXT = "total inf\n7/4 2\n"  # g averaged over its two level sets
    G_TEXT = "total inf\n6/2 1\n1/2 1\n"

    @pytest.fixture
    def builds(self, monkeypatch):
        """The level sets each ``pieces`` view is built from, in order."""
        calls, build = [], stepfn._pieces

        def counting(levels):
            calls.append(levels)
            return build(levels)

        monkeypatch.setattr(stepfn, "_pieces", counting)
        return calls

    def test_decisions_and_the_witness_build_no_pieces(self, builds):
        f, g = loads_sfn(self.F_TEXT).function, loads_sfn(self.G_TEXT).function
        assert cross_check(f, g).holds
        rearrangement, hinge = majorize(g, f), hinge_criterion(g, f)
        assert ds_witness(f, g).apply_to(g) == f
        assert not rearrangement.holds and not hinge.holds
        assert builds == []
        point = rearrangement.violation
        assert (g.partial_integral(point.point), f.partial_integral(point.point)) == (
            point.left, point.right)
        point = hinge.violation
        assert (g.hinge_integral(point.point), f.hinge_integral(point.point)) == (
            point.left, point.right)
        assert point.left > point.right

    def test_a_second_read_returns_the_same_object(self, builds):
        f, g = loads_sfn(self.F_TEXT).function, loads_sfn(self.G_TEXT).function
        verdict = majorize(f, g)
        checked = verdict.checked  # the certificate sweeps both functions' pieces
        assert verdict.checked is checked
        assert builds == [f._levels, g._levels]
        pieces = f.pieces
        assert f.pieces is pieces and pieces == ((F(7, 4), F(2)),)
        h = loads_sfn(self.F_TEXT).function
        assert h.pieces is h.pieces
        assert builds == [f._levels, g._levels, h._levels]


class TestIntegral:
    def test_example_pair(self):
        assert tall_narrow().integral() == F(7, 2)
        assert low_wide().integral() == 4

    def test_zero_function(self):
        assert canonicalize([], INF).integral() == 0
        assert canonicalize([], 5).integral() == 0


class TestDistribution:
    def test_strict_count(self):
        assert tall_narrow().distribution(1) == 1

    def test_zero_at_ess_sup(self):
        assert low_wide().distribution(2) == 0

    def test_infinite_below_zero(self):
        assert tall_narrow().distribution(-1) is INF

    def test_finite_at_zero_despite_tail(self):
        # the super-level set is strict, so the zero tail never counts
        assert tall_narrow().distribution(0) == 2

    def test_finite_space_counts_whole_space_below_minimum(self):
        f = canonicalize([(2, 1), (-1, 1)], 2)
        assert f.distribution(-5) == 2


class TestRearrangement:
    def test_sorting(self):
        f = canonicalize([(1, 2), (5, 1)], 3)
        assert f.rearrangement().pieces == ((F(5), F(1)), (F(1), F(2)))

    def test_idempotent(self):
        f = tall_narrow()
        assert f.rearrangement() == f

    def test_equimeasurable(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_step_function(rng)
            r = f.rearrangement()
            grid = {v for v in f.values()} | {F(0), F(1, 3)}
            grid |= {v + F(1, 7) for v in f.values()}
            for t in grid:
                assert r.distribution(t) == f.distribution(t)


class TestPartialIntegral:
    def test_top_slice(self):
        assert low_wide().partial_integral(1) == 2

    def test_zero_at_zero(self):
        assert tall_narrow().partial_integral(0) == 0

    def test_whole_space_equals_integral(self):
        assert tall_narrow().partial_integral(INF) == F(7, 2)

    def test_out_of_range(self):
        with pytest.raises(SOutOfRangeError):
            low_wide().partial_integral(-1)
        with pytest.raises(SOutOfRangeError):
            canonicalize([(1, 2)], 2).partial_integral(3)

    def test_concave_nondecreasing_slopes(self):
        rng = random.Random(23)
        for _ in range(60):
            f = random_step_function(rng, signed=True)
            cuts = (F(0), *accumulate(p.mass for p in f.pieces))
            slopes = []
            for lo, hi in zip(cuts, cuts[1:]):
                if hi > lo:
                    slopes.append(
                        (f.partial_integral(hi) - f.partial_integral(lo)) / (hi - lo)
                    )
            assert all(a >= b for a, b in zip(slopes, slopes[1:]))


class TestHingeIntegral:
    def test_example_values(self):
        assert tall_narrow().hinge_integral(1) == 2
        assert low_wide().hinge_integral(1) == 2

    def test_zero_above_ess_sup(self):
        f = tall_narrow()
        assert f.hinge_integral(f.ess_sup()) == 0
        assert f.hinge_integral(f.ess_sup() + 5) == 0

    def test_layer_cake_at_zero(self):
        rng = random.Random(3)
        for _ in range(60):
            f = random_step_function(rng)
            assert f.hinge_integral(0) == f.integral()

    def test_divergent_below_zero_on_infinite_space(self):
        with pytest.raises(DivergentHingeError):
            tall_narrow().hinge_integral(-1)

    def test_tail_integral_diverges_below_zero_on_infinite_space(self):
        with pytest.raises(DivergentHingeError, match="u = -1 < 0 diverges"):
            tall_narrow().tail_distribution_integral(-1)

    def test_negative_threshold_on_finite_space(self):
        f = canonicalize([(2, 1), (0, 1)], 2)
        assert f.hinge_integral(-1) == f.integral() + 2

    def test_convex_nonincreasing_in_u(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_step_function(rng)
            grid = sorted({F(0)} | set(f.values()) | {v + F(1, 2) for v in f.values()})
            vals = [f.hinge_integral(u) for u in grid]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            # slopes of a convex function increase
            slopes = [
                (vb - va) / (ub - ua)
                for (ua, va), (ub, vb) in zip(zip(grid, vals), zip(grid[1:], vals[1:]))
                if ub > ua
            ]
            assert all(a <= b for a, b in zip(slopes, slopes[1:]))


class TestHingeIdentity:
    """The hinge integral equals the tail integral of the distribution, exactly."""

    def test_example(self):
        f = tall_narrow()
        assert f.tail_distribution_integral(1) == f.hinge_integral(1) == 2

    def test_randomized_exact_equality(self):
        rng = random.Random(41)
        for _ in range(200):
            f = random_step_function(rng)
            grid = {F(0), F(1, 3)} | set(f.values()) | {v / 2 for v in f.values()}
            for u in grid:
                assert f.tail_distribution_integral(u) == f.hinge_integral(u)

    def test_signed_on_finite_space(self):
        f = canonicalize([(3, 1), (-2, 2)], 3)
        for u in (F(-3), F(-2), F(0), F(1), F(3), F(7, 2)):
            assert f.tail_distribution_integral(u) == f.hinge_integral(u)


class TestEssSup:
    def test_example(self):
        assert tall_narrow().ess_sup() == 3

    def test_zero_function(self):
        assert canonicalize([], INF).ess_sup() == 0
        assert canonicalize([], 2).ess_sup() == 0

    def test_constant(self):
        assert canonicalize([(F(5, 3), 7)], 7).ess_sup() == F(5, 3)

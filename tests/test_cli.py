"""End-to-end command-line behavior: exit codes, reports, round trips."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import majo
from majo import canonicalize
from majo.cli import main
from majo.errors import ParseError
from majo.formats import loads_mat, loads_sfn


@pytest.fixture
def workdir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return tmp_path, write


def incomparable(write):
    f = write("f.sfn", "total inf\n3 1\n1/2 1\n")
    g = write("g.sfn", "total inf\n2 2\n")
    return f, g


def majorized(write):
    f = write("a.sfn", "total 2\n1 2\n")
    g = write("b.sfn", "total 2\n2 1\n0 1\n")
    return f, g


def identity_family(workdir):
    """``total inf`` / ``2 1`` and a directory holding the 1x1 identity."""
    tmp, write = workdir
    (tmp / "ops").mkdir()
    (tmp / "ops" / "identity.mat").write_text("1 1\n1\n")
    return write("f.sfn", "total inf\n2 1\n"), str(tmp / "ops")


class TestCheck:
    def test_incomparable_pair_exits_one(self, workdir, capsys):
        _, write = workdir
        f, g = incomparable(write)
        assert main(["check", f, g]) == 1
        out = capsys.readouterr().out
        assert "incomparable: both directions fail" in out

    def test_majorized_pair_exits_zero(self, workdir, capsys):
        _, write = workdir
        f, g = majorized(write)
        assert main(["check", f, g]) == 0
        assert "f is majorized by g" in capsys.readouterr().out

    def test_single_criterion(self, workdir, capsys):
        _, write = workdir
        f, g = majorized(write)
        assert main(["check", f, g, "--criterion", "hinge"]) == 0
        assert "hinge: holds" in capsys.readouterr().out

    def test_weak_flag_drops_equality(self, workdir):
        _, write = workdir
        half = write("half.sfn", "total 2\n1 2\n")
        g = write("g2.sfn", "total 2\n2 2\n")
        assert main(["check", half, g]) == 1
        assert main(["check", half, g, "--weak"]) == 0

    def test_json_report_is_deterministic(self, workdir, capsys):
        _, write = workdir
        f, g = incomparable(write)
        main(["check", f, g, "--json"])
        first = capsys.readouterr().out
        main(["check", f, g, "--json"])
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["summary"] == "incomparable: both directions fail"
        assert report["certificate"] == {
            "point": "1",
            "left": "3",
            "right": "2",
            "relation": "<=",
        }
        assert report["timings"] is None

    def test_timings_add_only_the_total(self, workdir, capsys):
        _, write = workdir
        f, g = incomparable(write)
        main(["check", f, g, "--json"])
        plain = json.loads(capsys.readouterr().out)
        main(["check", f, g, "--json", "--timings"])
        timed = json.loads(capsys.readouterr().out)
        assert plain.pop("timings") is None
        assert timed.pop("timings")["total_s"] >= 0
        assert timed == plain

    def test_reverse_direction_reported(self, workdir, capsys):
        _, write = workdir
        f, g = majorized(write)
        assert main(["check", g, f]) == 1
        assert "reverse direction holds" in capsys.readouterr().out

    def test_missing_file_exits_two(self, workdir, capsys):
        tmp, _ = workdir
        assert main(["check", str(tmp / "nope.sfn"), str(tmp / "nope.sfn")]) == 2

    def test_parse_error_exits_two(self, workdir, capsys):
        _, write = workdir
        bad = write("bad.sfn", "total 2\n0.5 1\n")
        good = write("good.sfn", "total 2\n1 2\n")
        assert main(["check", bad, good]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_signed_pair_is_cross_checked(self, workdir, capsys):
        _, write = workdir
        balanced = write("balanced.sfn", "total 2\n0 2\n")
        seesaw = write("seesaw.sfn", "total 2\n1 1\n-1 1\n")
        assert main(["check", balanced, seesaw]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == [
            "rearrangement: holds",
            "hinge: holds",
            "tail-distribution: holds",
            "cross-check: all criteria agree",
        ]
        assert main(["check", seesaw, balanced]) == 1
        out = capsys.readouterr().out
        assert "hinge: fails at 0 (1 > 0)" in out
        assert "tail-distribution: fails at 0 (1 > 0)" in out
        assert "cross-check: all criteria agree" in out


class TestWitnessRoundTrip:
    def test_witness_then_apply_reproduces_f(self, workdir, capsys):
        tmp, write = workdir
        f, g = majorized(write)
        out = str(tmp / "D.mat")
        assert main(["witness", f, g, "-o", out]) == 0
        capsys.readouterr()
        image = str(tmp / "image.sfn")
        assert main(["apply", out, g, "-o", image]) == 0
        capsys.readouterr()
        assert loads_sfn(Path(image).read_text()).function == loads_sfn(Path(f).read_text()).function

    def test_witness_refuses_incomparable(self, workdir, capsys):
        tmp, write = workdir
        f, g = incomparable(write)
        assert main(["witness", f, g, "-o", str(tmp / "D.mat")]) == 1
        assert "not majorized" in capsys.readouterr().err

    def test_witness_over_the_atom_budget_exits_two_without_writing(
        self, workdir, capsys
    ):
        tmp, write = workdir
        # g has level sets of masses 1/2003 and 1/1999, f is its average
        f = write("f.sfn", "total inf\n6001/4002 4002/4003997\n")
        g = write("g.sfn", "total inf\n2 1/2003\n1 1/1999\n")
        out = tmp / "D.mat"
        assert main(["witness", f, g, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "4002 atoms" in err and "budget of 1024" in err
        assert not out.exists()

    def test_emitted_matrix_reparses(self, workdir, capsys):
        tmp, write = workdir
        f, g = majorized(write)
        out = str(tmp / "D.mat")
        main(["witness", f, g, "-o", out])
        capsys.readouterr()
        matrix = loads_mat(Path(out).read_text())
        assert matrix.entries == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_infinite_space_round_trip_with_atom_mass(self, workdir, capsys):
        tmp, write = workdir
        f = write("flat.sfn", "total inf\n1 4\n")
        g = write("peak.sfn", "total inf\n2 2\n")
        out = str(tmp / "D.mat")
        assert main(["witness", f, g, "-o", out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        image = str(tmp / "image.sfn")
        assert (
            main(["apply", out, g, "--atom-mass", report["atom_mass"], "-o", image])
            == 0
        )
        capsys.readouterr()
        assert loads_sfn(Path(image).read_text()).function == loads_sfn(Path(f).read_text()).function


def test_witness_that_does_not_carry_g_onto_f_exits_three(workdir, capsys, monkeypatch):
    """A chain whose image is not f is reported as an internal inconsistency,
    before anything is printed or written."""
    from majo import operators

    scan = operators._t_transform_chain

    def identity_steps(masses, target, source):
        steps = scan(masses, target, source)
        if isinstance(steps, int):
            return steps
        return tuple(operators.TTransform(s.j, s.k, 1) for s in steps)

    monkeypatch.setattr("majo.operators._t_transform_chain", identity_steps)
    tmp, write = workdir
    f, g = majorized(write)
    out = tmp / "D.mat"
    for extra in ([], ["--json"]):
        assert main(["witness", f, g, "-o", str(out), *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal inconsistency: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


class TestWitnessWithoutMatrix:
    def test_json_reports_the_level_set_chain_without_a_grid(self, workdir, capsys):
        tmp, write = workdir
        # g has level sets of masses 1/10007 and 1/9973 (a gcd grid of 19 980
        # atoms), f is its average; the chain needs two atoms and one step
        f = write("f.sfn", "total inf\n29953/19980 19980/99799811\n")
        g = write("g.sfn", "total inf\n2 1/10007\n1 1/9973\n")
        assert main(["witness", f, g, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partition"] == ["1/10007", "1/9973"]
        assert len(report["steps"]) == 1
        assert report["witness_path"] is None
        assert (report["dimension"], report["atom_mass"]) == (None, None)
        assert sorted(p.name for p in tmp.iterdir()) == ["f.sfn", "g.sfn"]
        assert main(["witness", f, g, "-o", str(tmp / "D.mat")]) == 2
        assert "19980 atoms" in capsys.readouterr().err

    def test_text_report_names_the_atoms(self, workdir, capsys):
        _, write = workdir
        f, g = majorized(write)
        assert main(["witness", f, g]) == 0
        assert capsys.readouterr().out == "chain of 1 T-transform(s) on 2 level-set atom(s)\n"

    def test_partition_indexes_the_steps_and_the_grid_describes_the_matrix(
        self, workdir, capsys
    ):
        tmp, write = workdir
        f = write("f.sfn", "total 3\n1 3\n")
        g = write("g.sfn", "total 3\n2 1\n1/2 2\n")
        out = str(tmp / "D.mat")
        assert main(["witness", f, g, "-o", out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["partition"] == ["1", "2"]
        assert report["steps"] == [[0, 1, "1/3"]]
        assert (report["dimension"], report["atom_mass"]) == (3, "1")
        assert loads_mat(Path(out).read_text()).rows == 3
        image = str(tmp / "image.sfn")
        assert main(["apply", out, g, "-o", image]) == 0
        capsys.readouterr()
        assert loads_sfn(Path(image).read_text()).function == loads_sfn(Path(f).read_text()).function


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python writes integers of any length",
)
def test_output_over_the_digit_limit_exits_two_without_writing(workdir, capsys):
    tmp, write = workdir
    # one value on masses 1/p and 1/q merges into a mass with a 4401-digit
    # denominator p*q, though each input number has 2201 digits
    p, q = 10**2200 + 1, 10**2200 + 3
    source = write("long.sfn", f"total inf\n1 1/{p}\n1 1/{q}\n")
    out = tmp / "out.sfn"
    for extra in ([], ["--json"]):
        assert main(["rearrange", source, "-o", str(out), *extra]) == 2
        assert "4401 digits" in capsys.readouterr().err
        assert not out.exists()


class TestNullWitness:
    def test_null_space_writes_the_empty_witness(self, workdir, capsys):
        tmp, write = workdir
        null = write("z.sfn", "total 0\n")
        out = str(tmp / "D.mat")
        assert main(["check", null, null]) == 0
        capsys.readouterr()
        assert main(["witness", null, null, "-o", out]) == 0
        assert "on no atoms" in capsys.readouterr().out
        assert Path(out).read_text() == "0 0\n"
        assert loads_mat(Path(out).read_text()).entries == ()
        assert main(["witness", null, null, "-o", out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["dimension"], report["atom_mass"]) == (0, None)

    @pytest.mark.parametrize("total", ["0", "inf"])
    def test_null_witness_round_trips_through_apply(self, workdir, capsys, total):
        tmp, write = workdir
        null = write("z.sfn", f"total {total}\n")
        out, image = str(tmp / "D.mat"), str(tmp / "out.sfn")
        assert main(["witness", null, null, "-o", out]) == 0
        alignment = ["--atom-mass", "1"] if total == "inf" else []
        assert main(["apply", out, null, *alignment, "-o", image]) == 0
        assert main(["rearrange", image]) == 0
        capsys.readouterr()
        assert loads_sfn(Path(image).read_text()).function == canonicalize([], total)


class TestClassify:
    def test_identity_doubly_stochastic(self, workdir, capsys):
        tmp, write = workdir
        path = write("i.mat", "2 2\n1 0\n0 1\n")
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.strip() == "doubly-stochastic"

    def test_shift_semi_doubly(self, workdir, capsys):
        _, write = workdir
        path = write(
            "shift.mat", "5 4\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        )
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.strip() == "semi-doubly-stochastic"

    def test_summing_markov(self, workdir, capsys):
        _, write = workdir
        path = write("t1.mat", "4 4\n1 1 1 1\n0 0 0 0\n0 0 0 0\n0 0 0 0\n")
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.strip() == "markov"


class TestLiftKernelApply:
    def test_lift_unequal_masses(self, workdir, capsys):
        _, write = workdir
        part = write("p.sfn", "total 3\npartition 1 2\n")
        swap = write("swap.mat", "2 2\n0 1\n1 0\n")
        assert main(["lift", part, swap, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == [["0", "2"], ["1/2", "0"]]

    def test_kernel_report(self, workdir, capsys):
        _, write = workdir
        part = write("p.sfn", "total 2\npartition 1 1\n")
        ident = write("i.mat", "2 2\n1 0\n0 1\n")
        assert main(["kernel", part, ident, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "doubly-stochastic"
        assert report["column_integrals"] == ["1", "1"]

    @pytest.mark.parametrize(
        "shape, text",
        [("3x2", "3 2\n1 0\n0 1/2\n0 1/2\n"), ("2x3", "2 3\n1 0 1/2\n0 1 1/2\n")],
        ids=["3x2", "2x3"],
    )
    def test_kernel_refuses_a_matrix_that_does_not_fit_the_partition(
        self, workdir, capsys, shape, text
    ):
        _, write = workdir
        part = write("p.sfn", "total 2\npartition 1 1\n")
        matrix = write("m.mat", text)
        assert main(["kernel", part, matrix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{shape} sequence matrix for 2 row atoms" in err

    def test_apply_with_atom_mass_on_infinite_space(self, workdir, capsys):
        _, write = workdir
        f = write("f.sfn", "total inf\n2 2\n")
        mix = write("mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        assert main(["apply", mix, f, "--atom-mass", "1"]) == 0
        out = capsys.readouterr().out
        assert "total inf" in out and "2 2" in out

    def test_rectangular_apply_on_an_equal_mass_partition(self, workdir, capsys):
        _, write = workdir
        shift = write("shift.mat", "3 2\n1 0\n0 1\n0 0\n")
        f = write("f.sfn", "total 2\n3 1\n1 1\npartition 1 1\n")
        assert main(["apply", shift, f]) == 0
        image = loads_sfn(capsys.readouterr().out)
        assert image.function == canonicalize([(3, 1), (1, 1), (0, 1)], 3)
        assert image.partition.atoms == (1, 1, 1)

    def test_apply_infinite_without_alignment_fails(self, workdir, capsys):
        _, write = workdir
        f = write("f.sfn", "total inf\n2 2\n")
        mix = write("mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        assert main(["apply", mix, f]) == 2

    def test_apply_on_a_partition_with_a_finite_tail(self, workdir, capsys):
        tmp, write = workdir
        one = write("one.mat", "1 1\n1\n")
        f = write("t.sfn", "total 2\n1 1\npartition 1\ntail 1 x 1\n")
        out = str(tmp / "image.sfn")
        assert main(["apply", one, f, "-o", out]) == 0
        image = loads_sfn(Path(out).read_text())
        assert image.function == loads_sfn(Path(f).read_text()).function
        assert image.partition.tail is not None

    def test_apply_refuses_support_in_a_finite_tail(self, workdir, capsys):
        _, write = workdir
        one = write("one.mat", "1 1\n1\n")
        f = write("t.sfn", "total 2\n2 1\n1 1\npartition 1\ntail 1 x 1\n")
        assert main(["apply", one, f]) == 2
        assert "into the tail" in capsys.readouterr().err


class TestOneAction:
    """A matrix that is not semi-doubly stochastic acts on no layout."""

    MARKOV = "2 2\n1 1\n0 0\n"

    @pytest.mark.parametrize("block", ["", "partition 1 1\n"])
    def test_apply_refuses_a_markov_matrix(self, workdir, capsys, block):
        _, write = workdir
        t = write("t.mat", self.MARKOV)
        f = write("f.sfn", "total 2\n1 1\n0 1\n" + block)
        assert main(["apply", t, f]) == 2
        assert "semi-doubly stochastic" in capsys.readouterr().err

    def test_equi_refuses_a_markov_matrix(self, workdir, capsys):
        tmp, write = workdir
        f = write("f.sfn", "total 2\n1 1\n0 1\n")
        (tmp / "ops").mkdir()
        write("ops/t.mat", self.MARKOV)
        assert main(["equi", f, "--ops", str(tmp / "ops")]) == 2
        assert "t.mat: " in capsys.readouterr().err

    @pytest.mark.xfail(
        strict=True,
        reason="on unequal atoms apply classifies by sequence-space row sums, "
        "not by the kernel's marginals (ROADMAP item A); drop this marker "
        "when that lands",
    )
    def test_apply_refuses_a_matrix_whose_kernel_is_only_markov(self, workdir):
        _, write = workdir
        d = write("d.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        # the image, 3/2 on mass 1 and 3/4 on mass 2, is not majorized by f
        f = write("f.sfn", "total 3\n1 3\npartition 1 2\n")
        assert main(["apply", d, f]) == 2


class TestRearrange:
    def test_sorted_output_reparses(self, workdir, capsys):
        _, write = workdir
        scrambled = write("s.sfn", "total 3\n1 2\n5 1\n")
        assert main(["rearrange", scrambled]) == 0
        out = capsys.readouterr().out
        assert loads_sfn(out).function == canonicalize([(5, 1), (1, 2)], 3)


class TestEqui:
    def test_report_table(self, workdir, capsys):
        tmp, write = workdir
        f = write("f.sfn", "total inf\n3 1\n1/2 1\n")
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "identity.mat").write_text("2 2\n1 0\n0 1\n")
        (ops / "mix.mat").write_text("2 2\n1/2 1/2\n1/2 1/2\n")
        (ops / "shift.mat").write_text("3 2\n0 0\n1 0\n0 1\n")
        assert (
            main(["equi", f, "--ops", str(ops), "--delta-grid", "2^-1..2^-4", "--json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["family_size"] == 3
        assert [row["delta"] for row in report["rows"]] == ["1/2", "1/4", "1/8", "1/16"]
        assert all(row["within_bound"] for row in report["rows"])

    def test_family_member_is_the_apply_image(self, workdir, capsys, monkeypatch):
        import majo.cli

        tmp, write = workdir
        f = write("f.sfn", "total 2\n1 2\n")
        mix = write("mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        image = str(tmp / "image.sfn")
        assert main(["apply", mix, f, "-o", image]) == 0
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "mix.mat").write_text(Path(mix).read_text())
        families = []
        real_modulus = majo.cli.equi_modulus

        def recording(family, delta, source):
            families.append(family)
            return real_modulus(family, delta, source)

        monkeypatch.setattr("majo.cli.equi_modulus", recording)
        assert main(["equi", f, "--ops", str(ops)]) == 0
        assert families[0] == [loads_sfn(Path(image).read_text()).function]

    def test_explicit_delta_list(self, workdir, capsys):
        tmp, write = workdir
        f = write("f.sfn", "total inf\n2 1\n")
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "identity.mat").write_text("1 1\n1\n")
        assert main(["equi", f, "--ops", str(ops), "--delta-grid", "1/4,1/2"]) == 0
        out = capsys.readouterr().out
        assert "1/4" in out and "1/2" in out

    def test_signed_source_refuses_an_image_on_a_larger_space(self, workdir, capsys):
        tmp, write = workdir
        f = write("neg.sfn", "total 1\n-1 1\n")
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "a.mat").write_text("1 1\n1\n")
        (ops / "r.mat").write_text("2 1\n1\n0\n")
        assert main(["classify", str(ops / "r.mat")]) == 0
        assert "semi-doubly" in capsys.readouterr().out
        assert main(["equi", f, "--ops", str(ops), "--delta-grid", "1,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # of several operators, the error names the one whose image is refused
        assert captured.err == "error: r.mat: total measures differ: 2 vs 1\n"

    def test_nonnegative_source_bounds_a_larger_image_by_its_integral(
        self, workdir, capsys
    ):
        tmp, write = workdir
        f = write("f.sfn", "total 2\n1 1\n")
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "r.mat").write_text("3 2\n1/2 0\n1/2 1/2\n0 1/2\n")
        argv = ["equi", f, "--ops", str(ops), "--delta-grid", "5/2,3", "--json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows == [
            {"delta": "5/2", "modulus": "1", "bound": "1", "within_bound": True},
            {"delta": "3", "modulus": "1", "bound": "1", "within_bound": True},
        ]

    def test_default_grid_past_a_small_finite_total(self, workdir, capsys):
        # delta = 1/2 lies past the total 1/4: the square and the 2x1
        # operator give the same rows, each side read at min(delta, 1/4)
        tmp, write = workdir
        f = write("f.sfn", "total 1/4\n1 1/4\n")
        outputs = []
        for name, text in (("square", "1 1\n1\n"), ("tall", "2 1\n1\n0\n")):
            ops = tmp / name
            ops.mkdir()
            (ops / "d.mat").write_text(text)
            assert main(["equi", f, "--ops", str(ops), "--json"]) == 0
            outputs.append(json.loads(capsys.readouterr().out)["rows"])
        assert outputs[0] == outputs[1]
        assert [(r["modulus"], r["bound"]) for r in outputs[0][:3]] == [
            ("1/4", "1/4"),
            ("1/4", "1/4"),
            ("1/8", "1/8"),
        ]
        assert main(["equi", f, "--ops", str(tmp / "square"), "--delta-grid=-1/2"]) == 2

    def test_an_operator_that_does_not_parse_is_named(self, workdir, capsys):
        tmp, write = workdir
        f = write("f.sfn", "total 2\n1 2\n")
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "a.mat").write_text("1 1\n1\n")
        (ops / "b.mat").write_text("1 2\n1/2 x\n")
        assert main(["equi", f, "--ops", str(ops)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: b.mat: ") and "near 'x'" in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python writes integers of any length",
    )
    def test_delta_grid_past_the_digit_limit_exits_two_before_any_work(
        self, workdir, capsys
    ):
        tmp, write = workdir
        f = write("f.sfn", "total inf\n2 1\n")
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "identity.mat").write_text("1 1\n1\n")
        # the largest k whose 2^k Python still writes out
        k = (10 ** sys.get_int_max_str_digits() - 1).bit_length() - 1
        argv = ["equi", f, "--ops", str(ops), "--delta-grid", f"2^-{k}..2^-{k}"]
        assert main(argv) == 0
        capsys.readouterr()
        # refused at parsing: the grid 2^-1..2^-k alone grows as k^2 bits
        for grid in (f"2^-1..2^-{k + 1}", f"2^{k + 1}..2^0"):
            argv = ["equi", f, "--ops", str(ops), "--delta-grid", grid]
            assert main(argv) == 2
            assert "delta grid bound" in capsys.readouterr().err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python writes integers of any length",
    )
    def test_an_entry_past_the_digit_limit_exits_two_before_the_other_rows(
        self, workdir, capsys
    ):
        tmp, write = workdir
        f = write("f.sfn", "total inf\n3 1\n1/2 1\n")
        ops = tmp / "ops"
        ops.mkdir()
        (ops / "mix.mat").write_text("2 2\n1/2 1/2\n1/2 1/2\n")
        # 2^k passes the bound check, but the bound at delta = 2^-k has a
        # denominator of 2^(k+1); its row is computed and formatted first,
        # since writing the ~4000-digit entries of every other row out as
        # decimal text takes about 4 s (computing all the rows, under 1 s)
        k = (10 ** sys.get_int_max_str_digits() - 1).bit_length() - 1
        argv = ["equi", f, "--ops", str(ops), "--delta-grid", f"2^-1..2^-{k}"]
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 2
        assert "over Python's limit" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        "2^-1_0..2^-1",
        "2^-\u0663..2^-1",
        "2^ -2..2^-1",
        "2^-3/1..2^-1",
        "2^-" + "9" * 5000 + "..2^-1",
        "2^-1..2^" + "9" * 4000,
        "," * 3000,
    ], ids=["underscore", "arabic-indic", "space", "slash", "5000-digits",
            "4000-digits", "commas"])
    def test_a_grid_token_off_the_file_rule_exits_two(self, workdir, capsys, grid):
        f, ops = identity_family(workdir)
        assert main(["equi", f, "--ops", ops, "--delta-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # one line, quoting no more than 40 characters of the token
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err) < 150

    def test_a_bound_may_carry_a_sign(self, workdir, capsys):
        f, ops = identity_family(workdir)
        for grid, deltas in (("2^+2..2^1", ["4", "2"]), ("2^-0..2^-2", ["1", "1/2", "1/4"])):
            argv = ["equi", f, "--ops", ops, "--delta-grid", grid, "--json"]
            assert main(argv) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            assert [row["delta"] for row in rows] == deltas

    def test_a_row_over_its_bound_is_an_internal_inconsistency(
        self, workdir, capsys, monkeypatch
    ):
        from majo.diagnostics import EquiIntegrabilityReport

        def over(family, delta, source):
            # past the bound at 1/4 and at 1/8, whose row is computed first
            modulus = F(1) if delta <= F(1, 4) else F(0)
            return EquiIntegrabilityReport(delta, modulus, F(1, 2), len(family))

        monkeypatch.setattr("majo.cli.equi_modulus", over)
        f, ops = identity_family(workdir)
        for flag in ([], ["--json"]):
            argv = ["equi", f, "--ops", ops, "--delta-grid", "1/2,1/4,1/8"]
            assert main(argv + flag) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "internal inconsistency: the modulus at delta 1/4 exceeds its bound\n"
            )


class TestSelftest:
    def test_single_battery_passes(self, workdir, capsys):
        assert main(["selftest", "--seed", "5", "--only", "fixtures"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "1/1 criteria passed" in out

    def test_seed_defaults_to_zero(self, workdir, capsys):
        assert main(["selftest", "--only", "fixtures", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 0

    @pytest.mark.parametrize("seed", ["\u0663", "1_0", " 7", "x", "3/1", ""])
    def test_a_seed_off_the_file_rule_exits_two(self, workdir, capsys, seed):
        assert main(["selftest", "--only", "fixtures", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed must be an integer, got {seed!r}\n"

    def test_a_seed_may_carry_a_sign(self, workdir, capsys):
        for seed, read in (("-3", -3), ("+3", 3), ("-0", 0)):
            assert main(["selftest", "--only", "fixtures", "--seed", seed, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == read

    def test_a_long_seed_is_quoted_by_its_first_40_characters(self, workdir, capsys):
        assert main(["selftest", "--only", "fixtures", "--seed", "1_" * 3000]) == 2
        assert capsys.readouterr().err == (
            f"error: --seed must be an integer, got {'1_' * 20!r}\n"
        )

    def test_only_lists_the_batteries_of_the_suite(self):
        from majo import cli, selftest

        assert cli._BATTERIES == tuple(name for name, _ in selftest.SUITE)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rearrange", "unbounded-tail.sfn"],
            ["rearrange", "empty-tail.sfn"],
            ["apply", "mix.mat", "f.sfn", "--atom-mass", "1/0"],
            ["apply", "mix.mat", "f.sfn", "--atom-mass", "abc"],
            ["apply", "mix.mat", "f.sfn", "--atom-mass", "1.0"],
            ["apply", "no-columns.mat", "f.sfn"],
            ["equi", "f.sfn", "--ops", "ops", "--delta-grid", "1/0"],
            ["equi", "f.sfn", "--ops", "ops", "--delta-grid", "2^x..2^-3"],
            ["classify", "no-rows.mat"],
            ["equi", "f.sfn", "--ops", "ops", "--delta-grid", ""],
            ["equi", "f.sfn", "--ops", "ops", "--delta-grid", ","],
        ],
    )
    def test_bad_input_exits_two_without_a_traceback(
        self, workdir, capsys, monkeypatch, argv
    ):
        tmp, write = workdir
        write("unbounded-tail.sfn", "total 2\n1 2\npartition 1\ntail 1 x inf\n")
        write("empty-tail.sfn", "total 2\n1 2\npartition 1\ntail 1 x 0\n")
        write("f.sfn", "total 2\n1 2\n")
        write("mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        write("no-columns.mat", "2 0\n")
        write("no-rows.mat", "0 3\n")
        (tmp / "ops").mkdir()
        write("ops/mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        monkeypatch.chdir(tmp)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "tail count must be an integer" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lift", "p.sfn", "id3.mat"], "3x3 matrix on 2 atoms"),
            (["rearrange", "two-partitions.sfn"], "second partition block (line 4, column 1)"),
            (["rearrange", "two-tails.sfn"], "second tail line (line 5, column 1)"),
            (["equi", "f.sfn", "--ops", "no-ops"], "no .mat files under no-ops"),
            (["rearrange", "long-tail.sfn"], "tail count must be a nonnegative integer"),
        ],
        ids=["lift-shape", "two-partitions", "two-tails", "no-ops", "long-tail-count"],
    )
    def test_malformed_documents_name_the_fault(
        self, workdir, capsys, monkeypatch, argv, message
    ):
        tmp, write = workdir
        write("p.sfn", "total 2\npartition 1 1\n")
        write("id3.mat", "3 3\n1 0 0\n0 1 0\n0 0 1\n")
        write("two-partitions.sfn", "total 2\n1 2\npartition 1 1\npartition 1 1\n")
        write(
            "two-tails.sfn",
            "total inf\n1 2\npartition 1 1\ntail 1 x inf\ntail 1 x inf\n",
        )
        write("f.sfn", "total 2\n1 2\n")
        (tmp / "no-ops").mkdir()
        nines = "9" * 5000
        write("long-tail.sfn", f"total inf\n1 1\npartition 1\ntail 1 x {nines}\n")
        monkeypatch.chdir(tmp)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err

    def test_a_tail_of_zero_mass_exits_two(self, workdir, capsys):
        _, write = workdir
        f = write("zero-tail.sfn", "total 2\n1 1\npartition 1\ntail 0 x 1\n")
        assert main(["rearrange", f]) == 2
        assert capsys.readouterr().err == "error: tail atom mass 0 must be positive\n"

    def test_a_parse_error_quotes_a_short_prefix_of_a_long_token(
        self, workdir, capsys
    ):
        _, write = workdir
        token = "x" * 100_000
        f = write("long.sfn", f"total 2\n{token} 2\n")
        assert main(["rearrange", f]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.encode()) < 200
        with pytest.raises(ParseError) as info:
            loads_sfn(Path(f).read_text())
        assert info.value.token == token

    @pytest.mark.parametrize(
        "argv",
        [
            ["rearrange", "bad.sfn"],
            ["check", "bad.sfn", "f.sfn"],
            ["check", "f.sfn", "bad.sfn", "--json"],
            ["witness", "bad.sfn", "f.sfn", "-o", "w.mat"],
            ["classify", "bad.mat"],
            ["lift", "bad.sfn", "mix.mat"],
            ["lift", "p.sfn", "bad.mat"],
            ["kernel", "p.sfn", "bad.mat"],
            ["apply", "bad.mat", "f.sfn"],
            ["apply", "mix.mat", "bad.sfn"],
            ["equi", "bad.sfn", "--ops", "ops"],
            ["equi", "f.sfn", "--ops", "bad-ops"],
        ],
    )
    def test_non_utf8_input_exits_two(self, workdir, capsys, monkeypatch, argv):
        tmp, write = workdir
        write("f.sfn", "total 2\n1 2\n")
        write("p.sfn", "total 2\n1 2\npartition 1 1\n")
        write("mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        (tmp / "bad.sfn").write_bytes(b"total 2\n1 \xff2\n")
        (tmp / "bad.mat").write_bytes(b"2 2\n1/2 1/2\n1/2 1/2\xff\n")
        (tmp / "ops").mkdir()
        (tmp / "bad-ops").mkdir()
        write("ops/mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        (tmp / "bad-ops" / "bad.mat").write_bytes(b"1 1\n\xc3\n")
        monkeypatch.chdir(tmp)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8 text" in err

    def test_a_matrix_without_columns_tiles_no_space_of_positive_measure(
        self, workdir, capsys
    ):
        _, write = workdir
        f = write("f.sfn", "total 2\n1 2\n")
        no_columns = write("no-columns.mat", "2 0\n")
        assert main(["apply", no_columns, f]) == 2
        assert "atoms tile 0, total is 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rearrange", "tail.sfn"], "tail count must be a nonnegative integer"),
            (["classify", "header.mat"], "rows and cols must be nonnegative integers"),
        ],
    )
    def test_integer_tokens_are_ascii_digits(
        self, workdir, capsys, monkeypatch, argv, message
    ):
        tmp, write = workdir
        write("tail.sfn", "total 11\n1 1\npartition 1\ntail 1 x 1_0\n")
        write("header.mat", "1_0 1\n" + "1\n" * 10)
        monkeypatch.chdir(tmp)
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_python_dash_m_majo_keeps_the_exit_codes(self, workdir):
        """``python -m majo`` is the CLI: 0 holds, 1 fails, 2 bad input."""
        _, write = workdir
        f, g = majorized(write)
        bad = write("bad.sfn", "total 2\nbad\n")
        src = str(Path(majo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "majo", "check", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )

        holds, fails, malformed = run(f, g), run(g, f), run(bad, g)
        assert holds.returncode == 0 and "f is majorized by g" in holds.stdout
        assert fails.returncode == 1 and "not majorized" in fails.stdout
        assert malformed.returncode == 2 and malformed.stdout == ""
        assert malformed.stderr.startswith("error: ")
        assert "Traceback" not in malformed.stderr

    def test_internal_inconsistency_exits_three(self, workdir, capsys, monkeypatch):
        from majo.errors import InternalInconsistencyError

        def explode(f, g, *, weak):
            raise InternalInconsistencyError("criteria disagree")

        monkeypatch.setattr("majo.cli.cross_check", explode)
        _, write = workdir
        f, g = majorized(write)
        assert main(["check", f, g]) == 3
        assert "internal inconsistency" in capsys.readouterr().err


# the cap on the child's address space, bytes: well above the interpreter's
# start-up peak (about 21 MB), well below what the commands below take on a
# 3000-level file of distinct 5-digit prime denominators (check --criterion
# all peaks near 158 MiB)
MEMORY_CAP = 60 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "big.sfn", "big.sfn", "--criterion", "all"],
        ["check", "big.sfn", "big.sfn", "--json"],
        ["witness", "big.sfn", "big.sfn"],
        ["equi", "big.sfn", "--ops", "ops"],
        ["rearrange", "big.sfn", "--json"],
    ],
    ids=["check", "check-json", "witness", "equi", "rearrange-json"],
)
def test_running_out_of_memory_is_an_input_error(workdir, argv):
    """A command that allocates in proportion to level count times scale
    bits, under a cap on the memory of its process only, either fits and
    succeeds or exits 2 with one line naming the command: never a traceback,
    and never exit 1 (the relation fails) or 3."""
    resource = pytest.importorskip("resource")
    tmp, write = workdir
    primes = [p for p in range(10000, 100000) if all(p % d for d in range(2, 317))]
    write("big.sfn", "total inf\n" + "".join(
        f"{k}/{primes[k]} 1/{primes[3000 + k]}\n" for k in range(1, 3001)
    ))
    (tmp / "ops").mkdir()
    write("ops/identity.mat", "1 1\n1\n")
    src = str(Path(majo.__file__).resolve().parents[1])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    done = subprocess.run(
        [sys.executable, "-m", "majo", *argv],
        capture_output=True, text=True, cwd=tmp, preexec_fn=cap, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode in (0, 2), done.stderr[-2000:]
    assert "Traceback" not in done.stderr
    if done.returncode == 2:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _primes(lo, hi):
    """The primes in [lo, hi), by a sieve."""
    sieve = bytearray([1]) * hi
    sieve[:2] = b"\0\0"
    for p in range(2, int(hi**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]]


# 1/p over the 9592 primes below 10^5 sums to a rational of 143 818 bits;
# 1000 level sets with distinct 5-digit prime denominators give a witness
# grid whose atom count and atom mass each have over 4300 digits; a matrix of
# 10^3000 x 10^3000 entries expects a product of 6001 digits
LONG_MESSAGES = [
    (["rearrange", "masses.sfn"], "masses sum to a rational of 143818 bits > total measure 1"),
    (["rearrange", "atoms.sfn"], "atoms tile a rational of 143818 bits, total is 1"),
    (["witness", "p.sfn", "p.sfn", "-o", "W.mat"],
     "the witness matrix needs an integer of 14577 bits atoms of mass a rational of "),
    (["classify", "big.mat"], "expected an integer of 19932 bits entries, found 0"),
]


@pytest.mark.parametrize(
    "argv, message", LONG_MESSAGES, ids=["masses", "atoms", "grid", "matrix-entries"]
)
def test_an_error_naming_a_rational_past_the_digit_limit_exits_two(workdir, argv, message):
    """An error message names a computed rational with more digits than
    Python writes out by its size in bits: one stderr line and exit 2, not a
    traceback from ``str`` and exit 1 (the relation fails)."""
    tmp, write = workdir
    primes = _primes(2, 10**5)
    write("masses.sfn", "total 1\n" + "".join(f"1 1/{p}\n" for p in primes))
    write("atoms.sfn", "total 1\n1 1\npartition " + " ".join(f"1/{p}" for p in primes) + "\n")
    five = [p for p in primes if p > 10**4]
    write("big.mat", f"1{'0' * 3000} 1{'0' * 3000}\n")
    write("p.sfn", "total inf\n" + "".join(
        f"{k}/{five[k]} 1/{five[1000 + k]}\n" for k in range(1, 1001)
    ))
    src = str(Path(majo.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "majo", *argv],
        capture_output=True, text=True, cwd=tmp, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2, done.stderr[-2000:]
    assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1
    assert done.stderr.startswith(f"error: {message}")
    assert not (tmp / "W.mat").exists()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python writes integers of any length",
)
def test_a_verdict_past_the_digit_limit_exits_on_the_verdict(workdir, capsys):
    """A violation whose sides have more digits than Python writes out is
    printed by their size in bits, so ``check`` exits 1 (the relation
    fails) in both directions, under every criterion and with ``--weak``,
    and 0 on the self pair: printing never decides the exit code."""
    _, write = workdir
    five = _primes(10**4, 10**5)
    levels = [(F(k, five[k]), F(1, five[150 + k])) for k in range(1, 151)]
    g = write("g.sfn", "total inf\n" + "".join(f"{v} {m}\n" for v, m in levels))
    # g's lowest value raised by 10^-9: neither function majorizes the other
    (v, m), rest = levels[0], levels[1:]
    f = write("f.sfn", "total inf\n" + "".join(
        f"{v} {m}\n" for v, m in [(v + F(1, 10**9), m), *rest]
    ))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for criterion in ("all", "rearr", "hinge", "tail"):
            for weak in ([], ["--weak"]):
                argv = ["--criterion", criterion, *weak]
                assert main(["check", f, g, *argv]) == 1, argv
                if not weak:
                    assert main(["check", g, f, *argv]) == 1, argv
                assert main(["check", g, g, *argv]) == 0, argv
        out = capsys.readouterr().out
    finally:
        sys.set_int_max_str_digits(limit)
    assert "hinge: fails at 0 (a rational of 4074 bits != a rational of 4044 bits)" in out
    assert "rearrangement: fails at inf (a rational of 4044 bits != a rational of 4074 bits)" in out


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python writes integers of any length",
)
def test_a_writer_past_the_digit_limit_names_its_output(workdir, capsys):
    """The 150 masses 1/p of one value, over the largest 5-digit primes p,
    merge into a mass of about 750 digits. Under the smallest digit limit
    Python allows, ``rearrange`` names the output it cannot write, the ``-o``
    file or standard output, and exits 2 with no file written."""
    tmp, write = workdir
    lines = "".join(f"1 1/{p}\n" for p in _primes(10**4, 10**5)[-150:])
    source = write("r150.sfn", f"total inf\n{lines}")
    out = tmp / "out.sfn"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        to_file = main(["rearrange", source, "-o", str(out)]), capsys.readouterr()
        to_stdout = main(["rearrange", source, "--json"]), capsys.readouterr()
    finally:
        sys.set_int_max_str_digits(limit)
    for (code, printed), target in ((to_file, out), (to_stdout, "standard output")):
        assert code == 2 and printed.out == ""
        assert printed.err.startswith(f"error: cannot write {target}: a numerator ")
        assert printed.err.count("\n") == 1
    assert not out.exists()


# 640 digits, the smallest digit limit Python allows: read as given, while a
# product or quotient of it is past the limit
TEN_639 = "1" + "0" * 639
BITS = (10**640).bit_length()  # of 10^640, past the limit by one digit


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python writes integers of any length",
)
@pytest.mark.parametrize("function, argv, message", [
    (f"total {TEN_639}\n-1 {TEN_639}\n",
     ["equi", "f.sfn", "--ops", "ops10", "--delta-grid", "1"],
     f"r.mat: total measures differ: a rational of {BITS} bits vs {TEN_639}\n"),
    (f"total {TEN_639}\n1 {TEN_639}\n",
     ["equi", "f.sfn", "--ops", "ops10", "--delta-grid=-1"],
     f"delta = -1 outside [0, a rational of {BITS} bits]\n"),
    (f"total 1/{TEN_639}\n2 1/3{TEN_639[1:]}\n",
     ["apply", "id10.mat", "f.sfn"],
     f"atom of mass a rational of {BITS} bits straddles a level boundary "
     f"(only a rational of {(3 * 10**640).bit_length()} bits left at value 2)\n"),
], ids=["unequal-totals", "delta-range", "straddle"])
def test_a_refusal_past_the_digit_limit_exits_two(
    workdir, capsys, monkeypatch, function, argv, message
):
    """Under the smallest digit limit, a refusal whose number is past it
    writes that number by its size: one ``error:`` line and exit 2, where
    ``str`` would raise ``ValueError`` out of ``main``. ``equi`` lays f over
    10 atoms of ten times its total, as the 10x1 column ``r.mat`` maps them,
    and ``apply`` lays f over 10 atoms of a tenth of its total."""
    tmp, write = workdir
    write("f.sfn", function)
    (tmp / "ops10").mkdir()
    write("ops10/r.mat", "10 1\n1\n" + "0\n" * 9)
    write("id10.mat", "10 10\n" + "".join(
        " ".join("1" if i == j else "0" for j in range(10)) + "\n" for i in range(10)
    ))
    monkeypatch.chdir(tmp)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    printed = capsys.readouterr()
    assert code == 2 and printed.out == ""
    assert printed.err == f"error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["equi", "f.sfn", "--ops", "LONG"], "no .mat files under " + "d" * 40 + "\n"),
    # too long a name for the system to look up: an OSError, whose name is cut
    (["equi", "f.sfn", "--ops", "x" * 5000], ""),
    (["kernel", "LONG/p.sfn", "id1.mat"], "d" * 40 + " carries no partition block\n"),
    (["rearrange", "LONG/bad.sfn"], "d" * 40 + " is not UTF-8 text (line 2, column 1)\n"),
    (["rearrange", "LONG/missing.sfn"],
     "[Errno 2] No such file or directory: '" + "d" * 40 + "'\n"),
], ids=["ops", "5000-character-ops", "partition", "non-utf8", "missing"])
def test_a_long_path_is_quoted_by_its_first_40_characters(
    workdir, capsys, monkeypatch, argv, message
):
    """A path is quoted as a token is, by its first 40 characters: one line
    under 150 bytes, where the whole path would flood standard error."""
    tmp, write = workdir
    write("f.sfn", "total 1\n1 1\n")
    long_dir = Path(*["d" * 200] * 10)  # 2009 characters
    (tmp / long_dir).mkdir(parents=True)
    (tmp / long_dir / "p.sfn").write_text("total 1\n1 1\n")
    (tmp / long_dir / "bad.sfn").write_bytes(b"total 1\n1 \xff1\n")
    monkeypatch.chdir(tmp)
    argv = [arg.replace("LONG", str(long_dir)) for arg in argv]
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith(f"error: {message}")
    assert printed.err.count("\n") == 1 and len(printed.err.encode()) < 150

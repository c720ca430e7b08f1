"""End-to-end command-line behavior: exit codes, reports, round trips."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from majo import canonicalize
from majo.cli import main
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

    def test_signed_pair_falls_back_to_rearrangement(self, workdir, capsys):
        _, write = workdir
        balanced = write("balanced.sfn", "total 2\n0 2\n")
        seesaw = write("seesaw.sfn", "total 2\n1 1\n-1 1\n")
        assert main(["check", balanced, seesaw]) == 0
        out = capsys.readouterr().out
        assert "rearrangement: holds" in out
        assert main(["check", seesaw, balanced]) == 1


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

    def test_apply_with_atom_mass_on_infinite_space(self, workdir, capsys):
        _, write = workdir
        f = write("f.sfn", "total inf\n2 2\n")
        mix = write("mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        assert main(["apply", mix, f, "--atom-mass", "1"]) == 0
        out = capsys.readouterr().out
        assert "total inf" in out and "2 2" in out

    def test_apply_infinite_without_alignment_fails(self, workdir, capsys):
        _, write = workdir
        f = write("f.sfn", "total inf\n2 2\n")
        mix = write("mix.mat", "2 2\n1/2 1/2\n1/2 1/2\n")
        assert main(["apply", mix, f]) == 2


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
        assert len(report["rows"]) == 4
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


class TestSelftest:
    def test_single_battery_passes(self, workdir, capsys):
        assert main(["selftest", "--seed", "5", "--only", "fixtures"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "1/1 criteria passed" in out

    def test_seed_env_override(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("MAJO_SEED", "9")
        assert main(["selftest", "--only", "fixtures", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 9


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

    def test_a_matrix_without_columns_tiles_no_space_of_positive_measure(
        self, workdir, capsys
    ):
        _, write = workdir
        f = write("f.sfn", "total 2\n1 2\n")
        no_columns = write("no-columns.mat", "2 0\n")
        assert main(["apply", no_columns, f]) == 2
        assert "0 atoms of mass 2 cannot tile total 2" in capsys.readouterr().err

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

    def test_internal_inconsistency_exits_three(self, workdir, capsys, monkeypatch):
        from majo.errors import InternalInconsistencyError

        def explode(f, g, weak=False):
            raise InternalInconsistencyError("criteria disagree")

        monkeypatch.setattr("majo.cli.cross_check", explode)
        _, write = workdir
        f, g = majorized(write)
        assert main(["check", f, g]) == 3
        assert "internal inconsistency" in capsys.readouterr().err

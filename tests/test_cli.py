"""End-to-end tests of the command line entry point."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ybx
from oracles import (det_permutation_expansion, dn_matrix, frac_matrix,
                     super_phi_matrix)
from ybx.cli import main
from ybx.scalars import InputError
from ybx.tensor import operator_from_json_obj
from ybx import fixture_path

QUADRATIC = str(fixture_path("quadratic.json"))
SIGMA = str(fixture_path("sigma.json"))
CUBIC = str(fixture_path("cubic.json"))
GL11 = str(fixture_path("gl11.json"))
ABELIAN = str(fixture_path("abelian-super.json"))


def without(obj, field):
    """A copy of the JSON object obj with field left out."""
    return {k: v for k, v in obj.items() if k != field}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=None):
    """`python -m ybx.cli argv...` in a fresh interpreter, so an uncaught
    exception shows as a traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(ybx.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ybx.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


class TestCheckConstant:
    def test_case_i_passes_symbolically(self, capsys):
        code, out, _ = run(
            capsys, "check", "constant", "--algebra", QUADRATIC,
            "--alpha", "a", "--beta", "b", "--gamma", "a",
        )
        assert code == 0
        assert "PASS" in out
        assert "case: i" in out

    def test_unbound_parameters_get_fresh_symbols(self, capsys):
        code, out, _ = run(
            capsys, "check", "constant", "--algebra", QUADRATIC,
            "--format", "json",
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["format"] == "ybx-report-v1"
        params = obj["reports"][0]["detail"]["parameters"]
        assert sorted(params) == ["alpha", "beta", "gamma"]
        assert obj["reports"][0]["detail"]["case"] == "none"

    def test_out_of_case_constants_fail(self, capsys):
        code, out, _ = run(
            capsys, "check", "constant", "--algebra", QUADRATIC,
            "--m", "1", "--n", "1",
            "--alpha", "1", "--beta", "2", "--gamma", "3",
        )
        assert code == 1
        assert "FAIL" in out
        assert "witness" in out

    def test_value_starting_with_minus(self, capsys):
        # after a space as after "=", a value that starts with one "-" is
        # the flag's value, not an option
        for argv in (("--alpha", "-3/2", "--beta", "1", "--gamma", "-3/2"),
                     ("--alpha=-3/2", "--beta", "1", "--gamma=-3/2")):
            code, out, _ = run(capsys, "check", "constant", "--algebra",
                               QUADRATIC, *argv)
            assert code == 0
            assert "case: i" in out
            assert "'alpha': '-3/2'" in out
        code, out, _ = run(capsys, "check", "constant", "--algebra", QUADRATIC,
                           "--alpha", "-a", "--beta", "b", "--gamma", "-a",
                           "--n", "-b")
        assert code == 0
        assert "'alpha': '-a'" in out
        code, out, err = run_process(
            "export", "matrix", "--family", "colored", "--algebra", QUADRATIC,
            "--p", "-a", "--q", "-3/2", "--u", "1", "--v", "-1",
            "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["matrix"][0][0] == "(-2*a - 3)/2"
        assert run(capsys, "export", "matrix", "--family", "colored",
                   "--algebra", QUADRATIC, "--p=-a", "--q=-3/2", "--u", "1",
                   "--v", "-1", "--format", "json") == (0, out, "")

    def test_abbreviated_flag_takes_a_value_starting_with_minus(self, capsys):
        # argparse accepts a unique prefix of a long option, so a value
        # that starts with "-" joins it as it joins the full name
        def timeless(*flag):
            code, out, err = run(capsys, "check", "constant", "--algebra",
                                 QUADRATIC, "--beta", "1", "--gamma", "1",
                                 *flag)
            return code, re.sub(r"elapsed: \S+", "", out), err

        assert timeless("--alpha", "-3/2")[0] == 0
        assert timeless("--alph", "-3/2") == timeless("--alpha", "-3/2")
        assert timeless("--alph", "3/2")[0] == 0

    def test_values_join_only_after_the_command(self, capsys):
        # the named command's flags start after its last verb or target
        # token; before it, "-3" is a positional token, so argparse reads
        # it as the target
        code, out, err = run(capsys, "check", "constant", "--algebra",
                             QUADRATIC, "--beta", "1", "--gamma", "-3",
                             "--alpha", "-3")
        assert (code, err) == (0, "")
        assert "'alpha': '-3'" in out and "case: i" in out
        code, out, err = run(capsys, "check", "--alpha", "-3", "constant",
                             "--algebra", QUADRATIC)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ybx check [-h] "
                              "{constant,colored,wxz,super,split-center} ...\n"
                              "ybx check: error: argument target: invalid "
                              "choice: '-3' (choose from ")

    def test_ambiguous_prefix_stays_a_usage_error(self):
        code, out, err = run_process(
            "check", "constant", "--algebra", QUADRATIC, "--a", "-3/2")
        assert code == 2
        assert out == ""
        assert "ambiguous option: --a could match --algebra, --alpha" in err
        assert "Traceback" not in err

    def test_double_dash_after_a_scalar_flag_stays_an_option(self):
        code, out, err = run_process(
            "check", "constant", "--algebra", QUADRATIC, "--alpha", "--beta")
        assert code == 2
        assert out == ""
        assert "argument --alpha: expected one argument" in err
        assert "Traceback" not in err

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "check", "constant", "--algebra", QUADRATIC,
            "--alpha", "((",
        )
        assert code == 2
        assert "alpha" in err


class TestCheckColored:
    def test_symbolic_default(self, capsys):
        code, out, _ = run(
            capsys, "check", "colored", "--algebra", SIGMA,
        )
        assert code == 0
        assert "colored [symbolic]: PASS" in out

    def test_sampled_mode(self, capsys):
        code, out, _ = run(
            capsys, "check", "colored", "--algebra", CUBIC,
            "--p", "2", "--q", "3", "--samples", "25", "--seed", "4",
        )
        assert code == 0
        assert "colored [sampled]: PASS" in out
        assert "evaluated" in out

    def test_symbolic_flag_overrides_samples(self, capsys):
        code, out, _ = run(
            capsys, "check", "colored", "--algebra", SIGMA,
            "--samples", "5", "--symbolic",
        )
        assert code == 0
        assert "[symbolic]" in out

    def test_json_runs_are_byte_identical(self, capsys):
        argv = ("check", "colored", "--algebra", CUBIC, "--p", "2",
                "--q", "3", "--samples", "30", "--seed", "9",
                "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestCheckWxz:
    def test_symbolic_pass(self, capsys):
        code, out, _ = run(capsys, "check", "wxz", "--algebra", QUADRATIC)
        assert code == 0
        assert "[W,W,W]: zero" in out
        assert "[X,X,Z]: zero" in out

    def test_bound_parameters(self, capsys):
        code, out, _ = run(
            capsys, "check", "wxz", "--algebra", QUADRATIC,
            "--lambda", "2", "--mu", "3",
        )
        assert code == 0


class TestCheckSuper:
    def test_gl11_emits_two_reports(self, capsys):
        code, out, _ = run(
            capsys, "check", "super", "--superalgebra", GL11,
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        identities = [r["identity"] for r in obj["reports"]]
        assert identities == ["braid", "inverse-roundtrip"]
        assert all(r["status"] == "pass" for r in obj["reports"])

    def test_z_index_selects_center_vector(self, capsys):
        code, _, _ = run(
            capsys, "check", "super", "--superalgebra", ABELIAN,
            "--z-index", "1",
        )
        assert code == 0

    def test_z_index_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "check", "super", "--superalgebra", GL11,
            "--z-index", "5",
        )
        assert code == 2
        assert "z-index" in err

    def test_free_alpha_avoids_every_bracket_constant(self, tmp_path,
                                                      capsys):
        # odd x, y and even z with [x,x] = alpha*z and [x,y] = [y,x] = z:
        # the family's free parameter must not merge with the table's alpha
        bracket = [[[0, 0, "alpha"], [0, 0, 1], [0, 0, 0]],
                   [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                   [[0, 0, 0]] * 3]
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps({"dim": 3, "degree": [1, 1, 0],
                                    "structure": bracket}))
        code, out, _ = run(capsys, "export", "matrix", "--family", "super",
                           "--superalgebra", str(path), "--format", "json")
        assert code == 0
        point = {"alpha": 2, "alpha_1": 5}
        table = [[[2 if e == "alpha" else e for e in row] for row in plane]
                 for plane in bracket]
        assert frac_matrix(operator_from_json_obj(json.loads(out)), point) \
            == super_phi_matrix(table, [1, 1, 0], [0, 0, 1], 5)
        code, out, _ = run(capsys, "check", "super", "--superalgebra",
                           str(path))
        assert code == 0 and out.count("PASS") == 2

    @pytest.mark.parametrize("verb", [["check", "super"],
                                      ["export", "matrix", "--family",
                                       "super"]])
    def test_no_even_central_element(self, tmp_path, capsys, verb):
        # sl(2): [h,e] = 2e, [h,f] = -2f, [e,f] = h, all even, centre zero
        sl2 = tmp_path / "sl2.json"
        sl2.write_text(json.dumps({
            "dim": 3, "degree": [0, 0, 0],
            "structure": [[[0, 0, 0], [0, 2, 0], [0, 0, -2]],
                          [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
                          [[0, 0, 2], [-1, 0, 0], [0, 0, 0]]]}))
        code, out, err = run(capsys, *verb, "--superalgebra", str(sl2))
        assert code == 2
        assert err == "error: the superalgebra has no even central element\n"
        assert out == ""


class TestCheckSplitCenter:
    def test_sampled_pass(self, capsys):
        code, out, _ = run(
            capsys, "check", "split-center", "--dim", "3",
            "--samples", "5", "--seed", "3",
        )
        assert code == 0
        assert "qybe [sampled]: PASS" in out

    def test_dim_too_small(self, capsys):
        code, _, err = run(capsys, "check", "split-center", "--dim", "1")
        assert code == 2
        assert "dim" in err

    def test_dim_is_capped(self, capsys):
        from ybx.cli import MAX_SPLIT_DIM
        code, out, err = run(capsys, "check", "split-center", "--samples",
                             "1", "--dim", str(MAX_SPLIT_DIM + 1))
        assert code == 2
        assert f"--dim: must be at most {MAX_SPLIT_DIM}" in err
        assert out == ""


class TestExportMatrix:
    def test_colored_symbolic_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "export", "matrix", "--family", "colored",
            "--algebra", SIGMA, "--format", "json",
        )
        assert code == 0
        op = operator_from_json_obj(json.loads(out))
        assert op.dim == 2
        assert op.legs == 2

    def test_dn_text_contains_entries(self, capsys):
        code, out, _ = run(
            capsys, "export", "matrix", "--family", "dn",
            "--algebra", QUADRATIC,
            "--alpha", "a", "--beta", "b", "--gamma", "a",
        )
        assert code == 0
        assert "-a" in out

    def test_dn_needs_an_algebra(self, capsys):
        code, out, err = run(capsys, "export", "matrix", "--family", "dn")
        assert code == 2 and out == ""
        assert "this command needs --algebra PATH" in err

    def test_wxz_exports_three_labeled_blocks(self, capsys):
        code, out, _ = run(
            capsys, "export", "matrix", "--family", "wxz",
            "--algebra", QUADRATIC,
        )
        assert code == 0
        for label in ("W:", "X:", "Z:"):
            assert label in out

    def test_out_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "matrix.json"
        code, out, _ = run(
            capsys, "export", "matrix", "--family", "dn",
            "--algebra", QUADRATIC, "--alpha", "1", "--beta", "1",
            "--gamma", "1", "--format", "json", "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        op = operator_from_json_obj(json.loads(dest.read_text()))
        assert op.dim == 2

    def test_super_family_export(self, capsys):
        code, out, _ = run(
            capsys, "export", "matrix", "--family", "super",
            "--superalgebra", GL11, "--alpha", "1", "--format", "json",
        )
        assert code == 0
        op = operator_from_json_obj(json.loads(out))
        assert op.dim == 4


class TestValidate:
    def test_good_algebra(self, capsys):
        code, out, _ = run(capsys, "validate", "algebra",
                           "--algebra", QUADRATIC)
        assert code == 0
        assert "algebra-axioms [symbolic]: PASS" in out

    def test_unit_corruption_reports_witness(self, tmp_path, capsys):
        obj = json.loads(Path(QUADRATIC).read_text())
        obj["structure"][0][1] = ["1", "1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "validate", "algebra",
                           "--algebra", str(bad))
        assert code == 1
        assert "FAIL" in out
        assert "indices=[1]" in out

    def test_associativity_corruption_reports_triple(self, tmp_path, capsys):
        obj = json.loads(Path(CUBIC).read_text())
        obj["structure"][1][2][0] = "1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "validate", "algebra",
                           "--algebra", str(bad), "--format", "json")
        assert code == 1
        rep = json.loads(out)["reports"][0]
        assert rep["status"] == "fail"
        assert rep["witness"]["indices"] == [1, 1, 1]

    def test_good_superalgebra(self, capsys):
        code, out, _ = run(capsys, "validate", "superalgebra",
                           "--superalgebra", GL11)
        assert code == 0
        assert "super-axioms [symbolic]: PASS" in out

    def test_super_corruption_reports_witness(self, tmp_path, capsys):
        obj = json.loads(Path(GL11).read_text())
        obj["structure"][2][3][0] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "validate", "superalgebra",
                           "--superalgebra", str(bad), "--format", "json")
        assert code == 1
        rep = json.loads(out)["reports"][0]
        assert rep["witness"]["indices"] == [2, 3]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "algebra",
                           "--algebra", "/nonexistent/a.json")
        assert code == 2
        assert "no such file" in err

    def test_unreadable_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", "algebra",
                           "--algebra", str(bad))
        assert code == 2
        assert "JSON" in err


class TestInvert:
    def test_dn_inverse_with_determinant(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--family", "dn", "--algebra", QUADRATIC,
            "--m", "1", "--n", "1",
            "--alpha", "1", "--beta", "2", "--gamma", "1",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["invertible"] is True
        assert obj["determinant"] == "4"
        op = operator_from_json_obj(obj["inverse"])
        assert op.dim == 2

    def test_singular_operator_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--family", "colored", "--algebra", SIGMA,
            "--p", "1", "--q", "1", "--u", "1", "--v", "1",
        )
        assert code == 1
        assert "singular" in out

    def test_wxz_family_rejected(self, capsys):
        code, _, err = run(
            capsys, "invert", "--family", "wxz", "--algebra", QUADRATIC,
        )
        assert code == 2
        assert "single operator" in err


class TestFamilyFlags:
    """export matrix and invert refuse a flag the chosen family does not
    read, instead of ignoring it."""

    @pytest.fixture
    def own_flags(self, tmp_path):
        """Each family's flags, all of them, on a structure file that has
        every indeterminate a structure flag names: k[x]/(x^2 - m*x -
        n*sigma)."""
        obj = json.loads(Path(QUADRATIC).read_text())
        obj["structure"][1][1] = ["n*sigma", "m"]
        mns = tmp_path / "mns.json"
        mns.write_text(json.dumps(obj))
        structure = ["--algebra", str(mns), "--m", "1", "--n", "1",
                     "--sigma", "2"]
        return {
            "dn": [*structure, "--alpha", "1", "--beta", "2", "--gamma", "1"],
            "colored": [*structure, "--p", "1", "--q", "2", "--u", "3",
                        "--v", "5"],
            "wxz": [*structure, "--lambda", "2", "--mu", "3"],
            "super": ["--superalgebra", ABELIAN, "--z-index", "1",
                      "--alpha", "2"],
        }

    ALL = ["--algebra", "--m", "--n", "--sigma", "--superalgebra",
           "--z-index", "--alpha", "--beta", "--gamma", "--p", "--q", "--u",
           "--v", "--lambda", "--mu"]

    def test_stray_flags_exit_two_without_traceback(self):
        code, out, err = run_process(
            "export", "matrix", "--family", "dn", "--algebra", SIGMA,
            "--alpha", "1", "--beta", "1", "--gamma", "1", "--p", "3",
            "--superalgebra", "nothing.json", "--z-index", "9")
        assert code == 2
        assert err == "error: --family dn does not read --p\n"
        assert out == ""

    def test_each_stray_flag_is_named(self, capsys, own_flags):
        for family, own in own_flags.items():
            for flag in self.ALL:
                if flag in own:
                    continue
                value = "0" if flag == "--z-index" else QUADRATIC
                for verb in (["export", "matrix"], ["invert"]):
                    code, out, err = run(capsys, *verb, "--family", family,
                                         *own, flag, value)
                    assert code == 2, (verb, family, flag)
                    assert err == (f"error: --family {family} does not "
                                   f"read {flag}\n")
                    assert out == ""

    def test_parameters_are_named_before_structure_flags(self, capsys):
        # --beta and --algebra are both stray for super; parameters are
        # scanned before structure flags, family by family, so dn's --beta
        # is named although --algebra comes first in a list of flags
        code, out, err = run(capsys, "export", "matrix", "--family", "super",
                             "--superalgebra", GL11, "--beta", "1",
                             "--algebra", QUADRATIC)
        assert code == 2
        assert err == "error: --family super does not read --beta\n"
        assert out == ""

    def test_each_family_accepts_its_own_flags(self, capsys, own_flags):
        for family, own in own_flags.items():
            code, out, err = run(capsys, "export", "matrix", "--family",
                                 family, *own)
            assert code == 0, (family, err)
            assert err == ""
            assert out

    def test_a_structure_flag_the_file_does_not_name_exits_two(self, capsys):
        # cubic.json names no indeterminate, so --m is not silently ignored
        code, out, err = run_process("check", "constant", "--algebra", CUBIC,
                                     "--m", "3")
        assert (code, out) == (2, "")
        assert err == f"error: --m: {CUBIC} has no indeterminate m\n"
        for argv, flag in (
                (["validate", "algebra", "--algebra", SIGMA], "--n"),
                (["check", "colored", "--algebra", QUADRATIC, "--symbolic"],
                 "--sigma"),
                (["check", "wxz", "--algebra", CUBIC], "--sigma"),
                (["export", "matrix", "--family", "dn", "--algebra", SIGMA],
                 "--m"),
                (["invert", "--family", "colored", "--algebra", QUADRATIC],
                 "--sigma")):
            code, out, err = run(capsys, *argv, flag, "1")
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
        # the flags a file does name still substitute
        code, out, err = run(capsys, "validate", "algebra", "--algebra",
                             SIGMA, "--sigma", "2")
        assert (code, err) == (0, "")

    def test_z_index_is_not_a_validate_flag(self, capsys):
        code, out, err = run(capsys, "validate", "superalgebra",
                             "--superalgebra", GL11, "--z-index", "0")
        assert code == 2
        assert "unrecognized arguments: --z-index 0" in err
        assert out == ""


def test_every_error_root_is_a_ybx_error():
    # each keeps its stdlib base, so except ValueError still catches it
    roots = {
        ybx.MalformedScalarError: ValueError,
        ybx.IncompleteAssignmentError: ValueError,
        ybx.PoleError: ZeroDivisionError,
        ybx.ScalarParseError: ValueError,
        ybx.AlgebraError: ValueError,
        ybx.FieldTypeError: ValueError,
        ybx.SuperalgebraError: ValueError,
        ybx.DimensionMismatch: ValueError,
        ybx.NotYangBaxterError: ValueError,
        ybx.FreeIndeterminateError: ValueError,
        ybx.InvertibilityLocusError: ValueError,
        ybx.SupportViolationError: ValueError,
        ybx.InvalidCenterError: ValueError,
        InputError: ValueError,
    }
    for cls, base in roots.items():
        assert issubclass(cls, ybx.YbxError), cls
        assert issubclass(cls, base), cls


@pytest.mark.parametrize("call", [
    lambda: ybx.Operator2(0, []),
    lambda: ybx.Operator3(2, [[0] * 4] * 4),
    lambda: ybx.Operator2.from_columns(-1, ()),
    lambda: ybx.embed(ybx.twist(2), 21),
    lambda: ybx.nullspace([[0, 1], [1]]),
    lambda: ybx.WxzTriple(ybx.twist(2), ybx.twist(2), ybx.twist(3)),
    lambda: ybx.SplitSpace(2, 2),
    lambda: ybx.split_center_operator(ybx.SplitSpace(3, 0), ybx.twist(2),
                                      ybx.twist(2)),
    lambda: ybx.canonical_two_dim_solution(2, 2),
    lambda: ybx.VerificationReport("braid", "symbolic", "fail"),
    lambda: ybx.verify_constant(ybx.twist(2), "both"),
    lambda: ybx.verify_colored_family(ybx.load_algebra(QUADRATIC), 1, 2,
                                      mode="exact"),
    lambda: ybx.operator_from_json_obj({"dim": 2}),
], ids=["dim", "shape", "from_columns-dim", "legs", "nullspace-rows",
        "wxz-dims", "c_index", "split-center-dims", "eta", "witness",
        "which", "mode", "operator-format"])
def test_bad_library_arguments_raise_input_error(call):
    # the command line's own error: a ValueError and a YbxError
    with pytest.raises(InputError):
        call()


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # the CLI runs one process per invocation, so every module its import
    # pulls in is paid for on each run
    env = dict(os.environ, PYTHONPATH=str(Path(ybx.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    code = ("import ybx.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "check", "rainbow")[0] == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(
            capsys, "check", "constant", "--algebra", QUADRATIC,
            "--frobnicate", "1",
        )
        assert code == 2

    def test_symbolic_only_on_check_colored(self, capsys):
        for argv in (["check", "constant", "--algebra", QUADRATIC],
                     ["validate", "algebra", "--algebra", QUADRATIC],
                     ["invert", "--family", "dn", "--algebra", QUADRATIC]):
            code, out, err = run(capsys, *argv, "--symbolic")
            assert code == 2, argv
            assert "unrecognized arguments: --symbolic" in err
            assert "Traceback" not in err
            assert out == ""


class TestHostileInput:
    """Bad input ends in exit status 2 with a message, never a traceback."""

    def test_alpha_division_by_zero(self):
        code, _, err = run_process("check", "constant", "--algebra", QUADRATIC,
                                   "--alpha", "1/0")
        assert code == 2
        assert "Traceback" not in err
        assert "--alpha" in err

    def test_division_by_zero_in_algebra_file(self, tmp_path, capsys):
        obj = json.loads(Path(QUADRATIC).read_text())
        obj["structure"][0][1] = ["1/0", "0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(capsys, "validate", "algebra",
                           "--algebra", str(bad))
        assert code == 2
        assert str(bad) in err

    def test_out_into_missing_directory(self, tmp_path):
        dest = tmp_path / "missing" / "x.txt"
        code, out, err = run_process("validate", "algebra", "--algebra",
                                     QUADRATIC, "--out", str(dest))
        assert code == 2
        assert "Traceback" not in err
        assert str(dest) in err
        assert out == ""

    def test_deeply_nested_alpha(self):
        code, out, err = run_process("check", "constant", "--algebra",
                                     QUADRATIC, "--alpha",
                                     "(" * 2000 + "1" + ")" * 2000)
        assert code == 2
        assert "Traceback" not in err
        assert "--alpha" in err and "nested" in err
        assert out == ""

    def test_digits_of_other_scripts(self, capsys):
        for alpha in ("\u0663", "\uff11", "2\u0663"):
            code, out, err = run(capsys, "check", "constant", "--algebra",
                                 QUADRATIC, "--alpha", alpha)
            assert code == 2
            assert "--alpha" in err and "unexpected character" in err
            assert out == ""

    def test_json_field_types(self, tmp_path, capsys):
        algebra = json.loads(Path(QUADRATIC).read_text())
        superalgebra = json.loads(Path(GL11).read_text())
        cases = [
            ("algebra", dict(algebra, unit=[1.5, 0]), "unit"),
            ("algebra", dict(algebra, dim="2"), "dim"),
            ("algebra", dict(algebra, dim=True), "dim"),
            ("superalgebra", dict(superalgebra, dim="3"), "dim"),
            ("superalgebra", dict(superalgebra, degree=[0, 0.5, 1]),
             "degree"),
            ("algebra", dict(algebra, unit=None), "unit"),
            ("superalgebra", dict(superalgebra, structure=None), "structure"),
            # malformed files: bad input under validate as well, not a
            # failed axiom check
            ("algebra", without(algebra, "unit"), "unit"),
            ("superalgebra", without(superalgebra, "degree"), "degree"),
            ("algebra", without(algebra, "structure"), "structure"),
            ("superalgebra", without(superalgebra, "structure"),
             "structure"),
            ("algebra", dict(algebra, unit=algebra["unit"][:1]), "unit"),
            ("algebra", dict(algebra, labels=["1"]), "labels"),
            ("superalgebra",
             dict(superalgebra, degree=[2, *superalgebra["degree"][1:]]),
             "degree"),
        ]
        check = {"algebra": "constant", "superalgebra": "super"}
        for n, (kind, obj, field) in enumerate(cases):
            bad = tmp_path / f"bad{n}.json"
            bad.write_text(json.dumps(obj))
            errors = set()
            for verb in (["validate", kind], ["check", check[kind]]):
                code, out, err = run(capsys, *verb, f"--{kind}", str(bad))
                assert code == 2, (verb, obj)
                assert field in err and str(bad) in err
                assert out == ""
                errors.add(err)
            assert len(errors) == 1, errors

    def test_top_level_not_an_object(self, tmp_path, capsys):
        verbs = [("algebra", ["validate", "algebra"]),
                 ("algebra", ["check", "constant"]),
                 ("superalgebra", ["validate", "superalgebra"]),
                 ("superalgebra", ["check", "super"])]
        for n, top in enumerate(([1, 2], "x", 3, None)):
            bad = tmp_path / f"top{n}.json"
            bad.write_text(json.dumps(top))
            for kind, verb in verbs:
                code, out, err = run(capsys, *verb, f"--{kind}", str(bad))
                assert code == 2, (verb, top)
                assert "JSON object" in err and str(bad) in err
                assert out == ""

    def test_deeply_nested_structure_file(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        for kind in ("algebra", "superalgebra"):
            code, out, err = run_process("validate", kind, f"--{kind}",
                                         str(deep))
            assert code == 2
            assert "Traceback" not in err
            assert "not valid JSON" in err
            assert out == ""

    def test_non_utf8_structure_file(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff")
        for kind in ("algebra", "superalgebra"):
            code, out, err = run_process("validate", kind, f"--{kind}",
                                         str(bad))
            assert code == 2
            assert err.startswith(f"error: not valid JSON: {bad}: ")
            assert err.count("\n") == 1 and "Traceback" not in err
            assert out == ""

    def test_huge_powers(self, tmp_path, capsys, monkeypatch):
        power_of = ybx.ParamScalar.__pow__

        def guarded(base, e):
            # a power past the bounds fails the test instead of running
            assert abs(e) <= 1000, "a power past the bounds was computed"
            return power_of(base, e)

        monkeypatch.setattr(ybx.ParamScalar, "__pow__", guarded)
        for power in ("x^999999999", "(x+1)^999999999", "2^999999999",
                      "((x+1)^100)^100"):
            code, out, err = run(capsys, "check", "constant", "--algebra",
                                 QUADRATIC, "--alpha", power)
            assert code == 2, power
            assert "--alpha" in err and "power too large" in err
            assert out == ""
            obj = json.loads(Path(QUADRATIC).read_text())
            obj["structure"][1][1] = [power, "m"]
            bad = tmp_path / "power.json"
            bad.write_text(json.dumps(obj))
            code, out, err = run(capsys, "validate", "algebra",
                                 "--algebra", str(bad))
            assert code == 2, power
            assert str(bad) in err and "power too large" in err
        code, out, err = run_process("check", "constant", "--algebra",
                                     QUADRATIC, "--beta", "x^999999999")
        assert code == 2
        assert "Traceback" not in err and "power too large" in err

    def test_long_products(self):
        for factors in (20, 30):
            # unbounded, 30 factors took 43 s and 345 MB
            code, out, err = run_process(
                "check", "constant", "--algebra", QUADRATIC,
                "--alpha", "*".join(["(a+b+c+d+e+f)"] * factors), timeout=10)
            assert code == 2
            assert "Traceback" not in err
            assert "--alpha" in err and "product too large" in err
            assert out == ""

    def test_directory_as_structure_file(self, tmp_path):
        code, out, err = run_process("validate", "algebra", "--algebra",
                                     str(tmp_path))
        assert code == 2
        assert "Traceback" not in err
        assert f"cannot read {tmp_path}" in err
        assert out == ""

    def test_pole_under_substitution(self, tmp_path):
        # a ybx error no handler catches still exits 2 with one line
        obj = json.loads(Path(QUADRATIC).read_text())
        obj["structure"][1][1] = ["n/(m - 1)", "0"]
        bad = tmp_path / "pole.json"
        bad.write_text(json.dumps(obj))
        for verb in (["validate", "algebra"], ["check", "constant"]):
            code, out, err = run_process(*verb, "--algebra", str(bad),
                                         "--m", "1")
            assert code == 2, verb
            assert "Traceback" not in err
            assert err == "error: denominator m - 1 vanishes under " \
                          "substitution\n"
            assert out == ""

    def test_split_center_needs_a_sample(self, capsys):
        for samples in ("0", "-1"):
            code, out, err = run(capsys, "check", "split-center",
                                 "--samples", samples)
            assert code == 2
            assert "--samples" in err
            assert out == ""

    def test_colored_needs_a_sample(self, capsys):
        for samples in ("0", "-3", "abc"):
            code, out, err = run(capsys, "check", "colored", "--algebra",
                                 SIGMA, "--samples", samples)
            assert code == 2
            assert "--samples" in err
            assert out == ""
        assert "invalid int value: 'abc'" in err

    def test_integers_past_the_digit_limit(self, tmp_path):
        # int() and str() raise ValueError past 4,300 digits, which ended in
        # a traceback: a literal, a product of two powers in bounds, and a
        # structure entry as a JSON integer or a string
        nines = "9" * 5000
        cases = [
            (["check", "constant", "--algebra", QUADRATIC, "--alpha", nines],
             "integer literal larger than 2^10000"),
            (["check", "constant", "--algebra", QUADRATIC, "--alpha",
              "(2^9000)*(2^9000)", "--beta", "1", "--gamma", "1"],
             "coefficients longer than 10000 bits")]
        obj = json.loads(Path(QUADRATIC).read_text())
        obj["structure"][1][1][0] = "@"
        for n, entry in enumerate((nines, f'"{nines}"')):
            bad = tmp_path / f"big{n}.json"
            bad.write_text(json.dumps(obj).replace('"@"', entry))
            cases.append((["validate", "algebra", "--algebra", str(bad)],
                          "integer literal larger than 2^10000"))
        for argv, message in cases:
            code, out, err = run_process(*argv)
            assert code == 2, argv
            assert "Traceback" not in err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err
            assert out == ""

    def test_determinant_past_the_digit_limit(self, capsys):
        argv = ("invert", "--family", "dn", "--algebra", QUADRATIC, "--m", "1",
                "--n", "1", "--alpha", "2^9000", "--beta", "1", "--gamma", "1",
                "--format", "json")
        code, out, err = run_process(*argv)
        assert code == 0 and err == ""
        table = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
        expected = det_permutation_expansion(
            dn_matrix(table, [1, 0], Fraction(2 ** 9000), 1, 1))
        limit = sys.get_int_max_str_digits()
        try:
            # main lifts the limit while it runs and restores it
            sys.set_int_max_str_digits(4321)
            assert run(capsys, *argv)[0] == 0
            assert sys.get_int_max_str_digits() == 4321
            sys.set_int_max_str_digits(0)
            assert json.loads(out)["determinant"] == str(expected)
            assert len(str(expected)) > 4321
        finally:
            sys.set_int_max_str_digits(limit)


# the command that each integer flag is given to, before the flag
_INT_FLAG_COMMANDS = {
    "--seed": ("check", "colored", "--algebra", SIGMA, "--samples", "1"),
    "--samples": ("check", "colored", "--algebra", SIGMA),
    "--dim": ("check", "split-center", "--samples", "1"),
    "--z-index": ("check", "super", "--superalgebra", GL11),
}


# int() alone would also read the digits of other scripts, underscores and
# blanks; an integer flag takes an optional sign and ASCII digits
@pytest.mark.parametrize("flag, value", [
    ("--seed", "٣"), ("--seed", "1_0"), ("--seed", " 7 "), ("--seed", "7\n"),
    ("--seed", "--7"), ("--samples", "٢"), ("--samples", "1_0"),
    ("--dim", "٣"), ("--dim", " 3"), ("--z-index", "٠"), ("--z-index", "0 "),
], ids=["seed-arabic-indic", "seed-underscore", "seed-blanks", "seed-newline",
        "seed-two-signs", "samples-arabic-indic", "samples-underscore",
        "dim-arabic-indic", "dim-blank", "z-index-arabic-indic",
        "z-index-blank"])
def test_an_integer_flag_refuses_what_int_alone_reads(capsys, flag, value):
    code, out, err = run(capsys, *_INT_FLAG_COMMANDS[flag], f"{flag}={value}")
    assert code == 2 and out == ""
    assert f"argument {flag}: invalid int value: {value!r}" in err


@pytest.mark.parametrize("flag, value, same", [
    ("--seed", "+7", "7"), ("--seed", "-7", "-7"), ("--samples", "+2", "2"),
    ("--dim", "03", "3"), ("--z-index", "-0", "0"),
])
def test_an_integer_flag_takes_a_sign_and_ascii_digits(capsys, flag, value,
                                                        same):
    command = _INT_FLAG_COMMANDS[flag]
    code, out, err = run(capsys, *command, f"{flag}={value}", "--format",
                         "json")
    again = run(capsys, *command, f"{flag}={same}", "--format", "json")
    assert err == "" and (code, out, err) == again

"""The command line tool: text output, JSON witnesses, exit codes."""
from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys

import pytest

from fibera import KForm, Polynomial, parse_form_expr
from fibera.cli import (EXIT_INTERNAL, EXIT_MATH, EXIT_OK, EXIT_PARSE,
                        form_from_json, form_to_json, main, poly_from_json,
                        poly_to_json)
from conftest import make_random_form, make_random_poly

GOLDEN_SOURCE = """\
# the standing example
vars    = [x, y, z]
weights = [1, 1, 1]
map     = ["x*z", "x^2 + y^2 - z^2"]
form.w1 = "z*d[x] - x*d[z]"
point.p = "1, 0"
"""

QUARTIC_SOURCE = """\
vars    = [x, y]
weights = [1, 1]
map     = ["x^4 + x^2*y^2"]
"""

# (a*c + b*e, a^2 + b^2 - c^2 + e^2) on C^4: the classes are 2-forms, so
# the d block is built from 1-forms, where most d-columns are dependent
QUADRIC_SOURCE = """\
vars    = [a, b, c, e]
weights = [1, 1, 1, 1]
map     = ["a*c + b*e", "a^2 + b^2 - c^2 + e^2"]
"""
QUADRIC_FORM = "3*a^2*b*d[a, c] - 2*c*e^2*d[b, e] + a*b*d[c, e] + 4*e*d[a, b]"

# sha256 and length of the stdout of `class --witness --json` and
# `decompose --json` for QUADRIC_FORM, frozen from an earlier release
QUADRIC_CLASS_STDOUT = (
    "0b84cd9e5b4af8e52687ce31d19fd1e05bdca9a2b40bc13d338b59e0e89be241", 10593)
QUADRIC_DECOMPOSE_STDOUT = (
    "ba0a616077e34ca10e9461656e1cea157cd9a735dc0be5516552a45e2dc5f345", 9251)

BROKEN_SOURCE = """\
vars    = [x, y]
weights = [1, 1]
map     = ["x*q"]
"""

BASIS_TEXT = """\
mu = 5
omega_1 (degree 2) = -y*d[x] + x*d[y]
omega_2 (degree 2) = -z*d[x] + x*d[z]
omega_3 (degree 2) = -z*d[y] + y*d[z]
omega_4 (degree 3) = -y*z*d[x] + x*z*d[y]
omega_5 (degree 3) = -z^2*d[y] + y*z*d[z]
"""

DECOMPOSE_W1_TEXT = """\
a_1(t) = 0
a_2(t) = -1
a_3(t) = 0
a_4(t) = 0
a_5(t) = 0
Omega = 0
eta_1 = 0
eta_2 = 0
verified: identity and degree bounds hold (deg omega = 2)
"""


@pytest.fixture()
def golden_file(tmp_path):
    path = tmp_path / "golden.fib"
    path.write_text(GOLDEN_SOURCE)
    return str(path)


@pytest.fixture()
def quartic_file(tmp_path):
    path = tmp_path / "quartic.fib"
    path.write_text(QUARTIC_SOURCE)
    return str(path)


def _set_in(keys, value):
    """A witness edit that sets obj[keys[0]]...[keys[-1]] = value."""
    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
    return edit


# an integer literal longer than int() converts (4300 digits by default)
LONG = "1" + "0" * 5000
EXPONENT = "1e999999999"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextCommands:
    def test_check_golden(self, capsys, golden_file):
        code, out, err = run(capsys, ["check", golden_file])
        assert code == EXIT_OK
        assert out.splitlines() == [
            "complete intersection at infinity",
            "dim V(I) = 1",
            "dim V(I+J) = 0",
        ]
        assert err == ""

    def test_check_negative_verdict_exits_one(self, capsys, quartic_file):
        code, out, _ = run(capsys, ["check", quartic_file])
        assert code == EXIT_MATH
        assert out.splitlines() == [
            "not a complete intersection at infinity",
            "dim V(I) = 1",
            "dim V(I+J) = 1",
        ]

    def test_milnor(self, capsys, golden_file):
        code, out, _ = run(capsys, ["milnor", golden_file])
        assert code == EXIT_OK
        assert out == "mu = 5\n"

    def test_basis_text_is_frozen(self, capsys, golden_file):
        code, out, _ = run(capsys, ["basis", golden_file])
        assert code == EXIT_OK
        assert out == BASIS_TEXT

    def test_basis_is_byte_stable(self, capsys, golden_file):
        first = run(capsys, ["basis", golden_file])
        second = run(capsys, ["basis", golden_file])
        assert first == second

    def test_class_of_globally_exact_form(self, capsys, golden_file):
        code, out, _ = run(
            capsys, ["class", golden_file, "--form", "d[x]", "--point", "1,0"])
        assert code == EXIT_OK
        assert out == "lambda = (0, 0, 0, 0, 0)\n"

    def test_class_named_form_and_point(self, capsys, golden_file):
        code, out, _ = run(
            capsys, ["class", golden_file, "--form", "w1", "--point", "p"])
        assert code == EXIT_OK
        assert out == "lambda = (0, -1, 0, 0, 0)\n"

    def test_class_witness_lines(self, capsys, golden_file):
        code, out, _ = run(capsys, ["class", golden_file, "--form", "w1",
                                    "--point", "p", "--witness"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "lambda = (0, -1, 0, 0, 0)"
        assert lines[1].startswith("Omega = ")
        assert lines[2].startswith("eta_1 = ")
        assert lines[3].startswith("eta_2 = ")
        assert len(lines) == 4

    def test_decompose_text_is_frozen(self, capsys, golden_file):
        code, out, _ = run(capsys, ["decompose", golden_file, "--form", "w1"])
        assert code == EXIT_OK
        assert out == DECOMPOSE_W1_TEXT

    def test_quadric_class_witness_json_is_frozen(self, capsys, tmp_path):
        path = tmp_path / "quadric.fib"
        path.write_text(QUADRIC_SOURCE)
        code, out, _ = run(capsys, ["class", str(path), "--form", QUADRIC_FORM,
                                    "--point", "2/3, -1", "--witness", "--json"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["result"]["lambda"] == ["1/10", "56/45", "2/15", "-1/15",
                                           "1/2", "0", "0"]
        assert len(obj["witness"]["omega"]) == 47
        data = out.encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(), len(data)) == QUADRIC_CLASS_STDOUT

    def test_quadric_decompose_json_is_frozen(self, capsys, tmp_path):
        path = tmp_path / "quadric.fib"
        path.write_text(QUADRIC_SOURCE)
        code, out, _ = run(capsys, ["decompose", str(path), "--form",
                                    QUADRIC_FORM, "--json"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert [len(a) for a in obj["result"]["a"]] == [1, 2, 1, 1, 1, 0, 0]
        assert len(obj["witness"]["omega"]) == 36
        data = out.encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(),
                len(data)) == QUADRIC_DECOMPOSE_STDOUT

    def test_decompose_higher_degree_form(self, capsys, golden_file):
        code, out, _ = run(capsys, ["decompose", golden_file,
                                    "--form", "z^2*d[x] - x*z*d[z]"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[-1] == ("verified: identity and degree bounds hold "
                             "(deg omega = 3)")
        assert sum(1 for ln in lines if ln.startswith("a_")) == 5
        assert sum(1 for ln in lines if ln.startswith("eta_")) == 2

    def test_subalgebra_member(self, capsys, golden_file):
        code, out, _ = run(capsys,
                           ["subalgebra", golden_file, "--poly", "x*z"])
        assert code == EXIT_OK
        assert out == "A(t) = t_1\n"

    def test_subalgebra_composite(self, capsys, golden_file):
        code, out, _ = run(capsys, ["subalgebra", golden_file,
                                    "--poly", "x^2*z^2 + 1"])
        assert code == EXIT_OK
        assert out == "A(t) = t_1^2 + 1\n"

    def test_subalgebra_nonmember_still_exits_zero(self, capsys, golden_file):
        code, out, _ = run(capsys, ["subalgebra", golden_file, "--poly", "x"])
        assert code == EXIT_OK
        assert out == "not in C[F]\n"

    def test_subalgebra_rejects_positive_degree_form(self, capsys,
                                                     golden_file):
        code, _, err = run(capsys,
                           ["subalgebra", golden_file, "--poly", "d[x]"])
        assert code == EXIT_PARSE
        assert "polynomial, not a form" in err


class TestDashValues:
    """A value of --form, --point or --poly may start with "-"; the output
    equals that of the --opt=value spelling."""

    @pytest.mark.parametrize("argv", [
        ["class", "{f}", "--form", "x*d[y]", "--point", "-5/3,1"],
        ["class", "{f}", "--form", "-z*d[x] + x*d[z]", "--point", "-1, 2",
         "--witness", "--json"],
        ["class", "{f}", "--point", "-2", "--form", "-x*d[y]"],
        ["decompose", "{f}", "--form", "-y*z*d[x] + x*z*d[y]"],
        ["subalgebra", "{f}", "--poly", "-x*z + 3"],
        ["subalgebra", "{f}", "--poly", "-x"],
        ["class", "{f}", "--fo", "-x*d[y]", "--poi", "-5/3,1"],
    ], ids=["point", "form-and-point-json", "short-point", "decompose",
            "member", "nonmember", "abbreviated"])
    def test_dash_value_equals_the_joined_spelling(self, capsys, golden_file,
                                                   argv):
        argv = [golden_file if a == "{f}" else a for a in argv]
        joined = []
        for a in argv:
            if joined and joined[-1] in ("--form", "--point", "--poly",
                                         "--fo", "--poi"):
                joined[-1] += "=" + a
            else:
                joined.append(a)
        assert joined != argv
        assert run(capsys, argv) == run(capsys, joined)

    def test_negative_point_coordinate(self, capsys, golden_file):
        code, out, _ = run(capsys, ["class", golden_file, "--form", "w1",
                                    "--point", "-5/3,1"])
        assert code == EXIT_OK
        assert out == "lambda = (0, -1, 0, 0, 0)\n"

    def test_arity_error_still_names_the_point(self, capsys, golden_file):
        code, _, err = run(capsys, ["class", golden_file, "--form", "d[x]",
                                    "--point", "-2"])
        assert code == EXIT_PARSE
        assert "point has 1 coordinates, expected 2" in err

    @pytest.mark.parametrize("argv", [
        ["class", "{f}", "--form", "--json", "--point", "p"],
        ["class", "{f}", "--form", "w1", "--", "-x"],
    ], ids=["option-after-option", "end-of-options"])
    def test_a_double_dash_stays_an_option(self, capsys, golden_file, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([golden_file if a == "{f}" else a for a in argv])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_dash_value_from_the_command_line(self, golden_file):
        proc = subprocess.run(
            [sys.executable, "-m", "fibera.cli", "class", golden_file,
             "--form", "-x*d[y]", "--point", "-5/3,1"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("lambda = (")


class TestGuardsAndErrors:
    def test_degree_bound_exceeded(self, capsys, golden_file):
        code, _, err = run(capsys, ["class", golden_file,
                                    "--form", "z^2*d[x] - x*z*d[z]",
                                    "--point", "p", "--degree-bound", "2"])
        assert code == EXIT_MATH
        assert err == ("error: form has weighted degree 3, "
                       "exceeding --degree-bound 2\n")

    def test_degree_bound_satisfied(self, capsys, golden_file):
        code, out, _ = run(capsys, ["class", golden_file,
                                    "--form", "z^2*d[x] - x*z*d[z]",
                                    "--point", "p", "--degree-bound", "3"])
        assert code == EXIT_OK
        assert out.startswith("lambda = (")

    def test_parse_error_in_problem_file(self, capsys, tmp_path):
        path = tmp_path / "broken.fib"
        path.write_text(BROKEN_SOURCE)
        code, out, err = run(capsys, ["check", str(path)])
        assert code == EXIT_PARSE
        assert out == ""
        assert err == "parse error: line 3, column 15: unknown variable 'q'\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["milnor", str(tmp_path / "nope.fib")])
        assert code == EXIT_PARSE
        assert err.startswith("parse error: cannot read")

    def test_point_arity_mismatch(self, capsys, golden_file):
        code, _, err = run(capsys, ["class", golden_file,
                                    "--form", "d[x]", "--point", "1"])
        assert code == EXIT_PARSE
        assert "point has 1 coordinates, expected 2" in err

    def test_bad_rational_in_point(self, capsys, golden_file):
        code, _, err = run(capsys, ["class", golden_file,
                                    "--form", "d[x]", "--point", "1,huh"])
        assert code == EXIT_PARSE
        assert "bad rational 'huh' in point" in err

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "file"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch,
                                                  golden_file):
        monkeypatch.setattr("fibera.cli.verify_decomposition",
                            lambda *args: False)
        code, out, err = run(capsys, ["decompose", golden_file, "--form", "w1"])
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err == "internal error: decomposition failed self-verification\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, edit, code, message", [
        ("class", ["--form", "2\u00b2*d[x]", "--point", "1,0"],
         EXIT_PARSE, "unexpected character '\u00b2'"),
        ("check", ("weights = [1, 1, 1]", "weights = [1, \u00b2, 1]"),
         EXIT_PARSE, "weights must be positive integers, got '\u00b2'"),
        ("check", ('"x^2 + y^2 - z^2"', '"d[x] - d[x]"'),
         EXIT_MATH, "error: component 2 is zero\n"),
        ("verify", _set_in(["result", "a", 1, 0, 0], [-1, 0]),
         EXIT_PARSE, "exponents and indices must be nonnegative integers"),
        ("verify", _set_in(["result", "a", 1, 0, 1], [0]),
         EXIT_PARSE, "malformed witness payload: not a 0-form"),
        ("verify", _set_in(["witness", "omega"], [[[0.5, 0, 0], [], "1"]]),
         EXIT_PARSE, "exponents and indices must be nonnegative integers"),
        ("verify", _set_in(["result", "a", 1, 0, 2], float("inf")),
         EXIT_PARSE, "malformed witness payload: bad rational inf"),
        ("verify", _set_in(["problem"], 5),
         EXIT_PARSE, "witness JSON problem is not a string"),
        ("class", ["--form", LONG + "*d[x]", "--point", "1,0"],
         EXIT_PARSE, "line 1, column 1: integer literal of 5001 digits is too long"),
        ("check", ('"x*z"', f'"{LONG}*x*z"'),
         EXIT_PARSE, "line 4, column 13: integer literal of 5001 digits is too long"),
        ("check", ("weights = [1, 1, 1]", f"weights = [1, {LONG}, 1]"),
         EXIT_PARSE, "line 3, column 15: integer literal of 5001 digits is too long"),
        ("verify", _set_in(["result", "a", 1, 0, 0], ["LONG", 0]),
         EXIT_PARSE, "bad witness JSON: integer literal too long"),
        ("class", ["--form", "d[x]", "--point", EXPONENT + ",0"],
         EXIT_PARSE, f"bad rational '{EXPONENT}' in point"),
        ("verify", _set_in(["form", 0, 2], EXPONENT),
         EXIT_PARSE, f"malformed witness payload: bad rational '{EXPONENT}'"),
        ("verify-class", _set_in(["result", "lambda", 0], EXPONENT),
         EXIT_PARSE, f"malformed witness payload: bad rational '{EXPONENT}'"),
        ("class", ["--form", "d[x]", "--point", LONG + ",0"],
         EXIT_PARSE, "integer literal of 5001 digits is too long in point"),
        ("verify", _set_in(["form", 0, 2], LONG), EXIT_PARSE,
         "malformed witness payload: integer literal of 5001 digits is too long"),
        ("verify-class", _set_in(["result", "lambda", 0], "-1/" + LONG), EXIT_PARSE,
         "malformed witness payload: integer literal of 5001 digits is too long"),
        # JSON true and false would read as 1 and 0, the values they replace
        ("verify-class", _set_in(["point"], [True, False]),
         EXIT_PARSE, "malformed witness payload: bad rational True"),
        ("verify-class", _set_in(["result", "lambda", 0], False),
         EXIT_PARSE, "malformed witness payload: bad rational False"),
        ("verify", _set_in(["form", 0, 2], True),
         EXIT_PARSE, "malformed witness payload: bad rational True"),
        # a JSON float would read at its binary value: 1.0 as 1 (PASS) and
        # 0.1 as 3602879701896397/36028797018963968 (FAIL)
        ("verify-class", _set_in(["point"], [1.0, 0]),
         EXIT_PARSE, "malformed witness payload: bad rational 1.0"),
        ("verify-class", _set_in(["point"], [0.1, 0]),
         EXIT_PARSE, "malformed witness payload: bad rational 0.1"),
        ("verify-class", _set_in(["result", "lambda", 0], 0.1),
         EXIT_PARSE, "malformed witness payload: bad rational 0.1"),
        ("verify", _set_in(["form", 0, 2], 1.0),
         EXIT_PARSE, "malformed witness payload: bad rational 1.0"),
    ], ids=["superscript-in-form", "superscript-weight", "zero-form-component",
            "negative-exponent-in-a", "index-list-in-a", "fractional-exponent",
            "infinite-coefficient", "problem-not-a-string", "long-integer-in-form",
            "long-integer-in-map", "long-weight", "long-integer-in-witness",
            "exponent-in-point", "exponent-in-coefficient", "exponent-in-lambda",
            "long-rational-in-point", "long-rational-in-coefficient",
            "long-rational-in-lambda", "boolean-point", "boolean-lambda",
            "boolean-coefficient", "integral-float-point", "float-point",
            "float-lambda", "float-coefficient"])
    def test_malformed_input_exits_cleanly(self, capsys, tmp_path, golden_file,
                                           command, edit, code, message):
        if command == "check":
            path = tmp_path / "edited.fib"
            path.write_text(GOLDEN_SOURCE.replace(*edit))
            argv = [command, str(path)]
        elif command.startswith("verify"):
            # decomposes w1 = -b_2: a_2 = -1 is the witness's only a-term
            emit = (["class", golden_file, "--form", "w1", "--point", "1,0",
                     "--witness"] if command == "verify-class"
                    else ["decompose", golden_file, "--form", "w1"])
            assert main([*emit, "--json"]) == 0
            obj = json.loads(capsys.readouterr().out)
            edit(obj)
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(obj).replace('"LONG"', LONG))
            argv = ["verify", str(path)]
        else:
            argv = [command, golden_file, *edit]
        got, out, err = run(capsys, argv)
        assert (got, out) == (code, "")
        assert message in err


    def test_long_point_coordinate_is_not_echoed(self, capsys, golden_file):
        code, out, err = run(capsys, ["class", golden_file, "--form", "d[x]",
                                      "--point", LONG + ",0"])
        assert (code, out) == (EXIT_PARSE, "")
        assert err == ("parse error: integer literal of 5001 digits is too "
                       "long in point\n")


class TestJsonOutput:
    def test_check_json(self, capsys, golden_file):
        code, out, _ = run(capsys, ["check", golden_file, "--json"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["command"] == "check"
        assert obj["problem"] == GOLDEN_SOURCE
        assert obj["input_hash"] == hashlib.sha256(
            GOLDEN_SOURCE.encode("utf-8")).hexdigest()
        assert obj["result"] == {
            "cia": True,
            "dim_fibre_at_infinity": 1,
            "dim_singular_at_infinity": 0,
            "n": 3,
            "q": 2,
        }

    def test_basis_json(self, capsys, golden_file):
        code, out, _ = run(capsys, ["basis", golden_file, "--json"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["result"]["mu"] == 5
        assert obj["result"]["degrees"] == [2, 2, 2, 3, 3]
        assert len(obj["result"]["forms"]) == 5
        again = run(capsys, ["basis", golden_file, "--json"])[1]
        assert again == out

    def test_class_json_embeds_the_query(self, capsys, golden_file):
        code, out, _ = run(capsys, ["class", golden_file, "--form", "w1",
                                    "--point", "1,2", "--json", "--witness"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["point"] == ["1", "2"]
        assert obj["result"]["lambda"] == ["0", "-1", "0", "0", "0"]
        assert obj["witness"] is not None
        recovered = form_from_json(obj["form"], 3)
        assert recovered == parse_form_expr("z*d[x] - x*d[z]", ["x", "y", "z"])

    def test_subalgebra_json(self, capsys, golden_file):
        code, out, _ = run(capsys, ["subalgebra", golden_file,
                                    "--poly", "x*z", "--json"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["result"]["in_subalgebra"] is True
        assert poly_from_json(obj["result"]["a"], 2) == \
            poly_from_json([[[1, 0], [], "1"]], 2)

    def test_form_codec_round_trip(self):
        rng = random.Random(2024)
        for _ in range(25):
            n = rng.choice([2, 3])
            k = rng.randint(0, n)
            f = make_random_form(rng, n, k, (1,) * n, 4)
            assert form_from_json(form_to_json(f), n) == f

    def test_poly_codec_round_trip(self):
        rng = random.Random(2025)
        for _ in range(25):
            n = rng.choice([2, 3])
            p = make_random_poly(rng, n, (1,) * n, 4)
            assert poly_from_json(poly_to_json(p), n) == p

    def test_zero_form_codec(self):
        z = KForm.zero(3, 1)
        assert form_to_json(z) == []
        assert form_from_json([], 3).is_zero()


def _short_point_third_eta(obj):
    obj["point"] = obj["point"][:1]
    obj["witness"]["eta"].append([])


class TestVerify:
    def _emit(self, capsys, tmp_path, argv, name="witness.json"):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        path = tmp_path / name
        path.write_text(out)
        return path, json.loads(out)

    def test_verify_decompose_passes(self, capsys, tmp_path, golden_file):
        path, _ = self._emit(capsys, tmp_path,
                             ["decompose", golden_file, "--form",
                              "z^2*d[x] - x*z*d[z]", "--json"])
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == EXIT_OK
        assert out == "verification: PASS\n"

    def test_verify_class_passes(self, capsys, tmp_path, golden_file):
        path, _ = self._emit(capsys, tmp_path,
                             ["class", golden_file, "--form", "w1",
                              "--point", "1,2", "--json", "--witness"])
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == EXIT_OK
        assert out == "verification: PASS\n"

    def test_verify_rejects_corrupted_witness(self, capsys, tmp_path,
                                              golden_file):
        path, obj = self._emit(capsys, tmp_path,
                               ["class", golden_file, "--form", "w1",
                                "--point", "1,2", "--json", "--witness"])
        obj["witness"]["omega"] = [[[3, 0, 0], [], "1"]]
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == EXIT_MATH
        assert out == ("verification: FAIL "
                       "(identity or degree bounds do not hold)\n")

    def test_verify_rejects_corrupted_coefficients(self, capsys, tmp_path,
                                                   golden_file):
        path, obj = self._emit(capsys, tmp_path,
                               ["decompose", golden_file, "--form", "w1",
                                "--json"])
        obj["result"]["a"][0] = [[[0, 0], [], "7"]]
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == EXIT_MATH
        assert "identity or degree bounds do not hold" in out

    @pytest.mark.parametrize("command, edit", [
        ("class", lambda obj: obj["result"]["lambda"].append("0")),
        ("class", _short_point_third_eta),
        ("decompose", lambda obj: obj["result"]["a"].append([])),
        ("decompose", lambda obj: obj["witness"]["eta"].append([])),
    ], ids=["sixth-lambda", "short-point-third-eta", "sixth-a", "third-eta"])
    def test_verify_rejects_misshaped_witness(self, capsys, tmp_path,
                                              golden_file, command, edit):
        argv = [command, golden_file, "--form", "w1", "--json"]
        if command == "class":
            argv += ["--point", "1,2", "--witness"]
        path, obj = self._emit(capsys, tmp_path, argv)
        edit(obj)
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == EXIT_MATH
        assert out == ("verification: FAIL "
                       "(identity or degree bounds do not hold)\n")

    def test_verify_rejects_excess_degree_before_composing(
            self, capsys, tmp_path, golden_file, monkeypatch):
        # a_1 = t_2^1000 breaks its degree bound; composing it with F first
        # used to take time that grows fast with the exponent
        path, obj = self._emit(capsys, tmp_path,
                               ["decompose", golden_file, "--form", "w1",
                                "--json"])
        obj["result"]["a"][0] = [[[0, 1000], [], "1"]]
        path.write_text(json.dumps(obj))

        def refuse(*args):
            raise AssertionError("composed a coefficient polynomial")
        monkeypatch.setattr(Polynomial, "compose", refuse)
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == EXIT_MATH
        assert out == ("verification: FAIL "
                       "(identity or degree bounds do not hold)\n")

    def test_verify_wrong_degree_eta_is_a_parse_error(self, capsys, tmp_path,
                                                      golden_file):
        path, obj = self._emit(capsys, tmp_path,
                               ["decompose", golden_file, "--form", "w1",
                                "--json"])
        obj["witness"]["eta"][0] = [[[1, 0, 0], [0, 1], "1"]]
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == EXIT_PARSE
        assert out == ""
        assert err == ("parse error: malformed witness payload: "
                       "cannot add forms of different degree\n")

    def test_verify_rejects_hash_mismatch(self, capsys, tmp_path,
                                          golden_file):
        path, obj = self._emit(capsys, tmp_path,
                               ["decompose", golden_file, "--form", "w1",
                                "--json"])
        obj["input_hash"] = "0" * 64
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == EXIT_MATH
        assert out == "verification: FAIL (input_hash mismatch)\n"

    def test_verify_requires_witness(self, capsys, tmp_path, golden_file):
        path, _ = self._emit(capsys, tmp_path,
                             ["class", golden_file, "--form", "w1",
                              "--point", "1,2", "--json"])
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == EXIT_PARSE
        assert "no witness" in err

    def test_verify_rejects_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{ not json")
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == EXIT_PARSE
        assert err.startswith("parse error: bad witness JSON:")

    def test_verify_rejects_missing_payload_key(self, capsys, tmp_path,
                                                golden_file):
        path, obj = self._emit(capsys, tmp_path,
                               ["decompose", golden_file, "--form", "w1",
                                "--json"])
        del obj["form"]
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == EXIT_PARSE
        assert "malformed witness payload" in err

    def test_verify_rejects_missing_top_level_key(self, capsys, tmp_path,
                                                  golden_file):
        path, obj = self._emit(capsys, tmp_path,
                               ["decompose", golden_file, "--form", "w1",
                                "--json"])
        del obj["result"]
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == EXIT_PARSE
        assert "witness JSON missing key" in err

    def test_verify_rejects_unsupported_command(self, capsys, tmp_path,
                                                golden_file):
        path, obj = self._emit(capsys, tmp_path,
                               ["decompose", golden_file, "--form", "w1",
                                "--json"])
        obj["command"] = "milnor"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["verify", str(path)])
        assert code == EXIT_PARSE
        assert "cannot verify a 'milnor' result" in err


class TestScaledGoldenMap:
    """The golden map with x*z scaled by N = (2^61 - 1)(2^31 - 1) or by 1/N
    answers every command as the golden map does, whether or not the
    modular rank profile certifies."""

    @pytest.fixture(params=["4951760154835678088235319297*x*z",
                            "1/4951760154835678088235319297*x*z"],
                    ids=["N", "1/N"])
    def scaled_file(self, request, tmp_path):
        path = tmp_path / "scaled.fib"
        path.write_text(GOLDEN_SOURCE.replace('"x*z"', f'"{request.param}"'))
        return str(path)

    def test_basis_is_the_golden_one(self, capsys, scaled_file):
        assert run(capsys, ["basis", scaled_file]) == (EXIT_OK, BASIS_TEXT, "")

    def test_class_decompose_and_verify(self, capsys, tmp_path, scaled_file):
        code, _, err = run(capsys, ["class", scaled_file, "--form", "w1",
                                    "--point", "1,0"])
        assert (code, err) == (EXIT_OK, "")
        code, out, err = run(capsys, ["decompose", scaled_file, "--form", "w1",
                                      "--json"])
        assert (code, err) == (EXIT_OK, "")
        path = tmp_path / "witness.json"
        path.write_text(out)
        assert run(capsys, ["verify", str(path)]) == (
            EXIT_OK, "verification: PASS\n", "")


NON_ISOLATED_SOURCE = """\
vars    = [x, y, z]
weights = [1, 1, 1]
map     = ["x*y"]
"""
GOLDEN_FORM = "x*y^2*d[z] + z^3*d[x] - 2*x*d[y] + y*d[x]"
FILE = "FILE"


def _frozen_cases():
    """{case id: (problem text, argv with FILE for the problem path)}; a
    verify case holds the argv that emits its witness."""
    cases = {}
    for tag, source, form, point, poly in [
            ("golden", GOLDEN_SOURCE, GOLDEN_FORM, "2,-1/3", "x^2*z^2 + 1"),
            ("quadric", QUADRIC_SOURCE, QUADRIC_FORM, "1,-2", "a*b")]:
        for name, argv in [
                ("check", ["check", FILE]), ("milnor", ["milnor", FILE]),
                ("basis", ["basis", FILE]),
                ("class", ["class", FILE, "--form", form, "--point", point]),
                ("class-witness", ["class", FILE, "--form", form,
                                   "--point", point, "--witness"]),
                ("decompose", ["decompose", FILE, "--form", form]),
                ("subalgebra", ["subalgebra", FILE, "--poly", poly])]:
            cases[f"{tag}-{name}"] = (source, argv)
            cases[f"{tag}-{name}-json"] = (source, [*argv, "--json"])
    cases["non-isolated-milnor"] = (NON_ISOLATED_SOURCE, ["milnor", FILE])
    cases["non-isolated-basis"] = (NON_ISOLATED_SOURCE, ["basis", FILE])
    cases["parse-error"] = (BROKEN_SOURCE, ["check", FILE])
    cases["verify-pass"] = cases["verify-fail"] = (
        GOLDEN_SOURCE, ["decompose", FILE, "--form", GOLDEN_FORM, "--json"])
    return cases


# sha256 and length of stdout, stderr and exit code of each case
FROZEN_BYTES = {
    "golden-basis": (
        "c18bce04e35776a994ab5d297240c1b244eb05b2cb483397260141fc7175b3d5",
        205, "", 0),
    "golden-basis-json": (
        "191be98c8af57046a39c54757b4ef137088092fdde0d88341f082f602f557488",
        1939, "", 0),
    "golden-check": (
        "cda5cecfb6e906d303545ebf473937513b08c7ac692cb3bc891a1f46c64671f8",
        62, "", 0),
    "golden-check-json": (
        "d701f86ad29e116dccde4ff0caf596acec848b8fd38ff570747a732c34dec2a2",
        430, "", 0),
    "golden-class": (
        "55840e493b3917bbae811b64fe2f79e04eba6a240f536fad140cce9486d0074f",
        31, "", 0),
    "golden-class-json": (
        "7c92c395301b73b2c62e00c9a086e6c53d4604e9a81ae264a5b542466c8f602f",
        856, "", 0),
    "golden-class-witness": (
        "86d357148197fe5b480f53c2c6e9b9491cd5501fd0fbc66013f78a9228a9d08c",
        123, "", 0),
    "golden-class-witness-json": (
        "c855bc13b15e6649b07a7a808a71e8d09a85e989d99ef7704f71687f76a505e6",
        1865, "", 0),
    "golden-decompose": (
        "dcd71b03042c9b0d26f7575a1f7bf69f5d6c4843ef88cd97b394a1195cf06cd6",
        204, "", 0),
    "golden-decompose-json": (
        "ecbea23fcae316694b2d958ad76706700168226a1ea9200b7203ad707c3da2f8",
        1768, "", 0),
    "golden-milnor": (
        "596e57dec5468228d9030e69dced1e9fe95b60a928b5718eb4ce74322d60e0c1",
        7, "", 0),
    "golden-milnor-json": (
        "a25e844ff81ae6e9d484628a3b2bdc588974d958d2b0332018d221c89feaaa13",
        336, "", 0),
    "golden-subalgebra": (
        "8cd3ffeb2e20c6fa035e2170fb6e8bccb8b1a2ae8b7e6858a41bda37d258c10e",
        17, "", 0),
    "golden-subalgebra-json": (
        "73689353ad54d55216b2edaa1346a966ecd0457983e740a41971969c99124c46",
        545, "", 0),
    "non-isolated-basis": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0, "error: non-isolated singularity at infinity\n", 1),
    "non-isolated-milnor": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0, "error: non-isolated singularity at infinity\n", 1),
    "parse-error": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        0, "parse error: line 3, column 15: unknown variable 'q'\n", 2),
    "quadric-basis": (
        "32843c128b0074de4d6a217ee64cf4266a356204882947f5e241d74ee0a3db08",
        389, "", 0),
    "quadric-basis-json": (
        "6a68db796c88fbddd15202a98b020435b0554cedcd8395847fbc9ccf7bb651a7",
        4137, "", 0),
    "quadric-check": (
        "2e35b57bfc436a932bc56dd326ce4f0291d20541423d53dc144a0eac471bfccf",
        62, "", 0),
    "quadric-check-json": (
        "aac6222bb49af1c2e33e5556d5dcc0ca4a6a1ce3ddfd44300915dfbf91167bf7",
        373, "", 0),
    "quadric-class": (
        "a93c6ec0681c329388d0a36ca7799e4499797d03bfbce3c44db9a3fa05d6daa2",
        43, "", 0),
    "quadric-class-json": (
        "efbde8cb2892a63b972320ce20009c1e67719ec72ab6dd8adcc8c3a96c27009d",
        913, "", 0),
    "quadric-class-witness": (
        "9a6a3fc8c496a7acfef89c3b68d73ea413792915a40bbe06a64b9781c91b0995",
        877, "", 0),
    "quadric-class-witness-json": (
        "2844e9333ca9a16bf6d71fa052f535bc4b6c6be5f077c92eb0f7de1384d14c7b",
        10581, "", 0),
    "quadric-decompose": (
        "e888de3c7bf40db6767f600f185b8deb8c855a88b0a8555411d9a41cb85fd71c",
        897, "", 0),
    "quadric-decompose-json": (
        "ba0a616077e34ca10e9461656e1cea157cd9a735dc0be5516552a45e2dc5f345",
        9251, "", 0),
    "quadric-milnor": (
        "776e68644ed3cb4515ae7b56235c735dade5664f5d1db55eae3946d9da6a7c77",
        7, "", 0),
    "quadric-milnor-json": (
        "e7f8d78e3cd13529d016732035b3aba7221d47b45ec70f0eb50964a45292d8f6",
        279, "", 0),
    "quadric-subalgebra": (
        "ea54076a118e7a57882702e310c821f1ecda4215c995e3dbd10ea8b7f23f1354",
        12, "", 0),
    "quadric-subalgebra-json": (
        "f980818b0184163bf9c5f7ebda92be539a537c69bce8805287a16cd7c93b0a24",
        313, "", 0),
    "verify-fail": (
        "9c29c37bf1f3ff713e60c3e3be3ac3f9a10853295ecc12c08beab19ba2917af5",
        59, "", 1),
    "verify-pass": (
        "c47d2823302d27bbd78db63d74acf7dfafab892ba967ac9c575ae13d2ced18bb",
        19, "", 0),
}


class TestFrozenBytes:
    @pytest.mark.parametrize("case", sorted(FROZEN_BYTES))
    def test_output_is_frozen(self, capsys, tmp_path, case):
        source, argv = _frozen_cases()[case]
        path = tmp_path / "problem.fib"
        path.write_text(source)
        argv = [str(path) if a == FILE else a for a in argv]
        if case.startswith("verify"):
            code, out, _ = run(capsys, argv)
            assert code == EXIT_OK
            obj = json.loads(out)
            if case == "verify-fail":
                obj["result"]["a"][0] = [[[0, 0], [], "7"]]
            path = tmp_path / "witness.json"
            path.write_text(json.dumps(obj))
            argv = ["verify", str(path)]
        code, out, err = run(capsys, argv)
        data = out.encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(), len(data), err, code) == \
            FROZEN_BYTES[case]


class TestModuleEntryPoint:
    def test_runs_as_module(self, golden_file):
        proc = subprocess.run(
            [sys.executable, "-m", "fibera.cli", "milnor", golden_file],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "mu = 5\n"

    def test_module_exit_code_propagates(self, quartic_file):
        proc = subprocess.run(
            [sys.executable, "-m", "fibera.cli", "check", quartic_file],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "not a complete intersection at infinity" in proc.stdout

    def test_import_loads_no_unneeded_stdlib_modules(self):
        # every command is its own process, so what `import fibera.cli`
        # loads is paid on each one; only modules loaded by the import
        # itself count, not those a site hook loaded before it
        probe = ("import sys; before = set(sys.modules); import fibera.cli; "
                 "print(' '.join(sorted(set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert "fibera.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "hashlib", "json"}

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
         EXIT_PARSE, "malformed witness payload: cannot convert Infinity"),
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
    ], ids=["superscript-in-form", "superscript-weight", "zero-form-component",
            "negative-exponent-in-a", "index-list-in-a", "fractional-exponent",
            "infinite-coefficient", "problem-not-a-string", "long-integer-in-form",
            "long-integer-in-map", "long-weight", "long-integer-in-witness",
            "exponent-in-point", "exponent-in-coefficient", "exponent-in-lambda"])
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

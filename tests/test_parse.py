"""The expression grammar, problem files, and stable printing."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fibera import (
    KForm,
    ParseError,
    Polynomial,
    form_str,
    parse_form_expr,
    parse_polynomial_expr,
    parse_problem,
    poly_str,
)
from fibera.parse import parse_rational
from conftest import make_random_form, make_random_poly, variables

NAMES3 = ["x", "y", "z"]

GOLDEN_SOURCE = """\
# the standing example
vars    = [x, y, z]
weights = [1, 1, 1]
map     = ["x*z", "x^2 + y^2 - z^2"]
form.w1 = "z*d[x] - x*d[z]"
point.p = "1, 0"
"""


class TestExpressions:
    def test_polynomials(self):
        x, y, z = variables(3)
        assert parse_polynomial_expr("x^2 + y^2 - z^2", NAMES3) == \
            x ** 2 + y ** 2 - z ** 2
        assert parse_polynomial_expr("x*z", NAMES3) == x * z
        assert parse_polynomial_expr("-x", NAMES3) == -x
        assert parse_polynomial_expr("(x + y)^3", NAMES3) == (x + y) ** 3
        assert parse_polynomial_expr("0", NAMES3) == Polynomial.zero(3)
        assert parse_polynomial_expr("2", NAMES3) == 2

    def test_rational_literals(self):
        x, _, _ = variables(3)
        assert parse_polynomial_expr("1/2", NAMES3) == Fraction(1, 2)
        assert parse_polynomial_expr("3/4*x", NAMES3) == Fraction(3, 4) * x
        assert parse_polynomial_expr("1/2 + 1/2", NAMES3) == 1

    def test_division_by_zero(self):
        with pytest.raises(ParseError, match="division by zero"):
            parse_polynomial_expr("1/0", NAMES3)

    def test_forms(self):
        x, y, z = variables(3)
        dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
        assert parse_form_expr("d[x]", NAMES3) == dx
        assert parse_form_expr("z*d[x] - x*d[z]", NAMES3) == z * dx - x * dz
        assert parse_form_expr("d[x,y]", NAMES3) == dx.wedge(dy)
        assert parse_form_expr("d[y,x]", NAMES3) == -dx.wedge(dy)
        assert parse_form_expr("d[x,x]", NAMES3).is_zero()
        assert parse_form_expr("d[]", NAMES3) == \
            KForm.from_polynomial(Polynomial.constant(3, 1))
        assert parse_form_expr("(x + y)*d[z]", NAMES3) == (x + y) * dz

    def test_wedge_via_star(self):
        dx = KForm.basis_form(3, (0,))
        dy = KForm.basis_form(3, (1,))
        assert parse_form_expr("d[x]*d[y]", NAMES3) == dx.wedge(dy)

    def test_unary_minus_stacking(self):
        x, _, _ = variables(3)
        assert parse_polynomial_expr("--x", NAMES3) == x
        assert parse_polynomial_expr("-+-x", NAMES3) == x

    def test_power_of_form(self):
        dx = KForm.basis_form(3, (0,))
        assert parse_form_expr("d[x]^1", NAMES3) == dx
        with pytest.raises(ParseError, match="positive-degree form"):
            parse_form_expr("d[x]^2", NAMES3)

    def test_degree_mismatch_in_sum(self):
        with pytest.raises(ParseError, match="different degree"):
            parse_form_expr("x + d[x]", NAMES3)

    def test_unknown_variable_position(self):
        with pytest.raises(ParseError) as exc:
            parse_form_expr("x + w", NAMES3)
        assert exc.value.line == 1 and exc.value.col == 5
        assert "line 1, column 5" in str(exc.value)

    def test_malformed_expressions(self):
        for bad in ("x +", "(x", "x ^ y", "d[", "d[x", "d[1]", "*x", "x])",
                    "2\u00b2*d[x]", "x^\u00b2"):
            with pytest.raises(ParseError):
                parse_form_expr(bad, NAMES3)

    def test_polynomial_required(self):
        with pytest.raises(ParseError, match="expected a polynomial"):
            parse_polynomial_expr("d[x]", NAMES3)

    def test_zero_form_is_the_zero_polynomial(self):
        assert parse_polynomial_expr("d[x] - d[x]", NAMES3) == Polynomial.zero(3)


class TestPrinting:
    def test_poly_str_frozen(self):
        x, y, z = variables(3)
        assert poly_str(x ** 2 + y ** 2 - z ** 2, NAMES3) == "x^2 + y^2 - z^2"
        assert poly_str(Polynomial.zero(3), NAMES3) == "0"
        assert poly_str(-x, NAMES3) == "-x"
        assert poly_str(Fraction(1, 2) * x, NAMES3) == "1/2*x"
        assert poly_str(Polynomial.constant(3, -7), NAMES3) == "-7"

    def test_form_str_frozen(self):
        x, y, z = variables(3)
        dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
        assert form_str(z * dx - x * dz, NAMES3) == "z*d[x] - x*d[z]"
        assert form_str(KForm.zero(3, 1), NAMES3) == "0"
        assert form_str((x + y) * dz, NAMES3) == "(x + y)*d[z]"
        assert form_str(dx.wedge(dy), NAMES3) == "d[x,y]"
        assert form_str(-dx, NAMES3) == "-d[x]"
        assert form_str(KForm.from_polynomial(x * y), NAMES3) == "x*y"
        assert form_str(2 * dx, NAMES3) == "2*d[x]"
        assert form_str(Fraction(-3, 2) * (x * dy), NAMES3) == "-3/2*x*d[y]"

    def test_round_trip_polynomials(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 3) for _ in range(n))
            p = make_random_poly(rng, n, w, 4, density=0.6)
            names = NAMES3[:n]
            text = poly_str(p, names, w)
            assert parse_polynomial_expr(text, names) == p

    def test_round_trip_forms(self):
        rng = random.Random(72)
        for _ in range(40):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 3) for _ in range(n))
            k = rng.randint(0, n)
            f = make_random_form(rng, n, k, w, 4, density=0.6)
            names = NAMES3[:n]
            text = form_str(f, names, w)
            got = parse_form_expr(text, names)
            assert got == f

    def test_fraction_coefficients_round_trip(self):
        x, y, z = variables(3)
        dz = KForm.basis_form(3, (2,))
        f = Fraction(-3, 7) * (x * dz) + Fraction(1, 2) * (y * dz)
        assert parse_form_expr(form_str(f, NAMES3), NAMES3) == f


class TestProblemFiles:
    def test_golden_file(self):
        prob = parse_problem(GOLDEN_SOURCE)
        assert prob.var_names == ["x", "y", "z"]
        assert prob.weights == (1, 1, 1)
        assert prob.n == 3 and prob.q == 2
        x, y, z = variables(3)
        assert prob.map_components[0] == x * z
        assert prob.map_components[1] == x ** 2 + y ** 2 - z ** 2
        dx, dz = KForm.basis_form(3, (0,)), KForm.basis_form(3, (2,))
        assert prob.forms["w1"] == z * dx - x * dz
        assert prob.points["p"] == (Fraction(1), Fraction(0))

    def test_semicolon_statements(self):
        prob = parse_problem('vars=[x,y]; weights=[1,1]; map=["x*y"]')
        assert prob.q == 1 and prob.n == 2

    def test_rational_point_coordinates(self):
        prob = parse_problem(
            'vars=[x,y]\nweights=[1,1]\nmap=["x^2+y^2"]\npoint.a = "-3/2"')
        assert prob.points["a"] == (Fraction(-3, 2),)

    def test_missing_required_key(self):
        with pytest.raises(ParseError, match="missing required key"):
            parse_problem('vars=[x,y]\nweights=[1,1]')

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_problem('vars=[x,y]\nvars=[x,y]\nweights=[1,1]\nmap=["x"]')

    def test_reserved_d(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_problem('vars=[d,y]\nweights=[1,1]\nmap=["y"]')

    def test_bad_weights(self):
        with pytest.raises(ParseError, match="positive integers"):
            parse_problem('vars=[x,y]\nweights=[1,0]\nmap=["x"]')
        with pytest.raises(ParseError, match="positive integers"):
            parse_problem('vars=[x,y]\nweights=[1,-2]\nmap=["x"]')
        with pytest.raises(ParseError, match="weights"):
            parse_problem('vars=[x,y]\nweights=[1]\nmap=["x"]')
        with pytest.raises(ParseError, match="positive integers"):
            parse_problem('vars=[x,y]\nweights=[1,\u00b2]\nmap=["x"]')

    def test_too_many_components(self):
        with pytest.raises(ParseError, match="fewer components"):
            parse_problem('vars=[x,y]\nweights=[1,1]\nmap=["x", "y"]')
        with pytest.raises(ParseError, match="fewer components"):
            parse_problem('vars=[x]\nweights=[1]\nmap=["x"]')

    def test_point_arity_check(self):
        with pytest.raises(ParseError, match="coordinates"):
            parse_problem(
                'vars=[x,y,z]\nweights=[1,1,1]\nmap=["x*z", "y^2"]\n'
                'point.p = "1"')

    def test_bad_rational_in_point(self):
        with pytest.raises(ParseError) as exc:
            parse_problem('vars=[x,y]\nweights=[1,1]\nmap=["x^2+y^2"]\n'
                          'point.a = "1/0"')
        assert str(exc.value) == "line 4, column 12: bad rational '1/0' in point"

    def test_long_rational_gives_its_digit_count(self):
        # int() alone would raise Python's own message, which names
        # sys.set_int_max_str_digits
        for text in ("1" * 5001, "-" + "1" * 5001, "3/" + "1" * 5001):
            with pytest.raises(ParseError) as exc:
                parse_rational(text)
            assert str(exc.value) == "integer literal of 5001 digits is too long"
        assert parse_rational("-" + "1" * 4300) == -int("1" * 4300)
        assert parse_rational("+6/4") == Fraction(3, 2)

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_problem('vars=[x,y]\nweights=[1,1]\nmap=["x"]\nplot = "yes"')

    def test_error_position_reported(self):
        bad = 'vars = [x, y]\nweights = [1, 1]\nmap = ["x + w"]'
        with pytest.raises(ParseError) as exc:
            parse_problem(bad)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_comments_and_blank_lines(self):
        src = "\n# header\nvars=[x,y]  # inline\n\nweights=[1,1]\nmap=[\"x*y\"]\n"
        prob = parse_problem(src)
        assert prob.var_names == ["x", "y"]

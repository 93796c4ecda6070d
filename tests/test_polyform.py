"""Polynomials, differential forms, and the Euler-field calculus."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fibera import (
    NEG_INF,
    KForm,
    Polynomial,
    euler_contraction,
    exterior_derivative,
    lie_derivative,
    scaling_substitution,
    validate_weights,
    wedge,
)
from conftest import make_random_form, make_random_poly, variables


class TestPolynomial:
    def test_constructors_and_equality(self):
        x, y = variables(2)
        assert Polynomial.zero(2).is_zero()
        assert Polynomial.constant(2, 7) == 7
        assert Polynomial.constant(2, 0).is_zero()
        assert Polynomial.monomial(2, (1, 2), 3) == 3 * x * y ** 2
        assert x != y
        assert x - x == 0
        assert Polynomial.constant(2, Fraction(1, 2)) == Fraction(1, 2)

    def test_arithmetic(self):
        x, y = variables(2)
        assert (x + y) * (x - y) == x ** 2 - y ** 2
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
        assert 2 * x - x == x
        assert (x * y) * 0 == 0
        assert x ** 0 == 1
        p = 3 * x ** 2 * y - Fraction(1, 2) * y
        assert -(-p) == p
        assert p - p == Polynomial.zero(2)

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(11)
        for _ in range(20):
            p = make_random_poly(rng, 2, (1, 1), 3)
            expected = Polynomial.constant(2, 1)
            for k in range(1, 5):
                expected = expected * p
                assert p ** k == expected

    def test_derivative(self):
        x, y = variables(2)
        p = x ** 3 * y + 2 * y ** 2
        assert p.derivative(0) == 3 * x ** 2 * y
        assert p.derivative(1) == x ** 3 + 4 * y
        assert Polynomial.constant(2, 5).derivative(0) == 0

    def test_derivative_is_linear_and_leibniz(self):
        rng = random.Random(12)
        for _ in range(20):
            p = make_random_poly(rng, 3, (1, 1, 1), 3)
            q = make_random_poly(rng, 3, (1, 1, 1), 3)
            i = rng.randrange(3)
            assert (p + q).derivative(i) == p.derivative(i) + q.derivative(i)
            assert (p * q).derivative(i) == p.derivative(i) * q + p * q.derivative(i)

    def test_evaluate(self):
        x, y = variables(2)
        p = x ** 2 + 3 * x * y - 1
        assert p.evaluate((Fraction(2), Fraction(-1))) == 4 - 6 - 1
        assert Polynomial.zero(2).evaluate((Fraction(5), Fraction(5))) == 0

    def test_compose(self):
        x, y = variables(2)
        u, v, w = variables(3)
        p = x ** 2 + y
        assert p.compose([u + v, w]) == (u + v) ** 2 + w
        # composition respects evaluation
        rng = random.Random(13)
        for _ in range(10):
            p = make_random_poly(rng, 2, (1, 1), 3)
            args = [make_random_poly(rng, 3, (1, 1, 1), 2) for _ in range(2)]
            pt = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            inner = tuple(a.evaluate(pt) for a in args)
            assert p.compose(args).evaluate(pt) == p.evaluate(inner)

    def test_pad(self):
        x, y = variables(2)
        p = (x + y) ** 2
        padded = p.pad(1)
        assert padded.n == 3
        u, v, _ = variables(3)
        assert padded == (u + v) ** 2

    def test_weighted_degree_and_homogeneity(self):
        x, y = variables(2)
        w = (3, 2)
        p = x ** 2 + y ** 3
        assert p.weighted_degree(w) == 6
        assert p.is_homogeneous(w)
        q = p + y
        assert not q.is_homogeneous(w)
        comps = q.homogeneous_components(w)
        assert set(comps) == {2, 6}
        assert comps[6] == p and comps[2] == y
        assert q.top_component(w) == p
        assert Polynomial.zero(2).weighted_degree(w) == NEG_INF

    def test_top_component_of_zero_raises(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2).top_component((1, 1))

    def test_validate_weights(self):
        validate_weights((1, 2, 3))
        with pytest.raises(ValueError):
            validate_weights((1, 0))
        with pytest.raises(ValueError):
            validate_weights((1, -2))
        with pytest.raises(ValueError):
            validate_weights((1, Fraction(1, 2)))


class TestKForm:
    def test_constructors(self):
        x, y = variables(2)
        dx = KForm.basis_form(2, (0,))
        dy = KForm.basis_form(2, (1,))
        f = x * dx + y * dy
        assert f.k == 1 and f.n == 2
        assert KForm.from_polynomial(x).as_polynomial() == x
        assert KForm.monomial_form(x * y, (0, 1)).k == 2
        assert KForm.zero(2, 1).is_zero()

    def test_addition_degree_mismatch(self):
        dx = KForm.basis_form(2, (0,))
        dxdy = KForm.basis_form(2, (0, 1))
        with pytest.raises(ValueError):
            dx + dxdy
        # the zero form is compatible with every degree
        assert KForm.zero(2, 2) + dx == dx
        assert dx + KForm.zero(2, 0) == dx

    def test_zero_forms_compare_equal_across_degrees(self):
        assert KForm.zero(3, 1) == KForm.zero(3, 2)
        assert KForm.zero(3, 1) != KForm.zero(2, 1)

    def test_wedge_basics(self):
        dx = KForm.basis_form(3, (0,))
        dy = KForm.basis_form(3, (1,))
        dz = KForm.basis_form(3, (2,))
        assert wedge(dx, dy) == KForm.basis_form(3, (0, 1))
        assert wedge(dy, dx) == -KForm.basis_form(3, (0, 1))
        assert wedge(dx, dx).is_zero()
        assert wedge(wedge(dx, dy), dz) == KForm.basis_form(3, (0, 1, 2))
        # polynomial factors pass through
        x = Polynomial.variable(3, 0)
        assert wedge(x, dy) == x * dy

    def test_wedge_anticommutativity(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            k = rng.randint(0, n)
            l = rng.randint(0, n)
            a = make_random_form(rng, n, k, w, 3)
            b = make_random_form(rng, n, l, w, 3)
            sign = -1 if (k * l) % 2 else 1
            assert wedge(a, b) == sign * wedge(b, a)

    def test_wedge_associativity(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.choice([3, 4])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            a = make_random_form(rng, n, 1, w, 2)
            b = make_random_form(rng, n, 1, w, 2)
            c = make_random_form(rng, n, rng.randint(0, 1), w, 2)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_exterior_derivative_frozen(self):
        x, y, z = variables(3)
        dx = KForm.basis_form(3, (0,))
        dz = KForm.basis_form(3, (2,))
        dxdz = KForm.basis_form(3, (0, 2))
        # d(z dx - x dz) = dz ^ dx - dx ^ dz = -2 dx ^ dz
        assert exterior_derivative(z * dx - x * dz) == -2 * dxdz
        # d of a polynomial is its differential
        df = exterior_derivative(x * y)
        dy = KForm.basis_form(3, (1,))
        assert df == y * dx + x * dy

    def test_leibniz_rule(self):
        rng = random.Random(16)
        for _ in range(25):
            n = rng.choice([2, 3, 4])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            k = rng.randint(0, n - 1)
            a = make_random_form(rng, n, k, w, 3)
            b = make_random_form(rng, n, rng.randint(0, n - k), w, 3)
            sign = -1 if k % 2 else 1
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) + sign * wedge(a, exterior_derivative(b))
            assert lhs == rhs

    def test_euler_contraction_frozen(self):
        x, y = variables(2)
        dx = KForm.basis_form(2, (0,))
        dy = KForm.basis_form(2, (1,))
        dxdy = KForm.basis_form(2, (0, 1))
        assert euler_contraction(dxdy, (1, 1)) == x * dy - y * dx
        assert euler_contraction(dxdy, (2, 3)) == 2 * x * dy - 3 * y * dx
        assert euler_contraction(dx, (2, 3)) == KForm.from_polynomial(2 * x)
        # contraction of a 0-form is zero
        assert euler_contraction(x, (2, 3)).is_zero()

    def test_degree_methods(self):
        x, y = variables(2)
        dx = KForm.basis_form(2, (0,))
        w = (3, 2)
        f = x * dx   # coefficient degree 3 + dx degree 3
        assert f.weighted_degree(w) == 6
        assert f.is_homogeneous(w)
        g = f + y * dx
        assert not g.is_homogeneous(w)
        assert g.top_component(w) == f
        comps = g.homogeneous_components(w)
        assert set(comps) == {5, 6}
        assert KForm.zero(2, 1).weighted_degree(w) == NEG_INF
        with pytest.raises(ValueError):
            KForm.zero(2, 1).top_component(w)

    def test_pad(self):
        x, y = variables(2)
        dx2 = KForm.basis_form(2, (0,))
        padded = (x * dx2).pad(1)
        assert padded.n == 3
        x3 = Polynomial.variable(3, 0)
        assert padded == x3 * KForm.basis_form(3, (0,))


class TestEulerCalculus:
    """Identities of d, i_X, L_X and the scaling action, randomized."""

    def _random_setup(self, rng):
        n = rng.choice([2, 3, 4])
        w = tuple(rng.randint(1, 4) for _ in range(n))
        k = rng.randint(0, n)
        return n, w, k

    def test_d_squared_is_zero(self):
        rng = random.Random(17)
        for _ in range(40):
            n, w, k = self._random_setup(rng)
            f = make_random_form(rng, n, k, w, 4)
            assert exterior_derivative(exterior_derivative(f)).is_zero()

    def test_contraction_squared_is_zero(self):
        rng = random.Random(18)
        for _ in range(40):
            n, w, k = self._random_setup(rng)
            f = make_random_form(rng, n, k, w, 4)
            assert f.euler_contraction(w).euler_contraction(w).is_zero()

    def test_contraction_antiderivation(self):
        # i_X(a ^ b) = i_X(a) ^ b + (-1)^k a ^ i_X(b)
        rng = random.Random(19)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            k = rng.randint(1, n)
            a = make_random_form(rng, n, k, w, 3)
            b = make_random_form(rng, n, rng.randint(1, n), w, 3)
            sign = -1 if k % 2 else 1
            lhs = wedge(a, b).euler_contraction(w)
            rhs = (wedge(a.euler_contraction(w), b)
                   + sign * wedge(a, b.euler_contraction(w)))
            assert lhs == rhs

    def test_lie_derivative_commutes_with_d(self):
        # a consequence of L_X = d i_X + i_X d and d^2 = 0
        rng = random.Random(24)
        for _ in range(40):
            n, w, k = self._random_setup(rng)
            f = make_random_form(rng, n, k, w, 4)
            lhs = exterior_derivative(lie_derivative(f, w))
            rhs = lie_derivative(exterior_derivative(f), w)
            assert lhs == rhs

    def test_lie_derivative_is_a_derivation(self):
        # L_X(a ^ b) = L_X(a) ^ b + a ^ L_X(b)
        rng = random.Random(25)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            a = make_random_form(rng, n, rng.randint(1, n), w, 3)
            b = make_random_form(rng, n, rng.randint(1, n), w, 3)
            lhs = lie_derivative(wedge(a, b), w)
            rhs = wedge(lie_derivative(a, w), b) + wedge(a, lie_derivative(b, w))
            assert lhs == rhs

    def test_lie_derivative_multiplies_by_degree(self):
        rng = random.Random(20)
        for _ in range(40):
            n, w, k = self._random_setup(rng)
            f = make_random_form(rng, n, k, w, 5)
            if f.is_zero():
                continue
            for r, part in f.homogeneous_components(w).items():
                assert lie_derivative(part, w) == r * part

    def test_lie_derivative_on_polynomials(self):
        x, y = variables(2)
        w = (3, 2)
        p = x ** 2 + y ** 3
        assert lie_derivative(p, w) == 6 * p

    def test_scaling_substitution_homogeneous(self):
        rng = random.Random(21)
        for _ in range(40):
            n, w, k = self._random_setup(rng)
            f = make_random_form(rng, n, k, w, 5)
            if f.is_zero():
                continue
            scaled = scaling_substitution(f, w)
            expected = KForm.zero(n + 1, k)
            for r, part in f.homogeneous_components(w).items():
                t_r = Polynomial.monomial(n + 1, (0,) * n + (r,))
                expected = expected + t_r * part.pad(1)
            assert scaled == expected

    def test_scaling_substitution_on_polynomials(self):
        x, y = variables(2)
        p = x ** 2 * y
        scaled = scaling_substitution(p, (1, 2))
        u, v, t = variables(3)
        assert scaled == u ** 2 * v * t ** 4

    def test_top_component_multiplicative(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            p = make_random_poly(rng, n, w, 4)
            q = make_random_poly(rng, n, w, 4)
            if p.is_zero() or q.is_zero():
                continue
            assert (p * q).top_component(w) == p.top_component(w) * q.top_component(w)

    def test_weighted_degree_of_wedge(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            a = make_random_form(rng, n, rng.randint(0, 2), w, 3)
            b = make_random_form(rng, n, rng.randint(0, 2), w, 3)
            c = wedge(a, b)
            if not c.is_zero():
                bound = a.weighted_degree(w) + b.weighted_degree(w)
                assert c.weighted_degree(w) <= bound

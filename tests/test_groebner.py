"""Groebner bases, normal forms, dimensions, and elimination."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fibera import (
    MonomialOrder,
    Polynomial,
    buchberger,
    elimination_ideal,
    elimination_order,
    ideal_dimension,
    quotient_vector_basis,
)
from conftest import make_random_poly, variables
import oracles


def _terms(P):
    return dict(P.terms)


class TestMonomialOrder:
    def test_degrevlex_basics(self):
        order = MonomialOrder((1, 1))
        # x^2 > x y > y^2 under degrevlex with x before y
        key = order.key
        assert key((2, 0)) > key((1, 1)) > key((0, 2))
        assert key((0, 3)) > key((2, 0))  # higher degree wins

    def test_weighted_order(self):
        order = MonomialOrder((3, 2))
        key = order.key
        # weighted degrees: x -> 3, y^2 -> 4
        assert key((0, 2)) > key((1, 0))
        assert key((2, 0)) == max(key((2, 0)), key((0, 3)))

    def test_agrees_with_oracle_comparator(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            order = MonomialOrder(w)
            a = tuple(rng.randint(0, 4) for _ in range(n))
            b = tuple(rng.randint(0, 4) for _ in range(n))
            if a == b:
                continue
            assert (order.key(a) > order.key(b)) == oracles._greater(a, b, w)

    def test_leading_term(self):
        x, y = variables(2)
        order = MonomialOrder((1, 1))
        e, c = order.leading((x ** 2 + 3 * x * y + y ** 2).terms)
        assert e == (2, 0) and c == 1


class TestBuchberger:
    def test_frozen_example(self):
        # reduced basis of (x^2 + y^2, x*y) under degrevlex, derived by hand:
        # S(f1, f2) = y*f1 - x*f2 = y^3, and all further S-pairs reduce to 0
        x, y = variables(2)
        gb = buchberger([x ** 2 + y ** 2, x * y], MonomialOrder((1, 1)))
        assert set(map(frozenset, (g.terms.items() for g in gb))) == {
            frozenset({(1, 1): Fraction(1)}.items()),
            frozenset({(0, 3): Fraction(1)}.items()),
            frozenset({(2, 0): Fraction(1), (0, 2): Fraction(1)}.items()),
        }

    def test_unit_ideal(self):
        x, y = variables(2)
        gb = buchberger([x, x + 1], MonomialOrder((1, 1)))
        assert gb.is_unit()
        assert len(gb) == 1 and gb.generators[0] == 1

    def test_empty_and_zero_generators(self):
        order = MonomialOrder((1, 1))
        assert len(buchberger([], order)) == 0
        assert len(buchberger([Polynomial.zero(2)], order)) == 0

    def test_oracle_buchberger_criterion(self):
        # every computed basis passes the independent S-pair check and
        # still contains the original generators
        rng = random.Random(32)
        for trial in range(15):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 3) for _ in range(n))
            gens = [make_random_poly(rng, n, w, rng.randint(2, 4), density=0.5)
                    for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens, MonomialOrder(w))
            basis_terms = [dict(g.terms) for g in gb]
            assert oracles.is_groebner_basis(basis_terms, w)
            assert oracles.generates_membership(
                [dict(g.terms) for g in gens], basis_terms, w)
            # and each basis element lies in the original ideal's basis
            for g in gb:
                assert not oracles.reduce_full(dict(g.terms), basis_terms, w)

    def test_reduced_basis_is_unique(self):
        # different generating sets of one ideal give identical reduced bases
        rng = random.Random(33)
        for trial in range(10):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 3) for _ in range(n))
            gens = [make_random_poly(rng, n, w, 3, density=0.5) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if len(gens) < 2:
                continue
            order = MonomialOrder(w)
            g1, g2 = gens
            variant = [g1 + g2, g2, g1 * g2]
            a = buchberger(gens, order)
            b = buchberger(variant, order)
            assert [g.terms for g in a] == [g.terms for g in b]

    def test_reduced_property(self):
        # no term of any basis element is divisible by another leading term
        rng = random.Random(34)
        for trial in range(10):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 3) for _ in range(n))
            gens = [make_random_poly(rng, n, w, 3, density=0.5) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens, MonomialOrder(w))
            leads = gb.leading_exponents()
            for i, g in enumerate(gb):
                e_lead, c_lead = gb.order.leading(g.terms)
                assert c_lead == 1  # monic
                for e in g.terms:
                    for j, le in enumerate(leads):
                        if i == j and e == e_lead:
                            continue
                        assert not all(a <= b for a, b in zip(le, e))


def _sympy_poly(P, xs):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in P.terms.items()},
        *xs)


def _sympy_terms(expr, xs):
    sympy = pytest.importorskip("sympy")
    return {e: Fraction(int(v.p), int(v.q))
            for e, v in sympy.Poly(expr, *xs).as_dict().items()}


def _sympy_reduced_basis(gens, n):
    """Monic reduced grevlex basis from sympy, as a set of term sets."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x0:{n}")
    polys = [_sympy_poly(g, xs) for g in gens]
    out = set()
    for g in sympy.groebner(polys, *xs, order="grevlex").exprs:
        P = sympy.Poly(g, *xs)
        lc = P.LC(order="grevlex")
        terms = {e: v / lc for e, v in P.as_dict().items()}
        out.add(frozenset((e, Fraction(int(v.p), int(v.q)))
                          for e, v in terms.items()))
    return out


def _monic(gb):
    out = set()
    for g in gb:
        _, c = gb.order.leading(g.terms)
        out.add(frozenset((e, v / c) for e, v in g.terms.items()))
    return out


class TestSympyOracle:
    # with unit weights fibera's order is graded reverse lex
    def test_singular_ideals_of_ladder_maps(self):
        from fibera import PolyMap
        x, y, z = variables(3)
        a, b, c, e = variables(4)
        maps = [PolyMap([x ** 3 * y + y ** 3 * z + z ** 3 * x + x * y], (1, 1, 1)),
                PolyMap([a * c + b * e, a ** 2 + b ** 2 - c ** 2 + e ** 2],
                        (1, 1, 1, 1))]
        for F, size in zip(maps, (6, 10)):
            gens = F.top_components + F.jacobian_minors
            assert len(F.singular_gb) == size
            assert _monic(F.singular_gb) == _sympy_reduced_basis(gens, F.n)

    def test_random_ideals(self):
        rng = random.Random(35)
        for trial in range(8):
            n = rng.choice([2, 3])
            gens = [make_random_poly(rng, n, (1,) * n, rng.randint(2, 3),
                                     density=0.5) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens, MonomialOrder((1,) * n))
            assert _monic(gb) == _sympy_reduced_basis(gens, n)

    def test_normal_form_matches_sympy_reduced(self):
        # the remainder on division by a reduced basis is unique, so it
        # equals sympy's for the same grevlex order
        sympy = pytest.importorskip("sympy")
        rng = random.Random(38)
        moved = 0
        for trial in range(8):
            n = rng.choice([2, 3])
            gens = [make_random_poly(rng, n, (1,) * n, rng.randint(2, 3),
                                     density=0.5) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens, MonomialOrder((1,) * n))
            xs = sympy.symbols(f"x0:{n}")
            G = [_sympy_poly(g, xs).as_expr() for g in gb]
            for _ in range(3):
                p = make_random_poly(rng, n, (1,) * n, 5)
                _, r = sympy.reduced(_sympy_poly(p, xs).as_expr(), G, *xs,
                                     order="grevlex", domain="QQ")
                rem = gb.normal_form(p)
                assert rem.terms == _sympy_terms(r, xs)
                moved += rem != p
        assert moved >= 5


class TestNormalForm:
    def test_idempotent_and_linear(self):
        rng = random.Random(35)
        x, y = variables(2)
        gb = buchberger([x ** 2 + y ** 2, x * y], MonomialOrder((1, 1)))
        for _ in range(20):
            p = make_random_poly(rng, 2, (1, 1), 5)
            q = make_random_poly(rng, 2, (1, 1), 5)
            np_, nq = gb.normal_form(p), gb.normal_form(q)
            assert gb.normal_form(np_) == np_
            assert gb.normal_form(p + q) == np_ + nq
            c = Fraction(rng.randint(-5, 5))
            assert gb.normal_form(c * p) == c * np_

    def test_cofactor_identity(self):
        # rem = normal_form(p) satisfies p = sum a_i g_i + rem: p - rem lies
        # in the ideal by sympy's own grevlex basis (membership does not
        # depend on the order), and rem is reduced, with no term divisible
        # by a leading monomial of fibera's basis
        sympy = pytest.importorskip("sympy")
        rng = random.Random(36)
        moved = 0
        for trial in range(10):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 3) for _ in range(n))
            gens = [make_random_poly(rng, n, w, 3, density=0.5) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens, MonomialOrder(w))
            p = make_random_poly(rng, n, w, 5)
            rem = gb.normal_form(p)
            xs = sympy.symbols(f"x0:{n}")
            ideal = sympy.groebner([_sympy_poly(g, xs) for g in gens], *xs,
                                   order="grevlex", domain="QQ")
            assert ideal.contains(_sympy_poly(p - rem, xs).as_expr())
            leads = gb.leading_exponents()
            for e in rem.terms:
                assert not any(all(a <= b for a, b in zip(le, e)) for le in leads)
            moved += rem != p
        assert moved >= 5

    def test_membership(self):
        x, y = variables(2)
        gb = buchberger([x ** 2 + y ** 2, x * y], MonomialOrder((1, 1)))
        assert gb.contains((x ** 2 + y ** 2) * (x + y))
        assert gb.contains(y ** 3)
        assert not gb.contains(x ** 2)
        assert not gb.contains(x + y)

    def test_module_level_normal_form(self):
        x, y = variables(2)
        gb = buchberger([x * y], MonomialOrder((1, 1)))
        assert gb.normal_form(x * y + x) == x


class TestDimensionAndQuotient:
    def test_ideal_dimension_examples(self):
        x, y = variables(2)
        order = MonomialOrder((1, 1))
        assert ideal_dimension(buchberger([x], order)) == 1
        assert ideal_dimension(buchberger([x, y], order)) == 0
        assert ideal_dimension(buchberger([x, x + 1], order)) == -1
        assert ideal_dimension(buchberger([], order)) == 2
        u, v, t = variables(3)
        order3 = MonomialOrder((1, 1, 1))
        assert ideal_dimension(buchberger([u * t], order3)) == 2
        assert ideal_dimension(buchberger([u, v], order3)) == 1

    def test_quotient_vector_basis_examples(self):
        x, y = variables(2)
        order = MonomialOrder((1, 1))
        gb = buchberger([x ** 2, y ** 3], order)
        std = quotient_vector_basis(gb)
        assert sorted(std) == sorted(
            [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)])
        assert quotient_vector_basis(buchberger([x, y], order)) == [(0, 0)]
        assert quotient_vector_basis(buchberger([x, x + 1], order)) == []

    def test_quotient_dimension_matches_oracle(self):
        # weighted-homogeneous zero-dimensional examples, both engines agree
        rng = random.Random(37)
        x, y = variables(2)
        checked = 0
        for trial in range(12):
            w = (rng.randint(1, 3), rng.randint(1, 3))
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            gens = [x ** a, y ** b]
            # optionally a random homogeneous polynomial of some degree
            if rng.random() < 0.6:
                d = rng.randint(2, 5)
                extra = Polynomial.zero(2)
                for e in oracles.exponents_of_degree(2, w, d):
                    c = rng.randint(-2, 2)
                    if c:
                        extra = extra + Polynomial.monomial(2, e, c)
                if not extra.is_zero():
                    gens.append(extra)
            gb = buchberger(gens, MonomialOrder(w))
            if ideal_dimension(gb) != 0:
                continue
            std = quotient_vector_basis(gb)
            dim = oracles.graded_quotient_dimension(
                2, w, [dict(g.terms) for g in gens])
            assert len(std) == dim
            checked += 1
        assert checked >= 5

    def test_infinite_dimensional_quotient_raises(self):
        x, y = variables(2)
        gb = buchberger([x], MonomialOrder((1, 1)))
        with pytest.raises(ValueError):
            quotient_vector_basis(gb)


class TestElimination:
    def test_parabola(self):
        # eliminate t from (x - t, y - t^2): the image is y = x^2
        x, y, t = variables(3)
        gens = [x - t, y - t ** 2]
        gb = buchberger(gens, elimination_order((1, 1, 1), [2]))
        elim = elimination_ideal(gb, [2])
        assert len(elim) == 1
        p = elim[0]
        assert p == y - x ** 2 or p == x ** 2 - y

    def test_elimination_order_blocks(self):
        order = elimination_order((1, 1, 1), [0])
        # any monomial containing x beats any monomial without it
        assert order.key((1, 0, 0)) > order.key((0, 5, 5))

    def test_membership_via_elimination(self):
        # the twisted cubic: eliminate t from (x - t, y - t^2, z - t^3)
        x, y, z, t = variables(4)
        gens = [x - t, y - t ** 2, z - t ** 3]
        gb = buchberger(gens, elimination_order((1, 1, 1, 1), [3]))
        assert gb.contains(y - x ** 2)
        assert gb.contains(z - x ** 3)
        elim = elimination_ideal(gb, [3])
        assert elim  # the image ideal is nontrivial
        for p in elim:
            assert all(e[3] == 0 for e in p.terms)
            assert gb.contains(p)

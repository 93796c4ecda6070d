"""The fibre at infinity: CIA check, Milnor number, cohomology basis."""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from fibera import (
    KForm,
    PolyMap,
    Polynomial,
    PreconditionError,
    closed_at_infinity,
    euler_contraction,
    euler_normalize,
    exact_at_infinity,
    exterior_derivative,
    infinity_basis,
    is_complete_intersection_at_infinity,
    kform_coordinates,
    koszul_kernel_generators,
    milnor_number,
    monomial_basis,
    quotient_vector_basis,
    singular_dimension,
    weighted_exponents,
    wedge,
)
from fibera import cli, gradedlin, infinity, parse
from fibera.gradedlin import ColumnGroup, CombinationSolver, ExactLinearSolver
from conftest import make_random_form, make_random_poly, variables
import oracles

FERMAT_C4_SOURCE = """\
vars    = [a, b, c, e]
weights = [1, 1, 1, 1]
map     = ["a^3 + b^3 + c^3 + e^3"]
"""


def _jacobian_algebra_dimension(text, names):
    """dim Q[x]/(df/dx_1, ..., df/dx_n) from a sympy Groebner basis: the
    number of monomials that no leading monomial divides."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(names)
    f = sympy.sympify(text)
    G = sympy.groebner([sympy.diff(f, v) for v in gens], *gens, order="grevlex")
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in G.exprs]
    standard, todo = set(), [(0,) * len(gens)]
    while todo:
        e = todo.pop()
        if e in standard or any(all(a >= b for a, b in zip(e, m)) for m in leads):
            continue
        standard.add(e)
        assert len(standard) < 1000, "Jacobian algebra is not finite"
        todo.extend(e[:i] + (e[i] + 1,) + e[i + 1:] for i in range(len(e)))
    return len(standard)


class TestPolyMapConstruction:
    def test_component_count_guard(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            PolyMap([x, y], (1, 1))          # q = n
        with pytest.raises(ValueError):
            PolyMap([x, y, x + y], (1, 1))   # q > n

    def test_degenerate_components_rejected(self):
        x, y = variables(2)
        with pytest.raises(ValueError):
            PolyMap([Polynomial.zero(2)], (1, 1))
        with pytest.raises(ValueError):
            PolyMap([Polynomial.constant(2, 3)], (1, 1))

    def test_weight_guards(self):
        x, _ = variables(2)
        with pytest.raises(ValueError):
            PolyMap([x], (0, 1))
        with pytest.raises(ValueError):
            PolyMap([x], (1, -1))
        with pytest.raises(ValueError):
            PolyMap([x], (1, 1, 1))  # wrong arity

    def test_degrees_and_top_components(self, golden_map):
        assert golden_map.n == 3 and golden_map.q == 2
        assert golden_map.degrees == [2, 2]
        x, y, z = variables(3)
        assert golden_map.top_components[0] == x * z
        assert golden_map.top_components[1] == x ** 2 + y ** 2 - z ** 2
        # an inhomogeneous component keeps only its leading part
        f = x ** 2 + y ** 2 - z ** 2 + x + 1
        G = PolyMap([f], (1, 1, 1))
        assert G.top_components[0] == x ** 2 + y ** 2 - z ** 2

    def test_build_helper(self):
        x, y = variables(2)
        F = PolyMap([x ** 2 + y ** 3], (3, 2))
        assert isinstance(F, PolyMap)
        assert F.degrees == [6]

    def test_point_coercion(self, golden_map):
        pt = golden_map.point([1, Fraction(1, 2)])
        assert pt == (Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            golden_map.point([1])

    def test_point_reads_strings_as_rationals(self, golden_map):
        # Fraction('1e10000000') alone takes seconds
        assert golden_map.point(["-3/4", "2"]) == (Fraction(-3, 4), 2)
        start = time.perf_counter()
        for text in ("1e1000000", "1e10000000", "1.5"):
            with pytest.raises(ValueError, match="^bad rational"):
                golden_map.point([text, "0"])
        with pytest.raises(parse.ParseError,
                           match="^integer literal of 5001 digits is too long$"):
            golden_map.point(["1" * 5001, "0"])
        assert time.perf_counter() - start < 1

    def test_jacobian_minors_match_sympy(self, golden_map):
        sympy = pytest.importorskip("sympy")
        a, b, c, e = variables(4)
        x, y, z = variables(3)
        maps = [
            golden_map,
            PolyMap([a * c + b * e, a ** 2 + b ** 2 - c ** 2 + e ** 2], (1,) * 4),
            PolyMap([a ** 2 + b ** 2 + c ** 2 + e ** 2, a * b + c * e,
                     a * c - b ** 2 + e], (1,) * 4),
            # d(xy) ^ d(z^2) has no dx ^ dy term: the first minor is 0
            PolyMap([x * y + 1, z ** 2 + x], (1, 1, 1)),
            PolyMap([x ** 2 + y ** 3 + z ** 6], (3, 2, 1)),
        ]
        zero_minors = 0
        for F in maps:
            xs = sympy.symbols(f"x0:{F.n}")

            def expr(P):
                return sum(sympy.Rational(v.numerator, v.denominator)
                           * sympy.prod([s ** k for s, k in zip(xs, m)])
                           for m, v in P.terms.items())

            J = sympy.Matrix([expr(f) for f in F.top_components]).jacobian(xs)
            column_sets = list(combinations(range(F.n), F.q))
            assert len(F.jacobian_minors) == len(column_sets)
            for S, minor in zip(column_sets, F.jacobian_minors):
                assert sympy.expand(J[:, list(S)].det() - expr(minor)) == 0
                zero_minors += minor.is_zero()
        assert zero_minors == 1


class TestCompleteIntersectionCheck:
    def test_golden_map(self, golden_map):
        check = is_complete_intersection_at_infinity(golden_map)
        assert bool(check) and check.is_cia
        assert check.dim_fibre == 1
        assert check.dim_singular == 0
        assert check.codim_required == 1

    def test_negative_control(self, quartic_map):
        check = is_complete_intersection_at_infinity(quartic_map)
        assert not check
        assert check.dim_singular == 1

    def test_single_component_maps(self, cusp_map, circle_map, sphere_map, line_map):
        for F in (cusp_map, circle_map, sphere_map, line_map):
            assert is_complete_intersection_at_infinity(F)
        assert singular_dimension(cusp_map) == 0
        assert singular_dimension(line_map) == -1


class TestMilnorNumber:
    def test_golden_value(self, golden_map):
        assert milnor_number(golden_map) == 5

    def test_oracle_agreement_golden(self, golden_map):
        # the singular-locus ideal, written out by hand, fed to the
        # brute-force graded dimension count
        dim = oracles.graded_quotient_dimension(
            3, (1, 1, 1), oracles.GOLDEN_SINGULAR_GENS)
        assert dim == oracles.GOLDEN_MILNOR == milnor_number(golden_map)

    def test_oracle_agreement_small_maps(self, cusp_map, circle_map,
                                         sphere_map, line_map):
        cases = [
            (cusp_map, oracles.CUSP_GENS, oracles.CUSP_WEIGHTS, oracles.CUSP_MILNOR),
            (circle_map, oracles.CIRCLE_GENS, (1, 1), oracles.CIRCLE_MILNOR),
            (sphere_map, oracles.SPHERE_GENS, (1, 1, 1), oracles.SPHERE_MILNOR),
            (line_map, oracles.LINE_GENS, (1, 1), oracles.LINE_MILNOR),
        ]
        for F, gens, w, expected in cases:
            assert milnor_number(F) == expected
            assert oracles.graded_quotient_dimension(F.n, w, gens) == expected

    @pytest.mark.parametrize("text, names, mu", [
        ("x^3*y + y^3*z + z^3*x + x*y", "x y z", 27),
        ("a^3 + b^3 + c^3 + e^3 + a*b", "a b c e", 16),
        ("x^2 + y^2 + z^2", "x y z", 1),
    ])
    def test_global_milnor_number_oracle(self, text, names, mu):
        # Broughton (1988): for q = 1 with an isolated singularity at
        # infinity, mu at infinity is the global Milnor number
        f = parse.parse_polynomial_expr(text, names.split())
        F = PolyMap([f], (1,) * f.n)
        assert milnor_number(F) == mu
        assert _jacobian_algebra_dimension(text, names) == mu

    def test_non_isolated_raises(self, quartic_map):
        with pytest.raises(PreconditionError):
            milnor_number(quartic_map)

    def test_singular_data_is_computed_once_per_map(self, monkeypatch):
        # the CIA check, milnor_number and infinity_basis read dim V(I+J)
        # and the standard monomials from the map's cache
        F = _fermat_c4()
        dims, stds = [], []
        real_dim = infinity.ideal_dimension
        real_std = infinity.quotient_vector_basis
        monkeypatch.setattr(infinity, "ideal_dimension",
                            lambda gb: dims.append(gb) or real_dim(gb))
        monkeypatch.setattr(infinity, "quotient_vector_basis",
                            lambda gb: stds.append(gb) or real_std(gb))
        for _ in range(2):
            assert is_complete_intersection_at_infinity(F)
            assert singular_dimension(F) == 0
            assert milnor_number(F) == infinity_basis(F).mu == 16
        assert [gb for gb in dims if gb is F.singular_gb] == [F.singular_gb]
        assert stds == [F.singular_gb]

    def test_golden_quotient_basis(self, golden_map):
        # {1, x, y, z, x^2} represents a basis of the quotient
        std = quotient_vector_basis(golden_map.singular_gb)
        assert len(std) == 5
        gb = golden_map.singular_gb
        x, y, z = variables(3)
        for m in (x * y, y * z, x * z):
            assert gb.contains(m)
        claimed = [Polynomial.constant(3, 1), x, y, z, x ** 2]
        cols = []
        for p in claimed:
            nf = gb.normal_form(p)
            cols.append({e: c for e, c in nf.terms.items()})
        assert oracles.dict_columns_rank(cols) == 5


class TestKoszulKernel:
    def test_generators_are_contractions(self, golden_map):
        gens = koszul_kernel_generators(golden_map)
        assert len(gens) == 3  # C(3, 2) index pairs
        x, y, z = variables(3)
        dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
        assert gens[0] == x * dy - y * dx
        assert gens[1] == x * dz - z * dx
        assert gens[2] == y * dz - z * dy

    def test_generators_lie_in_the_kernel(self, golden_map, cusp_map, sphere_map):
        for F in (golden_map, cusp_map, sphere_map):
            for g in koszul_kernel_generators(F):
                assert g.k == F.n - F.q
                assert euler_contraction(g, F.weights).is_zero()

    def test_graded_pieces_match_brute_force(self, golden_map, cusp_map,
                                             sphere_map):
        # multiples of the generators fill the kernel degree by degree
        for F in (golden_map, cusp_map, sphere_map):
            n, w, k = F.n, F.weights, F.n - F.q
            gens = koszul_kernel_generators(F)
            for r in range(0, 9):
                brute = oracles.koszul_kernel_dimension(n, k, w, r)
                cols = []
                for g in gens:
                    rem = r - int(g.weighted_degree(w))
                    if rem < 0:
                        continue
                    for e in weighted_exponents(n, w, rem):
                        cols.append(kform_coordinates(Polynomial.monomial(n, e) * g))
                span = ExactLinearSolver(cols).rank if cols else 0
                assert span == brute

    def test_jacobian_form_contraction_lies_in_ideal(self, golden_map):
        # i_X(dfbar_1 ^ dfbar_2) has coefficients in (fbar_1, fbar_2):
        # contracting the defining forms stays on the cone at infinity
        contracted = euler_contraction(golden_map.jac_form_top, golden_map.weights)
        for P in contracted.coeffs.values():
            assert golden_map.infinity_gb.contains(P)


class TestEulerNormalize:
    def test_frozen_example(self, golden_map):
        x, y, z = variables(3)
        dx, dy = KForm.basis_form(3, (0,)), KForm.basis_form(3, (1,))
        got = euler_normalize(x * dy, golden_map)
        assert got == Fraction(1, 2) * (x * dy - y * dx)

    def test_normalized_representative_properties(self, golden_map):
        rng = random.Random(51)
        w = golden_map.weights
        for _ in range(15):
            f = make_random_form(rng, 3, 1, w, 5)
            if f.is_zero():
                continue
            for r, part in f.homogeneous_components(w).items():
                if r <= 0:
                    continue
                rep = euler_normalize(part, golden_map)
                # same class: they differ by d(i_X part / r), an exact form
                diff = part - rep
                expected = Fraction(1, r) * exterior_derivative(
                    euler_contraction(part, w))
                assert diff == expected
                # and the representative is contraction-free
                assert euler_contraction(rep, w).is_zero()

    def test_guards(self, golden_map):
        x, y, z = variables(3)
        dy = KForm.basis_form(3, (1,))
        with pytest.raises(ValueError):
            euler_normalize(x * dy + dy, golden_map)   # inhomogeneous
        with pytest.raises(ValueError):
            euler_normalize(KForm.basis_form(3, ()), golden_map)  # degree 0
        assert euler_normalize(KForm.zero(3, 1), golden_map).is_zero()


class TestClosedAndExactAtInfinity:
    def test_reference_forms_are_closed(self, golden_map):
        forms = _reference_forms()
        _, _, z = variables(3)
        w2 = forms[1]
        for f in forms + [z * w2]:
            assert closed_at_infinity(f, golden_map)

    def test_low_degree_exactness(self, golden_map):
        x, y, z = variables(3)
        dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
        # d(anything) is exact at infinity
        rng = random.Random(52)
        for _ in range(10):
            p = make_random_poly(rng, 3, (1, 1, 1), 4)
            witness = exact_at_infinity(exterior_derivative(p), golden_map)
            assert witness is not None
        # multiples of the top components are exact at infinity
        witness = exact_at_infinity((x * z) * dy, golden_map)
        assert witness is not None
        # the zero 2-form: a zero 1-form Omega and zero 2-form etas
        Omega, etas = exact_at_infinity(KForm.zero(3, 2), golden_map)
        assert (Omega.k, [e.k for e in etas]) == (1, [2, 2])
        assert Omega.is_zero() and not any(etas)

    def test_witness_reconstruction(self, golden_map):
        rng = random.Random(53)
        F = golden_map
        for _ in range(15):
            p = make_random_poly(rng, 3, (1, 1, 1), 4)
            etas = [make_random_form(rng, 3, 1, (1, 1, 1), 3) for _ in range(2)]
            target = exterior_derivative(p)
            for ftop, eta in zip(F.top_components, etas):
                target = target + ftop * eta
            if target.is_zero():
                continue
            witness = exact_at_infinity(target, F)
            assert witness is not None
            Omega, ws = witness
            recon = exterior_derivative(Omega)
            for ftop, eta in zip(F.top_components, ws):
                recon = recon + ftop * eta
            assert recon == target

    def test_basis_forms_are_not_exact(self, golden_map, golden_basis):
        for f in golden_basis:
            assert closed_at_infinity(f, golden_map)
            assert exact_at_infinity(f, golden_map) is None

    def test_z_w1_is_exact_with_hand_witness(self, golden_map):
        # z*(z dx - x dz) = d(x z^2) - 3*(x z)*dz, checked symbolically:
        # the degree-3 class collapses although z dx - x dz itself does not
        x, y, z = variables(3)
        dx, dz = KForm.basis_form(3, (0,)), KForm.basis_form(3, (2,))
        w1 = z * dx - x * dz
        zw1 = z * w1
        hand = exterior_derivative(KForm.from_polynomial(x * z ** 2)) \
            - 3 * ((x * z) * dz)
        assert zw1 == hand
        assert closed_at_infinity(zw1, golden_map)
        assert exact_at_infinity(zw1, golden_map) is not None
        # while w1 alone represents a nonzero class
        assert exact_at_infinity(w1, golden_map) is None

    def test_x_w2_collapses_onto_z_w3(self, golden_map):
        # x*(y dz - z dy) - z*(x dy - y dx) = d(x y z) - 3*(x z)*dy
        x, y, z = variables(3)
        dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
        w2 = y * dz - z * dy
        w3 = x * dy - y * dx
        diff = x * w2 - z * w3
        hand = exterior_derivative(KForm.from_polynomial(x * y * z)) \
            - 3 * ((x * z) * dy)
        assert diff == hand
        assert exact_at_infinity(diff, golden_map) is not None

    def test_exactness_is_decided_per_graded_piece(self, golden_map):
        # an inhomogeneous exact form: the solver splits it by degree
        x, y, z = variables(3)
        f = exterior_derivative(x * y + x ** 2 * z - 3 * z)
        assert exact_at_infinity(f, golden_map) is not None


class TestInfinityBasis:
    def test_golden_basis_frozen(self, golden_map, golden_basis):
        x, y, z = variables(3)
        dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
        g1 = x * dy - y * dx
        g2 = x * dz - z * dx
        g3 = y * dz - z * dy
        assert golden_basis.mu == 5
        assert len(golden_basis) == 5
        assert golden_basis.degrees == [2, 2, 2, 3, 3]
        assert list(golden_basis) == [g1, g2, g3, z * g1, z * g3]

    def test_basis_classes_are_independent(self, golden_map, golden_basis):
        # no nonzero rational combination is exact at infinity
        rng = random.Random(54)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
            if not any(coeffs):
                continue
            combo = KForm.zero(3, 1)
            for c, b in zip(coeffs, golden_basis):
                if c:
                    combo = combo + c * b
            assert exact_at_infinity(combo, golden_map) is None

    def test_spanning_modulo_exactness(self, golden_map, golden_basis):
        # every closed candidate (standard monomial) x (kernel generator)
        # falls into span(basis) + exact
        from fibera import ColumnGroup, CombinationSolver
        F, B = golden_map, golden_basis
        std = quotient_vector_basis(F.singular_gb)
        gens = koszul_kernel_generators(F)
        w = F.weights
        for e in std:
            P = Polynomial.monomial(3, e)
            for g in gens:
                cand = P * g
                r = cand.weighted_degree(w)
                same = [kform_coordinates(b)
                        for b, d in zip(B.forms, B.degrees) if d == r]
                groups = [ColumnGroup(3, 1, same, same)]
                groups.extend(F.exactness_groups(1, r))
                assert CombinationSolver(groups).solve(cand) is not None

    def test_basis_builds_no_exactness_groups(self):
        # candidates are ranked after d, so no d block is built or reduced
        F = _fermat_c4()
        assert infinity_basis(F).mu == 16
        assert [key for key in F._cache if key[0] == "groups"] == []

    def test_empty_basis_for_milnor_zero(self, line_map):
        B = infinity_basis(line_map)
        assert B.mu == 0 and len(B) == 0

    def test_small_map_bases(self, cusp_map, circle_map, sphere_map):
        for F, expected_mu in ((cusp_map, 2), (circle_map, 1), (sphere_map, 1)):
            B = infinity_basis(F)
            assert B.mu == expected_mu == len(B)
            for f in B:
                assert closed_at_infinity(f, F)
                assert exact_at_infinity(f, F) is None

    def test_non_isolated_raises(self, quartic_map):
        with pytest.raises(PreconditionError):
            infinity_basis(quartic_map)

    def test_milnor_orlik_formula_in_plain_integers(self):
        assert _milnor_orlik_degrees((3, 2), 6) == [5, 7]
        assert _milnor_orlik_degrees((2, 2, 3), 6) == [7, 9, 9, 11]

    @pytest.mark.parametrize("weights, degree, make", [
        ((3, 2), 6, lambda x, y: x ** 2 + y ** 3),
        ((2, 2, 3), 6, lambda x, y, z: x ** 3 + y ** 3 + z ** 2),
        ((1, 1, 1), 4, lambda x, y, z: x ** 3 * y + y ** 3 * z + z ** 3 * x + x * y),
        ((1, 2, 3), 6, lambda x, y, z: x ** 6 + y ** 3 + z ** 2 + x * y),
        ((1, 1), 4, lambda x, y: x ** 4 + y ** 4 + x ** 2 * y - x),
    ], ids=["cusp", "x3+y3+z2", "quartic-c3", "x6+y3+z2+xy", "x4+y4+x2y-x"])
    def test_q1_degrees_match_milnor_orlik(self, weights, degree, make):
        # for q = 1, I+J is the Jacobian ideal of fbar, a complete
        # intersection, so the basis degrees have a closed form
        f = make(*variables(len(weights)))
        B = infinity_basis(PolyMap([f], weights))
        assert B.degrees == _milnor_orlik_degrees(weights, degree)


def _milnor_orlik_degrees(weights, d):
    """Degrees, with multiplicity, of t^(sum w_i) * prod (1 - t^(d - w_i)) /
    (1 - t^(w_i)) (Milnor and Orlik, 1970), on integer coefficient lists and
    sorted: the basis degrees at infinity of an isolated q = 1 map of
    weighted degree d."""
    poly = [1]
    for w in weights:
        num = poly + [0] * (d - w)
        for j, c in enumerate(poly):
            num[j + d - w] -= c
        quot = []  # num / (1 - t^w), term by term
        for j in range(len(num) - w):
            quot.append(num[j] + (quot[j - w] if j >= w else 0))
        back = quot + [0] * w
        for j, c in enumerate(quot):
            back[j + w] -= c
        assert back == num, "the quotient is not a polynomial"
        poly = quot
    assert min(poly) >= 0
    return [sum(weights) + j for j, c in enumerate(poly) for _ in range(c)]


def _fermat_c4():
    a, b, c, e = variables(4)
    return PolyMap([a ** 3 + b ** 3 + c ** 3 + e ** 3], (1, 1, 1, 1))


# (2^61 - 1)(2^31 - 1): divisible by the prime of the rank profile
SCALE_N = 4951760154835678088235319297


def _spy_profiles(monkeypatch):
    """Record (p, result) of every pivot_columns call infinity makes modulo
    a prime, and the pivots of every call over Q (p None)."""
    calls, exact_runs = [], []
    real = gradedlin.pivot_columns

    def spy(columns, p):
        out = real(columns, p)
        if p is None:
            exact_runs.append(out)
        else:
            calls.append((p, out))
        return out
    monkeypatch.setattr(infinity, "pivot_columns", spy)
    return calls, exact_runs


class TestModularCertificate:
    """infinity_basis picks its forms modulo a prime and certifies them;
    when the certificate fails, the exact pivot columns pick them."""

    def test_failing_prime_falls_back_to_the_exact_profile(self, monkeypatch):
        # mod 3, d(a^3) vanishes, so the prime fails the certificate
        want = infinity_basis(_fermat_c4())
        calls, exact_runs = _spy_profiles(monkeypatch)
        monkeypatch.setattr(infinity, "_PRIME", 3)
        got = infinity_basis(_fermat_c4())
        assert calls and {p for p, _ in calls} == {3}
        assert exact_runs
        assert got.mu == want.mu == 16
        assert got.degrees == want.degrees
        assert got.forms == want.forms

    def test_prime_in_a_denominator_is_certified_without_exact_elimination(
            self, golden_basis, monkeypatch):
        # fbar_1 = x*z/p is cleared to x*z, so every residue mod p survives
        x, y, z = variables(3)
        p = gradedlin._PRIME
        F = PolyMap([Fraction(1, p) * x * z, x ** 2 + y ** 2 - z ** 2],
                    (1, 1, 1))
        calls, exact_runs = _spy_profiles(monkeypatch)
        got = infinity_basis(F)
        assert calls and {q for q, _ in calls} == {p}
        assert exact_runs == []
        assert got.degrees == golden_basis.degrees == [2, 2, 2, 3, 3]
        assert got.forms == golden_basis.forms

    @pytest.mark.parametrize("scale", [SCALE_N, Fraction(1, SCALE_N)],
                             ids=["N", "1/N"])
    def test_scaled_golden_map_has_the_golden_basis(self, golden_basis, scale):
        # scaling fbar_1 by N leaves the exact space unchanged; mod p the
        # d-columns keep their residues while the fbar_1 columns vanish
        # (N) or clear to x*z (1/N)
        x, y, z = variables(3)
        F = PolyMap([scale * x * z, x ** 2 + y ** 2 - z ** 2], (1, 1, 1))
        got = infinity_basis(F)
        assert got.degrees == golden_basis.degrees
        assert got.forms == golden_basis.forms

    def test_map_scaled_by_a_multiple_of_the_prime_needs_no_exact_elimination(
            self, monkeypatch):
        # every cleared entry of a column x^e dx_S * fbar is a multiple of p
        # for fbar = N*(a^3 + ...); divided by their gcd they keep residues
        want = infinity_basis(_fermat_c4())
        a, b, c, e = variables(4)
        F = PolyMap([SCALE_N * (a ** 3 + b ** 3 + c ** 3 + e ** 3)], (1, 1, 1, 1))
        calls, exact_runs = _spy_profiles(monkeypatch)
        got = infinity_basis(F)
        assert calls and exact_runs == []
        assert got.mu == want.mu == 16
        assert got.degrees == want.degrees
        assert got.forms == want.forms

    @pytest.mark.parametrize("short_in_degree_2", [True, False])
    def test_each_check_rejects_a_skewed_profile(self, golden_map, golden_basis,
                                                 monkeypatch, short_in_degree_2):
        # A skewed profile keeps a dependent candidate in degree 3.  With
        # one form too few in degree 2 it keeps mu = 5 forms in all, but
        # the span check rejects it at degree 2; without, it spans every
        # piece but keeps 6 forms, so the count check rejects it.  The
        # exact profile then answers.
        real = gradedlin.pivot_columns
        calls = []
        _, exact_runs = _spy_profiles(monkeypatch)
        spy = infinity.pivot_columns

        def skewed(columns, p):
            if p is None:
                return spy(columns, p)
            pivots = real(columns, p)
            calls.append(p)
            if len(calls) == 1 and short_in_degree_2:
                return pivots[:-1]
            if len(calls) == 2:
                # the last 9 columns are the d-images of the degree-3
                # candidates, after the d(fbar_i x^e dx_S)
                extra = next(j for j in range(len(columns) - 9, len(columns))
                             if j not in pivots)
                return sorted(pivots[1:] + [extra])
            return pivots
        monkeypatch.setattr(infinity, "pivot_columns", skewed)
        B = infinity_basis(golden_map)
        assert len(calls) == (1 if short_in_degree_2 else 3)
        assert len(exact_runs) == 3
        assert B.degrees == golden_basis.degrees
        assert B.forms == golden_basis.forms

    def test_exact_profile_failing_is_an_internal_error(self, monkeypatch,
                                                        capsys, tmp_path):
        # both profiles skewed: the prime spans nothing, and the pass over
        # Q misses its last pivot
        real = gradedlin.pivot_columns
        monkeypatch.setattr(infinity, "pivot_columns", lambda cols, p: (
            real(cols, p)[:-1] if p is None else []))
        with pytest.raises(RuntimeError, match="^internal: "):
            infinity_basis(_fermat_c4())
        path = tmp_path / "fermat.fib"
        path.write_text(FERMAT_C4_SOURCE)
        code = cli.main(["basis", str(path)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err.startswith("internal error: ")
        assert "Traceback" not in err

    def test_no_exact_elimination(self, monkeypatch):
        # the basis comes from the modular rank profile alone: no rank over
        # Q and no solver
        built = []
        real, real_init = gradedlin.pivot_columns, ExactLinearSolver.__init__

        def mod_p_only(columns, p):
            if p is None:
                built.append("pivot_columns")
            return real(columns, p)

        def counting(self, columns):
            built.append("ExactLinearSolver")
            real_init(self, columns)
        monkeypatch.setattr(infinity, "pivot_columns", mod_p_only)
        monkeypatch.setattr(ExactLinearSolver, "__init__", counting)
        assert infinity_basis(_fermat_c4()).mu == 16
        assert built == []


# Random maps with an isolated singularity at infinity: a cubic top on C^3
# (weights where a weighted cubic can be isolated) or two quadric tops on
# C^4, plus lower terms that the basis must ignore.
FAMILIES = {
    "cubic-c3": (3, ((1, 1, 1), (1, 1, 2), (2, 1, 1)), (3,)),
    "quadrics-c4": (4, ((1, 1, 1, 1),), (2, 2)),
}


@st.composite
def isolated_maps(draw):
    n, weight_choices, degrees = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    w = draw(st.sampled_from(weight_choices))
    components = []
    for d in degrees:
        monos = oracles.exponents_of_degree(n, w, d)
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos),
                               max_size=len(monos)))
        assume(any(coeffs))
        terms = {e: Fraction(c) for e, c in zip(monos, coeffs) if c}
        terms[(0,) * n] = Fraction(draw(st.integers(-2, 2)))
        terms[(1,) + (0,) * (n - 1)] = Fraction(draw(st.integers(-2, 2)))
        components.append({e: c for e, c in terms.items() if c})
    return n, w, components


@settings(derandomize=True, max_examples=12, deadline=None)
@given(isolated_maps())
def test_basis_equals_exact_greedy_basis(case):
    n, w, components = case
    F = PolyMap([Polynomial(n, t) for t in components], w)
    assume(singular_dimension(F) <= 0)
    B = infinity_basis(F)
    std = quotient_vector_basis(F.singular_gb)
    degrees, forms = oracles.greedy_infinity_basis(n, w, components, std)
    assert B.mu == len(std) == len(forms)
    assert B.degrees == degrees
    assert [kform_coordinates(f) for f in B.forms] == forms


class TestSolverAccessor:
    def test_matches_hand_built_solver(self, golden_map, golden_basis):
        from fibera import ColumnGroup, CombinationSolver
        F, B = golden_map, golden_basis
        rng = random.Random(89)
        for r in (2, 3):
            same = [b for b, d in zip(B.forms, B.degrees) if d == r]
            coords = [kform_coordinates(b) for b in same]
            groups = [ColumnGroup(3, 1, coords, coords)]
            hand = CombinationSolver(groups + F.exactness_groups(1, r))
            cached = F.solver(1, r, lead=same)
            space = monomial_basis(3, 1, (1, 1, 1), r)
            for _ in range(6):
                f = KForm.zero(3, 1)
                for m in space:
                    f = f + rng.randint(-3, 3) * m
                got, want = cached.solve(f), hand.solve(f)
                assert want is not None and len(got) == len(want) == 2 + F.q
                assert [g.coefficients for g in got] == [g.coefficients for g in want]
                assert [g.combination for g in got] == [g.combination for g in want]

    def test_solver_is_cached(self, golden_map):
        F = golden_map
        y = F.point([1, 0])
        assert F.solver(1, 2, y) is F.solver(1, 2, y)
        assert F.solver(1, 2, [1, 0]) is F.solver(1, 2, y)
        assert F.solver(1, 2) is F.solver(1, 2)
        assert F.solver(1, 2, lead=[]) is not F.solver(1, 2)

    def test_empty_lead_keeps_its_group(self, golden_map):
        # callers index the exactness groups from 1 whenever lead is given
        F = golden_map
        assert len(F.solver(1, 2).groups) == 1 + F.q
        assert len(F.solver(1, 2, lead=[]).groups) == 2 + F.q
        assert F.solver(1, 2, lead=[]).groups[0].basis == []

    def test_basis_holds_no_solvers(self, golden_basis):
        assert not hasattr(golden_basis, "_class_solvers")


def _quadric_c4():
    a, b, c, e = variables(4)
    return PolyMap([a * c + b * e, a ** 2 + b ** 2 - c ** 2 + e ** 2],
                   (1, 1, 1, 1))


def _full_d_group(F, k, r, at_most=False):
    """The d block of exactness_groups(k, r) with no column left out."""
    keys, cols = oracles.full_d_block(F.n, k - 1, F.weights, r, at_most)
    return ColumnGroup(F.n, k - 1, [{m: 1} for m in keys], cols)


class TestDBlockRule:
    """exactness_groups builds d(x^e dx_S) only when x^e has a positive
    exponent after max S.  The columns it keeps are exactly the pivot
    columns of the full d block over Q, so no rank, pivot or witness
    changes."""

    # n, weights, largest degree r; every k and every r up to it
    CASES = [(2, (1, 1), 7), (2, (3, 2), 9), (3, (1, 1, 1), 5),
             (3, (1, 2, 3), 7), (4, (1, 1, 1, 1), 5), (4, (2, 1, 1, 3), 6)]

    @pytest.mark.parametrize("n, weights, top", CASES + [(5, (1,) * 5, 3)])
    def test_kept_columns_are_the_exact_pivots(self, n, weights, top):
        x = variables(n)
        F = PolyMap([x[0] * x[-1] + x[1]], weights)
        y = F.point([Fraction(-2, 3)])
        for k in range(1, n + 1):
            for r in range(top + 1):
                for pt in (None, y):
                    keys, cols = oracles.full_d_block(n, k - 1, weights, r,
                                                      at_most=pt is not None)
                    kept = [next(iter(b))
                            for b in F.exactness_groups(k, r, pt)[0].basis]
                    pivots = ExactLinearSolver(cols).pivots
                    assert kept == [keys[j] for j in pivots], (k, r, pt)

    @pytest.mark.parametrize("make, k, degrees", [(_fermat_c4, 3, (4, 5, 6)),
                                                  (_quadric_c4, 2, (3, 4))],
                             ids=["fermat-c4", "quadric-c4"])
    def test_solver_matches_the_full_d_block(self, make, k, degrees):
        F = make()
        B = infinity_basis(F)
        rng = random.Random(97)
        for r in degrees:
            lead = [f for f, d in zip(B.forms, B.degrees) if d == r]
            coords = [kform_coordinates(f) for f in lead]
            full = CombinationSolver([ColumnGroup(F.n, k, coords, coords),
                                      _full_d_group(F, k, r)]
                                     + F.exactness_groups(k, r)[1:])
            cached = F.solver(k, r, lead=lead)
            assert len(cached.groups[1].basis) < len(full.groups[1].basis)
            space = monomial_basis(F.n, k, F.weights, r)
            for _ in range(4):
                f = KForm.zero(F.n, k)
                for m in space:
                    f = f + rng.randint(-3, 3) * m
                got, want = cached.solve(f), full.solve(f)
                assert want is not None
                assert got[0].coefficients == want[0].coefficients
                assert [g.combination for g in got] == [g.combination
                                                       for g in want]

    def test_bounded_solver_matches_the_full_d_block(self):
        F = _quadric_c4()
        y = F.point([Fraction(2, 3), -1])
        rng = random.Random(101)
        full = CombinationSolver([_full_d_group(F, 2, 3, at_most=True)]
                                 + F.exactness_groups(2, 3, y)[1:])
        cached = F.solver(2, 3, y)
        for _ in range(4):
            # exact on the fibre: d of a 1-form plus (f_1 - y_1) * 2-form
            f = (exterior_derivative(make_random_form(rng, 4, 1, F.weights, 3))
                 + (F.components[0] - y[0])
                 * make_random_form(rng, 4, 2, F.weights, 1))
            got, want = cached.solve(f), full.solve(f)
            assert want is not None
            assert [g.combination for g in got] == [g.combination for g in want]
        # a generic 2-form is not exact, by either solver
        f = make_random_form(rng, 4, 2, F.weights, 3, density=1.0)
        assert cached.solve(f) is None and full.solve(f) is None


def _reference_forms():
    """The classical list the suite first checked for the golden map:
    w1, w2, w3, x*w2, z*w1.  Its source cannot be checked from PAPER.md,
    which holds only the abstract; its degree-3 entries share one class, so
    it has rank 4 modulo exactness (see acceptance criterion 02)."""
    x, y, z = variables(3)
    dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
    w1 = z * dx - x * dz
    w2 = y * dz - z * dy
    w3 = x * dy - y * dx
    return [w1, w2, w3, x * w2, z * w1]

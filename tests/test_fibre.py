"""Fibre cohomology: classes, relative decompositions, vanishing."""
from __future__ import annotations

import random
import signal
from copy import deepcopy
from fractions import Fraction

import pytest

from fibera import (
    FibreClass,
    KForm,
    PolyMap,
    Polynomial,
    PreconditionError,
    RelativeDecomposition,
    bounded_ideal_membership,
    closed_on_fibre,
    exact_on_fibre,
    exterior_derivative,
    fibre_class,
    infinity_basis,
    is_in_subalgebra,
    relative_closed,
    relative_decompose,
    relative_exact_homogeneous,
    verify_decomposition,
    verify_vanishing,
    wedge,
)
from fibera import fibre, gradedlin, groebner, infinity
from fibera.gradedlin import (ExactLinearSolver, coordinates_kform,
                              monomial_basis)
from conftest import make_random_form, make_random_poly, variables
import oracles


def _fibre_points(F):
    return [F.point([1, 0]), F.point([1, 2]), F.point([-1, 3])]


def _sphere_points(seed, count):
    """Nonzero rational points drawn the way the vanish-sphere benchmark
    draws them: point i comes from random.Random(f"{seed}:{i}")."""
    out = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        out.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                            rng.randint(1, 5)))
    return out


def _closedness_columns(F, k, y, bound):
    """Monomial k-forms of degree <= bound and, per form, the normal-form
    coordinates of d(m) ^ df_1 ^ ... ^ df_q on the fibre over y."""
    basis = monomial_basis(F.n, k, F.weights, bound, at_most=True)
    gb = F.fibre_gb(y)
    cols = []
    for m in basis:
        z = wedge(exterior_derivative(m), F.jac_form)
        cols.append({(S, e): c for S, P in z.coeffs.items()
                     for e, c in gb.normal_form(P).terms.items()})
    return basis, cols


def _timed_out(signum, frame):
    raise TimeoutError("no answer within the alarm")


def _vanishing_by_kernel_solves(F, k, y, bound, basis, cols):
    """The vanishing report by its first definition: a kernel basis of the
    closedness columns, and one bounded exactness solve per vector."""
    kernel = ExactLinearSolver(cols).nullspace()
    solver = F.solver(k, bound, y)
    exact = 0
    for vec in kernel:
        form = KForm.zero(F.n, k)
        for c, m in zip(vec, basis):
            if c:
                form = form + c * m
        exact += solver.solve(form) is not None
    return {
        "form_degree": k,
        "degree_bound": bound,
        "space_dimension": len(basis),
        "closed_dimension": len(kernel),
        "exact_dimension": exact,
        "all_exact": exact == len(kernel),
    }


class TestClosedOnFibre:
    def test_top_degree_forms_are_always_closed(self, golden_map):
        # for (n-q)-forms the closedness condition is an (n+1)-form: zero
        rng = random.Random(61)
        y = golden_map.point([1, 0])
        for _ in range(10):
            f = make_random_form(rng, 3, 1, (1, 1, 1), 5)
            assert closed_on_fibre(f, golden_map, y)

    def test_zero_forms(self, golden_map):
        x, _, z = variables(3)
        y = golden_map.point([1, 0])
        one = KForm.from_polynomial(Polynomial.constant(3, 1))
        assert closed_on_fibre(one, golden_map, y)
        # constants and functions of F are closed; a generic coordinate is not
        f1 = golden_map.components[0]
        assert closed_on_fibre(KForm.from_polynomial(f1 ** 2), golden_map, y)
        assert not closed_on_fibre(KForm.from_polynomial(x), golden_map, y)


class TestBoundedIdealMembership:
    def test_member_with_certificate(self, golden_map):
        F = golden_map
        y = F.point([1, 0])
        f1, f2 = F.components
        P = f1 ** 2 - 1  # (f1 - 1)(f1 + 1), and y_1 = 1
        cof = bounded_ideal_membership(P, F, y)
        assert cof is not None
        recon = Polynomial.zero(3)
        for a, f, c in zip(cof, F.components, y):
            recon = recon + a * (f - Polynomial.constant(3, c))
        assert recon == P
        for a, d in zip(cof, F.degrees):
            assert a.weighted_degree(F.weights) <= P.weighted_degree(F.weights) - d

    def test_random_members(self, golden_map):
        rng = random.Random(62)
        F = golden_map
        y = F.point([1, 2])
        shifted = [f - Polynomial.constant(3, c) for f, c in zip(F.components, y)]
        for _ in range(15):
            a1 = make_random_poly(rng, 3, F.weights, 3)
            a2 = make_random_poly(rng, 3, F.weights, 3)
            P = a1 * shifted[0] + a2 * shifted[1]
            cof = bounded_ideal_membership(P, F, y)
            assert cof is not None
            recon = sum((a * s for a, s in zip(cof, shifted)), Polynomial.zero(3))
            assert recon == P

    def test_non_member(self, golden_map):
        x, _, _ = variables(3)
        y = golden_map.point([1, 0])
        assert bounded_ideal_membership(x, golden_map, y) is None
        one = Polynomial.constant(3, 1)
        assert bounded_ideal_membership(one, golden_map, y) is None

    def test_zero_membership(self, golden_map):
        y = golden_map.point([1, 0])
        cof = bounded_ideal_membership(Polynomial.zero(3), golden_map, y)
        assert cof == [Polynomial.zero(3), Polynomial.zero(3)]


class TestExactOnFibre:
    def test_constructed_exact_forms(self, golden_map):
        rng = random.Random(63)
        F = golden_map
        y = F.point([1, 0])
        shifted = [f - Polynomial.constant(3, c) for f, c in zip(F.components, y)]
        for _ in range(10):
            p = make_random_poly(rng, 3, F.weights, 4)
            etas = [make_random_form(rng, 3, 1, F.weights, 3) for _ in range(2)]
            target = exterior_derivative(p)
            for s, eta in zip(shifted, etas):
                target = target + s * eta
            res = exact_on_fibre(target, F, y)
            assert res.witness is not None
            assert res.complete
            Omega, ws = res.witness
            recon = exterior_derivative(Omega)
            for s, eta in zip(shifted, ws):
                recon = recon + s * eta
            assert recon == target
            # certified degree bounds
            r = target.weighted_degree(F.weights)
            assert Omega.weighted_degree(F.weights) <= r
            for eta, d in zip(ws, F.degrees):
                assert eta.weighted_degree(F.weights) <= r - d

    def test_basis_forms_are_not_exact(self, golden_map, golden_basis):
        y = golden_map.point([1, 0])
        for b in golden_basis:
            res = exact_on_fibre(b, golden_map, y)
            assert res.witness is None
            assert res.complete  # the bounded search is exhaustive here

    def test_zero_form(self, golden_map):
        # the zero k-form has the zero witness: Omega a (k-1)-form (a 0-form
        # when k = 0) and every eta a k-form
        F = golden_map
        y = F.point([1, 0])
        for k in range(F.n + 1):
            res = exact_on_fibre(KForm.zero(3, k), F, y)
            Omega, etas = res.witness
            assert (Omega.k, [e.k for e in etas]) == (max(k - 1, 0), [k, k])
            assert Omega.is_zero() and not any(etas)
            assert res.complete == (k <= 1)


class TestFibreClass:
    def test_basis_forms_have_unit_coordinates(self, golden_map, golden_basis):
        F, B = golden_map, golden_basis
        for y in _fibre_points(F):
            for i, b in enumerate(B):
                cls = fibre_class(b, F, y, B)
                expected = [Fraction(0)] * B.mu
                expected[i] = Fraction(1)
                assert cls.coefficients == expected
                assert verify_decomposition(b, cls, F, B)

    def test_exact_form_has_zero_coordinates(self, golden_map, golden_basis):
        F, B = golden_map, golden_basis
        y = F.point([1, 0])
        dx = KForm.basis_form(3, (0,))
        cls = fibre_class(dx, F, y, B)
        assert cls.coefficients == [Fraction(0)] * 5
        assert verify_decomposition(dx, cls, F, B)

    def test_random_forms_decompose_and_verify(self, golden_map, golden_basis):
        rng = random.Random(64)
        F, B = golden_map, golden_basis
        pts = _fibre_points(F)
        for i in range(12):
            f = make_random_form(rng, 3, 1, F.weights, 6)
            y = pts[i % 3]
            cls = fibre_class(f, F, y, B)
            assert verify_decomposition(f, cls, F, B)

    def test_coordinates_are_linear(self, golden_map, golden_basis):
        rng = random.Random(65)
        F, B = golden_map, golden_basis
        y = F.point([1, 2])
        for _ in range(8):
            f = make_random_form(rng, 3, 1, F.weights, 5)
            g = make_random_form(rng, 3, 1, F.weights, 5)
            a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            lf = fibre_class(f, F, y, B).coefficients
            lg = fibre_class(g, F, y, B).coefficients
            combo = a * f + b * g
            lc = fibre_class(combo, F, y, B).coefficients
            assert lc == [a * u + b * v for u, v in zip(lf, lg)]

    def test_wrong_form_degree_raises(self, golden_map, golden_basis):
        y = golden_map.point([1, 0])
        with pytest.raises(PreconditionError):
            fibre_class(KForm.basis_form(3, (0, 1)), golden_map, y, golden_basis)

    def test_requires_cia(self, quartic_map):
        y = quartic_map.point([1])
        dx = KForm.basis_form(2, (0,))
        with pytest.raises(PreconditionError):
            fibre_class(dx, quartic_map, y, None)

    def test_basis_shared_across_maps(self):
        # solvers live on the map, keyed by the basis forms: a query on F1
        # must not leave a solver behind that a query on F2 then picks up
        x, y, z = variables(3)
        dx, dz = KForm.basis_form(3, (0,)), KForm.basis_form(3, (2,))
        F1 = PolyMap([x * z, x ** 2 + y ** 2 - z ** 2], (1, 1, 1))
        F2 = PolyMap([x * y, x ** 2 - y ** 2 + z ** 2], (1, 1, 1))
        B1 = infinity_basis(F1)
        fibre_class(y * z ** 2 * dx, F1, (1, 2), B1)
        omega = x * y * z * dz + y * z ** 2 * dx
        cls = fibre_class(omega, F2, (1, 2), B1)
        assert cls.coefficients == [-1, 0, 0, 0, 0]
        assert verify_decomposition(omega, cls, F2, B1)
        assert fibre_class(omega, F2, (1, 2), deepcopy(B1)) == cls


class TestPolyMapCache:
    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(infinity, "CACHE_LIMIT", 4)
        x, y, z = variables(3)
        F = PolyMap([x * z, x ** 2 + y ** 2 - z ** 2], (1, 1, 1))
        dy = KForm.basis_form(3, (1,))
        exact = exterior_derivative(x * y) + (x * z - 1) * dy  # on f_1 = 1
        w1 = z * KForm.basis_form(3, (0,)) - x * KForm.basis_form(3, (2,))
        points = [F.point([1, c]) for c in range(6)]

        def answers():
            out = []
            for p in points:
                gb = F.fibre_gb(p)
                out.append((gb.generators, exact_on_fibre(exact, F, p),
                            exact_on_fibre(w1, F, p)))
                assert len(F._cache) <= 4
            return out

        before = answers()
        assert all(e.witness is not None and n.witness is None
                   for _, e, n in before)
        assert answers() == before


class TestRelativeOperations:
    def test_relative_closed_top_degree(self, golden_map):
        rng = random.Random(66)
        for _ in range(5):
            f = make_random_form(rng, 3, 1, golden_map.weights, 5)
            assert relative_closed(f, golden_map)

    def test_relative_closed_zero_forms(self, golden_map):
        x, _, _ = variables(3)
        f1 = golden_map.components[0]
        assert relative_closed(KForm.from_polynomial(f1 ** 3), golden_map)
        assert not relative_closed(KForm.from_polynomial(x), golden_map)

    def test_relative_exact_homogeneous(self, golden_map):
        F = golden_map
        x, y, z = variables(3)
        # d(fbar_1) = z dx + x dz is relatively exact: take Omega = fbar_1
        df1 = exterior_derivative(F.top_components[0])
        witness = relative_exact_homogeneous(df1, F)
        assert witness is not None
        Omega, etas = witness
        recon = exterior_derivative(Omega)
        for eta, ftop in zip(etas, F.top_components):
            recon = recon + wedge(eta, exterior_derivative(ftop))
        assert recon == df1

    def test_relative_exact_zero_form(self, golden_map):
        # the zero k-form has the zero witness, Omega and every eta (k-1)-forms
        # (0-forms when k = 0)
        for k in range(golden_map.n + 1):
            Omega, etas = relative_exact_homogeneous(KForm.zero(3, k), golden_map)
            kk = max(k - 1, 0)
            assert (Omega.k, [e.k for e in etas]) == (kk, [kk, kk])
            assert Omega.is_zero() and not any(etas)

    def test_relative_exact_requires_homogeneous(self, golden_map):
        x, _, _ = variables(3)
        dx = KForm.basis_form(3, (0,))
        with pytest.raises(ValueError):
            relative_exact_homogeneous(x * dx + dx, golden_map)

    def test_kernel_generators_not_relatively_exact(self, golden_map, golden_basis):
        for b in golden_basis:
            assert relative_exact_homogeneous(b, golden_map) is None


class TestRelativeDecompose:
    def test_basis_form_itself(self, golden_map, golden_basis):
        F, B = golden_map, golden_basis
        dec = relative_decompose(B.forms[1], F, B)
        expected = [Polynomial.zero(2)] * 5
        expected[1] = Polynomial.constant(2, 1)
        assert dec.coeff_polys == expected
        assert verify_decomposition(B.forms[1], dec, F, B)

    def test_component_multiple_gives_t_coefficient(self, golden_map, golden_basis):
        # f_1 * b_2 decomposes with coefficient polynomial t_1 on b_2
        F, B = golden_map, golden_basis
        f1 = F.components[0]
        omega = f1 * B.forms[1]
        dec = relative_decompose(omega, F, B)
        t1 = Polynomial.variable(2, 0)
        expected = [Polynomial.zero(2)] * 5
        expected[1] = t1
        assert dec.coeff_polys == expected
        assert verify_decomposition(omega, dec, F, B)

    def test_exact_form_decomposes_with_zero_coefficients(self, golden_map,
                                                          golden_basis):
        rng = random.Random(67)
        F, B = golden_map, golden_basis
        for _ in range(5):
            p = make_random_poly(rng, 3, F.weights, 4)
            omega = exterior_derivative(p)
            dec = relative_decompose(omega, F, B)
            assert all(a.is_zero() for a in dec.coeff_polys)
            assert verify_decomposition(omega, dec, F, B)

    def test_random_forms(self, golden_map, golden_basis):
        rng = random.Random(68)
        F, B = golden_map, golden_basis
        for _ in range(10):
            f = make_random_form(rng, 3, 1, F.weights, 7)
            dec = relative_decompose(f, F, B)
            assert verify_decomposition(f, dec, F, B)

    def test_specializes_to_fibre_classes(self, golden_map, golden_basis):
        # a_i evaluated at y equals the fibre-class coordinates over y
        rng = random.Random(69)
        F, B = golden_map, golden_basis
        pts = _fibre_points(F)
        for _ in range(6):
            f = make_random_form(rng, 3, 1, F.weights, 6)
            dec = relative_decompose(f, F, B)
            for y in pts:
                cls = fibre_class(f, F, y, B)
                evaluated = [a.evaluate(y) for a in dec.coeff_polys]
                assert evaluated == cls.coefficients

    def test_wrong_degree_raises(self, golden_map, golden_basis):
        with pytest.raises(PreconditionError):
            relative_decompose(KForm.basis_form(3, (0, 1)), golden_map,
                               golden_basis)

    def test_even_form_degree_multiplier_squares(self, monkeypatch):
        # k = n - q = 2 on C^4, q = 2: the even-k sign in eta, and a degree-6
        # 2-form whose descent reaches |alpha| = 2 (degree 6 -> 4 -> 2)
        a, b, c, e = variables(4)
        F = PolyMap([a * c + b * e, a ** 2 + b ** 2 - c ** 2 + e ** 2],
                    (1, 1, 1, 1))
        B = infinity_basis(F)
        f = make_random_form(random.Random(2), 4, 2, F.weights, 6, density=0.1)
        descents = []
        descend = fibre._descend
        monkeypatch.setattr(fibre, "_descend",
                            lambda *args: descents.append(1) or descend(*args))
        dec = relative_decompose(f, F, B)
        monkeypatch.undo()
        assert len(descents) > 1 + F.q  # at most 1 + q keys have |alpha| <= 1
        assert verify_decomposition(f, dec, F, B)
        for y in (F.point([1, 0]), F.point([2, -1])):
            evaluated = [aa.evaluate(y) for aa in dec.coeff_polys]
            assert evaluated == fibre_class(f, F, y, B).coefficients

    def test_one_precondition_check_per_call(self, monkeypatch, golden_map,
                                             golden_basis):
        calls = []
        require = fibre._require_isolated
        monkeypatch.setattr(fibre, "_require_isolated",
                            lambda F: calls.append(F) or require(F))
        f = make_random_form(random.Random(70), 3, 1, golden_map.weights, 8)
        dec = relative_decompose(f, golden_map, golden_basis)
        assert verify_decomposition(f, dec, golden_map, golden_basis)
        assert len(calls) == 1


class TestVerifyDecomposition:
    def test_detects_corrupted_witness(self, golden_map, golden_basis):
        F, B = golden_map, golden_basis
        y = F.point([1, 0])
        f = B.forms[0]
        cls = fibre_class(f, F, y, B)
        assert verify_decomposition(f, cls, F, B)
        bad = FibreClass(cls.point, list(cls.coefficients),
                         cls.omega + KForm.from_polynomial(
                             Polynomial.variable(3, 0)),
                         list(cls.eta))
        assert not verify_decomposition(f, bad, F, B)

    def test_detects_corrupted_coefficients(self, golden_map, golden_basis):
        F, B = golden_map, golden_basis
        f = F.components[0] * B.forms[1]
        dec = relative_decompose(f, F, B)
        bad_coeffs = list(dec.coeff_polys)
        bad_coeffs[0] = bad_coeffs[0] + 1
        bad = RelativeDecomposition(bad_coeffs, dec.omega, list(dec.eta))
        assert not verify_decomposition(f, bad, F, B)

    def test_rejects_extra_coefficient(self, golden_map, golden_basis):
        F, B = golden_map, golden_basis
        f = B.forms[1]
        cls = fibre_class(f, F, F.point([1, 2]), B)
        assert verify_decomposition(f, cls, F, B)
        bad = FibreClass(cls.point, cls.coefficients + [Fraction(0)],
                         cls.omega, list(cls.eta))
        assert not verify_decomposition(f, bad, F, B)

    def test_rejects_extra_eta(self, golden_map, golden_basis):
        F, B = golden_map, golden_basis
        f = F.components[0] * B.forms[1]
        dec = relative_decompose(f, F, B)
        assert verify_decomposition(f, dec, F, B)
        bad = RelativeDecomposition(list(dec.coeff_polys), dec.omega,
                                    dec.eta + [KForm.zero(3, 0)])
        assert not verify_decomposition(f, bad, F, B)

    def test_excess_degree_rejected_before_composing(self, golden_map,
                                                      golden_basis, monkeypatch):
        F, B = golden_map, golden_basis
        f = F.components[0] * B.forms[1]
        dec = relative_decompose(f, F, B)
        assert verify_decomposition(f, dec, F, B)
        coeffs = list(dec.coeff_polys)
        coeffs[0] = Polynomial.monomial(2, (0, 1000))
        bad = RelativeDecomposition(coeffs, dec.omega, list(dec.eta))

        def refuse(*args):
            raise AssertionError("composed a coefficient polynomial")
        monkeypatch.setattr(Polynomial, "compose", refuse)
        assert verify_decomposition(f, bad, F, B) is False

    def test_rejects_unknown_payload(self, golden_map, golden_basis):
        with pytest.raises(TypeError):
            verify_decomposition(KForm.zero(3, 1), object(), golden_map,
                                 golden_basis)


class TestSubalgebraMembership:
    def test_round_trip(self, golden_map):
        rng = random.Random(70)
        F = golden_map
        for _ in range(10):
            A = make_random_poly(rng, 2, (1, 1), 3, density=0.7)
            R = A.compose(F.components)
            got = is_in_subalgebra(R, F)
            assert got == A

    def test_frozen_example(self, golden_map):
        F = golden_map
        f1 = F.components[0]
        t1 = Polynomial.variable(2, 0)
        assert is_in_subalgebra(f1 ** 2 + 1, F) == t1 ** 2 + 1

    def test_non_members(self, golden_map):
        x, y, z = variables(3)
        for R in (x, y, z, x * y, x + y ** 2):
            assert is_in_subalgebra(R, golden_map) is None

    def test_constants(self, golden_map):
        c = Polynomial.constant(3, Fraction(7, 3))
        got = is_in_subalgebra(c, golden_map)
        assert got == Fraction(7, 3)

    @pytest.mark.parametrize("n, make", [
        # the lead of x*z, padded to 6 entries, never cancels against the
        # 5-variable graph basis: the reduction used to loop
        (4, lambda a, b, c, e: a * c),
        (4, lambda a, b, c, e: a ** 2 + e),
        # one variable short: used to fail with an IndexError
        (2, lambda a, b: a),
    ])
    def test_ring_mismatch_raises_at_once(self, golden_map, n, make):
        R = make(*variables(n))
        gb = golden_map.graph_gb()
        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(5)
        try:
            for check in (lambda: is_in_subalgebra(R, golden_map),
                          lambda: gb.normal_form(R.pad(2)),
                          lambda: gb.contains(R)):
                with pytest.raises(ValueError, match="variables"):
                    check()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestVerifyVanishing:
    def test_line_map_all_closed_forms_exact(self, line_map):
        report = verify_vanishing(line_map, 1, line_map.point([1]), 6)
        assert report["all_exact"]
        assert report["space_dimension"] == 42   # 2 * C(7, 2) monomials
        assert report["closed_dimension"] == report["exact_dimension"]

    def test_guards(self, golden_map, sphere_map):
        with pytest.raises(ValueError):
            verify_vanishing(sphere_map, 0, sphere_map.point([1]), 4)
        # for the golden map n - q - k = 0, so no vanishing range exists
        with pytest.raises(PreconditionError):
            verify_vanishing(golden_map, 1, golden_map.point([1, 0]), 4)

    def test_sphere_small_bound(self, sphere_map):
        # all closed 1-forms of low degree on the smooth quadric are exact
        report = verify_vanishing(sphere_map, 1, sphere_map.point([1]), 3)
        assert report["all_exact"]
        assert report["closed_dimension"] == report["exact_dimension"]

    # d(m) for the 35 and 15 monomials m of degree <= 4 other than 1 (the d
    # block leaves out d(1) = 0), then (f - y) * the 12 monomial 1-forms of
    # degree <= 4 - deg f
    @pytest.mark.parametrize("name, ncols", [("sphere_map", 46),
                                             ("line_map", 26)])
    def test_exactness_columns_are_closed_on_fibre(self, request, name, ncols):
        # E lies in K: the rank comparison in verify_vanishing rests on this
        F = request.getfixturevalue(name)
        for y in (F.point([0]), F.point([Fraction(-7, 3)])):
            images = [coordinates_kform(F.n, 1, img)
                      for g in F.exactness_groups(1, 4, y) for img in g.images]
            assert len(images) == ncols
            assert all(closed_on_fibre(img, F, y) for img in images)

    def test_matches_kernel_solve_definition(self, sphere_map, line_map):
        # the kernel solves take about 0.5 s per point at bound 4, so that
        # bound runs on the first 4 of the 12 points
        cases = [(line_map, line_map.point([1]), 6)]
        for i, y in enumerate(_sphere_points(1, 12)):
            F = PolyMap(sphere_map.components, sphere_map.weights)
            cases += [(F, F.point([y]), b) for b in (3, 4) if b == 3 or i < 4]
        for F, y, bound in cases:
            report = verify_vanishing(F, 1, y, bound)
            basis, cols = _closedness_columns(F, 1, y, bound)
            assert report == _vanishing_by_kernel_solves(F, 1, y, bound,
                                                         basis, cols)
            assert (report["closed_dimension"]
                    == report["space_dimension"] - oracles.dict_columns_rank(cols))

    def test_closedness_columns_match_form_arithmetic(self, golden_map,
                                                      sphere_map):
        # columns built from keys equal the form-built reference above, in
        # the same order; on C^4 with q = 2 the 1-forms have nonzero columns
        a, b, c, e = variables(4)
        quadric = PolyMap([a * c + b * e, a ** 2 + b ** 2 - c ** 2 + e ** 2],
                          (1, 1, 1, 1))
        x, y, z = variables(3)
        weighted = PolyMap([x ** 6 + y ** 3 + z ** 2], (1, 2, 3))
        cases = [(sphere_map, [0], 5), (sphere_map, [Fraction(7, 3)], 5),
                 (golden_map, [0, 0], 5), (golden_map, [1, 2], 5),
                 (quadric, [Fraction(-3, 2), 2], 5),
                 (weighted, [Fraction(-7, 3)], 9)]
        nonzero = 0
        p = gradedlin._PRIME
        for F, y, bounds in cases:
            y = F.point(y)
            for k in range(F.n + 1):
                for bound in range(bounds):
                    _, cols = _closedness_columns(F, k, y, bound)
                    assert fibre._closedness_columns(F, k, y, bound) == cols
                    nonzero += sum(map(bool, cols))
                    # the Z/p columns are these, reduced mod p entry by entry
                    residues = [{key: v.numerator * pow(v.denominator, -1, p) % p
                                 for key, v in col.items()} for col in cols]
                    assert fibre._closedness_columns(F, k, y, bound, p) == [
                        {key: v for key, v in col.items() if v}
                        for col in residues]
        assert nonzero > 600

    def test_closedness_columns_one_normal_form_per_key(self, sphere_map,
                                                        monkeypatch):
        # the 60 monomial 1-forms of degree <= 4 have d-terms over 30
        # distinct keys (S, e), and each key's image is normal-formed once
        F = PolyMap(sphere_map.components, sphere_map.weights)
        y = F.point([Fraction(-7, 3)])
        F.fibre_gb(y)
        keys = {key for m in gradedlin.monomial_keys(3, 1, F.weights, 4,
                                                     at_most=True)
                for key in gradedlin.d_column(*m)}
        assert len(keys) == 30
        calls = []
        normal_form = groebner.GroebnerBasis.normal_form
        monkeypatch.setattr(groebner.GroebnerBasis, "normal_form",
                            lambda gb, P: calls.append(P) or normal_form(gb, P))
        cols = fibre._closedness_columns(F, 1, y, 4)
        assert len(cols) == 60 and 0 < len(calls) <= len(keys)

    # the sphere at bound 4 has 60 monomial 1-forms, 45 of them closed;
    # an empty mod-p profile sends both ranks over Q.  There the exact rank
    # is 34 = sum of d_rank(w, 0, r) over r <= 4 plus the rank of the
    # d-images, and the stub gives the d-images rank - 34 pivots
    def _sphere_with_exact_rank(self, sphere_map, monkeypatch, rank):
        F = PolyMap(sphere_map.components, sphere_map.weights)
        assert sum(gradedlin.d_rank(F.weights, 0, r) for r in range(1, 5)) == 34
        over_q = iter([gradedlin.pivot_columns,
                       lambda cols, p: list(range(rank - 34))])
        monkeypatch.setattr(fibre, "pivot_columns", lambda cols, p: (
            next(over_q)(cols, p) if p is None else []))
        return F

    def test_exact_rank_below_closed_fails(self, sphere_map, monkeypatch):
        F = self._sphere_with_exact_rank(sphere_map, monkeypatch, 44)
        report = verify_vanishing(F, 1, F.point([1]), 4)
        assert (report["closed_dimension"], report["exact_dimension"],
                report["all_exact"]) == (45, 44, False)

    def test_exact_rank_above_closed_is_internal_error(self, sphere_map,
                                                       monkeypatch):
        F = self._sphere_with_exact_rank(sphere_map, monkeypatch, 46)
        with pytest.raises(RuntimeError, match="^internal:"):
            verify_vanishing(F, 1, F.point([1]), 4)

    def test_certified_path_builds_no_exact_solver(self, sphere_map, line_map,
                                                   monkeypatch):
        # nor a normal form over Q or an exactness column: the closedness
        # columns come from residues, the exact rank from d_rank and d-images
        def refuse(*args, **kw):
            raise AssertionError("exact elimination on the certified path")

        def mod_p_only(cols, p):
            assert p is not None, "a rank over Q on the certified path"
            return gradedlin.pivot_columns(cols, p)
        monkeypatch.setattr(fibre, "pivot_columns", mod_p_only)
        monkeypatch.setattr(ExactLinearSolver, "__init__", refuse)
        monkeypatch.setattr(groebner.GroebnerBasis, "normal_form", refuse)
        cases = [(line_map, [1], 6, (42, 42, 42))]
        cases += [(sphere_map, [y], 4, (60, 45, 45))
                  for y in _sphere_points(1, 12)]
        for G, y, bound, dims in cases:
            F = PolyMap(G.components, G.weights)
            monkeypatch.setattr(F, "solver", refuse)
            monkeypatch.setattr(F, "exactness_groups", refuse)
            report = verify_vanishing(F, 1, F.point(y), bound)
            assert (report["space_dimension"], report["closed_dimension"],
                    report["exact_dimension"]) == dims
            assert report["all_exact"]

    def _sphere_with_profile(self, sphere_map, monkeypatch, edit):
        """The sphere at bound 4 with each mod-p pivot list passed through
        edit(call, pivots), call 0 for the closedness columns and 1 for the
        exactness d-images; returns the map and the exact ranks run, one
        "Q" per pivot_columns call over Q."""
        F = PolyMap(sphere_map.components, sphere_map.weights)
        real_profile, real_solver = gradedlin.pivot_columns, F.solver
        calls, exact_runs = [], []

        def profile(cols, p):
            if p is None:
                exact_runs.append("Q")
                return real_profile(cols, p)
            # one attempt per column family, with the one prime
            calls.append(p)
            assert p == gradedlin._PRIME and len(calls) <= 2
            return edit(len(calls) - 1, real_profile(cols, p))

        def solver(*args, **kw):
            exact_runs.append("F.solver")
            return real_solver(*args, **kw)
        monkeypatch.setattr(fibre, "pivot_columns", profile)
        monkeypatch.setattr(F, "solver", solver)
        return F, exact_runs

    def test_profile_with_extra_pivot_is_internal_error(self, sphere_map,
                                                        monkeypatch):
        F, exact_runs = self._sphere_with_profile(
            sphere_map, monkeypatch,
            lambda call, piv: piv + [len(piv)] if call == 1 else piv)
        with pytest.raises(RuntimeError, match="^internal:"):
            verify_vanishing(F, 1, F.point([1]), 4)
        assert exact_runs == []

    # "none": that family's profile has no pivots
    @pytest.mark.parametrize("edit", [
        lambda call, piv: piv[:-1] if call == 1 else piv,
        lambda call, piv: [] if call == 0 else piv,
        lambda call, piv: [] if call == 1 else piv,
    ], ids=["one-pivot-short", "closed-none", "exact-none"])
    def test_uncertified_profile_falls_back(self, sphere_map, monkeypatch,
                                            edit):
        F, exact_runs = self._sphere_with_profile(sphere_map, monkeypatch, edit)
        report = verify_vanishing(F, 1, F.point([1]), 4)
        assert exact_runs == ["Q", "Q"]
        assert (report["closed_dimension"], report["exact_dimension"],
                report["all_exact"]) == (45, 45, True)

    def test_point_with_prime_denominator_falls_back(self, sphere_map,
                                                     monkeypatch):
        # y = 1/p puts p into a denominator of f - y, which has no residue
        # mod p, so the columns are built from rationals and ranked over Q,
        # with no exactness column
        F, exact_runs = self._sphere_with_profile(
            sphere_map, monkeypatch, lambda call, piv: piv)

        def refuse(*args, **kw):
            raise AssertionError("exactness columns on the fallback")
        monkeypatch.setattr(F, "exactness_groups", refuse)
        y = F.point([Fraction(1, gradedlin._PRIME)])
        report = verify_vanishing(F, 1, y, 4)
        assert exact_runs == ["Q", "Q"]
        assert (report["closed_dimension"], report["exact_dimension"],
                report["all_exact"]) == (45, 45, True)

    @staticmethod
    def _vanishing_grid():
        """(components, weights, form degree k, degree bounds) of the
        certified-against-exact comparison; an empty bound list marks a case
        outside the precondition."""
        x, y, z = variables(3)
        a, b, c, e = variables(4)
        u, _ = variables(2)
        return [
            ([x ** 2 + y ** 2 + z ** 2], (1, 1, 1), 1, (2, 3, 4, 5)),
            ([x ** 2 + y ** 2 + z ** 2], (1, 1, 1), 2, ()),
            ([u], (1, 1), 1, (2, 4, 6)),
            ([x ** 3 + y ** 3 + z ** 3], (1, 1, 1), 1, (2, 3, 4)),
            ([x ** 3 + y ** 3 + z ** 3], (1, 1, 1), 2, ()),
            ([x + y * z], (2, 1, 1), 1, (2, 3, 4, 5)),
            ([x + y * z], (2, 1, 1), 2, (2, 3, 4, 5)),
            ([x + y * z], (1, 1, 1), 1, ()),
            ([a * c + b * e], (1, 1, 1, 1), 1, (2, 3, 4)),
            ([a * c + b * e], (1, 1, 1, 1), 2, (2, 3, 4)),
            ([a * c + b * e], (1, 1, 1, 1), 3, ()),
            ([a * c + b * e, a ** 2 + b ** 2 - c ** 2 + e ** 2],
             (1, 1, 1, 1), 1, (2, 3)),
        ]

    # 1/p has no residue mod p, so verify_vanishing answers it over Q
    _grid_points = [0, 1, Fraction(-7, 3), Fraction(5, 2),
                    Fraction(1, gradedlin._PRIME)]

    def test_certified_matches_exact_on_grid(self, monkeypatch):
        def reports(F, k, pt, bounds):
            if not bounds:
                with pytest.raises(PreconditionError):
                    verify_vanishing(F, k, pt, 2)
            return [verify_vanishing(F, k, pt, bd) for bd in bounds]

        checked = 0
        for comps, weights, k, bounds in self._vanishing_grid():
            for t in self._grid_points:
                F = PolyMap(comps, weights)
                pt = F.point([t] * F.q)
                certified = reports(F, k, pt, bounds)
                with monkeypatch.context() as m:
                    # no pivots mod p, so every report is ranked over Q
                    m.setattr(fibre, "pivot_columns", lambda cols, p: (
                        gradedlin.pivot_columns(cols, p) if p is None else []))
                    assert reports(F, k, pt, bounds) == certified
                checked += len(bounds)
        assert checked == 5 * 26

    def test_exact_rank_is_d_count_plus_shifted_block(self):
        # on the bounded k-forms ker d = d(Omega^(k-1)), which lies in E, so
        # dim E = sum of d_rank over 1..b + rank d(the (f_i - y_i) block)
        checked = 0
        for comps, weights, k, bounds in self._vanishing_grid():
            for t in self._grid_points:
                F = PolyMap(comps, weights)
                pt = F.point([t] * F.q)
                for b in bounds:
                    groups = F.exactness_groups(k, b, pt)
                    images = [gradedlin.d_image(img) for g in groups[1:]
                              for img in g.images]
                    count = sum(gradedlin.d_rank(F.weights, k - 1, r)
                                for r in range(1, b + 1))
                    assert count + ExactLinearSolver(images).rank == (
                        ExactLinearSolver([img for g in groups
                                           for img in g.images]).rank)
                    checked += 1
        assert checked == 5 * 26

"""Acceptance suite: eleven headline checks, one test per criterion.

Each test prints a single `acceptance NN [PASS|FAIL]` line directly to the
terminal (bypassing capture) and then asserts every sub-check, so a failure
is both visible in the log and fatal to the run.  All arithmetic is exact;
every tolerance is zero.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fibera import (
    ColumnGroup,
    CombinationSolver,
    KForm,
    Polynomial,
    closed_at_infinity,
    closed_on_fibre,
    euler_contraction,
    exact_at_infinity,
    exact_on_fibre,
    exterior_derivative,
    fibre_class,
    infinity_basis,
    is_complete_intersection_at_infinity,
    is_in_subalgebra,
    kform_coordinates,
    koszul_kernel_generators,
    lie_derivative,
    milnor_number,
    quotient_vector_basis,
    relative_decompose,
    scaling_substitution,
    verify_decomposition,
    verify_vanishing,
    wedge,
    weighted_exponents,
)
from fibera.gradedlin import ExactLinearSolver
from conftest import make_random_form, make_random_poly, variables
import oracles


@pytest.fixture()
def report(capsys):
    def _report(num, ok, detail=""):
        with capsys.disabled():
            line = f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}]"
            if detail:
                line += f" {detail}"
            print(line)
    return _report


def _golden_forms():
    """Coordinates, their differentials and the rotation forms
    w1 = z dx - x dz, w2 = y dz - z dy, w3 = x dy - y dx on C^3."""
    x, y, z = variables(3)
    dx, dy, dz = (KForm.basis_form(3, (i,)) for i in range(3))
    w = (z * dx - x * dz, y * dz - z * dy, x * dy - y * dx)
    return (x, y, z), (dx, dy, dz), w


def _reference_forms():
    """Five degree-(2,2,2,3,3) forms independent modulo exactness at
    infinity for the standing example: w1, w2, w3, x*w2, z*w2."""
    (x, _, z), _, (w1, w2, w3) = _golden_forms()
    return [w1, w2, w3, x * w2, z * w2]


def _classical_reference_forms():
    """The classical list the suite first checked: w1, w2, w3, x*w2, z*w1.

    Its source cannot be checked from PAPER.md, which holds only the
    abstract.  Its two degree-3 entries fall into one class modulo
    exactness at infinity (criterion 02 asserts why), so its rank is 4.
    """
    (x, _, z), _, (w1, w2, w3) = _golden_forms()
    return [w1, w2, w3, x * w2, z * w1]


def _basis_coordinates(forms, F, B):
    """Coordinates of each form over the basis B modulo exactness at
    infinity, or None where the form does not decompose."""
    rows = []
    for f in forms:
        r = int(f.weighted_degree(F.weights))
        idx = [i for i, d in enumerate(B.degrees) if d == r]
        same = [kform_coordinates(B.forms[i]) for i in idx]
        groups = [ColumnGroup(3, 1, same, same)]
        groups.extend(F.exactness_groups(1, r))
        sol = CombinationSolver(groups).solve(f)
        if sol is None:
            rows.append(None)
            continue
        row = [Fraction(0)] * B.mu
        for i, c in zip(idx, sol[0].coefficients):
            row[i] = c
        rows.append(row)
    return rows


def _oracle_class_count(forms, degree):
    """Classes of golden-map 1-forms in one degree, counted by the
    fibera-free oracle."""
    terms = [{(S, e): c for S, P in f.coeffs.items()
              for e, c in P.terms.items()} for f in forms]
    return oracles.one_form_class_count(3, (1, 1, 1), oracles.GOLDEN_TOPS,
                                        terms, degree)


def test_criterion_01_golden_map_invariants(golden_map, report):
    """CIA verdict, mu = 5, vanishing cross terms, rank-5 residues."""
    F = golden_map
    verdict = is_complete_intersection_at_infinity(F)
    mu = milnor_number(F)
    oracle_mu = oracles.graded_quotient_dimension(
        3, (1, 1, 1), oracles.GOLDEN_SINGULAR_GENS)
    x, y, z = variables(3)
    gb = F.singular_gb
    cross_vanish = all(gb.contains(m) for m in (x * y, y * z, x * z))
    residues = [gb.normal_form(p).terms
                for p in (Polynomial.constant(3, 1), x, y, z, x ** 2)]
    rank = oracles.dict_columns_rank([dict(t) for t in residues])
    ok = (verdict.is_cia and mu == 5 == oracle_mu and cross_vanish
          and rank == 5)
    report(1, ok, f"CIA = {verdict.is_cia}, mu = {mu} (oracle {oracle_mu}), "
                  f"xy/yz/xz vanish: {cross_vanish}, residue rank {rank}/5")
    assert verdict.is_cia
    assert mu == 5
    assert oracle_mu == 5
    assert cross_vanish
    assert rank == 5


def test_criterion_02_reference_forms_against_computed_basis(
        golden_map, golden_basis, report):
    """The five reference forms: closedness, independence, decomposability;
    and why the classical list with z*w1 in place of z*w2 has rank 4."""
    F, B = golden_map, golden_basis
    refs = _reference_forms()
    closed_count = sum(bool(closed_at_infinity(f, F)) for f in refs)
    rows = _basis_coordinates(refs, F, B)
    decomposable = sum(row is not None for row in rows)
    rank = oracles.matrix_rank([row for row in rows if row is not None])

    # The classical list collapses, by polyform arithmetic alone:
    # z*w1 = d(x*z^2) - 3*(x*z)*dz is exact at infinity, and
    # x*w2 - z*w3 = d(x*y*z) - 3*(x*z)*dy puts x*w2 in the class of z*w3.
    (x, y, z), (dx, dy, dz), (w1, w2, w3) = _golden_forms()
    xz = x * z
    z_w1_exact = z * w1 == exterior_derivative(x * z ** 2) - 3 * xz * dz
    x_w2_is_z_w3 = (x * w2 - z * w3
                    == exterior_derivative(x * y * z) - 3 * xz * dy)
    classical = _classical_reference_forms()
    classical_rows = _basis_coordinates(classical, F, B)
    classical_decomposable = sum(row is not None for row in classical_rows)
    classical_rank = oracles.matrix_rank(
        [row for row in classical_rows if row is not None])

    # Class counts per degree by the oracle, which never sees the basis.
    oracle_counts = (_oracle_class_count(refs[:3], 2),
                     _oracle_class_count(refs[3:], 3),
                     _oracle_class_count(classical[3:], 3))

    ok = (closed_count == 5 and len(B) == 5 and decomposable == 5
          and rank == 5 and z_w1_exact and x_w2_is_z_w3
          and classical_decomposable == 5 and classical_rank == 4
          and oracle_counts == (3, 2, 1))
    report(2, ok, f"closed {closed_count}/5, basis size {len(B)}, "
                  f"decomposable {decomposable}/5, independence rank {rank}/5, "
                  f"classical list (z*w1) rank {classical_rank}/5, "
                  f"oracle classes deg 2/3/3-classical {oracle_counts}")
    assert closed_count == 5
    assert len(B) == 5
    assert decomposable == 5
    assert rank == 5, (
        "w1, w2, w3, x*w2, z*w2 must be independent modulo exactness at "
        "infinity: their coordinates over the computed basis have rank "
        f"{rank}, not 5")
    assert z_w1_exact
    assert x_w2_is_z_w3
    assert classical_decomposable == 5
    assert classical_rank == 4
    assert oracle_counts == (3, 2, 1)


def test_criterion_03_negative_control(quartic_map, report):
    """x^4 + x^2*y^2 on C^2 fails the complete-intersection test."""
    verdict = is_complete_intersection_at_infinity(quartic_map)
    ok = (not verdict.is_cia) and verdict.dim_singular == 1
    report(3, ok, f"CIA = {verdict.is_cia}, "
                  f"dim V(I+J) = {verdict.dim_singular}")
    assert not verdict.is_cia
    assert verdict.dim_singular == 1


def test_criterion_04_milnor_cross_checks(circle_map, cusp_map, sphere_map,
                                          report):
    """Milnor numbers 1, 2, 1 against the brute-force staircase oracle."""
    cases = [
        (circle_map, oracles.CIRCLE_GENS, (1, 1), 1),
        (cusp_map, oracles.CUSP_GENS, oracles.CUSP_WEIGHTS, 2),
        (sphere_map, oracles.SPHERE_GENS, (1, 1, 1), 1),
    ]
    got = []
    ok = True
    for F, gens, w, expected in cases:
        mu = milnor_number(F)
        oracle_mu = oracles.graded_quotient_dimension(F.n, w, gens)
        got.append(f"mu = {mu} (oracle {oracle_mu}, expected {expected})")
        ok = ok and mu == oracle_mu == expected
    report(4, ok, "; ".join(got))
    for F, gens, w, expected in cases:
        assert milnor_number(F) == expected
        assert oracles.graded_quotient_dimension(F.n, w, gens) == expected


def test_criterion_05_exterior_calculus_properties(report):
    """d.d = 0, i_X.i_X = 0, Cartan, grading action, scaling action."""
    rng = random.Random(505)
    checks = 0
    for n in (2, 3, 4):
        for _ in range(40):
            while True:
                # heavy weights can empty the bounded monomial space for
                # high k, so redraw the whole configuration until nonzero
                w = tuple(rng.randint(1, 4) for _ in range(n))
                k = rng.randint(0, n)
                f = make_random_form(rng, n, k, w, 5)
                if not f.is_zero():
                    break
            assert exterior_derivative(exterior_derivative(f)).is_zero()
            checks += 1
            assert euler_contraction(euler_contraction(f, w), w).is_zero()
            checks += 1
            # Cartan identity: d i_X + i_X d acts as the grading operator
            cartan = exterior_derivative(euler_contraction(f, w)) \
                + euler_contraction(exterior_derivative(f), w)
            graded = KForm.zero(n, k)
            for r, part in f.homogeneous_components(w).items():
                graded = graded + Fraction(r) * part
            assert cartan == graded
            checks += 1
            for r, part in f.homogeneous_components(w).items():
                assert lie_derivative(part, w) == r * part
                checks += 1
                t_r = Polynomial.monomial(n + 1, (0,) * n + (r,))
                assert scaling_substitution(part, w) == t_r * part.pad(1)
                checks += 1
    ok = checks >= 500
    report(5, ok, f"{checks} identity checks, 0 failures")
    assert checks >= 500


def test_criterion_06_koszul_kernel_completeness(
        golden_map, cusp_map, circle_map, sphere_map, line_map, quartic_map,
        report):
    """Generator multiples fill ker(i_X) degree by degree, r <= 8."""
    maps = [golden_map, cusp_map, circle_map, sphere_map, line_map,
            quartic_map]
    comparisons = 0
    for F in maps:
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
                    cols.append(kform_coordinates(
                        Polynomial.monomial(n, e) * g))
            span = ExactLinearSolver(cols).rank if cols else 0
            assert span == brute, (F, r, span, brute)
            comparisons += 1
    ok = comparisons == len(maps) * 9
    report(6, ok, f"{comparisons} graded rank comparisons across "
                  f"{len(maps)} maps, 0 discrepancies")
    assert comparisons == len(maps) * 9


def test_criterion_07_fibre_classes(golden_map, golden_basis, report):
    """Certified fibre classes: verification, linearity, independence."""
    rng = random.Random(707)
    F, B = golden_map, golden_basis
    pts = [F.point([1, 0]), F.point([1, 2]), F.point([-1, 3])]
    verified = 0
    for i in range(50):
        f = make_random_form(rng, 3, 1, F.weights, 6)
        y = pts[i % 3]
        cls = fibre_class(f, F, y, B)
        assert verify_decomposition(f, cls, F, B)
        verified += 1
    linear = 0
    y = pts[1]
    for _ in range(10):
        f = make_random_form(rng, 3, 1, F.weights, 5)
        g = make_random_form(rng, 3, 1, F.weights, 5)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        lf = fibre_class(f, F, y, B).coefficients
        lg = fibre_class(g, F, y, B).coefficients
        lc = fibre_class(a * f + b * g, F, y, B).coefficients
        assert lc == [a * u + b * v for u, v in zip(lf, lg)]
        linear += 1
    independent = 0
    for j in range(20):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
        if not any(coeffs):
            coeffs[rng.randrange(5)] = Fraction(1)
        combo = KForm.zero(3, 1)
        for c, b in zip(coeffs, B.forms):
            if c:
                combo = combo + c * b
        res = exact_on_fibre(combo, F, pts[j % 3])
        assert res.witness is None and res.complete
        independent += 1
    ok = verified == 50 and linear == 10 and independent == 20
    report(7, ok, f"{verified}/50 verified, {linear}/10 linear, "
                  f"{independent}/20 basis combinations non-exact")
    assert ok


def test_criterion_08_relative_decompositions(golden_map, golden_basis,
                                              report):
    """Exact reconstruction, three degree bounds, fibre specialization."""
    rng = random.Random(808)
    F, B = golden_map, golden_basis
    pts = [F.point([1, 0]), F.point([1, 2]), F.point([-1, 3])]
    reconstructed = bounds_ok = specialized = 0
    for i in range(50):
        f = make_random_form(rng, 3, 1, F.weights, 8)
        dec = relative_decompose(f, F, B)
        assert verify_decomposition(f, dec, F, B)
        recon = exterior_derivative(dec.omega)
        for a, b in zip(dec.coeff_polys, B.forms):
            if not a.is_zero():
                recon = recon + a.compose(F.components) * b
        for eta, fj in zip(dec.eta, F.components):
            if not eta.is_zero():
                recon = recon + wedge(eta, exterior_derivative(fj))
        assert recon == f
        reconstructed += 1
        r = f.weighted_degree(F.weights)
        assert dec.omega.weighted_degree(F.weights) <= r
        for a, bd in zip(dec.coeff_polys, B.degrees):
            assert a.compose(F.components).weighted_degree(F.weights) \
                <= r - bd
        for eta, d in zip(dec.eta, F.degrees):
            assert eta.weighted_degree(F.weights) <= r - d
        bounds_ok += 1
        if i % 5 == 0:
            for y in pts:
                cls = fibre_class(f, F, y, B)
                assert [a.evaluate(y) for a in dec.coeff_polys] \
                    == cls.coefficients
                specialized += 1
    ok = reconstructed == 50 and bounds_ok == 50 and specialized == 30
    report(8, ok, f"{reconstructed}/50 reconstruct exactly, "
                  f"{bounds_ok}/50 satisfy all degree bounds, "
                  f"{specialized}/30 fibre specializations agree")
    assert ok


def test_criterion_09_vanishing(sphere_map, line_map, report):
    """Every closed 1-form of degree <= 6 is exact on the smooth fibres."""
    rep_sphere = verify_vanishing(sphere_map, 1, sphere_map.point([1]), 6)
    rep_line = verify_vanishing(line_map, 1, line_map.point([1]), 6)
    ok = (rep_sphere["all_exact"] and rep_line["all_exact"]
          and rep_sphere["closed_dimension"] == rep_sphere["exact_dimension"]
          and rep_line["closed_dimension"] == rep_line["exact_dimension"])
    report(9, ok,
           f"sphere: {rep_sphere['exact_dimension']}/"
           f"{rep_sphere['closed_dimension']} closed forms exact; "
           f"line: {rep_line['exact_dimension']}/"
           f"{rep_line['closed_dimension']} closed forms exact")
    assert rep_sphere["all_exact"]
    assert rep_sphere["closed_dimension"] == rep_sphere["exact_dimension"]
    assert rep_line["all_exact"]
    assert rep_line["closed_dimension"] == rep_line["exact_dimension"]


def test_criterion_10_reduction_to_infinity(golden_map, report):
    """Leading terms of fibre-exact/closed forms are exact/closed at infinity."""
    rng = random.Random(1010)
    F = golden_map
    w = F.weights
    exact_tops = 0
    for _ in range(100):
        y = F.point([rng.randint(-2, 2), rng.randint(-2, 2)])
        shifted = [f - Polynomial.constant(3, c)
                   for f, c in zip(F.components, y)]
        target = KForm.zero(3, 1)
        while target.is_zero():
            alpha = make_random_poly(rng, 3, w, 5)
            betas = [make_random_form(rng, 3, 1, w, 4) for _ in range(2)]
            target = exterior_derivative(alpha)
            for s, beta in zip(shifted, betas):
                target = target + s * beta
        assert exact_at_infinity(target.top_component(w), F) is not None
        exact_tops += 1
    closed_tops = 0
    for _ in range(100):
        y = F.point([rng.randint(-2, 2), rng.randint(-2, 2)])
        shifted = [f - Polynomial.constant(3, c)
                   for f, c in zip(F.components, y)]
        P = Polynomial.zero(3)
        while P.is_zero():
            A = make_random_poly(rng, 2, (1, 1), 2, density=0.7)
            gs = [make_random_poly(rng, 3, w, 3) for _ in range(2)]
            P = A.compose(F.components)
            for s, g in zip(shifted, gs):
                P = P + s * g
        form = KForm.from_polynomial(P)
        assert closed_on_fibre(form, F, y)
        assert closed_at_infinity(form.top_component(w), F)
        closed_tops += 1
    ok = exact_tops == 100 and closed_tops == 100
    report(10, ok, f"{exact_tops}/100 exact tops, "
                   f"{closed_tops}/100 closed tops, 0 failures")
    assert ok


def test_criterion_11_degree_zero_cohomology(golden_map, report):
    """Closed polynomials are constant on the fibre; C[F] round-trips."""
    rng = random.Random(1111)
    F = golden_map
    w = F.weights
    y = F.point([1, 0])
    gb = F.fibre_gb(y)
    monomials = [Polynomial.monomial(3, e)
                 for r in range(0, 7) for e in weighted_exponents(3, w, r)]
    cols = []
    for m in monomials:
        zf = wedge(exterior_derivative(KForm.from_polynomial(m)), F.jac_form)
        coords = {}
        for S, P in zf.coeffs.items():
            nf = gb.normal_form(P)
            for e, c in nf.terms.items():
                coords[(S, e)] = c
        cols.append(coords)
    kernel = ExactLinearSolver(cols).nullspace()
    assert kernel, "constants must appear among the closed polynomials"
    constant = 0
    for v in kernel:
        P = Polynomial.zero(3)
        for c, m in zip(v, monomials):
            if c:
                P = P + c * m
        assert closed_on_fibre(KForm.from_polynomial(P), F, y)
        nf = gb.normal_form(P)
        assert all(not any(e) for e in nf.terms)
        constant += 1
    round_trips = 0
    for _ in range(30):
        A = make_random_poly(rng, 2, (1, 1), 3, density=0.7)
        R = A.compose(F.components)
        assert is_in_subalgebra(R, F) == A
        round_trips += 1
    ok = constant == len(kernel) and round_trips == 30
    report(11, ok, f"{constant}/{len(kernel)} closed polynomials constant "
                   f"modulo the fibre ideal, {round_trips}/30 subalgebra "
                   f"round-trips")
    assert ok

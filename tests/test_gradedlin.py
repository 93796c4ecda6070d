"""Exact linear algebra over graded pieces of the form spaces."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fibera import (
    ColumnGroup,
    CombinationSolver,
    ExactLinearSolver,
    KForm,
    Polynomial,
    exterior_derivative,
    kform_coordinates,
    monomial_basis,
    wedge,
    weighted_exponents,
)
from fibera.gradedlin import (d_column, monomial_keys, operator_columns,
                              pivot_columns_mod_p, wedge_column, wedge_group)
from conftest import make_random_form, variables
import oracles


class TestEnumeration:
    def test_weighted_exponents_exact(self):
        assert weighted_exponents(2, (1, 1), 2) == [(0, 2), (1, 1), (2, 0)]
        assert weighted_exponents(2, (3, 2), 6) == [(0, 3), (2, 0)]
        assert weighted_exponents(2, (3, 2), 1) == []
        assert weighted_exponents(2, (1, 1), 0) == [(0, 0)]
        assert weighted_exponents(2, (1, 1), -1) == []

    def test_weighted_exponents_at_most(self):
        got = weighted_exponents(2, (1, 1), 2, at_most=True)
        assert set(got) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
        assert got == sorted(got)

    def test_weighted_exponents_sorted(self):
        # the recursion emits lexicographic order without a sort
        for n in (1, 2, 3, 4):
            for w in itertools.product((1, 2, 3), repeat=n):
                for d in range(8):
                    for at_most in (False, True):
                        got = weighted_exponents(n, w, d, at_most=at_most)
                        assert got == sorted(got)

    def test_counts_match_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.choice([2, 3])
            w = tuple(rng.randint(1, 4) for _ in range(n))
            d = rng.randint(0, 8)
            mine = weighted_exponents(n, w, d)
            other = oracles.exponents_of_degree(n, w, d)
            assert sorted(mine) == sorted(other)

    def test_monomial_basis(self):
        got = monomial_basis(2, 1, (1, 1), 2)
        # x dx, y dx, x dy, y dy
        x, y = variables(2)
        dx = KForm.basis_form(2, (0,))
        dy = KForm.basis_form(2, (1,))
        assert set(map(_key, got)) == set(map(_key, [x * dx, y * dx, x * dy, y * dy]))
        # degree counts the dx_S block
        assert [_key(f) for f in monomial_basis(2, 2, (1, 1), 2)] == [
            _key(KForm.basis_form(2, (0, 1)))]
        assert monomial_basis(2, 1, (3, 2), 2) == [KForm.basis_form(2, (1,))]


def _key(f):
    return (f.k, tuple(sorted((S, tuple(sorted(P.terms.items())))
                              for S, P in f.coeffs.items())))


class TestExactLinearSolver:
    def test_square_system(self):
        # columns (1, 2), (3, 4); solve for target (5, 6)
        cols = [{"a": Fraction(1), "b": Fraction(2)},
                {"a": Fraction(3), "b": Fraction(4)}]
        solver = ExactLinearSolver(cols)
        assert solver.rank == 2
        sol = solver.solve({"a": Fraction(5), "b": Fraction(6)})
        assert sol == [Fraction(-1), Fraction(2)]

    def test_fractional_columns(self):
        cols = [{"r": Fraction(1, 2)}, {"r": Fraction(1, 3)}]
        solver = ExactLinearSolver(cols)
        sol = solver.solve({"r": Fraction(1)})
        assert sol is not None
        assert sol[0] * Fraction(1, 2) + sol[1] * Fraction(1, 3) == 1

    def test_inconsistent_system(self):
        cols = [{"a": Fraction(1), "b": Fraction(1)}]
        solver = ExactLinearSolver(cols)
        assert solver.solve({"a": Fraction(1), "b": Fraction(2)}) is None

    def test_target_outside_row_support(self):
        cols = [{"a": Fraction(1)}]
        solver = ExactLinearSolver(cols)
        assert solver.solve({"c": Fraction(1)}) is None
        assert solver.solve({"a": Fraction(3)}) == [Fraction(3)]

    def test_solve_many_reuse(self):
        rng = random.Random(42)
        cols = [{i: Fraction(rng.randint(-3, 3)) for i in range(4)}
                for _ in range(3)]
        solver = ExactLinearSolver(cols)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            target = {}
            for c, col in zip(coeffs, cols):
                for k, v in col.items():
                    target[k] = target.get(k, Fraction(0)) + c * v
            target = {k: v for k, v in target.items() if v}
            sol = solver.solve(target)
            assert sol is not None
            # verify the reconstruction, not the particular representative
            recon = {}
            for c, col in zip(sol, cols):
                for k, v in col.items():
                    recon[k] = recon.get(k, Fraction(0)) + c * v
            recon = {k: v for k, v in recon.items() if v}
            assert recon == target

    def test_nullspace(self):
        # two equal columns: nullspace is spanned by (1, -1)
        cols = [{"a": Fraction(2)}, {"a": Fraction(2)}]
        null = ExactLinearSolver(cols).nullspace()
        assert len(null) == 1
        v = null[0]
        assert v[0] * 2 + v[1] * 2 == 0 and any(v)

    def test_nullspace_random(self):
        rng = random.Random(43)
        for _ in range(15):
            ncols = rng.randint(2, 6)
            nrows = rng.randint(1, 4)
            cols = [{i: Fraction(rng.randint(-2, 2)) for i in range(nrows)}
                    for _ in range(ncols)]
            cols = [{k: v for k, v in c.items() if v} for c in cols]
            solver = ExactLinearSolver(cols)
            null = solver.nullspace()
            assert len(null) == ncols - solver.rank
            for v in null:
                assert any(v)
                combo = {}
                for c, col in zip(v, cols):
                    for k, val in col.items():
                        combo[k] = combo.get(k, Fraction(0)) + c * val
                assert all(val == 0 for val in combo.values())
            # independence of the nullspace vectors
            if null:
                assert oracles.matrix_rank(null) == len(null)

    def test_rank_matches_oracle(self):
        rng = random.Random(44)
        for _ in range(20):
            ncols = rng.randint(1, 5)
            nrows = rng.randint(1, 5)
            cols = [{i: Fraction(rng.randint(-3, 3)) for i in range(nrows)}
                    for _ in range(ncols)]
            cols = [{k: v for k, v in c.items() if v} for c in cols]
            mine = ExactLinearSolver(cols).rank
            rows = [[c.get(i, Fraction(0)) for i in range(nrows)] for c in cols]
            assert mine == oracles.matrix_rank(rows)



def _sparse_columns(rng, m, n, rational):
    """n sparse columns over rows 0..m-1; nearly half are combinations of
    two earlier columns, so most systems are rank deficient."""
    def value():
        den = rng.choice([1, 2, 3, 5]) if rational else 1
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den)

    cols = []
    for _ in range(n):
        if len(cols) >= 2 and rng.random() < 0.45:
            a, b = rng.sample(cols, 2)
            ca, cb = value(), value()
            col = {i: ca * a.get(i, 0) + cb * b.get(i, 0) for i in set(a) | set(b)}
        else:
            col = {i: value() for i in rng.sample(range(m), rng.randint(1, 3))}
        cols.append({i: v for i, v in col.items() if v})
    return cols


def _greedy_pivots(dense):
    """Columns independent of the columns before them, by exact rank."""
    pivots = []
    for j, col in enumerate(dense):
        kept = [dense[p] for p in pivots]
        if oracles.matrix_rank(kept + [col]) > len(kept):
            pivots.append(j)
    return pivots


class TestPivotColumnsModP:
    def test_matches_exact_greedy_pivots(self):
        rng = random.Random(49)
        deficient = 0
        for trial in range(40):
            m, n = rng.randint(4, 12), rng.randint(4, 15)
            cols = _sparse_columns(rng, m, n, rational=trial % 2 == 1)
            dense = [[c.get(i, Fraction(0)) for i in range(m)] for c in cols]
            pivots = _greedy_pivots(dense)
            deficient += len(pivots) < min(m, n)
            assert pivot_columns_mod_p(cols, 2 ** 61 - 1) == pivots
        assert deficient >= 20

    def test_small_primes_and_denominators(self):
        cols = [{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"c": Fraction(1, 5)},
                {"a": 1, "c": 1}, {"b": 1}, {}]
        assert pivot_columns_mod_p(cols, 2 ** 61 - 1) == [0, 2, 3]
        # the 1/5 column is cleared to {c: 1}, so it keeps a residue mod 5
        assert pivot_columns_mod_p(cols, 5) == [0, 2, 3]
        # mod 2 the second column, divided by the gcd 2 of its entries, is
        # a again, and b becomes a pivot
        assert pivot_columns_mod_p(cols[:2] + cols[4:], 2) == [0, 2]

    def test_columns_of_multiples_of_the_prime_keep_their_pivots(self):
        # mod 5 every cleared entry of columns 1 and 2 vanishes; divided by
        # their gcd they are b + 2c and b, independent as over Q.  A
        # column of zero entries stays dependent.
        cols = [{"a": 1}, {"b": 5, "c": 10}, {"b": Fraction(5, 3)},
                {"c": Fraction(0)}, {"c": 1}]
        dense = [[c.get(i, Fraction(0)) for i in "abc"] for c in cols]
        assert _greedy_pivots(dense) == [0, 1, 2]
        for p in (5, 2 ** 61 - 1):
            assert pivot_columns_mod_p(cols, p) == [0, 1, 2]


class TestReplayAgainstOracle:
    """solve() against an independent oracle: the pivot columns are the
    greedy independent columns in order, the witness is the unique solution
    on them with zeros on the free columns."""

    def test_solve_matches_pivot_column_oracle(self):
        rng = random.Random(48)
        swapped = rejected_late = solved = deficient = 0
        for trial in range(40):
            m, n = rng.randint(4, 12), rng.randint(4, 15)
            cols = _sparse_columns(rng, m, n, rational=trial % 2 == 1)
            dense = [[c.get(i, Fraction(0)) for i in range(m)] for c in cols]
            pivots = _greedy_pivots(dense)
            solver = ExactLinearSolver(cols)
            assert solver.rank == len(pivots)
            assert solver.pivots == pivots
            deficient += len(pivots) < min(m, n)
            # three rows out of place take at least two row swaps
            swapped += sum(i != p for i, p in enumerate(solver._perm)) >= 3
            support = sorted({i for c in cols for i in c})
            targets = []
            for _ in range(3):
                xs = [Fraction(rng.randint(-2, 2)) for _ in cols]
                targets.append([sum(x * col[i] for x, col in zip(xs, dense))
                                for i in range(m)])
            for _ in range(2):
                vals = {i: Fraction(rng.randint(-2, 2)) for i in support}
                targets.append([vals.get(i, Fraction(0)) for i in range(m)])
            for b in targets:
                on_pivots = oracles.solve_independent([dense[p] for p in pivots], b)
                expected = None
                if on_pivots is not None:
                    expected = [Fraction(0)] * len(cols)
                    for p, v in zip(pivots, on_pivots):
                        expected[p] = v
                    solved += 1
                elif any(b):
                    rejected_late += 1  # every nonzero row lies in the support
                assert solver.solve({i: v for i, v in enumerate(b) if v}) == expected
        assert swapped >= 25 and deficient >= 25
        assert solved >= 120 and rejected_late >= 30


class TestColumnBuilders:
    @pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 3, 1)])
    def test_columns_match_form_arithmetic(self, weights):
        # d- and wedge columns built from keys equal the coordinates of the
        # same images computed with KForm arithmetic; the wedge factors G are
        # a 0-form (a product), a 1-form and a 2-form, none of them
        # homogeneous, and the 1- and 2-forms share indices with many S
        for n in (2, 3, 4):
            w = weights[:n]
            x = variables(n)
            dx = [KForm.basis_form(n, (i,)) for i in range(n)]
            g = (Fraction(-7, 3) + Fraction(5, 2) * x[0] * x[-1]
                 - Fraction(1, 4) * x[1] ** 2)
            g1 = g * dx[0] + x[1] ** 2 * dx[-1]
            g2 = wedge(g1, dx[1]) + x[0] * wedge(dx[0], dx[-1])
            factors = [KForm.from_polynomial(g), g1, g2]
            assert [G.k for G in factors] == [0, 1, 2] and all(factors)
            for k in range(n + 1):
                for degree in range(6):
                    for at_most in (False, True):
                        keys = monomial_keys(n, k, w, degree, at_most)
                        # independent of weighted_exponents: every
                        # exponent up to degree, filtered, then sorted
                        assert keys == sorted(
                            (S, e)
                            for S in itertools.combinations(range(n), k)
                            for e in itertools.product(range(degree + 1),
                                                       repeat=n)
                            for wdeg in [sum(a * p for a, p in zip(e, w))
                                         + sum(w[i] for i in S)]
                            if wdeg == degree or (at_most and wdeg < degree))
                        forms = monomial_basis(n, k, w, degree, at_most)
                        assert [kform_coordinates(f) for f in forms] == [
                            {key: 1} for key in keys]
                        for key, f in zip(keys, forms):
                            assert d_column(*key) == kform_coordinates(
                                exterior_derivative(f))
                            for G in factors:
                                assert wedge_column(G, *key) == kform_coordinates(
                                    wedge(f, G))

    def test_wedge_group_unknowns_and_images(self):
        # unknowns are the (k - G.k)-forms of degree r - deg G, read off G
        x, y, z = variables(3)
        w = (1, 2, 3)
        G = (x * y + z) * KForm.basis_form(3, (1,))      # degree 3 + 2 = 5
        for k, r, at_most in [(1, 5, False), (2, 9, False), (2, 9, True)]:
            group = wedge_group(G, k, r, w, at_most)
            keys = monomial_keys(3, k - 1, w, r - 5, at_most)
            assert keys and group.k == k - 1
            assert group.basis == [{m: 1} for m in keys]
            assert group.images == [wedge_column(G, *m) for m in keys]
        for k, r in [(0, 5), (1, 4)]:
            group = wedge_group(G, k, r, w)
            assert (group.k, group.basis, group.images) == (0, [], [])


class TestCombinationSolver:
    def test_exterior_derivative_witness(self):
        # x dy + y dx = d(x y)
        x, y = variables(2)
        dx = KForm.basis_form(2, (0,))
        dy = KForm.basis_form(2, (1,))
        target = x * dy + y * dx
        basis = monomial_basis(2, 0, (1, 1), 2)
        groups = [operator_columns(basis, exterior_derivative, 2, 0)]
        ws = CombinationSolver(groups).solve(target)
        assert ws is not None
        assert exterior_derivative(ws[0].combination) == target
        assert ws[0].combination.as_polynomial() == x * y

    def test_combination_sums_shared_monomials(self):
        # basis forms sharing monomials: the combination adds their terms
        x, y = variables(2)
        dx = KForm.basis_form(2, (0,))
        dy = KForm.basis_form(2, (1,))
        basis = [x * dx + y * dy, x * dx - y * dy, x * dy]
        groups = [operator_columns(basis, lambda b: b, 2, 1)]
        target = 2 * x * dx + Fraction(1, 3) * x * dy
        ws = CombinationSolver(groups).solve(target)
        assert ws[0].coefficients == [1, 1, Fraction(1, 3)]
        assert ws[0].combination == target

    def test_unsolvable_graded_piece(self):
        # x dy - y dx is not exact
        x, y = variables(2)
        dx = KForm.basis_form(2, (0,))
        dy = KForm.basis_form(2, (1,))
        target = x * dy - y * dx
        basis = monomial_basis(2, 0, (1, 1), 2)
        groups = [operator_columns(basis, exterior_derivative, 2, 0)]
        assert CombinationSolver(groups).solve(target) is None

    def test_multi_group_reconstruction(self):
        # decompose random combinations over two operator blocks:
        # d(...) and multiplication by x^2 + y^2
        rng = random.Random(45)
        x, y = variables(2)
        p = x ** 2 + y ** 2
        r = 4
        dbasis = monomial_basis(2, 0, (1, 1), r)
        mbasis = monomial_basis(2, 1, (1, 1), r - 2)
        groups = [
            operator_columns(dbasis, exterior_derivative, 2, 0),
            operator_columns(mbasis, lambda b: p * b, 2, 1),
        ]
        solver = CombinationSolver(groups)
        for _ in range(10):
            a = make_random_form(rng, 2, 0, (1, 1), r, density=0.8)
            b = make_random_form(rng, 2, 1, (1, 1), r - 2, density=0.8)
            target = KForm.zero(2, 1)
            ah = a.homogeneous_components((1, 1)).get(r)
            if ah is not None:
                target = target + exterior_derivative(ah)
            bh = b.homogeneous_components((1, 1)).get(r - 2)
            if bh is not None:
                target = target + p * bh
            if target.is_zero():
                continue
            ws = solver.solve(target)
            assert ws is not None
            recon = exterior_derivative(ws[0].combination) + p * ws[1].combination
            assert recon == target

    def test_bounded_solve(self):
        # inhomogeneous target against degree-bounded blocks
        x, y = variables(2)
        dbasis = monomial_basis(2, 0, (1, 1), 3, at_most=True)
        groups = [operator_columns(dbasis, exterior_derivative, 2, 0)]
        target = exterior_derivative(x * y + x ** 2 * y - 3 * x)
        ws = CombinationSolver(groups).solve(target)
        assert ws is not None
        assert exterior_derivative(ws[0].combination) == target

    def test_group_shapes(self):
        with pytest.raises(ValueError):
            ColumnGroup(2, 0, [KForm.zero(2, 0)], [])

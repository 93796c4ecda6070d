"""Exact linear algebra over graded spaces of polynomial forms.

Questions like "is omega a combination d(Omega) + sum (f_i - y_i) eta_i
with all parts in explicit finite-dimensional monomial spaces" reduce to
rational linear systems.  This module enumerates the monomial spaces as
keys (S, e) for x^e dx_S, builds columns from them as coordinate dicts
{(S, e): coefficient}, d(x^e dx_S) or x^e dx_S ^ G for a form G (blocks of
the latter, for G = fbar_i, f_i - y_i or dfbar_i, by wedge_group), and
solves exactly.

Both eliminations first clear each column to integers, scaling it by the
lcm of its denominators.  The solver then runs fraction-free (Bareiss)
elimination over the integers, keeping its row swaps and multipliers.
The factorization is reused across targets, so deciding many membership
questions against one column family costs one elimination.  Witnesses
are deterministic: first usable pivot in enumeration order, free
variables set to zero.

Where only a rank profile is needed, pivot_columns_mod_p reduces the
same integer columns modulo one fixed prime p with sparse pivot dicts
instead: no exact elimination, and no witness.  Its pivot columns are
independent over Q as well (they have a minor that is nonzero mod p), but
a rank mod p can fall below the rank over Q, so a caller certifies the
result: infinity_basis by full-rank pieces and mu kept forms,
verify_vanishing by closed and exact ranks that sum to the space
dimension.  When the certificate fails, the caller takes the exact
profile instead: the solver's pivots and rank.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm

from .polyform import KForm, Polynomial, _eadd, _merge_indices

__all__ = [
    "weighted_exponents", "monomial_keys", "monomial_basis",
    "kform_coordinates", "coordinates_kform", "d_column", "wedge_column",
    "pivot_columns_mod_p", "ExactLinearSolver", "ColumnGroup", "wedge_group",
    "operator_columns", "GroupWitness", "CombinationSolver",
]


def weighted_exponents(n, weights, degree, at_most=False):
    """Exponent tuples of weighted degree == degree (or <= with at_most).

    Deterministic enumeration, sorted lexicographically.
    """
    if degree < 0:
        return []
    out = []
    e = [0] * n

    def rec(i, rem):
        if i == n:
            if rem == 0 or at_most:
                out.append(tuple(e))
            return
        for v in range(rem // weights[i] + 1):
            e[i] = v
            rec(i + 1, rem - v * weights[i])
        e[i] = 0

    rec(0, degree)
    return out


def monomial_keys(n, k, weights, degree, at_most=False):
    """Keys (S, e) of the monomial k-forms x^e dx_S of weighted degree
    == degree (or <=).

    Index tuples S run lexicographically; exponents lexicographically
    inside each S.  The empty list for negative degrees.
    """
    exponents = {}  # index sets of equal weight share one exponent list
    out = []
    for S in combinations(range(n), k):
        rest = degree - sum(weights[i] for i in S)
        if rest not in exponents:
            exponents[rest] = weighted_exponents(n, weights, rest, at_most)
        out += [(S, e) for e in exponents[rest]]
    return out


def monomial_basis(n, k, weights, degree, at_most=False):
    """The forms x^e dx_S of monomial_keys, in the same order."""
    return [KForm.monomial_form(Polynomial.monomial(n, e), S)
            for S, e in monomial_keys(n, k, weights, degree, at_most)]


def kform_coordinates(f):
    """Flatten a form to {(S, exponent): coefficient}."""
    out = {}
    for S, P in f.coeffs.items():
        for e, c in P.terms.items():
            out[(S, e)] = c
    return out


def coordinates_kform(n, k, coords):
    """The k-form with coordinates {(S, exponent): coefficient}."""
    coeffs = {}
    for (S, e), c in coords.items():
        coeffs.setdefault(S, {})[e] = c
    return KForm(n, k, coeffs)


def d_column(S, e):
    """Coordinates of d(x^e dx_S): e_i at (S with i, e - 1_i), signed."""
    out = {}
    for i, a in enumerate(e):
        if a and i not in S:
            sign, M = _merge_indices((i,), S)
            out[(M, e[:i] + (a - 1,) + e[i + 1:])] = sign * a
    return out


def wedge_column(G, S, e):
    """Coordinates of x^e dx_S ^ G for a form G: a plain product where T = ()
    (all of a 0-form).  Distinct T give distinct S + T, so no keys collide."""
    return {(M, _eadd(e, m)): c if sign > 0 else -c
            for T, P in G.coeffs.items()
            for sign, M in [_merge_indices(S, T) if T else (1, S)] if sign
            for m, c in P.terms.items()}


def _scale(col):
    """The lcm s of a column's denominators, 1 for an empty column.  Both
    eliminations clear the column to integers by it: an entry v becomes
    v.numerator * (s // v.denominator)."""
    s = 1
    for v in col.values():
        if v.denominator != 1:
            s = lcm(s, v.denominator)
    return s


# The prime of every rank profile.
_PRIME = 2**61 - 1


def pivot_columns_mod_p(columns, p):
    """Indices of the columns independent of the columns before them
    modulo the prime p, after each column is cleared to integers (and
    divided by their gcd when p divides all of them).

    Columns are sparse dicts of rationals over comparable row keys.  A
    pivot is stored under its pivot row, the smallest key of the reduced
    column, as a dict of the column's other entries scaled so that the
    pivot entry is 1; all those keys are larger.  A column is reduced by
    eliminating its pivot rows in increasing order, so each pivot row is
    eliminated at most once.
    """
    pivots = {}
    out = []
    for j, col in enumerate(columns):
        s = _scale(col)
        v = {}
        for key, c in col.items():
            c = c.numerator * (s // c.denominator) % p
            if c:
                v[key] = c
        if not v and any(col.values()):
            # every cleared entry is a multiple of p: the column divided by
            # the gcd of its entries has the same span and a unit residue
            ints = {key: c.numerator * (s // c.denominator) for key, c in col.items()}
            g = gcd(*ints.values())
            v = {key: c // g % p for key, c in ints.items() if c // g % p}
        todo = [key for key in v if key in pivots]
        heapify(todo)
        while todo:
            key = heappop(todo)
            c = v.pop(key, 0)
            if not c:
                continue
            for k2, a in pivots[key].items():
                old = v.get(k2)
                t = ((old or 0) - c * a) % p
                if t:
                    v[k2] = t
                    if old is None and k2 in pivots:
                        heappush(todo, k2)
                elif old is not None:
                    del v[k2]
        if v:
            key = min(v)
            inv = pow(v.pop(key), -1, p)
            pivots[key] = {k2: a * inv % p for k2, a in v.items()}
            out.append(j)
    return out


class ExactLinearSolver:
    """Factor-once / solve-many exact solver for sum_j c_j col_j = target.

    Columns are sparse dicts over hashable row keys.  Row space is the
    union of the column supports; a target with a nonzero coordinate
    outside it is immediately unsolvable.  pivots lists the columns
    independent of the columns before them; the i-th pivots in row i.
    """

    __slots__ = ("row_index", "nrows", "ncols", "col_scale", "pivots", "_mat",
                 "_perm")

    def __init__(self, columns):
        columns = list(columns)
        keys = sorted(set().union(*columns))
        self.row_index = {kk: i for i, kk in enumerate(keys)}
        self.nrows = len(self.row_index)
        self.ncols = len(columns)
        self.col_scale = [_scale(col) for col in columns]
        mat = [[0] * self.ncols for _ in range(self.nrows)]
        for j, (col, s) in enumerate(zip(columns, self.col_scale)):
            for kk, v in col.items():
                mat[self.row_index[kk]][j] = v.numerator * (s // v.denominator)
        self._eliminate(mat)

    def _eliminate(self, mat):
        """Bareiss in place: row swaps go into _perm, and the multiplier of
        row r at pivot column c stays in mat[r][c] instead of a zero."""
        perm = list(range(self.nrows))
        pivots = []
        prev = 1
        for col in range(self.ncols):
            rank = len(pivots)
            piv_row = next((r for r in range(rank, self.nrows) if mat[r][col]),
                           None)
            if piv_row is None:
                continue
            if piv_row != rank:
                mat[rank], mat[piv_row] = mat[piv_row], mat[rank]
                perm[rank], perm[piv_row] = perm[piv_row], perm[rank]
            prow = mat[rank]
            piv = prow[col]
            tail = prow[col + 1:]
            for r in range(rank + 1, self.nrows):
                row = mat[r]
                v = row[col]
                # fraction-free update; the division by the previous pivot is exact
                row[col + 1:] = [(piv * a - v * b) // prev
                                 for a, b in zip(row[col + 1:], tail)]
            pivots.append(col)
            prev = piv
        self._perm = perm
        self.pivots = pivots
        self._mat = mat

    @property
    def rank(self):
        return len(self.pivots)

    def _apply_ops(self, b):
        mat = self._mat
        b = [b[i] for i in self._perm]
        prev = 1
        for prow, pcol in enumerate(self.pivots):
            piv = mat[prow][pcol]
            bp = b[prow]
            for r in range(prow + 1, self.nrows):
                b[r] = (piv * b[r] - mat[r][pcol] * bp) / prev
            prev = piv
        return b

    def _back_substitute(self, b, x):
        for prow, pcol in reversed(list(enumerate(self.pivots))):
            row = self._mat[prow]
            s = b[prow]
            for c in range(pcol + 1, self.ncols):
                if row[c] and x[c]:
                    s -= row[c] * x[c]
            x[pcol] = s / row[pcol]

    def solve(self, target):
        """Coefficients over the original columns, or None if unsolvable."""
        b = [Fraction(0)] * self.nrows
        for kk, v in target.items():
            if not v:
                continue
            i = self.row_index.get(kk)
            if i is None:
                return None
            b[i] = Fraction(v)
        b = self._apply_ops(b)
        for r in range(self.rank, self.nrows):
            if b[r]:
                return None
        x = [Fraction(0)] * self.ncols
        self._back_substitute(b, x)
        return [x[j] * self.col_scale[j] for j in range(self.ncols)]

    def nullspace(self):
        """Deterministic kernel basis, one vector per free column."""
        zero = [Fraction(0)] * self.nrows
        out = []
        for fc in sorted(set(range(self.ncols)) - set(self.pivots)):
            x = [Fraction(0)] * self.ncols
            x[fc] = Fraction(1)
            self._back_substitute(list(zero), x)
            out.append([x[j] * self.col_scale[j] for j in range(self.ncols)])
        return out


class ColumnGroup(namedtuple("ColumnGroup", "n k basis images")):
    """A block of unknowns: coordinates of basis forms and of their images;
    k is the form degree of the unknown space."""

    __slots__ = ()

    def __new__(cls, n, k, basis, images):
        if len(basis) != len(images):
            raise ValueError("basis/images length mismatch")
        return super().__new__(cls, n, k, basis, images)


def wedge_group(G, k, r, weights, at_most=False):
    """ColumnGroup of the k-forms x^e dx_S ^ G, one unknown per monomial
    (k - G.k)-form x^e dx_S of weighted degree r - deg G (<= with at_most);
    no unknowns when k < G.k."""
    keys = monomial_keys(G.n, k - G.k, weights, r - G.weighted_degree(weights),
                         at_most) if k >= G.k else []
    return ColumnGroup(G.n, max(k - G.k, 0), [{m: 1} for m in keys],
                       [wedge_column(G, *m) for m in keys])


def operator_columns(basis, op, n, k):
    """ColumnGroup for a linear operator applied to each basis form."""
    return ColumnGroup(n, k, [kform_coordinates(b) for b in basis],
                       [kform_coordinates(op(b)) for b in basis])


class GroupWitness(namedtuple("GroupWitness", "coefficients combination")):
    """Solution slice for one column group: coefficients and the combination."""

    __slots__ = ()


class CombinationSolver:
    """Shared factorization for repeated solves against fixed column groups."""

    __slots__ = ("groups", "solver")

    def __init__(self, groups):
        self.groups = list(groups)
        self.solver = ExactLinearSolver([img for g in self.groups
                                         for img in g.images])

    def solve(self, target):
        sol = self.solver.solve(kform_coordinates(target))
        if sol is None:
            return None
        out = []
        pos = 0
        for g in self.groups:
            coeffs = sol[pos:pos + len(g.basis)]
            pos += len(g.basis)
            comb = {}
            for c, b in zip(coeffs, g.basis):
                if c:
                    for key, v in b.items():
                        comb[key] = comb.get(key, 0) + c * v
            out.append(GroupWitness(coeffs, coordinates_kform(g.n, g.k, comb)))
        return out

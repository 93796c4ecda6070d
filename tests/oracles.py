"""Independent brute-force oracles used to cross-check the library.

Everything in this module is deliberately redundant with the package:
small, slow, obviously-correct implementations with their own linear
algebra, their own monomial bookkeeping, and their own reduction loop.
Agreement between the package and these oracles is the evidence the
tests rely on, so nothing here may import from fibera.

Polynomials are plain dicts {exponent tuple: Fraction}; k-form monomials
are pairs (S, exponent) with S a strictly increasing index tuple.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# ---------------------------------------------------------------------------
# exact linear algebra on lists of Fractions


def matrix_rank(rows):
    """Rank by straightforward fraction Gaussian elimination."""
    rows = [[Fraction(v) for v in r] for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = Fraction(1) / prow[col]
        rows[rank] = [v * inv for v in prow]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def dict_columns_rank(cols):
    """Rank of a list of {row_key: Fraction} columns."""
    keys = sorted({k for c in cols for k in c})
    pos = {k: i for i, k in enumerate(keys)}
    rows = []
    for c in cols:
        row = [Fraction(0)] * len(keys)
        for k, v in c.items():
            row[pos[k]] = Fraction(v)
        rows.append(row)
    return matrix_rank(rows)


def solve_independent(columns, target):
    """The x with sum_j x[j] * columns[j] == target, or None if there is none.

    Columns are equal-length lists and must be linearly independent, so a
    solution is unique when it exists.  Gauss-Jordan on the augmented rows.
    """
    n = len(columns)
    rows = [[Fraction(c[i]) for c in columns] + [Fraction(t)]
            for i, t in enumerate(target)]
    for col in range(n):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = [v / rows[col][col] for v in rows[col]]
        rows[col] = prow
        for i, row in enumerate(rows):
            if i != col and row[col]:
                c = row[col]
                rows[i] = [a - c * b for a, b in zip(row, prow)]
    if any(row[n] for row in rows[n:]):
        return None
    return [row[n] for row in rows[:n]]


# ---------------------------------------------------------------------------
# monomial bookkeeping


def wdeg(e, weights):
    return sum(a * b for a, b in zip(e, weights))


def exponents_of_degree(n, weights, degree):
    """All exponent tuples of exact weighted degree, any order."""
    if degree < 0:
        return []
    out = []

    def rec(i, rem, prefix):
        if i == n:
            if rem == 0:
                out.append(tuple(prefix))
            return
        for v in range(rem // weights[i] + 1):
            rec(i + 1, rem - v * weights[i], prefix + [v])

    rec(0, degree, [])
    return out


def poly_derivative(terms, i):
    out = {}
    for e, c in terms.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = out.get(tuple(e2), Fraction(0)) + c * e[i]
    return {e: c for e, c in out.items() if c}


def shift_terms(terms, shift):
    """Multiply a term dict by the monomial with exponent `shift`."""
    return {tuple(a + b for a, b in zip(e, shift)): c for e, c in terms.items()}


# ---------------------------------------------------------------------------
# graded quotient dimension (staircase-free: pure linear algebra per degree)


def graded_quotient_dimension(n, weights, gens, hard_cap=80):
    """dim of C[x]/(gens) for weighted-homogeneous gens, degree by degree.

    Sums graded piece dimensions until max(weights) consecutive pieces
    are zero; once that window is empty every higher piece is spanned by
    variable multiples of lower ideal pieces, so the sum is complete.
    Raises if the quotient shows no sign of being finite-dimensional.
    """
    gens = [dict(g) for g in gens if g]
    gen_degs = []
    for g in gens:
        degs = {wdeg(e, weights) for e in g}
        if len(degs) != 1:
            raise ValueError("oracle needs weighted-homogeneous generators")
        gen_degs.append(degs.pop())
    total = 0
    zero_run = 0
    d = 0
    window = max(weights)
    while zero_run < window:
        monos = sorted(exponents_of_degree(n, weights, d))
        if monos:
            cols = []
            for g, gd in zip(gens, gen_degs):
                for a in exponents_of_degree(n, weights, d - gd):
                    cols.append(shift_terms(g, a))
            piece = len(monos) - dict_columns_rank(cols)
        else:
            piece = 0
        total += piece
        zero_run = zero_run + 1 if piece == 0 else 0
        d += 1
        if d > hard_cap:
            raise RuntimeError("quotient does not appear finite-dimensional")
    return total


# ---------------------------------------------------------------------------
# independent Groebner-basis verification (degrevlex with weights)


def _greater(a, b, weights):
    """Weighted degrevlex: higher degree wins, then the last nonzero
    entry of a - b must be negative."""
    da, db = wdeg(a, weights), wdeg(b, weights)
    if da != db:
        return da > db
    for i in reversed(range(len(a))):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def leading_exponent(terms, weights):
    lead = None
    for e in terms:
        if lead is None or _greater(e, lead, weights):
            lead = e
    return lead


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reduce_full(terms, gens, weights):
    """Full normal form of a term dict against a list of term dicts."""
    work = {e: Fraction(c) for e, c in terms.items() if c}
    out = {}
    leads = [(leading_exponent(g, weights), g) for g in gens]
    while work:
        e = leading_exponent(work, weights)
        c = work.pop(e)
        hit = None
        for le, g in leads:
            if _divides(le, e):
                hit = (le, g)
                break
        if hit is None:
            out[e] = c
            continue
        le, g = hit
        shift = tuple(x - y for x, y in zip(e, le))
        factor = c / g[le]
        work[e] = c
        for ge, gc in shift_terms(g, shift).items():
            v = work.get(ge, Fraction(0)) - factor * gc
            if v:
                work[ge] = v
            else:
                work.pop(ge, None)
    return out


def max_scan_reduce(terms, gens_data, key):
    """Reference normal form loop, a copy of the one fibera's heap-ordered
    reduction replaced: each step scans for the largest pending term under
    key and reduces it by the first (lead_exp, lead_coeff, terms) entry
    whose lead divides it.  Mutates and consumes terms; returns the
    remainder dict in the order its terms were found."""
    rem = {}
    while terms:
        e = max(terms, key=key)
        c = terms[e]
        for ge, gc, gterms in gens_data:
            if _divides(ge, e):
                ratio = c / gc
                shift = tuple(a - b for a, b in zip(e, ge))
                for me, mc in gterms.items():
                    ne = tuple(a + b for a, b in zip(me, shift))
                    v = terms.get(ne, 0) - ratio * mc
                    if v:
                        terms[ne] = v
                    else:
                        terms.pop(ne, None)
                break
        else:
            rem[e] = terms.pop(e)
    return rem


def s_polynomial(f, g, weights):
    lf = leading_exponent(f, weights)
    lg = leading_exponent(g, weights)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    left = shift_terms(f, sf)
    right = shift_terms(g, sg)
    factor = left[lcm] / right[lcm]
    out = dict(left)
    for e, c in right.items():
        v = out.get(e, Fraction(0)) - factor * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def is_groebner_basis(gens, weights):
    """Buchberger criterion: every S-polynomial reduces to zero."""
    gens = [dict(g) for g in gens if g]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            s = s_polynomial(gens[i], gens[j], weights)
            if reduce_full(s, gens, weights):
                return False
    return True


def generates_membership(original, claimed_basis, weights):
    """Each original generator must reduce to zero against the claimed basis."""
    basis = [dict(g) for g in claimed_basis if g]
    return all(not reduce_full(dict(g), basis, weights) for g in original)


# ---------------------------------------------------------------------------
# Euler-contraction kernel dimensions, straight from the formula
# i_X(x^e dx_S) = sum_j (-1)^j w[S_j] x^(e + unit(S_j)) dx_(S minus S_j)


def form_monomials(n, k, weights, degree):
    out = []
    for S in combinations(range(n), k):
        shift = sum(weights[i] for i in S)
        for e in exponents_of_degree(n, weights, degree - shift):
            out.append((S, e))
    return sorted(out)


def contraction_column(S, e, weights):
    col = {}
    for j, s in enumerate(S):
        e2 = list(e)
        e2[s] += 1
        key = (tuple(v for v in S if v != s), tuple(e2))
        c = Fraction(weights[s]) if j % 2 == 0 else Fraction(-weights[s])
        col[key] = col.get(key, Fraction(0)) + c
    return {k: v for k, v in col.items() if v}


def koszul_kernel_dimension(n, k, weights, degree):
    """dim of the degree piece of ker(i_X) on k-forms, by brute rank."""
    basis = form_monomials(n, k, weights, degree)
    if not basis:
        return 0
    cols = [contraction_column(S, e, weights) for S, e in basis]
    return len(basis) - dict_columns_rank(cols)


# ---------------------------------------------------------------------------
# classes of 1-forms modulo exactness at infinity, straight from the definition
# d(Omega^0_r) + sum fbar_i Omega^1, one weighted degree r at a time


def one_form_class_count(n, weights, tops, forms, degree):
    """Number of independent classes among `forms` modulo the degree piece
    of d(Omega^0) + sum tops_i Omega^1, by brute rank.

    `tops` are weighted-homogeneous term dicts; `forms` are 1-forms as
    {((j,), exponent): c} dicts, each homogeneous of weighted `degree`.
    Since deg dx_j = weights[j], the coefficient m of tops_i * m dx_j has
    degree `degree - deg tops_i - weights[j]`.
    """
    for f in forms:
        for (S, e) in f:
            if len(S) != 1 or wdeg(e, weights) + weights[S[0]] != degree:
                raise ValueError("oracle needs 1-forms of the given degree")
    exact = []
    for e in exponents_of_degree(n, weights, degree):
        mono = {e: Fraction(1)}
        exact.append({((j,), e2): c for j in range(n)
                      for e2, c in poly_derivative(mono, j).items()})
    for g in tops:
        degs = {wdeg(e, weights) for e in g}
        if len(degs) != 1:
            raise ValueError("oracle needs weighted-homogeneous tops")
        gd = degs.pop()
        for j in range(n):
            for a in exponents_of_degree(n, weights, degree - gd - weights[j]):
                exact.append({((j,), e): c
                              for e, c in shift_terms(g, a).items()})
    return dict_columns_rank(exact + list(forms)) - dict_columns_rank(exact)


# ---------------------------------------------------------------------------
# the greedy basis of k-form classes at infinity, k = n - q, exactly:
# candidates x^s * i_X(dx_T) kept when they raise the rank over the degree
# piece of d(Omega^(k-1)) + sum tops_i Omega^k plus the forms already kept


def top_terms(terms, weights):
    """The terms of highest weighted degree."""
    top = max(wdeg(e, weights) for e in terms)
    return {e: c for e, c in terms.items() if wdeg(e, weights) == top}


def d_form_column(S, e):
    """Coordinates of d(x^e dx_S) = sum_j d_j(x^e) dx_j ^ dx_S, where dx_j ^
    dx_S is (-1)^#{s in S : s < j} dx_(S + j), or 0 when j is in S."""
    col = {}
    for j in range(len(e)):
        if j in S:
            continue
        sign = -1 if sum(s < j for s in S) % 2 else 1
        T = tuple(sorted(S + (j,)))
        for e2, c in poly_derivative({e: Fraction(1)}, j).items():
            col[(T, e2)] = col.get((T, e2), Fraction(0)) + sign * c
    return {key: v for key, v in col.items() if v}


def full_d_block(n, k, weights, degree, at_most=False):
    """Every monomial k-form (S, e) of weighted degree == degree (<= with
    at_most), sorted by S and then e, and the columns d(x^e dx_S): the d
    block with no column left out."""
    degrees = range(degree + 1) if at_most else [degree]
    keys = sorted(m for r in degrees for m in form_monomials(n, k, weights, r))
    return keys, [d_form_column(S, e) for S, e in keys]


def exactness_columns(n, k, weights, tops, degree):
    """Columns spanning the degree piece of d(Omega^(k-1)) + sum tops_i Omega^k."""
    cols = full_d_block(n, k - 1, weights, degree)[1] if k >= 1 else []
    for g in tops:
        gd = wdeg(next(iter(g)), weights)
        for S, a in form_monomials(n, k, weights, degree - gd):
            cols.append({(S, e): c for e, c in shift_terms(g, a).items()})
    return cols


def greedy_infinity_basis(n, weights, components, std):
    """Degrees and forms of the greedy basis at infinity of a map, by rank.

    `components` are the map's term dicts and `std` the exponents of the
    standard monomials, in order.  Candidates x^s * i_X(dx_T) run over s in
    `std`, then T in lexicographic order, sorted stably by weighted degree;
    a candidate is kept when it raises the rank of the exact columns of its
    degree plus the candidates of that degree kept before it.  Stops after
    len(std) forms.  Forms are {(S, exponent): c} dicts.
    """
    tops = [top_terms(f, weights) for f in components]
    k = n - len(tops)
    cands = []
    for s in std:
        for T in combinations(range(n), k + 1):
            degree = wdeg(s, weights) + sum(weights[t] for t in T)
            cands.append((degree, contraction_column(T, s, weights)))
    cands.sort(key=lambda t: t[0])
    degrees, forms = [], []
    exact = {}
    for degree, cand in cands:
        if len(forms) == len(std):
            break
        if degree not in exact:
            cols = exactness_columns(n, k, weights, tops, degree)
            exact[degree] = (cols, dict_columns_rank(cols))
        cols, rank = exact[degree]
        same = [f for d, f in zip(degrees, forms) if d == degree]
        if dict_columns_rank(cols + same + [cand]) > rank + len(same):
            degrees.append(degree)
            forms.append(cand)
    return degrees, forms


# ---------------------------------------------------------------------------
# frozen fixture data: generators written out by hand, expected dimensions
# derived by hand before the library existed, re-checked here by brute force

F0, F1 = Fraction(0), Fraction(1)

# map (x*z, x^2 + y^2 - z^2) on C^3, unit weights:
# ideal of the singular locus of the fibre at infinity
GOLDEN_SINGULAR_GENS = [
    {(1, 1, 0): F1},                                  # x*y
    {(0, 1, 1): F1},                                  # y*z
    {(1, 0, 1): F1},                                  # x*z
    {(2, 0, 0): F1, (0, 2, 0): F1, (0, 0, 2): -F1},  # x^2 + y^2 - z^2
    {(2, 0, 0): F1, (0, 0, 2): F1},                   # x^2 + z^2
]
GOLDEN_MILNOR = 5
# top components fbar_i of the same map (both already homogeneous)
GOLDEN_TOPS = [
    {(1, 0, 1): F1},                                  # x*z
    {(2, 0, 0): F1, (0, 2, 0): F1, (0, 0, 2): -F1},  # x^2 + y^2 - z^2
]

# single-component maps: singular-locus ideal = (fbar, partials of fbar)
CUSP_GENS = [
    {(2, 0): F1, (0, 3): F1},   # x^2 + y^3
    {(1, 0): Fraction(2)},      # 2x
    {(0, 2): Fraction(3)},      # 3y^2
]
CUSP_WEIGHTS = (3, 2)
CUSP_MILNOR = 2

CIRCLE_GENS = [
    {(2, 0): F1, (0, 2): F1},
    {(1, 0): Fraction(2)},
    {(0, 1): Fraction(2)},
]
CIRCLE_MILNOR = 1

SPHERE_GENS = [
    {(2, 0, 0): F1, (0, 2, 0): F1, (0, 0, 2): F1},
    {(1, 0, 0): Fraction(2)},
    {(0, 1, 0): Fraction(2)},
    {(0, 0, 1): Fraction(2)},
]
SPHERE_MILNOR = 1

LINE_GENS = [
    {(1, 0): F1},
    {(0, 0): F1},   # the 1x1 Jacobian minor d(x)/dx
]
LINE_MILNOR = 0

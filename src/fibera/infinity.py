"""The fibre at infinity of a weighted-dominant polynomial map.

For F = (f_1, ..., f_q): C^n -> C^q with n > q and positive weights, write
fbar_i for the top weighted-homogeneous component of f_i.  The fibre at
infinity is the common zero set of the fbar_i; its defining ideal is
I = (fbar_1, ..., fbar_q).  With J the ideal of maximal minors of the
Jacobian of (fbar_1, ..., fbar_q), the map is a complete intersection at
infinity (CIA) when V(I+J) has dimension < n - q, and the singularity at
infinity is isolated when dim V(I+J) <= 0.  In the isolated case the
Milnor number mu = dim_Q Q[x]/(I+J) counts the cohomology of the fibre at
infinity in degree n - q, and an explicit basis is produced by multiplying
a monomial basis of Q[x]/(I+J) into the generators of the kernel of the
Euler contraction on (n-q)-forms.

A k-form omega is *closed at infinity* when d(omega) ^ dfbar_1 ^ ... ^
dfbar_q lies in I (coefficientwise), and *exact at infinity* when omega =
d(Omega) + sum fbar_i eta_i for polynomial forms Omega, eta_i.  Both are
decidable: closedness via normal forms, exactness degree by degree
because the exact subspace is graded.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .polyform import (KForm, Polynomial, _eadd, _wdeg, euler_contraction,
                       exterior_derivative, validate_weights, wedge)
from .groebner import (MonomialOrder, buchberger, elimination_order,
                       ideal_dimension, quotient_vector_basis)
from .parse import parse_rational
from .gradedlin import (_PRIME, ColumnGroup, CombinationSolver, _primitive,
                        coordinates_kform, d_column, d_image, d_rank,
                        kform_coordinates, monomial_basis, monomial_keys,
                        pivot_columns, wedge_group)

# monomial_basis is re-exported: perfbench/selftest.py checks that tracing
# wraps a gradedlin name where infinity re-imports it.
__all__ = [
    "CACHE_LIMIT", "PreconditionError", "PolyMap",
    "CompleteIntersectionCheck", "is_complete_intersection_at_infinity",
    "singular_dimension", "milnor_number", "koszul_kernel_generators",
    "euler_normalize", "closed_at_infinity", "exact_at_infinity",
    "InfinityBasis", "infinity_basis", "monomial_basis",
]

# Entries a PolyMap keeps in its cache before it drops the oldest.
CACHE_LIMIT = 256


class PreconditionError(ValueError):
    """A mathematical precondition on the input map fails."""


class PolyMap:
    """A polynomial map C^n -> C^q, n > q, with its data at infinity.

    Groebner bases for the ideal at infinity (I) and the singular ideal
    (I+J) are computed on construction.  Fibre ideals, the graph ideal,
    the column groups of exactness_groups and the solvers of solver() are
    built on first use and kept in one cache of at most CACHE_LIMIT
    entries.  Every exactness question, at infinity or on a fibre, is a
    solve against solver(k, r, y, lead).
    """

    def __init__(self, components, weights):
        components = list(components)
        if not components:
            raise ValueError("empty map")
        n = components[0].n
        q = len(components)
        if n <= q:
            raise PreconditionError("need more variables than components")
        self.weights = validate_weights(weights, n)
        for i, f in enumerate(components):
            if f.n != n:
                raise ValueError("map components live in different rings")
            if f.is_zero():
                raise PreconditionError(f"component {i + 1} is zero")
            if f.weighted_degree(self.weights) < 1:
                raise PreconditionError(f"component {i + 1} is constant")
        self.n = n
        self.q = q
        self.components = components
        self.degrees = [f.weighted_degree(self.weights) for f in components]
        self.top_components = [f.top_component(self.weights) for f in components]
        self._top_forms = [KForm.from_polynomial(g) for g in self.top_components]
        self.order = MonomialOrder(self.weights)
        self.infinity_gb = buchberger(self.top_components, self.order)
        self.jac_form = _wedge_differentials(self.components)
        self.jac_form_top = _wedge_differentials(self.top_components)
        # the maximal Jacobian minors of the fbar_i, zeros included
        self.jacobian_minors = [self.jac_form_top.coeffs.get(S, Polynomial.zero(n))
                                for S in combinations(range(n), q)]
        self.singular_gb = buchberger(self.top_components + self.jacobian_minors,
                                      self.order)
        self._cache = {}

    def _cached(self, key, make):
        """The cached value for key, built by make() on a miss.  When the
        cache holds CACHE_LIMIT entries the oldest one is dropped."""
        hit = self._cache.get(key)
        if hit is None:
            hit = make()
            while len(self._cache) >= CACHE_LIMIT:
                del self._cache[next(iter(self._cache))]
            self._cache[key] = hit
        return hit

    def point(self, values):
        """Coerce a value sequence to a fibre point (tuple of q Fractions) by
        parse_rational, which refuses a bool or a float (a ValueError)."""
        pt = tuple(parse_rational(v) for v in values)
        if len(pt) != self.q:
            raise ValueError(f"point needs {self.q} coordinates, got {len(pt)}")
        return pt

    def _shifted(self, y):
        return [f - Polynomial.constant(self.n, c) for f, c in zip(self.components, y)]

    def fibre_gb(self, y):
        """Groebner basis of (f_1 - y_1, ..., f_q - y_q)."""
        y = self.point(y)
        return self._cached(("fibre_gb", y),
                            lambda: buchberger(self._shifted(y), self.order))

    def exactness_groups(self, k, r, y=None):
        """Column groups spanning d(Omega^(k-1)) + sum g_i Omega^k.

        With y None: the degree-r graded piece at infinity, g_i = fbar_i.
        With a point y: all degrees <= r on the fibre, g_i = f_i - y_i.
        Layout: group 0 is the d-image block (empty basis when k == 0),
        groups 1..q the multiples of each g_i.  The d block keeps d(x^e dx_S)
        only when e_j > 0 for some j > max S (any e != 0 when S is empty).
        Else, with s = max S, (e_s + 1) x^e dx_S = +-d(x^(e+1_s) dx_(S-s))
        minus forms x^e' dx_T of its degree with T = S - s + i, i < s, so
        earlier in key order: the column lies in the span of earlier
        d-columns, is never a pivot, and no rank, pivot or witness changes.
        """
        y = None if y is None else self.point(y)
        return self._cached(("groups", k, r, y), lambda: self._groups(k, r, y))

    def _groups(self, k, r, y):
        n, w, bounded = self.n, self.weights, y is not None
        keys = [(S, e) for S, e in monomial_keys(n, k - 1, w, r, bounded)
                if any(e[S[-1] + 1:] if S else e)] if k >= 1 else []
        groups = [ColumnGroup(n, max(k - 1, 0), [{m: 1} for m in keys],
                              [d_column(*m) for m in keys])]
        gs = ([KForm.from_polynomial(g) for g in self._shifted(y)] if bounded
              else self._top_forms)
        return groups + [wedge_group(g, k, r, w, bounded) for g in gs]

    def solver(self, k, r, y=None, lead=None):
        """Cached CombinationSolver over exactness_groups(k, r, y), preceded
        by a group spanning the k-forms `lead` whenever lead is not None
        (even when empty), so the layout does not depend on its length."""
        y = None if y is None else self.point(y)
        lead = None if lead is None else tuple(lead)

        def make():
            groups = self.exactness_groups(k, r, y)
            if lead is None:
                return CombinationSolver(groups)
            coords = [kform_coordinates(f) for f in lead]
            basis = ColumnGroup(self.n, k, coords, coords)
            return CombinationSolver([basis] + groups)
        return self._cached(("solver", k, r, y, lead), make)

    def graph_gb(self):
        """Elimination basis of (f_i(x) - t_i) in Q[x, t], x-block first."""
        def make():
            n, q = self.n, self.q
            tw = tuple(max(d, 1) for d in self.degrees)
            order = elimination_order(self.weights + tw, list(range(n)))
            gens = []
            for i, f in enumerate(self.components):
                gens.append(f.pad(q) - Polynomial.variable(n + q, n + i))
            return buchberger(gens, order)
        return self._cached(("graph_gb",), make)


def _wedge_differentials(polys):
    out = exterior_derivative(polys[0])
    for f in polys[1:]:
        out = wedge(out, exterior_derivative(f))
    return out


class CompleteIntersectionCheck(namedtuple(
        "CompleteIntersectionCheck",
        "is_cia dim_fibre dim_singular codim_required")):
    """CIA verdict with the dimensions behind it."""

    __slots__ = ()

    def __bool__(self):
        return self.is_cia


def is_complete_intersection_at_infinity(F):
    """Decide dim V(I+J) < n - q; the empty variety (dimension -1) passes."""
    dim_sing = singular_dimension(F)
    dim_fib = ideal_dimension(F.infinity_gb)
    return CompleteIntersectionCheck(dim_sing < F.n - F.q, dim_fib, dim_sing,
                                     F.n - F.q)


def singular_dimension(F):
    """Dimension of V(I+J); -1 when empty.  Kept in the map's cache."""
    return F._cached(("singular_dimension",),
                     lambda: ideal_dimension(F.singular_gb))


def _require_isolated(F):
    """Raise unless dim V(I+J) <= 0.  As n > q, such a map is also CIA."""
    if singular_dimension(F) > 0:
        raise PreconditionError("non-isolated singularity at infinity")


def _standard_monomials(F):
    """Exponents of the standard monomials of Q[x]/(I+J), kept in the map's
    cache; raises unless the singularity at infinity is isolated."""
    _require_isolated(F)
    return F._cached(("standard_monomials",),
                     lambda: quotient_vector_basis(F.singular_gb))


def milnor_number(F):
    """dim_Q Q[x]/(I+J) for an isolated singularity at infinity (0 if empty)."""
    return len(_standard_monomials(F))


def koszul_kernel_generators(F):
    """Module generators of ker(i_X) on (n-q)-forms: i_X(dx_T), |T| = n-q+1.

    The Euler contraction is the Koszul differential of the regular
    sequence (p_i x_i), so these contractions generate the kernel in
    every weighted degree.
    """
    n, q, w = F.n, F.q, F.weights
    out = []
    for T in combinations(range(n), n - q + 1):
        out.append(euler_contraction(KForm.basis_form(n, T), w))
    return out


def euler_normalize(omega, F):
    """Representative omega - d(i_X omega)/r = i_X(d omega)/r of the class of
    a homogeneous degree-r form; its Euler contraction vanishes."""
    w = F.weights
    if omega.is_zero():
        return omega
    if not omega.is_homogeneous(w):
        raise ValueError("euler_normalize needs a homogeneous form")
    r = omega.weighted_degree(w)
    if r <= 0:
        raise ValueError("euler_normalize needs positive weighted degree")
    return Fraction(1, r) * euler_contraction(exterior_derivative(omega), w)


def closed_at_infinity(omega, F):
    """d(omega) ^ dfbar_1 ^ ... ^ dfbar_q = 0 modulo I, coefficientwise."""
    z = wedge(exterior_derivative(omega), F.jac_form_top)
    return all(F.infinity_gb.contains(P) for P in z.coeffs.values())


def exact_at_infinity(omega, F):
    """Witness (Omega, [eta_1..eta_q]) with omega = d(Omega) + sum fbar_i eta_i,
    or None.  Decided one graded piece at a time; the subspace is graded."""
    n, q, k = F.n, F.q, omega.k
    Omega = KForm.zero(n, max(k - 1, 0))
    etas = [KForm.zero(n, k) for _ in range(q)]
    for r, part in sorted(omega.homogeneous_components(F.weights).items()):
        ws = F.solver(k, r).solve(part)
        if ws is None:
            return None
        Omega = Omega + ws[0].combination
        for i in range(q):
            etas[i] = etas[i] + ws[1 + i].combination
    return Omega, etas


class InfinityBasis:
    """Weighted-homogeneous basis of the degree-(n-q) cohomology at infinity."""

    def __init__(self, forms, degrees, mu):
        self.forms = list(forms)
        self.degrees = list(degrees)
        self.mu = mu

    def __len__(self):
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)


def infinity_basis(F):
    """Greedy basis from candidates (standard monomial) * (kernel generator).

    Candidates are sorted by weighted degree, ties in enumeration order; a
    candidate is kept when it is not in E_r + span(kept), with E_r the
    degree-r forms exact at infinity.  Every candidate degree r is
    positive, and there the weighted Poincare lemma (omega = d(i_X omega)/r
    for closed omega) gives ker d = d(Omega^(k-1)), which lies in E_r.  So
    v is in E_r + span(S) exactly when dv is in d(E_r) + span(dS), and
    d(E_r) is spanned by the d(fbar_i x^e dx_S).  Each degree r is one
    pass: those columns, then the d-images of the degree-r candidates,
    reduced modulo a prime p in the (k+1)-forms; the candidates that are
    pivot columns are kept.

    The kept forms are certified without exact elimination by two checks:
    (a) in every candidate degree r the pivots span d(Omega^k_r) mod p (its
    dimension is d_rank, a count of monomials), and since rank over Q is at
    least rank mod p, E_r + span(kept_r) is the whole k-form piece over Q,
    so |kept_r| >= h_r, the dimension of the cohomology at infinity in
    degree r; (b) the kept forms number mu.  Two facts close the argument:
    the candidates span the cohomology (so h_r is 0 outside the candidate
    degrees), and its dimension is mu, the paper's dim H^(n-q)(F^-1(infinity))
    = mu.  Then sum h_r = mu forces |kept_r| = h_r in every degree, so the
    kept forms are a basis.  When a check fails, the same pivot_columns
    pass over Q picks the candidates instead: its pivots are the greedy
    basis by definition.
    """
    std = _standard_monomials(F)
    mu = len(std)
    n, w = F.n, F.weights
    # the kernel generators as integer coordinate dicts; a candidate is
    # one shifted by x^e, and only the kept ones become forms
    gens = [(g.weighted_degree(w), {key: int(c) for key, c in
                                    kform_coordinates(g).items()})
            for g in koszul_kernel_generators(F)]
    by_degree = {}
    for e in std:
        for r, g in gens:
            by_degree.setdefault(_wdeg(e, w) + r, []).append(
                {(S, _eadd(e, m)): c for (S, m), c in g.items()})
    for p in (_PRIME, None):
        kept = _kept(F, by_degree, p)
        if kept is not None and len(kept) == mu:
            break
    else:
        raise RuntimeError("internal: exact basis size differs from mu")
    return InfinityBasis([coordinates_kform(n, n - F.q, c) for _, c in kept],
                         [r for r, _ in kept], mu)


def _kept(F, by_degree, p):
    """(degree, candidate) pairs among the pivot columns, mod p or over Q
    (p None), of each degree's d(fbar_i x^e dx_S) then its candidates'
    d-images, or None when some degree's pivots miss part of d(Omega^k_r)."""
    n, k, w = F.n, F.n - F.q, F.weights
    # each fbar_i as its primitive integer multiple: scaling a column
    # changes no pivot
    tops = [(d, _primitive(g.terms))
            for d, g in zip(F.degrees, F.top_components)]
    kept = []
    for r, cands in sorted(by_degree.items()):
        cols = [d_image({(S, _eadd(e, u)): c for u, c in g.items()})
                for d, g in tops for S, e in monomial_keys(n, k, w, r - d)]
        m = len(cols)
        cols.extend(d_image(c) for c in cands)
        pivots = pivot_columns(cols, p)
        if len(pivots) != d_rank(w, k, r):
            return None
        kept.extend((r, cands[j - m]) for j in pivots if j >= m)
    return kept

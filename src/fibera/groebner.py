"""Groebner bases over Q for weighted-degree-compatible monomial orders.

The default order is weighted degree reverse lexicographic: monomials are
compared first by weighted degree, ties broken so that a > b when the last
nonzero entry of a - b is negative (with variables in their declared
sequence).  Block orders (earlier blocks compared first) give elimination
orders; every block is itself weighted-degrevlex, so any order built here
is a well-order compatible with multiplication.

All bases produced by buchberger() are reduced: monic generators, no term
of any generator divisible by the leading monomial of another, sorted by
increasing leading monomial.  Reduced bases are unique for a fixed order,
which the callers rely on for reproducibility.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations

from .polyform import Polynomial, _eadd


class MonomialOrder:
    """Weighted degrevlex order, optionally split into variable blocks."""

    __slots__ = ("n", "weights", "blocks")

    def __init__(self, weights, blocks=None):
        self.weights = tuple(weights)
        self.n = len(self.weights)
        if any(not isinstance(p, int) or p < 1 for p in self.weights):
            raise ValueError("weights must be positive integers")
        if blocks is None:
            blocks = [list(range(self.n))]
        self.blocks = tuple(tuple(b) for b in blocks)
        seen = [i for b in self.blocks for i in b]
        if sorted(seen) != list(range(self.n)):
            raise ValueError("blocks must partition the variables")

    def key(self, e):
        """Sort key: bigger key = bigger monomial."""
        parts = []
        for block in self.blocks:
            parts.append(sum(e[i] * self.weights[i] for i in block))
            parts.append(tuple(-e[i] for i in reversed(block)))
        return tuple(parts)

    def leading(self, terms):
        """(exponent, coefficient) of the largest monomial of a term dict."""
        e = max(terms, key=self.key)
        return e, terms[e]

    def sorted_exponents(self, terms):
        return sorted(terms, key=self.key, reverse=True)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _esub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _reduce(terms, gens_data, order, cofactors=None):
    """Full normal form of a term dict against (lead_exp, lead_coeff, terms) data.

    Mutates and consumes `terms`; returns the remainder dict.  When a
    cofactor list is supplied it accumulates the quotient monomials so that
    input = sum(cofactor_i * g_i) + remainder exactly.
    """
    rem = {}
    key = order.key
    while terms:
        e = max(terms, key=key)
        c = terms[e]
        for idx, (ge, gc, gterms) in enumerate(gens_data):
            if _divides(ge, e):
                q = _esub(e, ge)
                ratio = c / gc
                for me, mc in gterms.items():
                    ne = _eadd(me, q)
                    v = terms.get(ne, 0) - ratio * mc
                    if v:
                        terms[ne] = v
                    else:
                        terms.pop(ne, None)
                if cofactors is not None:
                    cof = cofactors[idx]
                    cof[q] = cof.get(q, 0) + ratio
                break
        else:
            rem[e] = c
            del terms[e]
    return rem


class GroebnerBasis:
    """A reduced Groebner basis together with its order."""

    __slots__ = ("generators", "order", "n", "_data")

    def __init__(self, generators, order):
        self.generators = list(generators)
        self.order = order
        self.n = order.n
        self._data = []
        for g in self.generators:
            e, c = order.leading(g.terms)
            self._data.append((e, c, g.terms))

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def is_unit(self):
        return any(not any(e) for e, _, _ in self._data)

    def leading_exponents(self):
        return [e for e, _, _ in self._data]

    def normal_form(self, P, with_cofactors=False):
        """Unique remainder of P modulo the basis.

        With cofactors, returns (remainder, [a_i]) with
        P = sum a_i g_i + remainder.
        """
        cof = [{} for _ in self.generators] if with_cofactors else None
        rem = _reduce(dict(P.terms), self._data, self.order, cof)
        r = Polynomial(self.n, rem)
        if with_cofactors:
            return r, [Polynomial(self.n, c) for c in cof]
        return r

    def contains(self, P):
        return self.normal_form(P).is_zero()


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by gens.

    Normal selection strategy (smallest lcm first, ties by pair index),
    pairs kept in a heap, with both classical pair-skipping criteria.
    """
    basis = []  # list of term dicts
    data = []  # parallel (lead_exp, lead_coeff, terms)
    for g in gens:
        if isinstance(g, Polynomial):
            t = dict(g.terms)
        else:
            t = dict(g)
        if t:
            basis.append(t)
    if not basis:
        return GroebnerBasis([], order)
    n = order.n

    data = [order.leading(t) + (t,) for t in basis]
    if any(not any(e) for e, _, _ in data):
        return GroebnerBasis([Polynomial.constant(n, 1)], order)

    def lcm_exp(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    pairs = [(order.key(lcm_exp(data[i][0], data[j][0])), i, j)
             for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    done = set()

    while pairs:
        _, i, j = heappop(pairs)
        done.add((i, j))
        ei, ci, ti = data[i]
        ej, cj, tj = data[j]
        l = lcm_exp(ei, ej)
        # coprime leading monomials: S-pair reduces to zero
        if all(x == 0 or y == 0 for x, y in zip(ei, ej)):
            continue
        # chain criterion: a third generator divides the lcm and both
        # linking pairs were already treated
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if _divides(data[k][0], l):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        # S-polynomial
        s = {}
        qi = _esub(l, ei)
        for me, mc in ti.items():
            e = _eadd(me, qi)
            v = s.get(e, 0) + mc / ci
            if v:
                s[e] = v
            else:
                del s[e]
        qj = _esub(l, ej)
        for me, mc in tj.items():
            e = _eadd(me, qj)
            v = s.get(e, 0) - mc / cj
            if v:
                s[e] = v
            else:
                del s[e]
        h = _reduce(s, data, order)
        if not h:
            continue
        he, hc = order.leading(h)
        if not any(he):
            return GroebnerBasis([Polynomial.constant(n, 1)], order)
        new = len(basis)
        basis.append(h)
        data.append((he, hc, h))
        for m in range(new):
            heappush(pairs, (order.key(lcm_exp(data[m][0], he)), m, new))

    # minimalize: drop generators whose leading monomial another divides
    order_idx = sorted(range(len(basis)), key=lambda i: order.key(data[i][0]))
    kept = []
    for i in order_idx:
        if not any(_divides(data[j][0], data[i][0]) for j in kept):
            kept.append(i)
    # interreduce: each generator fully reduced against the others
    final = {i: basis[i] for i in kept}
    for i in kept:
        # leading terms survive interreduction, so data[j][:2] stays valid
        others = [(data[j][0], data[j][1], final[j]) for j in kept if j != i]
        red = _reduce(dict(final[i]), others, order)
        final[i] = red
    out = []
    for i in kept:
        t = final[i]
        _, c = order.leading(t)
        out.append(Polynomial(n, {me: mc / c for me, mc in t.items()}))
    out.sort(key=lambda g: order.key(order.leading(g.terms)[0]))
    return GroebnerBasis(out, order)


def ideal_dimension(basis):
    """Krull dimension of the quotient ring; -1 for the unit ideal.

    Combinatorial rule on the staircase: the dimension is the largest size
    of a variable subset S such that no leading monomial is supported
    entirely inside S.
    """
    if basis.is_unit():
        return -1
    n = basis.n
    supports = [frozenset(i for i, a in enumerate(e) if a) for e in basis.leading_exponents()]
    if not supports:
        return n
    for size in range(n, 0, -1):
        for S in combinations(range(n), size):
            sset = set(S)
            if not any(sup <= sset for sup in supports):
                return size
    return 0


def quotient_vector_basis(basis):
    """Monomials outside the leading-term ideal, for a finite quotient.

    Returns exponent tuples sorted increasingly in the basis order; raises
    if the quotient is not a finite-dimensional vector space.
    """
    if basis.is_unit():
        return []
    if ideal_dimension(basis) > 0:
        raise ValueError("quotient is infinite-dimensional")
    n = basis.n
    leads = basis.leading_exponents()
    caps = []
    for i in range(n):
        pure = [e[i] for e in leads if all(a == 0 for j, a in enumerate(e) if j != i)]
        if not pure:
            raise RuntimeError("internal: zero-dimensional staircase lacks a pure power")
        caps.append(min(pure))
    out = []

    def rec(i, prefix):
        if i == n:
            e = tuple(prefix)
            if not any(_divides(l, e) for l in leads):
                out.append(e)
            return
        for a in range(caps[i]):
            rec(i + 1, prefix + [a])

    rec(0, [])
    out.sort(key=basis.order.key)
    return out


def elimination_order(weights, eliminate):
    """Block order whose first block is the variables to eliminate."""
    n = len(weights)
    elim = sorted(eliminate)
    keep = [i for i in range(n) if i not in set(elim)]
    if not keep:
        raise ValueError("cannot eliminate every variable")
    return MonomialOrder(weights, blocks=[elim, keep])


def elimination_ideal(basis, eliminate):
    """Generators of the basis free of the eliminated variables."""
    elim = set(eliminate)
    out = []
    for g in basis.generators:
        if all(all(e[i] == 0 for i in elim) for e in g.terms):
            out.append(g)
    return out

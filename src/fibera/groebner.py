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

from heapq import heappop, heappush
from itertools import combinations, product

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


def _subtract(terms, ratio, q, gterms):
    """terms -= ratio * x^q * gterms, in place, dropping zero coefficients."""
    for me, mc in gterms.items():
        ne = _eadd(me, q)
        v = terms.get(ne, 0) - ratio * mc
        if v:
            terms[ne] = v
        else:
            terms.pop(ne, None)


def _reduce(terms, gens_data, order):
    """Full normal form of a term dict against (lead_exp, lead_coeff, terms) data.

    Mutates and consumes `terms`; returns the remainder dict.
    """
    rem = {}
    key = order.key
    while terms:
        e = max(terms, key=key)
        c = terms[e]
        for ge, gc, gterms in gens_data:
            if _divides(ge, e):
                _subtract(terms, c / gc, _esub(e, ge), gterms)
                break
        else:
            rem[e] = terms.pop(e)
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

    def normal_form(self, P):
        """Unique remainder of P modulo the basis."""
        return Polynomial(self.n, _reduce(dict(P.terms), self._data, self.order))

    def contains(self, P):
        return self.normal_form(P).is_zero()


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by the polynomials gens.

    Normal selection strategy (smallest lcm first, ties by pair index),
    pairs kept in a heap, with both classical pair-skipping criteria.
    """
    data = []  # (lead_exp, lead_coeff, terms) of every generator so far
    pairs = []
    done = set()

    def lcm_exp(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def add(t):
        """Append a generator and its pairs; False if it is a constant."""
        e, c = order.leading(t)
        for m, (em, _, _) in enumerate(data):
            heappush(pairs, (order.key(lcm_exp(em, e)), m, len(data)))
        data.append((e, c, t))
        return any(e)

    # add stops at the first constant generator: the ideal is then the unit one
    unit = not all(add(g.terms) for g in gens if g.terms)
    while pairs and not unit:
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
        if any(k != i and k != j and _divides(ek, l)
               and (min(i, k), max(i, k)) in done
               and (min(j, k), max(j, k)) in done
               for k, (ek, _, _) in enumerate(data)):
            continue
        # S-polynomial: x^(l - ei) ti/ci - x^(l - ej) tj/cj
        qi = _esub(l, ei)
        s = {_eadd(me, qi): mc / ci for me, mc in ti.items()}
        _subtract(s, 1 / cj, _esub(l, ej), tj)
        h = _reduce(s, data, order)
        if h:
            unit = not add(h)
    if unit:
        return GroebnerBasis([Polynomial.constant(order.n, 1)], order)

    # minimalize: drop generators whose leading monomial another divides;
    # scanning by increasing leading monomial keeps them sorted
    kept = []
    for d in sorted(data, key=lambda d: order.key(d[0])):
        if not any(_divides(k[0], d[0]) for k in kept):
            kept.append(d)
    # interreduce: each generator fully reduced against the others; leading
    # terms survive interreduction, so each lead exponent and coefficient
    # stays valid and the order stays sorted
    for i, (e, c, t) in enumerate(kept):
        kept[i] = (e, c, _reduce(dict(t), kept[:i] + kept[i + 1:], order))
    return GroebnerBasis([Polynomial(order.n, {me: mc / c for me, mc in t.items()})
                          for _, c, t in kept], order)


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
    if the quotient is not a finite-dimensional vector space, which is
    when some variable has no pure power among the leading monomials.
    """
    if basis.is_unit():
        return []
    n = basis.n
    leads = basis.leading_exponents()
    caps = []
    for i in range(n):
        pure = [e[i] for e in leads if all(a == 0 for j, a in enumerate(e) if j != i)]
        if not pure:
            raise ValueError("quotient is infinite-dimensional")
        caps.append(min(pure))
    out = [e for e in product(*map(range, caps))
           if not any(_divides(l, e) for l in leads)]
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

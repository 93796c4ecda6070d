"""Exact sparse polynomials and polynomial differential forms with a weighted grading.

Representation
--------------
A polynomial in n variables is a dict mapping exponent tuples (length n,
nonnegative ints) to nonzero Fraction coefficients.  A k-form is a dict
mapping strictly increasing k-tuples of variable indices (the wedge
dx_{i_1} ^ ... ^ dx_{i_k}) to nonzero polynomial coefficients.

Every variable x_i and its differential dx_i carry a positive integer
weight p_i; the weighted degree of x^a dx_S is sum(a_i p_i) + sum_{i in S} p_i.
The zero polynomial / form has weighted degree NEG_INF, a distinguished
marker that is absorbing under max and addition-like comparisons (never -1,
which is a legitimate codimension value elsewhere).

All coefficient arithmetic is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

NEG_INF = float("-inf")


def validate_weights(weights, n=None):
    """Check weights are positive ints; return them as a tuple."""
    w = tuple(weights)
    if n is not None and len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    for p in w:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"weights must be positive integers, got {p!r}")
    return w


def _eadd(a, b):
    return tuple(map(add, a, b))


def _wdeg(e, w):
    return sum(a * p for a, p in zip(e, w))


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for e, c in terms.items():
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    e = tuple(e)
                    if len(e) != n:
                        raise ValueError(f"exponent {e} has length {len(e)}, expected {n}")
                    clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def variable(cls, n, i):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, n, exponent, coeff=1):
        return cls(n, {tuple(exponent): Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(0,) * self.n: Fraction(other)}
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        res = dict(self.terms)
        for e, c in other.terms.items():
            v = res.get(e, 0) + c
            if v:
                res[e] = v
            else:
                res.pop(e, None)
        out = Polynomial.__new__(Polynomial)
        out.n = self.n
        out.terms = res
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.n = self.n
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self.n)
            out = Polynomial.__new__(Polynomial)
            out.n = self.n
            out.terms = {e: v * c for e, v in self.terms.items()}
            return out
        if isinstance(other, Polynomial):
            res = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = _eadd(e1, e2)
                    v = res.get(e, 0) + c1 * c2
                    if v:
                        res[e] = v
                    else:
                        del res[e]
            out = Polynomial.__new__(Polynomial)
            out.n = self.n
            out.terms = res
            return out
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def derivative(self, i):
        res = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                res[tuple(ne)] = c * e[i]
        return Polynomial(self.n, res)

    def evaluate(self, point):
        """Value at a point given as a sequence of rationals."""
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for a, x in zip(e, point):
                if a:
                    v *= Fraction(x) ** a
            total += v
        return total

    def compose(self, args):
        """Substitute args[i] (polynomials in a common ring) for x_i."""
        if len(args) != self.n:
            raise ValueError("wrong number of substitution arguments")
        m = args[0].n
        # cache powers of each argument
        powers = [[Polynomial.constant(m, 1)] for _ in args]
        result = Polynomial.zero(m)
        for e, c in sorted(self.terms.items()):
            term = Polynomial.constant(m, c)
            for i, a in enumerate(e):
                while len(powers[i]) <= a:
                    powers[i].append(powers[i][-1] * args[i])
                if a:
                    term = term * powers[i][a]
            result = result + term
        return result

    def pad(self, extra):
        """Same polynomial viewed in n + extra variables (new variables last)."""
        z = (0,) * extra
        out = Polynomial.__new__(Polynomial)
        out.n = self.n + extra
        out.terms = {e + z: c for e, c in self.terms.items()}
        return out

    def weighted_degree(self, w):
        if not self.terms:
            return NEG_INF
        return max(_wdeg(e, w) for e in self.terms)

    def is_homogeneous(self, w):
        degs = {_wdeg(e, w) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self, w):
        """Dict weighted degree -> homogeneous part."""
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(_wdeg(e, w), {})[e] = c
        return {r: Polynomial(self.n, t) for r, t in parts.items()}

    def top_component(self, w):
        if not self.terms:
            raise ValueError("zero has no leading term")
        r = self.weighted_degree(w)
        return Polynomial(self.n, {e: c for e, c in self.terms.items() if _wdeg(e, w) == r})

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{a}" if a > 1 else f"x{i}" for i, a in enumerate(e) if a)
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "Poly(" + " + ".join(bits) + ")"


class KForm:
    """Polynomial differential k-form; 0-forms wrap a single polynomial."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n, k, coeffs=None):
        if not (0 <= k <= n):
            raise ValueError(f"form degree {k} out of range for {n} variables")
        self.n = n
        self.k = k
        clean = {}
        if coeffs:
            for S, P in coeffs.items():
                S = tuple(S)
                if len(S) != k or any(S[i] >= S[i + 1] for i in range(len(S) - 1)):
                    raise ValueError(f"bad index tuple {S} for a {k}-form")
                if S and (S[0] < 0 or S[-1] >= n):
                    raise ValueError(f"index tuple {S} out of range")
                if not isinstance(P, Polynomial):
                    P = Polynomial(n, P)
                if P:
                    clean[S] = P
        self.coeffs = clean

    @classmethod
    def zero(cls, n, k=0):
        return cls(n, min(k, n))

    @classmethod
    def from_polynomial(cls, P):
        return cls(P.n, 0, {(): P})

    @classmethod
    def basis_form(cls, n, S):
        """dx_S for a strictly increasing index tuple S."""
        return cls(n, len(S), {tuple(S): Polynomial.constant(n, 1)})

    @classmethod
    def monomial_form(cls, P, S):
        """P dx_S."""
        return cls(P.n, len(S), {tuple(S): P})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def as_polynomial(self):
        if self.k != 0:
            raise ValueError("not a 0-form")
        return self.coeffs.get((), Polynomial.zero(self.n))

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if self.n != other.n:
            return False
        if not self.coeffs and not other.coeffs:
            return True  # zero forms compare equal across degrees
        return self.k == other.k and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.k if self.coeffs else -1,
                     frozenset((S, hash(P)) for S, P in self.coeffs.items())))

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        if self.k != other.k or self.n != other.n:
            raise ValueError("cannot add forms of different degree")
        res = dict(self.coeffs)
        for S, P in other.coeffs.items():
            v = res.get(S)
            v = P if v is None else v + P
            if v:
                res[S] = v
            else:
                res.pop(S, None)
        out = KForm.__new__(KForm)
        out.n, out.k, out.coeffs = self.n, self.k, res
        return out

    def __neg__(self):
        out = KForm.__new__(KForm)
        out.n, out.k = self.n, self.k
        out.coeffs = {S: -P for S, P in self.coeffs.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return self._scaled(other)
        if isinstance(other, KForm):
            return self.wedge(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, c):
        res = {}
        for S, P in self.coeffs.items():
            v = P * c
            if v:
                res[S] = v
        out = KForm.__new__(KForm)
        out.n, out.k, out.coeffs = self.n, self.k, res
        return out

    def wedge(self, other):
        if isinstance(other, Polynomial):
            other = KForm.from_polynomial(other)
        if self.n != other.n:
            raise ValueError("wedge of forms over different rings")
        k = self.k + other.k
        if k > self.n:
            return KForm.zero(self.n, self.n)
        res = {}
        for S, P in self.coeffs.items():
            for T, Q in other.coeffs.items():
                sign, M = _merge_indices(S, T)
                if M is None:
                    continue
                v = P * Q
                if sign < 0:
                    v = -v
                cur = res.get(M)
                cur = v if cur is None else cur + v
                if cur:
                    res[M] = cur
                else:
                    res.pop(M, None)
        return KForm(self.n, k, res)

    def exterior_derivative(self):
        k = self.k + 1
        if k > self.n:
            return KForm.zero(self.n, self.n)
        res = {}
        for S, P in self.coeffs.items():
            for i in range(self.n):
                dP = P.derivative(i)
                if not dP or i in S:
                    continue
                sign, M = _merge_indices((i,), S)
                v = dP if sign > 0 else -dP
                cur = res.get(M)
                cur = v if cur is None else cur + v
                if cur:
                    res[M] = cur
                else:
                    res.pop(M, None)
        return KForm(self.n, k, res)

    def euler_contraction(self, w):
        """Contraction with the Euler field sum p_i x_i d/dx_i."""
        if self.k == 0:
            return KForm.zero(self.n, 0)
        res = {}
        for S, P in self.coeffs.items():
            for pos, idx in enumerate(S):
                v = P * (Polynomial.variable(self.n, idx) * w[idx])
                if pos & 1:
                    v = -v
                M = S[:pos] + S[pos + 1:]
                cur = res.get(M)
                cur = v if cur is None else cur + v
                if cur:
                    res[M] = cur
                else:
                    res.pop(M, None)
        return KForm(self.n, self.k - 1, res)

    def pad(self, extra):
        """Same form viewed in n + extra variables (new variables last)."""
        out = KForm.__new__(KForm)
        out.n, out.k = self.n + extra, self.k
        out.coeffs = {S: P.pad(extra) for S, P in self.coeffs.items()}
        return out

    def weighted_degree(self, w):
        if not self.coeffs:
            return NEG_INF
        return max(P.weighted_degree(w) + sum(w[i] for i in S)
                   for S, P in self.coeffs.items())

    def is_homogeneous(self, w):
        degs = set()
        for S, P in self.coeffs.items():
            shift = sum(w[i] for i in S)
            degs.update(r + shift for r in P.homogeneous_components(w))
        return len(degs) <= 1

    def homogeneous_components(self, w):
        """Dict weighted degree -> homogeneous part."""
        parts = {}
        for S, P in self.coeffs.items():
            shift = sum(w[i] for i in S)
            for r, Q in P.homogeneous_components(w).items():
                parts.setdefault(r + shift, {})[S] = Q
        return {r: KForm(self.n, self.k, cs) for r, cs in parts.items()}

    def top_component(self, w):
        if not self.coeffs:
            raise ValueError("zero has no leading term")
        comps = self.homogeneous_components(w)
        return comps[max(comps)]

    def __repr__(self):
        if not self.coeffs:
            return f"KForm(0; k={self.k})"
        bits = []
        for S, P in sorted(self.coeffs.items()):
            ds = "d[" + ",".join(f"x{i}" for i in S) + "]"
            bits.append(f"({P!r})*{ds}" if S else repr(P))
        return "KForm(" + " + ".join(bits) + ")"


def _merge_indices(a, b):
    """Merge strictly increasing tuples; (sign, merged) or (0, None) on overlap.

    Sign is the parity of the shuffle putting a+b in increasing order.
    """
    inv = 0
    i = j = 0
    out = []
    la = len(a)
    while i < la and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            inv += la - i
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inv & 1 else 1), tuple(out)


def _as_form(f):
    return KForm.from_polynomial(f) if isinstance(f, Polynomial) else f


def wedge(a, b):
    return _as_form(a).wedge(_as_form(b))


def exterior_derivative(f):
    """d(f); a Polynomial argument yields its differential as a 1-form."""
    return _as_form(f).exterior_derivative()


def euler_contraction(f, w):
    """i_X(f) for the Euler field X = sum p_i x_i d/dx_i; 0 on 0-forms."""
    if isinstance(f, Polynomial):
        return Polynomial.zero(f.n)
    return f.euler_contraction(w)


def lie_derivative(f, w):
    """L_X = d i_X + i_X d; multiplies a w-homogeneous degree-r input by r."""
    if isinstance(f, Polynomial):
        form = KForm.from_polynomial(f)
        return form.exterior_derivative().euler_contraction(w).as_polynomial()
    return (f.euler_contraction(w).exterior_derivative()
            + f.exterior_derivative().euler_contraction(w))


def scaling_substitution(f, w):
    """Apply x_i -> t^{p_i} x_i with a fresh last variable t.

    dx_i picks up t^{p_i} as well, so a homogeneous degree-r input returns
    t^r times the input (viewed in n+1 variables).
    """
    if isinstance(f, Polynomial):
        terms = {e + (_wdeg(e, w),): c for e, c in f.terms.items()}
        return Polynomial(f.n + 1, terms)
    res = {}
    for S, P in f.coeffs.items():
        shift = sum(w[i] for i in S)
        res[S] = Polynomial(f.n + 1,
                            {e + (_wdeg(e, w) + shift,): c for e, c in P.terms.items()})
    return KForm(f.n + 1, f.k, res)

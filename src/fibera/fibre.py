"""Cohomology of the affine fibres F^{-1}(y) and of the relative complex.

A k-form omega is *closed on the fibre* over y when d(omega) ^ df_1 ^ ...
^ df_q vanishes modulo the fibre ideal (f_1 - y_1, ..., f_q - y_q), and
*exact on the fibre* when omega = d(Omega) + sum (f_i - y_i) eta_i.  In
the relative complex, omega is closed when d(omega) ^ df_1 ^ ... ^ df_q
is identically zero and exact when omega = d(Omega) + sum eta_i ^ df_i.

For a map that is a complete intersection at infinity with isolated
singularity, the degree-(n-q) cohomology of every fibre is spanned by one
fixed weighted-homogeneous basis (an InfinityBasis), and every closed
(n-q)-form decomposes over it with either constant coefficients (on one
fibre) or polynomial coefficients in F (relatively).  Both rest on one
degree descent: solve the top weighted-degree piece against the graded
data at infinity, subtract, repeat.  A relative decomposition is the
descent over y = 0, repeated on the eta-remainders with multipliers
F^alpha.  Descent is strict because f_i - fbar_i has lower degree than
f_i, so it terminates and every witness obeys the degree bounds:

    deg a_i(F) <= deg omega - deg omega_i
    deg Omega  <= deg omega
    deg eta_i  <= deg omega - deg f_i
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .polyform import (KForm, Polynomial, _eadd, _merge_indices,
                       exterior_derivative, wedge)
from .groebner import _reduce_mod_p
from .gradedlin import (_PRIME, CombinationSolver, d_column, d_image, d_rank,
                        monomial_keys, pivot_columns, wedge_group)
from .infinity import PreconditionError, _require_isolated, singular_dimension

__all__ = [
    "FibreClass", "RelativeDecomposition", "ExactnessResult",
    "closed_on_fibre", "bounded_ideal_membership", "exact_on_fibre",
    "fibre_class", "relative_closed", "relative_exact_homogeneous",
    "relative_decompose", "is_in_subalgebra", "verify_decomposition",
    "verify_vanishing",
]


class FibreClass(namedtuple("FibreClass", "point coefficients omega eta")):
    """Coordinates of a closed form in the cohomology of the fibre over `point`,
    with the exactness witness: omega = sum c_i b_i + d(omega_part) +
    sum (f_i - y_i) eta_i."""

    __slots__ = ()


class RelativeDecomposition(namedtuple("RelativeDecomposition",
                                       "coeff_polys omega eta")):
    """omega = sum a_i(F) b_i + d(omega_part) + sum eta_j ^ df_j, with the
    coefficient polynomials a_i in q variables."""

    __slots__ = ()


class ExactnessResult(namedtuple("ExactnessResult", "witness complete")):
    """Outcome of an exactness search.

    witness is (Omega, [eta_1..eta_q]) when found, else None.  complete
    reports whether the degree-bounded search is known exhaustive (it is
    when dim Sing <= n - q - k); when False, a None witness does not
    disprove exactness.
    """

    __slots__ = ()


def closed_on_fibre(omega, F, y):
    """d(omega) ^ df_1 ^ ... ^ df_q = 0 modulo the fibre ideal over y."""
    gb = F.fibre_gb(y)
    z = wedge(exterior_derivative(omega), F.jac_form)
    return all(gb.contains(P) for P in z.coeffs.values())


def bounded_ideal_membership(P, F, y):
    """Cofactors a_i with P = sum a_i (f_i - y_i), deg a_i <= deg P - deg f_i.

    Membership in the fibre ideal always admits cofactors within these
    bounds when the map is a complete intersection at infinity, so None
    then certifies non-membership.
    """
    ws = F.solver(0, P.weighted_degree(F.weights), y).solve(
        KForm.from_polynomial(P))
    return None if ws is None else [g.combination.as_polynomial()
                                    for g in ws[1:]]


def exact_on_fibre(omega, F, y):
    """Search omega = d(Omega) + sum (f_i - y_i) eta_i with deg Omega <= deg
    omega and deg eta_i <= deg omega - deg f_i."""
    k = omega.k
    ws = F.solver(k, omega.weighted_degree(F.weights), y).solve(omega)
    witness = None if ws is None else (ws[0].combination,
                                       [g.combination for g in ws[1:]])
    return ExactnessResult(witness, singular_dimension(F) <= F.n - F.q - k)


def fibre_class(omega, F, y, B):
    """Decompose a closed (n-q)-form over the basis B on the fibre over y."""
    _require_isolated(F)
    k = F.n - F.q
    if not omega.is_zero() and omega.k != k:
        raise PreconditionError(f"fibre classes live in form degree {k}")
    y = F.point(y)
    return FibreClass(y, *_descend(omega, F, y, B))


def _descend(omega, F, y, B):
    """Degree descent of omega over B on the fibre over the point y.

    The top graded piece is solved against span(B at that degree) +
    d(...) + sum fbar_i (...), then subtracted using the full f_i - y_i,
    which strictly lowers the degree.  Returns (coefficients, Omega, etas).
    Every step is linear in its target, and so is the whole descent.
    """
    k = F.n - F.q
    w = F.weights
    coeffs = [Fraction(0)] * B.mu
    omega_part = KForm.zero(F.n, max(k - 1, 0))
    etas = [KForm.zero(F.n, k) for _ in range(F.q)]
    rem = omega
    while not rem.is_zero():
        r = rem.weighted_degree(w)
        top = rem.top_component(w)
        idx = [i for i, d in enumerate(B.degrees) if d == r]
        ws = F.solver(k, r, lead=[B.forms[i] for i in idx]).solve(top)
        if ws is None:
            raise RuntimeError("internal: degree descent step unsolvable")
        for pos, i in enumerate(idx):
            coeffs[i] += ws[0].coefficients[pos]
        dpart = ws[1].combination
        omega_part = omega_part + dpart
        subtracted = ws[0].combination + exterior_derivative(dpart)
        for i in range(F.q):
            epart = ws[2 + i].combination
            if not epart.is_zero():
                etas[i] = etas[i] + epart
                subtracted = subtracted + (F.components[i] - y[i]) * epart
        rem = rem - subtracted
        if rem.weighted_degree(w) >= r:
            raise RuntimeError("internal: degree descent failed to decrease")
    return coeffs, omega_part, etas


def relative_closed(omega, F):
    """d(omega) ^ df_1 ^ ... ^ df_q identically zero."""
    return wedge(exterior_derivative(omega), F.jac_form).is_zero()


def relative_exact_homogeneous(omega, F):
    """Witness (Omega, [eta_i]) with omega = d(Omega) + sum eta_i ^ dfbar_i
    inside one graded piece, or None.  The solver is not cached."""
    w, k = F.weights, omega.k
    if not omega.is_homogeneous(w):
        raise ValueError("relative_exact_homogeneous needs a homogeneous form")
    r = omega.weighted_degree(w)
    ws = CombinationSolver([F.exactness_groups(k, r)[0]] + [
        wedge_group(exterior_derivative(f), k, r, w)
        for f in F.top_components]).solve(omega)
    return None if ws is None else (ws[0].combination,
                                    [g.combination for g in ws[1:]])


def relative_decompose(omega, F, B):
    """Certified relative decomposition with the degree bounds above.

    A worklist over multiplier exponents alpha, in order of |alpha|: the
    form at alpha descends over y = 0 to sum c_j b_j + d(Omega) + sum f_i
    eta_i, and each eta_i joins the form at alpha + e_i.  Times F^alpha,
    this adds c_j t^alpha to a_j, F^alpha Omega to Omega and, as F^alpha
    d(Omega) = d(F^alpha Omega) - sum (d_i t^alpha)(F) df_i ^ Omega,
    sign * (d_i t^alpha)(F) Omega to eta_i.
    """
    _require_isolated(F)
    q, k = F.q, F.n - F.q
    if not omega.is_zero() and omega.k != k:
        raise PreconditionError(f"relative decomposition needs a {k}-form")
    zero_pt = F.point([0] * q)
    kk = max(k - 1, 0)
    a = [Polynomial.zero(q) for _ in range(B.mu)]
    omega_part = KForm.zero(F.n, kk)
    eta = [KForm.zero(F.n, kk) for _ in range(q)]
    sign = -1 if k % 2 else 1  # df_i ^ W = (-1)^(k-1) W ^ df_i for (k-1)-forms W
    todo = {(0,) * q: omega}
    while todo:
        alpha = min(todo, key=lambda e: (sum(e), e))
        rem = todo.pop(alpha)
        r = rem.weighted_degree(F.weights)
        coeffs, Om, etas = _descend(rem, F, zero_pt, B)
        t = Polynomial.monomial(q, alpha)
        a = [aj + c * t for aj, c in zip(a, coeffs)]
        if not Om.is_zero():
            omega_part = omega_part + t.compose(F.components) * Om
            for i in range(q):
                if alpha[i]:
                    dt = t.derivative(i).compose(F.components)
                    eta[i] = eta[i] + sign * dt * Om
        for i, e in enumerate(etas):
            if e.is_zero():
                continue
            if e.weighted_degree(F.weights) >= r:
                raise RuntimeError("internal: recursion without degree decrease")
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
            todo[beta] = todo[beta] + e if beta in todo else e
    return RelativeDecomposition(a, omega_part, eta)


def is_in_subalgebra(R, F):
    """The polynomial A with R = A(f_1, ..., f_q), or None.

    Decided by normal form against the elimination basis of the graph
    ideal (f_i(x) - t_i): R lies in Q[F] exactly when the normal form
    only involves the t variables.
    """
    gb = F.graph_gb()
    nf = gb.normal_form(R.pad(F.q))
    n = F.n
    for e in nf.terms:
        if any(e[:n]):
            return None
    return Polynomial(F.q, {e[n:]: c for e, c in nf.terms.items()})


def verify_decomposition(omega, result, F, B):
    """Check the shape, the identity omega = sum c_j b_j + d(Omega) + sum
    (eta terms) and every degree bound of a FibreClass or a RelativeDecomposition.
    c_j = a_j(F) is bounded before it is composed, by deg a_j with t_i of weight
    deg f_i: exact, as B exists only when the fbar_i form a regular sequence."""
    if isinstance(result, FibreClass):
        polys = [Polynomial.constant(F.q, c) for c in result.coefficients]
        terms = [(f - y) * e for y, f, e in zip(result.point, F.components,
                                                result.eta) if not e.is_zero()]
        npoint = len(result.point)
    elif isinstance(result, RelativeDecomposition):
        polys = result.coeff_polys
        terms = [wedge(e, exterior_derivative(f))
                 for e, f in zip(result.eta, F.components) if not e.is_zero()]
        npoint = F.q
    else:
        raise TypeError(f"cannot verify {type(result).__name__}")
    w = F.weights
    r = omega.weighted_degree(w)
    if (len(polys), len(result.eta), npoint) != (B.mu, F.q, F.q) or any(
            a.weighted_degree(F.degrees) > r - bd for a, bd in zip(polys, B.degrees)):
        return False
    recon = exterior_derivative(result.omega)
    for t in [a.compose(F.components) * b for a, b in zip(polys, B.forms) if a] + terms:
        recon = recon + t
    if recon != omega:
        return False
    bounds = [(result.omega, r)] + [(e, r - d) for e, d in zip(result.eta, F.degrees)]
    return all(x.weighted_degree(w) <= bound for x, bound in bounds)


def verify_vanishing(F, k, y, degree_bound):
    """Check H^k(F^{-1}(y)) = 0 up to a weighted-degree bound.

    Over the N monomial k-forms of weighted degree <= degree_bound, the
    closed-on-fibre condition is linear (via normal forms), with columns C
    and kernel K.  The exact space E = d(Omega^(k-1)) + sum (f_i - y_i)
    Omega^k in degrees <= degree_bound lies in K, so vanishing holds exactly
    when dim E = dim K (closed_dimension, exact_dimension).  Requires dim
    Sing < n - q - k so that E holds every bounded exact form.  As k >= 1,
    the weighted Poincare lemma makes the closed bounded k-forms
    d(Omega^(k-1)), inside E, so dim E is the sum of d_rank over degrees
    1..degree_bound plus rank d(E), spanned by d((f_i - y_i) x^e dx_S).

    Ranks of residues mod a prime p can only be lower: as dim K = N - rank
    C <= N - rank_p C and rank_p E <= dim E <= dim K, rank_p C + rank_p E =
    N forces equality throughout, and a sum above N is an internal error.
    When p divides a denominator of some f_i - y_i, of the fibre basis or
    of dF, or the sum falls short, the same columns built from rationals
    and ranked over Q decide.
    """
    if k < 1:
        raise ValueError("verify_vanishing needs form degree k >= 1")
    if not (singular_dimension(F) < F.n - F.q - k):
        raise PreconditionError(
            "vanishing check requires dim Sing < n - q - k")
    y, w = F.point(y), F.weights
    exact_d = sum(d_rank(w, k - 1, r) for r in range(1, degree_bound + 1))
    for p in (_PRIME, None):
        shifted = [_residues(g.terms, p) for g in F._shifted(y)]
        cols = None if None in shifted else _closedness_columns(
            F, k, y, degree_bound, p)
        if cols is None:
            continue
        rc = len(pivot_columns(cols, p))
        # d of the (f_i - y_i) x^e dx_S; from residues an entry is an exponent
        # times a nonzero residue, never 0 mod p, so no column is divided by p
        images = [d_image({(S, _eadd(e, m)): c for m, c in g.items()})
                  for g, d in zip(shifted, F.degrees)
                  for S, e in monomial_keys(F.n, k, w, degree_bound - d, True)]
        exact = exact_d + len(pivot_columns(images, p))
        if rc + exact >= len(cols):
            break
    closed = len(cols) - rc
    if exact > closed:
        raise RuntimeError("internal: exact forms exceed the closed kernel")
    return {
        "form_degree": k,
        "degree_bound": degree_bound,
        "space_dimension": len(cols),
        "closed_dimension": closed,
        "exact_dimension": exact,
        "all_exact": exact == closed,
    }


def _residues(terms, p):
    """The nonzero {key: c mod p} of a dict of rationals, or None when p
    divides a denominator; the dict itself when p is None."""
    if p is None:
        return terms
    if all(c.denominator % p for c in terms.values()):
        return {e: r for e, c in terms.items()
                if (r := c.numerator * pow(c.denominator, -1, p) % p)}


def _closedness_columns(F, k, y, bound, p=None):
    """Per monomial k-form m of degree <= bound, in key order, the coordinates
    of d(m) ^ df_1 ^ ... ^ df_q with coefficients in normal form over y;
    with a prime p, their residues mod p, or None when p divides a
    denominator of the fibre basis or of dF.

    The normal form is linear, so each column is sum c * image(S, e) over the
    d-terms c x^e dx_S of d(m), where image(S, e) is the normal form of
    x^e dx_S ^ df_1 ^ ... ^ df_q: computed once per key and call.  The basis
    is monic, so for p-integral data each image mod p is _reduce_mod_p's."""
    gb = F.fibre_gb(y)
    jac = [(T, _residues(P.terms, p)) for T, P in F.jac_form.coeffs.items()]
    if p:
        gens = [(e, _residues({m: c for m, c in g.terms.items() if m != e}, p))
                for e, g in zip(gb.leading_exponents(), gb.generators)]
        if None in [t for _, t in jac + gens]:
            return None

    def image(S, e):
        # distinct T give distinct S + T, so each T adds its own keys
        img = {}
        for T, P in jac:
            sign, M = _merge_indices(S, T)
            if sign:
                z = {_eadd(e, m): sign * c for m, c in P.items()}
                nf = (_reduce_mod_p(z, gens, gb.order, p) if p else
                      gb.normal_form(Polynomial(F.n, z)).terms)
                img.update(((M, x), v) for x, v in nf.items())
        return img

    images, cols = {}, []
    for m in monomial_keys(F.n, k, F.weights, bound, at_most=True):
        col = {}
        for key, c in d_column(*m).items():
            if key not in images:
                images[key] = image(*key)
            for row, v in images[key].items():
                col[row] = col.get(row, 0) + c * v
        cols.append({row: r for row, v in col.items()
                     if (r := v % p if p else v)})
    return cols

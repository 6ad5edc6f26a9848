"""Elementary symmetric coordinates and Groebner-based ideal membership.

A symmetric Laurent polynomial is rewritten as a polynomial in the elementary
symmetric generators s_1, ..., s_n times a power of s_n^-1 (Gauss-style
leading-term elimination).  Ideal membership of the rewritten images is then
decided by Buchberger's algorithm over Q after specializing q to a rational
value; agreement at several specializations is the membership evidence the
verification suite reports.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from operator import ge, le, sub

from .laurent import LaurentPoly, sub_scaled
from .ratfunc import IntLaurent, RatFuncQ


class NotSymmetric(ValueError):
    """Input to the elementary-symmetric rewrite is not symmetric."""


class ElemSymExpr:
    """Polynomial in s_1..s_n with RatFuncQ (or IntLaurent) coefficients,
    times s_n^(-shift).

    terms: dict mapping exponent tuples of (s_1, ..., s_n) to coefficients.
    """

    __slots__ = ("n", "terms", "shift")

    def __init__(self, n: int, terms=None, shift: int = 0):
        self.n = n
        self.shift = shift
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, (RatFuncQ, IntLaurent)):
                    c = RatFuncQ.const(c)
                if c:
                    self.terms[tuple(e)] = c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, ElemSymExpr)
            and self.n == other.n
            and self.shift == other.shift
            and self.terms == other.terms
        )

    def polynomial_part(self) -> "ElemSymExpr":
        """Drop the s_n^-shift unit; fine for membership in the localized ring."""
        return ElemSymExpr(self.n, self.terms, 0)

    def specialize(self, q0) -> dict:
        """Exponent -> Fraction dictionary at q = q0 (shift discarded)."""
        return {e: c.eval_at(q0) for e, c in self.terms.items()}

    def leading_normalized(self, q0, order: str = "grevlex") -> dict:
        """Specialized coefficients scaled so the order-leading one equals 1."""
        spec = {e: c for e, c in self.specialize(q0).items() if c}
        return _monic(spec, _ORDER_KEYS[order])[1] if spec else {}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(
                f"s{i+1}^{ei}" if ei != 1 else f"s{i+1}" for i, ei in enumerate(e) if ei
            )
            parts.append(f"({self.terms[e]})" + (f"*{mono}" if mono else ""))
        body = " + ".join(parts)
        if self.shift:
            body = f"s{self.n}^-{self.shift} * ({body})"
        return body

    __repr__ = __str__


def to_elementary(f: LaurentPoly) -> ElemSymExpr:
    """Rewrite a symmetric Laurent polynomial in elementary symmetric generators.

    Negative exponents are first cleared by an explicit s_n^-k factor; the
    remaining polynomial is reduced by subtracting, for the lex-leading
    exponent lam, the product e_1^(lam_1-lam_2) ... e_n^(lam_n) which shares
    that leading monomial.  The loop only subtracts integer multiples of
    coefficients, so it runs unchanged over RatFuncQ or IntLaurent
    coefficients and keeps their type.

    The library reaches elementary coordinates through
    `spherical.main_term_elementary`, whose Schur terms come from the dual
    Jacobi-Trudi determinant; this rewrite is the tests' reference for that
    path.  It stays here, with `_elementary_product` and `NotSymmetric`,
    because the benchmark's tracer binds it by this name.
    """
    if not f.is_symmetric():
        raise NotSymmetric("input is not S_n-invariant")
    n = f.n
    k = max(0, -f.min_exponent())
    work = dict(f.translate_all(k).terms)
    out, zero = {}, (0,) * n
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise RuntimeError("elementary rewrite did not terminate")
        lead = max(work)
        coef = work[lead]
        if any(lead[i] < lead[i + 1] for i in range(n - 1)):
            raise NotSymmetric("leading exponent is not a partition")
        sexp = tuple(lead[i] - lead[i + 1] for i in range(n - 1)) + (lead[-1],)
        sub_scaled(work, _elementary_product(n, sexp), coef, zero)
        out[sexp] = coef
    return ElemSymExpr(n, out, shift=k)


def _elementary_product(n: int, sexp) -> dict:
    """e_1^sexp[0] * ... * e_n^sexp[n-1] as a dict exponent -> int."""
    out = {(0,) * n: 1}
    for k, mult in enumerate(sexp, start=1):
        monos = [tuple(int(i in comb) for i in range(n))
                 for comb in itertools.combinations(range(n), k)]
        for _ in range(mult):
            nxt = {}
            for e, c in out.items():
                for m in monos:
                    t = tuple(a + b for a, b in zip(e, m))
                    nxt[t] = nxt.get(t, 0) + c
            out = nxt
    return out


# -- rational multivariate polynomials for Groebner bases ------------------------


def _grevlex_key(m):
    return (sum(m), tuple(-x for x in reversed(m)))


def _lex_key(m):
    return m


_ORDER_KEYS = {"grevlex": _grevlex_key, "lex": _lex_key}


class GroebnerBasis:
    """Reduced Groebner basis of an ideal in Q[s_1..s_n] at fixed q.

    polys: tuple of dicts exponent -> Fraction, monic, inter-reduced, sorted
    by leading monomial; leads: the tuple of their leading monomials.  A basis
    may be shared between requests (`verify.generator_basis`): reduction
    against it reads its members and never changes them.
    """

    __slots__ = ("n", "order", "leads", "polys")

    def __init__(self, n: int, order: str, leads, polys):
        self.n = n
        self.order = order
        self.leads = tuple(leads)
        self.polys = tuple(polys)

    def key(self):
        return _ORDER_KEYS[self.order]


def _monic(poly, key):
    """(leading monomial, poly scaled so that its coefficient there is 1)."""
    lead = max(poly, key=key)
    lc = poly[lead]
    return lead, {e: c / lc for e, c in poly.items()}


def _reduce_full(poly, leads, polys, key):
    """Normal form of poly, which is consumed, modulo the monic polys with
    leading monomials leads."""
    result = {}
    while poly:
        lead = max(poly, key=key)
        for glead, g in zip(leads, polys):
            if all(map(ge, lead, glead)):
                sub_scaled(poly, g, poly[lead], tuple(map(sub, lead, glead)))
                break
        else:
            result[lead] = poly.pop(lead)
    return result


def buchberger(gens, n: int, order: str = "grevlex") -> GroebnerBasis:
    """Reduced Groebner basis from generator dicts (exponent -> Fraction).

    Normal pair selection: pairs are taken from a heap by increasing lcm of
    their leading monomials; pairs with coprime leading monomials are never
    pushed.  Each member's leading monomial is found once, when it joins.
    """
    gens = [g for g in gens if g]
    if any(len(e) != n for g in gens for e in g):
        raise ValueError("arity mismatch")
    key = _ORDER_KEYS[order]
    leads, polys, pairs = [], [], []

    def join(poly):
        lead, poly = _monic(poly, key)
        for i, other in enumerate(leads):
            if any(map(min, lead, other)):
                heapq.heappush(pairs, (key(tuple(map(max, lead, other))), i, len(leads)))
        leads.append(lead)
        polys.append(poly)

    for g in gens:
        join(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lcm = tuple(map(max, leads[i], leads[j]))
        s = sub_scaled({}, polys[i], -1, tuple(map(sub, lcm, leads[i])))
        sub_scaled(s, polys[j], 1, tuple(map(sub, lcm, leads[j])))
        r = _reduce_full(s, leads, polys, key)
        if r:
            join(r)
    # minimalize: drop members whose leading monomial another one divides
    # (of equal leading monomials the first stays)
    keep = [i for i, lead in enumerate(leads)
            if not any(j != i and all(map(le, other, lead)) and (other != lead or j < i)
                       for j, other in enumerate(leads))]
    keep.sort(key=lambda i: key(leads[i]))
    # inter-reduce tails; no other leading monomial divides a kept one, so
    # each stays monic with its leading monomial
    reduced = [_reduce_full(dict(polys[i]), [leads[j] for j in keep if j != i],
                            [polys[j] for j in keep if j != i], key) for i in keep]
    return GroebnerBasis(n, order, [leads[i] for i in keep], reduced)


def ideal_member(poly, basis: GroebnerBasis) -> bool:
    """Zero normal form against the reduced basis."""
    poly = {e: Fraction(c) for e, c in poly.items() if c}
    if any(len(e) != basis.n for e in poly):
        raise ValueError("arity mismatch")
    return not _reduce_full(poly, basis.leads, basis.polys, basis.key())


# -- displayed generators of the transform-image ideal ---------------------------


def schwartz_image_generators(n: int):
    """The two generators of the transform-image ideal for sizes 3 and 4.

    The second size-3 generator carries the coefficient q*(q^-2 + q^-1 + 1)
    on s_2 (not its square): only with this value does the membership suite
    close, and it matches the shape of the size-4 cross term.
    """
    # every coefficient lies in Z[q^+-1]
    one, q = IntLaurent([1]), IntLaurent([1], 1)
    t = IntLaurent([1, 1, 1], -2)        # q^-2 + q^-1 + 1
    u = IntLaurent([1, 0, 1], -2)        # q^-2 + 1
    v = IntLaurent([1, 1], -1)           # q^-1 + 1
    c = q * q * t * t
    if n == 3:
        gens = ({(1, 1, 0): one, (0, 0, 1): -c},
                {(2, 0, 0): one, (0, 1, 0): -(q * t)})
    elif n == 4:
        d = q * q * q * u * v * v * v * v
        gens = ({(1, 1, 1, 0): one, (2, 0, 0, 1): -c, (0, 0, 2, 0): -c, (0, 1, 0, 1): d},
                {(0, 2, 0, 0): one, (1, 0, 1, 0): -(q * t), (0, 0, 0, 1): q * q * q * u * u * t})
    else:
        raise ValueError("generators tabulated for sizes 3 and 4 only")
    return tuple(ElemSymExpr(n, {e: RatFuncQ(x) for e, x in g.items()}) for g in gens)

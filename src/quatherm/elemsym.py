"""Elementary symmetric coordinates and Groebner-based ideal membership.

A symmetric Laurent polynomial is rewritten as a polynomial in the elementary
symmetric generators s_1, ..., s_n times a power of s_n^-1 (Gauss-style
leading-term elimination).  Ideal membership of the rewritten images is then
decided by Buchberger's algorithm over Q after specializing q to a rational
value; agreement at several specializations is the membership evidence the
verification suite reports.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .laurent import LaurentPoly, elementary_symmetric
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

    def expand_x(self) -> LaurentPoly:
        """Substitute the elementary symmetric polynomials back in."""
        es = [elementary_symmetric(self.n, k) for k in range(self.n + 1)]
        out = LaurentPoly.zero(self.n)
        for e, c in self.terms.items():
            term = LaurentPoly.constant(self.n, c)
            for k, ek in enumerate(e):
                term = term * es[k + 1] ** ek
            out = out + term
        if self.shift:
            out = out.translate_all(-self.shift)
        return out

    def specialize(self, q0) -> dict:
        """Exponent -> Fraction dictionary at q = q0 (shift discarded)."""
        return {e: c.eval_at(q0) for e, c in self.terms.items()}

    def leading_normalized(self, q0, order: str = "grevlex") -> dict:
        """Specialized coefficients scaled so the order-leading one equals 1."""
        spec = {e: c for e, c in self.specialize(q0).items() if c}
        if not spec:
            return {}
        key = _ORDER_KEYS[order]
        lead = max(spec, key=key)
        lc = spec[lead]
        return {e: c / lc for e, c in spec.items()}

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
    """
    if not f.is_symmetric():
        raise NotSymmetric("input is not S_n-invariant")
    n = f.n
    k = max(0, -f.min_exponent())
    work = dict(f.translate_all(k).terms)
    out = {}
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
        for e, mult in _elementary_product(n, sexp).items():
            d = coef * mult
            v = work.get(e)
            v = -d if v is None else v - d
            if v:
                work[e] = v
            else:
                work.pop(e, None)
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

    polys: list of dicts exponent -> Fraction, monic, inter-reduced, sorted.
    """

    __slots__ = ("n", "order", "polys")

    def __init__(self, n: int, order: str, polys):
        self.n = n
        self.order = order
        self.polys = polys

    def key(self):
        return _ORDER_KEYS[self.order]


def _lead(poly, key):
    return max(poly, key=key)


def _poly_sub_scaled(a, b, factor, expo_shift):
    """a - factor * x^expo_shift * b, all dicts over Fraction."""
    out = dict(a)
    for e, c in b.items():
        ee = tuple(x + y for x, y in zip(e, expo_shift))
        v = out.get(ee, Fraction(0)) - factor * c
        if v:
            out[ee] = v
        else:
            out.pop(ee, None)
    return out


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reduce_full(poly, basis, key):
    """Normal form of poly modulo the basis (list of monic dicts)."""
    poly = dict(poly)
    result = {}
    while poly:
        lead = _lead(poly, key)
        reduced = False
        for g in basis:
            glead = _lead(g, key)
            if _divides(glead, lead):
                shift = tuple(x - y for x, y in zip(lead, glead))
                poly = _poly_sub_scaled(poly, g, poly[lead], shift)
                reduced = True
                break
        if not reduced:
            result[lead] = poly.pop(lead)
    return result


def _monic(poly, key):
    lc = poly[_lead(poly, key)]
    return {e: c / lc for e, c in poly.items()}


def _spoly(f, g, key):
    lf, lg = _lead(f, key), _lead(g, key)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    out = {}
    for e, c in f.items():
        ee = tuple(x + y for x, y in zip(e, sf))
        out[ee] = out.get(ee, Fraction(0)) + c / f[lf]
    for e, c in g.items():
        ee = tuple(x + y for x, y in zip(e, sg))
        v = out.get(ee, Fraction(0)) - c / g[lg]
        if v:
            out[ee] = v
        else:
            out.pop(ee, None)
    return {e: c for e, c in out.items() if c}


def buchberger(gens, n: int, order: str = "grevlex") -> GroebnerBasis:
    """Reduced Groebner basis from generator dicts (exponent -> Fraction).

    Normal pair selection: pairs are processed by increasing lcm of leading
    monomials; coprime leading monomials are skipped.
    """
    key = _ORDER_KEYS[order]
    basis = [_monic(dict(g), key) for g in gens if g]
    if not basis:
        return GroebnerBasis(n, order, [])
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]

    def lcm_of(i, j):
        return tuple(max(a, b) for a, b in zip(_lead(basis[i], key), _lead(basis[j], key)))

    while pairs:
        pairs.sort(key=lambda ij: key(lcm_of(*ij)), reverse=True)
        i, j = pairs.pop()
        li, lj = _lead(basis[i], key), _lead(basis[j], key)
        if all(a == 0 or b == 0 for a, b in zip(li, lj)):
            continue  # coprime leading monomials
        s = _spoly(basis[i], basis[j], key)
        r = _reduce_full(s, basis, key)
        if r:
            basis.append(_monic(r, key))
            new = len(basis) - 1
            pairs.extend((t, new) for t in range(new))
    # minimalize: drop members whose leading monomial another one divides
    keep = []
    leads = [_lead(g, key) for g in basis]
    for i, g in enumerate(basis):
        if any(
            j != i and _divides(leads[j], leads[i])
            and (key(leads[j]) != key(leads[i]) or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(g)
    # inter-reduce tails
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = _reduce_full(g, others, key) if others else dict(g)
        if r:
            reduced.append(_monic(r, key))
    reduced.sort(key=lambda g: key(_lead(g, key)))
    return GroebnerBasis(n, order, reduced)


def ideal_member(poly, basis: GroebnerBasis) -> bool:
    """Zero normal form against the reduced basis."""
    poly = {e: Fraction(c) for e, c in poly.items() if c}
    if not poly:
        return True
    for e in poly:
        if len(e) != basis.n:
            raise ValueError("arity mismatch")
    if not basis.polys:
        return False
    return not _reduce_full(poly, basis.polys, basis.key())


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


def image_ideal_basis(n: int, q0, order: str = "grevlex") -> GroebnerBasis:
    """Groebner basis of the two-generator image ideal at the specialization q = q0."""
    gens = [g.specialize(q0) for g in schwartz_image_generators(n)]
    return buchberger(gens, n, order=order)

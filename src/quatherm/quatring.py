"""Arithmetic in finite quotients of the maximal order of the p-adic division
quaternion algebra.

The order is modeled on the basis {1, eps, Pi, Pi*eps} with the relations

    eps^2 = eps2   (a unit that is a quadratic nonresidue mod p),
    Pi^2  = p,
    Pi*eps = -eps*Pi,

and elements of the quotient by Pi^(2*ell) are coordinate 4-tuples mod p^ell.
The two-sided ideal generated by Pi satisfies

    Pi^(2r)   = {a, b, c, d in p^r},
    Pi^(2r+1) = {a, b in p^(r+1); c, d in p^r},

which is what the valuation predicate below tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


class ParamMismatch(ValueError):
    """Operands from different quotient rings."""


class DimensionMismatch(ValueError):
    """Incompatible matrix shapes."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue mod an odd prime p, by Euler's
    criterion x^((p-1)/2) = -1."""
    for x in range(2, p):
        if pow(x, (p - 1) // 2, p) == p - 1:
            return x
    raise ValueError(f"no nonresidue found mod {p}")


# -- coordinate kernel ---------------------------------------------------------
# The one definition of quaternion arithmetic.  A quaternion is a 4-tuple
# (a, b, c, d) of Python ints or int64 ndarrays (elementwise), reduced mod
# p^ell after every product.  QuatElem and the numpy counting kernels both
# call these functions.


def qmul(x, y, p, e2, mod):
    """Coordinates of x*y, from eps^2 = e2, Pi^2 = p and Pi*eps = -eps*Pi."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    a = qscalar(x, y, p, e2, mod)
    b = (a1 * b2 + b1 * a2 + p * (c1 * d2 - d1 * c2)) % mod
    c = (a1 * c2 - e2 * (b1 * d2) + c1 * a2 + e2 * (d1 * b2)) % mod
    d = (a1 * d2 - b1 * c2 + c1 * b2 + d1 * a2) % mod
    return a, b, c, d


def qscalar(x, y, p, e2, mod):
    """Scalar coordinate of x*y."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 + e2 * (b1 * b2) + p * (c1 * c2 - e2 * (d1 * d2))) % mod


def qconj(x, mod):
    a, b, c, d = x
    return a, (-b) % mod, (-c) % mod, (-d) % mod


def qadd(x, y, mod):
    return tuple((u + v) % mod for u, v in zip(x, y))


def qnrd(x, p, e2, mod):
    a, b, c, d = x
    return (a * a - e2 * (b * b) - p * (c * c - e2 * (d * d))) % mod


def qresidue(x, p):
    """Image (a mod p, b mod p) of x in the residue field F_{p^2}."""
    return x[0] % p, x[1] % p


def fmul(x, y, e2, mod):
    """Product in (Z/mod)[eps] with eps^2 = e2; pairs (s, t) mean s + t*eps.

    With mod = p this is the residue field F_{p^2}.  Entries may be ints or
    int64 ndarrays.
    """
    return (x[0] * y[0] + e2 * (x[1] * y[1])) % mod, (x[0] * y[1] + x[1] * y[0]) % mod


@dataclass(frozen=True)
class RingParams:
    """Quotient-ring data: odd prime p, level ell >= 1, and the unit eps2.

    eps2 defaults to the smallest positive nonresidue mod p.  All counting
    results are independent of this choice; the acceptance suite checks that
    for two choices at p = 5.
    """

    p: int
    ell: int
    eps2: int = field(default=0)

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.ell < 1:
            raise ValueError(f"level must be >= 1, got {self.ell}")
        if self.eps2 == 0:
            object.__setattr__(self, "eps2", smallest_nonresidue(self.p))
        if pow(self.eps2, (self.p - 1) // 2, self.p) != self.p - 1:   # Euler's criterion
            raise ValueError(f"eps2 = {self.eps2} is not a nonresidue mod {self.p}")

    @cached_property
    def modulus(self) -> int:
        return self.p**self.ell

    def val_p(self, x: int) -> int:
        """p-adic valuation of a residue mod p^ell, capped at ell."""
        x %= self.modulus
        if x == 0:
            return self.ell
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v


class QuatElem:
    """Class of a + b*eps + c*Pi + d*Pi*eps in the quotient at level ell."""

    __slots__ = ("a", "b", "c", "d", "params")

    def __init__(self, a, b, c, d, params: RingParams):
        m = params.modulus
        self.a = a % m
        self.b = b % m
        self.c = c % m
        self.d = d % m
        self.params = params

    # -- constructors ---------------------------------------------------

    @staticmethod
    def scalar(v: int, params: RingParams) -> "QuatElem":
        return QuatElem(v, 0, 0, 0, params)

    @staticmethod
    def zero(params: RingParams) -> "QuatElem":
        return QuatElem(0, 0, 0, 0, params)

    @staticmethod
    def one(params: RingParams) -> "QuatElem":
        return QuatElem(1, 0, 0, 0, params)

    @staticmethod
    def eps(params: RingParams) -> "QuatElem":
        return QuatElem(0, 1, 0, 0, params)

    @staticmethod
    def pi(params: RingParams) -> "QuatElem":
        return QuatElem(0, 0, 1, 0, params)

    # -- structure ------------------------------------------------------

    def coords(self):
        return (self.a, self.b, self.c, self.d)

    def _check(self, other: "QuatElem"):
        if self.params != other.params:
            raise ParamMismatch("operands live in different quotient rings")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuatElem)
            and self.params == other.params
            and self.coords() == other.coords()
        )

    def __hash__(self):
        return hash((self.coords(), self.params))

    def __bool__(self) -> bool:
        return any(self.coords())

    def __add__(self, other: "QuatElem") -> "QuatElem":
        self._check(other)
        return QuatElem(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d, self.params)

    def __neg__(self) -> "QuatElem":
        return QuatElem(-self.a, -self.b, -self.c, -self.d, self.params)

    def __sub__(self, other: "QuatElem") -> "QuatElem":
        return self + (-other)

    def __mul__(self, other: "QuatElem") -> "QuatElem":
        self._check(other)
        pm = self.params
        return QuatElem(*qmul(self.coords(), other.coords(), pm.p, pm.eps2, pm.modulus), pm)

    def conj(self) -> "QuatElem":
        """Main involution a + b*eps + c*Pi + d*Pi*eps -> a - b*eps - c*Pi - d*Pi*eps."""
        return QuatElem(self.a, -self.b, -self.c, -self.d, self.params)

    def nrd(self) -> int:
        """Reduced norm a^2 - eps2*b^2 - p*(c^2 - eps2*d^2) mod p^ell."""
        pm = self.params
        return qnrd(self.coords(), pm.p, pm.eps2, pm.modulus)

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    def pi_valuation(self):
        """Largest v < 2*ell with the element in Pi^v; None for the zero class.

        None means the class is indistinguishable from zero at this level;
        callers needing the exact valuation must raise ell.
        """
        pm = self.params
        va, vb = pm.val_p(self.a), pm.val_p(self.b)
        vc, vd = pm.val_p(self.c), pm.val_p(self.d)
        v = min(2 * va, 2 * vb, 2 * vc + 1, 2 * vd + 1)
        if v >= 2 * pm.ell:
            return None
        return v

    def __repr__(self) -> str:
        return f"QuatElem{self.coords()}"


class QuatMatrix:
    """Matrix over the quotient ring, stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries", "params")

    def __init__(self, entries, params: RingParams):
        rows = tuple(tuple(r) for r in entries)
        if not rows or not rows[0]:
            raise DimensionMismatch("empty matrix")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            for e in r:
                if e.params != params:
                    raise ParamMismatch("entry from a different quotient ring")
        self.rows = len(rows)
        self.cols = ncols
        self.entries = rows
        self.params = params

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuatMatrix)
            and self.params == other.params
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.entries, self.params))

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        if self.params != other.params:
            raise ParamMismatch("matrices over different quotient rings")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = QuatElem.zero(self.params)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return QuatMatrix(out, self.params)

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            if not self.entries[i][i].is_scalar():
                return False
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != self.entries[j][i].conj():
                    return False
        return True


class HermMatrix(QuatMatrix):
    """Square matrix fixed by the involution; diagonal entries are scalars."""

    def __init__(self, entries, params: RingParams):
        super().__init__(entries, params)
        if not self.is_hermitian():
            raise ValueError("matrix is not hermitian")

"""Exact real algebraic numbers at desk scale.

A real algebraic number is represented as an integer polynomial together
with a rational isolating interval containing exactly one of its real
roots.  Root counting uses Sturm sequences, built over exact rationals;
isolation is bisection on the Sturm count; refinement is sign-change
bisection.  Every sign test, and the refinement, runs in integer
arithmetic: _isign gives the sign of den^n P(num/den), and refine keeps
its bracket as two integers over one common denominator.  Everything is
exact until a caller asks for a float or an mpf; to_mpf imports mpmath,
on first use.

The module also names the constants of the dilogarithm identity catalog;
constant(name) isolates and caches one root on first use, and CONSTANTS,
the dict of all ten, is built on first access (module __getattr__):

    rho     positive root of  x^2 + x - 1          (golden ratio minus one)
    lam     root > 1 of       x^3 - x^2 - 2x + 1   (equals 2 cos(pi/7))
    gamma   root in (0,1) of the same cubic        (equals 1 - 1/lam)
    alpha   root in (0,1) of  x^3 + 2x^2 - x - 1   (equals lam - 1)
    beta    root in (0,1) of  x^3 - 2x^2 - x + 1   (equals 1/lam)
    delta   root in (0,1) of  x^4 + 2x^3 - x - 1   (equals (sqrt(3+2 sqrt 5)-1)/2)
    u_plus  root in (0,1) of  x^4 + x^3 + 3x^2 - 3x - 1
    u_minus root in (-1,0) of the same quartic
    mu      root > 1 of   x^6 - 7x^5 + 19x^4 - 28x^3 + 20x^2 - 7x + 1
    nu      root in (0,1) of the same sextic

Polynomial coefficients are stored constant-first: (c0, c1, ..., cn)
means c0 + c1 t + ... + cn t^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DomainError

# CONSTANTS is left out: a star import would build it (see __getattr__)
__all__ = [
    "IntegerPolynomial",
    "AlgebraicNumber",
    "eval_poly_at",
    "refine",
    "isolate_real_roots",
    "count_real_roots",
    "rational_sqrt",
    "constant",
]

# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction (constant-first coefficient lists)


def _strip(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _isign(c: tuple[int, ...] | list[int], num: int, den: int) -> int:
    """Sign of P(num/den), den > 0, for integer coefficients c: homogeneous Horner."""
    acc, scale = 0, 1
    for coef in reversed(c):
        acc = acc * num + coef * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _fderiv(c: list[Fraction]) -> list[Fraction]:
    return _strip([k * c[k] for k in range(1, len(c))])


def _fdivmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomial division num / den (den nonzero)."""
    num = num[:]
    out = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    dn = len(den) - 1
    lead = den[-1]
    while len(num) - 1 >= dn and _strip(num):
        k = len(num) - 1 - dn
        q = out[k] = num[-1] / lead
        for i, dc in enumerate(den):
            num[k + i] -= q * dc
        num.pop()
        _strip(num)
    return _strip(out), _strip(num)


def _fgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = a[:], b[:]
    while _strip(b):
        a, b = b, _fdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _squarefree(c: list[Fraction]) -> list[Fraction]:
    d = _fderiv(c)
    if not d:
        return c[:]
    g = _fgcd(c, d)
    if len(g) <= 1:
        return c[:]
    quotient, remainder = _fdivmod(c, g)
    if remainder:
        raise ArithmeticError("inexact polynomial division")
    return quotient


def _sturm_chain(c: list[Fraction]) -> list[list[int]]:
    """The Sturm chain of c, each member rescaled to integers by a positive factor."""
    chain = [c, _fderiv(c)]
    while len(chain[-1]) > 0:
        r = [-x for x in _fdivmod(chain[-2], chain[-1])[1]]
        if not r:
            break
        chain.append(r)
    return [_scaled_ints(p) for p in chain]


def _variations(chain: list[list[int]], x: Fraction) -> int:
    num, den = x.as_integer_ratio()
    signs = [s for s in (_isign(p, num, den) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_inf(chain: list[list[int]], positive: bool) -> int:
    # signs of the leading terms; towards -infinity the odd degrees flip
    signs = [(1 if p[-1] > 0 else -1) * (1 if positive or len(p) % 2 else -1)
             for p in chain if p]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


# ---------------------------------------------------------------------------
# public polynomial type


@dataclass(frozen=True)
class IntegerPolynomial:
    """Integer-coefficient polynomial, constant term first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        if not c:
            raise DomainError("zero polynomial")
        if not all(isinstance(k, int) for k in c):
            raise DomainError("coefficients must be integers")
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, x) -> Fraction:
        """Exact evaluation at a rational point."""
        x, acc = Fraction(x), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntegerPolynomial":
        return IntegerPolynomial(
            tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1)
        )

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*t^{k}" if k else f"{c}")
        return " + ".join(parts)


def eval_poly_at(poly: IntegerPolynomial, x) -> Fraction:
    """Exact value of `poly` at the rational point `x`."""
    return poly.eval_at(x)


def _scaled_ints(c: list[Fraction]) -> list[int]:
    """c times the positive lcm of its denominators."""
    den = lcm(*[f.denominator for f in c]) if c else 1
    return [f.numerator * (den // f.denominator) for f in c]


def _to_integer_primitive(c: list[Fraction]) -> tuple[int, ...]:
    ints = _scaled_ints(c)
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# algebraic numbers


class AlgebraicNumber:
    """One real root of an integer polynomial, isolated in [lo, hi].

    The stored polynomial is squarefree and primitive; lo < hi and the
    polynomial changes sign between the endpoints, so the interval
    contains exactly one simple root.  The interval narrows in place as
    refinements are requested (it only ever shrinks, so the represented
    number never changes and sharing across threads stays safe).  When a
    bisection point happens to hit the root exactly, the exact rational
    value is remembered and returned by the float/mpf conversions.
    """

    __slots__ = ("poly", "lo", "hi", "_exact")

    def __init__(self, poly: IntegerPolynomial, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if hi <= lo:
            raise DomainError("isolating interval must satisfy lo < hi")
        self.poly = poly
        self.lo = lo
        self.hi = hi
        self._exact: Fraction | None = None
        slo = _isign(poly.coeffs, *lo.as_integer_ratio())
        shi = _isign(poly.coeffs, *hi.as_integer_ratio())
        if slo == 0 or shi == 0 or slo == shi:
            raise DomainError("interval endpoints must bracket a sign change")

    def refine(self, eps) -> tuple[Fraction, Fraction]:
        """Narrow the isolating interval to width <= eps; returns it."""
        eps = Fraction(eps)
        if eps <= 0:
            raise DomainError("eps must be positive")
        if self.hi - self.lo <= eps:
            return (self.lo, self.hi)
        if self._exact is None:
            # bisect [L/D, H/D]: doubling L, H and D makes the midpoint (L + H) // 2
            D = lcm(self.lo.denominator, self.hi.denominator)
            L, H = int(self.lo * D), int(self.hi * D)
            slo = _isign(self.poly.coeffs, L, D)
            while (H - L) * eps.denominator > eps.numerator * D:
                L, H, D = 2 * L, 2 * H, 2 * D
                M = (L + H) // 2
                sm = _isign(self.poly.coeffs, M, D)
                if sm == 0:
                    self._exact = Fraction(M, D)
                    break
                if sm == slo:
                    L = M
                else:
                    H = M
            self.lo, self.hi = Fraction(L, D), Fraction(H, D)
        if self._exact is not None and self.hi - self.lo > eps:
            # keep a sign-change bracket of the requested width
            w = eps / 4
            self.lo = max(self.lo, self._exact - w)
            self.hi = min(self.hi, self._exact + w)
        return (self.lo, self.hi)

    def to_float(self) -> float:
        """Correctly rounded to double for all catalog-scale roots."""
        self.refine(Fraction(1, 10**20))
        if self._exact is not None:
            return float(self._exact)
        return float((self.lo + self.hi) / 2)

    def to_mpf(self, dps: int = 50):
        from mpmath import mp

        self.refine(Fraction(1, 10 ** (dps + 5)))
        mid = self._exact if self._exact is not None else (self.lo + self.hi) / 2
        with mp.workdps(dps + 10):
            v = mp.mpf(mid.numerator) / mp.mpf(mid.denominator)
        with mp.workdps(dps):
            return +v

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.poly!s}, ~{self.to_float():.12g})"


def refine(a: AlgebraicNumber, eps) -> tuple[Fraction, Fraction]:
    """Functional form of AlgebraicNumber.refine."""
    return a.refine(eps)


def isolate_real_roots(poly: IntegerPolynomial) -> list[AlgebraicNumber]:
    """All real roots of `poly`, in increasing order, each isolated.

    The returned intervals are pairwise disjoint, and their count equals
    the Sturm count of real roots of the squarefree part (multiple roots
    are reported once).
    """
    sf = _squarefree([Fraction(c) for c in poly.coeffs])
    if len(sf) <= 1:
        return []
    ipoly = IntegerPolynomial(_to_integer_primitive(sf))
    ic = ipoly.coeffs
    sf = [Fraction(c) for c in ic]
    chain = _sturm_chain(sf)

    # Cauchy bound: all roots satisfy |t| < 1 + max|c_k / c_n|
    lead = abs(sf[-1])
    bound = 1 + max(abs(c) for c in sf) / lead
    b = Fraction(int(bound) + 1)

    def count_open(lo: Fraction, hi: Fraction) -> int:
        # roots in (lo, hi); both endpoints must be non-roots
        return _variations(chain, lo) - _variations(chain, hi)

    out: list[tuple[Fraction, Fraction, Fraction | None]] = []

    def rec(lo: Fraction, hi: Fraction, n: int):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi, None))
            return
        mid = (lo + hi) / 2
        if _isign(ic, *mid.as_integer_ratio()) == 0:
            # exact rational root at the bisection point: carve out a
            # window around it that contains no other root
            w = (hi - lo) / 4
            while (
                _isign(ic, *(mid - w).as_integer_ratio()) == 0
                or _isign(ic, *(mid + w).as_integer_ratio()) == 0
                or count_open(mid - w, mid + w) != 1
            ):
                w /= 2
            out.append((mid - w, mid + w, mid))
            rec(lo, mid - w, count_open(lo, mid - w))
            rec(mid + w, hi, count_open(mid + w, hi))
        else:
            nl = count_open(lo, mid)
            rec(lo, mid, nl)
            rec(mid, hi, n - nl)

    total = _variations(chain, -b) - _variations(chain, b)
    rec(-b, b, total)
    out.sort(key=lambda iv: iv[0])
    roots = []
    for lo, hi, exact in out:
        r = AlgebraicNumber(ipoly, lo, hi)
        if exact is not None:
            r._exact = exact
        roots.append(r)
    assert len(roots) == total
    return roots


def count_real_roots(poly: IntegerPolynomial, lo=None, hi=None) -> int:
    """Number of distinct real roots, optionally within (lo, hi]."""
    sf = _squarefree([Fraction(c) for c in poly.coeffs])
    if len(sf) <= 1:
        return 0
    chain = _sturm_chain(sf)
    va = _variations(chain, Fraction(lo)) if lo is not None else _variations_inf(chain, False)
    vb = _variations(chain, Fraction(hi)) if hi is not None else _variations_inf(chain, True)
    return va - vb


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = Fraction(x)
    if x < 0:
        raise DomainError("negative radicand")
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# named constants used by the identity catalog


def _root_between(coeffs: tuple[int, ...], lo, hi) -> AlgebraicNumber:
    """The unique root of the polynomial inside [lo, hi].

    Isolating intervals from the bisection can overhang the requested
    window, so each candidate is refined until it lies entirely inside
    or entirely outside.  A root on either end of the window raises
    DomainError: no refinement would ever decide which side it lies on.
    """
    poly = IntegerPolynomial(coeffs)
    lo, hi = Fraction(lo), Fraction(hi)
    if any(_isign(poly.coeffs, *x.as_integer_ratio()) == 0 for x in (lo, hi)):
        raise DomainError(f"a root of {poly} lies on an end of [{lo}, {hi}]")
    picks = []
    for r in isolate_real_roots(poly):
        eps = hi - lo
        while not (r.hi < lo or r.lo > hi or (lo <= r.lo and r.hi <= hi)):
            r.refine(eps)
            eps /= 2
        if lo <= r.lo and r.hi <= hi:
            picks.append(r)
    if len(picks) != 1:
        raise DomainError(f"expected one root of {poly} in [{lo}, {hi}], got {len(picks)}")
    return picks[0]


_CUBIC_LAM = (1, -2, -1, 1)      # t^3 - t^2 - 2t + 1   (roots 2cos(k pi/7))
_QUARTIC_U = (-1, -3, 3, 1, 1)           # t^4 + t^3 + 3t^2 - 3t - 1
_SEXTIC_MU_NU = (1, -7, 20, -28, 19, -7, 1)

# name -> (polynomial, window holding exactly the named root)
_WINDOWS: dict[str, tuple[tuple[int, ...], int, int]] = {
    "rho": ((-1, 1, 1), 0, 1),
    "lam": (_CUBIC_LAM, 1, 2),
    "gamma": (_CUBIC_LAM, 0, 1),
    "alpha": ((-1, -1, 2, 1), 0, 1),         # t^3 + 2t^2 - t - 1
    "beta": ((1, -1, -2, 1), 0, 1),          # t^3 - 2t^2 - t + 1
    "delta": ((-1, -1, 0, 2, 1), 0, 1),      # t^4 + 2t^3 - t - 1
    "u_plus": (_QUARTIC_U, 0, 1),
    "u_minus": (_QUARTIC_U, -1, 0),
    "mu": (_SEXTIC_MU_NU, 1, 29),
    "nu": (_SEXTIC_MU_NU, 0, 1),
}
_ISOLATED: dict[str, AlgebraicNumber] = {}


def constant(name: str) -> AlgebraicNumber:
    """Look up a named catalog constant; its root is isolated on first use."""
    if name not in _ISOLATED:
        try:
            coeffs, lo, hi = _WINDOWS[name]
        except KeyError:
            raise DomainError(f"unknown constant {name!r}") from None
        _ISOLATED.setdefault(name, _root_between(coeffs, lo, hi))  # racing calls keep one
    return _ISOLATED[name]


def __getattr__(name: str):
    # CONSTANTS, the dict of every named constant, is built on first access
    if name == "CONSTANTS":
        globals()[name] = {n: constant(n) for n in _WINDOWS}
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Exact real algebraic numbers at desk scale.

A real algebraic number is represented as an integer polynomial together
with a rational isolating interval containing exactly one of its real
roots.  Root counting uses Sturm sequences, built by primitive integer
pseudo-remainders; isolation is bisection on the Sturm count;
refinement is sign-change bisection.  Every polynomial operation runs
on Python ints: the square-free part and the Sturm chain come from
_prem and _primitive, _isign gives the sign of den^n P(num/den), and
refine keeps its bracket as two integers over one common denominator.
Everything is exact until a caller asks for a float or an mpf; to_mpf
imports mpmath, on first use.

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
    "isolate_real_roots",
    "count_real_roots",
    "rational_sqrt",
    "constant",
]


def _rational(v, what: str) -> Fraction:
    """Fraction(v); DomainError for a non-finite float or a non-number."""
    try:
        return Fraction(v)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{what} must be a finite rational, got {v!r}") from exc


# ---------------------------------------------------------------------------
# dense integer polynomial kernel (constant-first coefficient lists)


def _isign(c: tuple[int, ...] | list[int], num: int, den: int) -> int:
    """Sign of P(num/den), den > 0, for integer coefficients c: homogeneous Horner."""
    acc, scale = 0, 1
    for coef in reversed(c):
        acc = acc * num + coef * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _primitive(c: tuple[int, ...] | list[int]) -> list[int]:
    """A new list: c divided by the gcd of its coefficients (c has no trailing zeros)."""
    g = gcd(*c)
    return [v // g for v in c] if g > 1 else list(c)


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a / b times |lc(b)|^k, some k >= 0; b has no trailing zeros.

    Each step scales the running remainder by |lc(b)|, not lc(b): a positive
    multiple of the true remainder has the same sign at every point, so a
    Sturm chain built from -_prem keeps every sign variation.  With lc(b)^k
    a member would flip sign whenever lc(b) < 0 and k is odd.
    """
    r, n = a[:], len(b) - 1
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(r) > n:
        k, lr = len(r) - 1 - n, r[-1] * sign
        r = [scale * v for v in r]
        for i, bc in enumerate(b):
            r[k + i] -= lr * bc
        while r and r[-1] == 0:
            r.pop()
    return r


def _deriv(c: tuple[int, ...] | list[int]) -> list[int]:
    return [k * c[k] for k in range(1, len(c))]


def _squarefree(c: tuple[int, ...] | list[int]) -> list[int]:
    """The primitive square-free part of c, leading coefficient positive.

    The gcd of p and p' comes from a primitive PRS; p primitive makes the
    quotient p / gcd integral (Gauss's lemma), so the division is exact.
    """
    p = _primitive(c)
    a, b = p, _primitive(_deriv(p))
    while b:
        a, b = b, _primitive(_prem(a, b))
    if len(a) > 1:
        q, n = [0] * (len(p) - len(a) + 1), len(a) - 1
        for k in reversed(range(len(q))):
            q[k] = p[k + n] // a[-1]
            for i, ac in enumerate(a):
                p[k + i] -= q[k] * ac
        p = q
    return [-v for v in p] if p[-1] < 0 else p


def _sturm_chain(c: list[int]) -> list[list[int]]:
    """The Sturm chain of c, each member a positive multiple of the classical one."""
    chain = [c, _primitive(_deriv(c))]
    while r := _primitive([-v for v in _prem(chain[-2], chain[-1])]):
        chain.append(r)
    return chain


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
        x, acc = _rational(x, "x"), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntegerPolynomial":
        return IntegerPolynomial(tuple(_deriv(self.coeffs)))

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*t^{k}" if k else f"{c}")
        return " + ".join(parts)


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
        lo, hi = _rational(lo, "lo"), _rational(hi, "hi")
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
        eps = _rational(eps, "eps")
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
        if not isinstance(dps, int) or dps < 1:
            raise DomainError(f"dps must be an integer of at least 1, got {dps!r}")
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


def isolate_real_roots(poly: IntegerPolynomial) -> list[AlgebraicNumber]:
    """All real roots of `poly`, in increasing order, each isolated.

    The returned intervals are pairwise disjoint, and their count equals
    the Sturm count of real roots of the squarefree part (multiple roots
    are reported once).
    """
    ic = _squarefree(poly.coeffs)
    if len(ic) <= 1:
        return []
    ipoly = IntegerPolynomial(tuple(ic))
    chain = _sturm_chain(ic)

    # Cauchy bound: all roots satisfy |t| < 1 + max|c_k| / c_n, and c_n > 0
    b = Fraction(max(map(abs, ic)) // ic[-1] + 2)

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
    """Number of distinct real roots, optionally within (lo, hi]; lo <= hi."""
    lo, hi = (None if v is None else _rational(v, "window end") for v in (lo, hi))
    if lo is not None and hi is not None and lo > hi:
        raise DomainError(f"window ({lo}, {hi}] has lo > hi")
    sf = _squarefree(poly.coeffs)
    if len(sf) <= 1:
        return 0
    chain = _sturm_chain(sf)
    va = _variations(chain, lo) if lo is not None else _variations_inf(chain, False)
    vb = _variations(chain, hi) if hi is not None else _variations_inf(chain, True)
    return va - vb


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = _rational(x, "radicand")
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

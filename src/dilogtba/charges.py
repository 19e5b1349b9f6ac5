"""Recognition of computed dilogarithm sums against known charge spectra.

A value c is tested against three families:

  * minimal models:      c = 1 - 6/(s t) with s, t coprime integers;
                         s t may be negative, in which case c > 1
  * parafermionic:       c = 2 (n - 1)/(n + 2) for integer n >= 2
  * plain rationals:     c = p/q found by continued-fraction convergents

All families are scanned independently and every match found is
reported; the caller decides which to trust.  Matches are deterministic:
the minimal match minimizes |s t|, the parafermionic match minimizes n,
and (s, t) is normalized so that 0 < s <= |t| with the sign carried by
t, s being the largest divisor of |s t| below the square root that is
coprime to its cofactor.

The minimal and parafermionic values up to (max_st, max_n) form one
sorted Spectrum, built once per bound pair.  recognize reads its
candidates from the Spectrum by bisection, and the search's bounds
prune asks the same Spectrum whether an interval meets it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

__all__ = ["ChargeMatch", "MAX_SPECTRUM_BOUND", "Spectrum", "recognize", "spectrum"]

# largest max_st / max_n: spectrum(10**4, 10**4) holds 29 997 values
MAX_SPECTRUM_BOUND = 10_000


@dataclass(frozen=True)
class ChargeMatch:
    """Matches of a real value against the charge spectra.

    minimal      (s, t) with c = 1 - 6/(st), gcd(s, |t|) = 1, or None
    parafermion  n with c = 2(n-1)/(n+2), or None
    rational     (p, q) in lowest terms with c = p/q, or None
    residual     smallest absolute error among the matches (inf if none)
    """

    minimal: tuple[int, int] | None
    parafermion: int | None
    rational: tuple[int, int] | None
    residual: float

    @property
    def empty(self) -> bool:
        return self.minimal is None and self.parafermion is None and self.rational is None

    def ranked(self) -> list[tuple[str, str]]:
        """(kind, description) pairs: rational, then minimal, then parafermionic."""
        out = []
        if self.rational is not None:
            p, q = self.rational
            out.append(("rational", f"{p}/{q}"))
        if self.minimal is not None:
            s, t = self.minimal
            out.append(("minimal", f"(s,t)=({s},{t}), st={s * t}"))
        if self.parafermion is not None:
            out.append(("parafermion", f"n={self.parafermion}"))
        return out


def _balanced_coprime_split(n: int) -> tuple[int, int]:
    """Largest s <= sqrt(n) with s | n and gcd(s, n/s) = 1; returns (s, n/s)."""
    best = 1
    for k in range(math.isqrt(n), 0, -1):
        if n % k == 0 and math.gcd(k, n // k) == 1:
            best = k
            break
    return best, n // best


def _best_rational(c: float, max_den: int) -> tuple[int, int]:
    """(p, q) of Fraction(c).limit_denominator(max_den), in plain integers.

    The continued fraction of c's exact ratio gives the last convergent
    p1/q1 with q1 <= max_den and the semiconvergent on c's other side
    with the largest denominator allowed; p1/q1 wins ties, as in
    limit_denominator.
    """
    if max_den < 1:
        raise ValueError(f"max_den must be at least 1, got {max_den}")
    n, d = c.as_integer_ratio()
    if d <= max_den:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # p1/q1 lies d/(q1 den) from c, and 1/(q1 (q0 + k q1)) from the
    # semiconvergent
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


@dataclass(frozen=True)
class Spectrum:
    """The minimal and parafermionic charge values, ascending, with labels.

    values  1 - 6/n and 1 + 6/n for n = 2 .. max_st, and 2(n-1)/(n+2)
            for n = 2 .. max_n, each computed by the expression
            recognize measures its errors with
    labels  n for a minimal value, -n for a parafermionic one
    """

    values: tuple[float, ...]
    labels: tuple[int, ...]

    def meets(self, lo: float, hi: float) -> bool:
        """Whether some value lies in [lo, hi]."""
        i = bisect_left(self.values, lo)
        return i < len(self.values) and self.values[i] <= hi


@lru_cache(maxsize=8)
def spectrum(max_st: int, max_n: int) -> Spectrum:
    """The Spectrum for the given bounds, built once per (max_st, max_n).

    It holds 2 (max_st - 1) + max_n - 1 values: 457 for the defaults
    (200, 60).  Bounds above MAX_SPECTRUM_BOUND raise DomainError.
    """
    if max(max_st, max_n) > MAX_SPECTRUM_BOUND:
        raise DomainError(f"spectrum bounds must be at most {MAX_SPECTRUM_BOUND}, "
                          f"got max_st={max_st}, max_n={max_n}")
    entries = [(1.0 - 6.0 / n, n) for n in range(2, max_st + 1)]
    entries += [(1.0 + 6.0 / n, n) for n in range(2, max_st + 1)]
    entries += [(2.0 * (n - 1) / (n + 2), -n) for n in range(2, max_n + 1)]
    entries.sort()
    return Spectrum(tuple(v for v, _ in entries), tuple(n for _, n in entries))


def recognize(
    c: float,
    tol: float = 1e-9,
    max_st: int = 200,
    max_n: int = 60,
    max_den: int = 10_000,
) -> ChargeMatch:
    """Match c (expected in [0, 2]) against the three charge families.

    The minimal-model match is the smallest |st| in 2 .. max_st with
    1 - 6/st or 1 + 6/st within tol, the sign going to the closer one;
    the parafermionic match is the smallest n in 2 .. max_n within tol;
    the rational match uses the best fraction with denominator <=
    max_den.  Nothing matching leaves the corresponding field None;
    residual is the best error over the matches found.

    Candidates come from the spectrum(max_st, max_n) values in
    [c - 2 tol, c + 2 tol]; the doubled window cannot miss a value
    whose rounded error is within tol.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")

    table = spectrum(max_st, max_n)
    lo = bisect_left(table.values, c - 2.0 * tol)
    hi = bisect_right(table.values, c + 2.0 * tol)
    near = [table.labels[i] for i in range(lo, hi) if abs(c - table.values[i]) <= tol]
    errors = []

    minimal = None
    st = min((n for n in near if n > 0), default=None)
    if st is not None:
        err_pos = abs(c - (1.0 - 6.0 / st))
        err_neg = abs(c - (1.0 + 6.0 / st))
        s, t = _balanced_coprime_split(st)
        if err_neg < err_pos:
            minimal = (s, -t)
            errors.append(err_neg)
        else:
            minimal = (s, t)
            errors.append(err_pos)

    parafermion = min((-n for n in near if n < 0), default=None)
    if parafermion is not None:
        errors.append(abs(c - 2.0 * (parafermion - 1) / (parafermion + 2)))

    rational = None
    p, q = _best_rational(c, max_den)
    err = abs(c - p / q)
    if err <= tol:
        rational = (p, q)
        errors.append(err)

    return ChargeMatch(
        minimal=minimal,
        parafermion=parafermion,
        rational=rational,
        residual=min(errors) if errors else math.inf,
    )

"""Normalized Rogers dilogarithm on [0, 1] and its functional equations.

The function computed here is

    L(x) = (6/pi^2) * ( Sum_{n>=1} x^n / n^2  +  (1/2) ln(x) ln(1-x) ),

normalized so that L(0) = 0 and L(1) = 1.  L is strictly increasing on
[0, 1].  Evaluation sums the series directly for x <= 1/2, where it is
geometrically convergent, and uses the reflection property

    L(x) + L(1-x) = 1

for x > 1/2, which avoids the logarithmic singularity of the series
representation near 1.  rogers_L does so in binary64; rogers_L_mp, the
high-precision oracle, in integer fixed point on the exact argument.
rogers_L_mp works at its own dps, never at mpmath's global precision; it
imports mpmath on first use, so binary64-only processes never load it.

Special values (exact):

    L(0) = 0,  L(1-rho) = 2/5,  L(1/2) = 1/2,  L(rho) = 3/5,  L(1) = 1,

where rho = (sqrt(5)-1)/2 is the positive root of x^2 + x = 1.

The residual checkers return |lhs - rhs| for the reflection property,
Abel's duplication formula and the five-term (pentagon) relation; they
exist so that the evaluation path can be tested against the algebra it
is supposed to satisfy.
"""

from __future__ import annotations

import math

from .algebraics import _checked_dps, _rational
from .errors import DomainError

__all__ = ["rogers_L", "rogers_L_mp", "check_reflection", "check_duplication", "check_five_term"]

_SIX_OVER_PI2 = 6.0 / (math.pi * math.pi)

# Series term count is bounded: for x <= 1/2 the terms fall below 1e-20
# after ~64 steps, so a fixed cap guards against float pathologies only.
_MAX_TERMS = 256
# n^2 as floats (exact), the series denominators
_SQUARES = tuple(float(n * n) for n in range(1, _MAX_TERMS + 1))


def _as_unit_float(x) -> float:
    """Coerce to float and check membership in [0, 1]."""
    x = float(x)
    if not math.isfinite(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"argument {x!r} outside [0, 1]")
    return x


def rogers_L(x) -> float:
    """Normalized Rogers dilogarithm L(x) for x in [0, 1]."""
    x = _as_unit_float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > 0.5:
        return 1.0 - rogers_L(1.0 - x)
    terms = []
    append = terms.append
    p = 1.0
    for square in _SQUARES:
        p *= x
        t = p / square
        append(t)
        if t < 1e-20:
            break
    append(0.5 * math.log(x) * math.log1p(-x))
    return _SIX_OVER_PI2 * math.fsum(terms)


def check_reflection(x) -> float:
    """Residual |L(x) + L(1-x) - 1|."""
    x = _as_unit_float(x)
    return abs(rogers_L(x) + rogers_L(1.0 - x) - 1.0)


def check_duplication(x) -> float:
    """Residual of Abel's duplication formula,

        (1/2) L(x^2) = L(x) - L(x/(1+x)),

    valid for x in [0, 1].
    """
    x = _as_unit_float(x)
    return abs(0.5 * rogers_L(x * x) - rogers_L(x) + rogers_L(x / (1.0 + x)))


def check_five_term(x, y) -> float:
    """Residual of the five-term (pentagon) relation

        L(x) + L(y) = L(xy) + L(x(1-y)/(1-xy)) + L(y(1-x)/(1-xy))

    for x, y in [0, 1).  Raises DomainError when xy = 1 (unreachable for
    arguments strictly below 1, but guarded against float edge input).
    """
    x = _as_unit_float(x)
    y = _as_unit_float(y)
    if x == 1.0 or y == 1.0 or x * y == 1.0:
        raise DomainError("five-term relation needs x, y < 1")
    denom = 1.0 - x * y
    lhs = rogers_L(x) + rogers_L(y)
    rhs = (
        rogers_L(x * y)
        + rogers_L(x * (1.0 - y) / denom)
        + rogers_L(y * (1.0 - x) / denom)
    )
    return abs(lhs - rhs)


def _unit_ratio(x) -> tuple[int, int]:
    """(n, d) with n/d = x exactly, 0 <= n <= d and d > 0.

    Ints, floats and mpfs convert as they are; anything else goes through
    Fraction(x), also exact, or raises DomainError if Fraction cannot read it.
    """
    import mpmath

    if not isinstance(x, (int, float, mpmath.mpf)):
        x = _rational(x, "argument")
    if not 0 <= x <= 1:  # also rejects nan
        raise DomainError(f"argument {x!r} outside [0, 1]")
    if isinstance(x, mpmath.mpf):
        man, exp = x.man_exp
        return (man, 1 << -exp) if exp < 0 else (man << exp, 1)
    return x.as_integer_ratio()


def rogers_L_mp(x, dps: int = 200):
    """High-precision L(x) as an mpf of `dps` digits, for x in [0, 1].

    `x` may be an mpf, float, int, or anything Fraction reads (a Fraction,
    a Decimal, "3/10"), all taken exactly; DomainError for anything else,
    x outside [0, 1], or a dps that is not an int of at least 1.
    This is the reference oracle of the test suite and of the
    high-precision identity verification; it shares no code with the
    binary64 path.

    Algorithm: one integer fixed-point pass.  With y = n/d = min(x, 1 - x)
    (exact, and L(x) = 1 - L(y) when x > 1/2) and wp working bits,
    X = floor(y 2^wp) and the series

        S = sum_k X^k / k^2     (p = (p X) >> wp, s += p // k^2)

    runs on Python integers until the term p is 0.  The log term
    (1/2) ln(y) ln(1 - y) comes from mpmath's mpf_log on the exact
    values X 2^-wp and (2^wp - X) 2^-wp; the sum is scaled by 6/pi^2 in
    fixed point, reflected in integers, and rounded once to `dps`
    digits.

    Working precision: with bits = (bits of dps + 10 digits) + 20
    guard bits, wp = bits + d.bit_length() - n.bit_length(), and the
    bit-length difference is within one of -log2 y, so X keeps `bits`
    bits however small y is (near y = 10^-300, ln(1 - y) ~ -y
    survives).  The logs and 6/pi^2 need `bits` of relative precision
    only (mpf_log adds the bits that 1 - y cancels by itself), so their
    cost does not grow as y shrinks.  The series has at most about wp terms, each off by at
    most a unit of 2^-wp, and both parts of the sum are positive, so
    the fixed-point L(y) is good to about 40 bits beyond `dps` digits,
    relative; 1 - L(y) >= 1/2 keeps that.

    Accuracy contract: the relative error of the result is below one
    unit in its last binary place at `dps` digits, 2^(1 - prec) with
    prec = mpmath.libmp.dps_to_prec(dps).  The value is the correctly
    rounded L(x) unless L(x) lies within about 2^-40 units of the last
    place of a rounding boundary.
    """
    import mpmath

    lib = mpmath.libmp
    prec = lib.dps_to_prec(_checked_dps(dps))
    n, d = _unit_ratio(x)
    flip = 2 * n > d
    if flip:
        n = d - n
    if n == 0:
        return mpmath.mp.make_mpf(lib.from_int(int(flip), prec))
    bits = lib.dps_to_prec(dps + 10) + 20
    wp = bits + d.bit_length() - n.bit_length()
    one = 1 << wp
    X = (n << wp) // d
    s = p = X
    k = 1
    while p:
        k += 1
        p = (p * X) >> wp
        s += p // (k * k)
    # relative precision is all the logs and 6/pi^2 need; mpf_log adds
    # the bits that ln(1 - y) cancels by itself
    log_y = lib.mpf_log(lib.from_man_exp(X, -wp), bits)
    log_1y = lib.mpf_log(lib.from_man_exp(one - X, -wp), bits)
    s += lib.to_fixed(lib.mpf_mul(log_y, log_1y), wp - 1)
    pi = lib.pi_fixed(bits)
    r = (s * ((6 << 3 * bits) // (pi * pi))) >> bits
    if flip:
        r = one - r
    return mpmath.mp.make_mpf(lib.from_man_exp(r, -wp, prec, lib.round_nearest))

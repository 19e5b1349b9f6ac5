"""Tests for the normalized Rogers dilogarithm.

Expected decimals were frozen from the mpmath evaluation at 40 digits
(rogers_L_mp, verified against mpmath.polylog directly); functional
equations are checked as residual properties on seeded grids.  The
accuracy contract of rogers_L_mp (relative error below one unit in the
last binary place) is checked against mpmath's polylog and log1p at
40 more digits, on seeded inputs and on arguments near 0 and 1.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dilogtba import (
    DomainError,
    check_duplication,
    check_five_term,
    check_reflection,
    rogers_L,
    rogers_L_mp,
)

RHO = (math.sqrt(5.0) - 1.0) / 2.0


def test_special_values():
    # L(0)=0, L(1-rho)=2/5, L(1/2)=1/2, L(rho)=3/5, L(1)=1
    table = [
        (0.0, 0.0),
        (1.0 - RHO, 0.4),
        (0.5, 0.5),
        (RHO, 0.6),
        (1.0, 1.0),
    ]
    for x, want in table:
        assert abs(rogers_L(x) - want) <= 1e-15


def test_frozen_decimals():
    # mpmath at 40 digits
    assert abs(rogers_L(0.3) - 0.32879310315161342247) <= 2e-16
    assert abs(rogers_L(0.7) - 0.67120689684838657753) <= 2e-16
    assert abs(rogers_L(1.0 / 3.0) - 0.35803119227896059692) <= 2e-16
    assert abs(rogers_L(0.9) - 0.86387383422584938508) <= 2e-16
    assert abs(rogers_L(0.05) - 0.077492334641460603694) <= 2e-16


def test_domain():
    for bad in (-0.1, 1.1, 2.0, -1e-9):
        with pytest.raises(DomainError):
            rogers_L(bad)
    with pytest.raises(DomainError):
        rogers_L(float("nan"))


def test_reflection_property():
    xs = np.linspace(0.0, 1.0, 1001)
    worst = max(abs(check_reflection(float(x))) for x in xs)
    assert worst <= 1e-12


def test_duplication_property():
    xs = np.linspace(1e-6, 1.0 - 1e-6, 999)
    worst = max(abs(check_duplication(float(x))) for x in xs)
    assert worst <= 1e-12


def test_five_term_property():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        x = float(rng.uniform(1e-6, 1.0 - 1e-6))
        y = float(rng.uniform(1e-6, 1.0 - 1e-6))
        worst = max(worst, abs(check_five_term(x, y)))
    assert worst <= 1e-12


def test_five_term_domain():
    with pytest.raises(DomainError):
        check_five_term(1.0, 0.5)


def test_monotone_increasing():
    xs = np.linspace(0.0, 1.0, 2001)
    vals = [rogers_L(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_against_mp_oracle():
    # live high-precision oracle on a dyadic grid
    xs = [k / 256.0 for k in range(257)]
    for x in xs:
        ref = float(rogers_L_mp(x, dps=40))
        assert abs(rogers_L(x) - ref) <= 5e-15, x


def test_mp_special_value():
    with mpmath.workdps(60):
        rho = (mpmath.sqrt(5) - 1) / 2
        res = abs(rogers_L_mp(1 - rho, dps=60) - mpmath.mpf(2) / 5)
        assert res < mpmath.mpf(10) ** -50


def test_mp_reflection():
    with mpmath.workdps(40):
        for x in (mpmath.mpf(1) / 7, mpmath.mpf(3) / 5, mpmath.mpf("0.91")):
            res = abs(rogers_L_mp(x, dps=40) + rogers_L_mp(1 - x, dps=40) - 1)
            assert res < mpmath.mpf(10) ** -35


# ---------------------------------------------------------------------------
# accuracy contract of rogers_L_mp


def _exact(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _oracle(x, dps):
    """6/pi^2 (Li2(x) + ln(x) ln(1 - x)/2) from the exact input at dps + 40
    digits, plus the digits that 1 - x loses near 1, through mpmath's
    polylog and log1p: an evaluation independent of rogers_L_mp."""
    fr = _exact(x)
    lost = -math.floor(math.log10(1 - fr)) if Fraction(1, 2) < fr < 1 else 0
    with mpmath.workdps(dps + 40 + lost):
        xx = mpmath.mpf(fr.numerator) / fr.denominator
        return 6 / mpmath.pi**2 * (mpmath.polylog(2, xx) + mpmath.log(xx) * mpmath.log1p(-xx) / 2)


def _ulps(x, dps):
    """|rogers_L_mp(x, dps) / L(x) - 1| in units of 2^-prec, prec the
    bit precision of dps digits."""
    val, ref = rogers_L_mp(x, dps), _oracle(x, dps)
    assert isinstance(val, mpmath.mpf)
    with mpmath.workdps(dps + 40):
        return float(abs(val / ref - 1) * mpmath.mpf(2) ** mpmath.libmp.dps_to_prec(dps))


def _seeded_inputs():
    rng = random.Random(20260918)
    for _ in range(120):
        dps = rng.randint(15, 200)
        den = rng.randint(2, 10 ** rng.randint(1, 40))
        x = Fraction(rng.randint(1, den - 1), den)
        if rng.random() < 0.5:
            # an mpf input carrying up to 30 more digits than dps
            with mpmath.workdps(dps + rng.randint(0, 30)):
                x = mpmath.mpf(x.numerator) / x.denominator
        yield x, dps


@pytest.mark.parametrize("x, dps", list(_seeded_inputs()))
def test_mp_relative_accuracy_seeded(x, dps):
    # one unit in the last binary place at dps digits
    assert _ulps(x, dps) <= 2.0


@pytest.mark.parametrize("x", [
    Fraction(1, 10**300),
    Fraction(3, 10**80),
    Fraction(1, 10**36),
    Fraction(7, 10**20),
    Fraction(1, 2),
    1 - Fraction(1, 10**20),
    1 - Fraction(1, 10**60),
])
@pytest.mark.parametrize("dps", [15, 30, 60, 200])
def test_mp_relative_accuracy_at_the_ends(x, dps):
    # Tiny arguments keep their relative precision: ln(1 - x) ~ -x must
    # not round to 0 in the log term.
    assert _ulps(x, dps) <= 2.0
    with mpmath.workdps(dps + 70):
        assert _ulps(mpmath.mpf(x.numerator) / x.denominator, dps) <= 2.0


def test_mp_exact_endpoints_and_domain():
    for x, want in ((0, 0), (Fraction(0), 0), (1, 1), (1.0, 1), (mpmath.mpf(1), 1)):
        assert rogers_L_mp(x, dps=30) == want
    for bad in (-1, Fraction(11, 10), 1.5, float("nan"), float("inf"), mpmath.mpf("nan"),
                None, "abc", "1/0", Decimal("inf"), mpmath.mpc(0.5, 0.1)):
        with pytest.raises(DomainError):
            rogers_L_mp(bad, dps=30)


def test_mp_takes_fraction_readable_input_exactly():
    want = rogers_L_mp(Fraction(3, 10), dps=60)
    for x in ("3/10", "0.3", " 0.30 ", Decimal("0.3")):
        assert rogers_L_mp(x, dps=60) == want
    assert rogers_L_mp("1e-300", dps=60) == rogers_L_mp(Fraction(1, 10**300), dps=60)


@pytest.mark.parametrize("dps", [0, -3, 2.5, True, "30", None])
def test_mp_rejects_a_dps_that_is_not_a_positive_int(dps):
    with pytest.raises(DomainError):
        rogers_L_mp(Fraction(3, 10), dps=dps)


def _series_L(x):
    """rogers_L's series, one term at a time, as first written."""
    if x in (0.0, 1.0):
        return x
    if x > 0.5:
        return 1.0 - _series_L(1.0 - x)
    terms, p = [], 1.0
    for n in range(1, 257):
        p *= x
        terms.append(p / (n * n))
        if terms[-1] < 1e-20:
            break
    terms.append(0.5 * math.log(x) * math.log1p(-x))
    return 6.0 / (math.pi * math.pi) * math.fsum(terms)


def test_rogers_L_is_bit_identical_to_the_plain_series():
    rng = random.Random(5)
    xs = [rng.random() for _ in range(20_000)]
    xs += [rng.random() * 10.0 ** -rng.randint(1, 300) for _ in range(2_000)]
    xs += [1.0 - rng.random() * 10.0 ** -rng.randint(1, 16) for _ in range(2_000)]
    xs += [0.0, 1.0, 0.5, 0.25, 5e-324, 0.5 - 2.0**-54]
    assert all(rogers_L(x) == _series_L(x) for x in xs)

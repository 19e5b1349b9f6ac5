"""Tests for central-charge recognition against the three spectra."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilogtba import ChargeMatch, recognize
from dilogtba import charges
from dilogtba.charges import _balanced_coprime_split, _best_rational, spectrum
from dilogtba.errors import DomainError


def test_minimal_model_values():
    m = recognize(4.0 / 7.0)
    assert m.minimal == (2, 7)
    assert m.rational == (4, 7)
    assert m.residual <= 1e-14

    m = recognize(0.7)
    assert m.minimal == (4, 5)  # 1 - 6/20

    m = recognize(0.9)
    assert m.minimal == (5, 12)  # 1 - 6/60

    m = recognize(0.4)
    assert m.minimal == (2, 5)


def test_negative_product_branch():
    # values above 1 arise from negative st
    m = recognize(8.0 / 7.0)
    assert m.minimal == (6, -7)  # 1 + 6/42
    assert m.parafermion == 5    # 2*4/7

    m = recognize(1.2)
    assert m.minimal == (5, -6)  # 1 + 6/30
    assert m.parafermion is None

    m = recognize(2.0)
    assert m.minimal == (2, -3)  # 1 + 6/6


def test_parafermion_values():
    assert recognize(0.5).parafermion == 2
    assert recognize(0.8).parafermion == 3
    assert recognize(1.0).parafermion == 4
    assert recognize(2.0 * 16 / 19.0).parafermion == 17


def test_coexisting_matches():
    # 5/4 is both the n = 6 parafermion and the st = -24 minimal value
    m = recognize(1.25)
    assert m.parafermion == 6
    assert m.minimal == (3, -8)
    assert m.rational == (5, 4)
    kinds = [k for k, _ in m.ranked()]
    assert kinds == ["rational", "minimal", "parafermion"]


def test_unity():
    m = recognize(1.0)
    assert m.minimal is None     # 1 - 6/st never equals 1
    assert m.parafermion == 4
    assert m.rational == (1, 1)


def test_balanced_coprime_split():
    # the (s, t) factorization takes the coprime split closest to sqrt(st)
    assert recognize(1.0 - 6.0 / 12.0).minimal == (3, 4)
    assert recognize(1.0 - 6.0 / 30.0).minimal == (5, 6)
    assert recognize(1.0 - 6.0 / 24.0).minimal == (3, 8)
    assert recognize(1.0 - 6.0 / 60.0).minimal == (5, 12)
    assert recognize(1.0 - 6.0 / 36.0).minimal == (4, 9)


def test_minimal_round_trip():
    for n in range(6, 101):
        for sign in (1, -1):
            c = 1.0 - 6.0 / (sign * n)
            if not (0.0 <= c <= 2.0):
                continue
            m = recognize(c)
            assert m.minimal is not None, (n, sign)
            s, t = m.minimal
            assert s * t == sign * n
            assert math.gcd(abs(s), abs(t)) == 1


def test_parafermion_round_trip():
    for n in range(2, 61):
        c = 2.0 * (n - 1) / (n + 2)
        m = recognize(c)
        assert m.parafermion == n


def test_empty_match():
    m = recognize(0.123456789, tol=1e-10, max_den=100)
    assert m.empty
    assert m.minimal is None and m.parafermion is None and m.rational is None
    assert m.residual == math.inf
    assert m.ranked() == []


def test_no_false_positives():
    # scaled square roots folded into [0, 2): never recognized at tight
    # tolerance and moderate denominator bounds
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        base = float(rng.choice([2, 3, 5, 7, 11]))
        scale = rng.uniform(0.05, 0.9)
        v = (math.sqrt(base) * scale) % 2.0
        m = recognize(float(v), tol=1e-10, max_st=200, max_n=60, max_den=1000)
        assert m.empty, v


def test_rational_matches_reduced():
    m = recognize(0.75)
    assert m.rational == (3, 4)
    m = recognize(1.5)
    assert m.rational == (3, 2)


def test_tolerance_widening():
    # a value 1e-6 off 4/7 is only matched when the tolerance allows
    v = 4.0 / 7.0 + 1e-6
    assert recognize(v, tol=1e-9, max_den=100).empty
    m = recognize(v, tol=1e-5, max_den=100)
    assert m.minimal == (2, 7)


def test_bounds_respected():
    # st = 210 needs max_st >= 210
    c = 1.0 - 6.0 / 210.0
    assert recognize(c, max_st=100, max_den=10).minimal is None
    assert recognize(c, max_st=210, max_den=10).minimal == (14, 15)


def test_spectrum_bounds_are_capped_for_every_caller():
    # a bound above 10^4 would build and cache a table of 2 max_st values
    with pytest.raises(DomainError):
        recognize(0.5, max_st=10**5)
    with pytest.raises(DomainError):
        spectrum(200, 10_001)
    assert charges.MAX_SPECTRUM_BOUND == 10_000
    assert len(spectrum(10_000, 10_000).values) == 29_997


def test_result_type():
    m = recognize(0.5)
    assert isinstance(m, ChargeMatch)
    assert not m.empty


# ---------------------------------------------------------------------------
# the spectrum table against a plain scan of the three families

def _reference_recognize(c, tol, max_st, max_n, max_den):
    """recognize as a scan over n = 2 .. max_st and n = 2 .. max_n."""
    errors = []
    minimal = None
    for n in range(2, max_st + 1):
        err_pos = abs(c - (1.0 - 6.0 / n))
        err_neg = abs(c - (1.0 + 6.0 / n))
        if err_pos <= tol or err_neg <= tol:
            s, t = _balanced_coprime_split(n)
            if err_neg < err_pos:
                minimal = (s, -t)
                errors.append(err_neg)
            else:
                minimal = (s, t)
                errors.append(err_pos)
            break
    parafermion = None
    for n in range(2, max_n + 1):
        err = abs(c - 2.0 * (n - 1) / (n + 2))
        if err <= tol:
            parafermion = n
            errors.append(err)
            break
    rational = None
    fr = F(c).limit_denominator(max_den)
    err = abs(c - float(fr))
    if err <= tol:
        rational = (fr.numerator, fr.denominator)
        errors.append(err)
    return ChargeMatch(minimal=minimal, parafermion=parafermion, rational=rational,
                       residual=min(errors) if errors else math.inf)


# tolerances up to 10 make several minimal values match at once; at
# c = 1 the two signs of the smallest st then tie
_tols = st.floats(-12.0, 1.0).map(lambda e: 10.0 ** e)
_offsets = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-3.0, 3.0)
_uniform = st.tuples(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-0.1, 2.1), _tols)
# c within 3 tol of a minimal value 1 -+ 6/n or a parafermionic value
_near_minimal = st.builds(lambda n, sign, k, tol: (1.0 - sign * 6.0 / n + k * tol, tol),
                          st.integers(2, 260), st.sampled_from([1.0, -1.0]), _offsets, _tols)
_near_parafermion = st.builds(lambda n, k, tol: (2.0 * (n - 1) / (n + 2) + k * tol, tol),
                              st.integers(2, 80), _offsets, _tols)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(point=_uniform | _near_minimal | _near_parafermion,
       max_st=st.sampled_from([1, 2, 3, 6, 200]) | st.integers(1, 260),
       max_n=st.sampled_from([1, 2, 3, 60]) | st.integers(1, 80),
       max_den=st.sampled_from([10, 1000, 10_000]))
def test_table_recognize_matches_the_plain_scan(point, max_st, max_n, max_den):
    c, tol = point
    assert recognize(c, tol, max_st, max_n, max_den) == \
        _reference_recognize(c, tol, max_st, max_n, max_den)


# ---------------------------------------------------------------------------
# the integer continued fraction against Fraction.limit_denominator

_max_dens = st.sampled_from([1, 2, 3, 10, 10_000]) | st.integers(1, 10**7)
_random_values = st.tuples(st.floats(-10.0, 10.0) | st.floats(-1e9, 1e9), _max_dens)
_integers = st.tuples(st.integers(-10**6, 10**6).map(float), _max_dens)


@st.composite
def _near_max_den(draw):
    """p/q with q within 3 of max_den, on either side."""
    max_den = draw(_max_dens)
    q = draw(st.integers(max(1, max_den - 3), max_den + 3))
    return draw(st.integers(-3 * q, 3 * q)) / q, max_den


# halfway between the neighbours m and m + 2^-j (or m + 1 - 2^-j and
# m + 1), whose mediant's denominator 2^j + 1 just exceeds max_den = 2^j:
# a tie, which limit_denominator gives to the last convergent
_halfway = st.builds(lambda m, j, upper: (m + 1 - 2.0 ** -(j + 1) if upper else m + 2.0 ** -(j + 1),
                                          2 ** j),
                     st.integers(-5, 5), st.integers(0, 30), st.booleans())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=_random_values | _integers | _near_max_den() | _halfway)
def test_best_rational_is_limit_denominator(case):
    c, max_den = case
    fr = F(c).limit_denominator(max_den)
    assert _best_rational(c, max_den) == (fr.numerator, fr.denominator)

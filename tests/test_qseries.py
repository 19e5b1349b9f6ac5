"""Tests for exact fermionic q-series expansion and c_eff estimation.

Coefficient oracles are classical partition counts computed here by
independent dynamic programming: the one-variable quadratic form with
A = 1, B = 1 matches partitions into parts congruent to +-2 mod 5, the
A = 1/2, B = 1/2 form matches partitions into distinct parts, and
A = 0, B = 1 gives the unrestricted partition numbers.  Two-variable
expansions are checked exactly against a reference that multiplies the
two partition rows of every lattice point separately.  Truncated
expansions are checked against the adaptive numeric evaluator with the
tail bounded by a longer expansion (the coefficients are nonnegative,
so partial sums increase monotonically).
"""

import math
from fractions import Fraction

import pytest

from dilogtba.errors import (
    DomainError,
    NonTerminatingSeries,
    RangeViolation,
    TailBoundError,
)
from dilogtba.qseries import (
    FORM_SYSTEMS,
    FORMS,
    FermionicForm,
    QSeries,
    estimate_ceff,
    eval_at,
    expand,
    restricted_variant,
    unrestricted_variant,
)
from dilogtba.tba import RationalSymmetricMatrix

F = Fraction


# ---------------------------------------------------------------------------
# exact coefficients against partition-counting oracles

def test_quadratic_form_counts_parts_2_3_mod_5():
    # sum q^(m^2+m)/(q)_m = prod 1/((1-q^(5k+2))(1-q^(5k+3))): the
    # coefficient of q^n counts partitions of n into parts = 2,3 mod 5.
    form = FORMS["chi_2_5"]
    qs = expand(form, F(11, 60) + 20)
    dp = [1] + [0] * 20
    for part in range(1, 21):
        if part % 5 in (2, 3):
            for j in range(part, 21):
                dp[j] += dp[j - part]
    got = [qs.coefficient(F(11, 60) + n) for n in range(21)]
    assert got == dp
    assert got[:9] == [1, 0, 1, 1, 1, 1, 2, 2, 3]


def test_linear_form_counts_all_partitions():
    # sum q^m/(q)_m generates partitions by number of parts, so the
    # coefficients are the unrestricted partition numbers p(n).
    form = FermionicForm(A=F(0), B=(F(1),))
    qs = expand(form, 10)
    dp = [1] + [0] * 10
    for part in range(1, 11):
        for j in range(part, 11):
            dp[j] += dp[j - part]
    assert [qs.coefficient(n) for n in range(11)] == dp
    assert dp == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_half_quadratic_form_counts_distinct_parts():
    # sum q^(m(m+1)/2)/(q)_m = prod (1+q^k): distinct-part counts.
    form = FORMS["chi_3_4"]
    qs = expand(form, F(1, 16) + 14)
    dp = [1] + [0] * 14
    for part in range(1, 15):
        for j in range(14, part - 1, -1):
            dp[j] += dp[j - part]
    assert [qs.coefficient(F(1, 16) + n) for n in range(15)] == dp
    assert dp == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22]


def test_lead_exponent_is_the_minimum():
    qs = expand(FORMS["chi_2_5"], F(11, 60))
    assert qs.to_text() == "11/60 1\n"
    assert F(min(qs.coeffs), qs.denom) == F(11, 60)


def test_negative_lead_shifts_exponents_below_zero():
    qs = expand(FORMS["chi_5_6"], 2)
    assert qs.coefficient(F(-1, 120)) == 1
    assert F(min(qs.coeffs), qs.denom) == F(-1, 120)


def test_two_variable_exponent_formula():
    A = RationalSymmetricMatrix(1, F(1, 2), F(3, 4))
    form = FermionicForm(A=A, B=(F(0), F(-1, 2)))
    # m.A m + B.m at m = (1, 2): 1 + 2*(1/2)*2 + (3/4)*4 - 1 = 5.
    assert form.exponent((1, 2)) == F(5)
    assert form.exponent((0, 0)) == F(0)


# ---------------------------------------------------------------------------
# two-variable expansion against a per-point reference


def _reference_expand(form, order):
    """Exact r = 2 expansion, one lattice point at a time.

    Each point m contributes q^(lead + m.A m + B.m) times the product
    of the two partition rows 1/(q)_m1 and 1/(q)_m2, multiplied out
    term by term.  The box side 2 order + 12 holds every point at or
    below the order for the forms tested here, whose exponents grow at
    least like max(m) - 1.
    """
    order = F(order)
    L = form.lattice_denominator()
    room = order - form.lead
    box = 2 * int(order) + 12
    points = [
        ((m1, m2), form.exponent((m1, m2)))
        for m1 in range(box) for m2 in range(box)
        if form.allows(0, m1) and form.allows(1, m2)
    ]
    points = [(m, e) for m, e in points if e <= room]
    budget = int(room)
    rows = [[1] + [0] * budget]
    for n in range(1, box):
        row = rows[-1][:]
        for j in range(n, budget + 1):
            row[j] += row[j - n]
        rows.append(row)
    coeffs = {}
    for (m1, m2), e in points:
        start = (form.lead + e) * L
        assert start.denominator == 1
        for j1 in range(int(room - e) + 1):
            for j2 in range(int(room - e) + 1 - j1):
                k = int(start) + (j1 + j2) * L
                coeffs[k] = coeffs.get(k, 0) + rows[m1][j1] * rows[m2][j2]
    return QSeries(denom=L, coeffs=coeffs, order=order)


_EXTRA_R2_FORMS = {
    "negative b": FermionicForm(
        A=RationalSymmetricMatrix(1, F(-1, 2), 1), B=(F(1, 2), F(1, 3))
    ),
    "d = 0, B2 > 0": FermionicForm(A=RationalSymmetricMatrix(1, F(1, 2), 0), B=(F(0), F(1))),
    "negative lead": FermionicForm(
        A=RationalSymmetricMatrix(1, F(1, 2), F(1, 2)), B=(F(1), F(1, 2)), lead=F(-7, 3)
    ),
    "mod-3 restriction": restricted_variant(FORMS["chi_4_5"], 0, 3, 1),
}


@pytest.mark.parametrize("name", ["chi_3_7", "chi_5_6", "chi_3_8", "chi_4_5", *_EXTRA_R2_FORMS])
def test_two_variable_expansion_matches_per_point_reference(name):
    form = FORMS.get(name) or _EXTRA_R2_FORMS[name]
    for order in (1, F(23, 6), 12, 30):
        assert expand(form, order) == _reference_expand(form, order), (name, order)


# ---------------------------------------------------------------------------
# congruence restrictions

def test_parity_split_reassembles_unrestricted_sum():
    # Splitting m_2 into even and odd classes partitions the lattice,
    # so the two restricted expansions add up to the unrestricted one.
    for name in ("chi_3_7", "chi_5_6"):
        form = FORMS[name]
        assert form.restrictions is not None and form.restrictions[1] == (2, 0)
        odd = restricted_variant(form, 1, 2, 1)
        both = expand(form, 6) + expand(odd, 6)
        assert both == expand(unrestricted_variant(form), 6)


def test_restricted_variant_validates_index():
    with pytest.raises(DomainError):
        restricted_variant(FORMS["chi_2_5"], 1, 2, 0)


def test_restriction_validation():
    with pytest.raises(DomainError):
        FermionicForm(A=F(1), B=(F(1),), restrictions=((0, 0),))
    with pytest.raises(DomainError):
        FermionicForm(A=F(1), B=(F(1),), restrictions=((2, 2),))
    with pytest.raises(DomainError):
        FermionicForm(A=F(1), B=(F(1),), restrictions=((2, 0), (2, 0)))


def test_vector_length_validation():
    with pytest.raises(DomainError):
        FermionicForm(A=F(1), B=(F(1), F(0)))
    with pytest.raises(DomainError):
        FermionicForm(A=RationalSymmetricMatrix(1, 0, 1), B=(F(0),))


# ---------------------------------------------------------------------------
# QSeries container semantics

def test_addition_aligns_lattices():
    s1 = QSeries(denom=2, coeffs={1: 1}, order=F(2))
    s2 = QSeries(denom=3, coeffs={2: 2}, order=F(1))
    total = s1 + s2
    assert total.denom == 6
    assert total.coeffs == {3: 1, 4: 2}
    assert total.order == F(1)


def test_addition_drops_cancelled_terms():
    s1 = QSeries(denom=2, coeffs={1: 1}, order=F(1))
    s2 = QSeries(denom=2, coeffs={1: -1}, order=F(1))
    assert (s1 + s2).coeffs == {}


def test_coefficient_off_lattice_is_zero():
    qs = QSeries(denom=2, coeffs={1: 5}, order=F(3))
    assert qs.coefficient(F(1, 3)) == 0
    assert qs.coefficient(F(1, 2)) == 5


def test_coefficient_beyond_order_raises():
    qs = expand(FORMS["chi_2_5"], 5)
    with pytest.raises(ValueError):
        qs.coefficient(F(11, 60) + 6)


def test_stored_exponent_beyond_order_raises():
    with pytest.raises(ValueError):
        QSeries(denom=2, coeffs={5: 1}, order=F(1))


def test_eval_at_rejects_q_outside_unit_interval():
    qs = expand(FORMS["chi_2_5"], 5)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            qs.eval_at(bad)
        with pytest.raises(DomainError):
            eval_at(FORMS["chi_2_5"], bad)


def test_to_text_lines_sorted_by_exponent():
    qs = expand(FORMS["chi_2_5"], F(11, 60) + 3)
    lines = qs.to_text().splitlines()
    assert lines[0] == "11/60 1"
    exps = [int(line.split("/")[0]) for line in lines]
    assert exps == sorted(exps)
    for line in lines:
        k_over_l, coeff = line.split()
        assert k_over_l.endswith(f"/{qs.denom}")
        int(coeff)


# ---------------------------------------------------------------------------
# truncation vs adaptive evaluation

def test_expansion_matches_adaptive_eval_with_tail_bound():
    # All coefficients are nonnegative, so the order-24 truncation lies
    # below the full sum and the gap is bounded by the (24, 36] chunk
    # plus a geometric remainder smaller than that chunk again.
    q = 0.3
    for name, form in FORMS.items():
        qs24 = expand(form, 24)
        qs36 = expand(form, 36)
        full = eval_at(form, q)
        diff = full - qs24.eval_at(q)
        chunk = qs36.eval_at(q) - qs24.eval_at(q)
        assert -1e-13 <= diff <= 2 * chunk + 1e-13, name


def test_eval_at_matches_long_expansion_for_small_q():
    # At q <= 0.3 the order-240 truncation is exact to far below 1e-13,
    # so it checks the adaptive tail test, including forms whose parity
    # restriction leaves every other shell nearly empty.
    for name, form in FORMS.items():
        ref = expand(form, 240)
        for i in range(5, 300):
            q = i / 1000
            want = ref.eval_at(q)
            assert abs(eval_at(form, q) - want) <= 1e-13 * want, (name, q)


def test_eval_at_matches_direct_partial_sum():
    q = 0.5
    total, poch = 0.0, 1.0
    terms = []
    for m in range(200):
        if m:
            poch *= 1.0 - q**m
        terms.append(q ** (m * m + m + 11 / 60) / poch)
    total = math.fsum(terms)
    assert abs(total - eval_at(FORMS["chi_2_5"], q)) < 1e-13


def test_eval_at_explicit_cutoff_agrees():
    full = eval_at(FORMS["chi_2_5"], 0.3)
    assert abs(eval_at(FORMS["chi_2_5"], 0.3, cutoff=100) - full) < 1e-13


def test_eval_at_tiny_cutoff_fails_tail_bound():
    with pytest.raises(TailBoundError):
        eval_at(FORMS["chi_2_5"], 0.9, cutoff=3)


# ---------------------------------------------------------------------------
# termination and range screening

def test_zero_form_never_terminates():
    with pytest.raises(NonTerminatingSeries):
        expand(FermionicForm(A=F(0), B=(F(0),)), 5)


def test_negative_quadratic_coefficient_rejected():
    with pytest.raises(RangeViolation):
        expand(FermionicForm(A=F(-1), B=(F(1),)), 5)


def test_decreasing_linear_exponents_rejected():
    with pytest.raises(RangeViolation):
        expand(FermionicForm(A=F(0), B=(F(-1),)), 5)


def test_negative_exponent_on_lattice_rejected():
    with pytest.raises(RangeViolation):
        expand(FermionicForm(A=F(1), B=(F(-3),)), 5)


def test_matrix_outside_entry_range_rejected():
    with pytest.raises(RangeViolation):
        expand(FermionicForm(A=RationalSymmetricMatrix(1, -2, 1), B=(F(0), F(0))), 5)


def test_null_ray_screening():
    # For b < 0 with zero determinant the quadratic form vanishes along
    # a ray; the linear slope there decides between divergence and an
    # infinite repeat.
    A = RationalSymmetricMatrix(1, -1, 1)
    with pytest.raises(NonTerminatingSeries):
        expand(FermionicForm(A=A, B=(F(1), F(-1))), 5)
    with pytest.raises(RangeViolation):
        expand(FermionicForm(A=A, B=(F(-1), F(0))), 5)


def test_zero_diagonal_with_zero_linear_part_rejected():
    A = RationalSymmetricMatrix(0, F(1, 2), 0)
    with pytest.raises(NonTerminatingSeries):
        expand(FermionicForm(A=A, B=(F(0), F(0))), 5)


def test_expand_order_validation():
    with pytest.raises(DomainError):
        expand(FORMS["chi_2_5"], 0)
    with pytest.raises(DomainError):
        expand(FORMS["chi_2_5"], F(-1))


# ---------------------------------------------------------------------------
# effective central charge

def test_catalog_has_seven_forms_with_expected_charges():
    assert set(FORMS) == {
        "chi_2_5", "chi_3_4", "chi_3_5", "chi_3_7",
        "chi_5_6", "chi_3_8", "chi_4_5",
    }
    assert set(FORM_SYSTEMS) == set(FORMS)
    expected = {
        "chi_2_5": F(2, 5), "chi_3_4": F(1, 2), "chi_3_5": F(3, 5),
        "chi_3_7": F(5, 7), "chi_5_6": F(4, 5), "chi_3_8": F(3, 4),
        "chi_4_5": F(7, 10),
    }
    for name, (system, c) in FORM_SYSTEMS.items():
        assert c == expected[name]
        assert FORMS[name].A == system


def test_estimate_ceff_matches_known_charges():
    for name in ("chi_2_5", "chi_3_8"):
        est = estimate_ceff(FORMS[name])
        assert abs(est - float(FORM_SYSTEMS[name][1])) < 1e-3, name


def test_estimate_ceff_eps_validation():
    form = FORMS["chi_2_5"]
    with pytest.raises(DomainError):
        estimate_ceff(form, eps_list=(0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        estimate_ceff(form, eps_list=(0.5, 0.1, 0.05))
    with pytest.raises(DomainError):
        estimate_ceff(form, eps_list=(0.25, 0.1, 0.01))

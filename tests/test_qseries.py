"""Tests for exact fermionic q-series expansion and c_eff estimation.

Coefficient oracles are classical partition counts computed here by
independent dynamic programming: the one-variable quadratic form with
A = 1, B = 1 matches partitions into parts congruent to +-2 mod 5, the
A = 1/2, B = 1/2 form matches partitions into distinct parts, and
A = 0, B = 1 gives the unrestricted partition numbers.  Expansions of
both ranks, on the catalog and on seeded random forms, are checked
exactly against a reference that multiplies the partition rows of every
lattice point separately, and the catalog outputs against recorded
digests and float.hex values.  Truncated
expansions are checked against the adaptive numeric evaluator with the
tail bounded by a longer expansion (the coefficients are nonnegative,
so partial sums increase monotonically).
"""

import hashlib
import itertools
import math
import random
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
# expansion against a per-point reference, both ranks


def _growth_terms(form):
    """(g_i, B_i) with m.A m + B.m >= sum_i (g_i m_i^2 + B_i m_i) on m >= 0.

    A negative off-diagonal A_ij contributes at least
    -|A_ij| (m_i^2 + m_j^2), so g_i is A_ii less the sizes of the
    negative off-diagonals in row i.
    """
    A = form.A
    rows = [[A]] if form.r == 1 else [[A.a, A.b], [A.b, A.d]]
    return [
        (row[i] + sum(v for j, v in enumerate(row) if j != i and v < 0), form.B[i])
        for i, row in enumerate(rows)
    ]


def _box(form, room):
    """Per coordinate, an upper bound on m_i over the points with
    m.A m + B.m <= room, from the separable lower bound of
    _growth_terms (each term convex and unbounded above)."""
    terms = _growth_terms(form)
    assert all(g > 0 or b > 0 for g, b in terms), "no growth bound"

    def f(i, x):
        g, b = terms[i]
        return g * x * x + b * x

    lows = []
    for i in range(form.r):
        x = 0
        while f(i, x + 1) < f(i, x):
            x += 1
        lows.append(f(i, x))
    bounds = []
    for i in range(form.r):
        budget = room - (sum(lows) - lows[i])
        x, last = 0, -1
        while True:
            if f(i, x) <= budget:
                last = x
            elif f(i, x + 1) > f(i, x):
                break
            x += 1
        bounds.append(last)
    return bounds


def _reference_expand(form, order):
    """Exact expansion, one lattice point at a time, for either rank.

    Each point m contributes q^(lead + m.A m + B.m) times the product
    of the partition rows 1/(q)_(m_i), multiplied out term by term.  A
    point at or below the order with a negative m.A m + B.m raises
    RangeViolation, restricted or not.  The points come from the box
    of _box, which holds every point at or below the order.
    """
    order = F(order)
    L = form.lattice_denominator()
    room = order - form.lead
    bounds = _box(form, room)
    budget = max(math.floor(room), 0)
    rows = [[1] + [0] * budget]
    for n in range(1, max(bounds, default=0) + 1):
        row = rows[-1][:]
        for j in range(n, budget + 1):
            row[j] += row[j - n]
        rows.append(row)
    coeffs = {}
    for m in itertools.product(*(range(b + 1) for b in bounds)):
        e = form.exponent(m)
        if e > room:
            continue
        if e < 0:
            raise RangeViolation(f"negative exponent {e} at m={m}")
        if not all(form.allows(i, x) for i, x in enumerate(m)):
            continue
        n = math.floor(room - e)
        series = [1] + [0] * n
        for x in m:
            series = [sum(series[j] * rows[x][i - j] for j in range(i + 1)) for i in range(n + 1)]
        start = (form.lead + e) * L
        assert start.denominator == 1
        for j, c in enumerate(series):
            k = int(start) + j * L
            coeffs[k] = coeffs.get(k, 0) + c
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


def _random_form(rng):
    """A random r = 1 or r = 2 form whose sum terminates, with negative b,
    d = 0, negative B entries and lead, and restrictions among the cases."""
    def frac(lo, hi):
        q = rng.randint(1, 4)
        return F(rng.randint(lo * q, hi * q), q)

    while True:
        r = rng.choice((1, 2))
        if r == 1:
            A = frac(0, 2)
        else:
            a, d = frac(0, 2), frac(0, 2) if rng.random() < 0.8 else F(0)
            b = frac(0, 1) if rng.random() < 0.5 else -rng.choice((0, F(1, 2), 1)) * min(a, d)
            A = RationalSymmetricMatrix(a, b, d)
        restrictions = None
        if rng.random() < 0.3:
            restrictions = tuple(
                (mod, rng.randrange(mod)) if rng.random() < 0.7 else None
                for mod in (rng.randint(1, 3) for _ in range(r))
            )
        form = FermionicForm(
            A=A,
            B=tuple(frac(-1, 2) for _ in range(r)),
            lead=frac(-2, 2) if rng.random() < 0.5 else F(0),
            restrictions=restrictions,
        )
        if all(g > 0 or b > 0 for g, b in _growth_terms(form)):
            return form


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RangeViolation:
        return RangeViolation


def test_expansion_matches_per_point_reference_on_random_forms():
    rng = random.Random(8)
    seen = set()
    for _ in range(1000):
        form = _random_form(rng)
        order = F(rng.randint(1, 72), 6) if rng.random() < 0.5 else rng.randint(1, 12)
        got = _outcome(expand, form, order)
        assert got == _outcome(_reference_expand, form, order), (form, order)
        seen.add((form.r, got is RangeViolation))
    assert seen == {(1, False), (1, True), (2, False), (2, True)}


# sha256 of the expansions to orders 40, 121 and 240 (to_text, joined),
# and float.hex of eval_at at q = 0.05, 0.2, 0.29 and of the default
# estimate_ceff, recorded before the two ranks shared one kernel
_RECORDED = {
    "chi_2_5": ("3085584f3da32b0be303a555728f3ea851e2aeb0507a3bac9564be0c39333de5",
                ("0x1.2868519a44291p-1", "0x1.9044386469e08p-1", "0x1.c8c0d83549378p-1",
                 "0x1.999999999999ap-2")),
    "chi_3_4": ("825f3360efa2a4516e506d5a4e34a525d7f3ed6403380f1c3acbeeb9eeb6fb18",
                ("0x1.befa6fb260687p-1", "0x1.23cee526f18e6p+0", "0x1.56d460618fce9p+0",
                 "0x1.00125c51a5653p-1")),
    "chi_3_5": ("575a00c120cbb69d7fd18030a1e0e0cce7cc97a11b4aeb26c0b8dd2aec767075",
                ("0x1.7097014913f2ap+0", "0x1.065506dc6bd63p+1", "0x1.41434050b3244p+1",
                 "0x1.335f43f7268cdp-1")),
    "chi_3_7": ("0502bf335404ef0b7294c7d529298f8ff21c430edd0fbcdd1e086c85e52472d2",
                ("0x1.09605346a071ap+0", "0x1.4ad0d8f5480bdp+0", "0x1.8aaf198894f3bp+0",
                 "0x1.6db43b4d5e0a2p-1")),
    "chi_5_6": ("1e966bbb70d3100978444cbb51cc3748704fb77542f3ca87777f8868f784baf6",
                ("0x1.15034588e0a12p+0", "0x1.54b1e15c2e561p+0", "0x1.98e06f4807b5bp+0",
                 "0x1.997ba16b20895p-1")),
    "chi_3_8": ("13d9eb5f8c5397f4d82038616cebee6dfc4bf5e6c770f92594892fa9d507444c",
                ("0x1.7395f86d8b0fdp-1", "0x1.12e5617a943d7p+0", "0x1.5aa63aa14ca83p+0",
                 "0x1.7fffffffffffdp-1")),
    "chi_4_5": ("6c34e2765a9e755e9cebc4acaaea149a1116ce5f74ad704b7b5cb2bcf0f52c7d",
                ("0x1.07857d8058fcfp+0", "0x1.4ba801e50b960p+0", "0x1.9049a61e94cd9p+0",
                 "0x1.66666665a95ebp-1")),
}


@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_catalog_outputs_identical_to_recorded(name):
    form = FORMS[name]
    digest = hashlib.sha256()
    for order in (40, 121, 240):
        digest.update(expand(form, order).to_text().encode())
    values = [eval_at(form, q).hex() for q in (0.05, 0.2, 0.29)] + [estimate_ceff(form).hex()]
    assert (digest.hexdigest(), tuple(values)) == _RECORDED[name]


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

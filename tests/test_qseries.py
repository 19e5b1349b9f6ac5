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
import sys
import time
from fractions import Fraction

import pytest

from dilogtba import qseries
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
from dilogtba.qseries import _SHELL_CAP, _allowed, _check_terminates, _points, _row
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
# estimate_ceff, recorded before the two ranks shared one kernel; the
# estimates were re-recorded when the fit became the centered fsum
# least-squares line (numpy's polyfit before), each within 1 ulp of the
# exact least-squares intercept of the same samples
_RECORDED = {
    "chi_2_5": ("3085584f3da32b0be303a555728f3ea851e2aeb0507a3bac9564be0c39333de5",
                ("0x1.2868519a44291p-1", "0x1.9044386469e08p-1", "0x1.c8c0d83549378p-1",
                 "0x1.999999999999bp-2")),
    "chi_3_4": ("825f3360efa2a4516e506d5a4e34a525d7f3ed6403380f1c3acbeeb9eeb6fb18",
                ("0x1.befa6fb260687p-1", "0x1.23cee526f18e6p+0", "0x1.56d460618fce9p+0",
                 "0x1.00125c51a5654p-1")),
    "chi_3_5": ("575a00c120cbb69d7fd18030a1e0e0cce7cc97a11b4aeb26c0b8dd2aec767075",
                ("0x1.7097014913f2ap+0", "0x1.065506dc6bd63p+1", "0x1.41434050b3244p+1",
                 "0x1.335f43f7268cep-1")),
    "chi_3_7": ("0502bf335404ef0b7294c7d529298f8ff21c430edd0fbcdd1e086c85e52472d2",
                ("0x1.09605346a071ap+0", "0x1.4ad0d8f5480bdp+0", "0x1.8aaf198894f3bp+0",
                 "0x1.6db43b4d5e0a3p-1")),
    "chi_5_6": ("1e966bbb70d3100978444cbb51cc3748704fb77542f3ca87777f8868f784baf6",
                ("0x1.15034588e0a12p+0", "0x1.54b1e15c2e561p+0", "0x1.98e06f4807b5bp+0",
                 "0x1.997ba16b20897p-1")),
    "chi_3_8": ("13d9eb5f8c5397f4d82038616cebee6dfc4bf5e6c770f92594892fa9d507444c",
                ("0x1.7395f86d8b0fdp-1", "0x1.12e5617a943d7p+0", "0x1.5aa63aa14ca83p+0",
                 "0x1.7fffffffffffep-1")),
    "chi_4_5": ("6c34e2765a9e755e9cebc4acaaea149a1116ce5f74ad704b7b5cb2bcf0f52c7d",
                ("0x1.07857d8058fcfp+0", "0x1.4ba801e50b960p+0", "0x1.9049a61e94cd9p+0",
                 "0x1.66666665a95edp-1")),
}


@pytest.mark.parametrize("name", sorted(_RECORDED))
def test_catalog_outputs_identical_to_recorded(name):
    form = FORMS[name]
    digest = hashlib.sha256()
    for order in (40, 121, 240):
        digest.update(expand(form, order).to_text().encode())
    values = [eval_at(form, q).hex() for q in (0.05, 0.2, 0.29)] + [estimate_ceff(form).hex()]
    assert (digest.hexdigest(), tuple(values)) == _RECORDED[name]


# sha256 of the expansions to orders 600 and 1000 (to_text, each), where
# chi_5_6 reaches 95-bit coefficients, and float.hex of eval_at at
# q = e^-eps for eps = 0.2, 0.12, 0.07, 0.04, 0.012, recorded before
# expand packed its coefficients into integers
_RECORDED_DEEP = {
    "chi_2_5": (("3394c7b3b073d7dabae35bcce290e822a935f4aa48085ad4ceaa16896fc1053b",
                 "4e7b750cde947a61710127594b2f8328092f1cccf1dbe84d62c00979ba6df0f5"),
                ("0x1.c3875046a4241p+3", "0x1.f9f3ce4329c39p+6", "0x1.8d0d8093f3592p+12",
                 "0x1.bee4198ae35b7p+22", "0x1.216aad1c2691ep+78")),
    "chi_3_4": (("5371f5cb5a87b71946cbca1aae78429406d31b89eabe285222024e84e387235e",
                 "6ad96a10dddd5e9d8fb17afe86071af7822670676183400b2600d15a5a885c8f"),
                ("0x1.5822c627cf9d2p+5", "0x1.4e2d583ae1c6ap+9", "0x1.5d6f8ca090e75p+16",
                 "0x1.1ea03f791cd28p+29", "0x1.4d3c4d4fcfabbp+98")),
    "chi_3_5": (("b6776af5068731668c2173f6576de3f3fc44800b4fda2375e8fb4ad0cb34bded",
                 "dedb36777fee6939d2bb7dc619bcaca19f0e1409f1c9259517e9722c6a012794"),
                ("0x1.4b372f055d13ep+7", "0x1.16e9da04696c5p+12", "0x1.84c5334ba6a51p+20",
                 "0x1.d0ea8b69cd53bp+35", "0x1.e5489b623eb19p+118")),
    "chi_3_7": (("8da13b8109dda32cb714ab6793b3917316a438e8fa5fb60d626841c576935137",
                 "aa1021bf6f7522b7e9a3245ae850a59b3ef300af22dc37639da3d2aeaef675be"),
                ("0x1.731ea1f97610ep+7", "0x1.23212e8f252e3p+13", "0x1.35d7661cbd369p+23",
                 "0x1.5a9b77df56edfp+41", "0x1.3f1c946af5b0bp+140")),
    "chi_3_8": (("16b31c81e5e196cc79db8197f3136ffb41291839348c051736c0717063f76749",
                 "d59e7c89878d0fa936775e3ee68cdc84e3860b7a0ff02ecfc4c91473697d9643"),
                ("0x1.dd787e5a46849p+7", "0x1.c7c13740bd3e8p+13", "0x1.580d327321df6p+24",
                 "0x1.691f2d3c7df24p+43", "0x1.3fd331b31c289p+147")),
    "chi_4_5": (("83ae395a5fca6a12cbccb524e06e018d568878e5c0205dd771970f3985e9151b",
                 "90f0a7319344575c5b4c396761ab9c3b618d40398679e25f1329895b515fc5da"),
                ("0x1.7cbac348bcb32p+7", "0x1.14459dc0e965ap+13", "0x1.ff4c56f0c507dp+22",
                 "0x1.bca8e11862147p+40", "0x1.9fc98b3859c31p+137")),
    "chi_5_6": (("41aaae6783203d81dfc59a12bf3c92c6f86feba8ef10689dc9cf2fc063ff9a13",
                 "4dd77af94bb5c8468ee18d033ceb6d5a068dd9e0ecbf9446f0a4a66a861d224a"),
                ("0x1.33bea3ccdb70ep+8", "0x1.80c17ce148f45p+14", "0x1.d9d3efc5c98b9p+25",
                 "0x1.2c1f214012e8ap+46", "0x1.f7808213d1d44p+156")),
}


@pytest.mark.parametrize("name", sorted(_RECORDED_DEEP))
def test_catalog_deep_outputs_identical_to_recorded(name):
    form = FORMS[name]
    digests = tuple(hashlib.sha256(expand(form, order).to_text().encode()).hexdigest()
                    for order in (600, 1000))
    values = tuple(eval_at(form, math.exp(-eps)).hex() for eps in (0.2, 0.12, 0.07, 0.04, 0.012))
    assert (digests, values) == _RECORDED_DEEP[name]


def test_catalog_coefficients_outgrow_a_machine_word():
    # the pins above hold coefficients wider than 64 bits
    assert max(expand(FORMS["chi_5_6"], 1000).coeffs.values()).bit_length() > 90


def test_expansion_matches_per_point_reference_to_order_40():
    # deeper than the test above, with every kind of form it draws:
    # negative leads and a restriction on either coordinate
    rng = random.Random(40)
    seen = set()
    for _ in range(300):
        form = _random_form(rng)
        order = rng.randint(13, 40) if rng.random() < 0.5 else F(rng.randint(73, 240), 6)
        got = _outcome(expand, form, order)
        assert got == _outcome(_reference_expand, form, order), (form, order)
        if got is not RangeViolation:
            seen.add(("r", form.r))
            seen.add(("negative lead", form.lead < 0))
            for i, res in enumerate(form.restrictions or ()):
                if res is not None and res[0] > 1:
                    seen.add(("restricted", i, form.r))
    assert seen >= {("r", 1), ("r", 2), ("negative lead", True),
                    ("restricted", 0, 1), ("restricted", 0, 2), ("restricted", 1, 2)}


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


_UNDERFLOW_TAIL_FORMS = [
    FermionicForm(
        A=RationalSymmetricMatrix(F(5, 3), F(7, 6), 3), B=(2, F(1, 3)), lead=F(7, 10),
        restrictions=((3, 2), (4, 1)),
    ),
    FermionicForm(A=F(5), B=(F(0),), restrictions=((12, 1),)),
]


@pytest.mark.parametrize("form", _UNDERFLOW_TAIL_FORMS)
def test_eval_at_certifies_an_underflowed_tail(form):
    # The second period of shells (12 long) already sums to exactly 0.0
    # at q = 0.1, so the ratio of period sums never certifies the tail;
    # the terms beyond it underflow, so the tail is exactly zero.
    start = time.perf_counter()
    got = eval_at(form, 0.1)
    assert time.perf_counter() - start < 1.0
    want = expand(form, 60).eval_at(0.1)
    assert got > 0.0
    assert abs(got - want) <= 1e-12 * want


def test_eval_at_returns_zero_when_every_term_underflows():
    # the true value is about 1e-800: every term, the first included,
    # underflows at q = 0.01, so the correctly rounded sum is 0.0
    start = time.perf_counter()
    assert eval_at(FermionicForm(A=F(1), B=(F(0),), lead=F(400)), 0.01) == 0.0
    assert time.perf_counter() - start < 1.0


def test_eval_at_tiny_cutoff_fails_tail_bound():
    with pytest.raises(TailBoundError):
        eval_at(FORMS["chi_2_5"], 0.9, cutoff=3)


def test_eval_at_rejects_a_cutoff_that_is_not_a_count():
    # nan once failed "after max(m)=nan", 2.5 acted as 2, and -1 and
    # True were taken
    for bad in (math.nan, 2.5, 3.0, -1, True, "3"):
        with pytest.raises(DomainError, match="cutoff"):
            eval_at(FORMS["chi_2_5"], 0.3, cutoff=bad)
    want = _reference_eval_at(FORMS["chi_2_5"], 0.3, 100)
    assert eval_at(FORMS["chi_2_5"], 0.3, cutoff=100) == want


# ---------------------------------------------------------------------------
# eval_at against the shell loop it replaced


def _reference_eval_at(form, q, cutoff=None):
    """eval_at as it was before the row walk, kept as the oracle.

    Each shell M walks itertools.product over the outer points, looks
    each row up by its tuple and divides every term by its divisors in
    a loop; eval_at's row walk must give the same float, bit for bit,
    and raise the same exceptions.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must be in (0,1), got {q}")
    _check_terminates(form)

    L, Q, Bn, lead = form.exponent_numerators()
    r, d = len(Bn), Q[-1][-1]
    rows = {}  # outer -> (lead + base, t, its (q)_(m_i)) or ()
    step, first = (form.restrictions or (None,) * r)[-1] or (1, 0)  # m_r = first mod step
    period = math.lcm(*(res[0] for res in form.restrictions or () if res is not None))
    lnq = math.log(q)
    hard_cap = _SHELL_CAP[r]
    limit = min(cutoff, hard_cap) if cutoff is not None else hard_cap

    poch = [1.0]  # (q)_n
    total = 0.0
    block = 0.0  # sum of the shells in the current period
    prev_block = None
    tail = math.inf
    last = None  # largest max(m) whose terms may not underflow
    M = 0
    while M <= limit:
        if M > 0:
            poch.append(poch[-1] * (1.0 - q ** M))
        shell = 0.0
        edge = (M,) if M % step == first else ()  # rows with outer < M hold m_r = M only
        for outer in itertools.product(range(M + 1) if edge else (M,), repeat=r - 1):
            row = rows.get(outer)
            if row is None:
                base, t = _row(Q, Bn, outer)
                allowed = _allowed(form, outer)
                row = rows[outer] = (lead + base, t, [poch[mi] for mi in outer]) if allowed else ()
            if not row:
                continue
            shift, t, divisors = row
            for y in range(first, M + 1, step) if M in outer else edge:
                term = math.exp(lnq * ((shift + (d * y + t) * y) / L))
                for p in divisors:
                    term /= p
                shell += term / poch[y]
        total += shell
        block += shell
        if (M + 1) % period == 0:
            if block == 0.0:
                if last is None:
                    room = math.ceil(746.0 * L / -lnq) - lead
                    shells = (max((*outer, m)) for outer, m, _ in _points(form, room))
                    last = max(shells, default=-1)
                if M >= last:
                    return total
            elif prev_block is not None and 0.0 < block < prev_block:
                ratio = block / prev_block
                tail = block * ratio / (1.0 - ratio)
                if cutoff is None and tail <= 1e-14 * abs(total):
                    return total
            prev_block, block = block, 0.0
        M += 1

    if cutoff is not None and tail <= 1e-14 * abs(total):
        return total
    raise TailBoundError(
        f"tail bound {tail:.3e} not below 1e-14 of the sum after max(m)={min(limit, M - 1)}; "
        "increase the cutoff"
    )


def _eval_outcome(fn, form, q, cutoff):
    """float.hex of the value, or the exception's type and message."""
    try:
        return fn(form, q, cutoff).hex()
    except (ValueError, ArithmeticError, TailBoundError) as exc:
        return type(exc), str(exc)


def _first_subnormal_pochhammer(q, n_max):
    """The least n <= n_max whose (q)_n, formed as eval_at forms it,
    is below the normal range, or None."""
    p = 1.0
    for n in range(1, n_max + 1):
        p *= 1.0 - q ** n
        if p < sys.float_info.min:
            return n
    return None


def _assert_matches_the_reference(form, q, cutoff):
    got = _eval_outcome(eval_at, form, q, cutoff)
    if isinstance(got, tuple) and got[0] is DomainError and "binary64" in got[1]:
        # the reference reached a subnormal (q)_n (or an infinite sum) and
        # went wrong there; the row walk stops at that (q)_n instead
        assert _first_subnormal_pochhammer(q, _SHELL_CAP[form.r]) is not None, (form, q, cutoff)
    else:
        assert got == _eval_outcome(_reference_eval_at, form, q, cutoff), (form, q, cutoff)
    return got


def test_eval_at_matches_the_reference_on_random_forms():
    # both ranks, restricted or not, q over (0.005, 0.99) with e^-eps
    # for eps down to 0.012, and every kind of cutoff
    rng = random.Random(25)
    seen = set()
    for i in range(240):
        form = _random_form(rng)
        if i % 2:
            q = rng.uniform(0.005, 0.99)
        else:
            q = math.exp(-rng.uniform(0.012, 0.3))
        cutoff = rng.choice((None, 0, 3, 20, 60))
        got = _assert_matches_the_reference(form, q, cutoff)
        restricted = any(res is not None and res[0] > 1 for res in form.restrictions or ())
        seen.add((form.r, restricted, got[0] if isinstance(got, tuple) else float))
    assert seen >= {(1, False, float), (1, True, float), (2, False, float), (2, True, float),
                    (1, False, TailBoundError), (2, False, TailBoundError)}


@pytest.mark.parametrize("form", [*_UNDERFLOW_TAIL_FORMS, *FORMS.values()])
def test_eval_at_matches_the_reference_on_the_catalog_and_underflowed_tails(form):
    for q in (0.005, 0.1, 0.5, 0.9, math.exp(-0.04), math.exp(-0.012)):
        for cutoff in (None, 0, 3, 20, 60):
            _assert_matches_the_reference(form, q, cutoff)


def test_eval_at_refuses_q_too_close_to_1_for_binary64():
    # (q)_n leaves the normal range from n = 468 at e^-0.0015, and the
    # old walk went on with it: chi_3_5 read 3.617e279 against a true
    # 6.832e285 and chi_3_4 was off by 2.8e-4; chi_5_6 at e^-0.0018 and
    # the rank-2 forms at e^-0.0016 summed to inf, and every form at
    # e^-0.0012 divided by a (q)_n that had underflowed to 0.0
    cases = [("chi_3_5", 0.0015), ("chi_3_4", 0.0015), ("chi_5_6", 0.0018)]
    cases += [(name, 0.0016) for name, form in FORMS.items() if form.r == 2]
    cases += [(name, 0.0012) for name in FORMS]
    for name, eps in cases:
        with pytest.raises(DomainError, match="q too close to 1 for binary64"):
            eval_at(FORMS[name], math.exp(-eps))
    # no form reaches the limit at eps = 0.002, where the values are the
    # old walk's
    for form in FORMS.values():
        q = math.exp(-0.002)
        assert math.isfinite(eval_at(form, q))
        assert eval_at(form, q).hex() == _reference_eval_at(form, q).hex()


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


def test_estimate_ceff_is_the_exact_least_squares_line_to_2_ulp(monkeypatch):
    # on seeded eps sets, narrow ones such as 0.29/0.28/0.27 among them,
    # against the intercept of the least-squares line through the same
    # float samples s(eps), computed in rationals, in ulps of the largest
    # sample (polyfit was up to 12 ulp off on these sets, and a fit that
    # centers eps but not s up to 237)
    rng = random.Random(7)
    coeffs = {}

    def fake_eval_at(form, q):
        c, k1, k2 = coeffs["now"]
        e = -math.log(q)
        return math.exp(math.pi**2 * (c + k1 * e + k2 * e * e) / (6 * e))

    monkeypatch.setattr(qseries, "eval_at", fake_eval_at)
    for _ in range(300):
        coeffs["now"] = (rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(-1, 1))
        eps = sorted({round(rng.uniform(0.025, 0.294), rng.choice((2, 3, 6)))
                      for _ in range(rng.randint(3, 8))}, reverse=True)
        if len(eps) < 3:
            continue
        s = [F(6.0 * e / math.pi**2 * math.log(fake_eval_at(None, math.exp(-e)))) for e in eps]
        x = [F(e) for e in eps]
        x_bar, s_bar = sum(x) / len(x), sum(s) / len(s)
        slope = (sum((u - x_bar) * v for u, v in zip(x, s))
                 / sum((u - x_bar) ** 2 for u in x))
        exact = s_bar - slope * x_bar
        got = estimate_ceff(FORMS["chi_2_5"], eps_list=eps)
        assert abs(F(got) - exact) <= 2 * F(math.ulp(max(map(abs, s)))), (eps, coeffs["now"])


def test_estimate_ceff_eps_validation():
    form = FORMS["chi_2_5"]
    with pytest.raises(DomainError):
        estimate_ceff(form, eps_list=(0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        estimate_ceff(form, eps_list=(0.5, 0.1, 0.05))
    with pytest.raises(DomainError):
        estimate_ceff(form, eps_list=(0.25, 0.1, 0.01))

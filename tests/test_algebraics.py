"""Tests for integer polynomials, Sturm root isolation, and constants.

Decimal expectations were frozen from mpmath.polyroots at 30 digits;
exact relations (Vieta products, polynomial membership) are checked in
rational arithmetic.
"""

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilogtba
from dilogtba import algebraics
from dilogtba import (
    AlgebraicNumber,
    CONSTANTS,
    DomainError,
    IntegerPolynomial,
    constant,
    count_real_roots,
    isolate_real_roots,
    rational_sqrt,
)
from test_cli import child_env


def test_polynomial_basics():
    p = IntegerPolynomial((-2, 0, 1))  # t^2 - 2
    assert p.degree == 2
    assert p.eval_at(2) == 2
    assert p.eval_at(F(3, 2)) == F(1, 4)
    assert p.derivative().coeffs == (0, 2)
    # trailing zeros trimmed
    assert IntegerPolynomial((1, 1, 0, 0)).degree == 1
    with pytest.raises(DomainError):
        IntegerPolynomial((0, 0))
    with pytest.raises(DomainError):
        IntegerPolynomial((1, 2.5))


def test_isolate_sqrt2():
    roots = isolate_real_roots(IntegerPolynomial((-2, 0, 1)))
    assert len(roots) == 2
    neg, pos = roots
    assert float(neg) == pytest.approx(-math.sqrt(2.0), abs=1e-14)
    assert float(pos) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    lo, hi = pos.refine(F(1, 10**15))
    assert hi - lo <= F(1, 10**15)
    assert lo < hi
    assert float(lo) <= math.sqrt(2.0) <= float(hi)


def test_isolate_cubic_three_roots():
    # (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6
    p = IntegerPolynomial((-6, 11, -6, 1))
    roots = isolate_real_roots(p)
    assert [round(float(r)) for r in roots] == [1, 2, 3]
    # rational roots are detected exactly
    for r, want in zip(roots, (1, 2, 3)):
        assert abs(float(r) - want) <= 1e-15


def test_isolate_close_roots():
    # roots at 0 and 1/128: (128t)(128t - 1) = 16384 t^2 - 128 t
    p = IntegerPolynomial((0, -128, 16384))
    roots = isolate_real_roots(p)
    assert len(roots) == 2
    assert float(roots[0]) == pytest.approx(0.0, abs=1e-15)
    assert float(roots[1]) == pytest.approx(1.0 / 128.0, abs=1e-15)


def test_no_real_roots():
    assert isolate_real_roots(IntegerPolynomial((1, 0, 1))) == []
    assert count_real_roots(IntegerPolynomial((1, 0, 1))) == 0


def test_repeated_roots_counted_once():
    # (t-1)^2
    p = IntegerPolynomial((1, -2, 1))
    roots = isolate_real_roots(p)
    assert len(roots) == 1
    assert float(roots[0]) == pytest.approx(1.0, abs=1e-14)
    assert count_real_roots(p) == 1


def test_count_in_window():
    p = IntegerPolynomial((-6, 11, -6, 1))  # roots 1, 2, 3
    assert count_real_roots(p) == 3
    assert count_real_roots(p, lo=F(3, 2), hi=F(5, 2)) == 1
    assert count_real_roots(p, lo=0, hi=10) == 3
    assert count_real_roots(p, lo=4, hi=10) == 0


def test_isolating_intervals_disjoint():
    p = IntegerPolynomial((1, -7, 20, -28, 19, -7, 1))
    roots = isolate_real_roots(p)
    assert len(roots) >= 2
    for a, b in zip(roots, roots[1:]):
        assert a.hi <= b.lo


def test_bracket_validation():
    p = IntegerPolynomial((-2, 0, 1))
    with pytest.raises(DomainError):
        AlgebraicNumber(p, 2, 1)
    with pytest.raises(DomainError):
        AlgebraicNumber(p, 2, 3)  # no sign change


def test_count_window_must_not_be_inverted():
    p = IntegerPolynomial((-2, 0, 1))
    for lo, hi in ((2, 0), (2, -2), (F(1, 2), F(1, 3))):
        with pytest.raises(DomainError):
            count_real_roots(p, lo, hi)
    assert count_real_roots(p, 2, 2) == 0
    assert count_real_roots(p, -2, 2) == 2


def test_to_mpf_rejects_dps_below_one():
    root = isolate_real_roots(IntegerPolynomial((-2, 0, 1)))[1]
    for dps in (-5, 0):
        with pytest.raises(DomainError):
            root.to_mpf(dps)
    assert float(root.to_mpf(1)) == pytest.approx(1.4, abs=0.05)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda p: count_real_roots(p, _NAN, 1),
    lambda p: count_real_roots(p, 0, _INF),
    lambda p: count_real_roots(p, "x", 1),
    lambda p: AlgebraicNumber(p, 1, _NAN),
    lambda p: AlgebraicNumber(p, -_INF, 2),
    lambda p: constant("rho").refine(_INF),
    lambda p: constant("rho").refine(_NAN),
    lambda p: constant("rho").to_mpf(2.5),
    lambda p: isolate_real_roots(p)[1].to_mpf("30"),
    lambda p: p.eval_at(_NAN),
    lambda p: rational_sqrt(_INF),
], ids=["count-nan", "count-inf", "count-text", "interval-nan", "interval-inf",
        "refine-inf", "refine-nan", "dps-float", "dps-text", "eval-nan", "sqrt-inf"])
def test_non_finite_or_non_numeric_inputs_raise_domain_error(call):
    # a bare ValueError, OverflowError or TypeError escaped before
    with pytest.raises(DomainError):
        call(IntegerPolynomial((-2, 0, 1)))


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(49)) == 7
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(8, 9)) is None
    with pytest.raises(DomainError):
        rational_sqrt(F(-1))


def test_constants_frozen_decimals():
    # mpmath.polyroots at 30 digits
    table = {
        "rho": 0.618033988749895,
        "lam": 1.801937735804838,
        "gamma": 0.445041867912629,
        "alpha": 0.801937735804838,
        "beta": 0.554958132087371,
        "delta": 0.866760399173862,
        "u_plus": 0.884829012582553,
        "u_minus": -0.266795023832658,
        "mu": 3.335794468680031,
        "nu": 0.466143267124808,
    }
    for name, want in table.items():
        got = float(constant(name))
        assert abs(got - want) <= 2e-15, name


def test_constants_are_roots():
    for name, root in CONSTANTS.items():
        lo, hi = root.refine(F(1, 10**12))
        vlo = root.poly.eval_at(lo)
        vhi = root.poly.eval_at(hi)
        assert vlo == 0 or vhi == 0 or (vlo < 0) != (vhi < 0), name


def test_constant_relations():
    rho = float(constant("rho"))
    assert abs(rho * rho + rho - 1.0) <= 1e-15
    # lam and alpha differ by 1: alpha = lam - 1 satisfies the shifted cubic
    assert abs(float(constant("lam")) - float(constant("alpha")) - 1.0) <= 1e-14
    # the two real quartic roots: u+ + u- = rho and u+ u- = -rho^3
    up, um = float(constant("u_plus")), float(constant("u_minus"))
    assert abs(up + um - rho) <= 1e-14
    assert abs(up * um + rho**3) <= 1e-14
    # beta = 1 - gamma (both from degree-3 heptagonal polynomials)
    assert abs(float(constant("beta")) + float(constant("gamma")) - 1.0) <= 1e-14


def test_unknown_constant():
    with pytest.raises(DomainError):
        constant("tau")


# Counts the root isolations that a fresh `import dilogtba` runs, then
# those of one constant() call, which shows that the count sees them.
_ISOLATION_PROBE = """
import json, sys
calls = []
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "isolate_real_roots":
        calls.append(frame.f_code.co_filename)
sys.setprofile(profile)
import dilogtba
at_import = len(calls)
built = "CONSTANTS" in vars(dilogtba.algebraics)
dilogtba.constant("rho")
sys.setprofile(None)
print(json.dumps([at_import, built, len(calls)]))
"""


def test_import_isolates_no_root():
    proc = subprocess.run([sys.executable, "-c", _ISOLATION_PROBE], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False, 1]


def test_constants_on_first_use_are_the_cached_constants():
    assert sorted(CONSTANTS) == ["alpha", "beta", "delta", "gamma", "lam", "mu", "nu",
                                 "rho", "u_minus", "u_plus"]
    for name in CONSTANTS:
        assert constant(name) is CONSTANTS[name], name
    # one dict, the same through the module and the package
    assert algebraics.CONSTANTS is CONSTANTS and dilogtba.CONSTANTS is CONSTANTS
    with pytest.raises(DomainError):
        constant("tau")
    with pytest.raises(AttributeError):
        algebraics.NO_SUCH_NAME
    with pytest.raises(AttributeError):
        dilogtba.NO_SUCH_NAME


def test_to_mpf_precision():
    import mpmath

    rho = constant("rho")
    with mpmath.workdps(40):
        want = (mpmath.sqrt(5) - 1) / 2
        got = rho.to_mpf(dps=40)
        assert abs(got - want) < mpmath.mpf(10) ** -38


# Each window has a root on an endpoint.  Deciding whether that root lies
# inside the window used to refine forever, as the root straddles the end;
# a subprocess with a timeout makes such a regression fail, not hang.
_ROOT_ON_WINDOW_END = """
from fractions import Fraction
from dilogtba import DomainError
from dilogtba.algebraics import _root_between
for coeffs, lo, hi in (((-1, 1), 1, 2), ((-1, 1), 0, 1), ((0, -1, 0, 1), -1, 1),
                       ((-1, 0, 4), 0, Fraction(1, 2))):
    try:
        _root_between(coeffs, lo, hi)
    except DomainError:
        continue
    raise SystemExit(f"no DomainError for {coeffs} on [{lo}, {hi}]")
print("ok")
"""


def test_root_between_rejects_a_root_on_a_window_end():
    proc = subprocess.run([sys.executable, "-c", _ROOT_ON_WINDOW_END], capture_output=True,
                          text=True, env=child_env(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# ---------------------------------------------------------------------------
# Pins of everything that depends on the bisection decisions, recorded with
# the earlier Fraction implementation of the sign tests.  The conversions
# run in a fresh interpreter: the intervals only shrink, so a constant that
# another test refined further would convert to another midpoint.

_NAMES = ("rho", "lam", "gamma", "alpha", "beta", "delta", "u_plus", "u_minus", "mu", "nu")

_CONSTANTS_PROBE = """
import hashlib, json
import mpmath
from dilogtba import constant
NAMES = %r
floats = [repr(constant(n).to_float()) for n in NAMES]
with mpmath.workdps(75):
    mpfs = [str(constant(n).to_mpf(75)) for n in NAMES]
brackets = repr([(constant(n).lo, constant(n).hi, constant(n)._exact) for n in NAMES])
print(json.dumps([floats, mpfs, hashlib.sha256(brackets.encode()).hexdigest()]))
""" % (_NAMES,)

_PINNED_FLOATS = [
    "0.6180339887498949", "1.8019377358048383", "0.4450418679126288", "0.8019377358048383",
    "0.5549581320873712", "0.866760399173862", "0.8848290125825531", "-0.26679502383265824",
    "3.3357944686800307", "0.4661432671248076",
]
_PINNED_MPF75 = [
    "0.618033988749894848204586834365638117720309179805762862135448622705260462819",
    "1.80193773580483825247220463901489010233183832426371430010712484639886484086",
    "0.445041867912628808577805128993589518932711137529089910623974031794842464057",
    "0.801937735804838252472204639014890102331838324263714300107124846398864840856",
    "0.554958132087371191422194871006410481067288862470910089376025968205157535943",
    "0.866760399173862092990872062494719483513184668609827052896807751101526077903",
    "0.884829012582553077372044078127088176835339393956650255132128908305447773974",
    "-0.266795023832658229167457243761450059115030214150887392996680285600187311155",
    "3.33579446868003064421704458075298396436391739264664608963405518605970995764",
    "0.466143267124807608255160058261906137967920931617068210473069660339154883221",
]
# sha256 of repr([(lo, hi, _exact), ...]) of the ten constants after to_mpf(75)
_PINNED_BRACKETS = "75732243847bea2e909821bf1c1b7fd202c67500441fb60fb3a681ef2a068f0b"


def test_constant_conversions_are_pinned():
    proc = subprocess.run([sys.executable, "-c", _CONSTANTS_PROBE], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    floats, mpfs, brackets = json.loads(proc.stdout)
    assert floats == _PINNED_FLOATS
    assert mpfs == _PINNED_MPF75
    assert brackets == _PINNED_BRACKETS


# sha256 of the stdout of `verify-identities --json --precision P [--cross-check]`;
# the cross-check pins were re-recorded when positive semidefinite
# systems moved to Newton (their c moved in the last bits), and all six
# when JSON documents became one line
_PINNED_VERIFY = {
    ("1e-12", False): "3f13cb3fd23fda919bcf87b57811d4954ba5631b9eddbe40ffacb2e05b27f590",
    ("1e-12", True): "39e76bf238b7d7e4bd34d4099601aba4c8532d75bc224e75ba997d72c33153f4",
    ("1e-30", False): "d3ad4655e907c55986a18c041936259d670a71061d72e33e0f4cdc67064f7f6f",
    ("1e-30", True): "0cbeb50386f6b5517cac232cbbc371c5a472d2d863b9c19fb83552c7442e307e",
    ("1e-60", False): "4a383417a1540ceb6d5b22282fb9aa3d69f965dbdb7908eb359253e73b02be50",
    ("1e-60", True): "85124e909e6aacb5378626eaf576b6bc843a0cfe1abdbfe55dca71f559a0cc8b",
}


@pytest.mark.parametrize("precision,cross_check", sorted(_PINNED_VERIFY))
def test_verify_identities_json_is_pinned(precision, cross_check):
    argv = [sys.executable, "-m", "dilogtba.cli", "verify-identities", "--json",
            "--precision", precision] + ["--cross-check"] * cross_check
    proc = subprocess.run(argv, capture_output=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == _PINNED_VERIFY[precision, cross_check]


def _expand(*roots):
    """Constant-first integer coefficients of the product of (q t - p), p/q in roots."""
    c = [1]
    for r in roots:
        p, q = F(r).as_integer_ratio()
        c = [q * b - p * a for a, b in zip(c + [0], [0] + c)]
    return tuple(c)


# Repeated roots, close roots, rational roots on bisection points (three of
# the intervals carry an exact root) and the catalog polynomials.
_STURM_SAMPLE = [
    (1, -2, 1), (-2, 5, -4, 1), (0, -1, 0, 1), (0, -128, 16384), (1, -2001, 1001000),
    (-6, 11, -6, 1), (-2, 0, 1), (1, 0, 1), (-1, 1, 1), (1, -2, -1, 1), (-1, -3, 3, 1, 1),
    (1, -7, 20, -28, 19, -7, 1), (-1, -1, 0, 2, 1), (3, -8, 4),
    _expand(1, 1, 1, -1, -1), _expand(*range(1, 9)), _expand(2, 2, F(1, 3), F(1, 3), F(-5, 7)),
    _expand(4, -4, 0, F(1, 2)), _expand(F(3, 4), F(3, 4)), (-3, 0, 0, 0, 0, 1),
]
_STURM_WINDOWS = [(None, None), (0, 1), (1, 2), (-1, 0), (F(1, 3), F(5, 2)), (-4, 4)]
_PINNED_COUNTS = [
    [1, 1, 0, 0, 1, 1], [2, 1, 1, 0, 2, 2], [3, 1, 0, 1, 1, 3], [2, 1, 0, 1, 0, 2],
    [2, 2, 0, 0, 0, 2], [3, 1, 1, 0, 2, 3], [2, 0, 1, 0, 1, 2], [0, 0, 0, 0, 0, 0],
    [2, 1, 0, 0, 1, 2], [3, 1, 1, 0, 2, 3], [2, 1, 0, 1, 1, 2], [2, 1, 0, 0, 1, 2],
    [2, 1, 0, 0, 1, 2], [2, 1, 1, 0, 2, 2], [2, 1, 0, 0, 1, 2], [8, 1, 1, 0, 2, 4],
    [3, 1, 1, 1, 1, 3], [4, 1, 0, 1, 1, 3], [1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 1, 1],
]
# sha256 of repr of the (lo, hi, _exact) lists that isolate_real_roots returns
_PINNED_ISOLATION = "013975cb6e645ff7cc7fbca6a5a5ca8ddc977c5a85acddacbc689688f400e816"


def test_sturm_counts_and_isolation_are_pinned():
    counts = [[count_real_roots(IntegerPolynomial(c), lo, hi) for lo, hi in _STURM_WINDOWS]
              for c in _STURM_SAMPLE]
    assert counts == _PINNED_COUNTS
    iso = [[(r.lo, r.hi, r._exact) for r in isolate_real_roots(IntegerPolynomial(c))]
           for c in _STURM_SAMPLE]
    assert sum(e is not None for roots in iso for _, _, e in roots) == 3
    assert hashlib.sha256(repr(iso).encode()).hexdigest() == _PINNED_ISOLATION


# ---------------------------------------------------------------------------
# refine against the Fraction bisection it replaced, kept here verbatim as
# the oracle: equal brackets and exact hits for any sequence of requests.


def _sign(x):
    return (x > 0) - (x < 0)


def _feval(c, x):
    acc = F(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


class _FractionBisection:
    def __init__(self, root):
        self.lo, self.hi, self._exact = root.lo, root.hi, root._exact
        self._fr = [F(c) for c in root.poly.coeffs]

    def refine(self, eps):
        """Narrow the isolating interval to width <= eps; returns it."""
        eps = F(eps)
        if eps <= 0:
            raise DomainError("eps must be positive")
        if self.hi - self.lo <= eps:
            return (self.lo, self.hi)
        slo = _sign(_feval(self._fr, self.lo))
        while self.hi - self.lo > eps:
            if self._exact is not None:
                # keep a sign-change bracket of the requested width
                w = eps / 4
                self.lo = max(self.lo, self._exact - w)
                self.hi = min(self.hi, self._exact + w)
                break
            mid = (self.lo + self.hi) / 2
            sm = _sign(_feval(self._fr, mid))
            if sm == 0:
                self._exact = mid
                continue
            if sm == slo:
                self.lo = mid
            else:
                self.hi = mid
        return (self.lo, self.hi)


def _assert_refines_like_the_oracle(root, epss):
    oracle = _FractionBisection(root)
    for eps in epss:
        assert root.refine(eps) == oracle.refine(eps)
        assert (root.lo, root.hi, root._exact) == (oracle.lo, oracle.hi, oracle._exact)
        assert type(root.lo) is type(root.hi) is F


_polys = st.lists(st.integers(-30, 30), min_size=2, max_size=7).filter(lambda c: c[-1] != 0)
_eps = st.one_of(st.integers(1, 300).map(lambda k: F(1, 2**k)),
                 st.integers(1, 90).map(lambda k: F(1, 10**k)),
                 st.fractions(min_value=F(1, 10**40), max_value=3))
# one shot, stepwise finer, or any order (coarse after fine)
_schedules = st.one_of(_eps.map(lambda e: [e]),
                       st.lists(_eps, min_size=2, max_size=6).map(lambda es: sorted(es)[::-1]),
                       st.lists(_eps, min_size=2, max_size=6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(coeffs=_polys, schedule=_schedules)
def test_refine_matches_fraction_bisection(coeffs, schedule):
    for root in isolate_real_roots(IntegerPolynomial(tuple(coeffs))):
        _assert_refines_like_the_oracle(root, schedule)


_widenings = st.fractions(min_value=0, max_value=2, max_denominator=60)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(coeffs=_polys, below=_widenings, above=_widenings, schedule=_schedules)
def test_refine_matches_fraction_bisection_on_wider_brackets(coeffs, below, above, schedule):
    # isolating intervals widened to mostly non-dyadic endpoints; the
    # wider bracket may hold three roots, or none with a sign change
    poly = IntegerPolynomial(tuple(coeffs))
    for root in isolate_real_roots(poly):
        try:
            wider = AlgebraicNumber(poly, root.lo - below, root.hi + above)
        except DomainError:
            continue
        _assert_refines_like_the_oracle(wider, schedule)


def test_refine_matches_fraction_bisection_examples():
    schedules = ([F(1, 10**60)], [F(1, 2**k) for k in range(0, 120, 7)],
                 [F(1, 10**30), F(1, 10), F(1, 10**80), F(1, 10**5)])
    for schedule in schedules:
        # non-dyadic endpoints around 1/sqrt(2)
        _assert_refines_like_the_oracle(AlgebraicNumber(IntegerPolynomial((-1, 0, 2)),
                                                        F(1, 3), F(5, 7)), schedule)
        # the first midpoint is the root
        half = AlgebraicNumber(IntegerPolynomial((-1, 2)), 0, 1)
        _assert_refines_like_the_oracle(half, schedule)
        assert half._exact == F(1, 2)
        # an exact root found by the isolation
        _assert_refines_like_the_oracle(isolate_real_roots(IntegerPolynomial((0, -1, 0, 1)))[1],
                                        schedule)
        for name in _NAMES:
            coeffs, lo, hi = algebraics._WINDOWS[name]
            _assert_refines_like_the_oracle(algebraics._root_between(coeffs, lo, hi), schedule)


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction polynomial helpers it replaced,
# kept here verbatim as the oracle: the same square-free part, a Sturm chain
# whose members are positive multiples of the Fraction chain's, and so the
# same counts and isolating intervals.


def _strip(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c



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


def _oracle_count(poly, lo=None, hi=None):
    sf = _squarefree([Fraction(c) for c in poly.coeffs])
    if len(sf) <= 1:
        return 0
    chain = _sturm_chain(sf)
    variations, variations_inf = algebraics._variations, algebraics._variations_inf
    va = variations(chain, Fraction(lo)) if lo is not None else variations_inf(chain, False)
    vb = variations(chain, Fraction(hi)) if hi is not None else variations_inf(chain, True)
    return va - vb


def _oracle_isolation(poly, monkeypatch):
    """isolate_real_roots with the Fraction square-free part and Sturm chain."""
    with monkeypatch.context() as m:
        m.setattr(algebraics, "_squarefree",
                  lambda c: list(_to_integer_primitive(_squarefree([Fraction(x) for x in c]))))
        m.setattr(algebraics, "_sturm_chain", lambda c: _sturm_chain([Fraction(x) for x in c]))
        return [(r.lo, r.hi, r._exact) for r in isolate_real_roots(poly)]


def _mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def _random_poly(rng):
    """Degree <= 10: a sparse random part, often times a repeated factor, a power
    of t and a content; the leading coefficient takes either sign."""
    c = [rng.choice((0, 0, *range(-9, 10))) for _ in range(rng.randint(1, 6))]
    c.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    if rng.random() < 0.5:
        factor = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))] + [rng.randint(1, 2)]
        for _ in range(rng.choice((2, 3))):
            if len(c) + len(factor) - 2 <= 10:
                c = _mul(c, factor)
    if rng.random() < 0.25 and len(c) <= 10:
        c = [0] + c
    return IntegerPolynomial(tuple(rng.choice((-6, -4, -1, 1, 3)) * v for v in c))


def _assert_kernel_matches_the_oracle(poly, monkeypatch):
    fr = [Fraction(c) for c in poly.coeffs]
    sf = algebraics._squarefree(poly.coeffs)
    assert tuple(sf) == _to_integer_primitive(_squarefree(fr))
    if len(sf) > 1:
        # the Cauchy bound in integers equals the one computed over Fraction
        assert max(map(abs, sf)) // sf[-1] + 2 == int(1 + Fraction(max(map(abs, sf)), sf[-1])) + 1
        chain, oracle = algebraics._sturm_chain(sf), _sturm_chain([Fraction(c) for c in sf])
        assert len(chain) == len(oracle)
        for new, old in zip(chain, oracle):
            assert len(new) == len(old)
            ratio = Fraction(new[-1], old[-1])
            assert ratio > 0 and all(n == ratio * o for n, o in zip(new, old))
    for lo, hi in _STURM_WINDOWS:
        assert count_real_roots(poly, lo, hi) == _oracle_count(poly, lo, hi), (poly, lo, hi)
    got = [(r.lo, r.hi, r._exact) for r in isolate_real_roots(poly)]
    assert got == _oracle_isolation(poly, monkeypatch), poly


def test_integer_kernel_matches_the_fraction_oracle(monkeypatch):
    rng = random.Random(20261019)
    polys = [_random_poly(rng) for _ in range(400)]
    polys += [IntegerPolynomial(c) for c in _STURM_SAMPLE]
    assert any(p.coeffs[-1] < 0 for p in polys) and any(p.coeffs[0] == 0 for p in polys)
    assert any(gcd(*p.coeffs) > 1 for p in polys)
    assert any(len(algebraics._squarefree(p.coeffs)) < len(p.coeffs) for p in polys)
    for poly in polys:
        _assert_kernel_matches_the_oracle(poly, monkeypatch)


def test_integer_kernel_coefficient_growth_is_bounded(monkeypatch):
    # twelve distinct rational roots: the primitive PRS keeps the chain's
    # coefficients at 254 bits and both calls at a few ms; without the
    # content division they grow to 439 260 bits and take about a second
    poly = IntegerPolynomial(_expand(F(1, 2), F(-2, 3), 3, F(5, 4), -1, F(7, 5), F(-3, 7), 2,
                                     F(1, 8), F(-9, 4), F(11, 6), F(13, 9)))
    assert poly.degree == 12
    start = time.perf_counter()
    assert count_real_roots(poly) == 12
    assert len(isolate_real_roots(poly)) == 12
    assert time.perf_counter() - start < 0.25
    chain = algebraics._sturm_chain(algebraics._squarefree(poly.coeffs))
    assert max(abs(c).bit_length() for p in chain for c in p) <= 512
    _assert_kernel_matches_the_oracle(poly, monkeypatch)

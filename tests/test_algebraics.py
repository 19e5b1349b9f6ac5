"""Tests for integer polynomials, Sturm root isolation, and constants.

Decimal expectations were frozen from mpmath.polyroots at 30 digits;
exact relations (Vieta products, polynomial membership) are checked in
rational arithmetic.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction as F

import pytest

import dilogtba
from dilogtba import algebraics
from dilogtba import (
    AlgebraicNumber,
    CONSTANTS,
    DomainError,
    IntegerPolynomial,
    constant,
    count_real_roots,
    eval_poly_at,
    isolate_real_roots,
    rational_sqrt,
    refine,
)
from test_cli import child_env


def test_polynomial_basics():
    p = IntegerPolynomial((-2, 0, 1))  # t^2 - 2
    assert p.degree == 2
    assert p.eval_at(2) == 2
    assert eval_poly_at(p, F(3, 2)) == F(1, 4)
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
    lo, hi = refine(pos, F(1, 10**15))
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

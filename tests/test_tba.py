"""Tests for the TBA fixed-point solvers.

Coordinate expectations come from the closed algebraic forms (checked
independently in test_algebraics); an in-test damped fixed-point
iteration serves as an independent oracle for the scan-plus-bisection
solver.
"""

import math
from collections import OrderedDict
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dilogtba import (
    DomainError,
    INFINITY,
    RangeViolation,
    RationalSymmetricMatrix as M,
    ScanFailure,
    c_of,
    check_range,
    constant,
    delta_fn,
    kappa,
    reduced_f,
    rogers_L,
    solve_r1,
    solve_r2,
)
from dilogtba import tba
from dilogtba.tba import _exponents, _scan_block, forces_xy_one, prescan

RHO = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# matrix type


def test_matrix_exactness():
    A = M(F(1, 2), F(-1, 3), F(2))
    assert A.a == F(1, 2) and A.b == F(-1, 3) and A.d == F(2)
    assert A.D == F(1, 2) * 2 - F(1, 9)
    assert A.entries == (F(1, 2), F(-1, 3), F(2))
    assert A.max_denominator() == 3
    with pytest.raises(DomainError):
        M(0.5, F(1), F(1))
    with pytest.raises(DomainError):
        M(F(1), True, F(1))


def test_matrix_helpers():
    A = M(3, 1, 2)
    assert A.scaled(F(1, 2)).entries == (F(3, 2), F(1, 2), F(1))
    assert A.swapped().entries == (F(2), F(1), F(3))
    B, swapped = M(1, 5, 4).canonical()
    assert swapped and B.entries == (F(4), F(5), F(1))
    B2, swapped2 = M(4, 5, 1).canonical()
    assert not swapped2 and B2.entries == (F(4), F(5), F(1))
    assert str(M(2, F(5, 2), 1)) == "(2 5/2; 5/2 1)"


def test_check_range():
    assert check_range(M(2, 1, 1))
    assert check_range(M(1, -1, 1))          # b = -min(a, d) allowed
    assert check_range(M(0, 0, 0))
    assert not check_range(M(-1, 0, 1))      # negative diagonal
    assert not check_range(M(4, F(-3, 2), 1))  # b < -min(a, d)
    assert not check_range(M(1, F(-9, 8), 2))


# ---------------------------------------------------------------------------
# kappa / delta


def test_kappa_special_values():
    assert kappa(0) == 1.0
    assert kappa(F(1, 2)) == 0.5
    assert kappa(INFINITY) == 0.0
    assert abs(kappa(1) - (1.0 - RHO)) <= 1e-15
    # kappa(1/4) solves xi^2 = 1 - xi, i.e. the golden constant
    assert abs(kappa(F(1, 4)) - RHO) <= 1e-15


def test_kappa_domain():
    with pytest.raises(DomainError):
        kappa(F(-1, 2))
    with pytest.raises(DomainError):
        kappa(0.3)  # inexact float rejected
    with pytest.raises(DomainError):
        kappa(float("nan"))
    with pytest.raises(DomainError):
        kappa(None)


def test_kappa_self_consistency():
    # xi = (1-xi)^(2t) to 1e-12 across [0, 10]
    worst = 0.0
    for k in range(0, 401):
        t = F(k, 40)
        x = kappa(t)
        worst = max(worst, abs(x - (1.0 - x) ** (2.0 * float(t))))
    assert worst <= 1e-12


def test_kappa_monotone_decreasing():
    vals = [kappa(F(k, 8)) for k in range(0, 81)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_delta_values():
    assert delta_fn(0) == 1.0
    assert abs(delta_fn(1) - 0.4) <= 1e-15
    assert abs(delta_fn(F(1, 2)) - 0.5) <= 1e-15
    assert abs(delta_fn(F(1, 4)) - 0.6) <= 1e-15
    assert delta_fn(INFINITY) == 0.0


# ---------------------------------------------------------------------------
# r = 1


def test_solve_r1_spectrum():
    table = [
        (INFINITY, 0.0),
        (1, 0.4),
        (F(1, 2), 0.5),
        (F(1, 4), 0.6),
        (0, 1.0),
    ]
    for a, want in table:
        sol = solve_r1(a)
        assert abs(sol.c - want) <= 1e-12
        assert sol.y is None
        assert sol.multiplicity == 1
        assert sol.residual <= 1e-12


# ---------------------------------------------------------------------------
# r = 2 solver


def test_solve_r2_heptagonal():
    # x = 1/(lam^2-1)^2, y = 1/lam^2 with lam the positive heptagonal root
    lam = float(constant("lam"))
    sol = solve_r2(M(2, 1, 1))
    assert abs(sol.x - 1.0 / (lam * lam - 1.0) ** 2) <= 1e-12
    assert abs(sol.y - 1.0 / (lam * lam)) <= 1e-12
    assert abs(sol.c - 4.0 / 7.0) <= 1e-13
    assert sol.residual <= 1e-12
    assert sol.multiplicity == 1
    assert not sol.boundary_flag
    assert sol.interior == ((sol.x, sol.y),)


def test_reduced_equation_root():
    lam = float(constant("lam"))
    assert abs(reduced_f(M(2, 1, 1), 1.0 / (lam * lam)) - 1.0) <= 1e-12


def test_solve_r2_decoupled():
    # b = 0 splits into two rank-1 systems
    sol = solve_r2(M(1, 0, F(1, 2)))
    assert abs(sol.x - kappa(1)) <= 1e-15
    assert abs(sol.y - 0.5) <= 1e-15
    assert abs(sol.c - 0.9) <= 1e-13


def test_solve_r2_orientation():
    # (a, d) swap exchanges the coordinates and keeps c
    s1 = solve_r2(M(2, 1, 1))
    s2 = solve_r2(M(1, 1, 2))
    assert abs(s1.x - s2.y) <= 1e-12
    assert abs(s1.y - s2.x) <= 1e-12
    assert abs(s1.c - s2.c) <= 1e-13


def test_boundary_with_interior():
    # d = 0, 0 < b < 1/2: one interior solution plus the boundary pair
    sol = solve_r2(M(F(1, 4), F(1, 4), 0))
    assert sol.boundary_flag
    assert not sol.principal_is_boundary
    assert sol.multiplicity == 1
    assert (0.0, 1.0) in sol.boundary
    alpha = float(constant("alpha"))
    assert abs(sol.y - alpha) <= 1e-12
    assert abs(sol.x - (1.0 - alpha * alpha)) <= 1e-12
    assert abs(sol.c - 8.0 / 7.0) <= 1e-12


def test_boundary_only():
    # d = 0, b >= 1/2: the boundary pair is the only solution
    sol = solve_r2(M(F(1, 2), F(1, 2), 0))
    assert sol.principal_is_boundary
    assert not sol.boundary_flag
    assert sol.multiplicity == 1
    assert (sol.x, sol.y) == (0.0, 1.0)
    assert abs(sol.c - 1.0) <= 1e-15
    mirror = solve_r2(M(0, F(1, 2), F(1, 2)))
    assert (mirror.x, mirror.y) == (1.0, 0.0)
    assert abs(mirror.c - 1.0) <= 1e-15


@pytest.mark.parametrize("b, d", [(F(1, 4), 1), (F(1, 3), 2)])
def test_boundary_flag_does_not_depend_on_orientation(b, d):
    # a <-> d relabels x <-> y: the boundary pair moves from (1, 0) to
    # (0, 1) and the flag follows it
    s, t = solve_r2(M(0, b, d)), solve_r2(M(d, b, 0))
    assert s.boundary == ((1.0, 0.0),) and t.boundary == ((0.0, 1.0),)
    assert s.multiplicity == t.multiplicity == 1
    assert s.boundary_flag and t.boundary_flag
    assert not s.principal_is_boundary and not t.principal_is_boundary
    assert abs(s.x - t.y) <= 1e-12 and abs(s.y - t.x) <= 1e-12
    assert abs(s.c - t.c) <= 1e-13


def test_multiplicity_three():
    # symmetric a + b = 1 family member deep in the non-unique region
    sol = solve_r2(M(F(1, 20), F(19, 20), F(1, 20)))
    assert sol.multiplicity == 3
    assert len(sol.interior) == 3
    # principal solution is the one with smallest y
    assert sol.y == min(y for _, y in sol.interior)
    xs = sorted(x for x, _ in sol.interior)
    ys = sorted(y for _, y in sol.interior)
    assert all(abs(a - b) <= 1e-9 for a, b in zip(xs, ys))  # swap symmetry


def test_no_solution():
    # b = -a with a = d forces xy = 1, impossible inside the square
    with pytest.raises(ScanFailure):
        solve_r2(M(1, -1, 1))


@pytest.mark.usefixtures("cold_solver")
@pytest.mark.parametrize("k", [1, 2, 3, 4, F(1, 6), F(7, 2), -2])
def test_xy_one_matrices_fail_before_the_scan(k):
    A = M(k, -k, k)
    assert forces_xy_one(A)
    with mock.patch("dilogtba.tba._scan_block", side_effect=AssertionError("scanned")):
        with pytest.raises(ScanFailure, match="forces xy = 1"):
            solve_r2(A, enforce_range=k > 0)


def test_forces_xy_one_is_exactly_a_equals_d_equals_minus_b():
    for entries in [(1, -1, 2), (2, -1, 1), (1, 1, 1), (0, 0, 0), (1, 0, 1),
                    (F(1, 2), F(-1, 3), F(1, 2))]:
        assert not forces_xy_one(M(*entries)), entries


def test_solution_continuum():
    with pytest.raises(ScanFailure):
        solve_r2(M(0, F(1, 2), 0))


def test_range_enforcement():
    A = M(4, F(-3, 2), 1)
    with pytest.raises(RangeViolation):
        solve_r2(A)
    sol = solve_r2(A, enforce_range=False)
    # this member of the x + y = 1 family has c exactly 1
    assert abs(sol.x + sol.y - 1.0) <= 1e-10
    assert abs(sol.c - 1.0) <= 1e-10


def test_c_of():
    assert abs(c_of(M(2, 1, 1)) - 4.0 / 7.0) <= 1e-13
    with pytest.raises(RangeViolation):
        c_of(M(4, F(-3, 2), 1))
    assert abs(c_of(M(4, F(-3, 2), 1), enforce_range=False) - 1.0) <= 1e-10


def test_grid_n_validation():
    with pytest.raises(DomainError):
        solve_r2(M(2, 1, 1), grid_n=10)


def test_overflowing_inputs_end_in_package_errors():
    # b = 10^-33 with D < 0 puts exponents of order 10^33 in f: the point
    # kernel saturates to inf as the grid scan does, and no root is left
    tiny_b = M(F(1, 10**67), F(1, 10**33), 1)
    assert tiny_b.D < 0
    assert reduced_f(tiny_b, 0.5) == math.inf
    with pytest.raises(ScanFailure):
        solve_r2(tiny_b)
    # an entry of 10^400 is no float at all (a positive definite matrix,
    # so the Newton path reads the entries)
    with pytest.raises(DomainError, match="overflows a float"):
        solve_r2(M(10**400, 1, 1))
    # b = 0 takes kappa(a) straight from the entry, which is no float either
    with pytest.raises(DomainError, match="overflows a float"):
        solve_r2(M(10**400, 0, 1))
    with pytest.raises(DomainError, match="overflows a float"):
        kappa(10**400)


def test_residuals_both_equations():
    # residual covers both fixed-point equations, not just the reduced
    # one, and every interior solution solves both, not only the principal:
    # (1/20 19/20; 19/20 1/20) has three, and (1/4 1/4; 1/4 0) has one
    # beside the boundary solution (0, 1)
    cases = [
        ((2, 1, 1), 1, ()),
        ((4, F(5, 2), 2), 1, ()),
        ((F(5, 4), 1, 1), 1, ()),
        ((F(1, 20), F(19, 20), F(1, 20)), 3, ()),
        ((F(1, 4), F(1, 4), 0), 1, ((0.0, 1.0),)),
    ]
    for entries, n_interior, boundary in cases:
        A = M(*entries)
        a, b, d = (float(v) for v in entries)

        def residual(x, y):
            r1 = abs(x - (1 - x) ** (2 * a) * (1 - y) ** (2 * b))
            r2 = abs(y - (1 - x) ** (2 * b) * (1 - y) ** (2 * d))
            return max(r1, r2)

        sol = solve_r2(A)
        assert len(sol.interior) == n_interior and sol.boundary == boundary, entries
        assert residual(sol.x, sol.y) <= max(sol.residual, 1e-15) * 1.5 + 1e-15
        for x, y in sol.interior:
            assert residual(x, y) <= 1e-14, (entries, x, y)
            assert abs(reduced_f(A, y) - 1.0) <= 1e-14, (entries, x, y)


# float.hex of every solution, recorded when positive semidefinite
# systems moved to Newton on the convex potential and scan brackets to
# Newton-split bisection; a solver change that moves a root by one ulp
# fails here.  Rows: entries, grid_n, multiplicity, c, interior (x, y)
# ascending in y, boundary.  The first two have three roots and an
# interior root beside the boundary (0, 1); (1 -1/2; -1/2 1),
# (4 -3/2; -3/2 2) and (1 -1/20; -1/20 40) have b < 0; both terms of
# (1 1/10; 1/10 10) and (1/2 1/20; 1/20 20) overflow near y = 1; the
# last has only the boundary solution.  Rows from (1 -1/2; -1/2 1) to
# (1/2 1/20; 1/20 20) are positive definite, so both grids give the
# same Newton solve.
_RECORDED_SOLUTIONS = [
    (("1/20", "19/20", "1/20"), 20_001, 3, "0x1.a58743dd95598p-1", [
        ("0x1.86a3820659e0ep-1", "0x1.080051164f363p-4"),
        ("0x1.8722191a02d64p-2", "0x1.8722191a02d5fp-2"),
        ("0x1.080051164f358p-4", "0x1.86a3820659e11p-1"),
    ], []),
    (("1/20", "19/20", "1/20"), 100_000, 3, "0x1.a58743dd95599p-1", [
        ("0x1.86a3820659e0fp-1", "0x1.080051164f35ep-4"),
        ("0x1.8722191a02d5ep-2", "0x1.8722191a02d64p-2"),
        ("0x1.080051164f35cp-4", "0x1.86a3820659e10p-1"),
    ], []),
    (("1/4", "1/4", "0"), 20_001, 1, "0x1.2492492492493p+0", [
        ("0x1.6d761c42b2c41p-2", "0x1.9a9795396b8e2p-1"),
    ], [(0.0, 1.0)]),
    (("1/4", "1/4", "0"), 100_000, 1, "0x1.2492492492493p+0", [
        ("0x1.6d761c42b2c41p-2", "0x1.9a9795396b8e2p-1"),
    ], [(0.0, 1.0)]),
    (("1", "-1/2", "1"), 20_001, 1, "0x1.0000000000000p+0", [
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ], []),
    (("1", "-1/2", "1"), 100_000, 1, "0x1.0000000000000p+0", [
        ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ], []),
    (("4", "-3/2", "2"), 20_001, 1, "0x1.727cfd98c6accp-1", [
        ("0x1.2706007dbb37cp-2", "0x1.8d8dacd343c3bp-2"),
    ], []),
    (("4", "-3/2", "2"), 100_000, 1, "0x1.727cfd98c6accp-1", [
        ("0x1.2706007dbb37cp-2", "0x1.8d8dacd343c3bp-2"),
    ], []),
    (("1", "-1/20", "40"), 20_001, 1, "0x1.dc48529813aa6p-2", [
        ("0x1.87d8f903cea64p-2", "0x1.47c838d5aea4ap-5"),
    ], []),
    (("1", "-1/20", "40"), 100_000, 1, "0x1.dc48529813aa6p-2", [
        ("0x1.87d8f903cea64p-2", "0x1.47c838d5aea4ap-5"),
    ], []),
    (("2", "1", "1"), 20_001, 1, "0x1.2492492492492p-1", [
        ("0x1.95a1ab1a51c7ap-3", "0x1.3b5eb92ce0338p-2"),
    ], []),
    (("2", "1", "1"), 100_000, 1, "0x1.2492492492492p-1", [
        ("0x1.95a1ab1a51c7ap-3", "0x1.3b5eb92ce0338p-2"),
    ], []),
    (("1", "1/2", "1/2"), 20_001, 1, "0x1.8000000000000p-1", [
        ("0x1.2bec333018867p-2", "0x1.a827999fcef32p-2"),
    ], []),
    (("1", "1/2", "1/2"), 100_000, 1, "0x1.8000000000000p-1", [
        ("0x1.2bec333018867p-2", "0x1.a827999fcef32p-2"),
    ], []),
    (("4/3", "1/6", "1/3"), 20_001, 1, "0x1.b6db6db6db6dcp-1", [
        ("0x1.32f92d684ba39p-2", "0x1.1155ab70e58f6p-1"),
    ], []),
    (("4/3", "1/6", "1/3"), 100_000, 1, "0x1.b6db6db6db6dcp-1", [
        ("0x1.32f92d684ba39p-2", "0x1.1155ab70e58f6p-1"),
    ], []),
    (("1", "1/10", "10"), 20_001, 1, "0x1.129e031a9509bp-1", [
        ("0x1.8353decc549b2p-2", "0x1.a6663860a1467p-4"),
    ], []),
    (("1", "1/10", "10"), 100_000, 1, "0x1.129e031a9509bp-1", [
        ("0x1.8353decc549b2p-2", "0x1.a6663860a1467p-4"),
    ], []),
    (("1/2", "1/20", "20"), 20_001, 1, "0x1.302fc09bd4c4ep-1", [
        ("0x1.fe4a6d6ebd4b6p-2", "0x1.088dbba04af5ap-4"),
    ], []),
    (("1/2", "1/20", "20"), 100_000, 1, "0x1.302fc09bd4c4ep-1", [
        ("0x1.fe4a6d6ebd4b6p-2", "0x1.088dbba04af5ap-4"),
    ], []),
    (("1/2", "1/2", "0"), 20_001, 1, "0x1.0000000000000p+0", [
    ], [(0.0, 1.0)]),
    (("1/2", "1/2", "0"), 100_000, 1, "0x1.0000000000000p+0", [
    ], [(0.0, 1.0)]),
]


def _ids(table, first_c):
    """pytest ids naming each row's c as first recorded (by scan and
    bisection), so that re-recording a row keeps its test's name."""
    return [f"entries{i}-{row[1]}-{row[2]}-{c}-interior{i}-boundary{i}"
            for i, (row, c) in enumerate(zip(table, first_c))]


_FIRST_RECORDED_C = [
    "0x1.a58743dd955a0p-1",
    "0x1.a58743dd9558ep-1",
    "0x1.2492492492492p+0",
    "0x1.249249249248ap+0",
    "0x1.0000000000000p+0",
    "0x1.0000000000000p+0",
    "0x1.727cfd98c6aa5p-1",
    "0x1.727cfd98c6af4p-1",
    "0x1.dc48529812ee6p-2",
    "0x1.dc4852981ee31p-2",
    "0x1.2492492492471p-1",
    "0x1.2492492492498p-1",
    "0x1.7ffffffffffdap-1",
    "0x1.8000000000004p-1",
    "0x1.b6db6db6db776p-1",
    "0x1.b6db6db6db7e0p-1",
    "0x1.129e031a958fbp-1",
    "0x1.129e031a9446cp-1",
    "0x1.302fc09bd60b6p-1",
    "0x1.302fc09bd72eap-1",
    "0x1.0000000000000p+0",
    "0x1.0000000000000p+0",
]


@pytest.mark.parametrize("entries, grid_n, multiplicity, c, interior, boundary",
                         _RECORDED_SOLUTIONS, ids=_ids(_RECORDED_SOLUTIONS, _FIRST_RECORDED_C))
def test_solve_r2_bit_identical_to_recorded(entries, grid_n, multiplicity, c,
                                            interior, boundary):
    sol = solve_r2(M(*entries), grid_n=grid_n)
    got = [(x.hex(), y.hex()) for x, y in sol.interior]
    assert got == interior
    assert list(sol.boundary) == boundary
    assert sol.multiplicity == multiplicity
    assert sol.c.hex() == c
    principal = interior[0] if interior else tuple(v.hex() for v in boundary[0])
    assert (sol.x.hex(), sol.y.hex()) == principal


# Recorded like the table above, for the scan's edge cases: the root at
# y ~ 1.4e-6 of (1/4 7; 7 0) that only the 10^6 grid separates, a matrix
# whose exponents refine every scan cell (positive definite, so now a
# Newton solve, with x = y), (1/20 19/20; 19/20 1/20) whose last coarse
# cell is short at 1001 and 123457 points, and the largest b of its row
# (14) with d = 0.
_RECORDED_SCAN_CASES = [
    (("1/4", "7", "0"), 1_000_001, 2, "0x1.33334fe86b28bp-1", [
        ("0x1.3c6e118e8b7b9p-1", "0x1.79d3bd3f61fffp-20"),
        ("0x1.17af98784fd54p-3", "0x1.06253ace5554ap-3"),
    ], [(0.0, 1.0)]),
    (("1/4", "7", "0"), 100_000, 1, "0x1.5d21a76b79fc6p-2", [
        ("0x1.17af98784fd57p-3", "0x1.06253ace55548p-3"),
    ], [(0.0, 1.0)]),
    (("1", "1/10000", "1"), 100_000, 1, "0x1.9995e8ee2ab09p-1", [
        ("0x1.871dc9e27d64ep-2", "0x1.871dc9e27d64ep-2"),
    ], []),
    (("1/20", "19/20", "1/20"), 1_001, 3, "0x1.a58743dd95598p-1", [
        ("0x1.86a3820659e0ep-1", "0x1.080051164f362p-4"),
        ("0x1.8722191a02d53p-2", "0x1.8722191a02d6ep-2"),
        ("0x1.080051164f35cp-4", "0x1.86a3820659e10p-1"),
    ], []),
    (("1/20", "19/20", "1/20"), 123_457, 3, "0x1.a58743dd95599p-1", [
        ("0x1.86a3820659e0ep-1", "0x1.080051164f365p-4"),
        ("0x1.8722191a02d5dp-2", "0x1.8722191a02d65p-2"),
        ("0x1.080051164f365p-4", "0x1.86a3820659e0ep-1"),
    ], []),
    (("4", "-3/2", "2"), 1_002, 1, "0x1.727cfd98c6accp-1", [
        ("0x1.2706007dbb37cp-2", "0x1.8d8dacd343c3bp-2"),
    ], []),
    (("9/10", "14", "0"), 20_001, 1, "0x1.dd87ea99f55cep-3", [
        ("0x1.647a0add3bc4dp-4", "0x1.3ffd6365cd250p-4"),
    ], [(0.0, 1.0)]),
]

_FIRST_RECORDED_SCAN_C = [
    "0x1.33334fe8cee17p-1",
    "0x1.5d21a76b79f72p-2",
    "0x1.9995e8ee1d185p-1",
    "0x1.a58743dd955a2p-1",
    "0x1.a58743dd95596p-1",
    "0x1.727cfd98c6b52p-1",
    "0x1.dd87ea99f5643p-3",
]


@pytest.mark.parametrize("entries, grid_n, multiplicity, c, interior, boundary",
                         _RECORDED_SCAN_CASES,
                         ids=_ids(_RECORDED_SCAN_CASES, _FIRST_RECORDED_SCAN_C))
def test_scan_edge_cases_bit_identical_to_recorded(entries, grid_n, multiplicity, c,
                                                   interior, boundary):
    test_solve_r2_bit_identical_to_recorded(entries, grid_n, multiplicity, c,
                                            interior, boundary)


# ---------------------------------------------------------------------------
# the coarse-to-fine scan against a plain scan of every grid point


def _full_scan(p, n):
    """Exact zeros and sign-change brackets of f - 1 over all n grid points."""
    y = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
    ly, l1y = np.log(y), np.log1p(-y)
    with np.errstate(over="ignore", under="ignore"):
        g = np.exp(ly * p[0] + l1y * p[1]) + np.exp(ly * p[2] + l1y * p[3]) - 1.0
    hits = [float(y[k]) for k in np.flatnonzero(g == 0.0)]
    pos, neg = g > 0.0, g < 0.0
    flips = np.flatnonzero((pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:]))
    return hits, [(float(y[k]), float(y[k + 1]), float(g[k])) for k in flips]


_grid_ns = st.sampled_from([1001, 1002, 20_001, 100_000, 123_457])
_entries = st.integers(1, 12).flatmap(lambda q: st.builds(F, st.integers(0, 8 * q), st.just(q)))


@st.composite
def _in_range_matrices(draw):
    """b < 0, d = 0 and tiny b (whose exponents refine every cell) included."""
    a = draw(_entries)
    d = draw(st.just(F(0)) | _entries)
    b = draw(_entries.map(lambda v: v - min(a, d))
             | st.integers(12, 40).map(lambda k: F(1, 10**k)))
    assume(b != 0)
    return _exponents(M(a, b, d))


def _twin_bump(c, excess):
    """Exponents of f = 2 y^P (1-y)^Q with its maximum 1 + excess at y = c.

    Both terms peak at their critical point c, so f - 1 has two roots
    close to c when excess > 0 and a near miss when it is < 0.
    """
    entropy = -c * math.log(c) - (1.0 - c) * math.log1p(-c)
    s = math.log(2.0 / (1.0 + excess)) / entropy
    return (c * s, (1.0 - c) * s) * 2


_bumps = st.builds(_twin_bump, st.floats(0.02, 0.98),
                   st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e)
                   | st.floats(-6.0, -2.0).map(lambda e: -(10.0 ** e)))
_exponent_tuples = st.tuples(*[st.floats(-40.0, 40.0)] * 4)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(p=_in_range_matrices() | _bumps | _exponent_tuples, n=_grid_ns)
def test_scan_matches_the_full_grid(p, n):
    # every zero, every bracket and the sign of g at it, bit for bit
    assert _scan_block([p], n)[0] == _full_scan(p, n)


@st.composite
def _exponent_blocks(draw):
    """1 to 8 exponent rows and a permutation of them."""
    rows = draw(st.lists(_in_range_matrices() | _bumps | _exponent_tuples,
                         min_size=1, max_size=8))
    return rows, draw(st.permutations(range(len(rows))))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(block=_exponent_blocks(), n=_grid_ns)
def test_block_scan_matches_the_full_grid_row_by_row(block, n):
    # a row's result, bit for bit, depends on neither its neighbours nor
    # its place in the block
    rows, perm = block
    expected = [_full_scan(p, n) for p in rows]
    assert _scan_block(rows, n) == expected
    assert _scan_block([rows[i] for i in perm], n) == [expected[i] for i in perm]


# ---------------------------------------------------------------------------
# prescan: a block of solves from one scan, held by solve_r2


def test_prescan_skips_the_matrices_solve_r2_never_scans():
    # the positive definite (2 1; 1 1), (10^400 1; 1 1) and (1 10^-400;
    # 10^-400 1) go to Newton, and (1 1; 1 1) with D = 0, b > 0 too
    never = [M(1, -1, 1), M(3, 0, 2), M(0, F(1, 2), 0), M(10**400, 1, 1),
             M(1, F(1, 10**400), 1), M(2, 1, 1), M(1, 1, 1)]
    with mock.patch.object(tba, "_SOLVED", OrderedDict()):
        with mock.patch("dilogtba.tba._scan_block", side_effect=AssertionError("scanned")):
            prescan(never, 20_001)
        assert not tba._SOLVED
        scanned = M(F(1, 20), F(19, 20), F(1, 20))
        with mock.patch("dilogtba.tba._scan_block", wraps=_scan_block) as block:
            prescan(never + [scanned], 20_001)
        block.assert_called_once_with([_exponents(scanned)], 20_001)
        assert list(tba._SOLVED) == [(scanned.integers, 20_001)]
        with mock.patch("dilogtba.tba._scan_block", side_effect=AssertionError("scanned")):
            assert solve_r2(scanned, grid_n=20_001) is tba._SOLVED[(scanned.integers, 20_001)]


def test_solves_outside_the_prescanned_block_match_the_record():
    recorded = [M(*case[0]) for case in _RECORDED_SCAN_CASES]
    # the recorded matrices at another grid, then a block without them
    for block in (recorded, [M(F(1, 4), F(1, 4), 0), M(F(1, 2), 1, F(1, 3))]):
        with mock.patch.object(tba, "_SOLVED", OrderedDict()):
            prescan(block, 20_000)
            for case in _RECORDED_SCAN_CASES:
                test_solve_r2_bit_identical_to_recorded(*case)
            assert {key for key in tba._SOLVED if key[1] == 20_000} == \
                {(A.integers, 20_000) for A in block if not tba._convex(A)}
    # each recorded matrix prescanned at its own grid, then solved from
    # the result prescan holds
    for case in _RECORDED_SCAN_CASES:
        with mock.patch.object(tba, "_SOLVED", OrderedDict()):
            prescan([M(*case[0])], case[1])
            with mock.patch("dilogtba.tba._scan_block", side_effect=AssertionError("scanned")):
                test_solve_r2_bit_identical_to_recorded(*case)


# ---------------------------------------------------------------------------
# results held by solve_r2


def test_prescan_leaves_out_the_matrices_solve_r2_holds():
    held, fresh = M(F(1, 20), F(19, 20), F(1, 20)), M(F(1, 2), 1, F(1, 3))
    with mock.patch.object(tba, "_SOLVED", OrderedDict()):
        solve_r2(held, grid_n=20_001)
        with mock.patch("dilogtba.tba._scan_block", wraps=_scan_block) as block:
            # the positive definite (2 1; 1 1) is never scanned
            prescan([held, fresh, M(2, 1, 1)], 20_001)
            block.assert_called_once_with([_exponents(fresh)], 20_001)
            # held at 20 001 points only
            block.reset_mock()
            prescan([held], 30_001)
            block.assert_called_once_with([_exponents(held)], 30_001)
        with mock.patch("dilogtba.tba._scan_block", side_effect=AssertionError("scanned")):
            assert solve_r2(held, grid_n=20_001) is tba._SOLVED[(held.integers, 20_001)]


def _held_or_not(A, grid_n):
    """solve_r2's result, or the type and message of its ScanFailure."""
    try:
        return solve_r2(A, grid_n=grid_n)
    except ScanFailure as exc:
        return type(exc), str(exc)


@st.composite
def _solvable_or_not(draw):
    """In-range matrices: positive semidefinite, D < 0, d = 0, and ones
    that end in ScanFailure (a = d = -b, the b = 1/2 continuum, and
    three whose one solution lies below a coarse grid's first point)."""
    kind = draw(st.sampled_from(["psd", "indefinite", "d_zero", "failing"]))
    a, b, d = draw(_entries), draw(_entries), draw(_entries)
    if kind == "psd":
        A = M(a, b * draw(st.sampled_from([1, -1])), d)
        assume(tba._convex(A) and check_range(A))
    elif kind == "indefinite":
        A = M(a, b - min(a, d), d)
        assume(A.b != 0 and A.D < 0)
    elif kind == "d_zero":
        A = M(a, b, 0)
    else:
        A = draw(st.sampled_from([M(a + 1, -a - 1, a + 1), M(0, F(1, 2), 0), M(1, 8, F(16, 5)),
                                  M(F(1, 2), F(11, 2), 3), M(F(2, 3), 8, 8)]))
    return A


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(A=_solvable_or_not(), grid_n=st.sampled_from([1001, 20_001]))
def test_a_held_result_is_the_cold_one(A, grid_n):
    with mock.patch.object(tba, "_SOLVED", OrderedDict()) as held:
        _held_or_not(A, grid_n)
        assert list(held) == [(A.integers, grid_n)]
        warm = _held_or_not(A, grid_n)
    with mock.patch.object(tba, "_SOLVED", OrderedDict()):
        cold = _held_or_not(A, grid_n)
    # repr shows every field's float exactly, signed zeros included
    assert repr(warm) == repr(cold)


# ---------------------------------------------------------------------------
# positive semidefinite systems: Newton on the convex Nahm potential


def test_tiny_b_positive_definite_solves_at_kappa():
    # exponents of order 10^33 saturate the scan, which found no root here;
    # Newton in w = log(1 - x) meets none of them
    k = kappa(1)
    sol = solve_r2(M(1, F(1, 10**33), 1))
    assert abs(sol.x - k) <= math.ulp(k) and abs(sol.y - k) <= math.ulp(k)
    assert abs(sol.c - 0.8) <= 1e-15
    assert sol.multiplicity == 1 and sol.residual <= 1e-15


@pytest.mark.usefixtures("cold_solver")
def test_positive_semidefinite_systems_are_not_scanned():
    # D > 0 with b of either sign, and D = 0 with b > 0
    cases = [M(2, 1, 1), M(4, F(-3, 2), 2), M(1, 1, 1), M(F(1, 4), F(1, 2), 1)]
    with mock.patch("dilogtba.tba._scan_block", side_effect=AssertionError("scanned")):
        for A in cases:
            assert tba._convex(A)
            sol = solve_r2(A, grid_n=1001)
            assert solve_r2(A, grid_n=10**6) == sol  # grid_n does not matter
            assert sol.multiplicity == 1 and sol.residual <= 1e-13
            assert sol.interior == ((sol.x, sol.y),) and sol.boundary == ()
    for A in [M(1, -1, 1), M(1, 0, 1), M(0, F(1, 4), 1), M(F(1, 20), F(19, 20), F(1, 20))]:
        assert not tba._convex(A)


@pytest.mark.usefixtures("cold_solver")
def test_newton_at_its_cap_falls_back_to_the_scan():
    A = M(F(5, 4), 1, 1)
    newton = solve_r2(A, grid_n=20_001)
    with mock.patch.object(tba, "_NEWTON_CAP", 1), \
            mock.patch("dilogtba.tba._scan_block", wraps=_scan_block) as scan:
        scanned = solve_r2(A, grid_n=20_001)
    scan.assert_called_once_with([_exponents(A)], 20_001)
    assert scanned.multiplicity == 1 and scanned.residual <= 1e-13
    assert abs(scanned.c - newton.c) <= 1e-13 and abs(scanned.c - 0.6) <= 1e-13


def test_newton_gives_up_where_its_hessian_underflows():
    # entries of 10^-200: det 2A, 2A (1-x)/x and their product all
    # underflow to 0, so Newton falls back to the scan, which finds nothing
    with pytest.raises(ScanFailure):
        solve_r2(M(F(1, 10**200), F(1, 10**201), F(1, 10**200)))
    # at 10^-160 they do not, and x = y round to the float below 1
    sol = solve_r2(M(F(1, 10**160), F(1, 10**161), F(1, 10**160)))
    assert sol.x == sol.y == 1.0 - 2.0**-53 and sol.residual <= 1e-15


def test_residuals_do_not_overflow_where_the_product_is_finite():
    # (1 - y)^(2b) alone overflows for b ~ -25 and 1 - y ~ 8e-8; the
    # product with (1 - x)^(2a) is about 1
    A = M(F(2504763, 100000), F(-70502810702021008929092871, 2814749767106560000000000),
          F(2504763, 100000))
    x = 1.0 - 8.175322485648451e-08
    assert tba._residuals(A, x, x) <= 1e-7
    sol = solve_r2(A)
    assert sol.multiplicity == 1 and sol.residual <= 1e-13


def _outcome(A):
    try:
        return solve_r2(A, grid_n=20_001)
    except (ScanFailure, DomainError) as exc:
        return type(exc)


_magnitudes = st.builds(lambda m, e: F(m, 10**6) * F(10) ** e,
                        st.integers(10**6, 10**7 - 1), st.integers(-40, 7))


@st.composite
def _psd_matrices(draw):
    """In-range positive semidefinite matrices, entries 1e-40 to 1e8, b of
    either sign, with D from order ad down to exactly 0."""
    a, d = draw(_magnitudes), draw(_magnitudes)
    kind = draw(st.sampled_from(["free", "near", "singular"]))
    if kind == "free":
        b = draw(_magnitudes) * draw(st.sampled_from([1, -1]))
    elif kind == "near":
        # b^2 = ad (1 - 10^-k)^2, from a float square root rounded down
        r = F(math.sqrt(a * d)).limit_denominator(10**50)
        b = r * (1 - F(1, 10 ** draw(st.integers(1, 17)))) * draw(st.sampled_from([1, -1]))
    else:
        p, q = draw(st.integers(1, 30)), draw(st.integers(1, 30))
        a, d, b = a * p * p, a * q * q, a * p * q
    A = M(a, b, d)
    assume(b >= -min(a, d) and tba._convex(A))
    return A


@pytest.mark.usefixtures("cold_solver")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(A=_psd_matrices())
def test_newton_results_are_accepted_or_the_scan_s(A):
    sol = _outcome(A)
    if (isinstance(sol, tba.TbaSolution) and sol.multiplicity == 1
            and sol.residual <= 1e-13 and sol.interior == ((sol.x, sol.y),)):
        assert 0.0 < sol.x < 1.0 and 0.0 < sol.y < 1.0 and sol.boundary == ()
        return
    with mock.patch.object(tba, "_NEWTON_CAP", 0):
        assert _outcome(A) == sol


# ---------------------------------------------------------------------------
# independent oracle: damped fixed-point iteration


def _damped_orbit(A, starts, damping=0.8, tol=1e-13, max_iter=60000):
    a, b, d = float(A.a), float(A.b), float(A.d)
    x = starts[:, 0].copy()
    y = starts[:, 1].copy()
    lam = 1.0 - damping
    for _ in range(max_iter):
        nx = (1.0 - x) ** (2 * a) * (1.0 - y) ** (2 * b)
        ny = (1.0 - x) ** (2 * b) * (1.0 - y) ** (2 * d)
        step = max(np.abs(nx - x).max(), np.abs(ny - y).max())
        x += lam * (nx - x)
        y += lam * (ny - y)
        if step < tol:
            break
    return x, y


def test_damped_iteration_oracle():
    # 40 matrices x 10 starts here; the full 200 x 20 run is in the
    # acceptance suite.  b >= 0 keeps the iteration a self-map of the
    # open unit square; positive diagonal avoids boundary attractors.
    rng = np.random.default_rng(99)
    tried = 0
    worst = 0.0
    while tried < 40:
        den = int(rng.integers(1, 13))
        a = F(int(rng.integers(1, 4 * den + 1)), den)
        den2 = int(rng.integers(1, 13))
        d = F(int(rng.integers(1, 4 * den2 + 1)), den2)
        if a < d:
            a, d = d, a
        den3 = int(rng.integers(1, 13))
        b = F(int(rng.integers(0, 4 * den3 + 1)), den3)
        sol = solve_r2(M(a, b, d))
        if sol.multiplicity != 1 or sol.principal_is_boundary:
            continue
        tried += 1
        starts = rng.uniform(0.02, 0.98, size=(10, 2))
        X, Y = _damped_orbit(M(a, b, d), starts)
        worst = max(worst, np.abs(X - sol.x).max(), np.abs(Y - sol.y).max())
    assert worst <= 1e-8


def test_c_additive_under_decoupling():
    # for b = 0, c is the sum of the two rank-1 values
    for a, d in [(1, F(1, 4)), (F(1, 2), F(1, 2)), (3, 1)]:
        lhs = c_of(M(a, 0, d))
        rhs = solve_r1(a).c + solve_r1(d).c
        assert abs(lhs - rhs) <= 1e-13


@pytest.mark.parametrize("grid_n", [10**7 + 1, True, 1e5, 1000],
                         ids=["above-cap", "bool", "float", "below-floor"])
def test_solve_r2_checks_grid_n(grid_n):
    # an uncapped grid_n of 10^12 asked numpy for 116 GiB, and a float ran
    with pytest.raises(DomainError, match="grid_n"):
        solve_r2(M(F(1, 4), 7, 0), grid_n=grid_n)


def test_c_of_passes_its_options_to_solve_r2():
    A = M(F(1, 4), 7, 0)
    assert c_of(A, grid_n=20_001) == solve_r2(A, grid_n=20_001).c
    with pytest.raises(DomainError, match="grid_n"):
        c_of(A, grid_n=10**7 + 1)
    # unknown keywords, and any option for a rank-1 system, are errors
    for system in (A, F(1)):
        with pytest.raises(TypeError):
            c_of(system, tol=1e-9)
    with pytest.raises(TypeError):
        c_of(F(1), grid_n=20_001)

"""
Rogers dilogarithm: special values and functional equations
============================================================

The normalized Rogers dilogarithm

    L(x) = (6/pi^2) * (Li_2(x) + (1/2) log x log(1-x)),   0 <= x <= 1,

maps [0, 1] onto [0, 1] and takes rational values at five classical
points tied to the golden ratio rho = (sqrt(5)-1)/2.  This script
prints those values and then stress-tests the three functional
equations the implementation is built to satisfy.
"""

import math
import random
from fractions import Fraction

import mpmath

from dilogtba import (
    check_duplication,
    check_five_term,
    check_reflection,
    constant,
    rogers_L,
    rogers_L_mp,
)

# The five special points.  rho is irrational, so it enters as a float
# here; the rational points can be passed exactly as Fractions.
rho = (math.sqrt(5.0) - 1.0) / 2.0
points = [
    (Fraction(0), "0", Fraction(0)),
    (1.0 - rho, "1 - rho", Fraction(2, 5)),
    (Fraction(1, 2), "1/2", Fraction(1, 2)),
    (rho, "rho", Fraction(3, 5)),
    (Fraction(1), "1", Fraction(1)),
]

print("special values")
print(f"{'x':>10}  {'L(x)':>22}  {'exact':>6}  {'error':>9}")
for x, label, exact in points:
    val = rogers_L(x)
    print(f"{label:>10}  {val:>22.17f}  {str(exact):>6}  {abs(val - float(exact)):>9.2e}")

# The same five values through the arbitrary-precision evaluator, which
# the binary64 path is validated against.  Here rho is the isolated
# algebraic number refined to 50 digits, and at 50 digits the printed
# values terminate: they are exactly rational.
print()
print("high-precision check (50 digits)")
rho50 = constant("rho").to_mpf(50)
with mpmath.workdps(50):
    mp_points = [(0, "0"), (1 - rho50, "1 - rho"), (Fraction(1, 2), "1/2"), (rho50, "rho"), (1, "1")]
for x, label in mp_points:
    val = rogers_L_mp(x, dps=50)
    print(f"  L({label}) = {mpmath.nstr(val, 50)}")
# The binary64 rho is off in its 17th digit, and so is L of it.
print(f"  L(float rho) = {mpmath.nstr(rogers_L_mp(rho, dps=50), 50)}")

# Functional equations.  Each check_* helper returns the absolute
# residual of one identity at the given point(s):
#
#   reflection    L(x) + L(1-x) = 1
#   duplication   (1/2) L(x^2) = L(x) - L(x/(1+x))
#   five-term     L(x) + L(y) = L(xy) + L(x(1-y)/(1-xy)) + L(y(1-x)/(1-xy))
#
# A thousand random points keep every residual at the rounding floor.
rng = random.Random(2026)
worst_refl = worst_dup = worst_five = 0.0
for _ in range(1000):
    x, y = rng.random(), rng.random()
    worst_refl = max(worst_refl, check_reflection(x))
    worst_dup = max(worst_dup, check_duplication(x))
    worst_five = max(worst_five, check_five_term(x, y))

print()
print("functional-equation residuals over 1000 random points")
print(f"  reflection   worst = {worst_refl:.2e}")
print(f"  duplication  worst = {worst_dup:.2e}")
print(f"  five-term    worst = {worst_five:.2e}")

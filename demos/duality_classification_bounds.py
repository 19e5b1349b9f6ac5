"""
Duality, classification against c = 1, and two-sided bounds
===========================================================

Three structural facts about the dilogarithm sum c[A] come with exact
rational certificates:

  * duality: when both sides have unique solutions,
    c[A] + c[(1/4) A^(-1)] = 2;
  * trichotomy: the sign of c[A] - 1 is decided by comparing ad with
    (1/2 - b)^2, no solving required, and c[A] = 1 exactly on the
    curve b = 1/2 - sqrt(ad), where the solution satisfies x + y = 1;
  * bounds: monotonicity in the entries brackets c[A] between two
    one-dimensional values that are cheap to compute.

This script demonstrates all three on concrete matrices.
"""

from fractions import Fraction

from dilogtba import (
    RationalSymmetricMatrix,
    bounds_on_c,
    classify_vs_one,
    dual,
    family_c1,
    solve_r2,
)

F = Fraction
M = RationalSymmetricMatrix

# Duality.  The dual of (2 1; 1 1) is (1/4)(2 1; 1 1)^(-1); its c
# complements the original to 2.
print("duality  c[A] + c[dual A] = 2")
for A in [M(2, 1, 1), M(1, F(1, 2), F(1, 2)), M(F(5, 4), 1, 1)]:
    B = dual(A)
    ca = solve_r2(A).c
    cb = solve_r2(B, enforce_range=False).c
    print(
        f"  A = {A}  dual = {B}\n"
        f"    c[A] = {ca:.12f}   c[dual] = {cb:.12f}   sum = {ca + cb:.12f}"
    )

# Classification.  classify_vs_one never solves; it reports the exact
# rational comparison that decides the sign of c - 1.
print()
print("classification of c against 1")
for A in [M(2, 1, 1), M(F(1, 4), F(1, 4), 0), M(1, F(1, 4), F(1, 16))]:
    res = classify_vs_one(A)
    c = solve_r2(A).c
    print(f"  {str(A):<24} {res.relation:<8} (solved c = {c:.12f})")
    print(f"      reason: {res.reason}")

# The c = 1 family.  family_c1 builds the matrix on the critical curve
# b = 1/2 - sqrt(ad); when ad is a perfect rational square the entry is
# exact, and the solution lands on x + y = 1.
print()
print("the c = 1 family  b = 1/2 - sqrt(ad)")
for a, d in [(F(1), F(1, 4)), (F(9, 4), F(1)), (F(1, 2), F(1, 2))]:
    fam = family_c1(a, d)
    sol = solve_r2(fam.matrix)
    tag = "exact" if fam.is_exact else "float"
    b_shown = fam.b_exact if fam.b_exact is not None else fam.b
    print(
        f"  a = {str(a):>4}, d = {str(d):>4}: b = {str(b_shown):>6} ({tag})"
        f"   x + y - 1 = {sol.x + sol.y - 1.0:+.2e}   c = {sol.c:.12f}"
    )

# Bounds.  For a >= d > 0 the solution is bracketed by two decoupled
# values; the search records the bracket for every candidate it keeps.
print()
print("two-sided bounds on c")
for A in [M(2, 1, 1), M(4, F(5, 2), 2), M(1, F(-1, 4), F(1, 2))]:
    br = bounds_on_c(A)
    c = solve_r2(A).c
    inside = br.lower <= c <= br.upper
    print(
        f"  {str(A):<24} [{br.lower:.6f}, {br.upper:.6f}]  c = {c:.6f}"
        f"  in bracket: {inside} ({br.case_tag})"
    )

"""Predicates, transforms, and bounds for the r=2 dilogarithm sum c[A].

For A = ((a, b), (b, d)) with D = ad - b^2, this module implements:

  * check_range        entry conditions a,d >= 0, b >= -min(a,d)
  * uniqueness_guarantee  the determinant criterion
                          D >= -1/2 max{d (1/kappa(a) - 1), a (1/kappa(d) - 1)}
                          (sufficient for a unique solution), plus two
                          weaker closed-form rational tests
  * dual               the matrix (1/4) A^{-1}, which satisfies
                          c[A] + c[dual(A)] = 2
  * classify_vs_one    the exact rational trichotomy
                          c > 1  iff  b < 1/2 and ad < (1/2 - b)^2
                          c = 1  iff  b <= 1/2 and ad = (1/2 - b)^2
                          c < 1  otherwise
  * family_c1          the one-parameter family b = 1/2 - sqrt(ad),
                          whose solutions satisfy x + y = 1 (hence c=1)
  * bounds_on_c        two-sided bounds built from delta(t) = L(kappa(t)),
                          with a three-way case split on the sign and
                          size of b

Rational comparisons are exact; kappa-dependent comparisons are done in
binary64 with a 1e-12 safety margin so a floating-point tie can never
flip a verdict to "guaranteed".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebraics import rational_sqrt
from .dilog import rogers_L
from .errors import RangeViolation, SingularMatrixError
from .tba import _HALF, RationalSymmetricMatrix, _as_fraction, check_range, delta_fn, kappa

__all__ = [
    "uniqueness_guarantee",
    "uniqueness_weak_tests",
    "dual",
    "ClassificationResult",
    "classify_vs_one",
    "FamilyC1Result",
    "family_c1",
    "BoundsResult",
    "bounds_on_c",
]

# Safety margin for comparisons that involve kappa (binary64): a verdict
# of "guaranteed" requires clearing the threshold by this much.
_MARGIN = 1e-12


def _require_range(A: RationalSymmetricMatrix, who: str) -> None:
    if not check_range(A):
        raise RangeViolation(f"{who} requires the entry range (a,d >= 0, b >= -min(a,d)); got {A}")


def uniqueness_guarantee(A: RationalSymmetricMatrix) -> bool:
    """Determinant criterion guaranteeing a unique solution.

    True iff D >= -1/2 max{ d (1/kappa(a) - 1), a (1/kappa(d) - 1) }.
    For D >= 0 this holds trivially (the right side is <= 0) and is
    decided exactly; otherwise the comparison is made in binary64 and
    must clear the threshold by 1e-12 to return True.
    """
    _require_range(A, "uniqueness_guarantee")
    if A.D >= 0:
        return True
    a, d = float(A.a), float(A.d)
    rhs = -0.5 * max(d * (1.0 / kappa(A.a) - 1.0), a * (1.0 / kappa(A.d) - 1.0))
    return float(A.D) >= rhs + _MARGIN


def uniqueness_weak_tests(A: RationalSymmetricMatrix) -> bool:
    """Weaker closed-form sufficient tests for uniqueness, exact in Q.

    With the matrix oriented so a >= d: for b > 0 the determinant
    criterion holds whenever D >= -ad (if d <= 1/2) or
    D >= -2ad/(2d+1) (if d > 1/2).  D >= 0 is always sufficient.
    Returns False when neither test applies; uniqueness_guarantee may
    still hold then.
    """
    _require_range(A, "uniqueness_weak_tests")
    if A.D >= 0:
        return True
    C, _ = A.canonical()
    if C.b > 0:
        if C.d <= _HALF:
            return C.D >= -C.a * C.d
        return C.D >= Fraction(-2 * C.a * C.d, 2 * C.d + 1)
    return False


def dual(A: RationalSymmetricMatrix) -> RationalSymmetricMatrix:
    """The matrix (1/4) A^{-1}; c[A] + c[dual(A)] = 2 when both solve.

    Defined for any invertible A; the duality statement about c values
    only applies when both matrices satisfy check_range and have unique
    solutions.  dual(dual(A)) = A.
    """
    D = A.D
    if D == 0:
        raise SingularMatrixError(f"matrix {A} is singular (D = 0); no dual exists")
    return RationalSymmetricMatrix(A.d / (4 * D), -A.b / (4 * D), A.a / (4 * D))


@dataclass(frozen=True)
class ClassificationResult:
    """Exact trichotomy of c[A] against 1.

    relation is one of "greater", "equal", "less"; reason records the
    rational inequalities that decided it.
    """

    relation: str
    reason: str


def classify_vs_one(A: RationalSymmetricMatrix) -> ClassificationResult:
    """Classify c[A] vs 1 by exact rational arithmetic, without solving.

    c > 1 iff b < 1/2 and ad < (1/2 - b)^2; c = 1 iff b <= 1/2 and
    ad = (1/2 - b)^2; c < 1 otherwise.
    """
    _require_range(A, "classify_vs_one")
    a, b, d = A.a, A.b, A.d
    ad = a * d
    if b < _HALF:
        gap = (_HALF - b) ** 2
        if ad < gap:
            return ClassificationResult(
                "greater", f"b = {b} < 1/2 and ad = {ad} < (1/2 - b)^2 = {gap}"
            )
        if ad == gap:
            return ClassificationResult(
                "equal", f"b = {b} < 1/2 and ad = {ad} = (1/2 - b)^2"
            )
        return ClassificationResult(
            "less", f"b = {b} < 1/2 but ad = {ad} > (1/2 - b)^2 = {gap}"
        )
    if b == _HALF:
        if ad == 0:
            return ClassificationResult("equal", "b = 1/2 and ad = 0 = (1/2 - b)^2")
        return ClassificationResult("less", f"b = 1/2 and ad = {ad} > 0")
    return ClassificationResult("less", f"b = {b} >= 1/2")


@dataclass(frozen=True)
class FamilyC1Result:
    """A member of the family b = 1/2 - sqrt(ad), on which c[A] = 1.

    When ad is a perfect rational square, b is exact and b_exact holds
    it; otherwise b_exact is None and the matrix carries the nearest
    binary64 value of b as an exact fraction (error below 1e-16, which
    perturbs the solution far less than the 1e-10 family tolerance).
    """

    a: Fraction
    d: Fraction
    b: float
    b_exact: Fraction | None
    matrix: RationalSymmetricMatrix

    @property
    def is_exact(self) -> bool:
        return self.b_exact is not None


def family_c1(a, d) -> FamilyC1Result:
    """The x+y=1 family member with b = 1/2 - sqrt(ad).

    Solving the returned matrix gives |x + y - 1| <= 1e-10 (use
    enforce_range=False in solve_r2: large ad pushes b below
    -min(a,d)).  Exact b when sqrt(ad) is rational, e.g. a = 1,
    d = 1/4 gives b = 0 (decoupled, c = 1).
    """
    a = _as_fraction(a, "a")
    d = _as_fraction(d, "d")
    if a < 0 or d < 0:
        raise RangeViolation(f"family_c1 requires a, d >= 0, got a={a}, d={d}")
    root = rational_sqrt(a * d)
    if root is not None:
        b_exact = _HALF - root
        return FamilyC1Result(
            a=a, d=d, b=float(b_exact), b_exact=b_exact,
            matrix=RationalSymmetricMatrix(a, b_exact, d),
        )
    b = 0.5 - math.sqrt(float(a * d))
    return FamilyC1Result(
        a=a, d=d, b=b, b_exact=None,
        matrix=RationalSymmetricMatrix(a, Fraction(b), d),
    )


@dataclass(frozen=True)
class BoundsResult:
    """Two-sided bounds on c[A] with the case tag that produced them.

    case_tag is one of "d<=b", "d>=b>0", "b<0".
    """

    lower: float
    upper: float
    case_tag: str


def bounds_on_c(A: RationalSymmetricMatrix) -> BoundsResult:
    """Bounds on c[A] for matrices in range with a >= d > 0.

    Writing delta(t) = L(kappa(t)) and D = ad - b^2:

      d <= b:    delta(b+d) + L(kappa(d)^((a+b)/d))        <= c
                 <= delta(a+b) + delta(d)
      d >= b>=0: delta(b+d) + L(kappa(D/(a-b))^((a^2-b^2)/D)) <= c
                 <= delta(a+b) + delta(D/(a-b))
      b < 0:     delta(a+b) + delta(D/(a-b)) <= c <= 2 delta(b+d)

    The a = b case (where D/(a-b) is singular) falls to the d <= b
    branch, whose formulas stay finite there.
    """
    _require_range(A, "bounds_on_c")
    a, b, d, m = A.integers  # a, b, d over the common denominator m
    if not (a >= d > 0):
        raise RangeViolation(f"bounds_on_c requires a >= d > 0, got {A}")
    D = a * d - b * b  # m^2 times the determinant
    if b < 0:
        t = Fraction(D, m * (a - b))
        lower = delta_fn(Fraction(a + b, m)) + delta_fn(t)
        upper = 2.0 * delta_fn(Fraction(b + d, m))
        return BoundsResult(lower=lower, upper=upper, case_tag="b<0")
    if d <= b:
        lower = delta_fn(Fraction(b + d, m)) + rogers_L(kappa(A.d) ** ((a + b) / d))
        upper = delta_fn(Fraction(a + b, m)) + delta_fn(A.d)
        return BoundsResult(lower=lower, upper=upper, case_tag="d<=b")
    t = Fraction(D, m * (a - b))
    lower = delta_fn(Fraction(b + d, m)) + rogers_L(kappa(t) ** ((a + b) * (a - b) / D))
    upper = delta_fn(Fraction(a + b, m)) + delta_fn(t)
    return BoundsResult(lower=lower, upper=upper, case_tag="d>=b>0")

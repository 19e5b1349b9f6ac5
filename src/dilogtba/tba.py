"""Fixed points of the r=1 and r=2 TBA equations and their dilogarithm sums.

The r=2 system for a symmetric rational matrix A = ((a, b), (b, d)) is

    x = (1-x)^(2a) (1-y)^(2b),        y = (1-x)^(2b) (1-y)^(2d),

with solutions sought in the unit square.  The dilogarithm sum
c[A] = L(x) + L(y) at the principal solution is the quantity of
interest.  The r=1 case is the single equation x = (1-x)^(2a), whose
solution defines kappa(a); its dilogarithm value is delta_fn(a).

For b != 0, eliminating x gives the one-variable equation f(y) = 1 with

    f(y) = y^(1/(2b)) (1-y)^(-d/b) + y^(a/b) (1-y)^(-2D/b),   D = ad - b^2,

where the first term equals 1-x and the second equals x.

A positive semidefinite system (a, d > 0 with ad > b^2, or ad = b^2 with
b > 0; decided exactly) has exactly one solution: in w_i = log(1 - x_i)
the equations are the critical points of the strictly convex Nahm
potential V(w) = 1/2 w^T (2A) w + Li2(e^w1) + Li2(e^w2) (Zagier, "The
Dilogarithm Function", 2007, Part II), and damped Newton on V finds it
with no grid (_newton).  A Newton result whose residual exceeds 1e-13,
or a run that reaches the iteration cap, falls back to the scan.

Every other system is scanned: the solver finds every sign change of
f - 1 on a dense grid of (0,1) and refines each bracket by Newton-split
bisection (_bisect_root), which also counts the solution multiplicity.
One kernel evaluates the two terms for the grid scan (numpy, in place),
the refinement, the recovery of x and reduced_f (math, with exp
saturating to inf as np.exp does); the four exponents are computed once
per solve, each by one integer division from the entries over their
common denominator.

The scan has two levels.  A coarse pass evaluates every 64th grid
point.  Each term y^p (1-y)^q is monotone between two coarse points
unless its critical point p/(p+q) lies there, so away from the
critical points the end values bound f on the whole cell, and a cell
whose bounds clear 1 by a relative margin far above the rounding error
cannot hold a zero or a sign change.  The fine pass evaluates only the
remaining cells, with the same grid values and operations as a scan of
every point, so the brackets and every root are bit-identical to it;
exponents too large for the margin to cover refine every cell.  One
kernel, _scan_block, runs both passes for a block of exponent rows, in
chunks of rows whose arrays hold a bounded number of values; every
value is computed elementwise, so a row's result does not depend on the
block or chunk it is scanned in.  solve_r2 keeps each result, the
solution or the ScanFailure message, under the key (A.integers,
grid_n), for the last 16 384 keys of the process, so a repeated matrix
is neither scanned nor solved again.  grid_n is 100 000 for a single
solve and an int from 1001 to 10^7 everywhere (_checked_grid_n).  A
lone solve scans a block of one; prescan solves a block of matrices
with one scan and puts the results in that store, and the search
prescans its matrices a block at a time, paying numpy's fixed cost per
call once per block.  numpy is imported on first use, inside
_coarse_grid, _scan_block and _exp_in_place, so a process that solves
only positive semidefinite or b = 0 systems does not load it.  For
b = 0 the system decouples into two r=1 problems.
Boundary fixed points (x,y) in {(0,1), (1,0)} exist exactly when d = 0
(resp. a = 0) with b > 0; they are reported separately from interior
solutions and are only promoted to principal when no interior solution
exists.

Entries are exact Fractions; a diagonal r=1 entry may also be the
frozen value INFINITY, meaning the variable is pinned at x = 0.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .dilog import rogers_L
from .errors import DomainError, RangeViolation, ScanFailure

__all__ = [
    "INFINITY",
    "RationalSymmetricMatrix",
    "TbaSolution",
    "kappa",
    "delta_fn",
    "solve_r1",
    "solve_r2",
    "c_of",
    "reduced_f",
    "check_range",
]

INFINITY = math.inf

_HALF = Fraction(1, 2)


def _as_fraction(v, what: str = "entry") -> Fraction:
    """Exact coercion; floats are rejected to keep entries exact."""
    if type(v) is Fraction:
        return v
    if isinstance(v, bool) or isinstance(v, float):
        raise DomainError(f"{what} must be an exact rational (int, Fraction, or string), got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"cannot parse {what} {v!r} as a rational") from exc


@dataclass(frozen=True)
class RationalSymmetricMatrix:
    """Symmetric 2x2 matrix ((a, b), (b, d)) with exact rational entries."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a, "a"))
        object.__setattr__(self, "b", _as_fraction(self.b, "b"))
        object.__setattr__(self, "d", _as_fraction(self.d, "d"))

    @property
    def D(self) -> Fraction:
        """Determinant ad - b^2."""
        return self.a * self.d - self.b * self.b

    @cached_property
    def integers(self) -> tuple[int, int, int, int]:
        """(a, b, d) as integer numerators over their least common
        denominator m, followed by m."""
        m = math.lcm(self.a.denominator, self.b.denominator, self.d.denominator)
        a, b, d = (v.numerator * (m // v.denominator) for v in (self.a, self.b, self.d))
        return a, b, d, m

    @property
    def entries(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.d)

    def scaled(self, s) -> "RationalSymmetricMatrix":
        s = _as_fraction(s, "scale")
        return RationalSymmetricMatrix(self.a * s, self.b * s, self.d * s)

    def swapped(self) -> "RationalSymmetricMatrix":
        """The matrix with a and d exchanged (relabels x <-> y)."""
        return RationalSymmetricMatrix(self.d, self.b, self.a)

    def canonical(self) -> tuple["RationalSymmetricMatrix", bool]:
        """Representative with a >= d, plus whether a swap happened."""
        if self.a < self.d:
            return self.swapped(), True
        return self, False

    def max_denominator(self) -> int:
        return max(self.a.denominator, self.b.denominator, self.d.denominator)

    def __str__(self) -> str:
        return f"({self.a} {self.b}; {self.b} {self.d})"


def check_range(A: RationalSymmetricMatrix) -> bool:
    """Entry conditions a, d >= 0 and b >= -min(a, d), checked exactly.

    With b < 0 they force D >= 0.  They do not guarantee a solution in
    the unit square (see forces_xy_one).
    """
    a, b, d, _ = A.integers
    return a >= 0 and d >= 0 and b >= -min(a, d)


def forces_xy_one(A: RationalSymmetricMatrix) -> bool:
    """a = d = -b != 0, exactly: the r=2 equations then multiply to xy = 1,
    so no solution exists (the boundary points need a = 0 or d = 0)."""
    a, b, d, _ = A.integers
    return a == d == -b != 0


@dataclass(frozen=True)
class TbaSolution:
    """A solved TBA fixed point.

    x, y          principal solution (y is None for r=1)
    c             L(x) + L(y) (or L(x) for r=1) at the principal solution
    residual      max absolute defect of the defining equations there
    multiplicity  number of distinct interior solutions found (1 for a
                  positive semidefinite system, by convexity)
    boundary_flag True when a boundary solution, (0,1) for d = 0 or
                  (1,0) for a = 0, coexists with an interior one and
                  0 < b < 1/2
    interior      all interior solutions, ascending in y
    boundary      boundary solutions present ((0,1) and/or (1,0))
    principal_is_boundary  True when no interior solution exists and a
                  boundary one was promoted to principal
    """

    x: float
    y: float | None
    c: float
    residual: float
    multiplicity: int
    boundary_flag: bool = False
    interior: tuple[tuple[float, float], ...] = field(default=())
    boundary: tuple[tuple[float, float], ...] = field(default=())
    principal_is_boundary: bool = False


# ---------------------------------------------------------------------------
# kappa and delta


@lru_cache(maxsize=1024)
def _kappa_cached(p: int, q: int) -> float:
    try:
        tf = p / q  # t = p/q, correctly rounded like float(t)
    except OverflowError:
        raise DomainError(f"kappa argument t = {Fraction(p, q)} overflows a float") from None
    # g(xi) = ln xi - 2t ln(1-xi) is strictly increasing with g(0+) = -inf
    # and g(1-) = +inf, so plain bisection is safe.
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        g = math.log(mid) - 2.0 * tf * math.log1p(-mid)
        if g < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kappa(t) -> float:
    """The unique root of xi = (1-xi)^(2t) on [0,1]; decreasing in t."""
    if t is None:
        raise DomainError("t must be a nonnegative rational or INFINITY")
    if isinstance(t, float):
        if math.isinf(t) and t > 0:
            return 0.0
        if math.isnan(t):
            raise DomainError("t must not be NaN")
        raise DomainError("t must be an exact rational (int, Fraction, or string) or INFINITY")
    t = _as_fraction(t, "t")
    p, q = t.numerator, t.denominator  # lowest terms, q > 0
    if p < 0:
        raise DomainError(f"kappa requires t >= 0, got {t}")
    if p == 0:
        return 1.0
    if (p, q) == (1, 2):
        return 0.5
    return _kappa_cached(p, q)


def delta_fn(t) -> float:
    """delta(t) = L(kappa(t)); delta(0) = 1, strictly decreasing."""
    return rogers_L(kappa(t))


# ---------------------------------------------------------------------------
# r = 1


def solve_r1(a) -> TbaSolution:
    """Solve x = (1-x)^(2a); a >= 0 rational or the frozen INFINITY."""
    x = kappa(a)  # 0.0 for INFINITY
    if x in (0.0, 1.0):
        residual = 0.0
    else:
        residual = abs(x - (1.0 - x) ** (2.0 * float(_as_fraction(a))))
    return TbaSolution(x=x, y=None, c=rogers_L(x), residual=residual, multiplicity=1)


# ---------------------------------------------------------------------------
# r = 2


def _exponents(A: RationalSymmetricMatrix) -> tuple[float, float, float, float]:
    """Exponents (p0, p1, p2, p3) of f(y) = y^p0 (1-y)^p1 + y^p2 (1-y)^p3.

    With a, b, d = a'/m, b'/m, d'/m these are m/(2b'), -d'/b', a'/b' and
    -2(a'd' - b'^2)/(m b').  Each is one integer division, which is
    correctly rounded, so it equals the float of the exact fraction.
    Raises DomainError if an exponent is too large for a float.
    """
    a, b, d, m = A.integers
    # the sign of b goes to the numerators, so a zero exponent is +0.0
    s, b = (1, b) if b > 0 else (-1, -b)
    try:
        return (s * m / (2 * b), -s * d / b, s * a / b, -2 * s * (a * d - b * b) / (m * b))
    except OverflowError:
        raise DomainError(f"an exponent of the reduced equation for {A} overflows a float") from None


def _terms(p, ly, l1y, exp):
    """The two terms (1-x, x) of f, given ly = log y and l1y = log(1-y).

    exp is _exp for a single point and _exp_in_place on the scan
    grid, where the augmented assignments then work in place.  Either
    way the operations and their order are those of
    exp(p0 ly + p1 l1y), exp(p2 ly + p3 l1y), so values are bit-identical.
    """
    u = ly * p[0]
    u += l1y * p[1]
    w = ly * p[2]
    w += l1y * p[3]
    return exp(u), exp(w)


def _exp_in_place(a):
    import numpy as np

    return np.exp(a, out=a)


def _exp(u: float) -> float:
    """math.exp saturating to inf, as np.exp does on the scan grid."""
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def reduced_f(A: RationalSymmetricMatrix, y: float) -> float:
    """f(y) = y^(1/(2b)) (1-y)^(-d/b) + y^(a/b) (1-y)^(-2D/b).

    Interior TBA solutions correspond to f(y) = 1; the first term is
    then 1-x and the second is x.  Requires b != 0 and y in (0,1).
    """
    if A.b == 0:
        raise DomainError("reduced equation needs b != 0 (b = 0 decouples into r=1 problems)")
    if not (0.0 < y < 1.0):
        raise DomainError(f"reduced_f is defined on the open interval (0,1), got y={y}")
    one_minus_x, x = _terms(_exponents(A), math.log(y), math.log1p(-y), _exp)
    return one_minus_x + x


# The sign scan of f - 1 (see _scan_block): every _STRIDE-th grid point
# is evaluated first, and a cell between two of them is skipped only when
# its monotonicity bounds clear 1 by the relative _MARGIN.
_STRIDE = 64
_MARGIN = 1e-9
# refined cells per fine-pass array: up to 2^14 x (_STRIDE + 1) values,
# about 8.5 MB each, also where a 10^7-point grid refines every cell
_FINE_CELLS = 1 << 14
# values per coarse-pass array, 1 MB: a chunk takes as many rows as fit,
# one at least, so a block of 32 rows at 20 001 points (314 values a
# row) is one chunk, and at 10^7 (156 251) a row at a time, as a lone solve
_COARSE_VALUES = 1 << 17

_Scan = tuple[list[float], list[tuple[float, float, float]]]


@lru_cache(maxsize=4)
def _coarse_grid(n: int):
    """Numerators k + 1 = 1, S + 1, 2S + 1, ..., n of the coarse points
    y = (k+1)/(n+1), log y and log(1-y) there, and the offsets 0..S of
    a fine cell's points from its first."""
    import numpy as np

    kp = np.minimum(np.arange(1, n + _STRIDE, _STRIDE), n)
    y = kp / (n + 1)
    grid = kp, np.log(y), np.log1p(-y), np.arange(_STRIDE + 1)
    for a in grid:
        a.flags.writeable = False  # every scan at this n shares them
    return grid


def _scan_block(P, n: int) -> list[_Scan]:
    """Exact zeros and sign changes of g = f - 1 on y_k = (k+1)/(n+1), k < n,
    for each row p of the (k, 4) exponent array P.

    Returns per row the ascending y_k with g(y_k) == 0 and, ascending,
    the brackets (y_k, y_k+1, g(y_k)) where g changes sign: exactly what
    evaluating g on all n points finds, each value bit-identical, while
    g is evaluated only in cells that can hold a zero or a sign change.
    Every value is computed elementwise, so a row's result does not
    depend on the other rows.

    The coarse pass evaluates the two terms at k = 0, S, 2S, ... and
    n - 1 (S = _STRIDE), for a chunk of rows as one (k x cells+1)
    array of at most _COARSE_VALUES values, or one row.  A
    term y^p (1-y)^q is monotone on any cell that avoids its critical
    point p/(p+q), which is interior only when p and q have the same
    sign; on such a cell f lies between lo, the sum of the terms'
    smaller end values, and hi, the sum of the larger.  Each computed
    term is within a relative 8 eps (1 + w) of its exact value,
    w = (|p| + |q|) log(n+1) bounding |p log y| + |q log(1-y)| over the
    grid, so a cell away from both critical points with
    lo (1 - _MARGIN) > 1 or hi (1 + _MARGIN) < 1 keeps one sign at every
    grid point; a NaN end value certifies nothing.  When the exponents
    make that error exceed the margin (e.g. b = 1/10^33), every cell of
    the row is refined.  The fine pass evaluates the refined (row, cell)
    pairs of each chunk, end points included, as (pairs x S+1) arrays
    of at most one row's worth of cells, and at most _FINE_CELLS pairs,
    each.
    """
    import numpy as np

    P = np.asarray(P, dtype=np.float64).reshape(-1, 4)
    hits: list[set[float]] = [set() for _ in range(len(P))]
    flips: list[list[tuple[float, float, float]]] = [[] for _ in range(len(P))]
    kp, ly, l1y, cell = _coarse_grid(n)
    cells = len(kp) - 1
    chunk, step = max(1, _COARSE_VALUES // len(kp)), min(cells, _FINE_CELLS)
    # inf * 0 in the sign test below is NaN, which is not a flip
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for first in range(0, len(P), chunk):
            Pc = P[first:first + chunk]
            t0, t1 = _terms(Pc.T[:, :, None], ly, l1y, _exp_in_place)
            lo = np.minimum(t0[:, :-1], t0[:, 1:])
            lo += np.minimum(t1[:, :-1], t1[:, 1:])
            lo *= 1.0 - _MARGIN
            hi = np.maximum(t0[:, :-1], t0[:, 1:])
            hi += np.maximum(t1[:, :-1], t1[:, 1:])
            hi *= 1.0 + _MARGIN
            refine = ~((lo > 1.0) | (hi < 1.0))
            # per row, as Python floats: for the few rows of a block this is
            # cheaper than a dozen numpy calls on k-element arrays
            for i, p in enumerate(Pc.tolist()):
                w = max(abs(p[0]) + abs(p[1]), abs(p[2]) + abs(p[3])) * math.log(n + 1)
                if 32.0 * sys.float_info.epsilon * (1.0 + w) > _MARGIN:
                    refine[i] = True
                for e, q in (p[:2], p[2:]):
                    if (e > 0.0 and q > 0.0) or (e < 0.0 and q < 0.0):
                        # the cell holding the critical point.  Rounding moves
                        # it to a neighbour only when the point lies within a
                        # few ulps of their common coarse point, where the term
                        # is flat: on the neighbour it then exceeds its end
                        # values by a relative |e + q| (n+1) ulp^2 at most, under
                        # 1e-18 on a row not refined whole, far inside _MARGIN
                        j = int(((n + 1) * (e / (e + q)) - 1.0) // _STRIDE)
                        refine[i, min(max(j, 0), cells - 1)] = True

            # fine pass; the last cell is padded by repeating y_(n-1)
            rows, cols = np.nonzero(refine)
            rows += first
            for s in range(0, len(rows), step):
                r = rows[s:s + step]
                y = np.minimum(kp[cols[s:s + step], None] + cell, n) / (n + 1)
                one_minus_x, g = _terms(P[r].T[:, :, None], np.log(y), np.log1p(-y),
                                        _exp_in_place)
                g += one_minus_x
                g -= 1.0
                # a nonzero g has |g| >= 2^-53 (f - 1 is exact for f in [1/2, 2]),
                # so the product of neighbours cannot underflow: it is negative
                # exactly at a sign change, and NaN or 0 (never a flip) otherwise
                for i, c in zip(*np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)):
                    flips[r[i]].append((float(y[i, c]), float(y[i, c + 1]), float(g[i, c])))
                # an exact zero is a root, not a flip; neighbouring cells share an
                # end point and the padding repeats one, so a zero can be seen twice
                for i, c in zip(*np.nonzero(g == 0.0)):
                    hits[r[i]].add(float(y[i, c]))
    return [(sorted(h), f) for h, f in zip(hits, flips)]


def _residuals(A: RationalSymmetricMatrix, x: float, y: float) -> float:
    a, b, d, m = A.integers
    a, b, d = a / m, b / m, d / m

    def powf(base: float, e: float) -> float:
        if base == 0.0:
            return 1.0 if e == 0.0 else 0.0
        return base ** e

    def product(u: float, e: float, v: float, f: float) -> float:
        # u^e v^f; a factor alone can overflow (e or f < 0) where the
        # product does not, and then both bases are positive
        try:
            return powf(u, e) * powf(v, f)
        except OverflowError:
            return _exp(e * math.log(u) + f * math.log(v))

    r1 = abs(x - product(1.0 - x, 2.0 * a, 1.0 - y, 2.0 * b))
    r2 = abs(y - product(1.0 - x, 2.0 * b, 1.0 - y, 2.0 * d))
    return max(r1, r2)


# A split keeps a relative 2^-52 (one or two ulps) from the bracket's
# ends, and a bracket narrower than twice that has closed.
_NUDGE = 2.0**-52


def _bisect_root(p, lo: float, hi: float, glo: float) -> float:
    """A root of g = f - 1 in the bracket (lo, hi), g(lo) having glo's sign.

    Each step splits the bracket at the Newton point of g from the
    current point, with g' = t0 (p0/y - p1/(1-y)) + t1 (p2/y - p3/(1-y))
    from the two terms t0, t1 of f there.  It takes the midpoint instead
    when that point leaves the open bracket or is not at least twice as
    close as the step before, so a term that changes by orders of
    magnitude across the bracket cannot stall it.  A split within a few
    ulps of an end moves to a few ulps from it, so once Newton has
    converged the next split lands beyond the root and the bracket
    closes around it.  It stops at an exact zero, or at the midpoint of
    a bracket narrower than a few ulps (or one no float splits).
    """
    y = 0.5 * (lo + hi)
    last = hi - lo
    for _ in range(120):
        if not lo < y < hi or hi - lo < 2.0 * _NUDGE * hi:
            break
        t0, t1 = _terms(p, math.log(y), math.log1p(-y), _exp)
        g = t0 + t1 - 1.0
        if g == 0.0:
            return y
        if (g < 0.0) == (glo < 0.0):
            lo = y
        else:
            hi = y
        dg = t0 * (p[0] / y - p[1] / (1.0 - y)) + t1 * (p[2] / y - p[3] / (1.0 - y))
        split = y - g / dg if dg else y
        if lo < split < hi and abs(split - y) <= 0.5 * last:
            last = abs(split - y)
        else:
            split = 0.5 * (lo + hi)
            last = 0.5 * (hi - lo)
        y = min(max(split, lo + _NUDGE * lo), hi - _NUDGE * hi)
    return 0.5 * (lo + hi)


def _continuum(integers: tuple[int, int, int, int]) -> bool:
    """a = d = 0, b = 1/2 exactly, from (a, b, d) over a common denominator
    m: the continuum x + y = 1 of solutions, not a discrete system."""
    a, b, d, m = integers
    return a == d == 0 and 2 * b == m


def _scanned_exponents(A: RationalSymmetricMatrix) -> tuple[float, float, float, float]:
    """_exponents(A) of a matrix with b != 0 that solve_r2 scans.

    Raises ScanFailure for a = d = 0, b = 1/2 and a = d = -b != 0, which
    are decided exactly, and DomainError when an exponent overflows.
    """
    if _continuum(A.integers):
        raise ScanFailure(
            "a = d = 0, b = 1/2 has a one-parameter continuum of solutions x + y = 1"
        )
    if forces_xy_one(A):
        raise ScanFailure(f"a = d = -b in {A} forces xy = 1, which has no solution in (0,1)^2")
    return _exponents(A)


def _convex(A: RationalSymmetricMatrix) -> bool:
    """b != 0, a, d > 0 and ad > b^2 (or ad = b^2 with b > 0), exactly.

    Then the solutions are the critical points of a strictly convex
    potential with a minimiser in the open negative quadrant (see _newton).
    """
    a, b, d, _ = A.integers
    return b != 0 and a > 0 and d > 0 and (a * d > b * b or (a * d == b * b and b > 0))


# Newton iterations before _newton gives up and solve_r2 scans instead
_NEWTON_CAP = 100
_BELOW_ONE = 1.0 - 2.0**-53


def _start(t: Fraction, bt: float) -> float:
    """log(1 - kappa(t)), the decoupled solution for a diagonal entry t
    with bt = 2t; when kappa(t) rounds to 1, the leading term
    log(bt log(1/bt)) of 1 - kappa = bt log(1/(1 - kappa))."""
    k = kappa(t)
    if k < 1.0:
        return math.log1p(-k)
    bt = max(bt, math.ulp(0.0))
    return math.log(bt) + math.log(-math.log(bt))


def _newton(A: RationalSymmetricMatrix) -> tuple[float, float, float] | None:
    """The solution (x, y) of a _convex system and its residual, or None
    when Newton fails.

    In w_i = log(1 - x_i) < 0 the equations are the critical points of
    V(w) = 1/2 w^T (2A) w + Li2(e^w1) + Li2(e^w2), with gradient
    2A w - log(1 - e^w) and Hessian 2A + diag((1 - x)/x), which is
    positive definite where 2A is positive semidefinite.  V has a
    minimiser: for D > 0 it grows quadratically on the negative quadrant,
    for D = 0 with b > 0 the null direction (b, -a) of 2A leaves it, and
    dV/dw_i -> +inf as w_i -> 0-.  Damped Newton starts at the decoupled
    point w_i = log(1 - kappa(a_ii)), halves a step until w stays below 0,
    and stops at the rounding floor: a full step below 1e-8 relative
    that is no longer half the one before.  The result is returned only
    if its residual is at most 1e-13.  An entry too large for a float
    raises DomainError.
    """
    a, b, d, m = A.integers
    try:
        b11, b12, b22 = 2 * a / m, 2 * b / m, 2 * d / m
    except OverflowError:
        raise DomainError(f"an entry of {A} overflows a float") from None
    try:
        det = 4 * (a * d - b * b) / (m * m)  # det 2A, exactly rounded
    except OverflowError:
        return None
    w1, w2 = _start(A.a, b11), _start(A.d, b22)
    last = math.inf
    for _ in range(_NEWTON_CAP):
        e1, e2 = math.exp(w1), math.exp(w2)
        x1, x2 = -math.expm1(w1), -math.expm1(w2)
        # log x = log(1 - e^w), accurate also where x rounds to 1
        g1 = b11 * w1 + b12 * w2 - (math.log1p(-e1) if e1 < 0.5 else math.log(x1))
        g2 = b12 * w1 + b22 * w2 - (math.log1p(-e2) if e2 < 0.5 else math.log(x2))
        h1, h2 = e1 / x1, e2 / x2
        # the Hessian's determinant, free of cancellation when det = 0;
        # it is 0 only where both e^w underflow
        hdet = det + b11 * h2 + b22 * h1 + h1 * h2
        if not hdet > 0.0:
            return None
        s1 = (b12 * g2 - (b22 + h2) * g1) / hdet
        s2 = (b12 * g1 - (b11 + h1) * g2) / hdet
        size = max(abs(s1 / w1), abs(s2 / w2))
        if not size < math.inf:
            return None
        if size < 1e-8 and (size == 0.0 or size > 0.5 * last):
            # an x within 2^-54 of 1 rounds to 1, which is not interior
            x, y = min(x1, _BELOW_ONE), min(x2, _BELOW_ONE)
            residual = _residuals(A, x, y)
            return (x, y, residual) if residual <= 1e-13 else None
        last = size
        t = 1.0
        while w1 + t * s1 >= 0.0 or w2 + t * s2 >= 0.0:
            t *= 0.5
        w1 += t * s1
        w2 += t * s2
    return None


# The grid of a single solve_r2, and the bounds of every grid_n: below
# 1001 points the scan does not separate close roots, and at 10^7 points
# a scan's arrays stay near 100 MB (a row that refines every cell, or a
# search block's coarse pass).
DEFAULT_GRID_N = 100_000
GRID_N_MIN, GRID_N_MAX = 1001, 10**7


def _checked_grid_n(grid_n) -> int:
    """grid_n itself; DomainError unless it is an int (a bool is not)
    from GRID_N_MIN to GRID_N_MAX."""
    if isinstance(grid_n, bool) or not isinstance(grid_n, int) or not GRID_N_MIN <= grid_n <= GRID_N_MAX:
        raise DomainError(f"grid_n must be an integer from {GRID_N_MIN} to {GRID_N_MAX}, got {grid_n!r}")
    return grid_n


# Results of solve_r2 by (A.integers, grid_n): the TbaSolution, or the
# message of the ScanFailure it raised.  Beyond _SOLVED_CAP entries the
# oldest goes first.
_SOLVED: OrderedDict[tuple, TbaSolution | str] = OrderedDict()
_SOLVED_CAP = 16_384


def solve_r2(
    A: RationalSymmetricMatrix,
    grid_n: int = DEFAULT_GRID_N,
    enforce_range: bool = True,
) -> TbaSolution:
    """Solve the r=2 system, reporting all interior solutions found.

    A positive semidefinite system (a, d > 0 with ad > b^2, or ad = b^2
    with b > 0, decided exactly on the entries) is solved by damped
    Newton on its convex Nahm potential: its one solution has
    multiplicity 1 by convexity, and grid_n does not affect it.  Newton
    falls back to the scan below when its residual exceeds 1e-13 or it
    reaches its iteration cap.  b = 0 decouples into kappa(a), kappa(d).

    Every other system is scanned: the scan finds every exact zero and
    sign change of the reduced equation on the uniform grid
    y_k = (k+1)/(grid_n+1), k < grid_n, and refines every sign change by
    Newton-split bisection to a bracket a few ulps wide; x is recovered
    from the second reduced term.  It evaluates every 64th grid point,
    then only the cells between them that can hold a sign change: a cell
    is skipped when both terms are monotone on it (their critical points
    lie elsewhere) and the sums of their end values clear 1 by a
    relative 1e-9, far above the rounding error; exponents so large that
    the rounding error could reach the margin (e.g. b = 1/10^33) refine
    every cell.  The brackets are bit-identical to those of evaluating
    all grid_n points.  The principal solution is the interior one with
    smallest y; boundary solutions are listed separately and promoted
    to principal only when nothing interior exists.  Raises
    RangeViolation outside the admissible entry range, DomainError when
    an entry or an exponent overflows a float, and ScanFailure when no
    solution is found, before the scan for a = d = 0, b = 1/2 (a
    continuum) and a = d = -b != 0 (xy = 1).  grid_n must be an int
    from GRID_N_MIN = 1001 to GRID_N_MAX = 10^7 for every system
    (_checked_grid_n, which SearchConfig and the CLI's --grid-n call
    too); anything else raises DomainError.

    The entry range is neither sufficient nor necessary for a solution:
    some continuous families (for example b = 1/2 - sqrt(ad) with large
    ad) leave it yet still solve.  Pass enforce_range=False to solve
    such matrices anyway; outside the range nothing is guaranteed and
    ScanFailure simply means the grid found no sign change.

    The result is a function of A.integers and grid_n alone, so the
    process keeps it under that key: the last 16 384 results (a
    TbaSolution, or a ScanFailure's message, raised again as a new
    ScanFailure) are held, prescan's among them, and a repeated solve
    returns the held TbaSolution itself.  The range and grid_n checks
    run on every call; a DomainError is not held.
    """
    _checked_grid_n(grid_n)
    if enforce_range and not check_range(A):
        raise RangeViolation(f"matrix {A} violates the entry range (a,d >= 0, b >= -min(a,d))")
    held = _held(A, grid_n)
    if type(held) is str:
        raise ScanFailure(held)
    return held


def prescan(matrices, grid_n: int) -> None:
    """Solve, with one scan, every matrix of matrices that solve_r2 would
    scan, and hold the results as solve_r2(A, grid_n) would.

    Solving a block of matrices one by one then costs one numpy pass
    instead of one per matrix.  Matrices with b = 0, the positive
    semidefinite ones (solved by Newton), the a = d = 0, b = 1/2
    continuum, the singular a = d = -b, those whose exponents overflow
    and those already held are skipped.  A row's scan does not depend on
    its block, so the results are those of solve_r2.
    """
    todo, ps = [], []
    for A in matrices:
        if A.b != 0 and not _convex(A) and (A.integers, grid_n) not in _SOLVED:
            try:
                ps.append(_scanned_exponents(A))
            except (DomainError, ScanFailure):
                continue
            todo.append(A)
    if ps:
        for A, scan in zip(todo, _scan_block(ps, grid_n)):
            _held(A, grid_n, scan)


def _held(A: RationalSymmetricMatrix, grid_n: int, scan: _Scan | None = None) -> TbaSolution | str:
    """The result solve_r2 holds for A at grid_n, computed (from A's scan,
    if given) and held when it is not held yet."""
    key = (A.integers, grid_n)
    held = _SOLVED.get(key)
    if held is None:
        try:
            held = _solve_r2(A, grid_n, scan)
        except ScanFailure as exc:
            held = str(exc)
        _SOLVED[key] = held
        if len(_SOLVED) > _SOLVED_CAP:
            _SOLVED.popitem(last=False)
    return held


def _solve_r2(A: RationalSymmetricMatrix, grid_n: int, scan: _Scan | None) -> TbaSolution:
    """solve_r2 of an in-range A (or one whose range is not enforced),
    taking the scan of A when it is given."""
    a, b, d, m = A.integers
    interior: list[tuple[float, float]] = []
    boundary: list[tuple[float, float]] = []
    residual = None
    if b == 0:
        interior.append((kappa(A.a), kappa(A.d)))
    elif _convex(A) and (root := _newton(A)):
        x, y, residual = root
        interior.append((x, y))
    else:
        p = _scanned_exponents(A)
        if d == 0 and b > 0:
            boundary.append((0.0, 1.0))
        if a == 0 and b > 0:
            boundary.append((1.0, 0.0))
        roots, flips = scan or _scan_block([p], grid_n)[0]
        for lo, hi, glo in flips:
            roots.append(_bisect_root(p, lo, hi, glo))
        roots.sort()
        for yr in roots:
            if interior and abs(yr - interior[-1][1]) < 1e-10:
                continue
            xr = _terms(p, math.log(yr), math.log1p(-yr), _exp)[1]
            if 0.0 < xr < 1.0:
                interior.append((xr, yr))
    if not (interior or boundary):
        raise ScanFailure(f"no solution found for {A} on a grid of {grid_n} points")
    px, py = (interior or boundary)[0]
    return TbaSolution(
        x=px, y=py, c=rogers_L(px) + rogers_L(py),
        residual=_residuals(A, px, py) if residual is None else residual,
        multiplicity=len(interior) or 1,
        boundary_flag=bool(interior and boundary) and 2 * b < m,
        interior=tuple(interior), boundary=tuple(boundary),
        principal_is_boundary=not interior,
    )


def c_of(A, **options) -> float:
    """Dilogarithm sum at the principal solution.

    Accepts a RationalSymmetricMatrix (r=2), solved by solve_r2 with the
    keyword options given (grid_n, enforce_range; solve_r2's defaults
    otherwise), or a single rational or INFINITY (r=1), which takes none
    (TypeError).
    """
    if isinstance(A, RationalSymmetricMatrix):
        return solve_r2(A, **options).c
    if options:
        raise TypeError(f"a rank-1 system takes no solve options, got {sorted(options)}")
    return solve_r1(A).c

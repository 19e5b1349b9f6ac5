"""Fermionic q-series: exact expansion, numeric evaluation, asymptotics.

A fermionic form is

    chi(q) = q^lead * sum_{m >= 0} q^(m.A m + B.m) / ((q)_{m_1} ... (q)_{m_r})

with r = 1 or 2, (q)_n = prod_{k=1..n} (1 - q^k), A a rational
symmetric r x r matrix (a scalar for r = 1; for r = 2 the quadratic
form is a m1^2 + 2b m1 m2 + d m2^2), B a rational vector, and optional
per-variable congruence restrictions m_i = res (mod modulus).

Each form is scaled once to integers over its lattice denominator L,
the lcm of the denominators in A, B and lead, and expand() and eval_at()
work on those integers for every rank.  expand() produces exact integer
coefficients on the lattice (1/L) Z.  eval_at() sums the series
numerically at real q in (0,1) with a geometric tail bound.
estimate_ceff() extrapolates the q -> 1 growth

    ln chi(e^-eps) ~ pi^2 c_eff / (6 eps)

to eps -> 0 through a linear least-squares fit of
s(eps) = (6 eps/pi^2) ln chi(e^-eps), whose intercept estimates the
effective central charge; by duality this matches the dilogarithm sum
c[A] of the TBA system with the same matrix.

The shipped FORMS are the seven catalog characters: three r=1 forms
(effective charges 2/5, 1/2, 3/5) and four r=2 forms (5/7, 4/5, 3/4,
7/10), two of which carry a parity restriction on m_2.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonTerminatingSeries, RangeViolation, TailBoundError
from .tba import _HALF, RationalSymmetricMatrix, _as_fraction

__all__ = [
    "FermionicForm",
    "QSeries",
    "expand",
    "eval_at",
    "estimate_ceff",
    "restricted_variant",
    "unrestricted_variant",
    "FORMS",
    "FORM_SYSTEMS",
]

_SAFETY_CAP = 10**6  # expand's largest coordinate
_SHELL_CAP = {1: 200_000, 2: 5_000}  # eval_at's largest max(m), by rank


def _as_restriction(res) -> tuple[int, int] | None:
    if res is None:
        return None
    modulus, residue = res
    modulus, residue = int(modulus), int(residue)
    if modulus < 1 or not (0 <= residue < modulus):
        raise DomainError(f"restriction must be (modulus >= 1, 0 <= residue < modulus), got {res}")
    return (modulus, residue)


@dataclass(frozen=True)
class FermionicForm:
    """One fermionic sum: matrix (or scalar), linear vector, prefactor.

    A is a RationalSymmetricMatrix (r = 2) or a single rational (r = 1).
    B has one entry per variable.  restrictions, when given, has one
    entry per variable: None or (modulus, residue).
    """

    A: RationalSymmetricMatrix | Fraction
    B: tuple[Fraction, ...]
    lead: Fraction = Fraction(0)
    restrictions: tuple[tuple[int, int] | None, ...] | None = None
    # A as r rows of Fractions, and (L, Q, Bn, lead_n) of exponent_numerators
    _rows: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False, compare=False)
    _integers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the one place that tells a scalar A from a matrix A
        A = self.A
        if isinstance(A, RationalSymmetricMatrix):
            rows = ((A.a, A.b), (A.b, A.d))
        else:
            A = _as_fraction(A, "A")
            rows = ((A,),)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "B", tuple(_as_fraction(v, "B entry") for v in self.B))
        object.__setattr__(self, "lead", _as_fraction(self.lead, "lead"))
        if len(self.B) != self.r:
            raise DomainError(f"B must have {self.r} entries, got {len(self.B)}")
        if self.restrictions is not None:
            if len(self.restrictions) != self.r:
                raise DomainError(f"restrictions must have {self.r} entries")
            object.__setattr__(
                self, "restrictions", tuple(_as_restriction(v) for v in self.restrictions)
            )

        L = math.lcm(*(v.denominator for v in (*itertools.chain(*rows), *self.B, self.lead)))

        def scaled(v: Fraction) -> int:
            n = v * L
            assert n.denominator == 1, "lattice denominator does not cover an entry"
            return n.numerator

        Q = tuple(tuple(map(scaled, row)) for row in rows)
        object.__setattr__(self, "_integers", (L, Q, tuple(map(scaled, self.B)), scaled(self.lead)))

    @property
    def r(self) -> int:
        return len(self._rows)

    def exponent(self, m: tuple[int, ...]) -> Fraction:
        """The quadratic-plus-linear exponent m.A m + B.m (without lead)."""
        quad = sum(v * x * y for row, x in zip(self._rows, m) for v, y in zip(row, m))
        return quad + sum(map(operator.mul, self.B, m))

    def allows(self, i: int, value: int) -> bool:
        if self.restrictions is None or self.restrictions[i] is None:
            return True
        modulus, residue = self.restrictions[i]
        return value % modulus == residue

    def lattice_denominator(self) -> int:
        return self._integers[0]

    def exponent_numerators(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...], int]:
        """The form scaled to integers over its lattice denominator L.

        Returns (L, Q, Bn, lead_n): the r x r matrix Q = L A, the
        vector Bn = L B and lead_n = L lead, so that
        L (lead + m.A m + B.m) = lead_n + m.Q m + Bn.m.
        """
        return self._integers


def _row(Q, Bn, outer: tuple[int, ...]) -> tuple[int, int]:
    """(base, t) with L (m.A m + B.m) = base + t y + Q_rr y^2 at m = (*outer, y)."""
    base = sum(x * (sum(map(operator.mul, row, outer)) + c) for x, row, c in zip(outer, Q, Bn))
    return base, 2 * sum(map(operator.mul, Q[-1], outer)) + Bn[-1]


def _allowed(form: FermionicForm, m: tuple[int, ...]) -> bool:
    return all(form.allows(i, x) for i, x in enumerate(m))


def restricted_variant(form: FermionicForm, index: int, modulus: int, residue: int) -> FermionicForm:
    """Copy of form with the congruence on variable index replaced."""
    if not (0 <= index < form.r):
        raise DomainError(f"variable index {index} out of range for r={form.r}")
    current = list(form.restrictions) if form.restrictions is not None else [None] * form.r
    current[index] = (modulus, residue)
    return FermionicForm(A=form.A, B=form.B, lead=form.lead, restrictions=tuple(current))


def unrestricted_variant(form: FermionicForm) -> FermionicForm:
    """Copy of form with all congruence restrictions removed."""
    return FermionicForm(A=form.A, B=form.B, lead=form.lead, restrictions=None)


# ---------------------------------------------------------------------------
# exact expansion


@dataclass(frozen=True)
class QSeries:
    """Exact truncated series sum_k coeffs[k] q^(k/denom), k integer.

    Exponents may be negative (a negative lead shifts the whole
    series); all exponents present are <= order.  Zero coefficients are
    not stored.
    """

    denom: int
    coeffs: dict[int, int]
    order: Fraction

    def __post_init__(self):
        if self.denom < 1:
            raise ValueError(f"denom must be a positive integer, got {self.denom}")
        object.__setattr__(self, "coeffs", {k: v for k, v in self.coeffs.items() if v != 0})
        order = _as_fraction(self.order, "order")
        object.__setattr__(self, "order", order)
        # k/denom > order, compared as integers
        top, den = order.numerator * self.denom, order.denominator
        for k in self.coeffs:
            if k * den > top:
                raise ValueError(f"stored exponent {k}/{self.denom} exceeds order {order}")

    def coefficient(self, exponent) -> int:
        """Coefficient of q^exponent; exact; 0 when absent (must be <= order)."""
        e = _as_fraction(exponent, "exponent")
        if e.numerator * self.order.denominator > self.order.numerator * e.denominator:
            raise ValueError(f"exponent {e} beyond truncation order {self.order}")
        k, rem = divmod(e.numerator * self.denom, e.denominator)
        return 0 if rem else self.coeffs.get(k, 0)

    def to_text(self) -> str:
        """Lines "k/L coefficient", ascending exponents, L fixed (diffable)."""
        return "\n".join(f"{k}/{self.denom} {self.coeffs[k]}" for k in sorted(self.coeffs)) + "\n"

    def eval_at(self, q: float) -> float:
        """Numeric value of the truncated series at real q in (0, 1)."""
        if not (0.0 < q < 1.0):
            raise DomainError(f"q must be in (0,1), got {q}")
        lnq = math.log(q)
        return math.fsum(c * math.exp(lnq * k / self.denom) for k, c in sorted(self.coeffs.items()))

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        L = math.lcm(self.denom, other.denom)
        out: dict[int, int] = {}
        for src in (self, other):
            scale = L // src.denom
            for k, v in src.coeffs.items():
                out[k * scale] = out.get(k * scale, 0) + v
        return QSeries(denom=L, coeffs=out, order=min(self.order, other.order))


def _partition_rows(max_parts: int, jmax: int) -> list[list[int]]:
    """rows[n][j] = number of partitions of j into parts <= n, as integers."""
    rows = [[1] + [0] * jmax]
    for n in range(1, max_parts + 1):
        row = rows[-1][:]
        for j in range(n, jmax + 1):
            row[j] += row[j - n]
        rows.append(row)
    return rows


def _check_terminates(form: FermionicForm) -> None:
    """Reject forms whose sum cannot be truncated at any finite order:
    outside the entry range, or without growth along a coordinate whose
    diagonal is 0 or along the null ray of a 2 x 2 block."""
    _, Q, Bn, _ = form.exponent_numerators()
    r = len(Bn)
    pairs = list(itertools.combinations(range(r), 2))
    if any(Q[i][i] < 0 for i in range(r)) or any(
        Q[i][j] < -min(Q[i][i], Q[j][j]) for i, j in pairs
    ):
        raise RangeViolation(
            f"A = {form.A} violates the entry range "
            "(diagonals >= 0, off-diagonals >= -min of their diagonals)"
        )
    for i in range(r):
        if Q[i][i] == 0:
            if Bn[i] < 0:
                raise RangeViolation(f"exponents decrease without bound along m_{i + 1}")
            if Bn[i] == 0:
                raise NonTerminatingSeries(
                    f"zero growth along m_{i + 1} (diagonal entry and B component both 0)"
                )
    for i, j in pairs:
        a, b, d = Q[i][i], Q[i][j], Q[j][j]
        if b < 0 and a * d == b * b:
            # The quadratic form vanishes on the ray k (-b, a) in
            # (m_i, m_j); the exponent there is linear with slope
            # B . (-b, a).
            slope = a * Bn[j] - b * Bn[i]
            if slope < 0:
                raise RangeViolation("exponents decrease without bound along the null ray")
            if slope == 0:
                raise NonTerminatingSeries("zero exponent growth along the null ray of the form")


def _walk_rows(Q, Bn, room: int):
    """(outer, *_row(Q, Bn, outer)) for the outer points m_1..m_(r-1)
    (none for r = 1) whose rows can hold an exponent <= room.  The walk
    stops, by exact tests, at a row whose minimum over real m_r >= 0
    exceeds room and lies beyond every vertex, so no later row reaches
    room either."""
    if len(Bn) == 1:
        yield (), *_row(Q, Bn, ())
        return
    (a, b), (_, d) = Q
    B1, B2 = Bn
    D = a * d - b * b
    m1 = 0
    while True:
        base, t = _row(Q, Bn, (m1,))
        # row minimum > room: base, or base - t^2/(4d) when the row's
        # vertex lies at m2 > 0
        above = 4 * d * (base - room) > t * t if d > 0 and t < 0 else base > room
        if above and (
            (a == 0 or 2 * a * m1 + B1 > 0)
            and (b == 0 or b * t > 0)
            and (d == 0 or D <= 0 or 2 * D * m1 + d * B1 - b * B2 > 0)
        ):
            return
        yield (m1,), base, t
        m1 += 1
        if m1 > _SAFETY_CAP:
            raise NonTerminatingSeries("enumeration exceeded the safety cap")


def expand(form: FermionicForm, order) -> QSeries:
    """Exact coefficients of the fermionic sum up to q^order.

    Every lattice point m >= 0 passing the restrictions contributes
    q^(lead + m.A m + B.m) times the product of inverse Pochhammer
    series; contributions beyond the order are dropped exactly.  Raises
    RangeViolation if a negative exponent m.A m + B.m is encountered
    (the admissible range guarantees nonnegativity for the catalog
    forms) and NonTerminatingSeries when the sum has infinitely many
    terms at some exponent below the order.

    One integer walk serves every rank.  It visits the outer
    coordinates m_1..m_(r-1) (none for r = 1) row by row and, in each
    row, the inner m_r, keeping the points with
    k = L (lead + m.A m + B.m) <= floor(order L); a row ends once it is
    past its vertex with k above that cutoff.  The points are grouped
    by their outer coordinates and by k mod L.  Within a group the
    partition rows 1/(q)_(m_r) are added at their integer offsets, and
    the group sum is then divided by each (q)_(m_i), i < r, in place,
    one running sum s[i] += s[i-k] per k = 1..m_i (Euler's
    recurrence).  All arithmetic is on exact integers; the cost is
    O(points * order + sum over groups of (m_1 + ... + m_(r-1)) * order).
    """
    order = _as_fraction(order, "order")
    if order <= 0:
        raise DomainError(f"order must be positive, got {order}")
    _check_terminates(form)

    L, Q, Bn, lead = form.exponent_numerators()
    top = math.floor(order * L)
    room = top - lead  # largest L (m.A m + B.m) kept
    d = Q[-1][-1]
    inner = len(Bn) - 1
    groups: dict[tuple[tuple[int, ...], int], list[tuple[int, int]]] = {}
    k_min, max_inner = top, 0
    for outer, base, t in _walk_rows(Q, Bn, room):
        row_allowed = _allowed(form, outer)
        e, m = base, 0
        while True:
            if e > room:
                if 2 * d * m + t > 0:  # past the vertex the exponent only grows
                    break
            elif e < 0:
                point = ",".join(map(str, (*outer, m)))
                raise RangeViolation(f"negative exponent {Fraction(e, L)} at m=({point})")
            elif row_allowed and form.allows(inner, m):
                k = lead + e
                groups.setdefault((outer, k % L), []).append((k, m))
                k_min, max_inner = min(k_min, k), max(max_inner, m)
            e += d * (2 * m + 1) + t
            m += 1
            if m > _SAFETY_CAP:
                raise NonTerminatingSeries("enumeration exceeded the safety cap")

    # the lowest exponent needs the longest partition row
    rows = _partition_rows(max_inner, (top - k_min) // L)

    coeffs: dict[int, int] = {}
    for (outer, res), pts in groups.items():
        # s[i] is the coefficient of q^((res + (n_lo + i) L) / L)
        n_lo = min(k for k, _ in pts) // L
        n_hi = (top - res) // L
        s = [0] * (n_hi - n_lo + 1)
        for k, m in pts:
            off = k // L - n_lo
            width = n_hi - n_lo + 1 - off
            s[off:] = map(operator.add, s[off:], rows[m][:width])
        # divide by (q)_(m_i): 1/(1 - q^j) is a running sum along stride j
        for mi in outer:
            for j in range(1, mi + 1):
                for start in range(min(j, len(s))):
                    s[start::j] = itertools.accumulate(s[start::j])
        for n, v in enumerate(s, start=n_lo):
            coeffs[res + n * L] = coeffs.get(res + n * L, 0) + v

    return QSeries(denom=L, coeffs=coeffs, order=order)


# ---------------------------------------------------------------------------
# numeric evaluation


def _shell_rows(M: int, r: int):
    """The points of {0..M}^r whose largest coordinate is M, row-major
    ascending, as (outer, inner) rows: outer = (m_1..m_(r-1)) and inner
    the m_r values of that row."""
    for outer in itertools.product(range(M + 1), repeat=r - 1):
        yield outer, (range(M + 1) if M in outer else (M,))


def eval_at(form: FermionicForm, q: float, cutoff: int | None = None) -> float:
    """Numeric value of the fermionic sum at real q in (0, 1).

    Terms are grouped into shells by max(m), each shell walked in
    row-major order by one generator for every rank; each exponent is
    the exact integer L (lead + m.A m + B.m) divided by L once, so it
    is the correctly rounded float of the rational exponent.  The tail
    test compares sums over whole periods of P consecutive shells, P
    the lcm of the restriction moduli (P = 1 without restrictions), so
    a congruence that thins every other shell cannot fake a fast
    decay.  With cutoff=None, shells are added until the geometric
    tail bound (last period sum times ratio/(1-ratio), ratio between
    the last two period sums) falls below 1e-14 of the partial sum; an
    explicit cutoff sums m <= cutoff and still requires the bound to
    certify the tail.  Either way at most max(m) = 200 000 (r = 1) or
    5 000 (r = 2) is summed.  TailBoundError reports failures.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must be in (0,1), got {q}")
    _check_terminates(form)

    L, Q, Bn, lead = form.exponent_numerators()
    r, d = len(Bn), Q[-1][-1]
    rows: dict[tuple[int, ...], tuple[int, int] | None] = {}  # _row per allowed outer point
    period = math.lcm(*(res[0] for res in form.restrictions or () if res is not None))
    lnq = math.log(q)
    hard_cap = _SHELL_CAP[r]
    limit = min(cutoff, hard_cap) if cutoff is not None else hard_cap

    poch = [1.0]  # (q)_n
    total = 0.0
    block = 0.0  # sum of the shells in the current period
    prev_block = None
    tail = math.inf
    M = 0
    while M <= limit:
        if M > 0:
            poch.append(poch[-1] * (1.0 - q ** M))
        shell = 0.0
        for outer, inner in _shell_rows(M, r):
            if outer not in rows:
                rows[outer] = _row(Q, Bn, outer) if _allowed(form, outer) else None
            if rows[outer] is None:
                continue
            base, t = rows[outer]
            for y in inner:
                if not form.allows(r - 1, y):
                    continue
                term = math.exp(lnq * ((lead + base + (d * y + t) * y) / L))
                for mi in outer:
                    term /= poch[mi]
                shell += term / poch[y]
        total += shell
        block += shell
        if (M + 1) % period == 0:
            if prev_block is not None and 0.0 < block < prev_block:
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




def _ceff_samples(eps_list) -> list[float]:
    """The distinct eps values of estimate_ceff, descending.

    Raises DomainError unless there are at least 3 and all lie in
    (0.02, 0.3).
    """
    eps = sorted(set(float(e) for e in eps_list), reverse=True)
    if len(eps) < 3:
        raise DomainError("need at least 3 distinct eps values")
    for e in eps:
        if not (0.02 < e < 0.3):
            raise DomainError(f"eps values must lie in (0.02, 0.3), got {e}")
    return eps


def estimate_ceff(form: FermionicForm, eps_list=(0.20, 0.12, 0.07, 0.04)) -> float:
    """Extrapolated effective central charge from the q -> 1 growth.

    For each eps, s(eps) = (6 eps / pi^2) ln chi(e^-eps); a linear
    least-squares fit in eps is extrapolated to eps = 0.  Requires at
    least 3 distinct eps values in (0.02, 0.3).
    """
    eps = _ceff_samples(eps_list)
    s_vals = []
    for e in eps:
        val = eval_at(form, math.exp(-e))
        if val <= 0.0:
            raise TailBoundError(f"series value {val} at eps={e} is not positive")
        s_vals.append(6.0 * e / math.pi**2 * math.log(val))
    slope, intercept = np.polyfit(np.array(eps), np.array(s_vals), 1)
    return float(intercept)


# ---------------------------------------------------------------------------
# catalog forms

_F = Fraction

FORMS: dict[str, FermionicForm] = {
    # r = 1: effective charges 2/5, 1/2, 3/5
    "chi_2_5": FermionicForm(A=_F(1), B=(_F(1),), lead=_F(11, 60)),
    "chi_3_4": FermionicForm(A=_HALF, B=(_HALF,), lead=_F(1, 16)),
    "chi_3_5": FermionicForm(A=_F(1, 4), B=(_F(0),), lead=_F(1, 40)),
    # r = 2: effective charges 5/7, 4/5, 3/4, 7/10
    "chi_3_7": FermionicForm(
        A=RationalSymmetricMatrix(1, _HALF, _F(3, 4)),
        B=(_F(0), -_HALF), lead=_F(1, 168),
        restrictions=(None, (2, 0)),
    ),
    "chi_5_6": FermionicForm(
        A=RationalSymmetricMatrix(_HALF, _HALF, _HALF),
        B=(_HALF, _F(0)), lead=_F(-1, 120),
        restrictions=(None, (2, 0)),
    ),
    "chi_3_8": FermionicForm(
        A=RationalSymmetricMatrix(1, _HALF, _HALF),
        B=(_F(1), _HALF), lead=_F(1, 8),
    ),
    "chi_4_5": FermionicForm(
        A=RationalSymmetricMatrix(2, _HALF, _HALF),
        B=(_F(0), _HALF), lead=_F(1, 120),
    ),
}

# The TBA system whose dilogarithm sum each form's growth must match.
FORM_SYSTEMS: dict[str, tuple[RationalSymmetricMatrix | Fraction, Fraction]] = {
    "chi_2_5": (_F(1), _F(2, 5)),
    "chi_3_4": (_HALF, _F(1, 2)),
    "chi_3_5": (_F(1, 4), _F(3, 5)),
    "chi_3_7": (RationalSymmetricMatrix(1, _HALF, _F(3, 4)), _F(5, 7)),
    "chi_5_6": (RationalSymmetricMatrix(_HALF, _HALF, _HALF), _F(4, 5)),
    "chi_3_8": (RationalSymmetricMatrix(1, _HALF, _HALF), _F(3, 4)),
    "chi_4_5": (RationalSymmetricMatrix(2, _HALF, _HALF), _F(7, 10)),
}

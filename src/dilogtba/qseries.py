"""Fermionic q-series: exact expansion, numeric evaluation, asymptotics.

A fermionic form is

    chi(q) = q^lead * sum_{m >= 0} q^(m.A m + B.m) / ((q)_{m_1} ... (q)_{m_r})

with r = 1 or 2, (q)_n = prod_{k=1..r<=n} (1 - q^k), A a rational
symmetric matrix (a scalar for r = 1; the quadratic form is
a m1^2 + 2b m1 m2 + d m2^2), B a rational vector, and optional
per-variable congruence restrictions m_i = res (mod modulus).

expand() produces exact integer coefficients on the lattice (1/L) Z,
where L is the lcm of the denominators in A, B, and lead.  eval_at()
sums the series numerically at real q in (0,1) with a geometric tail
bound.  estimate_ceff() extrapolates the q -> 1 growth

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
from .tba import _HALF, RationalSymmetricMatrix, _as_fraction, check_range

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

    def __post_init__(self):
        A = self.A
        if not isinstance(A, RationalSymmetricMatrix):
            A = _as_fraction(A, "A")
        object.__setattr__(self, "A", A)
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

    @property
    def r(self) -> int:
        return 2 if isinstance(self.A, RationalSymmetricMatrix) else 1

    def exponent(self, m: tuple[int, ...]) -> Fraction:
        """The quadratic-plus-linear exponent m.A m + B.m (without lead)."""
        if self.r == 1:
            (mm,) = m
            return self.A * mm * mm + self.B[0] * mm
        m1, m2 = m
        A = self.A
        return A.a * m1 * m1 + 2 * A.b * m1 * m2 + A.d * m2 * m2 + self.B[0] * m1 + self.B[1] * m2

    def allows(self, i: int, value: int) -> bool:
        if self.restrictions is None or self.restrictions[i] is None:
            return True
        modulus, residue = self.restrictions[i]
        return value % modulus == residue

    def lattice_denominator(self) -> int:
        dens = [self.lead.denominator] + [v.denominator for v in self.B]
        if self.r == 1:
            dens.append(self.A.denominator)
        else:
            dens += [self.A.a.denominator, self.A.b.denominator, self.A.d.denominator]
        return math.lcm(*dens)

    def exponent_numerators(self) -> tuple[int, tuple[int, ...]]:
        """The lattice denominator L and the integers that scale exponents to it.

        Returns (L, n) with n = (a L, B_1 L, lead L) for r = 1 and
        n = (a L, 2b L, d L, B_1 L, B_2 L, lead L) for r = 2, so that
        L (lead + m.A m + B.m) is an integer polynomial in m
        (_exponent_numerator).
        """
        L = self.lattice_denominator()
        quad = (self.A,) if self.r == 1 else (self.A.a, 2 * self.A.b, self.A.d)
        return L, tuple(int(v * L) for v in (*quad, *self.B, self.lead))


def _exponent_numerator(n: tuple[int, ...], m: tuple[int, ...]) -> int:
    """L (lead + m.A m + B.m), exactly, from FermionicForm.exponent_numerators()."""
    if len(m) == 1:
        a, B1, lead = n
        (x,) = m
        return lead + (a * x + B1) * x
    a, b2, d, B1, B2, lead = n
    x, y = m
    return lead + (a * x + b2 * y + B1) * x + (d * y + B2) * y


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
        object.__setattr__(self, "coeffs", {k: v for k, v in self.coeffs.items() if v != 0})
        object.__setattr__(self, "order", _as_fraction(self.order, "order"))
        for k in self.coeffs:
            if Fraction(k, self.denom) > self.order:
                raise ValueError(f"stored exponent {k}/{self.denom} exceeds order {self.order}")

    def coefficient(self, exponent) -> int:
        """Coefficient of q^exponent; exact; 0 when absent (must be <= order)."""
        e = _as_fraction(exponent, "exponent")
        if e > self.order:
            raise ValueError(f"exponent {e} beyond truncation order {self.order}")
        k = e * self.denom
        if k.denominator != 1:
            return 0
        return self.coeffs.get(int(k), 0)

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
    """Reject forms whose sum cannot be truncated at any finite order."""
    if form.r == 1:
        a, B1 = form.A, form.B[0]
        if a < 0:
            raise RangeViolation(f"negative quadratic coefficient {a}")
        if a == 0:
            if B1 < 0:
                raise RangeViolation("exponents decrease without bound (A = 0, B < 0)")
            if B1 == 0:
                raise NonTerminatingSeries(
                    "A = 0 and B = 0 repeats the exponent 0 infinitely often; "
                    "the partition-type series needs B > 0 (exponent B m)"
                )
        return
    A = form.A
    if not check_range(A):
        raise RangeViolation(f"matrix {A} violates the entry range (a,d >= 0, b >= -min(a,d))")
    for i, (diag, Bi) in enumerate(((A.a, form.B[0]), (A.d, form.B[1]))):
        if diag == 0:
            if Bi < 0:
                raise RangeViolation(f"exponents decrease without bound along m_{i + 1}")
            if Bi == 0:
                raise NonTerminatingSeries(
                    f"zero growth along m_{i + 1} (diagonal entry and B component both 0)"
                )
    if A.b < 0 and A.D == 0:
        # The quadratic form vanishes on the ray k (-b, a); the exponent
        # there is linear with slope B . (-b, a).
        slope = -A.b * form.B[0] + A.a * form.B[1]
        if slope < 0:
            raise RangeViolation("exponents decrease without bound along the null ray")
        if slope == 0:
            raise NonTerminatingSeries("zero exponent growth along the null ray of the form")


def expand(form: FermionicForm, order) -> QSeries:
    """Exact coefficients of the fermionic sum up to q^order.

    Every lattice point m >= 0 passing the restrictions contributes
    q^(lead + m.A m + B.m) times the product of inverse Pochhammer
    series; contributions beyond the order are dropped exactly.  Raises
    RangeViolation if a negative exponent m.A m + B.m is encountered
    (the admissible range guarantees nonnegativity for the catalog
    forms) and NonTerminatingSeries when the sum has infinitely many
    terms at some exponent below the order.

    The points are grouped by m1 and by L (lead + m.A m + B.m) mod L
    (r = 1 runs as m1 = 0, m2 = m).  Within
    a group the partition rows 1/(q)_m2 are added at their integer
    offsets, and the group sum is then divided by (q)_m1 in place, one
    running sum s[i] += s[i-k] per k = 1..m1 (Euler's recurrence).  All
    arithmetic is on exact integers; the cost is
    O(points * order + sum over groups of m1 * order).
    """
    order = _as_fraction(order, "order")
    if order <= 0:
        raise DomainError(f"order must be positive, got {order}")
    _check_terminates(form)

    L, num = form.exponent_numerators()
    lead = form.lead
    points: list[tuple[tuple[int, ...], Fraction]] = []

    if form.r == 1:
        m = 0
        while True:
            e = form.exponent((m,))
            if e > order - lead:
                a = form.A
                # past the vertex of a m^2 + B m the exponent only grows
                if a > 0 and m > -float(form.B[0]) / (2.0 * float(a)):
                    break
                if a == 0:
                    break
            else:
                if e < 0:
                    raise RangeViolation(f"negative exponent {e} at m={m}")
                if form.allows(0, m):
                    points.append(((m,), e))
            m += 1
            if m > 10**6:
                raise NonTerminatingSeries("enumeration exceeded the safety cap")
    else:
        A = form.A
        a, b, d, B1, B2 = A.a, A.b, A.d, form.B[0], form.B[1]
        # Beyond every regime vertex, the row-minimum exponent grows with
        # m1, so rows whose minimum exceeds the order close the scan.
        vertices = [0.0]
        if a > 0:
            vertices.append(-float(B1) / (2.0 * float(a)))
        if b != 0:
            vertices.append(-float(B2) / (2.0 * float(b)))
        if d > 0 and A.D > 0:
            vertices.append(-float(B1 - b * B2 / d) / (2.0 * float(A.D / d)))
        m1_floor = max(vertices) + 2.0

        m1 = 0
        while True:
            base = a * m1 * m1 + B1 * m1
            t = 2 * b * m1 + B2
            if d > 0 and t < 0:
                row_min = base - t * t / (4 * d)
            else:
                row_min = base
            if row_min > order - lead and m1 > m1_floor:
                break
            m2 = 0
            while True:
                e = base + d * m2 * m2 + t * m2
                if e > order - lead:
                    if d > 0 and m2 > -float(t) / (2.0 * float(d)):
                        break
                    if d == 0:
                        break
                else:
                    if e < 0:
                        raise RangeViolation(f"negative exponent {e} at m=({m1},{m2})")
                    if d == 0 and t == 0 and m2 > 0:
                        raise NonTerminatingSeries(
                            f"row m1={m1} repeats exponent {e} for every m2"
                        )
                    if form.allows(0, m1) and form.allows(1, m2):
                        points.append(((m1, m2), e))
                m2 += 1
                if m2 > 10**6:
                    raise NonTerminatingSeries("enumeration exceeded the safety cap")
            m1 += 1
            if m1 > 10**6:
                raise NonTerminatingSeries("enumeration exceeded the safety cap")

    # Group the points by m1 and by the fractional part of the exponent;
    # a group's exponents differ by integers, so its m2-sum is one
    # integer series.
    top = math.floor(order * L)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m, e in points:
        k0 = _exponent_numerator(num, m)
        assert k0 == (lead + e) * L, "lattice denominator does not cover an exponent"
        m1, m2 = (0, m[0]) if form.r == 1 else m
        groups.setdefault((m1, k0 % L), []).append((k0, m2))

    # the lowest exponent needs the longest partition row
    k_min = min((k0 for pts in groups.values() for k0, _ in pts), default=top)
    max_m2 = max((m2 for pts in groups.values() for _, m2 in pts), default=0)
    rows = _partition_rows(max_m2, (top - k_min) // L)

    coeffs: dict[int, int] = {}
    for (m1, res), pts in groups.items():
        # s[i] is the coefficient of q^((res + (n_lo + i) L) / L)
        n_lo = min(k0 for k0, _ in pts) // L
        n_hi = (top - res) // L
        s = [0] * (n_hi - n_lo + 1)
        for k0, m2 in pts:
            off = k0 // L - n_lo
            width = n_hi - n_lo + 1 - off
            s[off:] = map(operator.add, s[off:], rows[m2][:width])
        # divide by (q)_{m1}: 1/(1 - q^k) is a running sum along stride k
        for k in range(1, m1 + 1):
            for start in range(min(k, len(s))):
                s[start::k] = itertools.accumulate(s[start::k])
        for n, v in enumerate(s, start=n_lo):
            coeffs[res + n * L] = coeffs.get(res + n * L, 0) + v

    return QSeries(denom=L, coeffs=coeffs, order=order)


# ---------------------------------------------------------------------------
# numeric evaluation


def _shell_points(form: FermionicForm, M: int) -> list[tuple[int, ...]]:
    """Lattice points with max coordinate exactly M, row-major ascending."""
    if form.r == 1:
        return [(M,)] if form.allows(0, M) else []
    pts = [(M, j) for j in range(M)] + [(j, M) for j in range(M)] + [(M, M)]
    pts.sort()
    return [p for p in pts if form.allows(0, p[0]) and form.allows(1, p[1])]


def eval_at(form: FermionicForm, q: float, cutoff: int | None = None) -> float:
    """Numeric value of the fermionic sum at real q in (0, 1).

    Terms are grouped into shells by max(m) and summed in row-major
    order; each exponent is the exact integer L (lead + m.A m + B.m)
    divided by L once, so it is the correctly rounded float of the
    rational exponent.  The tail test compares sums over whole periods
    of P consecutive shells, P the lcm of the restriction moduli (P = 1
    without restrictions), so a congruence that thins every other shell
    cannot fake a fast decay.  With cutoff=None, shells are added until
    the geometric tail bound (last period sum times ratio/(1-ratio),
    ratio between the last two period sums) falls below 1e-14 of the
    partial sum; an explicit cutoff sums m <= cutoff and still requires
    the bound to certify the tail.  TailBoundError reports failures.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must be in (0,1), got {q}")
    _check_terminates(form)

    L, num = form.exponent_numerators()
    period = math.lcm(*(res[0] for res in form.restrictions or () if res is not None))
    lnq = math.log(q)
    hard_cap = 200_000 if form.r == 1 else 5_000
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
        for m in _shell_points(form, M):
            term = math.exp(lnq * (_exponent_numerator(num, m) / L))
            for mi in m:
                term /= poch[mi]
            shell += term
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

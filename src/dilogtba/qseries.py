"""Fermionic q-series: exact expansion, numeric evaluation, asymptotics.

A fermionic form is

    chi(q) = q^lead * sum_{m >= 0} q^(m.A m + B.m) / ((q)_{m_1} ... (q)_{m_r})

with r = 1 or 2, (q)_n = prod_{k=1..n} (1 - q^k), A a rational
symmetric r x r matrix (a scalar for r = 1; for r = 2 the quadratic
form is a m1^2 + 2b m1 m2 + d m2^2), B a rational vector, and optional
per-variable congruence restrictions m_i = res (mod modulus).

Each form is scaled once to integers over its lattice denominator L,
the lcm of the denominators in A, B and lead; expand() and eval_at()
work on those integers for every rank.  expand() gives exact integer
coefficients on the lattice (1/L) Z, each residue class packed in one int.
eval_at() sums the series at real q in (0,1) with a geometric tail
bound.  estimate_ceff() extrapolates the q -> 1 growth

    ln chi(e^-eps) ~ pi^2 c_eff / (6 eps)

to eps -> 0 through a linear least-squares fit of
s(eps) = (6 eps/pi^2) ln chi(e^-eps), whose intercept estimates the
effective central charge; by duality this matches the dilogarithm sum
c[A] of the TBA system with the same matrix.  The module is pure
Python: the fit is the centered least-squares line in math.fsum.

The shipped FORMS are the seven catalog characters: three r=1 forms
(effective charges 2/5, 1/2, 3/5) and four r=2 forms (5/7, 4/5, 3/4,
7/10), two of which carry a parity restriction on m_2.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

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
_FLOAT_MIN = sys.float_info.min  # the smallest normal binary64


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


def _points(form: FermionicForm, room: int):
    """(outer, m_r, e) for every allowed lattice point whose exponent
    numerator e = L (m.A m + B.m) is at most room, row by row; a row
    ends once it is past its vertex with e above room.  Raises
    RangeViolation at a negative exponent."""
    L, Q, Bn, _ = form.exponent_numerators()
    d = Q[-1][-1]
    inner = len(Bn) - 1
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
                yield outer, m, e
            e += d * (2 * m + 1) + t
            m += 1
            if m > _SAFETY_CAP:
                raise NonTerminatingSeries("enumeration exceeded the safety cap")


def _divide(s: int, j: int, width: int, mask: int) -> int:
    """s / (1 - q^j) on the slots below mask: shift-and-add by j, 2j, 4j, ... slots."""
    shift, end = j * width, mask.bit_length()
    while s and shift < end:
        s = (s + (s << shift)) & mask
        shift *= 2
    return s


def expand(form: FermionicForm, order) -> QSeries:
    """Exact coefficients of the fermionic sum up to q^order.

    Every lattice point m >= 0 passing the restrictions contributes
    q^(lead + m.A m + B.m) times the product of inverse Pochhammer
    series; contributions beyond the order are dropped exactly.  Raises
    RangeViolation if a negative exponent m.A m + B.m is encountered
    (the admissible range guarantees nonnegativity for the catalog
    forms) and NonTerminatingSeries when the sum has infinitely many
    terms at some exponent below the order.

    One integer walk (_points) serves every rank.  Each residue class
    of k = L (lead + m.A m + B.m) mod L is one Python int whose W-bit
    slot i holds the coefficient of q^((res + (n_lo + i) L) / L).
    Division by 1 - q^j is a running sum along stride j, by doubling:
    s += s << (j W), then 2j W, 4j W, ..., masked.  Each point adds the
    packed partition row 1/(q)_(m_r) at its slot, Horner-wise over m_1
    from the largest down, dividing by 1 - q^(m_1) between rows: cost
    O(points + (max(m_r) + classes max(m_1)) log(order)) additions of
    order * W-bit ints.  W, whole bytes, exceeds the bits of the bound
    npts exp(pi sqrt(2r(N - 1)/3)) on every slot, N the longest class.
    """
    order = _as_fraction(order, "order")
    if order <= 0:
        raise DomainError(f"order must be positive, got {order}")
    _check_terminates(form)

    L, _, Bn, lead = form.exponent_numerators()
    top = math.floor(order * L)
    # residue k mod L -> m_1 (0 for r = 1) -> [(k // L, m_r)]
    classes: dict[int, dict[int, list[tuple[int, int]]]] = {}
    npts, reach = 0, [1]  # reach[m]: the most slots a point with m_r >= m needs
    for outer, m, e in _points(form, top - lead):
        k = lead + e
        classes.setdefault(k % L, {}).setdefault(outer[0] if outer else 0, []).append((k // L, m))
        reach.extend([0] * (m + 1 - len(reach)))
        npts, reach[m] = npts + 1, max(reach[m], (top - k) // L + 1)
    reach = list(itertools.accumulate(reversed(reach), max))[::-1]
    slots, max_inner = reach[0], len(reach) - 1

    # Exact slots: values are >= 0 and a carry only moves up, into masked
    # slots.  Every coefficient, Horner intermediate and row entry is at most
    # npts p_r(slots - 1), p_r(n) = [q^n] prod_j (1 - q^j)^-r <= exp(nt + r pi^2/(6t))
    # for all t > 0, which is exp(pi sqrt(2rn/3)) at t = pi sqrt(r/(6n)).
    bound = math.pi * math.sqrt(2 * len(Bn) * (slots - 1) / 3) / math.log(2)
    nb = (npts.bit_length() + math.ceil(bound)) // 8 + 1  # bytes per slot
    W = 8 * nb
    rows = [1]  # R_m = R_(m-1) / (1 - q^m) = 1/(q)_m, on the slots its points need
    for m in range(1, max_inner + 1):
        rows.append(_divide(rows[-1], m, W, (1 << reach[m] * W) - 1))

    coeffs: dict[int, int] = {}
    for res, by_outer in classes.items():
        n_lo = min(n for pts in by_outer.values() for n, _ in pts)
        size = (top - res) // L - n_lo + 1
        class_mask = (1 << size * W) - 1
        s = 0
        for m1 in range(max(by_outer), -1, -1):
            s = _divide(s, m1 + 1, W, class_mask)
            for n, m in by_outer.get(m1, ()):
                s += rows[m] << (n - n_lo) * W
        data = (s & class_mask).to_bytes(size * nb, "little")
        chunks = (data[i:i + nb] for i in range(0, size * nb, nb))
        values = map(int.from_bytes, chunks, itertools.repeat("little"))
        coeffs.update(zip(range(res + n_lo * L, top + 1, L), values))  # QSeries drops the zeros

    return QSeries(denom=L, coeffs=coeffs, order=order)


# ---------------------------------------------------------------------------
# numeric evaluation


def eval_at(form: FermionicForm, q: float, cutoff: int | None = None) -> float:
    """Numeric value of the fermionic sum at real q in (0, 1).

    Terms are grouped into shells by max(m).  A row is the line of
    points with fixed m_1..m_(r-1) (the one row () for r = 1); each
    allowed row is kept once, in order of first reach, as the exact
    integer lead + L (m.A m + B.m) at m_r = 0, its slope in m_r and
    its divisor (q)_(m_1) ((q)_0 = 1.0 for r = 1).  Shell M adds, when
    m_r = M is allowed, every older row's term at m_r = M in row order,
    then the row first reached at M (m_1 = M for r = 2; r = 1 at M = 0
    only) at its allowed m_r = 0..M.  A term is exp(ln q * e / L),
    divided by its row's divisor and then by (q)_(m_r), where
    e = L (lead + m.A m + B.m) is the exact integer exponent, so e / L
    is the correctly rounded float of the rational exponent.

    The tail test compares sums over whole periods of P consecutive
    shells, P the lcm of the restriction moduli (P = 1 without
    restrictions), so a congruence that thins every other shell cannot
    fake a fast decay.  With cutoff=None, shells are added until the
    geometric tail bound (last period sum times ratio/(1-ratio), ratio
    between the last two period sums) falls below 1e-14 of the partial
    sum, or until a period sums to 0.0 and no later shell holds a term
    that escapes underflow (tail exactly 0; the sum may be 0.0 too); an
    explicit cutoff, an int >= 0, sums m <= cutoff and still requires
    the tail to be certified by one of the two.  Either way at most
    max(m) = 200 000 (r = 1) or 5 000 (r = 2) is summed.
    TailBoundError reports failures.

    The sum is taken in binary64, which bounds how close q may come to
    1: (q)_n falls toward (q)_inf ~ exp(-pi^2 / (6 eps)) at q = e^-eps,
    below the normal range once eps < 0.0023, and the sum grows like
    exp(pi^2 c / (6 eps)).  DomainError is raised when a (q)_n the walk
    reaches is below the smallest normal float or the running sum
    overflows, rather than return a value that has lost its digits.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must be in (0,1), got {q}")
    if cutoff is not None and (
        not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0
    ):
        raise DomainError(f"cutoff must be None or an int >= 0, got {cutoff!r}")
    _check_terminates(form)

    L, Q, Bn, lead = form.exponent_numerators()
    r, d = len(Bn), Q[-1][-1]
    a, b = Q[0][0], Q[0][-1]  # Q's first row (times m_1 = 0 for r = 1)
    rows: list[tuple[int, int, float]] = []  # (lead + base, t, (q)_(m_1)) by first reach
    step, first = (form.restrictions or (None,) * r)[-1] or (1, 0)  # m_r = first mod step
    period = math.lcm(*(res[0] for res in form.restrictions or () if res is not None))
    lnq = math.log(q)
    exp = math.exp
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
            p = poch[-1] * (1.0 - q ** M)
            if p < _FLOAT_MIN:
                raise DomainError(
                    f"q too close to 1 for binary64: (q)_{M} = {p!r} at q = {q!r} "
                    "is below the normal range"
                )
            poch.append(p)
        shell = 0.0
        if M % step == first:
            pM, dM = poch[M], d * M
            for shift, t, div in rows:
                shell += exp(lnq * ((shift + (dM + t) * M) / L)) / div / pM
        if form.allows(0, M) if r == 2 else M == 0:  # a row first reached at M
            row = (lead + (a * M + Bn[0]) * M, 2 * b * M + Bn[-1], poch[M])
            shift, t, div = row
            for y in range(first, M + 1, step):
                shell += exp(lnq * ((shift + (d * y + t) * y) / L)) / div / poch[y]
            rows.append(row)
        total += shell
        if total == math.inf:
            raise DomainError(f"q too close to 1 for binary64: the sum overflows at q = {q!r}")
        block += shell
        if (M + 1) % period == 0:
            if block == 0.0:
                # A term is 0.0 exactly when exp(ln q * exponent)
                # underflows (dividing by (q)_n <= 1 cannot make it 0.0),
                # which holds for every exponent above 746 / -ln q.  A
                # whole period of 0.0 is the sign of that regime, where the
                # ratio test has nothing to divide; the exact walk finds the
                # last shell holding an allowed point below that bound.
                # Every later term is 0.0, so the tail is exactly zero.
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


# estimate_ceff's eps samples when none are given
DEFAULT_EPS = (0.20, 0.12, 0.07, 0.04)


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


def estimate_ceff(form: FermionicForm, eps_list=DEFAULT_EPS) -> float:
    """Extrapolated effective central charge from the q -> 1 growth.

    For each eps, s(eps) = (6 eps / pi^2) ln chi(e^-eps); a linear
    least-squares fit in eps is extrapolated to eps = 0: with means
    x_bar of eps and s_bar of s, slope = sum((eps - x_bar)(s - s_bar)) /
    sum((eps - x_bar)^2) and the estimate is s_bar - slope x_bar, each
    sum taken by math.fsum.  Requires at least 3 distinct eps values in
    (0.02, 0.3).
    """
    eps = _ceff_samples(eps_list)
    s_vals = []
    for e in eps:
        val = eval_at(form, math.exp(-e))
        if val <= 0.0:
            raise TailBoundError(f"series value {val} at eps={e} is not positive")
        s_vals.append(6.0 * e / math.pi**2 * math.log(val))
    # Centering s as well as eps keeps the rounding of x_bar out of the
    # slope: centering eps alone lost up to 237 ulps on narrow sets such
    # as 0.29/0.28/0.27.
    x_bar, s_bar = math.fsum(eps) / len(eps), math.fsum(s_vals) / len(eps)
    dx = [x - x_bar for x in eps]
    slope = math.fsum(u * (v - s_bar) for u, v in zip(dx, s_vals)) / math.fsum(u * u for u in dx)
    return s_bar - slope * x_bar


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

# Each form's TBA system (its own A) and the charge its growth must match.
FORM_SYSTEMS: dict[str, tuple[RationalSymmetricMatrix | Fraction, Fraction]] = {
    name: (FORMS[name].A, c)
    for name, c in [("chi_2_5", _F(2, 5)), ("chi_3_4", _F(1, 2)), ("chi_3_5", _F(3, 5)),
                    ("chi_3_7", _F(5, 7)), ("chi_5_6", _F(4, 5)), ("chi_3_8", _F(3, 4)),
                    ("chi_4_5", _F(7, 10))]
}

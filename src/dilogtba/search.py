"""Systematic search for rational symmetric matrices with rational c[A].

Matrices A = ((a, b), (b, d)) are enumerated over exact fractions with
bounded numerator and denominator, canonicalized to a >= d, and pushed
through a cheap-to-expensive pipeline:

    entry range check and orientation (exact, on integer numerators
       over one common denominator; only matrices in range are built)
    -> the singular a = d = -b != 0, whose equations force xy = 1,
       rejected exactly (tba.forces_xy_one; counted as pruned)
    -> solve the matrices of each block of 32 that are not positive
       semidefinite and not solved before from one scan of the grid
       (tba.prescan: one numpy pass per block, then Newton-split
       bisection of each bracket; the results go into solve_r2's store)
    -> solve the TBA system one matrix at a time: the held result of a
       scanned matrix, Newton on the convex Nahm potential for a
       positive semidefinite one (no grid)
    -> recognize c against minimal / parafermionic / rational spectra
    -> for kept candidates only: classification of c vs 1, the
       uniqueness guarantee and, for d > 0, the two-sided bounds on c
       (exact, recorded)

Acceptance is the one predicate of the recognition: a match in any of
the three spectra.  Matrices with several interior solutions (only
scanned ones can have them) go to a separate "nonunique" section (all
solutions listed), matched or not, instead of the admissible list.
Solver failures are recorded per matrix, never fatal.  Results are
deterministic and ordered by (largest entry denominator, a, d, b).

Overlapping windows share their matrices (den2's lie inside den4's,
which lie inside den6's), so the process keeps each solved matrix's
verdict: its section (or that it was dropped) and its candidate,
under the key (A.integers, tolerance), for the last 16 384 keys, with
the matrix object itself.  A repeated matrix is neither built, nor
recognized, nor annotated again.  It still goes through solve_r2, which
returns the result it holds (see tba.solve_r2), so each matrix the
search solves is one solve_r2 call, at SEARCH_GRID_N.

Every search scans on one grid, SEARCH_GRID_N = 20 001 points (a lone
solve_r2 takes tba.DEFAULT_GRID_N).  The default tolerance is
charges.DEFAULT_TOL, and the continuum a = d = 0, b = 1/2 is left out
by tba's test; a report records its tolerance, which report_json states.

dedupe_by_duality collapses pairs (A, (1/4) A^{-1}) that are both
present to the representative with c <= 1, recording the partner and
its c value on the kept candidate.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .analysis import (
    BoundsResult,
    ClassificationResult,
    bounds_on_c,
    classify_vs_one,
    dual,
    uniqueness_guarantee,
)
from .charges import DEFAULT_TOL, ChargeMatch, recognize
from .errors import ScanFailure, SingularMatrixError
from .tba import (RationalSymmetricMatrix, TbaSolution, _as_fraction, _continuum,
                  forces_xy_one, prescan, solve_r2)

__all__ = [
    "SearchConfig",
    "PropFlags",
    "Candidate",
    "SearchReport",
    "run_search",
    "dedupe_by_duality",
    "report_text",
    "report_json",
    "EXAMPLE_CONFIGS",
]

# n entry values give up to n^2 (n + 1) matrices: 100 values bound a search
# at about 10^6 (diag_zero has 95 values, a den12/num8 window 64)
_MAX_FRACTIONS = 10_000
_MAX_ENTRY_VALUES = 100

# The scan grid of every search solve
SEARCH_GRID_N = 20_001


@dataclass(frozen=True)
class SearchConfig:
    """Enumeration bounds and the recognition tolerance for run_search.

    Entries are fractions p/q with 0 <= p <= max_numerator and
    1 <= q <= max_denominator, further clipped to
    [entry_min, entry_max] when given; b additionally takes negative
    values (subject to the range condition b >= -min(a, d)).  At most
    100 entry values are allowed, and (max_numerator + 1) *
    max_denominator may be at most 10 000.  tolerance is the
    recognition tolerance, by default charges.recognize's, and at least
    the solver's accuracy of 1e-15: solve_r2's c is good to a few ulps
    (1e-15 is about 4.5 ulps for c in [1, 2)), and every genuine
    spectrum match is within 2.2e-16, so a tighter tolerance would
    reject values for the solver's rounding alone.  The charge spectra
    are those of charges.recognize at its default bounds.  fix_d pins d
    to one exact value, which must be nonnegative like every diagonal
    entry in range; a_eq_d restricts to the symmetric family a = d, so
    the two cannot both be set.
    """

    max_numerator: int = 8
    max_denominator: int = 2
    entry_min: Fraction | None = None
    entry_max: Fraction | None = None
    tolerance: float = DEFAULT_TOL
    fix_d: Fraction | None = None
    a_eq_d: bool = False
    _values: list[Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_numerator < 1 or self.max_denominator < 1:
            raise ValueError("max_numerator and max_denominator must be positive")
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        if self.tolerance < 1e-15:
            raise ValueError(f"tolerance {self.tolerance} is below the solver's accuracy 1e-15")
        if self.fix_d is not None and self.a_eq_d:
            raise ValueError("fix_d and a_eq_d cannot both be set: a_eq_d takes d = a")
        for name in ("entry_min", "entry_max", "fix_d"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, _as_fraction(v, name))
        if self.fix_d is not None and self.fix_d < 0:
            raise ValueError(f"fix_d {self.fix_d} is negative: d must be >= 0")
        # the cheap bound first, so the loop below never runs over a huge range
        pairs = (self.max_numerator + 1) * self.max_denominator
        if pairs > _MAX_FRACTIONS:
            raise ValueError(f"(max_numerator + 1) * max_denominator = {pairs} "
                             f"is above {_MAX_FRACTIONS}")
        # each value once, as p/q in lowest terms, bounds tested on integers
        lo, hi = self.entry_min, self.entry_max
        vals = [(p, q) for q in range(1, self.max_denominator + 1)
                for p in range(0, self.max_numerator + 1)
                if math.gcd(p, q) == 1
                and (lo is None or p * lo.denominator >= lo.numerator * q)
                and (hi is None or p * hi.denominator <= hi.numerator * q)]
        if len(vals) > _MAX_ENTRY_VALUES:
            raise ValueError(f"{len(vals)} entry values are above the cap of {_MAX_ENTRY_VALUES}")
        # two values with denominators up to 10^4 differ by at least 10^-8,
        # far above their rounding, so the floats sort them exactly
        vals.sort(key=lambda pq: pq[0] / pq[1])
        object.__setattr__(self, "_values", [Fraction(p, q) for p, q in vals])

    def entry_values(self) -> list[Fraction]:
        """Nonnegative entry values within the bounds, ascending."""
        return self._values[:]


@dataclass(frozen=True)
class PropFlags:
    """Exact-predicate results recorded for a candidate."""

    classification: ClassificationResult
    uniqueness_guarantee: bool
    bounds: BoundsResult | None


@dataclass(frozen=True)
class Candidate:
    """One admissible matrix: solved, recognized, and annotated."""

    A: RationalSymmetricMatrix
    c: float
    matches: ChargeMatch
    solution: TbaSolution
    prop_flags: PropFlags
    # always False, as no match is re-solved; kept, with its JSON key and
    # schema entry, while perfbench reads it (workloads.py, run.py).
    # ROADMAP item 12 drops that read, and item 16 then deletes all three
    suspect: bool = False
    dual_partner: RationalSymmetricMatrix | None = None
    dual_c: float | None = None


@dataclass
class SearchReport:
    """Search outcome: admissible candidates plus the side sections, and
    the recognition tolerance they were judged at.

    Iterating the report iterates the admissible list.
    """

    tolerance: float
    admissible: list[Candidate] = field(default_factory=list)
    nonunique: list[Candidate] = field(default_factory=list)
    failures: list[tuple[RationalSymmetricMatrix, str]] = field(default_factory=list)
    scanned: int = 0
    pruned: int = 0
    solved: int = 0

    def __iter__(self):
        return iter(self.admissible)

    def __len__(self):
        return len(self.admissible)


def _entries(cfg: SearchConfig) -> list[tuple[tuple[int, ...], Fraction, Fraction, Fraction]]:
    """The in-range matrices, a >= d, in report order: each as its
    RationalSymmetricMatrix.integers and its entries (a, b, d).

    Entries are compared as integer numerators over one common
    denominator, in the range test a, d >= 0, b >= -d (which is
    b >= -min(a, d) here) and in the sort key.
    """
    values = cfg.entry_values()
    fixed = [] if cfg.fix_d is None else [cfg.fix_d]
    m = math.lcm(*(v.denominator for v in values + fixed))

    def scaled(vs):
        return [(v, v.numerator * (m // v.denominator), v.denominator) for v in vs]

    a_values = scaled(values)
    d_values = scaled(fixed) if fixed else a_values
    # b takes the values and their negatives, ordered by numerator
    b_values = sorted(a_values + [(-v, -n, q) for v, n, q in a_values if n], key=itemgetter(1))
    b_nums = [n for _, n, _ in b_values]

    keyed = []
    for a, an, aq in a_values:
        for d, dn, dq in [(a, an, aq)] if cfg.a_eq_d else d_values:
            if not 0 <= dn <= an:
                continue  # d < 0, or not in the canonical orientation a >= d
            for b, bn, bq in b_values[bisect_left(b_nums, -dn):]:
                if _continuum((an, bn, dn, m)):
                    continue  # not a discrete system
                # the matrix's own common denominator is m / g
                g = m // math.lcm(aq, bq, dq)
                keyed.append(((max(aq, bq, dq), an, dn, bn), (an // g, bn // g, dn // g, m // g),
                              a, b, d))
    keyed.sort()
    return [entry[1:] for entry in keyed]


# Matrices prescanned together: the scan's fixed numpy cost is paid once
# per block.  tba.prescan leaves out the positive semidefinite matrices
# and those solved before, often half a block or more.
_BLOCK = 32


class _Verdict(NamedTuple):
    """What run_search made of a solved matrix."""

    A: RationalSymmetricMatrix
    section: str | None  # "admissible", "nonunique", or None: dropped
    candidate: Candidate | None


# Verdicts by (A.integers, tolerance); beyond _VERDICTS_CAP entries the
# oldest goes first.
_VERDICTS: OrderedDict[tuple, _Verdict] = OrderedDict()
_VERDICTS_CAP = 16_384


def run_search(cfg: SearchConfig) -> SearchReport:
    """Enumerate, filter, solve, and recognize; see the module docstring."""
    report = SearchReport(cfg.tolerance)
    entries = _entries(cfg)
    report.scanned = len(entries)

    # a matrix is built only when its block's turn comes, and kept only in
    # a report section or a verdict
    for A, key, verdict in _prescanned(entries, cfg):
        if forces_xy_one(A):
            report.pruned += 1
            continue
        try:
            sol = solve_r2(A, grid_n=SEARCH_GRID_N)
        except ScanFailure as exc:
            report.failures.append((A, str(exc)))
            continue
        report.solved += 1
        if verdict is None:
            verdict = _VERDICTS[key] = _judge(A, sol, cfg)
            if len(_VERDICTS) > _VERDICTS_CAP:
                _VERDICTS.popitem(last=False)
        if verdict.section is not None:
            getattr(report, verdict.section).append(verdict.candidate)

    return report


def _judge(A: RationalSymmetricMatrix, sol: TbaSolution, cfg: SearchConfig) -> _Verdict:
    """Recognize sol.c and annotate a kept matrix."""
    match = recognize(sol.c, tol=cfg.tolerance)
    if sol.multiplicity > 1:
        section = "nonunique"
    elif not match.empty:
        section = "admissible"
    else:
        return _Verdict(A, None, None)
    flags = PropFlags(
        classification=classify_vs_one(A),
        uniqueness_guarantee=uniqueness_guarantee(A),
        bounds=bounds_on_c(A) if A.d > 0 else None,  # a >= d by enumeration
    )
    return _Verdict(A, section, Candidate(A=A, c=sol.c, matches=match, solution=sol,
                                          prop_flags=flags))


def _prescanned(entries, cfg: SearchConfig):
    """Each matrix of entries with its verdict key and held verdict (or
    None), a block of _BLOCK at a time: a held verdict's matrix is reused,
    any other is built, and the block is prescanned."""
    for start in range(0, len(entries), _BLOCK):
        block = []
        for integers, a, b, d in entries[start:start + _BLOCK]:
            key = (integers, cfg.tolerance)
            verdict = _VERDICTS.get(key)
            if verdict is None:
                A = RationalSymmetricMatrix(a, b, d)
                vars(A)["integers"] = integers  # the cached_property's value
            else:
                A = verdict.A
            block.append((A, key, verdict))
        prescan([A for A, _, _ in block], SEARCH_GRID_N)
        yield from block


def dedupe_by_duality(cands: list[Candidate]) -> list[Candidate]:
    """Collapse (A, dual(A)) pairs to the representative with c <= 1.

    The kept candidate is annotated with its partner matrix and the
    partner's c value; candidates without their dual in the list pass
    through unchanged.
    """
    by_entries = {cand.A.canonical()[0].entries: i for i, cand in enumerate(cands)}
    dropped = set()
    out = []
    for i, cand in enumerate(cands):
        if i in dropped:
            continue
        try:
            partner = dual(cand.A).canonical()[0]
        except SingularMatrixError:
            out.append(cand)
            continue
        j = by_entries.get(partner.entries)
        if j is None or j == i or j in dropped:
            out.append(cand)
            continue
        other = cands[j]
        keep, drop = (cand, other) if cand.c <= other.c else (other, cand)
        dropped.add(i)
        dropped.add(j)
        out.append(replace(keep, dual_partner=drop.A, dual_c=drop.c))
    return out


# ---------------------------------------------------------------------------
# reports


def _candidate_lines(cand: Candidate) -> list[str]:
    A = cand.A
    lines = [f"matrix {A.a} {A.b} {A.d}"]
    kinds = cand.matches.ranked()
    matched = "; ".join(f"{k}: {desc}" for k, desc in kinds) if kinds else "none"
    lines.append(f"  c = {cand.c:.12f}  matches {matched}")
    lines.append(
        f"  residual {cand.solution.residual:.3e}"
        f"  multiplicity {cand.solution.multiplicity}"
        f"  classification {cand.prop_flags.classification.relation}"
        f"  uniqueness_guarantee {cand.prop_flags.uniqueness_guarantee}"
    )
    if cand.prop_flags.bounds is not None:
        b = cand.prop_flags.bounds
        lines.append(f"  bounds [{b.lower:.9f}, {b.upper:.9f}] case {b.case_tag}")
    if cand.dual_partner is not None:
        p = cand.dual_partner
        lines.append(f"  dual {p.a} {p.b} {p.d}  c_dual = {cand.dual_c:.12f}")
    return lines


def report_text(report: SearchReport) -> str:
    """Human-readable search report, deterministic for a given config."""
    lines = [
        f"scanned {report.scanned}  pruned {report.pruned}  solved {report.solved}",
        f"admissible {len(report.admissible)}  nonunique {len(report.nonunique)}"
        f"  failures {len(report.failures)}",
        "",
    ]
    for cand in report.admissible:
        lines.extend(_candidate_lines(cand))
    if report.nonunique:
        lines.append("")
        lines.append("nonunique section (all interior solutions listed):")
        for cand in report.nonunique:
            lines.extend(_candidate_lines(cand))
            for x, y in cand.solution.interior:
                lines.append(f"    solution x = {x:.12f}  y = {y:.12f}")
    if report.failures:
        lines.append("")
        lines.append("failures:")
        for A, msg in report.failures:
            lines.append(f"  matrix {A.a} {A.b} {A.d}: {msg}")
    return "\n".join(lines) + "\n"


def _measured(value: float, tol: float):
    return {"value": value, "tol": tol}


def _matrix_json(A: RationalSymmetricMatrix):
    # str of a Fraction is "p/q", or "p" for an integer
    return {"a": str(A.a), "b": str(A.b), "d": str(A.d)}


def _matches_json(m: ChargeMatch, tol: float):
    # an empty match has residual infinity; JSON numbers cannot carry
    # that, so the schema encodes "no match" as -1.
    return {
        "minimal": list(m.minimal) if m.minimal is not None else None,
        "parafermion": m.parafermion,
        "rational": str(Fraction(*m.rational)) if m.rational is not None else None,
        "residual": _measured(m.residual if math.isfinite(m.residual) else -1.0, tol),
    }


def _candidate_json(cand: Candidate, tol: float):
    out = {
        "matrix": _matrix_json(cand.A),
        "c": _measured(cand.c, max(cand.solution.residual, 1e-15)),
        "matches": _matches_json(cand.matches, tol),
        "multiplicity": cand.solution.multiplicity,
        "classification": cand.prop_flags.classification.relation,
        "uniqueness_guarantee": cand.prop_flags.uniqueness_guarantee,
        "suspect": cand.suspect,
    }
    if cand.prop_flags.bounds is not None:
        b = cand.prop_flags.bounds
        out["bounds"] = {
            "lower": _measured(b.lower, 1e-12),
            "upper": _measured(b.upper, 1e-12),
            "case": b.case_tag,
        }
    if cand.dual_partner is not None:
        out["dual"] = {
            "matrix": _matrix_json(cand.dual_partner),
            "c": _measured(cand.dual_c, 1e-12),
        }
    return out


def _report_doc(report: SearchReport):
    tol = report.tolerance
    return {
        "scanned": report.scanned,
        "pruned": report.pruned,
        "solved": report.solved,
        "admissible": [_candidate_json(c, tol) for c in report.admissible],
        "nonunique": [
            {
                **_candidate_json(c, tol),
                "solutions": [
                    {"x": _measured(x, 1e-12), "y": _measured(y, 1e-12)}
                    for x, y in c.solution.interior
                ],
            }
            for c in report.nonunique
        ],
        "failures": [
            {"matrix": _matrix_json(A), "message": msg} for A, msg in report.failures
        ],
    }


def _json_text(doc) -> str:
    """The one JSON serializer of the package: one line, sorted keys,
    finite numbers only (NaN or infinity raises ValueError)."""
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def report_json(report: SearchReport) -> str:
    """JSON search report matching the shipped output schema; every
    match carries the tolerance the report was judged at."""
    return _json_text(_report_doc(report))


# Example configurations; together they recover the full catalog of
# sporadic matrices plus the four tabulated one-parameter family points.
EXAMPLE_CONFIGS: dict[str, SearchConfig] = {
    "den4": SearchConfig(max_denominator=4, max_numerator=8),
    "den2": SearchConfig(max_denominator=2, max_numerator=8),
    "den6": SearchConfig(max_denominator=6, max_numerator=8),
    "diag_zero": SearchConfig(max_denominator=18, max_numerator=8, fix_d=Fraction(0)),
    "symmetric": SearchConfig(max_denominator=4, max_numerator=8, a_eq_d=True),
}

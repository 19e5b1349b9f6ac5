"""
Searching matrix families for rational dilogarithm sums
=======================================================

Which rational symmetric matrices give a rational c?  The search
module enumerates all in-range matrices with bounded numerators and
denominators, rejects exactly the singular a = d = -b (no solution),
solves the rest, and keeps the candidates whose c is recognized as a
minimal-model value 1 - 6/(st), a parafermionic value 2(n-1)/(n+2), or
a small rational.  Duality pairs candidates up, so each pair is
reported once.

This script runs the integer-entry search, prints its report, and then
a denominator-2 search large enough to recover several of the sporadic
systems.
"""

from fractions import Fraction

from dilogtba import SearchConfig, dedupe_by_duality, report_text, run_search

F = Fraction

# Integer entries up to 4.  Small enough to read end to end: the
# report lists every admissible candidate with its recognition, the
# matrices with multiple solutions; the header's "pruned" counts the
# antidiagonal family a = -b = d, whose equations collapse to xy = 1.
config = SearchConfig(max_numerator=4, max_denominator=1)
report = run_search(config)
print(report_text(report))

# Half-integer entries.  This is the denominator-2 slice of the search
# that recovers sporadic systems; dedupe_by_duality folds each dual
# pair into its c <= 1 representative.
config = SearchConfig(max_numerator=8, max_denominator=2)
report = run_search(config)
deduped = dedupe_by_duality(report.admissible)
print()
print(
    f"denominator-2 search: scanned {report.scanned}, "
    f"admissible {len(report.admissible)}, after duality dedupe {len(deduped)}"
)

# The sporadic systems this slice contains, picked out of the deduped
# list by their entries.
wanted = {
    (F(4), F(5, 2), F(2)): "c = 2/5",
    (F(2), F(3, 2), F(3, 2)): "c = 1/2",
    (F(4), F(3, 2), F(1)): "c = 1/2",
    (F(2), F(1), F(1)): "c = 4/7",
    (F(1), F(1, 2), F(1, 2)): "c = 3/4",
    (F(2), F(1, 2), F(1, 2)): "c = 7/10",
}
print()
print("recovered systems:")
for cand in deduped:
    key = cand.A.entries
    if key in wanted:
        extra = ""
        if cand.dual_partner is not None:
            extra = f"   dual partner {cand.dual_partner} with c = {cand.dual_c:.6f}"
        print(f"  {str(cand.A):<22} c = {cand.c:.10f}  ({wanted[key]}){extra}")

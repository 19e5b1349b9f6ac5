"""Tests for the admissible-matrix search pipeline.

The small exact enumeration with integer entries up to 4 is frozen as
an oracle: its scan counts, the two multi-solution systems, and the
four matrices of the form (k, -k, k) whose scan finds no solution (the
coupled equations force x y = 1 there, which no interior pair
satisfies).  Recovery of the known named systems is exercised through
the shipped example configurations, and duality deduplication is
checked both on search output and on synthetic candidate pairs.
"""

import hashlib
import json
from fractions import Fraction

import jsonschema
import pytest

from dilogtba.analysis import classify_vs_one, dual, uniqueness_guarantee
from dilogtba.charges import recognize
from dilogtba.search import (
    EXAMPLE_CONFIGS,
    Candidate,
    PropFlags,
    SearchConfig,
    dedupe_by_duality,
    report_json,
    report_text,
    run_search,
)
from dilogtba.tba import RationalSymmetricMatrix, solve_r2

F = Fraction


@pytest.fixture(scope="module")
def small_report():
    return run_search(SearchConfig(max_denominator=1, max_numerator=4))


@pytest.fixture(scope="module")
def den2_report():
    return run_search(EXAMPLE_CONFIGS["den2"])


def _make_candidate(A: RationalSymmetricMatrix) -> Candidate:
    sol = solve_r2(A)
    return Candidate(
        A=A,
        c=sol.c,
        matches=recognize(sol.c),
        solution=sol,
        prop_flags=PropFlags(
            classification=classify_vs_one(A),
            uniqueness_guarantee=uniqueness_guarantee(A),
            bounds=None,
        ),
    )


# ---------------------------------------------------------------------------
# configuration

def test_entry_values_enumeration():
    cfg = SearchConfig(max_numerator=3, max_denominator=2)
    assert cfg.entry_values() == [F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)]


def test_entry_values_clipping():
    cfg = SearchConfig(
        max_numerator=8, max_denominator=2, entry_min=F(1, 2), entry_max=F(2)
    )
    assert cfg.entry_values() == [F(1, 2), F(1), F(3, 2), F(2)]


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(tolerance=1e-11)
    with pytest.raises(ValueError):
        SearchConfig(max_denominator=0)
    with pytest.raises(ValueError):
        SearchConfig(max_numerator=0)


def test_config_coerces_exact_bounds():
    cfg = SearchConfig(fix_d=0, entry_min=1)
    assert cfg.fix_d == F(0) and isinstance(cfg.fix_d, F)
    assert cfg.entry_min == F(1) and isinstance(cfg.entry_min, F)


def test_example_configs_cover_the_documented_grids():
    assert set(EXAMPLE_CONFIGS) == {"den4", "den2", "den6", "diag_zero", "symmetric"}
    assert EXAMPLE_CONFIGS["den2"].max_denominator == 2
    assert EXAMPLE_CONFIGS["den4"].max_numerator == 8
    assert EXAMPLE_CONFIGS["diag_zero"].fix_d == F(0)
    assert EXAMPLE_CONFIGS["symmetric"].a_eq_d


# ---------------------------------------------------------------------------
# the frozen integer-entry enumeration

def test_small_run_counts(small_report):
    rep = small_report
    assert rep.scanned == 95
    assert rep.pruned == 12
    assert rep.solved == 79
    assert len(rep.admissible) == 25
    assert len(rep.nonunique) == 2
    assert len(rep.failures) == 4
    assert len(rep) == 25
    assert list(rep) == rep.admissible


def test_small_run_is_sorted_canonically(small_report):
    for cand in small_report.admissible:
        assert cand.A.a >= cand.A.d
    keys = [
        (c.A.max_denominator(), c.A.a, c.A.d, c.A.b) for c in small_report.admissible
    ]
    assert keys == sorted(keys)


def test_multi_solution_systems_go_to_the_nonunique_section(small_report):
    by_matrix = {c.A: c for c in small_report.nonunique}
    two = by_matrix[RationalSymmetricMatrix(1, 4, 0)]
    three = by_matrix[RationalSymmetricMatrix(1, 4, 1)]
    assert two.solution.multiplicity == 2
    assert two.matches.empty
    assert three.solution.multiplicity == 3
    assert not three.matches.empty
    # the symmetric system's solution set is swap-symmetric
    pts = three.solution.interior
    assert len(pts) == 3
    assert abs(pts[0][0] - pts[-1][1]) < 1e-9
    assert abs(pts[1][0] - pts[1][1]) < 1e-9


def test_require_uniqueness_off_moves_matched_candidates():
    rep = run_search(
        SearchConfig(max_denominator=1, max_numerator=4, require_uniqueness=False)
    )
    assert not rep.nonunique
    assert len(rep.admissible) == 26
    entries = {c.A for c in rep.admissible}
    # the matched three-solution system joins the admissible list; the
    # unmatched two-solution system is dropped entirely
    assert RationalSymmetricMatrix(1, 4, 1) in entries
    assert RationalSymmetricMatrix(1, 4, 0) not in entries


def test_scan_failures_are_recorded_not_fatal(small_report):
    failed = {A: msg for A, msg in small_report.failures}
    for k in range(1, 5):
        A = RationalSymmetricMatrix(k, -k, k)
        assert A in failed
        assert "no solution" in failed[A]


def test_search_is_deterministic():
    cfg = SearchConfig(max_denominator=1, max_numerator=4)
    assert report_text(run_search(cfg)) == report_text(run_search(cfg))


def test_loose_tolerance_flags_suspects():
    rep = run_search(
        SearchConfig(max_denominator=1, max_numerator=4, tolerance=1e-7)
    )
    suspects = [c for c in rep.admissible if c.suspect]
    assert suspects
    for cand in suspects:
        assert not cand.matches.empty
        assert cand.matches.residual <= 1e-7
        # suspects are exactly the near-misses beyond the strict band
        assert cand.matches.residual > 1e-10


# ---------------------------------------------------------------------------
# recovery of known systems

def test_half_integer_grid_recovers_known_systems(den2_report):
    expected_c = {
        RationalSymmetricMatrix(1, F(1, 2), F(1, 2)): 0.75,
        RationalSymmetricMatrix(2, F(1, 2), F(1, 2)): 0.70,
        RationalSymmetricMatrix(F(1, 2), F(1, 2), F(1, 2)): 0.80,
        RationalSymmetricMatrix(F(1, 2), F(1, 2), 0): 1.00,
        RationalSymmetricMatrix(1, F(-1, 2), F(1, 2)): 1.25,
        RationalSymmetricMatrix(1, 0, F(1, 2)): 0.90,
    }
    found = {c.A: c for c in den2_report.admissible}
    for A, c_expected in expected_c.items():
        assert A in found, f"missing {A}"
        assert abs(found[A].c - c_expected) < 1e-9
    au1 = found[RationalSymmetricMatrix(1, F(1, 2), F(1, 2))]
    assert au1.matches.minimal == (3, 8)
    assert au1.matches.parafermion is None
    assert au1.matches.rational == (3, 4)


# ---------------------------------------------------------------------------
# duality deduplication

def test_dedupe_collapses_the_self_dual_pair_in_search_output(den2_report):
    deduped = dedupe_by_duality(den2_report.admissible)
    assert len(deduped) == len(den2_report.admissible) - 1
    au1 = RationalSymmetricMatrix(1, F(1, 2), F(1, 2))
    au1_dual = RationalSymmetricMatrix(1, F(-1, 2), F(1, 2))
    kept = {c.A: c for c in deduped}
    assert au1 in kept
    assert au1_dual not in kept
    annotated = kept[au1]
    assert annotated.dual_partner == au1_dual
    assert abs(annotated.dual_c - 1.25) < 1e-9


def test_dedupe_synthetic_pair_keeps_the_small_charge_side():
    A = RationalSymmetricMatrix(F(4, 3), F(1, 6), F(1, 3))
    partner = dual(A)  # uncanonical orientation (1/5, -1/10, 4/5)
    assert partner == RationalSymmetricMatrix(F(1, 5), F(-1, 10), F(4, 5))
    pair = [_make_candidate(A), _make_candidate(partner)]
    out = dedupe_by_duality(pair)
    assert len(out) == 1
    kept = out[0]
    assert kept.A == A
    assert abs(kept.c - 6 / 7) < 1e-9
    assert kept.dual_partner == partner
    assert abs(kept.dual_c - 8 / 7) < 1e-9
    # order independence
    out2 = dedupe_by_duality(pair[::-1])
    assert len(out2) == 1
    assert out2[0].A == A


def test_dedupe_passes_through_self_dual_and_singular():
    self_dual = RationalSymmetricMatrix(F(1, 2), 0, F(1, 2))
    assert dual(self_dual) == self_dual
    singular = RationalSymmetricMatrix(1, 1, 1)
    cands = [_make_candidate(self_dual), _make_candidate(singular)]
    out = dedupe_by_duality(cands)
    assert out == cands
    assert all(c.dual_partner is None for c in out)


# ---------------------------------------------------------------------------
# reports

def test_report_text_layout(small_report):
    text = report_text(small_report)
    lines = text.splitlines()
    assert lines[0] == "scanned 95  pruned 12  solved 79"
    assert lines[1] == "admissible 25  nonunique 2  failures 4"
    assert "nonunique section (all interior solutions listed):" in lines
    assert "failures:" in lines
    assert any(line.startswith("matrix 1 4 1") for line in lines)
    assert sum(line.startswith("    solution x = ") for line in lines) == 5
    assert text.endswith("\n")


def test_report_json_matches_schema(small_report):
    from importlib import resources

    text = report_json(small_report)
    assert "Infinity" not in text
    doc = json.loads(text)
    schema = json.loads(
        resources.files("dilogtba").joinpath("data/cli_output.schema.json").read_text()
    )
    sub = {"$ref": "#/$defs/search_report", "$defs": schema["$defs"]}
    jsonschema.Draft202012Validator(sub).validate(doc)
    assert doc["scanned"] == 95
    assert len(doc["admissible"]) == 25
    # empty matches encode their residual as -1 (infinity is not JSON)
    empty = [
        c for c in doc["nonunique"]
        if c["matches"]["minimal"] is None
        and c["matches"]["parafermion"] is None
        and c["matches"]["rational"] is None
    ]
    assert empty and all(c["matches"]["residual"]["value"] == -1.0 for c in empty)


def test_report_json_is_deterministic(small_report):
    assert report_json(small_report) == report_json(small_report)


# sha256 of report_text and report_json, recorded before the enumeration
# moved to integer numerators and the prune and recognition to one
# cached spectrum table; any change to the reports' bytes fails here.
_REPORT_DIGESTS = {
    "den2": ("714f25bc1c63865acf497f54e38bd1ee5aaeca9799c0ff4d90caf356dccd4657",
             "cf79c13d14b6c058cf3697c4c645f426b26ef52d43e4c9b26ea49ec659ffb707"),
    "symmetric": ("6a9972a130bc70311dc72d6b68081e080b8cbfa994e4b86b5e0806e3b1ed2b9d",
                  "13b0b9d8af7693973679c02404dc9fe881921d401d106ac73640a238821c9f53"),
    "fix_d_window": ("402afee85d04d4d5fc425cc1ad79f48f5bab277ab973b749b41e5cb30f13293b",
                     "db445e4940c8672dfef7375485684441a9180d8ec6c76da68c53c34a2a1e6823"),
}


@pytest.mark.parametrize("name", sorted(_REPORT_DIGESTS))
def test_reports_are_byte_identical_to_recorded(name, den2_report):
    if name == "den2":
        report = den2_report
    elif name == "symmetric":
        report = run_search(EXAMPLE_CONFIGS["symmetric"])
    else:
        report = run_search(SearchConfig(max_denominator=6, max_numerator=2, fix_d=F(0)))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (report_text(report), report_json(report)))
    assert digests == _REPORT_DIGESTS[name]

"""Tests for the admissible-matrix search pipeline.

The small exact enumeration with integer entries up to 4 is frozen as
an oracle: its scan counts, the two multi-solution systems, and the
four matrices of the form (k, -k, k) rejected before the scan (the
coupled equations force x y = 1 there, which no interior pair
satisfies).  A brute-force loop that solves and recognizes every
enumerated matrix pins the admissible set.  Recovery of the known named
systems is exercised through the shipped example configurations, and
duality deduplication is checked both on search output and on synthetic
candidate pairs.
"""

import contextlib
import hashlib
import io
import json
import math
from collections import OrderedDict
from dataclasses import fields, replace
from fractions import Fraction
from importlib import resources
from unittest import mock

import jsonschema
import pytest

from dilogtba import search, tba
from dilogtba.analysis import classify_vs_one, dual, uniqueness_guarantee
from dilogtba.charges import recognize
from dilogtba.errors import ScanFailure
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
from dilogtba.tba import RationalSymmetricMatrix, forces_xy_one, solve_r2

F = Fraction


@pytest.fixture(scope="module")
def small_report():
    return run_search(SearchConfig(max_denominator=1, max_numerator=4))


@pytest.fixture(scope="module")
def den2_report():
    return run_search(EXAMPLE_CONFIGS["den2"])


def _validated_json(report) -> dict:
    """report_json of report, checked against the shipped output schema."""
    text = report_json(report)
    assert "Infinity" not in text
    doc = json.loads(text)
    schema = json.loads(
        resources.files("dilogtba").joinpath("data/cli_output.schema.json").read_text()
    )
    sub = {"$ref": "#/$defs/search_report", "$defs": schema["$defs"]}
    jsonschema.Draft202012Validator(sub).validate(doc)
    return doc


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
    # the tolerance floor is the solver's accuracy, 1e-15, which it takes
    with pytest.raises(ValueError, match="below the solver's accuracy"):
        SearchConfig(tolerance=1e-16)
    assert SearchConfig(tolerance=1e-15).tolerance == 1e-15
    with pytest.raises(ValueError):
        SearchConfig(max_denominator=0)
    with pytest.raises(ValueError):
        SearchConfig(max_numerator=0)
    # a negative d is outside every matrix's entry range; the search ran
    # and found nothing
    with pytest.raises(ValueError, match="fix_d -1/2 is negative"):
        SearchConfig(max_denominator=2, max_numerator=1, fix_d=F(-1, 2))


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_config_rejects_a_non_finite_tolerance(tolerance):
    # a NaN tolerance passed the floor check and ran with no admissible
    # candidate at all
    with pytest.raises(ValueError, match="tolerance must be finite"):
        SearchConfig(max_denominator=2, max_numerator=2, tolerance=tolerance)


def test_config_rejects_fix_d_with_a_eq_d():
    # a_eq_d took d = a, so fix_d = 1 was dropped and d ran over 0, 1/2, 1, 2
    with pytest.raises(ValueError, match="fix_d and a_eq_d"):
        SearchConfig(max_denominator=2, max_numerator=2, fix_d=1, a_eq_d=True)
    with pytest.raises(ValueError, match="fix_d and a_eq_d"):
        replace(EXAMPLE_CONFIGS["symmetric"], fix_d=F(0))
    assert SearchConfig(max_denominator=2, max_numerator=2, fix_d=1).fix_d == 1


def test_config_caps_the_enumeration():
    # unbounded flags enumerated every matrix: 200/200 has ~1.5e13 of them
    with pytest.raises(ValueError, match="above 10000"):
        SearchConfig(max_denominator=200, max_numerator=200)
    with pytest.raises(ValueError, match="106 entry values"):
        SearchConfig(max_denominator=20, max_numerator=8)
    # clipping decides: the same flags with a narrow window pass
    assert len(SearchConfig(max_denominator=20, max_numerator=8, entry_max=1).entry_values()) == 85
    assert len(SearchConfig(max_denominator=12, max_numerator=8).entry_values()) == 64


def test_config_coerces_exact_bounds():
    cfg = SearchConfig(fix_d=0, entry_min=1)
    assert cfg.fix_d == F(0) and isinstance(cfg.fix_d, F)
    assert cfg.entry_min == F(1) and isinstance(cfg.entry_min, F)


@pytest.mark.parametrize("option", [{"grid_n": 20_001}, {"require_uniqueness": False}])
def test_config_has_no_grid_or_uniqueness_option(option):
    # every search scans on SEARCH_GRID_N and lists every multi-solution
    # matrix in the nonunique section
    with pytest.raises(TypeError):
        SearchConfig(**option)
    assert [f.name for f in fields(SearchConfig) if f.init] == [
        "max_numerator", "max_denominator", "entry_min", "entry_max", "tolerance",
        "fix_d", "a_eq_d"]


@pytest.mark.parametrize("name", ["den4", "diag_zero", "symmetric"])
def test_entries_carry_each_matrix_s_integers(name):
    # run_search keys its verdicts on them and hands them to the matrices
    # it builds in place of their own A.integers
    for integers, a, b, d in search._entries(EXAMPLE_CONFIGS[name]):
        assert integers == RationalSymmetricMatrix(a, b, d).integers


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
    assert rep.pruned == 4
    assert rep.solved == 91
    assert len(rep.admissible) == 25
    assert len(rep.nonunique) == 2
    assert len(rep.failures) == 0
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


@pytest.mark.usefixtures("cold_solver")
def test_scan_failures_are_recorded_not_fatal(small_report):
    failing = RationalSymmetricMatrix(2, 1, 1)

    def solve(A, **kwargs):
        if A == failing:
            raise ScanFailure("no solution found")
        return solve_r2(A, **kwargs)

    with mock.patch.object(search, "solve_r2", side_effect=solve):
        rep = run_search(SearchConfig(max_denominator=1, max_numerator=4))
    assert rep.failures == [(failing, "no solution found")]
    assert rep.solved == small_report.solved - 1
    assert rep.pruned == small_report.pruned
    assert [c.A for c in rep.admissible] == \
        [c.A for c in small_report.admissible if c.A != failing]
    lines = report_text(rep).splitlines()
    assert lines[lines.index("failures:") + 1] == "  matrix 2 1 1: no solution found"
    assert _validated_json(rep)["failures"] == [
        {"matrix": {"a": "2", "b": "1", "d": "1"}, "message": "no solution found"}]


@pytest.mark.usefixtures("cold_solver")
def test_xy_one_matrices_are_pruned_before_the_scan():
    # pruned counts exactly the a = d = -b matrices, none reaches solve_r2,
    # and solve_r2 is called once per solve and failure: the small run, at
    # a loose tolerance, and with a scan failure
    for tolerance, failing in [(1e-9, None), (1e-7, None),
                               (1e-9, RationalSymmetricMatrix(2, 1, 1))]:
        def solve(A, **kwargs):
            if A == failing:
                raise ScanFailure("no solution found")
            return solve_r2(A, **kwargs)

        with mock.patch.object(search, "solve_r2", side_effect=solve) as spy:
            rep = run_search(SearchConfig(max_denominator=1, max_numerator=4,
                                          tolerance=tolerance))
        assert not any(forces_xy_one(call.args[0]) for call in spy.call_args_list)
        assert spy.call_count == rep.solved + len(rep.failures)
        assert len(rep.failures) == (failing is not None)
        assert rep.pruned == 4
        # prescan's results went into solve_r2's store, within its cap
        assert len(tba._SOLVED) <= tba._SOLVED_CAP


def test_call_counts_hold_on_a_warm_store():
    # the same three runs with every verdict and solve held from a first
    # pass: each matrix still makes its one solve_r2 call, and nothing is
    # scanned again
    with _fresh_stores():
        for tolerance in (1e-9, 1e-7):
            run_search(SearchConfig(max_denominator=1, max_numerator=4, tolerance=tolerance))
        with mock.patch.object(search, "recognize", wraps=recognize) as recognized, \
                mock.patch.object(tba, "_scan_block", side_effect=AssertionError("scanned")):
            test_xy_one_matrices_are_pruned_before_the_scan()
        assert recognized.call_count == 0


def _brute_force_admissible(cfg: SearchConfig) -> dict:
    """Solve and recognize every in-range a >= d matrix that has a solution."""
    values = cfg.entry_values()
    b_values = sorted(set(values) | {-v for v in values})
    out = {}
    for a in values:
        for d in values:
            for b in b_values:
                if d > a or b < -d or (a == d == 0 and b == F(1, 2)):
                    continue
                A = RationalSymmetricMatrix(a, b, d)
                if forces_xy_one(A):
                    continue
                sol = solve_r2(A, grid_n=search.SEARCH_GRID_N)
                match = recognize(sol.c, tol=cfg.tolerance)
                if sol.multiplicity == 1 and not match.empty:
                    out[A] = match
    return out


@pytest.mark.parametrize("name", ["den2", "den4"])
def test_admissible_set_equals_the_brute_force_loop(name, den2_report):
    cfg = EXAMPLE_CONFIGS[name]
    report = den2_report if name == "den2" else run_search(cfg)
    found = {c.A: c.matches for c in report.admissible}
    assert found == _brute_force_admissible(cfg)
    assert not report.failures
    # rational-only matches, which a test of the bounds on c against the
    # minimal and parafermionic values alone would drop
    for entries, pq in [((8, 1, 7), (2333, 7484)), ((8, -3, 7), (3784, 8821))]:
        match = found[RationalSymmetricMatrix(*entries)]
        assert match.rational == pq
        assert match.minimal is None and match.parafermion is None


def test_search_is_deterministic():
    cfg = SearchConfig(max_denominator=1, max_numerator=4)
    assert report_text(run_search(cfg)) == report_text(run_search(cfg))


@pytest.mark.usefixtures("cold_solver")
def test_each_matrix_is_solved_once_at_the_search_grid():
    # one solve_r2 call per matrix, at the search's grid, also for the
    # matches with residual above 1e-9, and no suspect flag
    cfg = SearchConfig(max_denominator=1, max_numerator=4, tolerance=1e-8)
    with mock.patch.object(search, "solve_r2", wraps=solve_r2) as spy:
        rep = run_search(cfg)
    assert spy.call_count == rep.solved + len(rep.failures) == 91
    assert {call.kwargs["grid_n"] for call in spy.call_args_list} == {search.SEARCH_GRID_N}
    assert any(c.matches.residual > 1e-9 for c in rep.admissible)
    assert not any(c.suspect for c in rep.admissible + rep.nonunique)
    assert "flag suspect" not in report_text(rep)


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
    assert lines[0] == "scanned 95  pruned 4  solved 91"
    assert lines[1] == "admissible 25  nonunique 2  failures 0"
    assert "nonunique section (all interior solutions listed):" in lines
    assert "failures:" not in lines
    assert any(line.startswith("matrix 1 4 1") for line in lines)
    assert sum(line.startswith("    solution x = ") for line in lines) == 5
    assert text.endswith("\n")


def test_report_json_matches_schema(small_report):
    doc = _validated_json(small_report)
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


# sha256 of report_text and report_json; any change to the reports'
# bytes fails here.  Re-recorded when positive semidefinite systems
# moved to Newton and scan brackets to Newton-split bisection, and the
# JSON halves when JSON documents became one line.
_REPORT_DIGESTS = {
    "den2": ("9c9f45b9eda5d83dca3915d014239b57453c8072224571a4f734698a81996605",
             "34a0b3418fe539e53e0d7a5e2e4233309ec6f7a1e53a1be94455e17d6c918cc7"),
    "symmetric": ("b4ae48313d9d19affba43a507142a37e720c7b45d23b34560d9bd8ca771614fa",
                  "7dc225a317195c69d8dc61905a50fd8aa2612ff9fcc6a56f997fe6c5c72a2d3e"),
    "fix_d_window": ("75b1000d654f6807cca578afa67f7a7eb6e13345a1ec4dd847cf39b1b41c1740",
                     "7b7dee43916446e68b00ab1d8120c7634f9d7f1d249931126c3d0705cd513fd2"),
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


def _digests(report):
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (report_text(report), report_json(report)))


@contextlib.contextmanager
def _fresh_stores():
    """Empty process-wide stores of tba.solve_r2 and run_search, at their
    own caps, for the block; the old ones are back afterwards."""
    with mock.patch.object(tba, "_SOLVED", OrderedDict()), \
            mock.patch.object(search, "_VERDICTS", OrderedDict()):
        yield


def test_held_verdicts_leave_the_reports_unchanged():
    # den2's matrices lie inside den4's: after den4, and on a second run,
    # den2 is judged from held verdicts alone
    with _fresh_stores():
        run_search(EXAMPLE_CONFIGS["den4"])
        after_den4 = run_search(EXAMPLE_CONFIGS["den2"])
    with _fresh_stores():
        first = run_search(EXAMPLE_CONFIGS["den2"])
        with mock.patch.object(search, "recognize", wraps=recognize) as recognized, \
                mock.patch.object(search, "RationalSymmetricMatrix",
                                  wraps=RationalSymmetricMatrix) as built:
            second = run_search(EXAMPLE_CONFIGS["den2"])
    for report in (after_den4, first, second):
        assert _digests(report) == _REPORT_DIGESTS["den2"]
    # only the pruned a = d = -b matrices are built again
    assert (recognized.call_count, built.call_count) == (0, second.pruned)


# ---------------------------------------------------------------------------
# the JSON serializer


_CLI_REQUESTS = [
    ["solve", "-A", "1"], ["solve", "-A", "inf"], ["solve", "-A", "2", "1", "1"],
    ["solve", "-A", "1/20", "19/20", "1/20"], ["solve", "-A", "1/4", "1/4", "0"],
    ["dual", "-A", "2", "1", "1"], ["bounds", "-A", "2", "1", "1"],
    ["classify", "-A", "2", "1", "1"], ["recognize", "0.5714285714"],
    ["recognize", "0.123456789"], ["search", "--max-num", "2", "--max-den-entries", "2"],
    ["verify-identities", "--precision", "1e-12", "--cross-check"],
    ["expand", "chi_2_5", "--order", "12"], ["ceff-estimate", "chi_2_5"],
]


def _one_line(text):
    return text.endswith("\n") and text.count("\n") == 1


def test_json_documents_are_one_line(small_report, den2_report):
    from dilogtba import cli

    docs = []

    def capture(doc):
        docs.append(doc)
        return search._json_text(doc)

    with mock.patch.object(cli, "_json_text", capture):
        for argv in _CLI_REQUESTS:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.parse_and_dispatch([*argv, "--json"]) == 0, argv
            assert _one_line(out.getvalue()), argv
            assert json.loads(out.getvalue()) == docs[-1], argv
    assert len(docs) == len(_CLI_REQUESTS)
    for report in (small_report, den2_report, run_search(EXAMPLE_CONFIGS["symmetric"])):
        text = report_json(report)
        assert _one_line(text)
        assert json.loads(text) == search._report_doc(report)


def test_json_text_rejects_non_finite_numbers_and_other_values():
    for bad in [math.nan, {"c": [1.0, math.inf]}, {"c": -math.inf}]:
        with pytest.raises(ValueError, match="not JSON compliant"):
            search._json_text(bad)
    with pytest.raises(TypeError):
        search._json_text({"a": object()})


def test_report_json_states_the_tolerance_the_search_ran_at():
    # report_json(report) stated tol 1e-9 on every match of a 1e-7 search
    report = run_search(SearchConfig(max_denominator=1, max_numerator=4, tolerance=1e-7))
    doc = json.loads(report_json(report))
    residuals = [c["matches"]["residual"] for c in doc["admissible"] + doc["nonunique"]]
    assert len(residuals) == len(report.admissible) + len(report.nonunique) > 0
    assert any(r["value"] > 1e-9 for r in residuals)
    assert {r["tol"] for r in residuals} == {1e-7}
    assert report.tolerance == 1e-7

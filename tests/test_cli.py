"""Tests for the command-line interface.

Most cases drive parse_and_dispatch in process and capture stdout and
stderr.  Two subprocess runs check the command as a user starts it: one
generates the ``dilogtba`` launcher from the ``[project.scripts]`` entry
in pyproject.toml, as an installer would, and runs it by name through
PATH; the other runs ``python -m dilogtba.cli --version``.  Both
children import the same dilogtba source tree as the in-process tests.
Further children report what a cold start imports, and the peak memory
of a search at the largest grid against that of a lone solve.
Every JSON document emitted on a success path is validated against the
shipped output schema, and the exit-code contract (0 success, 1
computation failure, 2 input error) is pinned case by case and fuzzed
with hypothesis.
"""

import io
import contextlib
import inspect
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import dilogtba
from dilogtba import charges, cli, identities, qseries, tba
from dilogtba.cli import parse_and_dispatch
from dilogtba.search import EXAMPLE_CONFIGS, SearchConfig, report_json, run_search

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(args):
    """Run one CLI invocation in process; return (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_dispatch(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def schema():
    text = resources.files("dilogtba").joinpath("data/cli_output.schema.json").read_text()
    return json.loads(text)


def run_json(args, schema):
    code, out, err = run_cli(args)
    assert code == 0, f"{args}: exit {code}, stderr {err!r}"
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return doc


# ---------------------------------------------------------------------------
# headers and determinism

def test_text_output_starts_with_version_header():
    code, out, _ = run_cli(["solve", "-A", "1/4"])
    assert code == 0
    assert out.splitlines()[0] == "dilogtba 0.1.0"


def test_no_header_suppresses_the_version_line():
    code, out, _ = run_cli(["solve", "-A", "1/4", "--no-header"])
    assert code == 0
    assert out.splitlines()[0].startswith("rank-1 system")


def test_json_output_has_no_header():
    code, out, _ = run_cli(["solve", "-A", "1/4", "--json"])
    assert code == 0
    assert out.startswith("{")


def test_json_output_is_byte_deterministic():
    args = ["solve", "-A", "1", "1/2", "1/2", "--json"]
    assert run_cli(args) == run_cli(args)


# ---------------------------------------------------------------------------
# solve

def test_solve_rank1_quarter(schema):
    doc = run_json(["solve", "-A", "1/4", "--json"], schema)
    assert doc["command"] == "solve" and doc["rank"] == 1
    assert doc["a"] == "1/4"
    assert abs(doc["c"]["value"] - 0.6) < 1e-12


def test_solve_rank1_infinity(schema):
    doc = run_json(["solve", "-A", "inf", "--json"], schema)
    assert doc["a"] == "inf"
    assert doc["x"]["value"] == 0.0
    assert doc["c"]["value"] == 0.0
    assert doc["matches"]["minimal"] == [2, 3]


def test_solve_rank2_json(schema):
    doc = run_json(["solve", "-A", "1", "1/2", "1/2", "--json"], schema)
    assert doc["rank"] == 2
    assert doc["matrix"] == {"a": "1", "b": "1/2", "d": "1/2"}
    assert doc["in_range"] is True
    assert abs(doc["c"]["value"] - 0.75) < 1e-10
    assert doc["multiplicity"] == 1
    assert doc["matches"]["minimal"] == [3, 8]
    assert doc["matches"]["rational"] == "3/4"


def test_solve_rank2_text_layout():
    code, out, _ = run_cli(["solve", "-A", "1", "1/2", "1/2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "matrix (1 1/2; 1/2 1/2)"
    assert lines[2].startswith("x = ")
    assert "multiplicity 1" in lines[3]
    assert lines[4].startswith("matches: ")


def test_solve_boundary_only_note():
    code, out, _ = run_cli(["solve", "-A", "1/2", "1/2", "0"])
    assert code == 0
    assert "note: only boundary solutions exist" in out


def test_solve_boundary_coexistence_note():
    code, out, _ = run_cli(["solve", "-A", "1", "1/4", "0"])
    assert code == 0
    assert "note: boundary solution present (d = 0, 0 < b < 1/2)" in out
    # with a = d = 0 both boundary pairs exist and the note names d
    code, out, _ = run_cli(["solve", "-A", "0", "1/4", "0"])
    assert code == 0
    assert "note: boundary solution present (d = 0, 0 < b < 1/2)" in out


@pytest.mark.parametrize("entries", [("0", "1/4", "1"), ("0", "1/3", "2")])
def test_solve_boundary_note_does_not_depend_on_orientation(entries, schema):
    a, b, d = entries
    doc = run_json(["solve", "-A", a, b, d, "--json"], schema)
    mirror = run_json(["solve", "-A", d, b, a, "--json"], schema)
    assert doc["boundary_flag"] is mirror["boundary_flag"] is True
    assert doc["multiplicity"] == mirror["multiplicity"] == 1
    assert abs(doc["c"]["value"] - mirror["c"]["value"]) <= 1e-13
    code, out, _ = run_cli(["solve", "-A", a, b, d])
    assert code == 0
    assert "note: boundary solution present (a = 0, 0 < b < 1/2)" in out


def test_solve_out_of_range_fails_then_escape_hatch(schema):
    code, _, err = run_cli(["solve", "-A", "4", "-3/2", "1"])
    assert code == 1
    assert "error:" in err and "RangeViolation" in err
    doc = run_json(["solve", "-A", "4", "-3/2", "1", "--no-range-check", "--json"], schema)
    assert doc["in_range"] is False
    assert abs(doc["x"]["value"] + doc["y"]["value"] - 1.0) < 1e-9
    assert abs(doc["c"]["value"] - 1.0) < 1e-10


def test_solve_scan_failure_exits_1():
    code, _, err = run_cli(["solve", "-A", "1", "-1", "1"])
    assert code == 1
    assert "no solution" in err


# ---------------------------------------------------------------------------
# input validation (exit code 2)

@pytest.mark.parametrize("argv", [
    ["solve", "-A", "1", "q", "1"],          # malformed fraction
    ["solve", "-A", "1/0"],                  # zero denominator
    ["solve", "-A", "1", "2"],               # wrong arity
    ["solve", "-A", "1", "2", "3", "4"],     # wrong arity
    ["solve", "-A", "1", "--scale", "0"],    # scale must be positive
    ["solve", "-A", "1", "--scale", "-1/2"],
    ["solve", "-A", "1", "--scale", "x"],
    ["classify", "-A", "1"],                 # classify needs rank 2
    ["bounds", "-A", "1/2"],
    ["dual", "-A", "2"],
    ["recognize", "seven"],
    ["expand", "no_such_form"],
    ["ceff-estimate", "chi_2_5", "--eps", "a,b,c"],
    ["no-such-command"],
    [],
    ["solve", "-A", "1", "1/2", "1/2", "--grid-n", "10"],  # grid below 1001
    ["search", "--grid-n", "1000"],
    ["recognize", "nan"],                    # value must be finite
    ["recognize", "inf"],
    ["recognize", "1e400"],
    ["recognize", "0.5", "--tol", "0"],      # tol must be positive and finite
    ["recognize", "0.5", "--tol", "-1e-9"],
    ["recognize", "0.5", "--tol", "nan"],
    ["search", "--max-num", "0"],            # enumeration bounds must be >= 1
    ["search", "--max-den-entries", "0"],
    ["recognize", "0.5", "--max-den", "0"],
    ["expand", "chi_2_5", "--order", "0"],   # order must be >= 1
    ["expand", "chi_2_5", "--order", "-3"],
    ["ceff-estimate", "chi_2_5", "--eps", "0.5,0.2,0.1"],  # eps outside (0.02, 0.3)
    ["ceff-estimate", "chi_2_5", "--eps", "0.2,0.2,0.1"],  # fewer than 3 distinct
    ["verify-identities", "--precision", "0"],  # precision must be positive, finite
    ["verify-identities", "--precision", "-1"],
    ["verify-identities", "--precision", "nan"],
    ["verify-identities", "--catalog", os.devnull],  # a catalog with no record
    ["search", "--tol", "1e-16"],            # below the solver's accuracy 1e-15
    ["recognize", "0.5", "--max-st", "-5"],  # spectrum bounds must be >= 1
    ["recognize", "0.5", "--max-st", "0"],
    ["recognize", "0.5", "--max-n", "0"],
    ["recognize", "0.5", "--max-st", "10001"],  # spectrum bounds are capped at 10^4
    ["recognize", "0.5", "--max-n", "100000"],
    # grids are capped at 10^7: 10^12 points asked numpy for 116 GiB
    ["solve", "-A", "1/4", "7", "0", "--grid-n", "1000000000000"],
    ["search", "--grid-n", "1000000000000"],
    # a rank-1 system is solved in closed form: no grid, no range check
    ["solve", "-A", "1", "--grid-n", "5000"],
    ["solve", "-A", "1", "--no-range-check"],
    ["solve", "-A", "inf", "--grid-n", "5000", "--no-range-check", "--json"],
])
def test_input_errors_exit_2(argv):
    code, _, err = run_cli(argv)
    assert code == 2, argv
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", [["--grid-n", "5000"], ["--no-range-check"]])
def test_rank_1_solve_names_the_flag_it_rejects(flag):
    # kappa takes no grid and has no range check to skip
    code, out, err = run_cli(["solve", "-A", "1", *flag, "--json"])
    assert (code, out) == (2, "")
    assert flag[0] in err and "rank-2" in err


def test_cli_defaults_are_the_library_defaults(schema, monkeypatch):
    # a flag left out takes the library function's own default, and a
    # document that states it states that one
    monkeypatch.delenv("DILOGTBA_TOL", raising=False)

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    tol = default(charges.recognize, "tol")
    assert SearchConfig().tolerance == tol
    doc = run_json(["recognize", "0.5", "--json"], schema)
    assert doc["value"]["tol"] == doc["matches"]["residual"]["tol"] == tol

    grids = []
    signature = inspect.signature(tba.solve_r2)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grids.append(bound.arguments["grid_n"])
        return tba.solve_r2(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_r2", spy)
    run_json(["solve", "-A", "1/4", "7", "0", "--json"], schema)
    assert grids == [default(tba.solve_r2, "grid_n")]

    doc = run_json(["verify-identities", "--json"], schema)
    assert doc["precision"] == default(identities.verify, "precision")
    doc = run_json(["ceff-estimate", "chi_2_5", "--json"], schema)
    assert doc["eps"] == list(default(qseries.estimate_ceff, "eps_list"))


@pytest.mark.parametrize("env_tol", ["abc", "0", "inf"])
def test_bad_tolerance_environment_exits_2(env_tol, monkeypatch):
    monkeypatch.setenv("DILOGTBA_TOL", env_tol)
    code, out, err = run_cli(["recognize", "0.5"])
    assert code == 2
    assert out == ""
    assert "DILOGTBA_TOL" in err and "Traceback" not in err
    # an explicit flag overrides the environment
    code, _, _ = run_cli(["recognize", "0.5", "--tol", "1e-9"])
    assert code == 0


def test_cached_parser_follows_the_tolerance_environment(monkeypatch):
    # the parser is built once per DILOGTBA_TOL value; each call must
    # still see the value set at that moment, and a bad one exit 2
    argv = ["recognize", "0.5714295714285714", "--max-den", "100", "--json"]
    for env_tol, tol, minimal in [("1e-5", 1e-5, [2, 7]), ("1e-12", 1e-12, None),
                                  (None, 1e-9, None), ("1e-5", 1e-5, [2, 7])]:
        if env_tol is None:
            monkeypatch.delenv("DILOGTBA_TOL", raising=False)
        else:
            monkeypatch.setenv("DILOGTBA_TOL", env_tol)
        code, out, err = run_cli(argv)
        assert code == 0, (env_tol, err)
        doc = json.loads(out)
        assert doc["value"]["tol"] == tol
        assert doc["matches"]["minimal"] == minimal
    monkeypatch.setenv("DILOGTBA_TOL", "abc")
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "DILOGTBA_TOL" in err
    hits = cli._build_parser.cache_info().hits
    monkeypatch.delenv("DILOGTBA_TOL")
    assert run_cli(argv)[0] == 0
    assert cli._build_parser.cache_info().hits == hits + 1


def test_failed_requests_leave_the_parser_intact():
    good = ["solve", "-A", "1", "1/2", "1/2", "--json"]
    reference = run_cli(good)
    assert reference[0] == 0
    for bad in (["ceff-estimate", "chi_2_5", "--eps", "0.5,0.2,0.1"],
                ["solve", "-A", "1", "1/2", "1/2", "--grid-n", "10"],
                ["solve", "-A", "1", "q", "1"]):
        code, out, err = run_cli(bad)
        assert code == 2 and out == "", bad
        assert run_cli(good) == reference
    # an --eps outside the window is reported on one line
    _, _, err = run_cli(["ceff-estimate", "chi_2_5", "--eps", "0.5,0.2,0.1"])
    assert err.count("\n") == 1 and "eps values must lie in" in err


@pytest.mark.parametrize("argv, error", [
    # the entry 10^400 of a positive definite A is no float
    pytest.param(["solve", "-A", "1e400", "1", "1"], "DomainError", id="argv0"),
    # D < 0 and exponents of order 10^33: the kernel saturates and finds
    # no root
    pytest.param(["solve", "-A", f"1/{10**67}", f"1/{10**33}", "1"], "ScanFailure", id="argv1"),
    pytest.param(["dual", "-A", "1e300", "1", "1e300"], "DomainError", id="argv2"),
    # b = 0 decouples into kappa(10^400), and rank 1 is kappa alone
    pytest.param(["solve", "-A", "1e400", "0", "1"], "DomainError", id="argv3"),
    pytest.param(["solve", "-A", "1e400"], "DomainError", id="argv4"),
])
def test_overflowing_computation_exits_1(argv, error):
    # exact rational input whose solve leaves the binary64 range
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {error}") and "Traceback" not in err


def test_xy_one_matrix_exits_1_naming_the_cause():
    code, out, err = run_cli(["solve", "-A", "1", "-1", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: ScanFailure") and "forces xy = 1" in err
    assert "Traceback" not in err


def test_negative_fraction_matrix_entries_parse():
    code, _, _ = run_cli(["solve", "-A", "4", "-3/2", "1", "--no-range-check"])
    assert code == 0


@pytest.mark.parametrize("argv, value", [
    (["recognize", "-1e-3"], -1e-3),
    (["recognize", "-1."], -1.0),
    (["recognize", "-.25"], -0.25),
    (["recognize", "-5E-1"], -0.5),
    (["recognize", "-1_000"], -1000.0),
    (["recognize", "-3.3285676048349483e-13"], -3.3285676048349483e-13),
    (["solve", "-A", "2", "-1e0", "2"], "-1"),
    (["solve", "-A", "2", "-1.e0", "2"], "-1"),
    (["solve", "-A", "2", "-5e-1", "1"], "-1/2"),
])
def test_negative_numbers_in_exponent_form_are_values(argv, value, schema):
    # argparse would take these for option flags: "arguments are required"
    doc = run_json([*argv, "--json"], schema)
    if argv[0] == "recognize":
        assert doc["value"]["value"] == value
    else:
        assert doc["matrix"]["b"] == value


@pytest.mark.parametrize("argv, message", [
    (["recognize", "-inf"], "value must be a finite number, got '-inf'"),
    (["recognize", "-Infinity"], "value must be a finite number, got '-Infinity'"),
    (["recognize", "-nan"], "value must be a finite number, got '-nan'"),
    (["solve", "-A", "2", "-inf", "2"], "malformed fraction for entry b: '-inf'"),
    (["solve", "-A", "-nan"], "malformed fraction for entry a: '-nan'"),
])
def test_negative_non_finite_values_reach_the_value_parser(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and "Traceback" not in err


# ---------------------------------------------------------------------------
# scaling

def test_scale_matches_explicit_entries():
    scaled = run_cli(["solve", "-A", "8", "5", "4", "--scale", "1/2", "--json"])
    direct = run_cli(["solve", "-A", "4", "5/2", "2", "--json"])
    assert scaled == direct


def test_scale_applies_to_rank1(schema):
    doc = run_json(["solve", "-A", "3/2", "--scale", "1/3", "--json"], schema)
    assert doc["a"] == "1/2"
    assert abs(doc["c"]["value"] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# classify / bounds / dual

def test_classify_equality_case(schema):
    doc = run_json(["classify", "-A", "1", "1/4", "1/16", "--json"], schema)
    assert doc["relation"] == "equal"
    code, out, _ = run_cli(["classify", "-A", "1", "1/4", "1/16"])
    assert "c vs 1: equal" in out


def test_bounds_canonicalizes_and_reports_case(schema):
    doc = run_json(["bounds", "-A", "1/2", "1", "2", "--json"], schema)
    assert doc["matrix"] == {"a": "2", "b": "1", "d": "1/2"}
    assert doc["case"] == "d<=b"
    code, out, _ = run_cli(["bounds", "-A", "1/2", "1", "2"])
    assert "(entries swapped to a >= d)" in out


def test_bounds_requires_positive_diagonal():
    code, _, err = run_cli(["bounds", "-A", "0", "1", "0"])
    assert code == 1
    assert "requires a >= d > 0" in err


def test_dual_reports_both_charges(schema):
    doc = run_json(["dual", "-A", "1", "1/2", "1/2", "--json"], schema)
    # the dual is reported in its literal orientation (1/4) A^{-1}
    assert doc["dual"] == {"a": "1/2", "b": "-1/2", "d": "1"}
    assert doc["dual_in_range"] is True
    assert abs(doc["c"]["value"] - 0.75) < 1e-10
    assert abs(doc["c_dual"]["value"] - 1.25) < 1e-10
    assert abs(doc["c_sum"]["value"] - 2.0) < 1e-9


def test_dual_of_singular_matrix_exits_1():
    code, _, err = run_cli(["dual", "-A", "1", "1", "1"])
    assert code == 1
    assert "singular" in err


# ---------------------------------------------------------------------------
# recognize

def test_recognize_fraction_input(schema):
    doc = run_json(["recognize", "4/7", "--json"], schema)
    assert doc["matches"]["minimal"] == [2, 7]
    assert doc["matches"]["rational"] == "4/7"


def test_recognize_negative_fraction(schema):
    doc = run_json(["recognize", "-8/5", "--json"], schema)
    assert doc["value"]["value"] == -1.6
    assert doc["matches"]["rational"] == "-8/5"
    assert doc["matches"]["minimal"] is None


def test_recognize_near_miss_respects_tolerance(schema):
    off = "0.5714295714285714"  # 4/7 + 1e-6
    strict = run_json(["recognize", off, "--json"], schema)
    assert strict["matches"]["minimal"] is None
    assert strict["matches"]["residual"]["value"] == -1.0  # no match at all
    loose = run_json(["recognize", off, "--tol", "1e-5", "--max-den", "100", "--json"], schema)
    assert loose["matches"]["minimal"] == [2, 7]


def test_recognize_tolerance_from_environment(schema, monkeypatch):
    off = "0.5714295714285714"
    monkeypatch.setenv("DILOGTBA_TOL", "1e-5")
    doc = run_json(["recognize", off, "--max-den", "100", "--json"], schema)
    assert doc["matches"]["minimal"] == [2, 7]
    monkeypatch.delenv("DILOGTBA_TOL")
    doc = run_json(["recognize", off, "--max-den", "100", "--json"], schema)
    assert doc["matches"]["minimal"] is None


def test_recognize_bounds_default_to_the_library_defaults(schema, monkeypatch):
    # 4/7 = 1 - 6/14 needs max_st >= 14 and max_den >= 7
    monkeypatch.setattr(charges.recognize, "__defaults__", (1e-9, 6, 60, 6))
    doc = run_json(["recognize", "4/7", "--json"], schema)
    assert (doc["matches"]["minimal"], doc["matches"]["rational"]) == (None, None)
    doc = run_json(["recognize", "4/7", "--max-den", "7", "--json"], schema)
    assert (doc["matches"]["minimal"], doc["matches"]["rational"]) == (None, "4/7")


# ---------------------------------------------------------------------------
# search

def test_search_json_wraps_the_report(schema):
    args = ["search", "--max-den-entries", "1", "--max-num", "2", "--json"]
    doc = run_json(args, schema)
    assert doc["command"] == "search"
    assert doc["report"]["scanned"] > 0
    assert run_cli(args) == run_cli(args)


def test_search_named_config(schema):
    doc = run_json(["search", "--config", "symmetric", "--json"], schema)
    assert doc["report"]["admissible"]


def test_search_dedupe_flag(schema):
    base = ["search", "--max-den-entries", "2", "--max-num", "2", "--json"]
    plain = run_json(base, schema)
    deduped = run_json(base + ["--dedupe"], schema)
    assert len(deduped["report"]["admissible"]) <= len(plain["report"]["admissible"])


def test_search_rational_match_encoded_like_solve(schema):
    # both encoders write an integer rational as "1", not "1/1"
    solved = run_json(["solve", "-A", "1/2", "1/2", "0", "--json"], schema)
    doc = run_json(["search", "--max-den-entries", "2", "--max-num", "1", "--json"], schema)
    found = [c for c in doc["report"]["admissible"]
             if c["matrix"] == {"a": "1/2", "b": "1/2", "d": "0"}]
    assert len(found) == 1
    assert found[0]["matches"]["rational"] == solved["matches"]["rational"] == "1"


def test_search_text_has_summary_header():
    code, out, _ = run_cli(["search", "--max-den-entries", "1", "--max-num", "2",
                            "--no-header"])
    assert code == 0
    assert out.splitlines()[0].startswith("scanned ")


def test_search_flags_override_a_named_config(schema):
    # the symmetric preset alone scans 781 matrices and lists 91 nonunique
    doc = run_json(["search", "--config", "symmetric", "--max-num", "2",
                    "--keep-nonunique", "--json"], schema)
    assert doc["report"]["scanned"] == 69
    assert doc["report"]["nonunique"] == []


@pytest.mark.parametrize("value", ["1/0", "x"])
def test_search_malformed_fraction_flag_exits_2(value):
    code, out, err = run_cli(["search", "--entry-min", value])
    assert (code, out) == (2, "")
    assert "--entry-min" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--fix-d", "1", "--a-eq-d"],
                                  ["--config", "symmetric", "--fix-d", "0"]])
def test_search_with_fix_d_and_a_eq_d_exits_2(argv):
    # a_eq_d took d = a and dropped --fix-d without a word
    code, out, err = run_cli(["search", "--max-den-entries", "2", "--max-num", "2", *argv])
    assert (code, out) == (2, "")
    assert "fix_d" in err and "a_eq_d" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["den2", "symmetric", None])
def test_search_report_is_the_library_report(name, schema):
    cfg = SearchConfig() if name is None else EXAMPLE_CONFIGS[name]
    doc = run_json(["search", "--json"] + ([] if name is None else ["--config", name]), schema)
    assert doc["report"] == json.loads(report_json(run_search(cfg)))


# ---------------------------------------------------------------------------
# verify-identities

def test_verify_identities_all_pass(schema):
    doc = run_json(["verify-identities", "--json"], schema)
    assert doc["all_pass"] is True
    assert len(doc["entries"]) == 23
    assert all(row["pass"] for row in doc["entries"])
    code, out, _ = run_cli(["verify-identities", "--no-header"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert all("PASS" in line for line in lines[:23])
    assert lines[-1].startswith("all entries pass (23 entries")


def test_verify_identities_cross_check(schema):
    doc = run_json(["verify-identities", "--cross-check", "--json"], schema)
    with_cc = [row for row in doc["entries"] if row["cross_check"] is not None]
    assert len(with_cc) == 11
    for row in with_cc:
        assert row["cross_check"]["c_residual"]["value"] <= 1e-9


def test_verify_identities_custom_catalog(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(
        "identity golden\n  term 1 (3-sqrt(5))/2\n  target 2/5\n"
        "  source classical value\nend\n"
    )
    code, out, _ = run_cli(["verify-identities", "--catalog", str(good)])
    assert code == 0
    assert "all entries pass (1 entries" in out

    bad = tmp_path / "bad.txt"
    bad.write_text(
        "identity wrong\n  term 1 (3-sqrt(5))/2\n  target 1/2\n"
        "  source deliberate mismatch\nend\n"
    )
    code, out, _ = run_cli(["verify-identities", "--catalog", str(bad)])
    assert code == 1
    assert "FAILURES present" in out

    code, _, err = run_cli(["verify-identities", "--catalog", str(tmp_path / "nope.txt")])
    assert code == 2

    comments = tmp_path / "comments.txt"
    comments.write_text("# no record here\n\n# nor here\n")
    code, out, err = run_cli(["verify-identities", "--catalog", str(comments)])
    assert code == 2 and out == ""
    assert "no identity record" in err

    malformed = tmp_path / "malformed.txt"
    malformed.write_text("term 1 rho\n")
    code, _, err = run_cli(["verify-identities", "--catalog", str(malformed)])
    assert code == 1
    assert "outside any record" in err


def test_verify_identities_parses_the_packaged_catalog_once(tmp_path):
    from dilogtba import identities

    identities.load_catalog.cache_clear()
    with mock.patch.object(identities, "parse_catalog", wraps=identities.parse_catalog) as parse:
        for _ in range(2):
            assert run_cli(["verify-identities", "--no-header"])[0] == 0
    assert parse.call_count == 1
    assert isinstance(identities.load_catalog(), tuple)

    # a --catalog file is read again on every request
    path = tmp_path / "catalog.txt"
    for target, code in (("2/5", 0), ("1/2", 1)):
        path.write_text(f"identity golden\n  term 1 (3-sqrt(5))/2\n  target {target}\n"
                        "  source classical value\nend\n")
        assert run_cli(["verify-identities", "--catalog", str(path)])[0] == code


# ---------------------------------------------------------------------------
# expand and ceff-estimate

def test_expand_json(schema):
    doc = run_json(["expand", "chi_2_5", "--order", "3", "--json"], schema)
    assert doc["denominator"] == 60
    assert doc["coefficients"] == [["11/60", 1], ["131/60", 1]]


def test_expand_text_format():
    code, out, _ = run_cli(["expand", "chi_2_5", "--order", "3", "--no-header"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "form chi_2_5, order 3, exponent denominator 60"
    assert lines[1] == "11/60 1"


@pytest.mark.parametrize("order", ["5001", "100000"])
def test_expand_order_above_the_cap_exits_2(order):
    # an unbounded order ran out of memory instead of keeping the exit contract
    code, out, err = run_cli(["expand", "chi_5_6", "--order", order])
    assert code == 2
    assert out == ""
    assert "must be at most 5000" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--max-den-entries", "200", "--max-num", "200"],
                                   ["--max-den-entries", "20", "--max-num", "8"]])
def test_search_above_the_enumeration_cap_exits_2(flags):
    # unbounded flags built every matrix: a hang or a MemoryError traceback.
    # The cap answers at cold start (about 0.2 s); a child process with a
    # timeout makes a regression fail instead of hang.
    proc = subprocess.run([sys.executable, "-m", "dilogtba.cli", "search", *flags],
                          capture_output=True, text=True, env=child_env(), timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "above" in proc.stderr and "Traceback" not in proc.stderr


def test_expand_order_at_the_cap_runs():
    code, out, _ = run_cli(["expand", "chi_2_5", "--order", "5000", "--no-header"])
    assert code == 0
    assert out.splitlines()[-1].startswith("299951/60 ")


def test_ceff_estimate_json(schema):
    doc = run_json(["ceff-estimate", "chi_2_5", "--json"], schema)
    assert doc["expected"] == "2/5"
    assert abs(doc["estimate"]["value"] - 0.4) < 0.02
    assert doc["deviation"]["value"] < 0.02


def test_ceff_custom_eps(schema):
    doc = run_json(["ceff-estimate", "chi_2_5", "--eps", "0.25,0.15,0.08", "--json"], schema)
    assert doc["eps"] == [0.25, 0.15, 0.08]


# ---------------------------------------------------------------------------
# fuzzing the exit contract

# each subcommand's own flags; every subcommand also takes --json,
# --no-header and --tol
_FUZZ_COMMAND_FLAGS = {
    "solve": ["-A", "--scale", "--grid-n", "--no-range-check"],
    "classify": ["-A", "--scale"],
    "bounds": ["-A", "--scale"],
    "dual": ["-A", "--scale", "--no-range-check"],
    "recognize": ["--max-st", "--max-n", "--max-den"],
    "search": ["--config", "--max-den-entries", "--max-num", "--entry-min", "--entry-max",
               "--fix-d", "--a-eq-d", "--keep-nonunique", "--grid-n", "--dedupe"],
    "verify-identities": ["--precision", "--catalog", "--cross-check"],
    "expand": ["--order"],
    "ceff-estimate": ["--eps"],
}
_FUZZ_COMMON_FLAGS = ["--json", "--no-header", "--tol"]
_FUZZ_SWITCHES = {"--json", "--no-header", "--no-range-check", "--a-eq-d",
                  "--keep-nonunique", "--dedupe", "--cross-check"}
_FUZZ_FLAGS = sorted({f for flags in _FUZZ_COMMAND_FLAGS.values() for f in flags}
                     | {*_FUZZ_COMMON_FLAGS, "--version", "--help"})
_FUZZ_ENTRIES = ["0", "1", "2", "4", "-1", "1/2", "-1/2", "3/4", "-3/2", "1/20",
                 "19/20", "1/0", "1e400", "inf"]
_FUZZ_VALUES = _FUZZ_ENTRIES + [
    "0.5", "-0.25", "1e-9", "1e-5", "1e-40", "nan", "-inf", "1001", "20001",
    "0.2,0.12,0.07", "0.5,0.2,0.1", "chi_2_5", "chi_3_7",
]
_FUZZ_JUNK = ["", "x", "-", "--", "q/3", "1//2", "--bogus"]


def _command_line(command, positional, entries, options):
    argv = [command, *positional]
    if entries:
        argv += ["-A", *entries]
    for flag, value in options:
        argv += [flag] if flag in _FUZZ_SWITCHES else [flag, value]
    return argv


def _fuzz_command_line(command):
    flags = _FUZZ_COMMAND_FLAGS[command]
    positional = {"recognize": _FUZZ_VALUES,
                  "expand": ["chi_2_5", "chi_3_7", "x"],
                  "ceff-estimate": ["chi_2_5", "chi_3_7", "x"]}.get(command)
    return st.builds(
        _command_line,
        st.just(command),
        st.lists(st.sampled_from(positional), min_size=1, max_size=1) if positional
        else st.just([]),
        st.lists(st.sampled_from(_FUZZ_ENTRIES), min_size=1, max_size=3) if "-A" in flags
        else st.just([]),
        st.lists(st.tuples(st.sampled_from(flags + _FUZZ_COMMON_FLAGS),
                           st.sampled_from(_FUZZ_VALUES)), max_size=3),
    )


_fuzz_token = (st.sampled_from([*_FUZZ_COMMAND_FLAGS, *_FUZZ_FLAGS, *_FUZZ_VALUES, *_FUZZ_JUNK])
               | st.text(max_size=6))
# free token lists, and command lines built from one subcommand's flags
_fuzz_argv = (st.lists(_fuzz_token, max_size=8)
              | st.sampled_from(sorted(_FUZZ_COMMAND_FLAGS)).flatmap(_fuzz_command_line))

# a search or expand the fuzzer can reach runs in milliseconds: these
# flags are appended last, so they win over any drawn value
_FUZZ_CAPS = {
    "search": ["--max-num", "2", "--max-den-entries", "2"],
    "expand": ["--order", "30"],
}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    argv=_fuzz_argv,
    env_tol=st.none() | st.sampled_from(["1e-9", "1e-5", "1e-12", "abc", "0", "nan", ""]),
)
def test_fuzzed_argv_keeps_the_exit_contract(argv, env_tol):
    for command, caps in _FUZZ_CAPS.items():
        if command in argv:
            argv = argv + caps
    env = {} if env_tol is None else {"DILOGTBA_TOL": env_tol}
    with mock.patch.dict(os.environ, env):
        if env_tol is None:
            os.environ.pop("DILOGTBA_TOL", None)
        code, _, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, env_tol, code)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# console script

def child_env(bin_dir=None):
    """Environment for a subprocess that imports the dilogtba under test.

    The source root of the imported package goes first on PYTHONPATH, and
    ``bin_dir``, if given, first on PATH.
    """
    env = dict(os.environ)
    src_root = str(Path(dilogtba.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p)
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(
            p for p in (str(bin_dir), env.get("PATH")) if p)
    return env


def write_console_script(bin_dir, name):
    """Write the launcher an installer makes for ``[project.scripts]`` ``name``."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts[name].partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)


# ---------------------------------------------------------------------------
# cold start: what a fresh interpreter loads

# Imports dilogtba.cli, runs the request in argv (if any) and prints the
# dilogtba modules loaded after the import and whether numpy and mpmath
# were loaded after the import and after the request.
_IMPORT_PROBE = """
import contextlib, io, json, sys
def loaded():
    return {"numpy": "numpy" in sys.modules, "mpmath": "mpmath" in sys.modules}
import dilogtba.cli
state = {"modules": sorted(m for m in sys.modules if m.split(".")[0] == "dilogtba"),
         "import": loaded()}
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        state["code"] = dilogtba.cli.parse_and_dispatch(sys.argv[1:])
    state["request"] = loaded()
print(json.dumps(state))
"""


def _probe_imports(argv):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_every_module_but_neither_numpy_nor_mpmath():
    state = _probe_imports([])
    src = Path(dilogtba.__file__).parent
    want = sorted(["dilogtba"] + [f"dilogtba.{p.stem}" for p in src.glob("*.py")
                                  if p.stem != "__init__"])
    assert len(want) == 11
    # every submodule stays loaded: a tracer that patches functions in
    # every loaded dilogtba namespace relies on it
    assert state["modules"] == want
    assert state["import"] == {"numpy": False, "mpmath": False}


@pytest.mark.parametrize("argv, numpy, mpmath", [
    (["--version"], False, False),
    (["recognize", "0.5714285714"], False, False),
    (["expand", "chi_2_5"], False, False),
    (["ceff-estimate", "chi_2_5"], False, False),
    (["bounds", "-A", "2", "1", "1"], False, False),
    (["classify", "-A", "2", "1", "1"], False, False),
    (["verify-identities", "--precision", "1e-12"], False, False),
    # a positive definite solve is Newton's; a D < 0 one scans with numpy
    (["solve", "-A", "2", "1", "1"], False, False),
    (["solve", "-A", "1/20", "19/20", "1/20"], True, False),
    (["search", "--max-num", "2", "--max-den-entries", "1"], True, False),
    (["verify-identities", "--precision", "1e-30"], False, True),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_a_request_imports_only_what_it_needs(argv, numpy, mpmath):
    state = _probe_imports(argv)
    assert state["code"] == 0
    assert state["import"] == {"numpy": False, "mpmath": False}
    assert state["request"] == {"numpy": numpy, "mpmath": mpmath}


# Runs the request in argv and prints the process's peak resident set in
# MB (ru_maxrss counts KB on Linux and bytes on macOS).
_PEAK_RSS = """
import contextlib, io, resource, sys
import dilogtba.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert dilogtba.cli.parse_and_dispatch(sys.argv[1:]) == 0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10))
"""


def test_a_search_at_the_grid_cap_peaks_near_a_lone_solve():
    # the scan's arrays are bounded per chunk of rows, so a search block
    # of 32 rows peaks within 10 MB of one row (119 MB against 39 MB
    # when a block was coarse-scanned as one array)
    pytest.importorskip("resource")

    def peak_mb(*argv):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return float(proc.stdout)

    solve = peak_mb("solve", "-A", "1/4", "7", "0", "--grid-n", "10000000")
    found = peak_mb("search", "--max-den-entries", "2", "--max-num", "2",
                    "--grid-n", "10000000")
    assert found - solve < 10.0, (found, solve)


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "dilogtba.cli", "--version"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "dilogtba 0.1.0"


def test_console_script_end_to_end(tmp_path, schema):
    bin_dir = tmp_path / "bin"
    write_console_script(bin_dir, "dilogtba")
    proc = subprocess.run(
        ["dilogtba", "solve", "-A", "2", "1/2", "1/2", "--json"],
        capture_output=True, text=True, env=child_env(bin_dir),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, schema)
    assert abs(doc["c"]["value"] - 0.7) < 1e-10

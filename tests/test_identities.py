"""Tests for the two-term dilogarithm identity catalog.

Covers the expression grammar (tokens, precedence, sqrt, powers,
constants), catalog parsing and byte-identical serialization, residual
verification in binary64 and mpmath arithmetic, and the cross-check of
matrix-carrying entries against the solved fixed-point coordinates.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import mpmath
import pytest

from dilogtba import identities
from dilogtba.algebraics import CONSTANTS, AlgebraicNumber
from dilogtba.errors import CatalogError, DomainError
from dilogtba.identities import (
    IdentityEntry,
    cross_check_tba,
    evaluate_expression,
    load_catalog,
    parse_catalog,
    parse_expression,
    serialize_catalog,
    verify,
)
from dilogtba.tba import RationalSymmetricMatrix


# ---------------------------------------------------------------------------
# expression grammar

def test_parse_number_division():
    assert parse_expression("1/2") == ("/", ("num", Fraction(1)), ("num", Fraction(2)))


def test_parse_precedence_and_sqrt():
    # (3 - sqrt(5)) / 4: subtraction grouped by parentheses, then division.
    node = parse_expression("(3-sqrt(5))/4")
    assert node == (
        "/",
        ("-", ("num", Fraction(3)), ("sqrt", ("num", Fraction(5)))),
        ("num", Fraction(4)),
    )


def test_parse_power_binds_to_atom():
    assert parse_expression("rho^2") == ("^", ("const", "rho"), 2)
    # 1 - rho^2 must parse as 1 - (rho^2).
    node = parse_expression("1-rho^2")
    assert node == ("-", ("num", Fraction(1)), ("^", ("const", "rho"), 2))


def test_parse_unary_minus():
    node = parse_expression("-1/2")
    assert node == ("/", ("neg", ("num", Fraction(1))), ("num", Fraction(2)))
    assert evaluate_expression(node) == pytest.approx(-0.5, abs=0)


def test_parse_nested_sqrt():
    node = parse_expression("sqrt(1-1/sqrt(2))")
    val = evaluate_expression(node)
    assert abs(val - (1 - 2 ** -0.5) ** 0.5) < 1e-15


def test_parse_whitespace_insensitive():
    assert parse_expression(" 1 + rho ") == parse_expression("1+rho")


@pytest.mark.parametrize("bad", [
    "sqrt(2",        # unclosed parenthesis
    "1+",            # dangling operator
    "rho^t",         # non-integer exponent
    "rho^-1",        # negative exponent
    "1)",            # trailing tokens
    "2 3",           # two atoms with no operator
    "",              # empty
    "$",             # bad character
    "sqrt 2",        # sqrt requires parentheses
    "()",            # empty group
])
def test_parse_malformed_expressions(bad):
    with pytest.raises(CatalogError):
        parse_expression(bad)


def test_evaluate_unknown_constant():
    with pytest.raises(CatalogError):
        evaluate_expression(parse_expression("no_such_constant"))


def test_evaluate_sqrt_of_negative():
    for mode in ("float", "mp"):
        with pytest.raises(DomainError):
            evaluate_expression(parse_expression("sqrt(1-2)"), mode)


def test_evaluate_bad_mode():
    with pytest.raises(ValueError):
        evaluate_expression(parse_expression("1"), mode="decimal")


@pytest.mark.parametrize("dps", [0, -3, 2.5, True, "30", None])
def test_evaluate_mp_rejects_a_dps_that_is_not_a_positive_int(dps):
    with pytest.raises(DomainError):
        evaluate_expression(parse_expression("(sqrt(5)-1)/2"), "mp", dps=dps)


def test_evaluate_float_vs_mp_simple():
    node = parse_expression("(sqrt(5)-1)/2")
    f = evaluate_expression(node, "float")
    m = evaluate_expression(node, "mp", dps=40)
    assert abs(f - float(m)) < 1e-15


# ---------------------------------------------------------------------------
# catalog parsing and serialization

_SMALL_CATALOG = """\
# comment lines and blanks are ignored
identity golden_single
  term 1 (3-sqrt(5))/2
  target 2/5
  source classical special value
end

identity with_matrix
  term 1 1/2
  term 1 1/2
  target 1
  matrix 1/2 1/2 1/2
  source pair check
end
"""


def test_parse_small_catalog_fields():
    entries = parse_catalog(_SMALL_CATALOG)
    assert len(entries) == 2
    first, second = entries
    assert first.name == "golden_single"
    assert first.terms == ((Fraction(1), "(3-sqrt(5))/2"),)
    assert first.target == Fraction(2, 5)
    assert first.matrix is None
    assert first.source == "classical special value"
    assert second.matrix == RationalSymmetricMatrix(
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
    )


def test_serialize_parse_round_trip_synthetic():
    entries = parse_catalog(_SMALL_CATALOG)
    text = serialize_catalog(entries)
    assert parse_catalog(text) == entries
    # Serialization of a parse of canonical text is a fixed point.
    assert serialize_catalog(parse_catalog(text)) == text


@pytest.mark.parametrize("bad,fragment", [
    ("term 1 rho\n", "outside any record"),
    ("identity a\nterm 1 rho\ntarget 1\nsource x\nend\nidentity a\nterm 1 rho\n"
     "target 1\nsource x\nend\n", "duplicate"),
    ("identity a\nterm 1 rho\ntarget 1\nsource x\n", "no closing end"),
    ("identity a\nterm 1 rho\nsource x\nend\n", "missing terms, target, or source"),
    ("identity a\nterm q rho\ntarget 1\nsource x\nend\n", "bad coefficient"),
    ("identity a\nterm 1 rho\ntarget 1\nmatrix 1 2\nsource x\nend\n",
     "exactly three entries"),
    ("identity a\nfoo bar\ntarget 1\nsource x\nend\n", "unrecognized field"),
    ("identity a\nidentity b\n", "not closed"),
    ("identity a\nterm 1 rho(\ntarget 1\nsource x\nend\n", "trailing tokens"),
])
def test_parse_malformed_catalogs(bad, fragment):
    with pytest.raises(CatalogError) as exc:
        parse_catalog(bad)
    assert fragment in str(exc.value)


def test_entry_parses_its_expressions_when_made():
    with pytest.raises(CatalogError, match="trailing tokens"):
        IdentityEntry(
            name="synthetic_malformed",
            terms=((Fraction(1), "rho("),),
            target=Fraction(1),
            matrix=None,
            source="synthetic check",
        )


# ---------------------------------------------------------------------------
# the shipped catalog

def test_catalog_loads_23_entries_with_unique_names():
    entries = load_catalog()
    assert len(entries) == 23
    assert len({e.name for e in entries}) == 23


def test_catalog_round_trips_byte_identically():
    from importlib import resources

    shipped = resources.files("dilogtba").joinpath("data/identities.txt").read_text("utf-8")
    assert serialize_catalog(parse_catalog(shipped)) == shipped


def test_catalog_arguments_lie_in_unit_interval():
    for entry in load_catalog():
        for arg in entry.arguments("float"):
            assert 0.0 <= arg <= 1.0, f"{entry.name}: argument {arg} outside [0,1]"


def test_catalog_float_vs_mp_argument_agreement():
    for entry in load_catalog():
        floats = entry.arguments("float")
        mps = entry.arguments("mp", dps=50)
        for f, m in zip(floats, mps):
            assert abs(f - float(m)) < 1e-14, entry.name


# ---------------------------------------------------------------------------
# verification

def test_all_catalog_entries_verify_in_binary64():
    for entry in load_catalog():
        residual = verify(entry)
        assert isinstance(residual, float)
        assert residual <= 1e-12, f"{entry.name}: residual {residual}"


def test_all_catalog_entries_verify_at_high_precision():
    # precision below 1e-13 switches to mpmath; at 1e-20 the working
    # precision is 35 digits and every entry's residual collapses to
    # rounding noise far below the binary64 floor.
    for entry in load_catalog():
        residual = verify(entry, precision=1e-20)
        assert residual <= 1e-30, f"{entry.name}: mp residual {residual}"


def test_all_catalog_entries_verify_at_sixty_digits():
    # 75 working digits: every residual is rounding noise far below the
    # requested 1e-60.
    for entry in load_catalog():
        residual = verify(entry, precision=1e-60)
        assert residual <= 1e-60, f"{entry.name}: mp residual {residual}"


def test_verify_precision_switch_boundary():
    entry = load_catalog()[0]
    # 1e-13 stays in binary64; one decade smaller uses mpmath and the
    # residual drops well below what binary64 can resolve.
    assert verify(entry, precision=1e-13) <= 1e-12
    assert verify(entry, precision=1e-14) <= 1e-20


def test_verify_rejects_nonpositive_precision():
    entry = load_catalog()[0]
    with pytest.raises(ValueError):
        verify(entry, precision=0.0)
    with pytest.raises(ValueError):
        verify(entry, precision=-1e-9)


def test_verify_rejects_nan_precision():
    with pytest.raises(ValueError, match="precision must be positive"):
        verify(load_catalog()[0], precision=float("nan"))


def test_verify_rejects_argument_outside_unit_interval():
    bad = IdentityEntry(
        name="synthetic_out_of_range",
        terms=((Fraction(1), "2"),),
        target=Fraction(1),
        matrix=None,
        source="synthetic check",
    )
    with pytest.raises(DomainError):
        verify(bad)
    with pytest.raises(DomainError):
        verify(bad, precision=1e-20)


# ---------------------------------------------------------------------------
# values kept on the entry between verify calls

def _fresh_catalog():
    """The shipped catalog parsed anew: entries that keep nothing yet."""
    return parse_catalog(serialize_catalog(load_catalog()))


def _counting(fn_name="rogers_L_mp"):
    return mock.patch.object(identities, fn_name, wraps=getattr(identities, fn_name))


def test_kept_values_give_the_cold_residuals():
    warm = load_catalog()
    for entry in warm:
        verify(entry, precision=1e-100)
    for precision in (1e-14, 1e-20, 1e-30, 1e-45, 1e-60, 1e-100):
        cold = [verify(entry, precision) for entry in _fresh_catalog()]
        assert cold == [verify(entry, precision) for entry in warm], precision


def test_coarser_verify_reuses_kept_values_and_finer_recomputes_once():
    entries = _fresh_catalog()
    n_terms = sum(len(entry.terms) for entry in entries)
    for entry in entries:
        verify(entry, precision=1e-60)
    to_mpf = mock.patch.object(AlgebraicNumber, "to_mpf", autospec=True,
                               side_effect=AlgebraicNumber.to_mpf)
    with _counting() as L, to_mpf as conv:
        for precision in (1e-60, 1e-45, 1e-30, 1e-14):
            for entry in entries:
                verify(entry, precision)
        assert (L.call_count, conv.call_count) == (0, 0)
        for _ in range(2):
            for entry in entries:
                verify(entry, precision=1e-80)
        assert L.call_count == n_terms


# ---------------------------------------------------------------------------
# cross-checks against the fixed-point solver

def test_eleven_entries_carry_matrices():
    entries = [e for e in load_catalog() if e.matrix is not None]
    assert len(entries) == 11


def test_matrix_entries_cross_check():
    for entry in load_catalog():
        if entry.matrix is None:
            continue
        result = cross_check_tba(entry)
        assert result.c_residual <= 1e-9, entry.name
        assert result.coordinate_distance <= 1e-9, entry.name
        assert result.total == result.c_residual + result.coordinate_distance


def test_cross_check_explicit_matrix_matches_default():
    entry = next(e for e in load_catalog() if e.matrix is not None)
    default = cross_check_tba(entry)
    explicit = cross_check_tba(entry, A=entry.matrix)
    assert default == explicit


def test_cross_check_requires_a_matrix():
    entry = next(e for e in load_catalog() if e.matrix is None)
    with pytest.raises(CatalogError):
        cross_check_tba(entry)


def test_cross_check_is_kept_on_the_entry():
    warm = [e for e in load_catalog() if e.matrix is not None]
    for entry in warm:
        cross_check_tba(entry)
    cold = [cross_check_tba(e) for e in _fresh_catalog() if e.matrix is not None]
    with _counting("solve_r2") as solve:
        assert [cross_check_tba(entry) for entry in warm] == cold
        assert solve.call_count == 0
        assert cross_check_tba(warm[0], A=warm[0].matrix) == cold[0]
        assert solve.call_count == 1


# ---------------------------------------------------------------------------
# explicit precision: no mpmath global state

def _residuals(precisions):
    """verify of a freshly parsed catalog at each precision, finest last."""
    entries = _fresh_catalog()
    return [verify(entry, p) for p in precisions for entry in entries]


def test_threads_verify_as_a_serial_run():
    # eight threads, each verifying its own catalog from 1e-14 to 1e-80;
    # a precision set process-wide by one thread would leak into the
    # arithmetic of another
    precisions = [10.0 ** -k for k in range(14, 81, 6)]
    serial = _residuals(precisions)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            runs = list(pool.map(_residuals, [precisions] * 8))
    finally:
        sys.setswitchinterval(interval)
    assert all(run == serial for run in runs)


def test_results_ignore_mpmaths_global_precision():
    def results():
        return _residuals([1e-60]), [c.to_mpf(75)._mpf_ for c in CONSTANTS.values()]

    want = results()
    dps = mpmath.mp.dps
    mpmath.mp.dps = 5
    try:
        got = results()
    finally:
        mpmath.mp.dps = dps
    assert got == want

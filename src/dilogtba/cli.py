"""Command-line frontend for the dilogarithm / TBA toolkit.

Subcommands: solve, classify, bounds, dual, recognize, search,
verify-identities, expand, ceff-estimate.  Matrices are entered as
exact fractions via -A (one entry for the rank-1 system, "inf"
allowed; three entries a b d for rank 2); --scale p/q multiplies all
entries, so "1/2 scaled (8 5; 5 4)" is `-A 8 5 4 --scale 1/2`.

search applies --tol and each search flag given over the --config
preset (or the SearchConfig defaults); a flag left out keeps its value.
The CLI restates no library default: a flag left out is absent from
args, so the library's default applies, and a document stating a
default reads it from the module that owns it.  solve --grid-n takes
the integers that tba's one grid check takes; a search always scans on
search.SEARCH_GRID_N.

Text reports go to standard output (first line is a version header,
suppressed by --no-header); diagnostics go to standard error.  --json
switches to a JSON document that validates against the shipped schema
(data/cli_output.schema.json): exact rationals appear as strings
"p/q", every inexact number as an object {"value": v, "tol": t}.

Exit codes: 0 success, 1 computation failure (range violation, no
solution found, failed identity, non-terminating series, float
overflow), 2 input error (unknown subcommand, malformed fraction,
missing flag, an option value outside its documented range).

The environment variable DILOGTBA_TOL sets the default recognition
tolerance (flag --tol overrides; built-in default charges.DEFAULT_TOL,
recognize's own).  Both must be positive finite numbers; a bad value
is an input error.  The argument parser is built once per process for
each DILOGTBA_TOL value and reused by every later parse_and_dispatch
call, so a changed variable still takes effect on the next call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .analysis import bounds_on_c, classify_vs_one, dual
from .charges import DEFAULT_TOL, MAX_SPECTRUM_BOUND, ChargeMatch, recognize
from .errors import (
    CatalogError,
    DomainError,
    NonTerminatingSeries,
    RangeViolation,
    ScanFailure,
    SingularMatrixError,
    TailBoundError,
)
from .identities import (DEFAULT_PRECISION, MP_BELOW, cross_check_tba, load_catalog,
                         parse_catalog, verify)
from .qseries import DEFAULT_EPS, FORMS, FORM_SYSTEMS, _ceff_samples, estimate_ceff, expand
from .search import (
    EXAMPLE_CONFIGS,
    SearchConfig,
    _json_text,
    _matches_json,
    _matrix_json,
    _measured,
    _report_doc,
    dedupe_by_duality,
    report_text,
    run_search,
)
from .tba import (DEFAULT_GRID_N, GRID_N_MAX, GRID_N_MIN, INFINITY, RationalSymmetricMatrix,
                  _checked_grid_n, check_range, solve_r1, solve_r2)

__all__ = ["parse_and_dispatch", "main"]

_COMPUTE_ERRORS = (
    DomainError,
    RangeViolation,
    SingularMatrixError,
    ScanFailure,
    NonTerminatingSeries,
    TailBoundError,
    CatalogError,
    # rational input whose computation leaves the binary64 range, e.g.
    # an entry of 1e400 or a b so small that exp(1/(2b)) overflows
    OverflowError,
)


class _InputError(Exception):
    """Malformed user input detected after argparse."""


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"malformed fraction for {what}: {text!r} ({exc})") from None


def _fraction(text: str) -> Fraction:
    """argparse type for an exact fraction p/q (argparse names the flag)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"malformed fraction {text!r} ({exc})") from None


def _positive_float(source: str = ""):
    """argparse type for tolerances: a positive finite float."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be a positive finite number{source}, got {text!r}")
        return value
    return parse


def _int_at_least(lowest: int, highest: int | None = None):
    """argparse type for an integer no smaller than lowest (and, when
    highest is given, no larger than highest)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        if highest is not None and value > highest:
            raise argparse.ArgumentTypeError(f"must be at most {highest}, got {value}")
        return value
    return parse


def _grid_n(text: str) -> int:
    """argparse type for --grid-n: an integer that tba's grid check takes."""
    try:
        return _checked_grid_n(int(text))
    except ValueError as exc:  # int's, or the check's DomainError
        raise argparse.ArgumentTypeError(f"invalid grid {text!r} ({exc})") from None


def _given(args, *names: str) -> dict:
    """The flags among names that were given (one left out is absent
    from args), for a library call whose defaults apply to the rest."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _matches_text(m: ChargeMatch) -> str:
    kinds = m.ranked()
    if not kinds:
        return "matches: none"
    return "matches: " + "; ".join(f"{k} {desc}" for k, desc in kinds)


def _read_matrix(args) -> tuple[str, object]:
    """('r1', Fraction | INFINITY) or ('r2', RationalSymmetricMatrix)."""
    entries, scale = args.A, args.scale
    if scale <= 0:
        raise _InputError(f"--scale must be positive, got {scale}")
    if len(entries) == 1:
        raw = entries[0]
        if raw.lower() in ("inf", "infinity"):
            return "r1", INFINITY
        return "r1", _parse_fraction(raw, "entry a") * scale
    if len(entries) == 3:
        a, b, d = (_parse_fraction(t, f"entry {n}") for t, n in zip(entries, "abd"))
        return "r2", RationalSymmetricMatrix(a, b, d).scaled(scale)
    raise _InputError(f"-A takes one entry (rank 1) or three entries a b d (rank 2), got {len(entries)}")


def _emit(args, text_lines: list[str], json_doc: dict) -> None:
    if args.json:
        sys.stdout.write(_json_text(json_doc))
        return
    out = []
    if not args.no_header:
        out.append(f"dilogtba {__version__}")
    out.extend(text_lines)
    sys.stdout.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_solve(args) -> int:
    kind, data = _read_matrix(args)
    tol = args.tol
    if kind == "r1":
        # kappa solves a rank-1 system in closed form, with no grid and
        # for every a >= 0, so neither flag has anything to act on
        for flag, given in (("--grid-n", hasattr(args, "grid_n")),
                            ("--no-range-check", args.no_range_check)):
            if given:
                raise _InputError(f"{flag} applies to rank-2 matrices only (-A a b d)")
        sol = solve_r1(data)
        m = recognize(sol.c, tol=tol)
        a_repr = "inf" if data == INFINITY else str(data)
        lines = [
            f"rank-1 system, a = {a_repr}",
            f"x = {sol.x:.15f}",
            f"c = {sol.c:.15f}",
            _matches_text(m),
        ]
        doc = {
            "command": "solve",
            "rank": 1,
            "a": a_repr,
            "x": _measured(sol.x, 1e-14),
            "c": _measured(sol.c, 1e-13),
            "matches": _matches_json(m, tol),
        }
        _emit(args, lines, doc)
        return 0
    A = data
    sol = solve_r2(A, enforce_range=not args.no_range_check, **_given(args, "grid_n"))
    m = recognize(sol.c, tol=tol)
    c_tol = max(sol.residual, 1e-15)
    lines = [
        f"matrix {A}",
        f"x = {sol.x:.15f}  y = {sol.y:.15f}",
        f"c = {sol.c:.15f}  residual {sol.residual:.3e}  multiplicity {sol.multiplicity}",
        _matches_text(m),
    ]
    if sol.boundary_flag:
        lines.append(f"note: boundary solution present ({'d' if A.d == 0 else 'a'} = 0, 0 < b < 1/2)")
    if sol.principal_is_boundary:
        lines.append("note: only boundary solutions exist; reported c uses the boundary pair")
    doc = {
        "command": "solve",
        "rank": 2,
        "matrix": _matrix_json(A),
        "in_range": check_range(A),
        "x": _measured(sol.x, 1e-12),
        "y": _measured(sol.y, 1e-12),
        "c": _measured(sol.c, c_tol),
        "residual": _measured(sol.residual, 1e-15),
        "multiplicity": sol.multiplicity,
        "boundary_flag": sol.boundary_flag,
        "principal_is_boundary": sol.principal_is_boundary,
        "matches": _matches_json(m, tol),
    }
    _emit(args, lines, doc)
    return 0


def _cmd_classify(args) -> int:
    kind, A = _read_matrix(args)
    if kind != "r2":
        raise _InputError("classify needs a rank-2 matrix: -A a b d")
    res = classify_vs_one(A)
    lines = [f"matrix {A}", f"c vs 1: {res.relation}", f"reason: {res.reason}"]
    doc = {
        "command": "classify",
        "matrix": _matrix_json(A),
        "relation": res.relation,
        "reason": res.reason,
    }
    _emit(args, lines, doc)
    return 0


def _cmd_bounds(args) -> int:
    kind, A = _read_matrix(args)
    if kind != "r2":
        raise _InputError("bounds needs a rank-2 matrix: -A a b d")
    A, swapped = A.canonical()
    res = bounds_on_c(A)
    lines = [
        f"matrix {A}" + ("  (entries swapped to a >= d)" if swapped else ""),
        f"bounds: {res.lower:.12f} <= c <= {res.upper:.12f}",
        f"case: {res.case_tag}",
    ]
    doc = {
        "command": "bounds",
        "matrix": _matrix_json(A),
        "lower": _measured(res.lower, 1e-12),
        "upper": _measured(res.upper, 1e-12),
        "case": res.case_tag,
    }
    _emit(args, lines, doc)
    return 0


def _cmd_dual(args) -> int:
    kind, A = _read_matrix(args)
    if kind != "r2":
        raise _InputError("dual needs a rank-2 matrix: -A a b d")
    B = dual(A)
    in_range = check_range(B.canonical()[0])
    c_a = solve_r2(A, enforce_range=not args.no_range_check).c
    c_b = solve_r2(B.canonical()[0], enforce_range=False).c
    lines = [
        f"matrix {A}",
        f"dual   {B}",
        f"dual in range: {'yes' if in_range else 'no'}",
        f"c = {c_a:.15f}",
        f"c[dual] = {c_b:.15f}",
        f"c + c[dual] = {c_a + c_b:.15f}",
    ]
    doc = {
        "command": "dual",
        "matrix": _matrix_json(A),
        "dual": _matrix_json(B),
        "dual_in_range": in_range,
        "c": _measured(c_a, 1e-12),
        "c_dual": _measured(c_b, 1e-12),
        "c_sum": _measured(c_a + c_b, 1e-11),
    }
    _emit(args, lines, doc)
    return 0


def _cmd_recognize(args) -> int:
    raw = args.value
    try:
        value = float(Fraction(raw)) if "/" in raw else float(raw)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _InputError(f"malformed value {raw!r} ({exc})") from None
    if not math.isfinite(value):
        raise _InputError(f"value must be a finite number, got {raw!r}")
    m = recognize(value, tol=args.tol, **_given(args, "max_st", "max_n", "max_den"))
    lines = [f"value {value!r}", _matches_text(m)]
    doc = {
        "command": "recognize",
        "value": _measured(value, args.tol),
        "matches": _matches_json(m, args.tol),
    }
    _emit(args, lines, doc)
    return 0


def _cmd_search(args) -> int:
    base = EXAMPLE_CONFIGS[args.config] if args.config is not None else SearchConfig()
    flags = _given(args, *(f.name for f in dataclasses.fields(SearchConfig)))
    try:
        cfg = dataclasses.replace(base, tolerance=args.tol, **flags)
    except ValueError as exc:  # SearchConfig's own checks, e.g. the tolerance floor
        raise _InputError(f"search: {exc}") from None
    rep = run_search(cfg)
    if args.dedupe:
        rep.admissible = dedupe_by_duality(rep.admissible)
    doc = {"command": "search", "report": _report_doc(rep)}
    _emit(args, [report_text(rep).removesuffix("\n")], doc)
    return 0


def _cmd_verify_identities(args) -> int:
    if args.catalog is not None:
        try:
            with open(args.catalog, encoding="ascii") as fh:
                entries = parse_catalog(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise _InputError(f"cannot read catalog {args.catalog!r}: {exc}") from None
        if not entries:
            raise _InputError(f"catalog {args.catalog!r} holds no identity record")
    else:
        entries = load_catalog()
    precision = getattr(args, "precision", DEFAULT_PRECISION)
    lines = []
    rows = []
    all_pass = True
    for entry in entries:
        residual = verify(entry, precision=precision)
        ok = residual <= precision
        all_pass = all_pass and ok
        cross = None
        if args.cross_check and entry.matrix is not None:
            cc = cross_check_tba(entry)
            cross = {
                "c_residual": _measured(cc.c_residual, 1e-12),
                "coordinate_distance": _measured(cc.coordinate_distance, 1e-10),
            }
        tag = "PASS" if ok else "FAIL"
        extra = ""
        if cross is not None:
            extra = (f"  cross-check c {cc.c_residual:.2e}"
                     f" coords {cc.coordinate_distance:.2e}")
        lines.append(f"{entry.name:<24} target {entry.target!s:<6} residual {residual:.3e}  {tag}{extra}")
        rows.append({
            "name": entry.name,
            "target": str(entry.target),
            "residual": _measured(residual, precision),
            "pass": ok,
            "cross_check": cross,
        })
    lines.append(f"{'all entries pass' if all_pass else 'FAILURES present'} "
                 f"({len(entries)} entries, precision {precision:g})")
    doc = {
        "command": "verify-identities",
        "precision": precision,
        "entries": rows,
        "all_pass": all_pass,
    }
    _emit(args, lines, doc)
    return 0 if all_pass else 1


def _cmd_expand(args) -> int:
    form = FORMS[args.form]
    series = expand(form, args.order)
    text = series.to_text()
    lines = [
        f"form {args.form}, order {args.order}, exponent denominator {series.denom}",
        text.rstrip("\n"),
    ]
    doc = {
        "command": "expand",
        "form": args.form,
        "order": args.order,
        "denominator": series.denom,
        "coefficients": [
            [str(Fraction(k, series.denom)), coeff]
            for k, coeff in sorted(series.coeffs.items())
        ],
    }
    _emit(args, lines, doc)
    return 0


def _cmd_ceff(args) -> int:
    form = FORMS[args.form]
    eps = DEFAULT_EPS
    if hasattr(args, "eps"):
        try:
            eps = tuple(float(t) for t in args.eps.split(","))
            _ceff_samples(eps)
        except DomainError as exc:
            raise _InputError(f"--eps {args.eps!r}: {exc}") from None
        except ValueError as exc:
            raise _InputError(f"malformed --eps list {args.eps!r} ({exc})") from None
    est = estimate_ceff(form, eps_list=eps)
    expected = FORM_SYSTEMS.get(args.form, (None, None))[1]
    lines = [f"form {args.form}", f"ceff estimate = {est:.6f}"]
    doc = {
        "command": "ceff-estimate",
        "form": args.form,
        "eps": list(eps),
        "estimate": _measured(est, 0.02),
    }
    if expected is not None:
        dev = abs(est - float(expected))
        lines.append(f"expected c = {expected} (deviation {dev:.2e})")
        doc["expected"] = str(expected)
        doc["deviation"] = _measured(dev, 0.02)
    else:
        doc["expected"] = None
        doc["deviation"] = None
    _emit(args, lines, doc)
    return 0


# ---------------------------------------------------------------------------
# parser


# tokens like "-3/2" or "-1e-3" are entries or values, not option flags;
# argparse knows only plain negative decimals, so widen its matcher to every
# negative number Fraction or float reads (and -inf, -nan, rejected later)
_D = r"\d+(_\d+)*"
_NEGATIVE_TOKEN = re.compile(
    rf"^-({_D}(/{_D})?|({_D}\.?({_D})?|\.{_D})(e[-+]?{_D})?|inf(inity)?|nan)$", re.IGNORECASE)
_NEGATIVE_ENTRY_COMMANDS = ("solve", "classify", "bounds", "dual", "recognize")


@functools.lru_cache(maxsize=4)
def _build_parser(env_tol: str | None) -> argparse.ArgumentParser:
    # env_tol is the raw DILOGTBA_TOL text: a string default goes
    # through type= on every parse that lacks the flag, so a bad value
    # is reported as an input error at parse time, also from a cached
    # parser; without it the default is recognize's own
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--no-header", action="store_true",
                        help="suppress the version header on text output")
    common.add_argument("--tol", type=_positive_float(" (from the flag or DILOGTBA_TOL)"),
                        default=DEFAULT_TOL if env_tol is None else env_tol,
                        help=f"recognition tolerance (default from DILOGTBA_TOL or {DEFAULT_TOL:g})")

    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("-A", nargs="+", required=True, metavar="ENTRY",
                        help="matrix entries: a (rank 1, 'inf' allowed) or a b d (rank 2)")
    matrix.add_argument("--scale", type=_fraction, metavar="P/Q", default=Fraction(1),
                        help="multiply all entries by an exact fraction")

    p = argparse.ArgumentParser(
        prog="dilogtba",
        description="Rogers dilogarithm sums, TBA fixed points, and charge recognition.",
        epilog="Environment: DILOGTBA_TOL sets the default recognition tolerance.",
    )
    p.add_argument("--version", action="version", version=f"dilogtba {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", parents=[common, matrix],
                        help="solve the TBA system and recognize c")
    sp.add_argument("--grid-n", type=_grid_n, default=argparse.SUPPRESS,
                    help=f"scan resolution, {GRID_N_MIN} to {GRID_N_MAX} (default {DEFAULT_GRID_N})")
    sp.add_argument("--no-range-check", action="store_true",
                    help="solve even when the entry-range condition fails")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("classify", parents=[common, matrix],
                        help="exact classification of c against 1")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("bounds", parents=[common, matrix],
                        help="two-sided bounds on c (needs a >= d > 0)")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("dual", parents=[common, matrix],
                        help="dual matrix (1/4) A^{-1} and both c values")
    sp.add_argument("--no-range-check", action="store_true",
                    help="solve the input matrix even when out of range")
    sp.set_defaults(func=_cmd_dual)

    # a bound left out is absent from args (default SUPPRESS), so
    # charges.recognize's own default applies
    sp = sub.add_parser("recognize", parents=[common],
                        help="match a value against the charge spectra")
    sp.add_argument("value", help="decimal or fraction p/q")
    sp.add_argument("--max-st", type=_int_at_least(1, MAX_SPECTRUM_BOUND),
                    default=argparse.SUPPRESS,
                    help=f"largest |st| product (at most {MAX_SPECTRUM_BOUND})")
    sp.add_argument("--max-n", type=_int_at_least(1, MAX_SPECTRUM_BOUND),
                    default=argparse.SUPPRESS,
                    help=f"largest parafermionic n (at most {MAX_SPECTRUM_BOUND})")
    sp.add_argument("--max-den", type=_int_at_least(1), default=argparse.SUPPRESS,
                    help="largest denominator for plain-rational matches")
    sp.set_defaults(func=_cmd_recognize)

    # each flag's dest is its SearchConfig field; a flag left out is absent
    # from args (default SUPPRESS), so the preset's value stands
    sp = sub.add_parser("search", parents=[common], argument_default=argparse.SUPPRESS,
                        help="enumerate matrices and report admissible candidates")
    sp.add_argument("--config", choices=sorted(EXAMPLE_CONFIGS), default=None,
                    help="start from a named example configuration (flags override it)")
    sp.add_argument("--max-den-entries", dest="max_denominator", type=_int_at_least(1),
                    help="largest entry denominator")
    sp.add_argument("--max-num", dest="max_numerator", type=_int_at_least(1),
                    help="largest entry numerator")
    sp.add_argument("--entry-min", type=_fraction, metavar="P/Q")
    sp.add_argument("--entry-max", type=_fraction, metavar="P/Q")
    sp.add_argument("--fix-d", type=_fraction, metavar="P/Q", help="pin d to one value")
    sp.add_argument("--a-eq-d", action="store_true", help="restrict to a = d")
    sp.add_argument("--dedupe", action="store_true", default=False,
                    help="collapse duality-paired candidates to the c <= 1 member")
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("verify-identities", parents=[common],
                        help="verify the two-term dilogarithm identity catalog")
    sp.add_argument("--precision", type=_positive_float(), default=argparse.SUPPRESS,
                    help=f"required residual bound (default {DEFAULT_PRECISION:g};"
                         f" below {MP_BELOW:g} switches to mpmath)")
    sp.add_argument("--catalog", default=None, metavar="PATH",
                    help="catalog file (default: the shipped catalog)")
    sp.add_argument("--cross-check", action="store_true",
                    help="also solve the attached TBA systems and compare")
    sp.set_defaults(func=_cmd_verify_identities)

    sp = sub.add_parser("expand", parents=[common],
                        help="exact q-expansion of a fermionic form")
    sp.add_argument("form", choices=sorted(FORMS), help="registered form name")
    sp.add_argument("--order", type=_int_at_least(1, 5000), default=20,
                    help="expansion order in integer powers of q (at most 5000)")
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("ceff-estimate", parents=[common],
                        help="effective central charge from the q -> 1 limit")
    sp.add_argument("form", choices=sorted(FORMS), help="registered form name")
    sp.add_argument("--eps", default=argparse.SUPPRESS, metavar="E1,E2,...",
                    help="comma-separated ln(1/q) samples (default "
                         + ",".join(map(str, DEFAULT_EPS)) + ")")
    sp.set_defaults(func=_cmd_ceff)

    for parser in (p, *(sub.choices[name] for name in _NEGATIVE_ENTRY_COMMANDS)):
        parser._negative_number_matcher = _NEGATIVE_TOKEN
    return p


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse argv (without the program name) and run one subcommand."""
    parser = _build_parser(os.environ.get("DILOGTBA_TOL"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _COMPUTE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Exact and numerical tools around the Rogers dilogarithm.

The package evaluates the normalized Rogers dilogarithm, solves the
rank-1 and rank-2 thermodynamic-Bethe-ansatz fixed-point systems
attached to rational symmetric matrices, recognizes the resulting sums
of dilogarithm values against minimal-model and parafermionic central
charge spectra, verifies a catalog of two-term dilogarithm identities
with algebraic arguments, expands fermionic q-series exactly, and
searches matrix families for members with rational c.  A command-line
frontend (console script ``dilogtba``) exposes the same operations.
"""

from .algebraics import (
    AlgebraicNumber,
    IntegerPolynomial,
    constant,
    count_real_roots,
    eval_poly_at,
    isolate_real_roots,
    rational_sqrt,
    refine,
)
from .analysis import (
    BoundsResult,
    ClassificationResult,
    FamilyC1Result,
    bounds_on_c,
    classify_vs_one,
    dual,
    family_c1,
    uniqueness_guarantee,
    uniqueness_weak_tests,
)
from .charges import ChargeMatch, recognize
from .dilog import (
    check_duplication,
    check_five_term,
    check_reflection,
    rogers_L,
    rogers_L_mp,
)
from .errors import (
    CatalogError,
    DomainError,
    NonTerminatingSeries,
    RangeViolation,
    ScanFailure,
    SingularMatrixError,
    TailBoundError,
)
from .identities import (
    CrossCheckResult,
    IdentityEntry,
    cross_check_tba,
    evaluate_expression,
    load_catalog,
    parse_catalog,
    parse_expression,
    serialize_catalog,
    verify,
)
from .qseries import (
    FORMS,
    FORM_SYSTEMS,
    FermionicForm,
    QSeries,
    estimate_ceff,
    eval_at,
    expand,
    restricted_variant,
    unrestricted_variant,
)
from .search import (
    Candidate,
    EXAMPLE_CONFIGS,
    PropFlags,
    SearchConfig,
    SearchReport,
    dedupe_by_duality,
    report_json,
    report_text,
    run_search,
)
from .tba import (
    INFINITY,
    RationalSymmetricMatrix,
    TbaSolution,
    c_of,
    check_range,
    delta_fn,
    kappa,
    reduced_f,
    solve_r1,
    solve_r2,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "CONSTANTS":
        return algebraics.CONSTANTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # dilog
    "rogers_L",
    "rogers_L_mp",
    "check_reflection",
    "check_duplication",
    "check_five_term",
    # algebraics
    "IntegerPolynomial",
    "AlgebraicNumber",
    "eval_poly_at",
    "refine",
    "isolate_real_roots",
    "count_real_roots",
    "rational_sqrt",
    "constant",
    "CONSTANTS",
    # tba
    "INFINITY",
    "RationalSymmetricMatrix",
    "TbaSolution",
    "kappa",
    "delta_fn",
    "solve_r1",
    "solve_r2",
    "c_of",
    "reduced_f",
    "check_range",
    # analysis
    "uniqueness_guarantee",
    "uniqueness_weak_tests",
    "dual",
    "ClassificationResult",
    "classify_vs_one",
    "FamilyC1Result",
    "family_c1",
    "BoundsResult",
    "bounds_on_c",
    # charges
    "ChargeMatch",
    "recognize",
    # identities
    "IdentityEntry",
    "parse_expression",
    "evaluate_expression",
    "parse_catalog",
    "serialize_catalog",
    "load_catalog",
    "verify",
    "CrossCheckResult",
    "cross_check_tba",
    # qseries
    "FermionicForm",
    "QSeries",
    "expand",
    "eval_at",
    "estimate_ceff",
    "restricted_variant",
    "unrestricted_variant",
    "FORMS",
    "FORM_SYSTEMS",
    # search
    "SearchConfig",
    "PropFlags",
    "Candidate",
    "SearchReport",
    "run_search",
    "dedupe_by_duality",
    "report_text",
    "report_json",
    "EXAMPLE_CONFIGS",
    # errors
    "DomainError",
    "RangeViolation",
    "SingularMatrixError",
    "ScanFailure",
    "NonTerminatingSeries",
    "TailBoundError",
    "CatalogError",
]

"""The package's public namespace: which names it exports and from where,
and the only modules it imports."""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import dilogtba

REPO_ROOT = Path(__file__).resolve().parents[1]

# each public name under the module that defines it
_DEFINED_IN = {
    "algebraics": ["AlgebraicNumber", "CONSTANTS", "IntegerPolynomial", "constant",
                   "count_real_roots", "isolate_real_roots", "rational_sqrt"],
    "analysis": ["BoundsResult", "ClassificationResult", "FamilyC1Result", "bounds_on_c",
                 "classify_vs_one", "dual", "family_c1", "uniqueness_guarantee",
                 "uniqueness_weak_tests"],
    "charges": ["ChargeMatch", "recognize"],
    "dilog": ["check_duplication", "check_five_term", "check_reflection", "rogers_L",
              "rogers_L_mp"],
    "errors": ["CatalogError", "DomainError", "NonTerminatingSeries", "RangeViolation",
               "ScanFailure", "SingularMatrixError", "TailBoundError"],
    "identities": ["CrossCheckResult", "IdentityEntry", "cross_check_tba",
                   "evaluate_expression", "load_catalog", "parse_catalog",
                   "parse_expression", "serialize_catalog", "verify"],
    "qseries": ["FORMS", "FORM_SYSTEMS", "FermionicForm", "QSeries", "estimate_ceff",
                "eval_at", "expand", "restricted_variant", "unrestricted_variant"],
    "search": ["Candidate", "EXAMPLE_CONFIGS", "PropFlags", "SearchConfig", "SearchReport",
               "dedupe_by_duality", "report_json", "report_text", "run_search"],
    "tba": ["INFINITY", "RationalSymmetricMatrix", "TbaSolution", "c_of", "check_range",
            "delta_fn", "kappa", "reduced_f", "solve_r1", "solve_r2"],
}


def test_public_names_are_the_defining_modules_objects():
    names = sorted(n for ns in _DEFINED_IN.values() for n in ns)
    assert len(names) == len(set(names)) == 67
    assert sorted(dilogtba.__all__) == sorted(names + ["__version__"])
    assert len(dilogtba.__all__) == 68
    for mod, ns in _DEFINED_IN.items():
        module = importlib.import_module(f"dilogtba.{mod}")
        for n in ns:
            assert getattr(dilogtba, n) is getattr(module, n), (mod, n)
    assert dilogtba.__version__ == "0.1.0"


def test_package_binds_no_other_public_name():
    # submodules aside, the package namespace is exactly its __all__;
    # CONSTANTS is served on first access and never stored there
    bound = {n for n, v in vars(dilogtba).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert bound == set(dilogtba.__all__) - {"__version__", "CONSTANTS"}


# mpmath's process-wide precision, set by one thread, leaks into every
# other thread's arithmetic; src/ computes each mp value at an explicit one
_GLOBAL_PRECISION = re.compile(r"workdps|workprec|extradps|extraprec|mp\.(dps|prec)\s*=(?!=)")


def test_no_module_touches_mpmaths_global_precision():
    hits = [f"{path.name}:{k}: {line.strip()}"
            for path in sorted(Path(dilogtba.__file__).parent.glob("*.py"))
            for k, line in enumerate(path.read_text("utf-8").splitlines(), 1)
            if _GLOBAL_PRECISION.search(line)]
    assert hits == []


# the package depends on numpy and mpmath alone; hypothesis, jsonschema,
# scipy and sympy may be installed next to it, but src/ must not use them
_DEPENDENCIES = {"numpy", "mpmath"}


def test_src_imports_only_the_stdlib_and_its_two_dependencies():
    allowed = set(sys.stdlib_module_names) | _DEPENDENCIES | {"dilogtba"}
    outside = []
    for path in sorted(Path(dilogtba.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import is the package's own
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_pyproject_declares_exactly_the_two_dependencies():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10, where pytest brings tomli
        import tomli as tomllib
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    names = sorted(re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                   for spec in project["dependencies"])
    assert names == sorted(_DEPENDENCIES)

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

from .algebraics import *
from .analysis import *
from .charges import *
from .dilog import *
from .errors import *
from .identities import *
from .qseries import *
from .search import *
from .tba import *

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "CONSTANTS":
        return algebraics.CONSTANTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["__version__", "CONSTANTS"] + [
    n for m in (algebraics, analysis, charges, dilog, errors, identities, qseries, search, tba)
    for n in m.__all__
]

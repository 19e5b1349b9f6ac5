"""Fixtures shared by the test modules."""

from collections import OrderedDict
from unittest import mock

import pytest

from dilogtba import search, tba


@pytest.fixture
def cold_solver():
    """Every solve and search verdict of the test computed afresh.

    tba.solve_r2 and search.run_search keep their results for the whole
    process.  This swaps both stores for empty ones that hold nothing
    (a cap of 0), so a test that counts scans or solver calls sees each
    one happen, and a result computed while a test patches the solver's
    internals never outlives the test.  The process-wide stores are
    back, untouched, when the test ends.
    """
    with mock.patch.object(tba, "_SOLVED", OrderedDict()), \
            mock.patch.object(tba, "_SOLVED_CAP", 0), \
            mock.patch.object(search, "_VERDICTS", OrderedDict()), \
            mock.patch.object(search, "_VERDICTS_CAP", 0):
        yield

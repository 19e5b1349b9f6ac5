"""Smoke test: every demo script runs to completion.

Each script in demos/ runs in its own interpreter that imports the
dilogtba under test (see test_cli.child_env) and must exit 0.  The
algebraic-numbers demo, which reads every named constant, must also
print exactly its recorded output.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# stdout of algebraic_numbers_and_closed_forms.py, recorded when the
# named constants were still isolated at import time; the solver lines
# were re-recorded when (5/4 1; 1 1), positive definite, moved to Newton
_ALGEBRAIC_DEMO_OUTPUT = (
    'polynomial -1 + 1*t^1 + 1*t^2\n'
    '  real roots: 2\n'
    '  root in [-1.618033988750540, -1.618033988749858]  ~ -1.618033988749895\n'
    '  root in [0.618033988749403, 0.618033988750085]  ~ 0.6180339887498949\n'
    'polynomial 1 + -5*t^2 + 1*t^4\n'
    '  root ~ -2.188901059316734\n'
    '  root ~ -0.456850251747857\n'
    '  root ~ +0.456850251747857\n'
    '  root ~ +2.188901059316734\n'
    '\n'
    'named constants\n'
    '    name                 value  polynomial\n'
    '   alpha     0.801937735804838  -1 + -1*t^1 + 2*t^2 + 1*t^3\n'
    '    beta     0.554958132087371  1 + -1*t^1 + -2*t^2 + 1*t^3\n'
    '   delta     0.866760399173862  -1 + -1*t^1 + 2*t^3 + 1*t^4\n'
    '   gamma     0.445041867912629  1 + -2*t^1 + -1*t^2 + 1*t^3\n'
    '     lam     1.801937735804838  1 + -2*t^1 + -1*t^2 + 1*t^3\n'
    '      mu     3.335794468680031  1 + -7*t^1 + 20*t^2 + -28*t^3 + 19*t^4 + -7*t^5 + 1*t^6\n'
    '      nu     0.466143267124808  1 + -7*t^1 + 20*t^2 + -28*t^3 + 19*t^4 + -7*t^5 + 1*t^6\n'
    '     rho     0.618033988749895  -1 + 1*t^1 + 1*t^2\n'
    ' u_minus    -0.266795023832658  -1 + -3*t^1 + 3*t^2 + 1*t^3 + 1*t^4\n'
    '  u_plus     0.884829012582553  -1 + -3*t^1 + 3*t^2 + 1*t^3 + 1*t^4\n'
    '\n'
    'closed form vs solver for (5/4 1; 1 1)\n'
    '  x: solver 0.248726410423967   closed 0.248726410423967   diff 1.1e-16\n'
    '  y: solver 0.286960976367906   closed 0.286960976367906   diff 0.0e+00\n'
)


def test_algebraic_numbers_demo_output_is_unchanged(tmp_path):
    demo = next(p for p in DEMOS if p.stem == "algebraic_numbers_and_closed_forms")
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=child_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _ALGEBRAIC_DEMO_OUTPUT

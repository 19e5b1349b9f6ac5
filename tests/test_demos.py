"""Smoke test: every demo script runs to completion.

Each script in demos/ runs in its own interpreter that imports the
dilogtba under test (see test_cli.child_env) and must exit 0.
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

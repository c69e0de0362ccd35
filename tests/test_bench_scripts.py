"""The `benchmarks/bench_*.py` scripts import `perfbench/workloads.py`,
`tests/test_chains.py` and package names at module level, so a rename in
any of them breaks a script before it parses its arguments. Each script's
`--help` runs here in a fresh interpreter with src/ on the path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_help_exits_0(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")

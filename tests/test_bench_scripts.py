"""The `benchmarks/bench_*.py` scripts import `perfbench/workloads.py`,
`tests/test_chains.py` and package names at module level, so a rename in
any of them breaks a script before it parses its arguments. Each script's
`--help` runs here in a fresh interpreter with src/ on the path, and
`bench_solve.py`'s timed functions run on tiny sizes of every instance
kind, so a change that breaks how it builds or solves them fails here."""

import functools
import importlib.util
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


@functools.cache
def load_bench_solve():
    """benchmarks/bench_solve.py as a module, loaded once; the script's own
    additions to sys.path (benchmarks/ for `record`, perfbench/ for
    `workloads`) are undone after the import."""
    saved = sys.path[:]
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_solve", REPO_ROOT / "benchmarks" / "bench_solve.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("kind, n_states, n_actions",
                         [("dense", 4, 2), ("sparse", 8, 3), ("sparse3", 8, 3)])
def test_bench_size_runs(kind, n_states, n_actions):
    row = load_bench_solve().bench_size(kind, n_states, n_actions, 1)
    assert (row["kind"], row["runs"], row["failures"], row["certified"]) == (kind, 1, [], 1)
    assert row["wall_s"]["median"] > 0.0


def test_bench_scan_runs():
    row = load_bench_solve().bench_scan("sparse3", 8, 3, 1)
    assert (row["runs"], row["failures"]) == (1, [])
    assert row["distinct_rewards"] == 23  # one of the 24 drawn values is never paid
    assert row["wall_s"]["median"] > 0.0

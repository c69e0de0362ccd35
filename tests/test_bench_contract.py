"""The benchmark harness in `perfbench/` reaches into the package by name:
`perfbench/spans.py` wraps module attributes listed in `TARGETS`, its
kernel hook reads `cvar_sequence_kernel`'s fifth positional argument as the
step count T, and `perfbench/workloads.py` reads a solved program's
`status`. A rename in `src/` would break `perfbench/run.py` without failing
any other test."""

import inspect
from pathlib import Path

import pytest

from cvarmdp import _kernels, lp, model, risk

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench import spans
    return spans


def test_every_traced_attribute_resolves(spans):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_solution_status_reads_optimal():
    """perfbench's reference level LP checks `status == "optimal"`; solve
    raises on any other outcome, but the name must stay until that read
    goes."""
    params = risk.RiskParams(0.7)
    assert lp.solve(lp.build_dual_lp(model.builtin("example2"), params)).status == "optimal"


def test_kernel_step_count_is_fifth_argument():
    assert list(inspect.signature(_kernels.cvar_sequence_kernel).parameters)[4] == "T"


@pytest.mark.parametrize("command, kind", [("solve", "dual"), ("scan", "level")])
def test_traced_cli_run_counts_lp_shapes_and_solves(spans, capsys, command, kind):
    """The LP hooks read `prog.constraints`, `prog.variables` and the solved
    program's `name`; a traced run must count what they read."""
    from cvarmdp import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code, _ = tracer.run_op(0, command, lambda: cli.main(
            [command, "--builtin", "example2", "--alpha", "0.7", "--json"]))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    counts = tracer.by_kind[command].counts
    for name in ("lp.rows", "lp.cols", "lp.nnz", f"lp.solve.calls.{kind}"):
        assert counts[name] > 0, name

"""The benchmark harness in `perfbench/` reaches into the package by name:
`perfbench/spans.py` wraps module attributes listed in `TARGETS`, its
kernel hook reads `cvar_sequence_kernel`'s fifth positional argument as the
step count T, and `perfbench/workloads.py` reads a solved program's
`status`, and its workloads read further names (`solver.CERT_TOL`,
`risk.reward_distribution`, `cli.EXIT_*`, `TimeDependentPolicy.from_rules`,
...). A rename in `src/` would break `perfbench/run.py` without failing any
other test, so the smoke-size workloads run here too."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from cvarmdp import _kernels, lp, model, risk

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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


@pytest.mark.parametrize("mode, kind", [("dual", "dual"), ("dual-primal", "level")],
                         ids=["solve-dual", "dual-primal-level"])
def test_traced_cli_run_counts_lp_shapes_and_solves(spans, capsys, mode, kind):
    """The LP hooks read `prog.constraints`, `prog.variables` and the solved
    program's `name`; a traced run must count what they read. `solve --mode
    dual-primal` solves the level LP, so its count is checked there."""
    from cvarmdp import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code, _ = tracer.run_op(0, "solve", lambda: cli.main(
            ["solve", "--builtin", "example2", "--alpha", "0.7", "--mode", mode, "--json"]))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    counts = tracer.by_kind["solve"].counts
    for name in ("lp.rows", "lp.cols", "lp.nnz", f"lp.solve.calls.{kind}"):
        assert counts[name] > 0, name


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_first_ops_pass_their_checks(tmp_path, name):
    """Build the workload at smoke size, then run the first op of each kind
    and check it against its reference, as `perfbench/run.py --smoke` does."""
    ops = workloads.make_ops(name, workloads.build(name, 1, tmp_path, size="smoke"))
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    for kind, op in first.items():
        assert op.check(op.run(), op.ref) == "", kind

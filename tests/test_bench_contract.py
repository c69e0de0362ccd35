"""The benchmark harness in `perfbench/` reaches into the package by name:
`perfbench/spans.py` wraps module attributes listed in `TARGETS`, and its
kernel hook reads `cvar_sequence_kernel`'s fifth positional argument as the
step count T. A rename in `src/` would break `perfbench/run.py --trace 1`
without failing any other test."""

import inspect
from pathlib import Path

import pytest

from cvarmdp import _kernels

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


def test_kernel_step_count_is_fifth_argument():
    assert list(inspect.signature(_kernels.cvar_sequence_kernel).parameters)[4] == "T"

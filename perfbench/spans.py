"""Span tracing of cvarmdp's layers, installed from outside the package.

`Tracer.install()` replaces selected functions with timing wrappers by
setting module attributes; `uninstall()` puts the originals back, so
untraced ops run the unmodified code. Several functions are bound under a
second module's namespace (`lp.linprog`, `lp.breakpoints`,
`chains.deterministic_policies`, ...) and are wrapped there too, because
that is the name their callers look up.

Spans nest on one stack (one op at a time, one thread). When a span ends
its duration is added to its parent's child time, so self time is the
span's duration minus the time its child spans cover. Every op's spans are
folded into per-name totals as they end; raw spans (id, name, start, end,
parent id, op id) are kept only for the ops passed with `keep=True`, which
bounds memory on enumeration-heavy ops that produce 10^4 spans each.
"""

from __future__ import annotations

import re
import time
from collections import defaultdict

from cvarmdp import _kernels, chains, cli, evaluate, lp, model, risk, solver

LAYERS = ("cli", "model", "risk", "lp", "solver", "chains", "evaluate", "kernels")

_LP_KIND = re.compile(r"-(dual|average|level|sparsify|primal)(\(|$)")


def _lp_shape(tracer, prog, args):
    tracer.count("lp.rows", len(prog.constraints))
    tracer.count("lp.cols", len(prog.variables))
    tracer.count("lp.nnz", sum(len(c.coeffs) for c in prog.constraints))


def _lp_solve_kind(tracer, sol, args):
    m = _LP_KIND.search(args[0].name)
    tracer.count(f"lp.solve.calls.{m.group(1) if m else 'other'}", 1)


def _highs_nit(tracer, res, args):
    tracer.count("lp.highs.nit", int(getattr(res, "nit", 0) or 0))


def _policy_count(tracer, policies, args):
    tracer.count("model.deterministic_policies.count", len(policies))


def _kernel_steps(tracer, result, args):
    tracer.count("kernels.steps", int(args[4]))


# (module, attribute, span name, post hook). A span name's first component
# is its layer; `DiscreteDistribution.from_atoms` is handled separately
# because it is a classmethod.
TARGETS = (
    (cli, "main", "cli.main", None),
    (model, "load", "model.load", None),
    (model, "validate", "model.validate", None),
    (model, "deterministic_policies", "model.deterministic_policies", _policy_count),
    (chains, "deterministic_policies", "model.deterministic_policies", _policy_count),
    (model, "extract_policy", "model.extract_policy", None),
    (model, "n_randomizations", "model.n_randomizations", None),
    (risk, "breakpoints", "risk.breakpoints", None),
    (lp, "breakpoints", "risk.breakpoints", None),
    (risk, "saddle_coefficients", "risk.saddle_coefficients", None),
    (lp, "saddle_coefficients", "risk.saddle_coefficients", None),
    (risk, "saddle_value", "risk.saddle_value", None),
    (risk, "reward_distribution", "risk.reward_distribution", None),
    (risk, "var", "risk.var", None),
    (risk, "cvar_right", "risk.cvar_right", None),
    (lp, "build_average_lp", "lp.build", _lp_shape),
    (lp, "build_dual_lp", "lp.build", _lp_shape),
    (lp, "build_level_lp", "lp.build", _lp_shape),
    (lp, "build_sparsify_lp", "lp.build", _lp_shape),
    (lp, "build_primal_lp", "lp.build", _lp_shape),
    (lp, "solve", "lp.solve", _lp_solve_kind),
    (lp, "linprog", "lp.highs", _highs_nit),
    (lp, "pair_values", "lp.pair_values", None),
    (solver, "solve_cvar", "solver.solve_cvar", None),
    (solver, "sparsify", "solver.sparsify", None),
    (solver, "verify_saddle", "solver.verify_saddle", None),
    (solver, "endpoint_scan_oracle", "solver.scan", None),
    (solver, "enumerate_deterministic", "solver.enumerate", None),
    (chains, "check_assumption", "chains.check_assumption", None),
    (chains, "classify_chain", "chains.classify_chain", None),
    (chains, "_class_occupation", "chains.class_occupation", None),
    (chains, "stationary_distribution", "chains.stationary_distribution", None),
    (evaluate, "cvar_sequence", "evaluate.cvar_sequence", None),
    (evaluate, "monte_carlo_eval", "evaluate.monte_carlo_eval", None),
    (_kernels, "cvar_sequence_kernel", "kernels.cvar_sequence_kernel", _kernel_steps),
    (_kernels, "mc_step", "kernels.mc_step", None),
)


class Totals:
    """Per-span-name call counts, inclusive and self seconds, and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def layer_self(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.by_kind = defaultdict(Totals)
        self.totals = None
        self.spans = []        # raw spans of the kept ops
        self._stack = []       # [span id, child seconds] per open span
        self._next_id = 0
        self._op = None
        self._keep = False
        self._saved = []

    def count(self, name, n):
        self.totals.counts[name] += n

    def _record(self, name, fn, post):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                t = self.totals
                t.calls[name] += 1
                t.total[name] += dur
                t.self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if self._keep:
                    self.spans.append((frame[0], name, start - self.t0, end - self.t0,
                                       parent[0] if parent else None, self._op))
            if post is not None:
                post(self, result, args)
            return result
        return wrapper

    def run_op(self, op_id, kind, fn, keep=False):
        """Run fn() under a root span named 'op', adding its spans to the
        totals of op kind `kind`; return (result, duration)."""
        self._op, self._keep, self.totals = op_id, keep, self.by_kind[kind]
        root = self._record("op", fn, None)
        start = time.perf_counter()
        try:
            result = root()
        finally:
            dur = time.perf_counter() - start
            self._op, self._keep = None, False
        return result, dur

    def install(self):
        for module, attr, name, post in TARGETS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._record(name, orig, post))
        cls = risk.DiscreteDistribution
        orig = cls.__dict__["from_atoms"]
        self._saved.append((cls, "from_atoms", orig))
        cls.from_atoms = classmethod(self._record("risk.from_atoms", orig.__func__, None))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

"""Per-layer metrics of a traced run, and the trace file it leaves.

Every figure is per traced op: seconds per op ("s/op") or a count per op
("count/op"). `<layer>.self_s` is the summed self time of a layer's spans,
so the eight layer figures plus the benchmark's own glue add up to
`trace.op_s`; `trace.accounted_share` is the part the layers cover.
Names ending in `_s` without `self` are inclusive (scan, enumeration,
sparsification, assumption check, classification, load, validate,
kernels). On evolve the kernel and evaluate figures are also given per op
kind (block, stationary, switch, mc); elsewhere those read 0.
"""

from __future__ import annotations

import json

from spans import LAYERS, Totals
from workloads import KNOWN_CAP, KNOWN_LP

S, C, R = "s/op", "count/op", "ratio"
LP_KINDS = ("dual", "average", "level", "sparsify")
SEQ_KINDS = ("block", "stationary", "switch")


def _merge(parts):
    out = Totals()
    for t in parts:
        for field in ("calls", "total", "self_s", "counts"):
            acc = getattr(out, field)
            for k, v in getattr(t, field).items():
                acc[k] += v
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def _kernel_ns(t):
    return _ratio(t.total["kernels.cvar_sequence_kernel"], t.counts["kernels.steps"]) * 1e9


def per_layer(records, tracer):
    """Metric name -> (value, unit) from the traced and untraced records."""
    traced = [r for r in records if r.traced]
    n = len(traced)
    t = _merge(tracer.by_kind.values())
    op_s = sum(r.dur for r in traced)
    build, solve_self, highs = t.self_s["lp.build"], t.self_s["lp.solve"], t.self_s["lp.highs"]
    m = {f"{layer}.self_s": (t.layer_self(layer) / n, S) for layer in LAYERS}
    m.update({
        "cli.cap_exceeded.count": (sum(r.outcome == KNOWN_CAP for r in traced) / n, C),
        "lp.recheck_refusals.count": (sum(r.outcome == KNOWN_LP for r in traced) / n, C),
        "model.load_s": (t.total["model.load"] / n, S),
        "model.validate_s": (t.total["model.validate"] / n, S),
        "model.deterministic_policies.count": (t.counts["model.deterministic_policies.count"] / n, C),
        "risk.breakpoints.calls": (t.calls["risk.breakpoints"] / n, C),
        "lp.build_s": (build / n, S),
        "lp.solve.self_s": (solve_self / n, S),
        "lp.highs_s": (highs / n, S),
        "lp.highs_share": (_ratio(highs, build + solve_self + highs), R),
        "lp.highs.nit": (t.counts["lp.highs.nit"] / n, C),
        "lp.rows": (t.counts["lp.rows"] / n, C),
        "lp.cols": (t.counts["lp.cols"] / n, C),
        "lp.nnz": (t.counts["lp.nnz"] / n, C),
    })
    m.update({f"lp.solve.calls.{k}": (t.counts[f"lp.solve.calls.{k}"] / n, C) for k in LP_KINDS})
    m.update({
        "solver.solve_cvar.self_s": (t.self_s["solver.solve_cvar"] / n, S),
        "solver.verify_saddle.self_s": (t.self_s["solver.verify_saddle"] / n, S),
        "solver.sparsify_s": (t.total["solver.sparsify"] / n, S),
        "solver.scan_s": (t.total["solver.scan"] / n, S),
        "solver.enumerate_s": (t.total["solver.enumerate"] / n, S),
        "chains.check_assumption_s": (t.total["chains.check_assumption"] / n, S),
        "chains.classify_chain.calls": (t.calls["chains.classify_chain"] / n, C),
        "chains.classify_chain_s": (t.total["chains.classify_chain"] / n, S),
        "kernels.cvar_sequence_kernel_s": (t.total["kernels.cvar_sequence_kernel"] / n, S),
        "kernels.steps": (t.counts["kernels.steps"] / n, C),
        "kernels.ns_per_step": (_kernel_ns(t), "ns/step"),
        "kernels.mc_step_s": (t.total["kernels.mc_step"] / n, S),
        "kernels.mc_step.calls": (t.calls["kernels.mc_step"] / n, C),
    })
    for kind in SEQ_KINDS + ("mc",):
        k = tracer.by_kind.get(kind, Totals())
        nk = sum(r.op.kind == kind for r in traced) or 1
        m[f"evolve.{kind}.evaluate.self_s"] = (k.layer_self("evaluate") / nk, S)
        if kind == "mc":
            m["evolve.mc.risk.self_s"] = (k.layer_self("risk") / nk, S)
            m["evolve.mc.kernels.mc_step_s"] = (k.total["kernels.mc_step"] / nk, S)
            m["evolve.mc.kernels.mc_step.calls"] = (k.calls["kernels.mc_step"] / nk, C)
        else:
            m[f"evolve.{kind}.kernels.cvar_sequence_kernel_s"] = (
                k.total["kernels.cvar_sequence_kernel"] / nk, S)
            m[f"evolve.{kind}.kernels.ns_per_step"] = (_kernel_ns(k), "ns/step")
    untraced = sum(r.dur for r in records if not r.traced)
    m["trace.op_s"] = (op_s / n, S)
    m["trace.accounted_share"] = (_ratio(sum(t.layer_self(layer) for layer in LAYERS), op_s), R)
    m["trace.overhead_share"] = (_ratio(op_s, untraced) - 1.0, R)
    return m


def write_trace(path, env, metrics, tracer):
    """Write the environment, the metrics and the kept raw spans as JSON."""
    doc = {"env": env,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
           "spans": tracer.spans}
    path.write_text(json.dumps(doc) + "\n")

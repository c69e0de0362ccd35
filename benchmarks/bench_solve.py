"""Wall time and certificate gaps of in-process `solve_cvar` and
`verify_saddle`, and wall time of the endpoint scan, by instance size.

Run:  PYTHONPATH=src python3 benchmarks/bench_solve.py [--label after]
          [--seeds 3] [--out BENCH_solve.json] [--skip sparse-1000x4 ...]

Solve sizes: dense `model.random_instance` 8x3, 20x4, 60x4 and 100x4
(every kernel entry positive, K = pairs distinct rewards) and sparse 100x4
and 400x4 from perfbench's `sparse_instance` (3 successors plus a ring edge
per pair, K = 24). `verify_saddle` runs at the solve sizes and sparse
1000x4 on the default solve's x*, v* and certificate level; its time
leaves the solve out. `solve_cvar(mode="dual-primal")` (the occupation LP
plus the minimax level LP) runs at dense 8x3 and 20x4 and sparse 100x4,
400x4 and 1000x4. Scan sizes:
`solver.endpoint_scan_oracle` (what `cvarmdp scan` runs: one warm-started
`lp.solve_sweep` of the average LP over the K reward values, each point
starting from the previous optimal basis, plus one level LP) on sparse
100x4 and 400x4 (K = 24) and dense 20x4 (K = 80). Everything runs at alpha = 0.8, beta = 0.5 for seeds
1..--seeds, once each after a warm-up; solve times cover the whole
`solve_cvar` call, certificates included. The worst left, right (and, for
`verify_saddle`, oracle) gaps per size show tolerance drift as instances
grow. A run that raises `LpSolveError`, `SolverError` or
`CapExceededError` is listed under `failures` and left out of the times.

The result is stored under `--label` in the output file; other labels
already there are kept, so runs of two versions of the package (put each
on PYTHONPATH in turn) land side by side in one file. `--skip` leaves a
size out of every table. The `before` run in BENCH_solve.json (the level
LP on dual simplex) skips sparse-1000x4: there that level LP did not
finish in 600 s, so `verify_saddle` and `dual-primal` could not be timed.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import sparse_instance  # noqa: E402

from cvarmdp import lp, model, risk, solver  # noqa: E402

SIZES = (
    ("dense", 8, 3),
    ("dense", 20, 4),
    ("dense", 60, 4),
    ("dense", 100, 4),
    ("sparse", 100, 4),
    ("sparse", 400, 4),
)
VERIFY = SIZES + (("sparse", 1000, 4),)
DUAL_PRIMAL = (
    ("dense", 8, 3),
    ("dense", 20, 4),
    ("sparse", 100, 4),
    ("sparse", 400, 4),
    ("sparse", 1000, 4),
)
SCANS = (
    ("sparse", 100, 4),
    ("sparse", 400, 4),
    ("dense", 20, 4),
)
PARAMS = risk.RiskParams(0.8, 0.5)
FAILURES = (lp.LpSolveError, solver.SolverError, model.CapExceededError)


def make_instance(kind, seed, n_states, n_actions):
    if kind == "dense":
        return model.random_instance(seed, n_states, n_actions)
    return sparse_instance(seed, n_states, n_actions)


def _runs(kind, n_states, n_actions, seeds, call, prepare=None):
    """Time call(prepare(instance)) once per seed; prepare is not timed.
    Returns the size's row and the calls' results."""
    times, results, failures = [], [], []
    for seed in range(1, seeds + 1):
        inst = make_instance(kind, seed, n_states, n_actions)
        arg = inst if prepare is None else prepare(inst)
        t0 = time.perf_counter()
        try:
            out = call(arg)
        except FAILURES as exc:
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(time.perf_counter() - t0)
        results.append(out)
    row = {
        "kind": kind,
        "states": n_states,
        "actions": n_actions,
        "distinct_rewards": int(risk.breakpoints(inst).values.size),
        "runs": seeds,
        "failures": failures,
        "wall_s": _wall(times),
    }
    return row, results


GAPS = {"left": "saddle_left_gap", "right": "saddle_right_gap", "oracle": "oracle_gap"}


def _worst(reports, row, names=("left", "right")):
    for name in names:
        row[f"worst_{name}_gap"] = max((getattr(r, GAPS[name]) for r in reports), default=None)
    return row


def bench_size(kind, n_states, n_actions, seeds, mode="dual"):
    row, sols = _runs(kind, n_states, n_actions, seeds,
                      lambda inst: solver.solve_cvar(inst, PARAMS, mode=mode))
    row["certified"] = sum(s.certificates.certified for s in sols)
    if mode != "dual":
        row["worst_primal_gap"] = max((abs(s.primal_value - s.v_star) for s in sols),
                                      default=None)
    return _worst([s.certificates for s in sols], row)


def bench_verify(kind, n_states, n_actions, seeds):
    def prepare(inst):
        return inst, solver.solve_cvar(inst, PARAMS)

    def verify(arg):
        inst, sol = arg
        return solver.verify_saddle(inst, sol.x_star, sol.certificates.tail_level,
                                    sol.v_star, PARAMS)

    row, reports = _runs(kind, n_states, n_actions, seeds, verify, prepare)
    row["certified"] = sum(r.certified for r in reports)
    return _worst(reports, row, ("left", "right", "oracle"))


def _wall(times):
    return ({"median": statistics.median(times), "min": min(times), "max": max(times)}
            if times else None)


def bench_scan(kind, n_states, n_actions, seeds):
    return _runs(kind, n_states, n_actions, seeds,
                 lambda inst: solver.endpoint_scan_oracle(inst, PARAMS))[0]


def _fmt(x, spec):
    return "-" if x is None else format(x, spec)


def _report(what, row):
    wall = row["wall_s"]
    line = (f"{what:11s} {row['kind']:6s} {row['states']:4d}x{row['actions']}  "
            f"K={row['distinct_rewards']:4d}  median {_fmt(wall and wall['median'], '8.3f')} s")
    for name in ("left", "right", "oracle", "primal"):
        if f"worst_{name}_gap" in row:
            line += f"  {name} {_fmt(row[f'worst_{name}_gap'], '.2g')}"
    if "certified" in row:
        line += f"  certified {row['certified']}/{row['runs']}"
    print(line + f"  failed {len(row['failures'])}")
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="current", help="key the run is stored under")
    ap.add_argument("--seeds", type=int, default=3, help="instances per size")
    ap.add_argument("--out", default="BENCH_solve.json")
    ap.add_argument("--skip", action="append", default=[], metavar="KIND-SxA",
                    help="leave a size out, e.g. sparse-1000x4 (repeatable)")
    args = ap.parse_args()

    def kept(sizes):
        return [size for size in sizes if "{}-{}x{}".format(*size) not in args.skip]

    solver.solve_cvar(model.random_instance(0, 4, 2), PARAMS)  # warm-up
    solver.endpoint_scan_oracle(model.random_instance(0, 4, 2), PARAMS)
    rows, verify, dual_primal, scans = [], [], [], []
    for kind, n_states, n_actions in kept(SIZES):
        rows.append(_report("solve", bench_size(kind, n_states, n_actions, args.seeds)))
    for kind, n_states, n_actions in kept(VERIFY):
        verify.append(_report("verify", bench_verify(kind, n_states, n_actions, args.seeds)))
    for kind, n_states, n_actions in kept(DUAL_PRIMAL):
        dual_primal.append(_report("dual-primal", bench_size(kind, n_states, n_actions,
                                                             args.seeds, mode="dual-primal")))
    for kind, n_states, n_actions in kept(SCANS):
        scans.append(_report("scan", bench_scan(kind, n_states, n_actions, args.seeds)))

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["benchmark"] = ("in-process solve_cvar and verify_saddle wall time and worst "
                        "certificate gaps, and endpoint-scan wall time, by size")
    doc["params"] = {"alpha": PARAMS.alpha, "beta": PARAMS.beta}
    doc.setdefault("runs", {})[args.label] = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "sizes": rows,
        "verify": verify,
        "dual_primal": dual_primal,
        "scans": scans,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} [{args.label}]")


if __name__ == "__main__":
    main()

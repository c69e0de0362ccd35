"""Wall time and certificate gaps of in-process `solve_cvar`, and wall time
of the endpoint scan, by instance size.

Run:  PYTHONPATH=src python3 benchmarks/bench_solve.py [--label after]
          [--seeds 3] [--out BENCH_solve.json]

Solve sizes: dense `model.random_instance` 8x3, 20x4, 60x4 and 100x4
(every kernel entry positive, K = pairs distinct rewards) and sparse 100x4
and 400x4 from perfbench's `sparse_instance` (3 successors plus a ring edge
per pair, K = 24). Scan sizes: `solver.endpoint_scan_oracle` (one average
LP per reward value plus up to two level LPs, what `cvarmdp scan` runs) on
sparse 100x4 (K = 24) and dense 20x4 (K = 80). Everything runs at
alpha = 0.8, beta = 0.5 for seeds 1..--seeds, once each after a warm-up;
solve times cover the whole `solve_cvar` call, certificates included. The
worst left and right certificate gaps per size show tolerance drift as
instances grow. A run that raises `LpSolveError` or `SolverError` is listed
under `failures` and left out of the times.

The result is stored under `--label` in the output file; other labels
already there are kept, so runs of two versions of the package (put each
on PYTHONPATH in turn) land side by side in one file.
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
SCANS = (
    ("sparse", 100, 4),
    ("dense", 20, 4),
)
PARAMS = risk.RiskParams(0.8, 0.5)


def make_instance(kind, seed, n_states, n_actions):
    if kind == "dense":
        return model.random_instance(seed, n_states, n_actions)
    return sparse_instance(seed, n_states, n_actions)


def bench_size(kind, n_states, n_actions, seeds):
    times, lefts, rights, certified, failures = [], [], [], 0, []
    for seed in range(1, seeds + 1):
        inst = make_instance(kind, seed, n_states, n_actions)
        t0 = time.perf_counter()
        try:
            sol = solver.solve_cvar(inst, PARAMS)
        except (lp.LpSolveError, solver.SolverError) as exc:
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(time.perf_counter() - t0)
        c = sol.certificates
        lefts.append(c.saddle_left_gap)
        rights.append(c.saddle_right_gap)
        certified += c.certified
    return {
        "kind": kind,
        "states": n_states,
        "actions": n_actions,
        "distinct_rewards": int(risk.breakpoints(inst).values.size),
        "runs": seeds,
        "certified": certified,
        "failures": failures,
        "wall_s": _wall(times),
        "worst_left_gap": max(lefts, default=None),
        "worst_right_gap": max(rights, default=None),
    }


def _wall(times):
    return ({"median": statistics.median(times), "min": min(times), "max": max(times)}
            if times else None)


def bench_scan(kind, n_states, n_actions, seeds):
    times, failures = [], []
    for seed in range(1, seeds + 1):
        inst = make_instance(kind, seed, n_states, n_actions)
        t0 = time.perf_counter()
        try:
            solver.endpoint_scan_oracle(inst, PARAMS)
        except (lp.LpSolveError, solver.SolverError) as exc:
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(time.perf_counter() - t0)
    return {
        "kind": kind,
        "states": n_states,
        "actions": n_actions,
        "distinct_rewards": int(risk.breakpoints(inst).values.size),
        "runs": seeds,
        "failures": failures,
        "wall_s": _wall(times),
    }


def _fmt(x, spec):
    return "-" if x is None else format(x, spec)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="current", help="key the run is stored under")
    ap.add_argument("--seeds", type=int, default=3, help="instances per size")
    ap.add_argument("--out", default="BENCH_solve.json")
    args = ap.parse_args()

    solver.solve_cvar(model.random_instance(0, 4, 2), PARAMS)  # warm-up
    solver.endpoint_scan_oracle(model.random_instance(0, 4, 2), PARAMS)
    rows = []
    for kind, n_states, n_actions in SIZES:
        row = bench_size(kind, n_states, n_actions, args.seeds)
        rows.append(row)
        wall = row["wall_s"]
        print(f"{kind:6s} {n_states:4d}x{n_actions}  K={row['distinct_rewards']:4d}  "
              f"median {_fmt(wall and wall['median'], '8.3f')} s  "
              f"left {_fmt(row['worst_left_gap'], '.2g')}  "
              f"right {_fmt(row['worst_right_gap'], '.2g')}  "
              f"certified {row['certified']}/{row['runs']}  failed {len(row['failures'])}")
    scans = []
    for kind, n_states, n_actions in SCANS:
        row = bench_scan(kind, n_states, n_actions, args.seeds)
        scans.append(row)
        wall = row["wall_s"]
        print(f"scan {kind:6s} {n_states:4d}x{n_actions}  K={row['distinct_rewards']:4d}  "
              f"median {_fmt(wall and wall['median'], '8.3f')} s  failed {len(row['failures'])}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["benchmark"] = ("in-process solve_cvar wall time and worst certificate gaps, and "
                        "endpoint-scan wall time, by size")
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
        "scans": scans,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} [{args.label}]")


if __name__ == "__main__":
    main()

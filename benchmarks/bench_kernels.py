"""Wall time of the evolution kernels through their public entry points.

Run:  PYTHONPATH=src python3 benchmarks/bench_kernels.py [--label after]
          [--repeats 5] [--out BENCH_kernels.json]

Cases:
- `oscillator`: `evaluate.cvar_sequence` on `example1` under its tripling
  switching schedule, T = (3^12 - 1)/2, alpha = 0.5;
- `endowment`: `evaluate.cvar_sequence` on `endowment` (next-state
  rewards, `rewards3`) under the stationary deterministic policy
  (2, 0, 1, 2, 0, 1), T = 50,000, alpha = 0.9;
- `monte-carlo`: `evaluate.monte_carlo_eval` on `example2` under the
  stationary policy (2, 0, 2), 10^5 replications x 200 steps, alpha = 0.7.

Each case runs --repeats times; the file records the median, min and max
wall time, the median per step, and the machine. The result is stored
under --label; other labels already in the file are kept, so runs of two
versions of the package (put each on PYTHONPATH in turn) land side by
side.
"""

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from cvarmdp import evaluate, model

OSCILLATOR_T = (3**12 - 1) // 2
ENDOWMENT_T = 50_000
MC_REPLICATIONS = 100_000
MC_T = 200


def cases():
    """(name, description, steps, call) for every case."""
    e1 = model.builtin("example1")
    e2 = model.builtin("example2")
    endow = model.builtin("endowment")
    schedule = evaluate.example1_policy(OSCILLATOR_T)
    endow_policy = model.DeterministicPolicy((2, 0, 1, 2, 0, 1)).to_stationary(endow)
    mc_policy = model.DeterministicPolicy((2, 0, 2)).to_stationary(e2)
    return [
        ("oscillator", f"cvar_sequence example1 schedule, T={OSCILLATOR_T}", OSCILLATOR_T,
         lambda: evaluate.cvar_sequence(e1, schedule, "s1", OSCILLATOR_T, 0.5)),
        ("endowment", f"cvar_sequence endowment stationary (rewards3), T={ENDOWMENT_T}",
         ENDOWMENT_T,
         lambda: evaluate.cvar_sequence(endow, endow_policy, "(0,0.2)", ENDOWMENT_T, 0.9)),
        ("monte-carlo",
         f"monte_carlo_eval example2 stationary, {MC_REPLICATIONS} replications x {MC_T} steps",
         MC_T,
         lambda: evaluate.monte_carlo_eval(e2, mc_policy, "1", MC_T, MC_REPLICATIONS,
                                           seed=0, alpha=0.7)),
    ]


def time_case(call, repeats):
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        walls.append(time.perf_counter() - t0)
    return walls


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="current", help="key the run is stored under")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    ap.add_argument("--out", default="BENCH_kernels.json")
    args = ap.parse_args()

    rows = []
    for name, description, steps, call in cases():
        walls = time_case(call, args.repeats)
        median = statistics.median(walls)
        rows.append({
            "case": name,
            "description": description,
            "steps": steps,
            "repeats": args.repeats,
            "wall_s": {"median": median, "min": min(walls), "max": max(walls)},
            "median_us_per_step": median / steps * 1e6,
        })
        print(f"{name:12s} median {median:8.3f} s  ({median / steps * 1e6:8.2f} us/step)  "
              f"min {min(walls):.3f}  max {max(walls):.3f}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["benchmark"] = "wall time of cvar_sequence and monte_carlo_eval (numpy kernels)"
    doc.setdefault("runs", {})[args.label] = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpus": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "platform": platform.platform(),
        },
        "cases": rows,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} [{args.label}]")


if __name__ == "__main__":
    main()

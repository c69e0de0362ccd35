"""Wall time of the evolution kernels through their public entry points.

Run:  PYTHONPATH=src python3 benchmarks/bench_kernels.py [--label after]
          [--repeats 5] [--out BENCH_kernels.json]

Cases:
- `oscillator`: `evaluate.cvar_sequence` on `example1` under its tripling
  switching schedule, T = (3^12 - 1)/2, alpha = 0.5;
- `endowment`: `evaluate.cvar_sequence` on `endowment` (next-state
  rewards, `rewards3`) under the stationary deterministic policy
  (2, 0, 1, 2, 0, 1), T = 50,000, alpha = 0.9;
- `switch`: `evaluate.cvar_sequence` on `example2` under seeded Dirichlet
  rules that change every step (no run longer than one step, so every
  step is pushed on its own), T = 50,000, alpha = 0.7;
- `monte-carlo`: `evaluate.monte_carlo_eval` on `example2` under the
  stationary policy (2, 0, 2), 10^5 replications x 200 steps, alpha = 0.7
  (the sampler compares one CDF level at a time);
- `monte-carlo-few`: `evaluate.monte_carlo_eval` on `random_instance(1,
  100, 4)` under the policy that plays each state's first action, 200
  replications x 2,000 steps, alpha = 0.8 (few uniforms against 99
  kernel levels: the sampler compares slabs of levels);
- `monte-carlo-block`: `evaluate.monte_carlo_eval` on `example1` under
  its tripling switching schedule, 2,000 replications x 2,000 steps,
  alpha = 0.5 (a time-dependent policy whose rules stay for runs of
  up to 907 steps);
- `states-10`, `states-30`, `states-100`: `evaluate.cvar_sequence` on
  `random_instance(1, n, 4)` (K = 4n distinct rewards) under the
  stationary policy that plays each state's first action, T = 20,000,
  alpha = 0.8. The state law is pushed step by step until it settles
  (after 67, 45 and 582 steps), and the buffered atom map and CVaR pass,
  which grow with n, take the rest.

Each case runs --repeats times; the file records the median, min and max
wall time, the median per step, and the machine. The result is stored
under --label; other labels already in the file are kept, so runs of two
versions of the package (put each on PYTHONPATH in turn) land side by
side.
"""

import argparse
import statistics
import time

import numpy as np

from record import write_run

from cvarmdp import evaluate, model

OSCILLATOR_T = (3**12 - 1) // 2
ENDOWMENT_T = 50_000
MC_REPLICATIONS = 100_000
MC_T = 200
MC_FEW_REPLICATIONS = 200
MC_FEW_T = 2000
MC_BLOCK_REPLICATIONS = 2000
MC_BLOCK_T = 2000
SWITCH_T = 50_000
STATES_T = 20_000
STATES = (10, 30, 100)


def cases():
    """(name, description, steps, call) for every case."""
    e1 = model.builtin("example1")
    e2 = model.builtin("example2")
    endow = model.builtin("endowment")
    schedule = evaluate.example1_policy(OSCILLATOR_T)
    block_schedule = evaluate.example1_policy(MC_BLOCK_T)
    endow_policy = model.DeterministicPolicy((2, 0, 1, 2, 0, 1)).to_stationary(endow)
    mc_policy = model.DeterministicPolicy((2, 0, 2)).to_stationary(e2)
    rules = np.random.default_rng(0).dirichlet(np.ones(3), size=(SWITCH_T, e2.n_states))
    switching = model.TimeDependentPolicy.from_rules(rules.reshape(SWITCH_T, e2.n_pairs))
    first_action = {}
    for n in STATES:
        inst = model.random_instance(1, n, 4)
        first_action[n] = inst, model.DeterministicPolicy((0,) * n).to_stationary(inst)
    scaling = [(f"states-{n}", f"cvar_sequence random_instance(1, {n}, 4) stationary, "
                f"T={STATES_T}", STATES_T,
                lambda inst=inst, policy=policy:
                evaluate.cvar_sequence(inst, policy, "s1", STATES_T, 0.8))
               for n, (inst, policy) in first_action.items()]
    big, big_policy = first_action[100]
    return [
        ("oscillator", f"cvar_sequence example1 schedule, T={OSCILLATOR_T}", OSCILLATOR_T,
         lambda: evaluate.cvar_sequence(e1, schedule, "s1", OSCILLATOR_T, 0.5)),
        ("endowment", f"cvar_sequence endowment stationary (rewards3), T={ENDOWMENT_T}",
         ENDOWMENT_T,
         lambda: evaluate.cvar_sequence(endow, endow_policy, "(0,0.2)", ENDOWMENT_T, 0.9)),
        ("switch", f"cvar_sequence example2 rules changing every step, T={SWITCH_T}", SWITCH_T,
         lambda: evaluate.cvar_sequence(e2, switching, "1", SWITCH_T, 0.7)),
        ("monte-carlo",
         f"monte_carlo_eval example2 stationary, {MC_REPLICATIONS} replications x {MC_T} steps",
         MC_T,
         lambda: evaluate.monte_carlo_eval(e2, mc_policy, "1", MC_T, MC_REPLICATIONS,
                                           seed=0, alpha=0.7)),
        ("monte-carlo-few",
         f"monte_carlo_eval random_instance(1, 100, 4) stationary, {MC_FEW_REPLICATIONS} "
         f"replications x {MC_FEW_T} steps", MC_FEW_T,
         lambda: evaluate.monte_carlo_eval(big, big_policy, "s1", MC_FEW_T, MC_FEW_REPLICATIONS,
                                           seed=0, alpha=0.8)),
        ("monte-carlo-block",
         f"monte_carlo_eval example1 schedule, {MC_BLOCK_REPLICATIONS} replications x "
         f"{MC_BLOCK_T} steps", MC_BLOCK_T,
         lambda: evaluate.monte_carlo_eval(e1, block_schedule, "s1", MC_BLOCK_T,
                                           MC_BLOCK_REPLICATIONS, seed=0, alpha=0.5)),
        *scaling,
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

    write_run(args.out, args.label,
              {"benchmark": "wall time of cvar_sequence and monte_carlo_eval (numpy kernels)"},
              {"cases": rows}, blas_threads=True)


if __name__ == "__main__":
    main()

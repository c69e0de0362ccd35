"""Wall time and certificate gaps of in-process `solve_cvar` and
`verify_saddle`, and wall time of the endpoint scan, by instance size.

Run:  PYTHONPATH=src python3 benchmarks/bench_solve.py [--label after]
          [--seeds 3] [--out BENCH_solve.json] [--skip sparse-1000x4 ...]

Solve sizes: dense `model.random_instance` 8x3, 20x4, 60x4 and 100x4
(every kernel entry positive, K = pairs distinct rewards), sparse 100x4
and 400x4 from perfbench's `sparse_instance` (3 successors plus a ring edge
per pair, K = 24), and "sparse3" 400x4 and 1000x4: the sparse instance
with next-state rewards, each (pair, next state) entry drawn from the same
24-value grid, so that a pair pays several rewards (K counts the values
some pair pays with positive probability, at most 24). `verify_saddle` runs
at the solve sizes and sparse 1000x4 on the default solve's x*, v* and
certificate level; its time leaves the solve out.
`solve_cvar(mode="dual-primal")` (the occupation LP plus the minimax level
LP) runs at dense 8x3 and 20x4, sparse 100x4, 400x4 and 1000x4, and
sparse3 400x4. Scan sizes:
`solver.endpoint_scan_oracle` (what `cvarmdp scan` runs: one warm-started
`lp.solve_sweep` of the average LP over the K reward values, each later
point pivoting from the previous optimal basis, plus one level LP) on
sparse 100x4, 400x4 and 1000x4 (K = 24) and dense 20x4 (K = 80).
Everything runs at alpha = 0.8, beta = 0.5 for seeds 1..--seeds after a
warm-up, and a seed's time is the median of REPEATS calls on one instance
(its cached reward tables are built in the first), which drops one-off
outliers; solve times cover the whole `solve_cvar` call,
certificates included. The worst left, right (and, for `verify_saddle`,
oracle) gaps per size show tolerance drift as instances grow. A run that
raises `LpSolveError`, `SolverError` or `CapExceededError` is listed
under `failures` and left out of the times.

The scan and dual-primal rows also give, as medians over the seeds and
outside the timed call, the level LP's rows, cols and nnz; the scan rows
give the sweep's hot iterations, HiGHS's simplex iterations summed over
the sweep's points 1..K-1 (a dual-primal solve runs no sweep). Every
sparse3 row gives, as medians over the seeds, the wall time of building
the instance's reward grid and table (`table_build_s`, the median of
REPEATS builds) and the tracemalloc peak of one build (`table_peak_mib`).

The result is stored under `--label` in the output file; other labels
already there are kept, so runs of two versions of the package (put each
on PYTHONPATH in turn) land side by side in one file. `--skip` leaves a
size out of every table. In BENCH_solve.json, `before` is the package
whose reward sums ran over a dense (pair, next state) reward layout, zeros
included, and `after` the package whose sums run over the reward table of
paid atoms (`MdpInstance.reward_atoms`), both run from this script on one
machine; `before-2` and `after-2` are a second pair, run in the other
order, which shows how far the machine's speed drifts between runs. The
`*-paid-grid` labels hold only the sparse3 rows, with the table columns:
`before-paid-grid` is the package whose grid counted every reward entry,
paid or not, through a dense (pair, next state) index, and
`after-paid-grid` the one whose grid and table come from the paid entries
alone; they ran in the order before, after, after-2, before-2.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from record import write_run  # noqa: E402
from workloads import sparse_instance  # noqa: E402

from cvarmdp import lp, model, risk, solver  # noqa: E402

SIZES = (
    ("dense", 8, 3),
    ("dense", 20, 4),
    ("dense", 60, 4),
    ("dense", 100, 4),
    ("sparse", 100, 4),
    ("sparse", 400, 4),
    ("sparse3", 400, 4),
    ("sparse3", 1000, 4),
)
VERIFY = SIZES + (("sparse", 1000, 4),)
DUAL_PRIMAL = (
    ("dense", 8, 3),
    ("dense", 20, 4),
    ("sparse", 100, 4),
    ("sparse", 400, 4),
    ("sparse", 1000, 4),
    ("sparse3", 400, 4),
)
SCANS = (
    ("sparse", 100, 4),
    ("sparse", 400, 4),
    ("sparse", 1000, 4),
    ("dense", 20, 4),
)
PARAMS = risk.RiskParams(0.8, 0.5)
REPEATS = 3
FAILURES = (lp.LpSolveError, solver.SolverError, model.CapExceededError)


def make_instance(kind, seed, n_states, n_actions):
    if kind == "dense":
        return model.random_instance(seed, n_states, n_actions)
    inst = sparse_instance(seed, n_states, n_actions)
    if kind == "sparse":
        return inst
    grid = np.unique(inst.rewards)  # "sparse3": next-state rewards on the same grid
    rewards3 = grid[np.random.default_rng([seed, 3]).integers(grid.size, size=inst.kernel.shape)]
    return model.MdpInstance(f"{inst.name}-rewards3", inst.states, inst.actions, inst.kernel,
                             rewards3=rewards3)


def table_build(inst):
    """Median wall time over REPEATS builds of the reward grid and table
    (`reward_atoms`, which builds both), and the tracemalloc peak of one
    more, each on a fresh copy of inst, whose cache starts empty."""
    def fresh():
        return model.MdpInstance(inst.name, inst.states, inst.actions, inst.kernel,
                                 rewards=inst.rewards, rewards3=inst.rewards3)

    times = []
    for _ in range(REPEATS):
        copy = fresh()
        t0 = time.perf_counter()
        copy.reward_atoms
        times.append(time.perf_counter() - t0)
    copy = fresh()
    tracemalloc.start()
    try:
        copy.reward_atoms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"table_build_s": statistics.median(times), "table_peak_mib": peak / 2**20}


def _runs(kind, n_states, n_actions, seeds, call, prepare=None, counts=None):
    """Time call(prepare(instance)) REPEATS times per seed and keep the
    median; prepare runs once per seed and is not timed. counts(instance),
    also untimed, gives a dict of counts per seed, whose medians join the
    row, as do those of `table_build` on the sparse3 rows. Returns the
    size's row and the calls' results, one per seed."""
    times, results, failures, counted = [], [], [], []
    for seed in range(1, seeds + 1):
        inst = make_instance(kind, seed, n_states, n_actions)
        counted.append({**(counts(inst) if counts is not None else {}),
                        **(table_build(inst) if kind == "sparse3" else {})})
        arg = inst if prepare is None else prepare(inst)
        repeats = []
        try:
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                out = call(arg)
                repeats.append(time.perf_counter() - t0)
        except FAILURES as exc:
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        times.append(statistics.median(repeats))
        results.append(out)
    row = {
        "kind": kind,
        "states": n_states,
        "actions": n_actions,
        "distinct_rewards": int(risk.breakpoints(inst).size),
        "runs": seeds,
        "failures": failures,
        "wall_s": _wall(times),
    }
    for name in counted[0] if counted else ():
        row[name] = statistics.median(c[name] for c in counted)
    return row, results


def level_lp_counts(inst):
    """The level LP's rows, cols and nnz."""
    a = lp.build_level_lp(inst, PARAMS).A
    return {"level_rows": a.shape[0], "level_cols": a.shape[1], "level_nnz": int(a.data.size)}


def scan_counts(inst):
    """`level_lp_counts` plus the sweep's hot iterations: its HiGHS
    iterations after the first point, on the scan's own sweep."""
    ys = risk.breakpoints(inst)
    sweep = lp.solve_sweep(lp.build_average_lp(inst, float(ys[0]), PARAMS),
                           risk.saddle_coefficient_rows(inst, ys, PARAMS))
    return {"sweep_hot_nit": sum(point.nit for point in sweep[1:]), **level_lp_counts(inst)}


GAPS = {"left": "saddle_left_gap", "right": "saddle_right_gap", "oracle": "oracle_gap"}


def _worst(reports, row, names=("left", "right")):
    for name in names:
        row[f"worst_{name}_gap"] = max((getattr(r, GAPS[name]) for r in reports), default=None)
    return row


def bench_size(kind, n_states, n_actions, seeds, mode="dual"):
    row, sols = _runs(kind, n_states, n_actions, seeds,
                      lambda inst: solver.solve_cvar(inst, PARAMS, mode=mode),
                      counts=None if mode == "dual" else level_lp_counts)
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
                 lambda inst: solver.endpoint_scan_oracle(inst, PARAMS), counts=scan_counts)[0]


def _fmt(x, spec):
    return "-" if x is None else format(x, spec)


def _report(what, row):
    wall = row["wall_s"]
    line = (f"{what:11s} {row['kind']:7s} {row['states']:4d}x{row['actions']}  "
            f"K={row['distinct_rewards']:4d}  median {_fmt(wall and wall['median'], '8.3f')} s")
    if "sweep_hot_nit" in row:
        line += f"  hot it {row['sweep_hot_nit']:g}"
    if "table_build_s" in row:
        line += f"  table {row['table_build_s'] * 1e3:.1f} ms {row['table_peak_mib']:.2f} MiB"
    if "level_rows" in row:
        line += f"  level {row['level_rows']:g}x{row['level_cols']:g} nnz {row['level_nnz']:g}"
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

    write_run(args.out, args.label, {
        "benchmark": ("in-process solve_cvar and verify_saddle wall time and worst "
                      "certificate gaps, and endpoint-scan wall time, by size"),
        "params": {"alpha": PARAMS.alpha, "beta": PARAMS.beta},
    }, {"sizes": rows, "verify": verify, "dual_primal": dual_primal, "scans": scans})


if __name__ == "__main__":
    main()

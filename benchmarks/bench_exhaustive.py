"""Wall time of the exhaustive tools over every deterministic policy:
`chains.check_assumption` (what `cvarmdp check` runs) and
`solver.enumerate_deterministic` (what `cvarmdp enumerate` runs), and the
memory the enumeration's returned table keeps.

Run:  PYTHONPATH=src python3 benchmarks/bench_exhaustive.py [--label after]
          [--out BENCH_exhaustive.json]

Instances, 12 states x 3 actions each (3^12 = 531,441 policies):
- dense: `model.random_instance(1, 12, 3)`, every kernel entry positive, so
  every policy is one aperiodic class;
- ring-sparse: perfbench's `sparse_instance(1, 12, 3)`, 3 successors plus a
  ring edge per pair, so each policy is unichain but few are positive;
- multichain-heavy: `tests/test_chains.sparse_instance(default_rng(3), 12,
  [3] * 12)`, kernel rows with 1..12 successors, most often one, so tens of
  thousands of policies have several recurrent classes;
- multichain-heavy-rewards3: the same generator and seed with next-state
  rewards (`rewards3=True`), so each pair pays up to 12 reward atoms and the
  enumeration's reward laws dominate its time.

Each call runs REPEATS times, after a warm-up on a small instance, at
alpha = 0.8, beta = 0.5, and the row records the median and the range of
its wall times: one call's time spreads by up to 64 % between runs on a
2-CPU machine. The row also records the number of multichain policies (the
violators with more than one recurrent class in the report's `owner`
array) so runs on different versions can be checked to see the same
structure. After the timed calls, one more enumeration runs
under tracemalloc, and `enumerate_retained_mib` is the memory still
allocated when it returns, which is what the table holds on to.

The result is stored under `--label` in the output file; other labels
already there are kept, so runs of two versions of the package (put each
on PYTHONPATH in turn) land side by side in one file. This script reads
`AssumptionReport`'s arrays; a version whose report holds per-violator
objects is timed with that version's own copy of the script.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from record import write_run  # noqa: E402
from test_chains import sparse_instance as multichain_instance  # noqa: E402
from workloads import sparse_instance as ring_instance  # noqa: E402

from cvarmdp import chains, model, risk, solver  # noqa: E402

PARAMS = risk.RiskParams(0.8, 0.5)
REPEATS = 3

INSTANCES = (
    ("dense", lambda: model.random_instance(1, 12, 3)),
    ("ring-sparse", lambda: ring_instance(1, 12, 3)),
    ("multichain-heavy",
     lambda: multichain_instance(np.random.default_rng(3), 12, [3] * 12)),
    ("multichain-heavy-rewards3",
     lambda: multichain_instance(np.random.default_rng(3), 12, [3] * 12, rewards3=True)),
)


def _timed(call):
    """The call's last result and the median and range of its wall time
    over REPEATS calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times), [min(times), max(times)]


def bench_instance(name, make):
    inst = make()
    report, check_s, check_range = _timed(lambda: chains.check_assumption(inst))
    table, enumerate_s, enumerate_range = _timed(
        lambda: solver.enumerate_deterministic(inst, PARAMS))
    tracemalloc.start()
    table = solver.enumerate_deterministic(inst, PARAMS)
    retained = tracemalloc.get_traced_memory()[0] / 2**20
    tracemalloc.stop()
    row = {
        "instance": name,
        "states": inst.n_states,
        "pairs": inst.n_pairs,
        "policies": report.total,
        "violators": int(report.violators.size),
        "multichain_policies": int(np.count_nonzero(
            np.bincount(report.owner, minlength=report.violators.size) > 1)),
        "best_index": table.best_index,
        "check_s": check_s,
        "check_s_range": check_range,
        "enumerate_s": enumerate_s,
        "enumerate_s_range": enumerate_range,
        "enumerate_retained_mib": retained,
    }
    print(f"{name:25s} policies {row['policies']}  multichain {row['multichain_policies']:6d}  "
          f"check {check_s:7.2f} s  enumerate {enumerate_s:7.2f} s  "
          f"table {retained:6.1f} MiB")
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="current", help="key the run is stored under")
    ap.add_argument("--out", default="BENCH_exhaustive.json")
    args = ap.parse_args()

    warm = model.random_instance(0, 3, 2)
    chains.check_assumption(warm)
    solver.enumerate_deterministic(warm, PARAMS)
    rows = [bench_instance(name, make) for name, make in INSTANCES]

    write_run(args.out, args.label, {
        "benchmark": ("wall time of check_assumption and enumerate_deterministic over "
                      "every deterministic policy of 12x3 instances, and the memory "
                      "enumerate_deterministic's table keeps"),
        "params": {"alpha": PARAMS.alpha, "beta": PARAMS.beta},
        "repeats": REPEATS,
    }, {"instances": rows})


if __name__ == "__main__":
    main()

"""Start-up cost of cvarmdp: wall time of fresh interpreters, from process
start to exit, for four cases.

- numpy:  `python -c "import numpy"`, the floor every case pays;
- import: `python -c "import cvarmdp.cli"`;
- solve:  `python -m cvarmdp solve --builtin example2 --alpha 0.7 --json`;
- scan:   `python -m cvarmdp scan --builtin example2 --alpha 0.7 --json`.

Run:  PYTHONPATH=src python3 benchmarks/bench_startup.py [--label after]
          [--out BENCH_startup.json]

The solve and the scan take a few milliseconds each; the rest is starting
the interpreter and importing numpy, scipy and cvarmdp. Each of ROUNDS
rounds runs the four cases once, each one after a calibration interpreter
(perfbench's `SETUP_CALIBRATION_ARGV`: numpy, scipy.optimize and
scipy.sparse.csgraph, no cvarmdp), with one more calibration after the last
case. Next to its plain time each case gets a scaled time, as perfbench's
`setup_s`: the plain time times SETUP_REFERENCE_S over the mean of the two
calibrations on either side of it, which takes out most of the machine's
drift in speed between runs. The median and quartiles of both are stored.

The children inherit the environment and the working directory, so they
import whichever cvarmdp PYTHONPATH names. The result is stored under
`--label` in the output file; other labels already there are kept, so runs
of two versions of the package (put each on PYTHONPATH in turn) land side
by side in one file.
"""

import argparse
import importlib.util
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from calibration import SETUP_CALIBRATION_ARGV, SETUP_REFERENCE_S  # noqa: E402
from record import write_run  # noqa: E402

ROUNDS = 11
CLI = ["--builtin", "example2", "--alpha", "0.7", "--json"]
CASES = (
    ("numpy", ["-c", "import numpy"]),
    ("import", ["-c", "import cvarmdp.cli"]),
    ("solve", ["-m", "cvarmdp", "solve", *CLI]),
    ("scan", ["-m", "cvarmdp", "scan", *CLI]),
)


def _time_child(argv):
    """Seconds from starting a fresh interpreter on argv until it exits."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} failed (exit {proc.returncode}): {proc.stderr}")
    return elapsed


def _summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="current", help="key the run is stored under")
    ap.add_argument("--out", default="BENCH_startup.json")
    args = ap.parse_args()

    if importlib.util.find_spec("cvarmdp") is None:
        raise SystemExit("error: cvarmdp is not importable; put its src/ on PYTHONPATH")
    _time_child(SETUP_CALIBRATION_ARGV)  # warm the file cache
    plain = {name: [] for name, _ in CASES}
    scaled = {name: [] for name, _ in CASES}
    calibration = [_time_child(SETUP_CALIBRATION_ARGV)]
    for _ in range(ROUNDS):
        for name, argv in CASES:
            wall = _time_child(argv)
            calibration.append(_time_child(SETUP_CALIBRATION_ARGV))
            plain[name].append(wall)
            scaled[name].append(wall * 2 * SETUP_REFERENCE_S / sum(calibration[-2:]))

    cases = []
    for name, argv in CASES:
        row = {"case": name, "argv": argv, "plain_s": _summary(plain[name]),
               "scaled_s": _summary(scaled[name])}
        cases.append(row)
        print(f"{name:7s} plain {row['plain_s']['median']:.3f} s  "
              f"scaled {row['scaled_s']['median']:.3f} s "
              f"[{row['scaled_s']['q1']:.3f}, {row['scaled_s']['q3']:.3f}]")

    write_run(args.out, args.label, {
        "benchmark": ("wall time of fresh interpreters that import numpy (the floor) or "
                      "cvarmdp.cli, or run `cvarmdp solve|scan` on example2, process start "
                      "to exit"),
        "rounds": ROUNDS,
        "calibration": {"argv": SETUP_CALIBRATION_ARGV, "reference_s": SETUP_REFERENCE_S},
    }, {"calibration_s": _summary(calibration), "cases": cases})


if __name__ == "__main__":
    main()

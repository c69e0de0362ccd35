"""cvarmdp benchmark: one workload, one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; cvarmdp is imported from its `src/`.
Workloads: solve-small, scan-dense, scan-sparse, evolve (see README.md).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones, from a run in which every op runs once untraced and once traced.
Lines before it report the environment, fail_ratio, the ungated figures
(op_s.p90, plain wall op and set-up times, calibration speed) and, on evolve, the
steps/s figures.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; inherited by the set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
SMOKE_SECONDS = 0.3


def _program_src():
    src = ROOT / "src"
    if not (src / "cvarmdp" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvarmdp sources under {src}")
    return src


def _import_program():
    """Put the checkout's src/ first on the path and import cvarmdp from it."""
    src = _program_src()
    sys.path.insert(0, str(src))
    import cvarmdp

    if Path(cvarmdp.__file__).resolve().parent != (src / "cvarmdp").resolve():
        raise SystemExit(f"error: imported cvarmdp from {cvarmdp.__file__}, not {src}")


def _workdir(workload, seed):
    path = WORK / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def _remove(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def setup_child(workload, seed, size, workdir):
    """Import the program and build the inputs, then say 'ready'."""
    _import_program()
    import workloads

    workloads.build(workload, seed, str(workdir), size)
    print("ready", flush=True)


def _time_child(argv):
    """Seconds from starting a fresh interpreter on argv until it prints 'ready'."""
    cmd = [sys.executable, *argv]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} failed (exit {proc.returncode})")
    return elapsed


def time_setup(workload, seed, size):
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    workdir = _workdir(workload, seed)
    try:
        return _time_child([str(Path(__file__).resolve()), "--setup-child", str(workdir),
                            "--workload", workload, "--seed", str(seed), "--size", size])
    finally:
        _remove(workdir)


def time_setups(workload, seed, size, reps):
    """(set-up times at reference speed, plain wall set-up times): each set-up
    is scaled by the mean of the calibration interpreters on either side."""
    from calibration import SETUP_CALIBRATION_ARGV, SETUP_REFERENCE_S

    calibrations = [_time_child(SETUP_CALIBRATION_ARGV)]
    wall = []
    for _ in range(reps):
        wall.append(time_setup(workload, seed, size))
        calibrations.append(_time_child(SETUP_CALIBRATION_ARGV))
    scaled = [w * 2 * SETUP_REFERENCE_S / (a + b)
              for w, a, b in zip(wall, calibrations, calibrations[1:])]
    return scaled, wall


def environment():
    import scipy
    from cvarmdp import _kernels

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "kernels": "numba" if _kernels.USE_NUMBA else "numpy",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


@dataclass
class Record:
    op: object
    dur: float              # wall seconds
    outcome: str            # "" passed, a known defect, or a failure message
    traced: bool = False
    scale: float = 1.0      # REFERENCE_S / calibration seconds around the op

    @property
    def ref_dur(self):
        return self.dur * self.scale


def _run_op(op, tracer=None, op_id=0, keep=False):
    """One timed op and its checked outcome."""
    try:
        if tracer is None:
            start = time.perf_counter()
            out = op.run()
            dur = time.perf_counter() - start
        else:
            tracer.install()
            try:
                out, dur = tracer.run_op(op_id, op.kind, op.run, keep)
            finally:
                tracer.uninstall()
    except Exception as e:  # an op that raises is a failed op, not a crashed run
        return 0.0, f"{type(e).__name__}: {e}"
    try:
        return dur, op.check(out, op.ref)
    except Exception as e:
        return dur, f"check raised {type(e).__name__}: {e}"


def run_loop(ops, seconds, tracer=None):
    """Closed loop over the op sequence until `seconds` have passed.

    Untraced, the machine-speed calibration runs between ops, and each op
    is scaled by the mean of the calibrations on either side of it.
    With a tracer every op runs twice, untraced and traced, in alternating
    order, so each pair gives the tracing overhead; raw spans are kept for
    the first traced op of each kind.
    """
    from calibration import REFERENCE_S, Calibration

    calibration = Calibration() if tracer is None else None
    before = calibration.seconds() if calibration else None
    records = []
    deadline = time.perf_counter() + seconds
    kept = set()
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        if tracer is None:
            dur, outcome = _run_op(op)
            after = calibration.seconds()
            records.append(Record(op, dur, outcome, scale=2 * REFERENCE_S / (before + after)))
            before = after
        else:
            keep = op.kind not in kept
            kept.add(op.kind)
            order = (False, True) if i % 2 == 0 else (True, False)
            for traced in order:
                records.append(Record(op, *_run_op(op, tracer if traced else None, i,
                                                  keep and traced), traced))
        i += 1
    return records


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(records, setup_times):
    """Gated metrics; op and set-up times are at reference speed (see calibration.py)."""
    passed = [r.ref_dur for r in records if r.outcome == ""]
    op_time = sum(r.ref_dur for r in records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(passed) / op_time if op_time else 0.0, "ops/s"),
        "op_s.p50": (_percentile(passed, 50), "s"),
    }


def report(records):
    """Ungated figures: sample count, tail latency when at least 10 ops lie
    beyond the 90th percentile, and the same figures in plain wall time."""
    passed = [r for r in records if r.outcome == ""]
    lines = [f"ops_completed {len(passed)} ops"]
    if len(passed) >= 100:
        lines.append(f"op_s.p90 {_percentile([r.ref_dur for r in passed], 90)!r} s")
    wall = [r.dur for r in passed]
    wall_time = sum(r.dur for r in records)
    lines += [f"wall.ops_per_s {len(wall) / wall_time if wall_time else 0.0!r} ops/s",
              f"wall.op_s.p50 {_percentile(wall, 50)!r} s",
              f"calibration_speed {statistics.median(r.scale for r in records)!r} x reference"]
    return lines


def evolve_rates(records):
    """Exact and Monte Carlo steps per second of op time at reference speed."""
    steps, secs = {}, {}
    for r in records:
        if r.outcome == "" and r.op.rate:
            steps[r.op.rate] = steps.get(r.op.rate, 0) + r.op.steps
            secs[r.op.rate] = secs.get(r.op.rate, 0.0) + r.ref_dur
    return {f"{k}_steps_per_s": (steps[k] / secs[k], "steps/s") for k in sorted(steps)}


def run_workload(workload, seed, seconds, trace, size="full", corrupt=False):
    """Set up, compute references, run, and return (metrics, report lines,
    attempted, failed). Set-up children run before this process imports
    the program."""
    _program_src()
    setup_times, setup_wall = time_setups(workload, seed, size,
                                          SETUP_REPS if size == "full" else 1)
    _import_program()
    import layers
    import workloads
    from spans import Tracer

    workdir = _workdir(workload, seed)
    try:
        inputs = workloads.build(workload, seed, str(workdir), size)
        ops = workloads.make_ops(workload, inputs)
        if corrupt:
            workloads.perturb(ops[0])
        tracer = Tracer() if trace else None
        records = run_loop(ops, seconds, tracer)
    finally:
        _remove(workdir)

    failed = [r for r in records if r.outcome and not workloads.is_known(r.outcome)]
    known = {k: sum(r.outcome == k for r in records) for k in (workloads.KNOWN_CAP, workloads.KNOWN_LP)}
    env = environment()
    lines = [f"# workload={workload} seed={seed} seconds={seconds} trace={trace}",
             "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
             f"fail_ratio {(len(failed) + sum(known.values())) / len(records)!r} "
             f"({len(records)} attempted, {len(failed)} wrong or unexpected)"]
    lines += [f"# {n} x {k}" for k, n in known.items() if n]
    lines += [f"# failed {r.op.kind}: {r.outcome}" for r in failed[:5]]
    if trace:
        metrics = layers.per_layer(records, tracer)
        OUT.mkdir(exist_ok=True)
        layers.write_trace(OUT / f"trace-{workload}-seed{seed}.json", env, metrics, tracer)
    else:
        metrics = end_to_end(records, setup_times)
        lines += report(records)
        lines.append(f"wall.setup_s {statistics.median(setup_wall)!r} s")
        if workload == "evolve":
            lines += [f"{k} {v!r} {u}" for k, (v, u) in evolve_rates(records).items()]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines, len(records), len(failed)


def smoke():
    """Every workload at tiny sizes, both trace modes: each declared metric
    must be emitted with its declared unit, and a perturbed reference must
    turn an op into a failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        before = len(problems)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics, _, attempted, failed = run_workload(workload, 1, SMOKE_SECONDS, trace, "smoke")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: unit for name, (_, unit) in metrics.items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                "missing or extra, or units differ")
            if failed:
                problems.append(f"{workload} trace={trace}: {failed} of {attempted} ops failed")
        _, _, _, failed = run_workload(workload, 1, SMOKE_SECONDS, 0, "smoke", corrupt=True)
        if not failed:
            problems.append(f"{workload}: a perturbed reference did not fail its op")
        print(f"smoke {workload}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("solve-small", "scan-dense", "scan-sparse", "evolve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload: check metric names, units and checks")
    ap.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_child:
        setup_child(args.workload, args.seed, args.size, args.setup_child)
        return 0
    metrics, lines, attempted, failed = run_workload(args.workload, args.seed, args.seconds,
                                                     args.trace, args.size)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

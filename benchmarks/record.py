"""The output step the `bench_*.py` scripts share: merge one labelled run,
with a record of the machine it ran on, into a `BENCH_*.json` file. Other
labels already in the file are kept, so runs of two versions of the package
land side by side."""

import json
import os
import platform
from pathlib import Path

import numpy as np
import scipy


def write_run(path, label, header, run, blas_threads=False):
    """Set the file's top-level `header` keys, store runs[label] as the
    machine record followed by the keys of `run`, and rewrite the file.

    blas_threads adds OPENBLAS_NUM_THREADS to the machine record.
    """
    machine = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
    }
    if blas_threads:
        machine["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    machine["platform"] = platform.platform()
    out = Path(path)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(header)
    doc.setdefault("runs", {})[label] = {"machine": machine, **run}
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} [{label}]")

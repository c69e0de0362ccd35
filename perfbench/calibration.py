"""Machine-speed calibration for the end-to-end timings.

The shared machine this benchmark was tuned on changes speed by 20-40 %
over minutes, and every layer of cvarmdp slows down with it. A fixed
scipy workload that does not touch cvarmdp -- HiGHS dual simplex on a
fixed 30x40 LP, then strongly connected components of a fixed 12-node
graph through scipy.sparse -- slows down the same way. It is timed
between untraced ops, and each op's wall time is scaled by REFERENCE_S /
(the mean of the two timings on either side of it). Over 20-second
windows, scaling by the timing just before each op cut the spread of
solve and scan op times from 15 % to 2.4 % (coefficient of variation).
Because the calibration never calls cvarmdp, a change to cvarmdp cannot
move it.

Set-up is timed in fresh interpreters, and most of it is importing numpy
and scipy, so the in-process workload above tracks it poorly. Each set-up
child is instead scaled by SETUP_REFERENCE_S / (the mean time of the
fresh interpreter SETUP_CALIBRATION_ARGV runs on either side of it). That
interpreter imports the numpy and scipy modules the calibration uses, and
no cvarmdp. Scaling by it cut the spread of single set-up times from
15 % to 10 % (coefficient of variation over 30 set-ups).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

REFERENCE_S = 0.003   # what one unit takes at reference speed
REPS = 2
SETUP_REFERENCE_S = 0.65   # what SETUP_CALIBRATION_ARGV takes at reference speed
SETUP_CALIBRATION_ARGV = ["-c", "import numpy, scipy.optimize, scipy.sparse.csgraph; "
                                "print('ready', flush=True)"]


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((30, 40))
        self.b = self.a.sum(axis=1)
        self.c = -rng.random(40)
        self.adj = rng.random((12, 12)) < 0.3

    def _unit(self):
        linprog(self.c, A_ub=self.a, b_ub=self.b, bounds=[(0, 1)] * 40, method="highs-ds")
        connected_components(csr_matrix(self.adj), connection="strong")

    def seconds(self):
        """Mean wall time of one unit, over REPS units."""
        start = time.perf_counter()
        for _ in range(REPS):
            self._unit()
        return (time.perf_counter() - start) / REPS

"""Hot numeric loops: exact law evolution, per-step CVaR, Monte Carlo steps.

`_run_bounds` splits the rule rows into runs of identical rules; the
exact evolution and `evaluate.monte_carlo_eval`, which builds one policy
table of levels per run, both walk them. `pair_law_blocks` is the one
push-forward of the state law; `cvar_sequence_kernel` and
`evaluate.t_step_distribution` both read it. It pushes the law one step
at a time, as `pk = mu[pair_state] * rule`, `mu = pk @ kernel`.
Once a run's law comes back bit for bit to its value of two steps
before, the rest of the run repeats its last two laws and is copied into
the buffer instead of computed, so a stationary or block schedule pays
Python work per step only until its law settles, and every law is the
one the plain loop gives. `cvar_sequence_kernel` maps each buffer of
pair laws to reward laws with one sparse product and values them with
one `risk.cvar_right_rows` pass. `mc_step` advances every Monte Carlo
replication by one step from pre-drawn uniforms, counting the CDF levels
each uniform reaches one level (or one slab of levels) at a time.
`benchmarks/bench_kernels.py` times them and writes
`BENCH_kernels.json`.
"""

from __future__ import annotations

import numpy as np

from .risk import cvar_right_rows

# Entries of each buffer of step laws; bounds the memory of the evolution
# whatever the horizon.
LAW_BLOCK_ENTRIES = 2**16

# Always False: there is one (numpy) path; perfbench's environment record
# still reads this name.
USE_NUMBA = False


# -- state-distribution evolution --------------------------------------------
#
# mu is the law of the state at time t; one step maps it through the policy
# row u_t(a|s) and the kernel P(j|i,a). `rules` has either one row (reused
# every step, the stationary case) or one row per step.


def _run_bounds(rules, T):
    """Start of each run of identical rule rows among steps 0..T-1, then T."""
    if rules.shape[0] == 1:
        return [0, T]
    change = np.flatnonzero((rules[1:T] != rules[: T - 1]).any(axis=1)) + 1
    return [0, *change.tolist(), T]


def pair_law_blocks(kernel, pair_state, rules, mu0, T, rows):
    """Yield the pair laws of steps 0..T-1 as consecutive (<= rows, pairs)
    blocks. Each block is a view of one buffer that the next overwrites.

    Inside a run of identical rules the state law is pushed one step at a
    time until it comes back, bit for bit, to its value of two steps
    before. The push is then periodic (period 1 or 2): the same float
    operations on the same inputs. So the rest of the run repeats the last
    two laws exactly, and is copied instead of computed."""
    buf = np.empty((min(rows, T), kernel.shape[0]))
    mu, i = mu0, 0
    bounds = _run_bounds(rules, T)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rule, prev, cycle, t = rules[start], None, None, start
        while t < stop:
            if i == buf.shape[0]:
                yield buf
                i = 0
            if cycle is None:
                m = 1
                buf[i] = pk = mu[pair_state] * rule
                nxt = pk @ kernel
                if prev is not None and nxt.tobytes() == prev.tobytes():
                    # state laws of the next two steps, repeating from then on
                    cycle = np.stack([nxt, mu])
                prev, mu = mu, nxt
            else:
                m = min(stop - t, buf.shape[0] - i)
                laws = cycle[:, pair_state] * rule
                buf[i : i + m : 2] = laws[0]
                buf[i + 1 : i + m : 2] = laws[1]
                if m % 2:
                    cycle = cycle[::-1]
                mu = cycle[0]
            i += m
            t += m
    yield buf[:i]


def cvar_sequence_kernel(kernel, pair_state, rules, mu0, T, alpha, atoms, values):
    """Per-step CVaR_alpha of the reward law for t < T, and the drift of
    each step's total mass from 1. `atoms` is the (len(values), pairs)
    CSR matrix whose entry [v, k] is the probability that pair k pays
    values[v]. The laws of up to LAW_BLOCK_ENTRIES / max(len(values),
    pairs) consecutive steps are mapped and valued together."""
    per_step, drift = np.empty(T), np.empty(T)
    start = 0
    rows = max(1, LAW_BLOCK_ENTRIES // max(values.size, kernel.shape[0]))
    for block in pair_law_blocks(kernel, pair_state, rules, mu0, T, rows):
        laws = (atoms @ block.T).T
        stop = start + block.shape[0]
        drift[start:stop] = np.abs(1.0 - laws.sum(axis=1))
        per_step[start:stop] = cvar_right_rows(values, laws, alpha)
        start = stop
    return per_step, drift


def _reached(u, levels, cols):
    """How many of the levels levels[:, cols] each uniform in u reaches.
    Many uniforms compare one level at a time. Few (at most
    LAW_BLOCK_ENTRIES / 8) compare slabs of at least eight levels in one
    go: that saves a Python pass per level, and below that size the
    saving outweighs the slab's extra reduction pass."""
    count = np.zeros(u.size, dtype=np.int64)
    per = LAW_BLOCK_ENTRIES // u.size
    if per < 8:
        for level in levels:
            count += u >= level[cols]
    else:
        for j in range(0, levels.shape[0], per):
            count += (u >= np.take(levels[j : j + per], cols, axis=1)).sum(axis=0)
    return count


def mc_step(states, u_act, u_nxt, rule_cdf, offsets, kernel_cdf):
    """One step of every replication: the pair each plays and the state it
    reaches. Row j of rule_cdf (width - 1, states) and of kernel_cdf
    (states - 1, pairs) is the CDF after the (j+1)-th action or next state;
    a uniform picks as many as it reaches of these levels."""
    pairs = offsets[states] + _reached(u_act, rule_cdf, states)
    return pairs, _reached(u_nxt, kernel_cdf, pairs)

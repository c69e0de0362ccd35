"""Hot numeric loops: exact law evolution, per-step CVaR, Monte Carlo steps.

One numpy implementation of each: `evolve_mu` and `cvar_sequence_kernel`
push the state law forward one step at a time, and `mc_step` advances
every Monte Carlo replication by one step from pre-drawn uniforms.
`cvar_sequence_kernel` buffers the step laws and takes their CVaR from
`risk.cvar_right_rows`, one pass per buffer.
`benchmarks/bench_kernels.py` times them and writes `BENCH_kernels.json`.
"""

from __future__ import annotations

import numpy as np

from .risk import cvar_right_rows

# Entries of the buffer of step laws that `cvar_sequence_kernel` values in
# one `cvar_right_rows` pass; bounds its memory whatever the horizon.
LAW_BLOCK_ENTRIES = 2**16

# Always False: there is one (numpy) path; perfbench's environment record
# still reads this name.
USE_NUMBA = False


# -- state-distribution evolution --------------------------------------------
#
# mu is the law of the state at time t; one step maps it through the policy
# row u_t(a|s) and the kernel P(j|i,a). `rules` has either one row (reused
# every step, the stationary case) or one row per step.


def _rule_row(rules, t):
    return rules[0] if rules.shape[0] == 1 else rules[t]


def evolve_mu(kernel, pair_state, rules, mu0, t):
    mu = mu0.copy()
    for s in range(t):
        pk = mu[pair_state] * _rule_row(rules, s)
        mu = pk @ kernel
    return mu


def cvar_sequence_kernel(kernel, pair_state, rules, mu0, T, alpha, atom_index, values, probs):
    """Per-step CVaR_alpha of the reward law for t < T, and the largest
    drift of its total mass from 1. Pair k pays the reward with index
    atom_index[k, c] in `values` with probability probs[k, c] (the
    instance's `reward_atoms` layout). The laws of up to
    LAW_BLOCK_ENTRIES / len(values) consecutive steps are valued together."""
    per_step = np.empty(T)
    mu = mu0.copy()
    max_drift = 0.0
    flat_index = atom_index.ravel()
    laws = np.empty((max(1, LAW_BLOCK_ENTRIES // values.size), values.size))
    for start in range(0, T, laws.shape[0]):
        block = laws[: T - start]
        for i in range(block.shape[0]):
            pk = mu[pair_state] * _rule_row(rules, start + i)
            block[i] = np.bincount(flat_index, weights=(pk[:, None] * probs).ravel(),
                                   minlength=values.size)
            mu = pk @ kernel
        max_drift = max(max_drift, float(np.abs(1.0 - block.sum(axis=1)).max()))
        per_step[start : start + block.shape[0]] = cvar_right_rows(values, block, alpha)
    return per_step, max_drift


def mc_step(states, u_act, u_nxt, rule_cdf2d, counts2d, offsets, kernel_cdf):
    # First index where the uniform falls below the padded per-state rule CDF.
    local = (u_act[:, None] >= rule_cdf2d[states]).sum(axis=1)
    local = np.minimum(local, counts2d[states] - 1)
    pairs = offsets[states] + local
    nxt = (u_nxt[:, None] >= kernel_cdf[pairs]).sum(axis=1)
    nxt = np.minimum(nxt, kernel_cdf.shape[1] - 1)
    return pairs, nxt

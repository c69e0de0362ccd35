"""Hot numeric loops: exact law evolution, per-step CVaR, Monte Carlo steps.

One numpy implementation of each: `evolve_mu` and `cvar_sequence_kernel`
push the state law forward one step at a time, and `mc_step` advances
every Monte Carlo replication by one step from pre-drawn uniforms.
`benchmarks/bench_kernels.py` times them and writes `BENCH_kernels.json`.
"""

from __future__ import annotations

import numpy as np

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


def cvar_sequence_kernel(kernel, pair_state, rules, mu0, T, alpha, atom_index, values):
    """Per-step CVaR_alpha of the reward law for t < T, and the largest
    drift of its total mass from 1. `atom_index` maps each pair (1-D) or
    each (pair, next state) (2-D) to its reward's index in `values`."""
    per_step = np.empty(T)
    mu = mu0.copy()
    tail = 1.0 - alpha
    max_drift = 0.0
    triple = atom_index.ndim == 2
    flat_index = atom_index.ravel()
    for t in range(T):
        pk = mu[pair_state] * _rule_row(rules, t)
        if triple:
            q = np.bincount(flat_index, weights=(pk[:, None] * kernel).ravel(), minlength=values.size)
        else:
            q = np.bincount(atom_index, weights=pk, minlength=values.size)
        drift = abs(1.0 - float(q.sum()))
        if drift > max_drift:
            max_drift = drift
        ctop = np.cumsum(q[::-1])
        prev = ctop - q[::-1]
        w = np.clip(np.minimum(ctop, tail) - prev, 0.0, None)
        per_step[t] = float(values[::-1] @ w) / tail
        mu = pk @ kernel
    return per_step, max_drift


def mc_step(states, u_act, u_nxt, rule_cdf2d, counts2d, offsets, kernel_cdf):
    # First index where the uniform falls below the padded per-state rule CDF.
    local = (u_act[:, None] >= rule_cdf2d[states]).sum(axis=1)
    local = np.minimum(local, counts2d[states] - 1)
    pairs = offsets[states] + local
    nxt = (u_nxt[:, None] >= kernel_cdf[pairs]).sum(axis=1)
    nxt = np.minimum(nxt, kernel_cdf.shape[1] - 1)
    return pairs, nxt

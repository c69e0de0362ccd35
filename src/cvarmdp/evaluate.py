"""Finite-horizon policy evaluation: exact per-step CVaR sequences, their
running averages, and a sampling-based sanity layer.

The per-step laws are pushed forward exactly through the kernel; Monte
Carlo exists only to cross-check that evolution, never as the primary
evaluator. The loops of both live in `_kernels`; this module sets up
their inputs: the sparse map from pair laws to reward laws for
`cvar_sequence`, and for `monte_carlo_eval` the rule and kernel CDFs as
level tables, both built by `_levels`; it reads rewards through
`MdpInstance.step_grid`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels, chains, risk
from .model import TimeDependentPolicy, rule_rows

# Floor of the mass-drift gate: what float rounding may move the mass of a
# law whose kernel, rule and reward rows sum to 1 exactly (see _mass_budget).
MASS_DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class CvarSequence:
    """Per-step CVaR values and their running (Cesaro) averages."""

    per_step: np.ndarray
    cesaro: np.ndarray
    alpha: float
    initial_state: str
    policy_label: str

    def __len__(self):
        return self.per_step.size


def _atom_matrix(instance):
    """(K, pairs) CSR matrix, K the size of the instance's reward grid,
    whose entry [v, k] is the probability that pair k pays values[v]. A
    pair's atoms stay separate entries, in (pair, atom) order, so a product
    adds the same terms in the same order as `risk.reward_law_rows`'
    bincount. scipy.sparse is imported here, not at module level, so that a
    solve never loads it."""
    from scipy import sparse

    pair, grid, prob = instance.reward_atoms
    order = np.argsort(grid, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(grid))))  # every value is paid
    return sparse.csr_array((prob[order], pair[order], indptr),
                            shape=(indptr.size - 1, instance.n_pairs))


def _mass_budget(instance, rules, T):
    """How far from 1 the total mass of each step's reward law, t < T, may
    drift with no bug: MASS_DRIFT_TOL plus the rows' own error. Each of the
    t + 1 rule applications behind step t can move the mass by as much as
    a state's action weights miss 1, each of its t kernel pushes by as
    much as a kernel row misses 1, and the map to rewards by as much as a
    pair's reward atoms miss 1 (all as float sums). Rows that sum to 1
    exactly leave the gate at MASS_DRIFT_TOL."""
    def miss(sums):
        return float(np.abs(sums - 1.0).max())

    rule = miss(np.add.reduceat(rules, instance.offsets[:-1], axis=1))
    pair, _, prob = instance.reward_atoms
    first = MASS_DRIFT_TOL + rule + miss(risk.atom_sums(prob, pair, instance.n_pairs))
    return first + np.arange(T) * (rule + miss(instance.kernel.sum(axis=1)))


def _setup(instance, policy, s0, T):
    """Start-state index, rule rows and policy label of a T-step evaluation.
    s0 is a state name or an index in [0, n_states)."""
    if T < 1:
        raise ValueError("T must be at least 1")
    s0 = instance.state_index(s0) if isinstance(s0, str) else operator.index(s0)
    if not 0 <= s0 < instance.n_states:
        raise ValueError(f"s0 must be a state name or an index in [0, {instance.n_states}), "
                         f"got {s0!r}")
    rules, label = rule_rows(policy, T)
    return s0, rules, label


def _check_mass(drift, budget, first=0):
    """Raise if the mass of step first + i drifted from 1 beyond budget[i]."""
    over = ~(drift <= budget)
    if over.any():
        t = int(np.argmax(over))
        raise chains.ChainStructureError(f"probability mass drifted by {drift[t]:.3g} at step "
                                         f"{first + t}, beyond its budget {budget[t]:.3g}")


def cvar_sequence(instance, policy, s0, T, alpha):
    """Exact CVaR of the reward law at every step t < T from state s0.

    No sampling and no renormalization: the law of each step's reward is
    computed from the evolved state distribution, and a total-mass drift
    beyond what the rows' own rounding allows (`_mass_budget`) raises
    since it indicates a bug in the evolution.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    s0, rules, label = _setup(instance, policy, s0, T)
    mu0 = np.eye(1, instance.n_states, s0)[0]
    per_step, drift = _kernels.cvar_sequence_kernel(
        instance.kernel, instance.pair_state, rules, mu0, int(T), float(alpha),
        _atom_matrix(instance), instance.reward_values)
    _check_mass(drift, _mass_budget(instance, rules, T))
    cesaro = np.cumsum(per_step) / np.arange(1, T + 1)
    return CvarSequence(per_step=per_step, cesaro=cesaro, alpha=float(alpha),
                        initial_state=instance.states[s0], policy_label=label)


def limsup_liminf_estimate(seq, window):
    """Extremes of the running averages over the trailing window.

    These are finite-horizon estimates of the limsup and liminf of the
    Cesaro sequence, not the limits themselves.
    """
    if not 1 <= window <= len(seq):
        raise ValueError(f"window must lie in [1, {len(seq)}]")
    tail = seq.cesaro[-window:]
    return float(tail.max()), float(tail.min())


def example1_block_boundaries(T):
    """Start times (3^k - 1) / 2 of the alternating blocks, up to T."""
    out = []
    k = 1
    while True:
        b = (3**k - 1) // 2
        if b > T:
            return np.array(out, dtype=np.int64)
        out.append(b)
        k += 1


def example1_swing_window(T):
    """Trailing window over which the oscillator's running average makes a
    full swing: it reaches back to the last rising block end before the
    final block end, so both a maximum (near +1) and a minimum (-1) of the
    Cesaro sequence lie inside it.
    """
    ends = example1_block_boundaries(T) - 1
    rising = ends[:-1][::2]  # block j ends a rise for even j
    return T - int(rising[-1]) if rising.size else T


def example1_policy(T):
    """The deterministic switching schedule of the two-state oscillator.

    Starting in the first state, the policy stays one step, switches and
    stays 3 steps, switches back for 3^2 steps, then 3^3, and so on; the
    switch action is taken on the last step of each block. The T rows are
    written from the block boundaries, so any horizon is cheap. A horizon
    below 1 gives an empty schedule, which every evaluation refuses.
    """
    T = max(int(T), 0)
    rows = np.tile([1.0, 0.0, 0.0, 1.0], (T, 1))
    rows[example1_block_boundaries(T) - 1] = [0.0, 1.0, 1.0, 0.0]
    return TimeDependentPolicy.from_rules(rows, label="example1-schedule")


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical reward histograms per step and the CVaR sequence they imply.

    counts[t, v] is the number of replications whose step-t reward equals
    values[v]; cvar[t] is the CVaR of that empirical law.
    """

    values: np.ndarray
    counts: np.ndarray
    cvar: np.ndarray
    replications: int


def _levels(table):
    """Row-wise CDFs of a probability table as the (width - 1, rows) levels
    `_kernels.mc_step` reads. From each row's last positive entry on they
    read 2.0, which no uniform reaches, so the count of levels a uniform
    reaches picks an entry of positive probability even where the row sums
    to a little under 1."""
    width = table.shape[1]
    last = width - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
    cdf = np.cumsum(table, axis=1)
    cdf[np.arange(width) >= last[:, None]] = 2.0
    return np.ascontiguousarray(cdf[:, :-1].T)


def monte_carlo_eval(instance, policy, s0, T, replications, seed, *, alpha):
    """Sample the process and report empirical per-step reward laws.

    All replications advance in lockstep from one seeded generator, so a
    fixed seed reproduces the result exactly. The empirical per-step CVaR
    converges to the exact sequence at the usual square-root rate.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    s0, rules, _ = _setup(instance, policy, s0, T)
    values = instance.reward_values
    rng = np.random.default_rng(seed)

    kernel_cdf = _levels(instance.kernel)
    offsets = np.asarray(instance.offsets[:-1], dtype=np.int64)
    slot = np.arange(instance.n_pairs) - offsets[instance.pair_state]
    # a rule row as (states, most actions), zero past each state's last action
    table = np.zeros((instance.n_states, int(np.diff(instance.offsets).max())))

    states = np.full(replications, s0, dtype=np.int64)
    counts = np.zeros((T, values.size), dtype=np.int64)
    bounds = _kernels._run_bounds(rules, T)
    for start, stop in zip(bounds[:-1], bounds[1:]):  # one table per run of identical rules
        table[instance.pair_state, slot] = rules[start]
        rule_cdf = _levels(table)
        for t in range(start, stop):
            u_act = rng.random(replications)
            u_nxt = rng.random(replications)
            pairs, nxt = _kernels.mc_step(states, u_act, u_nxt, rule_cdf, offsets, kernel_cdf)
            counts[t] = np.bincount(instance.step_grid(pairs, nxt), minlength=values.size)
            states = nxt

    # valued in row blocks so the float temporaries stay bounded
    cvar = np.empty(T)
    rows = max(1, _kernels.LAW_BLOCK_ENTRIES // values.size)
    for start in range(0, T, rows):
        cvar[start : start + rows] = risk.cvar_right_rows(
            values, counts[start : start + rows] / replications, alpha)
    return MonteCarloResult(values=values, counts=counts, cvar=cvar,
                            replications=replications)


def t_step_distribution(instance, policy, s0, t):
    """Exact law over state-action pairs after t steps from state s0.

    The law at step t spreads the time-t state distribution over the rule
    used at t. No renormalization is applied anywhere; a mass drift beyond
    `cvar_sequence`'s budget (`_mass_budget`) raises since it is a bug.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    s0, rules, _ = _setup(instance, policy, s0, t + 1)
    mu0 = np.eye(1, instance.n_states, s0)[0]
    rows = max(1, _kernels.LAW_BLOCK_ENTRIES // instance.n_pairs)
    for block in _kernels.pair_law_blocks(instance.kernel, instance.pair_state, rules, mu0,
                                          t + 1, rows):
        pass
    pk = block[-1].copy()
    _check_mass(np.abs(pk.sum(keepdims=True) - 1.0), _mass_budget(instance, rules, t + 1)[t:], t)
    return pk


def export_sequence(seq, target):
    """Write a sequence as delimiter-separated text: t, cvar_t, cesaro_t."""
    rows = ["t,cvar_t,cesaro_t"]
    for t in range(len(seq)):
        rows.append(f"{t},{float(seq.per_step[t])!r},{float(seq.cesaro[t])!r}")
    text = "\n".join(rows) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)

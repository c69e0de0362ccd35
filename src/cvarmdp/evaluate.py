"""Finite-horizon policy evaluation: exact per-step CVaR sequences, their
running averages, and a sampling-based sanity layer.

The per-step laws are pushed forward exactly through the kernel; Monte
Carlo exists only to cross-check that evolution, never as the primary
evaluator. The per-step loops of both live in `_kernels`, which has one
numpy implementation of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, chains, risk
from .model import TimeDependentPolicy, rule_rows

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


def _value_index_tables(instance):
    """Distinct reward values and, per pair (1-D) or per pair and next
    state (2-D), the index of its reward among them; `atom_index.ndim`
    tells the reward kind."""
    if instance.rewards is not None:
        values, atom_index = np.unique(instance.rewards, return_inverse=True)
    else:
        values, inverse = np.unique(instance.rewards3.ravel(), return_inverse=True)
        atom_index = inverse.reshape(instance.rewards3.shape)
    return values.astype(np.float64), atom_index.astype(np.int64)


def cvar_sequence(instance, policy, s0, T, alpha):
    """Exact CVaR of the reward law at every step t < T from state s0.

    No sampling and no renormalization: the law of each step's reward is
    computed from the evolved state distribution, and a total-mass drift
    beyond 1e-12 raises since it indicates a bug in the evolution.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    s0_name = s0 if isinstance(s0, str) else instance.states[int(s0)]
    s0_idx = instance.state_index(s0_name)
    rules, label = rule_rows(policy, T)
    values, atom_index = _value_index_tables(instance)
    mu0 = np.zeros(instance.n_states)
    mu0[s0_idx] = 1.0
    per_step, drift = _kernels.cvar_sequence_kernel(
        instance.kernel, instance.pair_state, rules, mu0, int(T), float(alpha),
        atom_index, values)
    if drift > MASS_DRIFT_TOL:
        raise chains.ChainStructureError(f"probability mass drifted by {drift:.3g}")
    cesaro = np.cumsum(per_step) / np.arange(1, T + 1)
    return CvarSequence(per_step=per_step, cesaro=cesaro, alpha=float(alpha),
                        initial_state=s0_name, policy_label=label)


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
    switch action is taken on the last step of each block. Rules are
    generated from the block boundaries, so any horizon is cheap.
    """
    stay = np.array([1.0, 0.0, 0.0, 1.0])
    switch = np.array([0.0, 1.0, 1.0, 0.0])

    def rule(t):
        nxt = 2 * (t + 1) + 1
        # t+1 is a boundary (3^k - 1)/2 exactly when 2(t+1)+1 is a power of 3
        p = 3
        while p < nxt:
            p *= 3
        return switch if p == nxt else stay

    def materialize(T):
        rows = np.tile(stay, (T, 1))
        cuts = example1_block_boundaries(T) - 1
        cuts = cuts[cuts >= 0]
        rows[cuts[cuts < T]] = switch
        return rows

    return TimeDependentPolicy(horizon=int(T), rule=rule, label="example1-schedule",
                               materializer=materialize)


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


def _rule_cdf2d(instance, row, max_width):
    # Per-state action CDFs padded past 1 so absent slots never match.
    out = np.full((instance.n_states, max_width), 1.1)
    for i in range(instance.n_states):
        lo, hi = instance.offsets[i], instance.offsets[i + 1]
        out[i, : hi - lo] = np.cumsum(row[lo:hi])
    return out


def monte_carlo_eval(instance, policy, s0, T, replications, seed, *, alpha):
    """Sample the process and report empirical per-step reward laws.

    All replications advance in lockstep from one seeded generator, so a
    fixed seed reproduces the result exactly. The empirical per-step CVaR
    converges to the exact sequence at the usual square-root rate.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    s0_idx = instance.state_index(s0) if isinstance(s0, str) else int(s0)
    rules, _ = rule_rows(policy, T)
    values, atom_index = _value_index_tables(instance)
    rng = np.random.default_rng(seed)

    kernel_cdf = np.cumsum(instance.kernel, axis=1)
    max_width = max(len(a) for a in instance.actions)
    counts2d = np.array([len(a) for a in instance.actions], dtype=np.int64)
    offsets = np.asarray(instance.offsets[:-1], dtype=np.int64)
    stationary = rules.shape[0] == 1
    cdf_cache = _rule_cdf2d(instance, rules[0], max_width) if stationary else None

    states = np.full(replications, s0_idx, dtype=np.int64)
    counts = np.zeros((T, values.size), dtype=np.int64)
    for t in range(T):
        rule_cdf2d = cdf_cache if stationary else _rule_cdf2d(instance, rules[t], max_width)
        u_act = rng.random(replications)
        u_nxt = rng.random(replications)
        pairs, nxt = _kernels.mc_step(states, u_act, u_nxt, rule_cdf2d, counts2d,
                                      offsets, kernel_cdf)
        step_atoms = atom_index[pairs, nxt] if atom_index.ndim == 2 else atom_index[pairs]
        counts[t] = np.bincount(step_atoms, minlength=values.size)
        states = nxt

    cvar = np.empty(T)
    for t in range(T):
        law = risk.DiscreteDistribution.from_atoms(values, counts[t] / replications)
        cvar[t] = risk.cvar_right(law, alpha)
    return MonteCarloResult(values=values, counts=counts, cvar=cvar,
                            replications=replications)


@dataclass(frozen=True)
class GapBound:
    """Per-step distance to the steady state and the bound it must obey."""

    gap: float
    bound: float


def lemma2_gap(instance, policy, s0, t, alpha):
    """Gap between the step-t CVaR and the steady-state CVaR, with its
    total-variation bound (reward spread / (1 - alpha) times the pair-law
    distance). The bound is asserted, not just reported.
    """
    pk = chains.t_step_distribution(instance, policy, s0, t)
    occ = chains.stationary_distribution(instance, policy)
    law_t = risk.reward_distribution(instance, pk)
    law_inf = risk.reward_distribution(instance, occ)
    gap = abs(risk.cvar_right(law_t, alpha) - risk.cvar_right(law_inf, alpha))
    lo, hi = instance.reward_bounds()
    tv = float(np.abs(pk - occ.x).sum())
    bound = (hi - lo) / (1.0 - alpha) * tv
    if gap > bound + 1e-10:
        raise AssertionError(f"tail-gap bound violated: gap {gap!r} > bound {bound!r}")
    return GapBound(gap=float(gap), bound=float(bound))


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

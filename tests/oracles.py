"""Paper results kept as test oracles; they are not part of the package API.

- The Rockafellar-Uryasev representation of CVaR (Rockafellar & Uryasev
  2000), which turns the problem into a minimax. The left tail and the
  mean are tied to the right-tailed CVaR by
  (1-alpha) * cvar_right + alpha * cvar_left = mean.
- Lemma 2's bound on the gap between the step-t and the steady-state CVaR.
- The alpha = 0 reduction to the classical average-reward optimum.
- The rows of the vertex program: the occupation measures of the
  deterministic policies' recurrent classes.
- Every pair's reward law in dense form, zero-probability entries
  included, as a reference for the reward table's sums.
"""

import numpy as np

from cvarmdp import chains, evaluate, risk, solver
from cvarmdp.model import DeterministicPolicy

VERTEX_DEDUP_TOL = 1e-8


def dense_reward_atoms(instance):
    """(values, probs), both (n_pairs, m): values[k, c] is a reward pair k
    can pay and probs[k, c] its probability. Per-pair rewards have m = 1
    and probs 1.0, next-state rewards m = n_states and probs the kernel,
    zeros included."""
    if instance.rewards is not None:
        return instance.rewards[:, None], np.ones((instance.n_pairs, 1))
    return instance.rewards3, instance.kernel


def cvar_left(dist, alpha):
    """Mean of the bottom alpha quantile mass; defined for alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    cum = dist.cdf
    prev = np.concatenate(([0.0], cum[:-1]))
    weights = np.clip(np.minimum(cum, alpha) - prev, 0.0, None)
    return float(dist.values @ weights) / alpha


def ru_objective(dist, y, alpha):
    """The convex objective y + E[xi - y]^+ / (1-alpha).

    Its minimum over y equals cvar_right and is attained at the
    alpha-quantile.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    excess = np.clip(dist.values - y, 0.0, None)
    return float(y + (dist.probs @ excess) / (1.0 - alpha))


def cvar_via_ru(dist, alpha):
    """Minimize the convex tail objective over the support values.

    Returns (minimum value, leftmost minimizing y). Restricting candidates
    to the support is exact for a discrete law because the quantile lies in
    the support.
    """
    best_val = np.inf
    best_y = None
    for y in dist.values:
        val = ru_objective(dist, float(y), alpha)
        if val < best_val:
            best_val = val
            best_y = float(y)
    return best_val, best_y


def lemma2_gap(instance, policy, s0, t, alpha):
    """(gap, bound): the gap between the step-t CVaR and the steady-state
    CVaR, and its total-variation bound (reward spread / (1 - alpha) times
    the pair-law distance). The bound is asserted, not just reported.
    """
    pk = evaluate.t_step_distribution(instance, policy, s0, t)
    occ = chains.stationary_distribution(instance, policy)
    law_t = risk.reward_distribution(instance, pk)
    law_inf = risk.reward_distribution(instance, occ)
    gap = abs(risk.cvar_right(law_t, alpha) - risk.cvar_right(law_inf, alpha))
    lo, hi = instance.reward_bounds()
    tv = float(np.abs(pk - occ).sum())
    bound = (hi - lo) / (1.0 - alpha) * tv
    if gap > bound + 1e-10:
        raise AssertionError(f"tail-gap bound violated: gap {gap!r} > bound {bound!r}")
    return float(gap), float(bound)


def alpha_zero_degeneration(instance):
    """(lp_value, best_mean): at alpha = 0 the tail objective is the mean,
    so the solve must agree with the best deterministic long-run average
    reward."""
    params = risk.RiskParams(alpha=0.0, beta=0.0)
    sol = solver.solve_cvar(instance, params)
    enum = solver.enumerate_deterministic(instance, params)
    return sol.v_star, float(enum.mean[enum.best_index])


def polytope_vertices(instance):
    """(xs, policies): the basic feasible solutions of the occupation
    polytope, one read-only row of xs per vertex, and for each row the
    first deterministic policy in canonical order that generates it.

    Every deterministic policy contributes the stationary distribution of
    each of its recurrent classes (one, under the unichain assumption);
    duplicates within componentwise VERTEX_DEDUP_TOL are merged.
    """
    kept = np.empty((0, instance.n_pairs))
    gens = []
    for block in chains._deterministic_sweep(instance):
        owner, xs = block.occupations
        for i, x in zip(owner.tolist(), xs):
            if (np.abs(kept - x).max(axis=1) < VERTEX_DEDUP_TOL).any():
                continue
            kept = np.vstack([kept, x])
            gens.append(DeterministicPolicy(block.choices[i].tolist()))
    kept.setflags(write=False)
    return kept, tuple(gens)

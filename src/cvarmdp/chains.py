"""Markov-chain analysis under a fixed policy.

Chain structure (recurrent classes, periods) is computed graph-
theoretically on the positive-probability graph, so classification never
depends on the magnitudes of kernel entries. Stationary distributions are
solved as linear systems on the recurrent class, which keeps transient
states at exactly zero.

The exhaustive reports over deterministic policies (the assumption check,
the vertex list, and the solver's enumeration) read one batched sweep that
classifies and solves whole blocks of policies with array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import _kernels
from .model import (
    DeterministicPolicy,
    OccupationMeasure,
    as_pair_array,
    deterministic_policies,  # re-exported: callers look it up in this module
    deterministic_policy_count,
    polytope_residual,
    rule_rows,
)

# Edges below this mass are treated as absent; kernel entries are data
# (often exact zeros) but policy rows may carry LP solver noise.
EDGE_TOL = 1e-12

STATIONARY_RESIDUAL_TOL = 1e-10
VERTEX_DEDUP_TOL = 1e-8

# Size of one block of the deterministic sweep: a block holds
# SWEEP_ENTRIES // (n_states * n_pairs) policies, so no per-block array
# (the largest holds the n_pairs * n_states next-state reward atoms of each
# policy) exceeds 4 MB, whatever the instance shape.
SWEEP_ENTRIES = 1 << 19


class ChainStructureError(RuntimeError):
    """The chain does not have the structure an operation requires."""


def transition_matrix(instance, policy):
    """State transition matrix P^d(j|i) = sum_a d(a|i) P(j|i,a)."""
    probs = as_pair_array(policy)
    out = np.zeros((instance.n_states, instance.n_states))
    np.add.at(out, instance.pair_state, probs[:, None] * instance.kernel)
    return out


@dataclass(frozen=True)
class ChainClassification:
    """Recurrent classes (as sorted state-index tuples), transient states,
    and one aperiodicity flag per class."""

    recurrent_classes: tuple
    transient_states: tuple
    aperiodic: tuple

    @property
    def unichain(self):
        return len(self.recurrent_classes) == 1

    @property
    def unichain_aperiodic(self):
        return self.unichain and all(self.aperiodic)

    def describe(self, instance):
        parts = []
        for cls, ap in zip(self.recurrent_classes, self.aperiodic):
            names = ", ".join(instance.states[i] for i in cls)
            parts.append(f"recurrent {{{names}}}{'' if ap else ' (periodic)'}")
        if self.transient_states:
            names = ", ".join(instance.states[i] for i in self.transient_states)
            parts.append(f"transient {{{names}}}")
        return "; ".join(parts)


def _class_period(adj, members):
    """Period of an irreducible class: gcd of level differences over edges."""
    members = list(members)
    pos = {s: i for i, s in enumerate(members)}
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                v = int(v)
                if v in pos and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in np.flatnonzero(adj[u]):
            v = int(v)
            if v in pos:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 1


def classify_chain(instance, policy):
    """Recurrent classes and per-class aperiodicity of the chain under d."""
    M = transition_matrix(instance, policy)
    adj = M > EDGE_TOL
    if adj.all():
        # strictly positive rows: one recurrent class, self-loops everywhere
        return ChainClassification((tuple(range(instance.n_states)),), (), (True,))
    n, labels = connected_components(csr_matrix(adj), connection="strong")
    outgoing = np.zeros(n, dtype=bool)
    rows, cols = np.nonzero(adj)
    for u, v in zip(rows, cols):
        if labels[u] != labels[v]:
            outgoing[labels[u]] = True
    classes = []
    transient = []
    for comp in range(n):
        members = tuple(int(s) for s in np.flatnonzero(labels == comp))
        if outgoing[comp]:
            transient.extend(members)
        else:
            classes.append(members)
    classes.sort(key=lambda c: c[0])
    aperiodic = tuple(_class_period(adj, cls) == 1 for cls in classes)
    return ChainClassification(tuple(classes), tuple(sorted(transient)), aperiodic)


def _class_occupation(instance, policy, members):
    """Occupation measure of one recurrent class under a stationary policy.

    Solves the stationarity system restricted to the class, with the last
    balance row replaced by normalization, then spreads each state's mass
    over its action probabilities.
    """
    probs = as_pair_array(policy)
    members = list(members)
    M = transition_matrix(instance, policy)[np.ix_(members, members)]
    n = len(members)
    A = (np.eye(n) - M).T
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as e:
        raise ChainStructureError(f"singular stationarity system: {e}") from None
    pi[np.abs(pi) < 1e-15] = 0.0
    x = np.zeros(instance.n_pairs)
    for local, s in enumerate(members):
        lo, hi = instance.offsets[s], instance.offsets[s + 1]
        x[lo:hi] = pi[local] * probs[lo:hi]
    residual = polytope_residual(instance, x)
    if residual > STATIONARY_RESIDUAL_TOL:
        raise ChainStructureError(f"stationary solve residual {residual:.3g} too large")
    return OccupationMeasure(x)


def stationary_distribution(instance, policy):
    """Steady-state state-action frequencies of a unichain policy.

    Raises ChainStructureError when the policy induces more than one
    recurrent class (the steady state would depend on the initial state).
    """
    cls = classify_chain(instance, policy)
    if not cls.unichain:
        raise ChainStructureError(
            f"policy is not unichain: {cls.describe(instance)}")
    return _class_occupation(instance, policy, cls.recurrent_classes[0])


def _unichain_occupations(instance, P, pairs, recurrent):
    """Occupation measures of unichain deterministic policies, batched.

    P is the (n, S, S) transition stack, pairs the (n, S) chosen pair
    indices and recurrent the (n, S) mask of each policy's one recurrent
    class. Solves the same class-restricted system as `_class_occupation`,
    one stacked solve per distinct class.
    """
    n, S = recurrent.shape
    pi = np.zeros((n, S))
    order = np.lexsort(recurrent.T)
    new_mask = np.ones(n, dtype=bool)
    new_mask[1:] = (recurrent[order[1:]] != recurrent[order[:-1]]).any(axis=1)
    for rows in np.split(order, np.flatnonzero(new_mask)[1:]):
        members = np.flatnonzero(recurrent[rows[0]])
        k = members.size
        A = np.eye(k) - P[np.ix_(rows, members, members)]
        A = A.transpose(0, 2, 1).copy()
        A[:, -1, :] = 1.0
        b = np.zeros((rows.size, k, 1))
        b[:, -1, 0] = 1.0
        try:
            sol = np.linalg.solve(A, b)[:, :, 0]
        except np.linalg.LinAlgError as e:
            raise ChainStructureError(f"singular stationarity system: {e}") from None
        pi[np.ix_(rows, members)] = sol
    pi[np.abs(pi) < 1e-15] = 0.0
    xs = np.zeros((n, instance.n_pairs))
    np.put_along_axis(xs, pairs, pi, axis=1)
    # polytope_residual, row by row
    balance = np.abs(pi - xs @ instance.kernel).max(axis=1)
    norm = np.abs(xs.sum(axis=1) - 1.0)
    neg = np.maximum(0.0, -xs.min(axis=1))
    residual = np.maximum(np.maximum(balance, norm), neg)
    worst = int(np.argmax(residual))
    if residual[worst] > STATIONARY_RESIDUAL_TOL:
        raise ChainStructureError(
            f"stationary solve residual {residual[worst]:.3g} too large")
    return xs


class _PolicyBlock:
    """Consecutive deterministic policies of the sweep, classified at once.

    choices[i] holds the local action indices of the block's i-th policy.
    From the adjacency of each policy's transition matrix, repeated boolean squaring
    gives reachability; a state is recurrent when every state it reaches
    reaches it back, and a policy is unichain when every recurrent state
    reaches every other. A unichain class is aperiodic exactly when its
    adjacency block raised to a power of at least (S-1)^2 + 1 is positive
    (Wielandt's bound; an imprimitive class has no positive power).
    Multichain policies are classified by `classify_chain`.
    """

    def __init__(self, instance, choices):
        self.instance = instance
        self.choices = choices
        n, S = choices.shape
        self.pairs = instance.offsets[:-1] + choices
        self.P = instance.kernel[self.pairs]
        adj = self.P > EDGE_TOL
        self.recurrent = np.ones((n, S), dtype=bool)
        self.unichain = np.ones(n, dtype=bool)
        self.unichain_aperiodic = np.ones(n, dtype=bool)
        # a positive matrix is one aperiodic class; classify the rest
        rest = np.flatnonzero(~adj.all(axis=(1, 2)))
        if rest.size:
            (self.recurrent[rest], self.unichain[rest],
             self.unichain_aperiodic[rest]) = _classify_adjacency(adj[rest])

    def __len__(self):
        return self.choices.shape[0]

    def policy(self, i):
        return DeterministicPolicy(self.choices[i].tolist())

    def policies(self):
        return [DeterministicPolicy(c) for c in self.choices.tolist()]

    @cached_property
    def _multichain(self):
        """classify_chain's answer for each multichain policy, by index."""
        out = {}
        for i in np.flatnonzero(~self.unichain).tolist():
            pol = self.policy(i).to_stationary(self.instance)
            out[i] = (pol, classify_chain(self.instance, pol))
        return out

    def classification(self, i):
        """The ChainClassification that classify_chain gives policy i."""
        if not self.unichain[i]:
            return self._multichain[i][1]
        rec = self.recurrent[i]
        return ChainClassification(
            (tuple(np.flatnonzero(rec).tolist()),),
            tuple(np.flatnonzero(~rec).tolist()),
            (bool(self.unichain_aperiodic[i]),))

    @cached_property
    def occupations(self):
        """(owner, xs): the occupation measure of every recurrent class, in
        policy order and, within a policy, classify_chain's class order;
        owner[r] is the block index of row r's policy."""
        uni = np.flatnonzero(self.unichain)
        xs_uni = np.zeros((len(self), self.instance.n_pairs))
        if uni.size:
            xs_uni[uni] = _unichain_occupations(
                self.instance, self.P[uni], self.pairs[uni], self.recurrent[uni])
        if not self._multichain:
            return np.arange(len(self)), xs_uni
        owners, pieces, prev = [], [], 0
        for i, (pol, cls) in self._multichain.items():
            owners += [np.arange(prev, i), np.full(len(cls.recurrent_classes), i)]
            pieces += [xs_uni[prev:i]]
            pieces += [_class_occupation(self.instance, pol, members).x[None, :]
                       for members in cls.recurrent_classes]
            prev = i + 1
        owners.append(np.arange(prev, len(self)))
        pieces.append(xs_uni[prev:])
        return np.concatenate(owners), np.concatenate(pieces)


def _classify_adjacency(adj):
    """Recurrent-state masks, unichain flags and unichain-aperiodic flags
    of a stack of (S, S) adjacency matrices."""
    S = adj.shape[1]
    reach = adj | np.eye(S, dtype=bool)
    for _ in range(max(S - 2, 0).bit_length()):  # paths of length <= S - 1
        reach = _bool_square(reach)
    rec = (reach <= reach.transpose(0, 2, 1)).all(axis=2)
    pair_mask = rec[:, :, None] & rec[:, None, :]
    unichain = ~(pair_mask & ~reach).any(axis=(1, 2))
    walk = adj & pair_mask
    for _ in range(((S - 1) ** 2).bit_length()):  # power >= (S - 1)^2 + 1
        walk = _bool_square(walk)
    return rec, unichain, unichain & ~(pair_mask & ~walk).any(axis=(1, 2))


def _bool_square(a):
    """Boolean matrix square of a stack: (a @ a) > 0."""
    f = a.astype(np.float32)
    return np.matmul(f, f) > 0.0


def _deterministic_sweep(instance, cap=10**6):
    """Every deterministic policy, in `deterministic_policies` order, as
    consecutive `_PolicyBlock`s sized by SWEEP_ENTRIES.

    Raises CapExceededError, before building anything, when the policy
    count exceeds cap.
    """
    total = deterministic_policy_count(instance, cap)
    counts = np.diff(instance.offsets)
    per_block = max(1, SWEEP_ENTRIES // (instance.n_states * instance.n_pairs))

    def blocks():
        for start in range(0, total, per_block):
            index = np.arange(start, min(start + per_block, total))
            yield _PolicyBlock(instance, np.stack(np.unravel_index(index, counts), axis=1))

    return blocks()


def t_step_distribution(instance, policy, s0, t):
    """Exact law over state-action pairs after t steps from state s0.

    The law at step t spreads the time-t state distribution over the rule
    used at t. No renormalization is applied anywhere; if the mass drifts
    from 1 beyond 1e-12 an error is raised since that indicates a bug.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    s0 = instance.state_index(s0) if isinstance(s0, str) else int(s0)
    rules, _ = rule_rows(policy, t + 1)
    mu0 = np.zeros(instance.n_states)
    mu0[s0] = 1.0
    mu = _kernels.evolve_mu(instance.kernel, instance.pair_state, rules, mu0, t)
    row = rules[0] if rules.shape[0] == 1 else rules[t]
    pk = mu[instance.pair_state] * row
    if abs(pk.sum() - 1.0) > 1e-12:
        raise ChainStructureError(f"probability mass drifted to {pk.sum()!r} at t={t}")
    return pk


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of classifying the chain of every deterministic policy."""

    total: int
    violators: tuple  # (DeterministicPolicy, ChainClassification) pairs

    @property
    def ok(self):
        return not self.violators


def check_assumption(instance, cap=10**6):
    """Classify every deterministic policy; report those that are not
    unichain and aperiodic.

    Passing is a sufficient condition in practice: the solver additionally
    classifies whatever randomized policy it extracts.
    """
    violators = []
    total = 0
    for block in _deterministic_sweep(instance, cap):
        total += len(block)
        for i in np.flatnonzero(~block.unichain_aperiodic).tolist():
            violators.append((block.policy(i), block.classification(i)))
    return AssumptionReport(total=total, violators=tuple(violators))


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated extreme points of the occupation polytope.

    xs has one row per vertex; policies[i] is a generating deterministic
    policy for row i (the first one found in canonical order).
    """

    xs: np.ndarray
    policies: tuple

    def __len__(self):
        return self.xs.shape[0]

    def __post_init__(self):
        xs = np.ascontiguousarray(np.asarray(self.xs, dtype=np.float64))
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)


def polytope_vertices(instance, cap=10**6):
    """Enumerate the basic feasible solutions of the occupation polytope.

    Every deterministic policy contributes the stationary distribution of
    each of its recurrent classes (one, under the unichain assumption);
    duplicates within componentwise 1e-8 are merged.
    """
    kept = np.empty((0, instance.n_pairs))
    gens = []
    for block in _deterministic_sweep(instance, cap):
        owner, xs = block.occupations
        for i, x in zip(owner.tolist(), xs):
            if (np.abs(kept - x).max(axis=1) < VERTEX_DEDUP_TOL).any():
                continue
            kept = np.vstack([kept, x])
            gens.append(block.policy(i))
    return VertexSet(kept, tuple(gens))

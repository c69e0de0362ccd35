"""Markov-chain analysis under a fixed policy.

Chain structure (recurrent classes, periods) is computed graph-
theoretically on the positive-probability graph, so classification never
depends on the magnitudes of kernel entries. Stationary distributions are
solved as linear systems on each recurrent class, which keeps transient
states at exactly zero.

One classifier, `_recurrent_classes`, takes a stack of chains as one
block-diagonal graph, and one solve, `_class_occupations`, takes a stack
of (policy, recurrent class) rows. `classify_chain` and
`stationary_distribution` pass a stack of one; the exhaustive reports
over deterministic policies (the assumption check and the solver's
enumeration) read one sweep that passes whole blocks of policies,
multichain ones included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    _readonly,
    as_pair_array,
    deterministic_policies,  # re-exported: callers look it up in this module
    deterministic_policy_count,
    policy_actions,
    polytope_residual,
)

# Edges below this mass are treated as absent; kernel entries are data
# (often exact zeros) but policy rows may carry LP solver noise.
EDGE_TOL = 1e-12

STATIONARY_RESIDUAL_TOL = 1e-10

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


def _recurrent_classes(adj):
    """Recurrent classes of a stack of (n, S, S) adjacency matrices.

    Returns (owner, members, aperiodic), one entry per recurrent class in
    stack order and, within a matrix, by smallest state: owner[c] is the
    class's matrix, members[c] its (S,) state mask and aperiodic[c] whether
    its period is 1. A positive matrix is one aperiodic class. The others
    form one block-diagonal graph: its strong components without an
    outgoing edge are the recurrent classes, and a class's period is the
    gcd, over its edges u -> v, of level(u) + 1 - level(v) for BFS levels
    from the class's first state (any spanning tree's depths give the same
    gcd). A class with a self-loop has period 1 and needs no levels.
    """
    n, S, _ = adj.shape
    positive = adj.all(axis=(1, 2))
    owner = np.flatnonzero(positive)
    members = np.ones((owner.size, S), dtype=bool)
    aperiodic = np.ones(owner.size, dtype=bool)
    rest = np.flatnonzero(~positive)
    if not rest.size:
        return owner, members, aperiodic
    # imported here so that runs whose chains are all positive never load them
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra

    # node p * S + u is state u of the p-th non-positive matrix
    N = rest.size * S
    tail, col = np.divmod(np.flatnonzero(adj[rest]), S)
    head = tail - tail % S + col
    indptr = np.zeros(N + 1, dtype=np.intp)
    np.cumsum(np.bincount(tail, minlength=N), out=indptr[1:])
    graph = csr_matrix((np.ones(head.size), head, indptr), shape=(N, N))
    n_comp, labels = connected_components(graph, connection="strong")
    comp = labels[tail]
    closed = np.ones(n_comp, dtype=bool)
    closed[comp[comp != labels[head]]] = False
    _, first = np.unique(labels, return_index=True)
    period = np.zeros(n_comp, dtype=np.intp)
    period[comp[tail == head]] = 1
    todo = closed & (period == 0)
    if todo.any():
        # every edge weighs 1, so distances are BFS levels; nothing leaves a
        # closed class, so one search from each class's first state levels all
        level = dijkstra(graph, indices=first[todo], min_only=True)
        edge = todo[comp]
        np.gcd.at(period, comp[edge],
                  (level[tail[edge]] + 1 - level[head[edge]]).astype(np.intp))
    roots = np.sort(first[closed])
    local = roots // S
    owner = np.concatenate([owner, rest[local]])
    members = np.concatenate([members, labels.reshape(-1, S)[local] == labels[roots, None]])
    # a class without edges (a zero row) has gcd 0 and counts as aperiodic
    aperiodic = np.concatenate([aperiodic, period[labels[roots]] <= 1])
    order = np.argsort(owner, kind="stable")
    return owner[order], members[order], aperiodic[order]


def _classification(members, aperiodic):
    """ChainClassification of one chain from its (k, S) class masks."""
    return ChainClassification(
        tuple(tuple(np.flatnonzero(m).tolist()) for m in members),
        tuple(np.flatnonzero(~members.any(axis=0)).tolist()),
        tuple(aperiodic.tolist()))


def classify_chain(instance, policy):
    """Recurrent classes and per-class aperiodicity of the chain under d."""
    adj = transition_matrix(instance, policy) > EDGE_TOL
    _, members, aperiodic = _recurrent_classes(adj[None])
    return _classification(members, aperiodic)


def _class_occupation(instance, policy, members):
    """Occupation measure of one recurrent class under a stationary policy,
    as a read-only array."""
    mask = np.zeros((1, instance.n_states), dtype=bool)
    mask[0, list(members)] = True
    xs = _class_occupations(instance, transition_matrix(instance, policy)[None],
                            as_pair_array(policy)[None], np.zeros(1, dtype=int), mask)
    return _readonly(xs[0])


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


def _class_occupations(instance, P, probs, owner, members):
    """Occupation measures of recurrent classes of stationary policies.

    P is the (n, S, S) transition stack and probs the (n, n_pairs) action
    probabilities of n policies; row c of the result is the occupation
    measure of the class members[c] (an (S,) state mask) of policy
    owner[c]. Each class's stationarity system is solved restricted to the
    class, with the last balance row replaced by normalization, one stacked
    solve per distinct class mask; each state's mass is then spread over
    its action probabilities, so transient states get exactly zero.
    """
    m, S = members.shape
    pi = np.zeros((m, S))
    order = np.lexsort(members.T)
    srt = members[order]
    cuts = np.flatnonzero((srt[1:] != srt[:-1]).any(axis=1)) + 1
    bounds = [0, *cuts.tolist(), m]
    for lo, hi in zip(bounds, bounds[1:]):
        rows = order[lo:hi]
        states = np.flatnonzero(srt[lo])
        k = states.size
        A = np.eye(k) - P[owner[rows]][:, states[:, None], states].transpose(0, 2, 1)
        A[:, -1, :] = 1.0
        b = np.zeros(k)
        b[-1] = 1.0
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as e:
            raise ChainStructureError(f"singular stationarity system: {e}") from None
        pi[rows[:, None], states] = sol
    pi[np.abs(pi) < 1e-15] = 0.0
    xs = pi[:, instance.pair_state] * probs[owner]
    residual = polytope_residual(instance, xs)
    worst = int(np.argmax(residual))
    if residual[worst] > STATIONARY_RESIDUAL_TOL:
        raise ChainStructureError(
            f"stationary solve residual {residual[worst]:.3g} too large")
    return xs


class _PolicyBlock:
    """Consecutive deterministic policies of the sweep, classified at once.

    choices[i] holds the local action indices of the block's i-th policy.
    One `_recurrent_classes` call classifies the block's transition stack,
    multichain policies included: owner, members and aperiodic hold one
    entry per recurrent class, in policy order and, within a policy,
    classify_chain's class order; policy i's classes are the entries
    bounds[i]:bounds[i + 1].
    """

    def __init__(self, instance, choices):
        self.instance = instance
        self.choices = choices
        self.pairs = instance.offsets[:-1] + choices
        self.P = instance.kernel[self.pairs]
        self.owner, self.members, self.aperiodic = _recurrent_classes(self.P > EDGE_TOL)
        self.bounds = np.searchsorted(self.owner, np.arange(len(self) + 1))
        self.unichain_aperiodic = ((np.diff(self.bounds) == 1)
                                   & self.aperiodic[self.bounds[:-1]])

    def __len__(self):
        return self.choices.shape[0]

    @cached_property
    def occupations(self):
        """(owner, xs): the occupation measure of every recurrent class, in
        policy order and, within a policy, classify_chain's class order;
        owner[r] is the block index of row r's policy."""
        probs = np.zeros((len(self), self.instance.n_pairs))
        np.put_along_axis(probs, self.pairs, 1.0, axis=1)
        return self.owner, _class_occupations(self.instance, self.P, probs,
                                              self.owner, self.members)


def _deterministic_sweep(instance):
    """Every deterministic policy, in `deterministic_policies` order, as
    consecutive `_PolicyBlock`s sized by SWEEP_ENTRIES.

    Raises CapExceededError, before building anything, when the policy
    count exceeds `model.POLICY_CAP`.
    """
    total = deterministic_policy_count(instance)
    per_block = max(1, SWEEP_ENTRIES // (instance.n_states * instance.n_pairs))

    def blocks():
        for start in range(0, total, per_block):
            index = np.arange(start, min(start + per_block, total))
            yield _PolicyBlock(instance, policy_actions(instance, index))

    return blocks()


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of classifying the chain of every deterministic policy.

    violators holds, ascending, the numbers (in `model.policy_actions`
    order) of the policies whose chain is not unichain and aperiodic.
    owner, members and aperiodic hold their recurrent classes as
    `_recurrent_classes` returns them, with owner[c] an index into
    violators.
    """

    total: int
    violators: np.ndarray
    owner: np.ndarray
    members: np.ndarray
    aperiodic: np.ndarray

    @property
    def ok(self):
        return not self.violators.size

    def classifications(self):
        """The ChainClassification of each violator, in violators order,
        decoded as it is read."""
        bounds = np.searchsorted(self.owner, np.arange(self.violators.size + 1)).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield _classification(self.members[lo:hi], self.aperiodic[lo:hi])


def check_assumption(instance):
    """Classify every deterministic policy; report those that are not
    unichain and aperiodic.

    Passing is a sufficient condition in practice: the solver additionally
    classifies whatever randomized policy it extracts.
    """
    # empty arrays of the report's shapes, for an instance without policies
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp),
              np.empty((0, instance.n_states), bool), np.empty(0, bool))]
    total = 0
    for block in _deterministic_sweep(instance):
        bad = ~block.unichain_aperiodic
        keep = bad[block.owner]
        parts.append((total + np.flatnonzero(bad), total + block.owner[keep],
                      block.members[keep], block.aperiodic[keep]))
        total += len(block)
    violators, owner, members, aperiodic = map(np.concatenate, zip(*parts))
    # each class's owner, from its policy number to the policy's index in violators
    return AssumptionReport(total, violators, np.searchsorted(violators, owner),
                            members, aperiodic)

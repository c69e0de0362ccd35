"""Finite MDP instances, policies, and occupation measures.

An instance stores its state-action pairs in one flat canonical order:
states in listing order, and within each state the admissible actions in
listing order. Every array in this package (kernels, rewards, occupation
measures, policy probabilities) is aligned to that pair order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Tolerances. Probability data is validated tightly; occupation measures and
# randomization counts carry LP solver noise and get looser thresholds.
PROB_TOL = 1e-9
POLYTOPE_TOL = 1e-8
RANDOMIZATION_TOL = 1e-6

SCHEMA_TAG = "mdp-v1"

_INSTANCE_KEYS = {"format", "name", "states", "actions", "transitions", "rewards", "rewards3"}


class InstanceFormatError(ValueError):
    """An instance file does not match the schema; message names the field."""


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MdpInstance:
    """A finite MDP: states, per-state admissible actions, kernel, rewards.

    kernel[k, j] is the probability of moving to state j from pair k.
    Exactly one of `rewards` (per pair) and `rewards3` (per pair and next
    state) is present; `rewards3` models rewards that depend on the state
    reached, as in the endowment instance.
    """

    name: str
    states: tuple
    actions: tuple
    kernel: np.ndarray
    rewards: np.ndarray | None = None
    rewards3: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        object.__setattr__(self, "actions", tuple(tuple(str(a) for a in acts) for acts in self.actions))
        if len(self.actions) != len(self.states):
            raise ValueError("need one action list per state")
        n_pairs = sum(len(acts) for acts in self.actions)
        kernel = _readonly(self.kernel)
        if kernel.shape != (n_pairs, len(self.states)):
            raise ValueError(f"kernel shape {kernel.shape} != ({n_pairs}, {len(self.states)})")
        object.__setattr__(self, "kernel", kernel)
        if (self.rewards is None) == (self.rewards3 is None):
            raise ValueError("exactly one of rewards / rewards3 must be given")
        if self.rewards is not None:
            r = _readonly(self.rewards)
            if r.shape != (n_pairs,):
                raise ValueError(f"rewards shape {r.shape} != ({n_pairs},)")
            object.__setattr__(self, "rewards", r)
        else:
            r3 = _readonly(self.rewards3)
            if r3.shape != (n_pairs, len(self.states)):
                raise ValueError(f"rewards3 shape {r3.shape} != ({n_pairs}, {len(self.states)})")
            object.__setattr__(self, "rewards3", r3)

    # -- structure ---------------------------------------------------------

    @property
    def n_states(self):
        return len(self.states)

    @property
    def n_pairs(self):
        return self.kernel.shape[0]

    @cached_property
    def offsets(self):
        """offsets[i]:offsets[i+1] is the flat pair range of state i."""
        counts = [len(acts) for acts in self.actions]
        out = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=out[1:])
        out.setflags(write=False)
        return out

    @cached_property
    def pair_state(self):
        """State index of each flat pair."""
        out = np.repeat(np.arange(self.n_states, dtype=np.int64),
                        [len(acts) for acts in self.actions])
        out.setflags(write=False)
        return out

    @cached_property
    def _state_index(self):
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def _pair_index(self):
        idx = {}
        for k in range(self.n_pairs):
            i = int(self.pair_state[k])
            idx[(self.states[i], self.actions[i][k - self.offsets[i]])] = k
        return idx

    def state_index(self, state):
        try:
            return self._state_index[state]
        except KeyError:
            raise KeyError(f"unknown state {state!r}") from None

    def pair_index(self, state, action):
        try:
            return self._pair_index[(state, action)]
        except KeyError:
            raise KeyError(f"unknown state-action pair ({state!r}, {action!r})") from None

    def pair_name(self, k):
        i = int(self.pair_state[k])
        return self.states[i], self.actions[i][k - self.offsets[i]]

    @property
    def uses_next_state_rewards(self):
        return self.rewards3 is not None

    def reward_table(self):
        """All reward values of the instance as one flat array.

        For next-state rewards this includes every (pair, next-state) entry,
        whether or not the transition carries probability; those values are
        part of the instance data and of its breakpoint set.
        """
        if self.rewards is not None:
            return self.rewards
        return self.rewards3.ravel()

    def reward_bounds(self):
        table = self.reward_table()
        return float(table.min()), float(table.max())

    def __eq__(self, other):
        if not isinstance(other, MdpInstance):
            return NotImplemented
        return (
            self.name == other.name
            and self.states == other.states
            and self.actions == other.actions
            and np.array_equal(self.kernel, other.kernel)
            and _opt_array_equal(self.rewards, other.rewards)
            and _opt_array_equal(self.rewards3, other.rewards3)
        )

    def __repr__(self):
        mode = "rewards3" if self.uses_next_state_rewards else "rewards"
        return f"MdpInstance({self.name!r}, {self.n_states} states, {self.n_pairs} pairs, {mode})"


def _opt_array_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


# -- policies and occupation measures --------------------------------------


@dataclass(frozen=True)
class StationaryPolicy:
    """Per-state action probabilities, flat over the instance's pair order."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))

    @classmethod
    def from_mapping(cls, instance, mapping):
        probs = np.zeros(instance.n_pairs)
        for state, row in mapping.items():
            for action, p in row.items():
                probs[instance.pair_index(state, action)] = float(p)
        pol = cls(probs)
        bad = policy_residual(instance, pol)
        if bad > PROB_TOL:
            raise ValueError(f"policy rows do not normalize (residual {bad:.2e})")
        return pol

    def to_mapping(self, instance):
        out = {}
        for i, state in enumerate(instance.states):
            lo, hi = instance.offsets[i], instance.offsets[i + 1]
            out[state] = {a: float(p) for a, p in zip(instance.actions[i], self.probs[lo:hi])}
        return out


@dataclass(frozen=True)
class DeterministicPolicy:
    """One admissible action per state, as local action indices."""

    choices: tuple

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(map(int, self.choices)))

    def to_stationary(self, instance):
        probs = np.zeros(instance.n_pairs)
        for i, c in enumerate(self.choices):
            if not 0 <= c < len(instance.actions[i]):
                raise ValueError(f"action index {c} not admissible in state {instance.states[i]!r}")
            probs[instance.offsets[i] + c] = 1.0
        return StationaryPolicy(probs)

    def to_mapping(self, instance):
        return {s: instance.actions[i][c] for i, (s, c) in enumerate(zip(instance.states, self.choices))}


@dataclass(frozen=True)
class TimeDependentPolicy:
    """A finite schedule of per-step stationary rules u_t(a|s).

    `rule(t)` returns the flat probability row for step t. For analytically
    scheduled policies a vectorized `materializer` can build all rows at
    once without calling `rule` per step.
    """

    horizon: int
    rule: Callable[[int], np.ndarray]
    label: str = "time-dependent"
    materializer: Callable[[int], np.ndarray] | None = None

    @classmethod
    def from_rules(cls, rules, label="time-dependent"):
        rows = [np.asarray(r, dtype=np.float64) for r in rules]
        stacked = np.stack(rows)
        return cls(horizon=len(rows), rule=lambda t: stacked[t], label=label,
                   materializer=lambda T: stacked[:T].copy())

    def rows(self, T):
        if T > self.horizon:
            raise ValueError(f"horizon exceeded: need {T} steps, policy defines {self.horizon}")
        if self.materializer is not None:
            return np.asarray(self.materializer(T), dtype=np.float64)
        return np.stack([np.asarray(self.rule(t), dtype=np.float64) for t in range(T)])


@dataclass(frozen=True)
class OccupationMeasure:
    """Nonnegative weights x(i,a) on the instance's pair order."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(self.x))


def as_pair_array(x):
    """Accept an OccupationMeasure, a StationaryPolicy, or a bare array."""
    if isinstance(x, OccupationMeasure):
        return x.x
    if isinstance(x, StationaryPolicy):
        return x.probs
    return np.asarray(x, dtype=np.float64)


def rule_rows(policy, T):
    """Rule rows for the evolution kernels and a label: (T, n_pairs) for a
    time-dependent policy, one (1, n_pairs) row for a stationary one."""
    if isinstance(policy, TimeDependentPolicy):
        return policy.rows(T), policy.label
    return as_pair_array(policy).reshape(1, -1), "stationary"


def policy_residual(instance, policy):
    """Largest violation of per-state normalization / nonnegativity."""
    probs = as_pair_array(policy)
    sums = np.add.reduceat(probs, instance.offsets[:-1])
    worst = float(np.abs(sums - 1.0).max()) if instance.n_pairs else 0.0
    neg = float(max(0.0, -(probs.min()))) if probs.size else 0.0
    return max(worst, neg)


def polytope_residual(instance, x):
    """Largest violation of the stationary-distribution constraint set.

    Covers flow balance at every state, total mass one, and nonnegativity.
    """
    x = as_pair_array(x)
    out_mass = np.add.reduceat(x, instance.offsets[:-1]) if instance.n_pairs else np.zeros(instance.n_states)
    in_mass = x @ instance.kernel
    balance = float(np.abs(out_mass - in_mass).max()) if instance.n_states else 0.0
    norm = float(abs(x.sum() - 1.0))
    neg = float(max(0.0, -(x.min()))) if x.size else 0.0
    return max(balance, norm, neg)


# -- validation -------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    where: str
    rule: str
    magnitude: float

    def __str__(self):
        return f"{self.where}: {self.rule} (magnitude {self.magnitude:.3g})"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return "instance valid"
        return "\n".join(str(v) for v in self.violations)


def validate(instance):
    """Check the instance invariants; violations are returned, never raised."""
    bad = []
    for i, acts in enumerate(instance.actions):
        if not acts:
            bad.append(Violation(f"state {instance.states[i]!r}", "empty admissible action set", 1.0))
        if len(set(acts)) != len(acts):
            bad.append(Violation(f"state {instance.states[i]!r}", "duplicate action names", 1.0))
    if len(set(instance.states)) != len(instance.states):
        bad.append(Violation("states", "duplicate state names", 1.0))
    for k in range(instance.n_pairs):
        row = instance.kernel[k]
        state, action = instance.pair_name(k)
        where = f"({state!r}, {action!r})"
        gap = abs(float(row.sum()) - 1.0)
        if gap > PROB_TOL:
            bad.append(Violation(where, "transition row does not sum to 1", gap))
        neg = float(row.min())
        if neg < 0.0:
            bad.append(Violation(where, "negative transition probability", -neg))
    table = instance.reward_table()
    if not np.all(np.isfinite(table)):
        bad.append(Violation("rewards", "non-finite reward value", float(np.sum(~np.isfinite(table)))))
    return ValidationReport(tuple(bad))


# -- file format -------------------------------------------------------------


def save(instance, target):
    """Write the instance as structured text to a path or a text handle;
    see `load` for the schema."""
    doc = {"format": SCHEMA_TAG, "name": instance.name}
    doc["states"] = list(instance.states)
    doc["actions"] = {s: list(acts) for s, acts in zip(instance.states, instance.actions)}
    transitions = {}
    for i, state in enumerate(instance.states):
        row = {}
        for c, action in enumerate(instance.actions[i]):
            k = instance.offsets[i] + c
            row[action] = {instance.states[j]: float(p)
                           for j, p in enumerate(instance.kernel[k]) if p != 0.0}
        transitions[state] = row
    doc["transitions"] = transitions
    if instance.rewards is not None:
        doc["rewards"] = {
            s: {a: float(instance.rewards[instance.offsets[i] + c])
                for c, a in enumerate(instance.actions[i])}
            for i, s in enumerate(instance.states)
        }
    else:
        doc["rewards3"] = {
            s: {a: {j: float(instance.rewards3[instance.offsets[i] + c, jj])
                    for jj, j in enumerate(instance.states)}
                for c, a in enumerate(instance.actions[i])}
            for i, s in enumerate(instance.states)
        }
    if hasattr(target, "write"):
        json.dump(doc, target, indent=2)
        target.write("\n")
    else:
        with open(target, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _require(cond, msg):
    if not cond:
        raise InstanceFormatError(msg)


def load(path):
    """Read an instance file.

    The format is a single JSON object with keys `name`, `states`,
    `actions` (state -> list of actions), `transitions` (state -> action ->
    next state -> probability, zeros omitted), and exactly one of `rewards`
    (state -> action -> value) or `rewards3` (state -> action -> next state
    -> value, all next states listed). An optional `format` key carries the
    schema tag; unknown keys are rejected.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise InstanceFormatError(f"{path}: not valid structured text at line {e.lineno}, column {e.colno}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - _INSTANCE_KEYS
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    tag = doc.get("format", SCHEMA_TAG)
    _require(tag == SCHEMA_TAG, f"schema version mismatch: file says {tag!r}, expected {SCHEMA_TAG!r}")
    for key in ("name", "states", "actions", "transitions"):
        _require(key in doc, f"missing required block {key!r}")
    has_r = "rewards" in doc
    has_r3 = "rewards3" in doc
    _require(has_r != has_r3, "need exactly one of the blocks 'rewards' / 'rewards3'")

    states = doc["states"]
    _require(isinstance(states, list) and states and all(isinstance(s, str) for s in states),
             "'states' must be a non-empty array of strings")
    state_set = set(states)
    _require(len(state_set) == len(states), "'states' contains duplicates")

    actions_doc = doc["actions"]
    _require(isinstance(actions_doc, dict), "'actions' must map states to action arrays")
    for s in actions_doc:
        _require(s in state_set, f"'actions' names unknown state {s!r}")
    actions = []
    for s in states:
        _require(s in actions_doc, f"'actions' missing state {s!r}")
        acts = actions_doc[s]
        _require(isinstance(acts, list) and all(isinstance(a, str) for a in acts),
                 f"'actions.{s}' must be an array of strings")
        actions.append(tuple(acts))

    n_pairs = sum(len(a) for a in actions)
    kernel = np.zeros((n_pairs, len(states)))
    trans = doc["transitions"]
    _require(isinstance(trans, dict), "'transitions' must be an object")
    state_pos = {s: i for i, s in enumerate(states)}
    offsets = np.concatenate([[0], np.cumsum([len(a) for a in actions])])
    for s, row in trans.items():
        _require(s in state_set, f"'transitions' names unknown state {s!r}")
        _require(isinstance(row, dict), f"'transitions.{s}' must be an object")
        i = state_pos[s]
        for a, dist in row.items():
            _require(a in actions[i], f"'transitions.{s}' names unknown action {a!r}")
            _require(isinstance(dist, dict), f"'transitions.{s}.{a}' must be an object")
            k = offsets[i] + actions[i].index(a)
            for j, p in dist.items():
                _require(j in state_set, f"'transitions.{s}.{a}' names unknown state {j!r}")
                _require(isinstance(p, (int, float)) and not isinstance(p, bool),
                         f"'transitions.{s}.{a}.{j}' must be a number")
                kernel[k, state_pos[j]] = float(p)

    rewards = rewards3 = None
    if has_r:
        rdoc = doc["rewards"]
        _require(isinstance(rdoc, dict), "'rewards' must be an object")
        rewards = np.zeros(n_pairs)
        for i, s in enumerate(states):
            _require(s in rdoc, f"'rewards' missing state {s!r}")
            for c, a in enumerate(actions[i]):
                _require(a in rdoc[s], f"'rewards.{s}' missing action {a!r}")
                v = rdoc[s][a]
                _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                         f"'rewards.{s}.{a}' must be a number")
                rewards[offsets[i] + c] = float(v)
        for s in rdoc:
            _require(s in state_set, f"'rewards' names unknown state {s!r}")
    else:
        rdoc = doc["rewards3"]
        _require(isinstance(rdoc, dict), "'rewards3' must be an object")
        rewards3 = np.zeros((n_pairs, len(states)))
        for i, s in enumerate(states):
            _require(s in rdoc, f"'rewards3' missing state {s!r}")
            for c, a in enumerate(actions[i]):
                _require(a in rdoc[s], f"'rewards3.{s}' missing action {a!r}")
                for j in states:
                    _require(j in rdoc[s][a], f"'rewards3.{s}.{a}' missing next state {j!r}")
                    v = rdoc[s][a][j]
                    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                             f"'rewards3.{s}.{a}.{j}' must be a number")
                    rewards3[offsets[i] + c, state_pos[j]] = float(v)

    name = doc["name"]
    _require(isinstance(name, str), "'name' must be a string")
    return MdpInstance(name=name, states=tuple(states), actions=tuple(actions),
                       kernel=kernel, rewards=rewards, rewards3=rewards3)


# -- builtin instances -------------------------------------------------------


def _example1():
    # Two states, deterministic moves; every action either stays or switches.
    # Rewards are +2 in the first state and -2 in the second.
    states = ("s1", "s2")
    actions = (("a11", "a12"), ("a21", "a22"))
    kernel = np.array([
        [1.0, 0.0],   # (s1, a11) stay
        [0.0, 1.0],   # (s1, a12) switch
        [1.0, 0.0],   # (s2, a21) switch
        [0.0, 1.0],   # (s2, a22) stay
    ])
    rewards = np.array([2.0, 2.0, -2.0, -2.0])
    return MdpInstance("example1", states, actions, kernel, rewards=rewards)


# Published transition table for the 3-state counterexample. The row of
# pair (state 2, action 2) sums to 0.9999 as printed; we renormalize that
# single row so the instance is exactly row-stochastic.
_EX2_P = {
    ("1", "1"): (0.4688, 0.0741, 0.4571),
    ("1", "2"): (0.3564, 0.0857, 0.5579),
    ("1", "3"): (0.3991, 0.1457, 0.4552),
    ("2", "1"): (0.1083, 0.1839, 0.7078),
    ("2", "2"): (0.7012, 0.1863, 0.1124),
    ("2", "3"): (0.4370, 0.4373, 0.1257),
    ("3", "1"): (0.5457, 0.1834, 0.2709),
    ("3", "2"): (0.4102, 0.4357, 0.1541),
    ("3", "3"): (0.1460, 0.3986, 0.4554),
}
_EX2_R = {
    ("1", "1"): 5.0, ("1", "2"): 69.0, ("1", "3"): 13.0,
    ("2", "1"): 94.0, ("2", "2"): 4.0, ("2", "3"): 71.0,
    ("3", "1"): 77.0, ("3", "2"): 70.0, ("3", "3"): 39.0,
}


def _example2():
    states = ("1", "2", "3")
    actions = (("1", "2", "3"),) * 3
    kernel = np.zeros((9, 3))
    rewards = np.zeros(9)
    k = 0
    for s in states:
        for a in actions[0]:
            row = np.array(_EX2_P[(s, a)])
            kernel[k] = row / row.sum()
            rewards[k] = _EX2_R[(s, a)]
            k += 1
    return MdpInstance("example2", states, actions, kernel, rewards=rewards)


def _endowment():
    # Portfolio-allocation instance: the state is (market regime, current
    # stock fraction), the action is the next stock fraction, and the reward
    # depends on the regime reached. Rewards are 1000 * ((1-a) * 0.02
    # + a * r1(regime') - 0.005 * |a - w|) with r1 = -0.05 in the bear
    # regime and 0.1 in the bull regime; the arithmetic below works in
    # integer tenths of the fractions so every value is an exact multiple
    # of 0.5. The ordering of the action list fixes the deterministic fill
    # used for states that carry no steady-state mass.
    env = {0: {0: 0.8, 1: 0.2}, 1: {0: 0.3, 1: 0.7}}
    fractions = ("0.2", "0.5", "0.8")
    actions_order = ("0.5", "0.2", "0.8")
    tenths = {"0.2": 2, "0.5": 5, "0.8": 8}
    stock_return10 = {0: -5.0, 1: 10.0}  # 1000 * 0.1 * r1(regime)
    states = tuple(f"({x},{w})" for x in (0, 1) for w in fractions)
    parsed = [(x, tenths[w]) for x in (0, 1) for w in fractions]
    actions = (actions_order,) * len(states)
    n_pairs = len(states) * len(actions_order)
    kernel = np.zeros((n_pairs, len(states)))
    rewards3 = np.zeros((n_pairs, len(states)))
    for i, (x, w10) in enumerate(parsed):
        for c, a_name in enumerate(actions_order):
            a10 = tenths[a_name]
            k = i * len(actions_order) + c
            for j, (x2, w10_2) in enumerate(parsed):
                rewards3[k, j] = (2.0 * (10 - a10) + a10 * stock_return10[x2]
                                  - 0.5 * abs(a10 - w10))
                if w10_2 == a10:
                    kernel[k, j] = env[x][x2]
    return MdpInstance("endowment", states, actions, kernel, rewards3=rewards3)


_BUILTINS = {"example1": _example1, "example2": _example2, "endowment": _endowment}


def builtin(name):
    """Return one of the bundled instances: example1, example2, endowment."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin instance {name!r}; have {sorted(_BUILTINS)}") from None


def random_instance(seed, n_states, n_actions, reward_range=(0.0, 100.0)):
    """Deterministic random instance with strictly positive kernel rows.

    Each row is a Dirichlet draw mixed with the uniform distribution at
    weight 0.05, so every stationary policy induces an irreducible and
    aperiodic chain by construction. Rewards are uniform over the given
    range, rounded to 4 decimals.
    """
    if n_states < 1 or n_actions < 1:
        raise ValueError("need at least one state and one action")
    lo, hi = float(reward_range[0]), float(reward_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("reward range must be finite")
    rng = np.random.default_rng(seed)
    n_pairs = n_states * n_actions
    raw = rng.dirichlet(np.ones(n_states), size=n_pairs)
    kernel = 0.95 * raw + 0.05 / n_states
    rewards = np.round(rng.uniform(lo, hi, size=n_pairs), 4)
    states = tuple(f"s{i + 1}" for i in range(n_states))
    actions = (tuple(f"a{j + 1}" for j in range(n_actions)),) * n_states
    return MdpInstance(f"random-{seed}-{n_states}x{n_actions}", states, actions,
                       kernel, rewards=rewards)


# -- policy extraction and randomization count -------------------------------


def extract_policy(instance, x, zero_tol=1e-12):
    """Turn an occupation measure into the stationary policy it induces.

    Where the state marginal is positive the rule is the ratio
    x(i,a) / sum_a' x(i,a'); a state with no mass gets a point mass on its
    first-listed action, which keeps extraction deterministic.
    """
    x = as_pair_array(x)
    probs = np.zeros_like(x)
    for i in range(instance.n_states):
        lo, hi = instance.offsets[i], instance.offsets[i + 1]
        marginal = float(x[lo:hi].sum())
        if marginal > zero_tol:
            probs[lo:hi] = x[lo:hi] / marginal
        else:
            probs[lo] = 1.0
    probs = probs + 0.0  # normalize negative zeros from solver output
    return StationaryPolicy(probs)


def n_randomizations(instance, policy, tol=RANDOMIZATION_TOL):
    """Number of extra actions carrying mass beyond one per state."""
    probs = as_pair_array(policy)
    active = probs > tol
    return int(active.sum()) - instance.n_states


def deterministic_policy_count(instance, cap=10**6):
    """Number of deterministic policies; raises CapExceededError above cap."""
    total = math.prod(len(acts) for acts in instance.actions)
    if total > cap:
        raise CapExceededError(f"{total} deterministic policies exceed cap {cap}")
    return total


def deterministic_policies(instance, cap=10**6):
    """All deterministic policies in lexicographic order of action indices."""
    deterministic_policy_count(instance, cap)
    counts = [len(acts) for acts in instance.actions]
    idx = [0] * len(counts)
    out = []
    while True:
        out.append(DeterministicPolicy(tuple(idx)))
        pos = len(counts) - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < counts[pos]:
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            return out


class CapExceededError(RuntimeError):
    """Policy enumeration would exceed the configured cap."""

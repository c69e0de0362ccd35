"""Finite MDP instances and policies.

An instance stores its state-action pairs in one flat canonical order:
states in listing order, and within each state the admissible actions in
listing order. Every array in this package (kernels, rewards, occupation
measures, policy probabilities) is aligned to that pair order.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerances. Probability data is validated tightly; randomization counts
# carry LP solver noise and get a looser threshold. A state whose
# occupation is at most MARGINAL_ZERO_TOL gets its first action on
# extraction.
PROB_TOL = 1e-9
RANDOMIZATION_TOL = 1e-6
MARGINAL_ZERO_TOL = 1e-12

# Most deterministic policies the exhaustive tools (enumeration and the
# assumption check) visit.
POLICY_CAP = 10**6

SCHEMA_TAG = "mdp-v1"

_INSTANCE_KEYS = {"format", "name", "states", "actions", "transitions", "rewards", "rewards3"}


class InstanceFormatError(ValueError):
    """An instance or policy file does not match its schema; the message
    names the entry."""


def _frozen(a):
    """Mark the array a read-only, in place, and return it."""
    a.setflags(write=False)
    return a


def _readonly(a):
    """A read-only float64 copy of a, so the caller's array stays writable."""
    return _frozen(np.array(a, dtype=np.float64, order="C"))


@dataclass(frozen=True, eq=False)
class MdpInstance:
    """A finite MDP: states, per-state admissible actions, kernel, rewards.

    kernel[k, j] is the probability of moving to state j from pair k.
    Exactly one of `rewards` (per pair) and `rewards3` (per pair and next
    state) is present; `rewards3` models rewards that depend on the state
    reached, as in the endowment instance. This class is the one reader of
    the two fields: every computation on rewards goes through the grid
    `reward_values`, the reward table `reward_atoms` and `step_grid`.
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
        return _frozen(out)

    @cached_property
    def pair_state(self):
        """State index of each flat pair."""
        return _frozen(np.repeat(np.arange(self.n_states, dtype=np.int64),
                                 [len(acts) for acts in self.actions]))

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

    @cached_property
    def _reward_table(self):
        """(values, (pair, grid, prob), key) from one np.unique over the paid
        entries of `table`; key[i], increasing, is atom i's flat index there."""
        table, probs = ((self.rewards[:, None], np.ones((self.n_pairs, 1)))
                        if self.rewards is not None else (self.rewards3, self.kernel))
        key = np.flatnonzero(probs)
        values, grid = np.unique(table.ravel()[key], return_inverse=True)
        atoms = key // probs.shape[1], grid, probs.ravel()[key]
        return _frozen(values), tuple(map(_frozen, atoms)), key

    @property
    def reward_values(self):
        """The reward grid: the sorted distinct rewards some pair pays, read-only."""
        return self._reward_table[0]

    @property
    def reward_atoms(self):
        """The reward table: three read-only 1-D arrays (pair, grid, prob)
        in (pair, atom) order. Atom i is paid by pair[i] with probability
        prob[i] and pays reward_values[grid[i]]. Per-pair rewards give one
        atom per pair with prob 1.0; next-state rewards one per nonzero
        kernel entry, in next-state order. Every reward sum runs over these
        atoms in this order (`risk.atom_sums`).
        """
        return self._reward_table[1]

    def step_grid(self, pairs, next_states):
        """The grid point that each step from pairs[i] to next_states[i]
        pays; every step must have positive probability."""
        atom = (pairs if self.rewards is not None else
                np.searchsorted(self._reward_table[2], pairs * self.n_states + next_states))
        return self.reward_atoms[1][atom]

    def reward_bounds(self):
        return float(self.reward_values[0]), float(self.reward_values[-1])

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
        """A policy from a policy file's {state: {action: probability}}; a
        missing pair has probability 0. Every probability must be a finite
        number. A malformed mapping raises InstanceFormatError naming the
        entry's dotted path (`policy.s1.a`), and rows that do not normalize
        raise ValueError."""
        probs = _pair_table(mapping, "policy", instance.states, instance.actions, None,
                            complete=False)
        pol = cls(probs)
        bad = policy_residual(instance, pol)
        if bad > PROB_TOL:
            raise ValueError(f"policy rows do not normalize (residual {bad:.2e})")
        return pol

    def to_mapping(self, instance):
        return _pair_doc(instance, self.probs, None, omit_zero=False)


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


@dataclass(frozen=True, eq=False)
class TimeDependentPolicy:
    """A finite schedule of per-step stationary rules u_t(a|s): row t of the
    read-only (horizon, n_pairs) array `rules` is the flat probability row
    of step t."""

    rules: np.ndarray
    label: str = "time-dependent"

    def __post_init__(self):
        object.__setattr__(self, "rules", _readonly(self.rules))

    @classmethod
    def from_rules(cls, rules, label="time-dependent"):
        return cls(rules, label)

    @property
    def horizon(self):
        return self.rules.shape[0]

    def rows(self, T):
        if T < 0:
            raise ValueError(f"T must be nonnegative, got {T}")
        if T > self.horizon:
            raise ValueError(f"horizon exceeded: need {T} steps, policy defines {self.horizon}")
        return self.rules[:T]

    def __reduce__(self):
        # rebuild through __post_init__, so an unpickled schedule is read-only too
        return type(self), (self.rules, self.label)


def as_pair_array(x):
    """Accept a StationaryPolicy or a bare array of pair weights."""
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
    """Largest violation of per-state normalization / nonnegativity; a
    non-finite entry is an infinite one."""
    probs = as_pair_array(policy)
    if not np.isfinite(probs).all():
        return np.inf
    sums = np.add.reduceat(probs, instance.offsets[:-1])
    worst = float(np.abs(sums - 1.0).max()) if instance.n_pairs else 0.0
    neg = float(max(0.0, -(probs.min()))) if probs.size else 0.0
    return max(worst, neg)


def polytope_residual(instance, x):
    """Largest violation of the stationary-distribution constraint set.

    Covers flow balance at every state, total mass one, and nonnegativity.
    An (n, n_pairs) stack of measures gives an array of n residuals.
    """
    x = as_pair_array(x)
    rows = np.atleast_2d(x)
    out_mass = (np.add.reduceat(rows, instance.offsets[:-1], axis=1) if instance.n_pairs
                else np.zeros((rows.shape[0], instance.n_states)))
    balance = np.abs(out_mass - rows @ instance.kernel).max(axis=1, initial=0.0)
    norm = np.abs(rows.sum(axis=1) - 1.0)
    neg = -rows.min(axis=1, initial=0.0)
    residual = np.maximum(np.maximum(balance, norm), neg)
    return float(residual[0]) if x.ndim == 1 else residual


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
    gaps = np.abs(instance.kernel.sum(axis=1) - 1.0)
    mins = instance.kernel.min(axis=1)
    # a NaN entry passes both comparisons below, so it is counted apart
    nonfinite = (~np.isfinite(instance.kernel)).sum(axis=1)
    for k in np.flatnonzero((nonfinite > 0) | (gaps > PROB_TOL) | (mins < 0.0)).tolist():
        state, action = instance.pair_name(k)
        where = f"({state!r}, {action!r})"
        if nonfinite[k]:
            bad.append(Violation(where, "non-finite transition probability", float(nonfinite[k])))
        if gaps[k] > PROB_TOL:
            bad.append(Violation(where, "transition row does not sum to 1", float(gaps[k])))
        if mins[k] < 0.0:
            bad.append(Violation(where, "negative transition probability", -float(mins[k])))
    rewards = instance.rewards if instance.rewards is not None else instance.rewards3
    bad_rewards = np.sum(~np.isfinite(rewards))
    if bad_rewards:
        bad.append(Violation("rewards", "non-finite reward value", float(bad_rewards)))
    return ValidationReport(tuple(bad))


# -- file format -------------------------------------------------------------


def save(instance, target):
    """Write the instance as structured text to a path or a text handle;
    see `load` for the schema."""
    doc = {"format": SCHEMA_TAG, "name": instance.name, "states": list(instance.states),
           "actions": {s: list(acts) for s, acts in zip(instance.states, instance.actions)},
           "transitions": _pair_doc(instance, instance.kernel, instance.states, omit_zero=True)}
    if instance.rewards is not None:
        doc["rewards"] = _pair_doc(instance, instance.rewards, None, omit_zero=False)
    else:
        doc["rewards3"] = _pair_doc(instance, instance.rewards3, instance.states, omit_zero=False)
    if hasattr(target, "write"):
        json.dump(doc, target, indent=2)
        target.write("\n")
    else:
        with open(target, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _pair_doc(instance, table, next_states, omit_zero):
    """The file form of a pair table, the inverse of `_pair_table`: state ->
    action -> table[k] for an (n_pairs,) table, or state -> action -> next
    state -> table[k, j] for an (n_pairs, len(next_states)) one, without
    the zero entries when omit_zero."""
    offsets = instance.offsets.tolist()
    values = table.tolist() if next_states is None else None

    def entry(k):
        if next_states is None:
            return values[k]
        cols = np.flatnonzero(table[k]) if omit_zero else np.arange(len(next_states))
        return {next_states[j]: v for j, v in zip(cols.tolist(), table[k, cols].tolist())}

    return {s: {a: entry(offsets[i] + c) for c, a in enumerate(acts)}
            for i, (s, acts) in enumerate(zip(instance.states, instance.actions))}


def _require(cond, msg):
    if not cond:
        raise InstanceFormatError(msg)


def _number(v, path, key):
    """The float of entry `key` of the object at `path`: JSON's ints and
    floats and numpy's real scalars pass if finite as floats; strings,
    booleans, NaN, infinities and integers beyond float range are refused."""
    # JSON's own types skip the slower abstract-class check
    if type(v) in (float, int) or (isinstance(v, numbers.Real) and not isinstance(v, bool)):
        try:
            value = float(v)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise InstanceFormatError(f"'{path}.{key}' must be a finite number, got {reprlib.repr(v)}")


class _Doubled(dict):
    """A file's object that names the key `twice` more than once."""


def read_json(path):
    """The JSON document in an instance or policy file. An object that
    names a key twice comes back as a `_Doubled`, which `_keys` refuses:
    a plain dict would keep the last value silently."""
    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            obj = _Doubled(obj)
            obj.twice = next(k for i, k in enumerate(keys) if k in keys[:i])
        return obj
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=pairs_hook)


def _keys(node, path, known, kind, complete):
    """Check that `node` at `path` is an object naming only keys of `known`,
    each once, and every one of them when complete."""
    if not isinstance(node, dict):
        raise InstanceFormatError(f"'{path}' must be an object")
    if isinstance(node, _Doubled):
        raise InstanceFormatError(f"'{path}' names {kind} {node.twice!r} twice")
    for key in node:
        if key not in known:
            raise InstanceFormatError(f"'{path}' names unknown {kind} {key!r}")
    if complete and len(node) < len(known):
        missing = next(key for key in known if key not in node)
        raise InstanceFormatError(f"'{path}' missing {kind} {missing!r}")


def _pair_table(node, path, states, actions, next_states, complete):
    """Read the pair table `node` at `path`: state -> action -> number into
    an (n_pairs,) array, or, when next_states is given, state -> action ->
    next state -> number into an (n_pairs, len(next_states)) one, in the
    pair order of `states` and `actions`.

    Every object names only known keys; a complete table names all of
    them, and an incomplete one reads a missing entry as 0. Each error
    names the entry's dotted path.
    """
    counts = [len(acts) for acts in actions]
    table = np.zeros(sum(counts) if next_states is None else (sum(counts), len(next_states)))
    state_pos = {s: i for i, s in enumerate(states)}
    next_pos = None if next_states is None else {s: j for j, s in enumerate(next_states)}
    offsets = np.cumsum([0] + counts).tolist()
    _keys(node, path, state_pos, "state", complete)
    for s, row in node.items():
        i = state_pos[s]
        row_path = f"{path}.{s}"
        action_pos = {a: offsets[i] + c for c, a in enumerate(actions[i])}
        _keys(row, row_path, action_pos, "action", complete)
        for a, leaf in row.items():
            k = action_pos[a]
            if next_pos is None:
                table[k] = _number(leaf, row_path, a)
                continue
            leaf_path = f"{row_path}.{a}"
            _keys(leaf, leaf_path, next_pos, "next state", complete)
            for j, v in leaf.items():
                table[k, next_pos[j]] = _number(v, leaf_path, j)
    return table


def load(path):
    """Read an instance file.

    The format is a single JSON object with keys `name`, `states`,
    `actions` (state -> list of actions), `transitions` (state -> action ->
    next state -> probability, zeros omitted), and exactly one of `rewards`
    (state -> action -> value) or `rewards3` (state -> action -> next state
    -> value, all next states listed). An optional `format` key carries the
    schema tag; unknown or doubled keys are refused everywhere. Every number must
    be a real number that converts to a finite float, so NaN, infinities and
    integers beyond float range are refused here, with the entry's dotted
    path (`transitions.s1.a.s2`); row sums and signs are left to `validate`.
    """
    try:
        doc = read_json(path)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"{path}: not valid structured text at line {e.lineno}, column {e.colno}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    if isinstance(doc, _Doubled):
        raise InstanceFormatError(f"top level names key {doc.twice!r} twice")
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
    _require(len(set(states)) == len(states), "'states' contains duplicates")

    _keys(doc["actions"], "actions", dict.fromkeys(states), "state", complete=True)
    actions = []
    for s in states:
        acts = doc["actions"][s]
        _require(isinstance(acts, list) and all(isinstance(a, str) for a in acts),
                 f"'actions.{s}' must be an array of strings")
        _require(len(set(acts)) == len(acts), f"'actions.{s}' contains duplicates")
        actions.append(tuple(acts))

    kernel = _pair_table(doc["transitions"], "transitions", states, actions, states,
                         complete=False)
    key = "rewards" if has_r else "rewards3"
    table = _pair_table(doc[key], key, states, actions, None if has_r else states, complete=True)
    rewards, rewards3 = (table, None) if has_r else (None, table)

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
    if lo > hi:
        raise ValueError(f"reward range must have lo <= hi, got ({lo:g}, {hi:g})")
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


def extract_policy(instance, x):
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
        if marginal > MARGINAL_ZERO_TOL:
            probs[lo:hi] = x[lo:hi] / marginal
        else:
            probs[lo] = 1.0
    probs = probs + 0.0  # normalize negative zeros from solver output
    return StationaryPolicy(probs)


def n_randomizations(instance, policy, tol=RANDOMIZATION_TOL):
    """Number of extra actions carrying mass beyond one per state; a state
    with no action above tol counts none."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    active = np.add.reduceat(as_pair_array(policy) > tol, instance.offsets[:-1], dtype=np.intp)
    return int(np.maximum(active - 1, 0).sum())


def deterministic_policy_count(instance):
    """Number of deterministic policies; raises CapExceededError above
    POLICY_CAP."""
    total = math.prod(len(acts) for acts in instance.actions)
    if total > POLICY_CAP:
        raise CapExceededError(f"{total} deterministic policies exceed cap {POLICY_CAP}")
    return total


def policy_actions(instance, index):
    """Local action indices of deterministic policy number `index`, the
    policies numbered in lexicographic order of their action indices (the
    `deterministic_policies` order); an array of numbers gives one row per
    number."""
    return np.stack(np.unravel_index(index, np.diff(instance.offsets)), axis=-1)


def deterministic_policies(instance):
    """All deterministic policies in lexicographic order of action indices."""
    total = deterministic_policy_count(instance)
    return [DeterministicPolicy(c) for c in policy_actions(instance, np.arange(total)).tolist()]


class CapExceededError(RuntimeError):
    """Policy enumeration would exceed POLICY_CAP."""

"""Exact tail-risk computations for finite discrete reward laws.

Everything here is closed-form arithmetic on sorted atoms: quantile
integrals are finite segment sums, never sampled. The right-tailed CVaR
(mean of the top 1-alpha quantile mass) is the maximization target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import _frozen, as_pair_array

# Largest amount by which a law's probabilities may sum off 1, or fall
# below 0, before `DiscreteDistribution.from_atoms` refuses it.
LAW_SUM_TOL = 1e-9
# Guard against last-bit noise in cumulative probabilities when locating
# quantiles; distinct CDF levels of real data sit far above this.
_QEPS = 1e-12
# Most (level, atom) brackets `saddle_coefficient_rows` holds at once
# (2 MiB of float64 per temporary).
_BRACKET_BLOCK = 1 << 18


@dataclass(frozen=True)
class RiskParams:
    """Probability level alpha in [0,1) and finite mean weight beta >= 0.

    beta = 0 is pure CVaR; alpha = 0 collapses CVaR to the mean, which
    recovers the classical average-reward criterion.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite law in canonical form: values sorted, equal values merged."""

    values: np.ndarray
    probs: np.ndarray

    @classmethod
    def from_atoms(cls, values, probs):
        values = np.asarray(values, dtype=np.float64).ravel()
        probs = np.asarray(probs, dtype=np.float64).ravel()
        if values.shape != probs.shape:
            raise ValueError("values and probs must have the same length")
        if not np.all(np.isfinite(values)):
            raise ValueError("distribution values must be finite")
        if not np.all(np.isfinite(probs)):
            raise ValueError("distribution probabilities must be finite")
        if probs.size == 0:
            raise ValueError("distribution needs at least one atom")
        if float(probs.min()) < -LAW_SUM_TOL:
            raise ValueError(f"negative probability {probs.min():.3g}")
        total = float(probs.sum())
        if abs(total - 1.0) > LAW_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        uniq, inverse = np.unique(values, return_inverse=True)
        merged = np.bincount(inverse, weights=np.clip(probs, 0.0, None), minlength=uniq.size)
        keep = merged > 0.0
        return cls(_frozen(np.ascontiguousarray(uniq[keep])),
                   _frozen(np.ascontiguousarray(merged[keep])))

    @cached_property
    def cdf(self):
        return _frozen(np.cumsum(self.probs))

    def mean(self):
        return float(self.values @ self.probs)

    def __len__(self):
        return self.values.size


def var(dist, alpha):
    """The alpha-quantile inf{z : F(z) >= alpha}; alpha = 0 gives the minimum."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    idx = int(np.searchsorted(dist.cdf, alpha - _QEPS, side="left"))
    return dist.values.item(min(idx, len(dist) - 1))


def cvar_right_rows(values, weights, alpha):
    """Mean of the top (1-alpha) mass of each law in `weights`, a 1-D law
    or a stack of laws on the sorted 1-D grid `values`.

    The segment sum runs down from the top atom, so exactly 1-alpha is
    taken even when a law's total drifts in the last bit.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    tail = 1.0 - alpha
    w = np.asarray(weights, dtype=np.float64)[..., ::-1]
    top = np.cumsum(w, axis=-1)
    # np.clip(., 0.0, None) calls this ufunc too, with several times its overhead
    return np.maximum(np.minimum(top, tail) - (top - w), 0.0) @ values[::-1] / tail


def cvar_right(dist, alpha):
    """Mean of the top (1-alpha) quantile mass, as an exact segment sum."""
    return float(cvar_right_rows(dist.values, dist.probs, alpha))


def atom_sums(terms, index, width):
    """Sums of terms, one per atom of an instance's `reward_atoms`, by the
    atom's pair or grid point index[i] in [0, width), each sum added in
    atom order by one bincount: (..., n_atoms) terms give (..., width)."""
    rows = np.atleast_2d(terms)
    keys = np.arange(0, rows.shape[0] * width, width)[:, None] + index
    sums = np.bincount(keys.ravel(), rows.ravel(), minlength=rows.shape[0] * width)
    return sums.reshape(np.shape(terms)[:-1] + (width,))


def reward_law_rows(instance, xs):
    """Law of the reward under pair weights x on the grid `reward_grid[0]`,
    for one weight vector or each row of a stack: atom i of `reward_atoms`
    puts max(x(pair[i]), 0) * prob[i] on grid point grid[i]."""
    pair, grid, prob = instance.reward_atoms
    weights = np.maximum(as_pair_array(xs), 0.0)[..., pair] * prob
    return atom_sums(weights, grid, instance.reward_grid[0].size)


def reward_distribution(instance, x):
    """Law of the reward under the state-action weights x (see
    `reward_law_rows`), as a validated `DiscreteDistribution`."""
    return DiscreteDistribution.from_atoms(instance.reward_grid[0], reward_law_rows(instance, x))


def cvar_right_and_mean_rows(instance, xs, alpha):
    """Right-tail CVaR and mean of the reward law of every row of xs:
    row-batched `cvar_right(reward_distribution(instance, x), alpha)` and
    `.mean()` on the laws of `reward_law_rows`."""
    values = instance.reward_grid[0]
    law = reward_law_rows(instance, xs)
    return cvar_right_rows(values, law, alpha), law @ values


def breakpoints(instance):
    """Breakpoint set of the instance's saddle objective in y: the sorted
    distinct reward values `reward_grid[0]`, a read-only array.

    The objective is piecewise linear in y with kinks only at reward
    values, so scans over y can be restricted to this finite set.
    """
    return instance.reward_grid[0]


def saddle_coefficients(instance, y, params):
    """Per-pair coefficients c_k(y) with v(x, y) = sum_k x(k) c_k(y).

    c_k is the bracket y + [r - y]^+ / (1-alpha) + beta * r averaged over
    the law of the reward r that pair k pays (its atoms in
    `instance.reward_atoms`).
    """
    return saddle_coefficient_rows(instance, [y], params)[0]


def saddle_coefficient_rows(instance, ys, params):
    """`saddle_coefficients` at every level of ys, as a (len(ys), n_pairs)
    array. The brackets are broadcast over blocks of (level, atom), and
    each pair's are summed over its atoms by `atom_sums`, so a row does not
    depend on the other levels in the call."""
    pair, grid, prob = instance.reward_atoms
    values = instance.reward_grid[0][grid]
    inv = 1.0 / (1.0 - params.alpha)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((ys.size, instance.n_pairs))
    step = max(1, _BRACKET_BLOCK // max(1, values.size))
    for i in range(0, ys.size, step):
        y = ys[i:i + step, None]
        inner = y + inv * np.clip(values - y, 0.0, None) + params.beta * values
        out[i:i + step] = atom_sums(prob * inner, pair, instance.n_pairs)
    return out


def saddle_value(instance, x, y, params):
    """The convex-concave objective v(x, y): linear in x, piecewise linear
    and convex in y with kinks at the instance's reward values."""
    x = as_pair_array(x)
    return float(x @ saddle_coefficients(instance, y, params))


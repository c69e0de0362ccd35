import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_bench_scripts import load_bench_solve
from test_chains import sparse_kernels
from test_evaluate import repeated_reward_instance

from cvarmdp import model, risk
from cvarmdp.risk import DiscreteDistribution

COIN = DiscreteDistribution.from_atoms([-2.0, 2.0], [0.5, 0.5])


def random_dist(rng, max_atoms=10, lo=-50.0, hi=50.0):
    n = int(rng.integers(1, max_atoms + 1))
    values = np.round(rng.uniform(lo, hi, n), 2)  # rounding forces occasional ties
    probs = rng.dirichlet(np.ones(n))
    return DiscreteDistribution.from_atoms(values, probs)


@st.composite
def distributions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    values = draw(st.lists(st.integers(min_value=-100, max_value=100),
                           min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(min_value=1, max_value=20),
                            min_size=n, max_size=n))
    probs = np.array(weights, dtype=float)
    return DiscreteDistribution.from_atoms(np.array(values, dtype=float),
                                           probs / probs.sum())


class TestCanonicalForm:
    def test_sorted_and_merged(self):
        d = DiscreteDistribution.from_atoms([3.0, 1.0, 3.0], [0.25, 0.5, 0.25])
        assert list(d.values) == [1.0, 3.0]
        assert list(d.probs) == [0.5, 0.5]

    def test_zero_atoms_dropped(self):
        d = DiscreteDistribution.from_atoms([1.0, 2.0], [1.0, 0.0])
        assert len(d) == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            DiscreteDistribution.from_atoms([1.0], [0.5])
        with pytest.raises(ValueError):
            DiscreteDistribution.from_atoms([1.0, 2.0], [1.5, -0.5])
        with pytest.raises(ValueError):
            DiscreteDistribution.from_atoms([np.inf], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_refused(self, bad):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            DiscreteDistribution.from_atoms([1.0, 2.0], [bad, 1.0])


class TestVar:
    def test_coin_median(self):
        assert risk.var(COIN, 0.5) == -2.0

    def test_dirac(self):
        d = DiscreteDistribution.from_atoms([7.0], [1.0])
        for alpha in (0.0, 0.3, 0.9):
            assert risk.var(d, alpha) == 7.0

    def test_alpha_zero_is_minimum(self):
        assert risk.var(COIN, 0.0) == -2.0

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            risk.var(COIN, 1.0)


class TestCvar:
    def test_coin_right_tail(self):
        assert risk.cvar_right(COIN, 0.5) == pytest.approx(2.0, abs=1e-15)

    def test_coin_left_tail(self):
        assert oracles.cvar_left(COIN, 0.5) == pytest.approx(-2.0, abs=1e-15)

    def test_dirac(self):
        d = DiscreteDistribution.from_atoms([3.5], [1.0])
        assert risk.cvar_right(d, 0.25) == 3.5
        assert oracles.cvar_left(d, 0.25) == 3.5

    def test_alpha_zero_is_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = random_dist(rng)
            assert risk.cvar_right(d, 0.0) == pytest.approx(d.mean(), abs=1e-12)

    def test_partial_atom_split(self):
        d = DiscreteDistribution.from_atoms([0.0, 10.0], [0.8, 0.2])
        # top 30% of mass: the 10-atom (0.2) plus a 0.1 slice of the 0-atom
        assert risk.cvar_right(d, 0.7) == pytest.approx((0.2 * 10.0) / 0.3, abs=1e-12)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        grid = np.arange(0.0, 0.95, 0.1)
        for _ in range(50):
            d = random_dist(rng)
            vals = [risk.cvar_right(d, a) for a in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_support(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = random_dist(rng)
            for alpha in (0.0, 0.3, 0.77):
                c = risk.cvar_right(d, alpha)
                assert d.values[0] - 1e-12 <= c <= d.values[-1] + 1e-12

    @given(distributions(), st.integers(min_value=1, max_value=9))
    @settings(max_examples=150, deadline=None)
    def test_tail_decomposition_identity(self, d, tenth):
        alpha = tenth / 10.0
        lhs = (1 - alpha) * risk.cvar_right(d, alpha) + alpha * oracles.cvar_left(d, alpha)
        assert lhs == pytest.approx(d.mean(), abs=1e-12)


class TestRuObjective:
    def test_dirac_below(self):
        d = DiscreteDistribution.from_atoms([2.0], [1.0])
        assert oracles.ru_objective(d, 0.0, 0.5) == pytest.approx(4.0)

    def test_dirac_at(self):
        d = DiscreteDistribution.from_atoms([2.0], [1.0])
        assert oracles.ru_objective(d, 2.0, 0.5) == pytest.approx(2.0)

    def test_coin_at_minimum(self):
        assert oracles.ru_objective(COIN, -2.0, 0.5) == pytest.approx(2.0)

    @given(distributions(),
           st.floats(min_value=-120, max_value=120),
           st.floats(min_value=-120, max_value=120),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_convex_in_y(self, d, y1, y2, lam):
        alpha = 0.6
        mid = lam * y1 + (1 - lam) * y2
        f = lambda y: oracles.ru_objective(d, y, alpha)
        assert f(mid) <= lam * f(y1) + (1 - lam) * f(y2) + 1e-12


class TestCvarViaRu:
    def test_coin(self):
        val, y = oracles.cvar_via_ru(COIN, 0.5)
        assert val == pytest.approx(2.0, abs=1e-12)
        assert y == -2.0  # both support points attain it; leftmost wins

    def test_dirac(self):
        assert oracles.cvar_via_ru(DiscreteDistribution.from_atoms([4.0], [1.0]), 0.3) == (4.0, 4.0)

    def test_matches_quantile_integral(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = random_dist(rng)
            alpha = float(rng.uniform(0.0, 0.95))
            val, y = oracles.cvar_via_ru(d, alpha)
            assert val == pytest.approx(risk.cvar_right(d, alpha), abs=1e-10)
            assert y == risk.var(d, alpha)


class TestRewardDistribution:
    def test_point_mass(self):
        kernel = np.array([[1.0], [1.0]])
        inst = model.MdpInstance("one", ("s",), (("a", "b"),), kernel,
                                 rewards=np.array([5.0, 1.0]))
        d = risk.reward_distribution(inst, np.array([1.0, 0.0]))
        assert list(d.values) == [5.0]

    def test_merges_equal_rewards(self):
        kernel = np.array([[1.0], [1.0]])
        inst = model.MdpInstance("one", ("s",), (("a", "b"),), kernel,
                                 rewards=np.array([3.0, 3.0]))
        d = risk.reward_distribution(inst, np.array([0.4, 0.6]))
        assert len(d) == 1 and d.probs[0] == pytest.approx(1.0)

    def test_next_state_weighting(self):
        inst = model.builtin("endowment")
        k = inst.pair_index("(1,0.8)", "0.8")
        x = np.zeros(inst.n_pairs)
        x[k] = 1.0
        d = risk.reward_distribution(inst, x)
        i = list(d.values).index(84.0)
        assert d.probs[i] == pytest.approx(0.7)  # bull-to-bull probability


def exact_cvar_right(values, weights, alpha):
    """Right-tail CVaR of float inputs in rational arithmetic: take mass
    from the top atom down until 1 - alpha is used up."""
    left = tail = 1 - Fraction(alpha)
    total = Fraction(0)
    for v, w in zip(reversed(values.tolist()), reversed(weights.tolist())):
        take = min(Fraction(w), left)
        total += take * Fraction(v)
        left -= take
    return total / tail


@st.composite
def laws_on_a_grid(draw):
    """A sorted grid of up to 8 values (ties allowed) and 1-4 laws on it,
    each normalized in floating point, so its total may miss 1 in the last bit."""
    n = draw(st.integers(min_value=1, max_value=8))
    values = np.sort(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    rows = draw(st.integers(min_value=1, max_value=4))
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 50), min_size=n, max_size=n)
                                     .filter(any), min_size=rows, max_size=rows)), dtype=float)
    return values, weights / weights.sum(axis=1, keepdims=True)


class TestCvarRightRows:
    def test_total_short_of_one_takes_exactly_the_tail(self):
        d = DiscreteDistribution.from_atoms([4.0], [1 - 2**-52])
        assert risk.cvar_right(d, 0.5) == 4.0

    @given(laws_on_a_grid(), st.floats(0.0, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_arithmetic(self, law, alpha):
        values, weights = law
        tol = 1e-13 * max(1.0, float(np.abs(values).max())) / (1.0 - alpha)
        one = risk.cvar_right_rows(values, weights[0], alpha)
        assert one.shape == ()
        assert abs(float(one) - float(exact_cvar_right(values, weights[0], alpha))) <= tol
        batch = risk.cvar_right_rows(values, weights, alpha)
        assert batch.shape == (weights.shape[0],)
        for row, c in zip(weights, batch):
            assert abs(float(c) - float(exact_cvar_right(values, row, alpha))) <= tol

    @pytest.mark.parametrize("alpha", [1.0, -0.1])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            risk.cvar_right_rows(np.array([1.0]), np.array([1.0]), alpha)


def law_instance(name):
    return repeated_reward_instance() if name == "repeated" else model.builtin(name)


def bincount_law(inst, x):
    """Reference law of one weight row: a plain bincount over the atoms."""
    values, index = inst.reward_grid
    weights = np.clip(x[:, None] * oracles.dense_reward_atoms(inst)[1], 0.0, None)
    return np.bincount(index.ravel(), weights=weights.ravel(), minlength=values.size)


class TestRewardLawRows:
    """One bincount over (row, grid point) keys adds each row's weights in
    the order a bincount of that row alone adds them."""

    @staticmethod
    def weight_rows(inst, seed):
        rng = np.random.default_rng(seed)
        xs = rng.dirichlet(np.ones(inst.n_pairs), size=30)
        xs[::3, ::2] = 0.0
        xs[1::4, 0] = -1e-3  # clipped to 0
        return xs

    def check(self, inst, xs):
        want = np.stack([bincount_law(inst, x) for x in xs])
        got = risk.reward_law_rows(inst, xs)
        assert got.shape == (xs.shape[0], inst.reward_grid[0].size)
        assert np.array_equal(got, want)
        for x, row in zip(xs, want):
            assert np.array_equal(risk.reward_law_rows(inst, x), row)

    @pytest.mark.parametrize("name", ["example2", "endowment", "repeated"])
    def test_matches_per_row_bincount(self, name):
        inst = law_instance(name)
        self.check(inst, self.weight_rows(inst, 5))

    @given(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_row_bincount_sparse(self, inst, seed):
        self.check(inst, self.weight_rows(inst, seed))

    @pytest.mark.parametrize("name", ["example2", "endowment", "repeated"])
    def test_reward_distribution_bits_unchanged(self, name):
        # the law from_atoms builds out of every unmerged atom
        inst = law_instance(name)
        values, probs = oracles.dense_reward_atoms(inst)
        for x in self.weight_rows(inst, 6):
            x = np.abs(x) / np.abs(x).sum()
            want = DiscreteDistribution.from_atoms(values.ravel(), (x[:, None] * probs).ravel())
            got = risk.reward_distribution(inst, x)
            assert np.array_equal(got.values, want.values)
            assert got.probs.tobytes() == want.probs.tobytes()


class TestRewardLawMemory:
    def test_cost_grows_with_paid_atoms(self):
        """20 law rows of bench_solve's next-state-reward sparse3 200x4
        instance allocate per paid atom (at most 4 per pair), not per
        (pair, next state) entry: a weight array over all 800 x 200 entries
        of 20 rows is 24 MiB."""
        inst = load_bench_solve().make_instance("sparse3", 1, 200, 4)
        xs = np.random.default_rng(0).dirichlet(np.ones(inst.n_pairs), size=20)
        inst.reward_grid, inst.reward_atoms  # built once per instance, not per call
        tracemalloc.start()
        try:
            law = risk.reward_law_rows(inst, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law.shape == (20, 24)
        assert peak < 4 * 2**20


class TestCvarAndMeanRows:
    @pytest.mark.parametrize("name", ["example2", "endowment"])
    def test_rows_match_reward_distribution(self, name):
        inst = model.builtin(name)
        rng = np.random.default_rng(4)
        xs = rng.dirichlet(np.ones(inst.n_pairs), size=40)
        xs[::3, ::2] = 0.0  # zero atoms, as in deterministic occupations
        xs /= xs.sum(axis=1, keepdims=True)
        for alpha in (0.0, 0.5, 0.9):
            cvar, mean = risk.cvar_right_and_mean_rows(inst, xs, alpha)
            for x, c, m in zip(xs, cvar, mean):
                law = risk.reward_distribution(inst, x)
                assert c == pytest.approx(risk.cvar_right(law, alpha), abs=1e-12)
                assert m == pytest.approx(law.mean(), abs=1e-12)

    def test_tied_rewards(self):
        inst = model.MdpInstance("ties", ("s",), (("a", "b", "c"),), np.ones((3, 1)),
                                 rewards=np.array([1.0, 5.0, 1.0]))
        cvar, mean = risk.cvar_right_and_mean_rows(inst, np.array([[0.3, 0.4, 0.3]]), 0.5)
        assert cvar[0] == pytest.approx((0.1 * 1.0 + 0.4 * 5.0) / 0.5, abs=1e-12)
        assert mean[0] == pytest.approx(0.6 + 2.0, abs=1e-12)


class TestSaddleValue:
    def one_pair(self, r=5.0):
        return model.MdpInstance("one", ("s",), (("a",),), np.array([[1.0]]),
                                 rewards=np.array([r]))

    def test_zero_excess(self):
        inst = self.one_pair(5.0)
        p = risk.RiskParams(0.5)
        assert risk.saddle_value(inst, [1.0], 5.0, p) == pytest.approx(5.0)

    def test_all_excess_active_at_lower_bound(self):
        inst = model.builtin("example2")
        p = risk.RiskParams(0.7)
        x = np.full(inst.n_pairs, 1.0 / inst.n_pairs)
        lo, _ = inst.reward_bounds()
        expected = lo + (float(x @ inst.rewards) - lo) / 0.3
        assert risk.saddle_value(inst, x, lo, p) == pytest.approx(expected, abs=1e-9)

    def test_linear_in_x(self):
        inst = model.builtin("example2")
        p = risk.RiskParams(0.7, 0.2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x1, x2 = rng.random(9), rng.random(9)
            lam = float(rng.random())
            y = float(rng.uniform(4, 94))
            lhs = risk.saddle_value(inst, lam * x1 + (1 - lam) * x2, y, p)
            rhs = lam * risk.saddle_value(inst, x1, y, p) \
                + (1 - lam) * risk.saddle_value(inst, x2, y, p)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_min_over_breakpoints_is_cvar(self):
        inst = model.builtin("example2")
        p = risk.RiskParams(0.7)
        rng = np.random.default_rng(5)
        ys = risk.breakpoints(inst)
        for _ in range(10):
            raw = rng.random(9)
            x = raw / raw.sum()
            law = risk.reward_distribution(inst, x)
            best = min(risk.saddle_value(inst, x, float(y), p) for y in ys)
            assert best == pytest.approx(risk.cvar_right(law, 0.7), abs=1e-10)


def per_level_coefficients(inst, ys, params):
    """Reference for `saddle_coefficient_rows`: per level and pair, a plain
    loop that adds the pair's paid atoms' probability times bracket in atom
    order."""
    pair, at, prob = inst.reward_atoms
    values = inst.reward_grid[0][at].tolist()
    inv = 1.0 / (1.0 - params.alpha)
    out = np.zeros((len(ys), inst.n_pairs))
    for e, y in enumerate(ys.tolist()):
        for k, v, p in zip(pair.tolist(), values, prob.tolist()):
            out[e, k] += p * (y + inv * max(v - y, 0.0) + params.beta * v)
    return out


class TestSaddleCoefficientRows:
    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_equal_to_per_level_sums(self, block, monkeypatch):
        """Bit for bit on both reward kinds, whether the levels go in one
        block, one by one or in blocks of several."""
        from test_chains import seeded_instances

        for i, inst in enumerate(seeded_instances()):
            if block is not None:
                monkeypatch.setattr(risk, "_BRACKET_BLOCK", block * inst.reward_atoms[0].size)
            params = risk.RiskParams([0.0, 0.5, 0.9][i % 3], [0.0, 0.5][i % 2])
            ys = risk.breakpoints(inst)
            ref = per_level_coefficients(inst, ys, params)
            assert np.array_equal(risk.saddle_coefficient_rows(inst, ys, params), ref), inst.name
            assert np.array_equal(risk.saddle_coefficients(inst, float(ys[-1]), params), ref[-1])


class TestBreakpoints:
    def test_example2_values(self):
        bp = risk.breakpoints(model.builtin("example2"))
        assert list(bp) == [4, 5, 13, 39, 69, 70, 71, 77, 94]

    def test_degenerate_single_value(self):
        inst = model.MdpInstance("flat", ("s",), (("a", "b"),),
                                 np.array([[1.0], [1.0]]), rewards=np.array([3.0, 3.0]))
        bp = risk.breakpoints(inst)
        assert list(bp) == [3.0]

    def test_endowment_contains_extremes(self):
        bp = risk.breakpoints(model.builtin("endowment"))
        assert 84.0 in bp
        assert -36.0 in bp


class TestRiskParams:
    def test_validation(self):
        risk.RiskParams(0.0)
        risk.RiskParams(0.99, 2.0)
        with pytest.raises(ValueError):
            risk.RiskParams(1.0)
        with pytest.raises(ValueError):
            risk.RiskParams(0.5, -0.1)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_beta_must_be_finite(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
            risk.RiskParams(0.7, beta)

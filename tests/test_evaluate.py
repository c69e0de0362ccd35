import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_chains import sparse_kernels

import cvarmdp
from cvarmdp import _kernels, chains, cli, evaluate, model, risk, solver


def dirac_reward_instance():
    kernel = np.array([[0.3, 0.7], [0.6, 0.4]])
    return model.MdpInstance("flat", ("s1", "s2"), (("a",), ("a",)), kernel,
                             rewards=np.array([4.0, 4.0]))


def repeated_reward_instance():
    """Next-state rewards that repeat across the states a pair reaches."""
    kernel = np.array([[0.1, 0.3, 0.6], [0.7, 0.2, 0.1], [1 / 3, 1 / 3, 1 / 3]])
    r3 = np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 2.0], [0.0, 1.0, 1.0]])
    return model.MdpInstance("repeated", ("s1", "s2", "s3"), (("a",),) * 3, kernel,
                             rewards3=r3)


def single_action_policy(instance):
    return model.DeterministicPolicy((0,) * instance.n_states).to_stationary(instance)


class TestExample1Schedule:
    def test_switch_at_time_zero(self):
        inst = model.builtin("example1")
        pol = evaluate.example1_policy(10)
        row = pol.rows(1)[0]
        assert row[inst.pair_index("s1", "a12")] == 1.0  # move to the second state

    def test_stay_mid_block(self):
        inst = model.builtin("example1")
        pol = evaluate.example1_policy(10)
        for t in (1, 2):
            row = pol.rows(10)[t]
            assert row[inst.pair_index("s2", "a22")] == 1.0

    def test_block_boundaries(self):
        bounds = evaluate.example1_block_boundaries(10**6)
        assert list(bounds[:5]) == [1, 4, 13, 40, 121]
        # (3^(2n) - 1) / 2 starts a block in the first state
        assert all((3 ** (2 * n) - 1) // 2 in set(bounds) for n in range(1, 6))

    def test_swing_window_reaches_last_rising_block_end(self):
        # block ends are (3^(j+1) - 1)/2 - 1; even j ends a rise
        assert evaluate.example1_swing_window((3**12 - 1) // 2) == (3**12 - 1) // 2 - 88572
        assert evaluate.example1_swing_window(29524) == 29524 - 9840
        # a horizon that stops on a rising block end still keeps the fall before it
        assert evaluate.example1_swing_window(88573) == 88573 - 9840
        assert [evaluate.example1_swing_window(T) for T in (1, 3, 13)] == [1, 3, 13]

    def test_rows_match_power_of_three_oracle(self):
        # t + 1 is a block start (3^k - 1) / 2 exactly when 2(t + 1) + 1 is
        # a power of 3; the switch action is played on such steps
        stay, switch = [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]
        rows = evaluate.example1_policy(200).rows(200)
        for t in range(200):
            p = 3
            while p < 2 * (t + 1) + 1:
                p *= 3
            assert rows[t].tolist() == (switch if p == 2 * (t + 1) + 1 else stay)

    def test_rows_refuses_negative_horizon(self):
        pol = evaluate.example1_policy(10)
        assert pol.rows(0).shape == (0, 4)
        with pytest.raises(ValueError, match="T must be nonnegative, got -2"):
            pol.rows(-2)

    def test_pickle_round_trip(self):
        rows = np.random.default_rng(0).random((7, 4))
        for pol in (model.TimeDependentPolicy.from_rules(rows, label="random"),
                    evaluate.example1_policy(200)):
            back = pickle.loads(pickle.dumps(pol))
            assert np.array_equal(back.rows(back.horizon), pol.rows(pol.horizon))
            assert back.label == pol.label
            assert not back.rules.flags.writeable


class TestCvarSequenceExample1:
    def test_per_step_block_pattern(self):
        inst = model.builtin("example1")
        T = 130
        seq = evaluate.cvar_sequence(inst, evaluate.example1_policy(T), "s1", T, 0.5)
        # occupancy: s1 at t=0, s2 in [1,3], s1 in [4,12], s2 in [13,39], ...
        expect = np.empty(T)
        expect[0] = 2.0
        expect[1:4] = -2.0
        expect[4:13] = 2.0
        expect[13:40] = -2.0
        expect[40:121] = 2.0
        expect[121:130] = -2.0
        assert np.array_equal(seq.per_step, expect)

    def test_per_step_attains_both_extremes(self):
        inst = model.builtin("example1")
        T = (3**10 - 1) // 2
        seq = evaluate.cvar_sequence(inst, evaluate.example1_policy(T), "s1", T, 0.5)
        assert seq.per_step.max() == 2.0
        assert seq.per_step.min() == -2.0

    def test_cesaro_extremes_for_tripling_blocks(self):
        # With block lengths 3^k the running average at the end of a falling
        # block is exactly -1, and just above +1 at the end of a rising one;
        # the only value above +1.1 is the first step itself.
        inst = model.builtin("example1")
        T = (3**10 - 1) // 2
        seq = evaluate.cvar_sequence(inst, evaluate.example1_policy(T), "s1", T, 0.5)
        assert seq.cesaro[0] == 2.0
        assert seq.cesaro.min() == pytest.approx(-1.0, abs=1e-12)
        assert seq.cesaro[1:].max() <= 14.0 / 13.0 + 1e-12
        ends_minus = [(3 ** (2 * n) - 1) // 2 - 1 for n in range(1, 5)]
        for t in ends_minus:
            assert seq.cesaro[t] == pytest.approx(-1.0, abs=1e-12)
        ends_plus = [(3 ** (2 * n + 1) - 1) // 2 - 1 for n in range(1, 5)]
        for t in ends_plus:
            assert seq.cesaro[t] > 1.0

    def test_limit_does_not_exist(self):
        # limsup and liminf of the running averages stay apart forever
        inst = model.builtin("example1")
        T = (3**10 - 1) // 2
        seq = evaluate.cvar_sequence(inst, evaluate.example1_policy(T), "s1", T, 0.5)
        hi, lo = evaluate.limsup_liminf_estimate(seq, T - 4)
        assert hi > 1.0
        assert lo == pytest.approx(-1.0, abs=1e-12)


class TestCvarSequenceStationary:
    def test_converges_to_stationary_cvar(self):
        inst = model.random_instance(2, 4, 2)
        pol = single_action_policy(inst)
        occ = chains.stationary_distribution(inst, pol)
        target = risk.cvar_right(risk.reward_distribution(inst, occ), 0.7)
        seq = evaluate.cvar_sequence(inst, pol, "s1", 1000, 0.7)
        assert seq.per_step[-1] == pytest.approx(target, abs=1e-9)
        assert abs(seq.cesaro[-1] - target) < abs(seq.cesaro[99] - target) + 1e-12

    def test_cesaro_error_decays_like_one_over_t(self):
        inst = model.random_instance(7, 3, 2)
        pol = single_action_policy(inst)
        occ = chains.stationary_distribution(inst, pol)
        target = risk.cvar_right(risk.reward_distribution(inst, occ), 0.6)
        seq = evaluate.cvar_sequence(inst, pol, "s1", 1000, 0.6)
        err_100 = abs(seq.cesaro[99] - target)
        err_1000 = abs(seq.cesaro[999] - target)
        assert err_1000 <= err_100 / 5.0 + 1e-12

    def test_dirac_reward_constant_sequence(self):
        inst = dirac_reward_instance()
        seq = evaluate.cvar_sequence(inst, single_action_policy(inst), "s1", 50, 0.5)
        assert np.all(seq.per_step == 4.0)
        assert np.all(seq.cesaro == 4.0)

    def test_per_step_within_reward_bounds(self):
        for seed in range(5):
            inst = model.random_instance(seed, 3, 3)
            pol = single_action_policy(inst)
            seq = evaluate.cvar_sequence(inst, pol, "s1", 200, 0.8)
            lo, hi = inst.reward_bounds()
            assert seq.per_step.min() >= lo - 1e-12
            assert seq.per_step.max() <= hi + 1e-12
            assert np.allclose(seq.cesaro,
                               np.cumsum(seq.per_step) / np.arange(1, 201), atol=0)

    def test_estimates_near_stationary_value(self):
        # The running average carries the whole initial transient, so its
        # error decays like C/T; for this instance C is about 80.
        inst = model.random_instance(4, 3, 2)
        pol = single_action_policy(inst)
        occ = chains.stationary_distribution(inst, pol)
        target = risk.cvar_right(risk.reward_distribution(inst, occ), 0.7)
        seq = evaluate.cvar_sequence(inst, pol, "s1", 1000, 0.7)
        hi, lo = evaluate.limsup_liminf_estimate(seq, 100)
        assert hi == pytest.approx(target, abs=0.1)
        assert lo == pytest.approx(target, abs=0.1)
        seq_long = evaluate.cvar_sequence(inst, pol, "s1", 20_000, 0.7)
        hi_long, lo_long = evaluate.limsup_liminf_estimate(seq_long, 2000)
        assert hi_long == pytest.approx(target, abs=1e-2)
        assert lo_long == pytest.approx(target, abs=1e-2)
        assert abs(hi_long - target) < abs(hi - target) / 10.0

    def test_constant_sequence_estimates(self):
        inst = dirac_reward_instance()
        seq = evaluate.cvar_sequence(inst, single_action_policy(inst), "s1", 20, 0.3)
        assert evaluate.limsup_liminf_estimate(seq, 10) == (4.0, 4.0)

    def test_next_state_rewards_supported(self):
        inst = model.builtin("endowment")
        sol = solver.solve_cvar(inst, risk.RiskParams(0.9, 0.5))
        seq = evaluate.cvar_sequence(inst, sol.policy, "(0,0.2)", 400, 0.9)
        assert seq.per_step[-1] == pytest.approx(sol.cvar_component, abs=1e-6)


class TestMonteCarlo:
    def test_dirac_rewards_exact(self):
        inst = dirac_reward_instance()
        res = evaluate.monte_carlo_eval(inst, single_action_policy(inst), "s1",
                                        T=20, replications=500, seed=0, alpha=0.5)
        assert np.all(res.cvar == 4.0)
        assert res.counts.sum(axis=1).tolist() == [500] * 20

    def test_fixed_seed_reproducible(self):
        inst = model.builtin("example2")
        pol = model.DeterministicPolicy((2, 0, 2)).to_stationary(inst)
        a = evaluate.monte_carlo_eval(inst, pol, "1", 50, 2000, seed=42, alpha=0.7)
        b = evaluate.monte_carlo_eval(inst, pol, "1", 50, 2000, seed=42, alpha=0.7)
        assert np.array_equal(a.counts, b.counts)
        c = evaluate.monte_carlo_eval(inst, pol, "1", 50, 2000, seed=43, alpha=0.7)
        assert not np.array_equal(a.counts, c.counts)

    def test_tracks_exact_sequence(self):
        # The optimal law puts exactly 1 - alpha mass above its quantile, so
        # tail-mass fluctuations of one part in sqrt(n) swing the empirical
        # CVaR by (spread / (1 - alpha)) times that; the max over 200 steps
        # sits a few of those sigmas out.
        inst = model.builtin("example2")
        sol = solver.solve_cvar(inst, risk.RiskParams(0.7))
        exact = evaluate.cvar_sequence(inst, sol.policy, "1", 200, 0.7)
        mc = evaluate.monte_carlo_eval(inst, sol.policy, "1", 200, 100_000,
                                       seed=7, alpha=0.7)
        err = np.abs(mc.cvar - exact.per_step)
        assert err.max() < 1.5
        assert err.mean() < 0.25

    def test_histograms_match_exact_law(self):
        inst = model.builtin("example2")
        sol = solver.solve_cvar(inst, risk.RiskParams(0.7))
        mc = evaluate.monte_carlo_eval(inst, sol.policy, "1", 40, 200_000,
                                       seed=11, alpha=0.7)
        pk = evaluate.t_step_distribution(inst, sol.policy, "1", 39)
        law = risk.reward_distribution(inst, pk)
        exact_probs = {float(v): float(p) for v, p in zip(law.values, law.probs)}
        empirical = mc.counts[39] / mc.replications
        for v, p_hat in zip(mc.values, empirical):
            assert p_hat == pytest.approx(exact_probs.get(float(v), 0.0), abs=4e-3)

    @pytest.mark.parametrize("alpha", [1.0, -0.1])
    def test_rejects_alpha_before_sampling(self, monkeypatch, alpha):
        def step(*args):
            raise AssertionError("sampled before checking alpha")

        monkeypatch.setattr(_kernels, "mc_step", step)
        inst = model.builtin("example2")
        pol = model.DeterministicPolicy((2, 0, 2)).to_stationary(inst)
        with pytest.raises(ValueError, match="alpha"):
            evaluate.monte_carlo_eval(inst, pol, "1", 10, 100, seed=0, alpha=alpha)

    def test_next_state_rewards(self):
        inst = model.builtin("endowment")
        pol = model.DeterministicPolicy((0,) * 6).to_stationary(inst)
        exact = evaluate.cvar_sequence(inst, pol, "(0,0.2)", 60, 0.9)
        mc = evaluate.monte_carlo_eval(inst, pol, "(0,0.2)", 60, 40_000,
                                       seed=3, alpha=0.9)
        assert np.abs(mc.cvar - exact.per_step).max() < 1.0

    # Counts for a pinned seed, as drawn by comparing each replication's
    # uniform with its whole CDF row. They guard the sampling stream: the
    # level counts must make the same comparisons on the same uniforms.
    # 50 replications count the levels in one slab, 40,000 one level at a
    # time.
    PINNED_COUNTS = {
        50: [[8, 1, 24, 9, 4, 4, 0], [4, 9, 11, 8, 6, 11, 1], [7, 19, 1, 4, 0, 19, 0],
             [9, 5, 4, 5, 3, 23, 1], [1, 4, 13, 6, 5, 19, 2], [3, 23, 1, 2, 0, 21, 0]],
        40_000: [[6813, 3175, 17577, 4708, 1191, 6536, 0],
                 [2279, 6165, 10076, 3448, 6240, 9265, 2527],
                 [3247, 12887, 1550, 5287, 0, 17029, 0],
                 [4654, 6941, 3362, 6299, 2501, 15080, 1163],
                 [2450, 5623, 10527, 3629, 6005, 9303, 2463],
                 [3305, 13032, 1521, 5416, 0, 16726, 0]],
    }
    # The same draws under rules that stay for runs of 2, 3 and 1 steps.
    PINNED_BLOCK_COUNTS = {
        50: [[8, 1, 24, 9, 4, 4, 0], [7, 12, 3, 10, 2, 16, 0], [6, 4, 10, 5, 10, 13, 2],
             [3, 6, 6, 1, 15, 15, 4], [0, 7, 15, 5, 9, 12, 2], [2, 24, 1, 3, 0, 20, 0]],
        40_000: [[6813, 3175, 17577, 4708, 1191, 6536, 0],
                 [4196, 8355, 4859, 4780, 2907, 13604, 1299],
                 [2505, 6070, 9225, 3758, 6090, 9824, 2528],
                 [1668, 7453, 9025, 2621, 7447, 8472, 3314],
                 [1832, 7732, 7612, 2780, 7531, 9066, 3447],
                 [3451, 12491, 1402, 5664, 0, 16992, 0]],
    }

    @pytest.mark.parametrize("replications", sorted(PINNED_COUNTS))
    def test_pinned_seed_counts(self, replications):
        # 1, 3 and 2 actions per state, so padded and single-action CDFs
        # are both sampled; next-state rewards; a rule that changes every
        # step, then one that stays for several
        kernel = np.array([[0.2, 0.5, 0.3], [0.6, 0.4, 0.0], [0.0, 0.1, 0.9],
                           [1 / 3, 1 / 3, 1 / 3], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]])
        r3 = (np.arange(6)[:, None] * 3 + np.arange(3) * 5) % 7 - 3.0
        inst = model.MdpInstance("uneven", ("s1", "s2", "s3"),
                                 (("a",), ("a", "b", "c"), ("a", "b")), kernel, rewards3=r3)
        rows = np.array([[1, 0.2, 0.3, 0.5, 0.7, 0.3], [1, 0, 1, 0, 0.4, 0.6],
                         [1, 0.5, 0, 0.5, 1, 0]])
        for schedule, pinned in (([0, 1, 2, 0, 1, 2], self.PINNED_COUNTS),
                                 ([0, 0, 1, 1, 1, 2], self.PINNED_BLOCK_COUNTS)):
            pol = model.TimeDependentPolicy.from_rules(rows[schedule])
            mc = evaluate.monte_carlo_eval(inst, pol, "s2", 6, replications, 2024, alpha=0.5)
            assert mc.values.tolist() == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
            assert mc.counts.tolist() == pinned[replications]

    def test_never_reaches_a_next_state_of_probability_zero(self, monkeypatch):
        # s1's row misses 1 by 5e-10, within PROB_TOL, so its CDF tops out at
        # 1 - 5e-10; a uniform above that must still pick s2, the last next
        # state of positive probability, never s3 and its reward 99
        kernel = np.array([[0.5, 0.5 - 5e-10, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        r3 = np.array([[1.0, 2.0, 99.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        inst = model.MdpInstance("short-row", ("s1", "s2", "s3"), (("a",),) * 3, kernel,
                                 rewards3=r3)
        assert model.validate(inst).ok
        step = _kernels.mc_step

        def high_uniforms(states, u_act, u_nxt, *cdfs):
            return step(states, u_act, np.full_like(u_nxt, 1.0 - 1e-10), *cdfs)

        monkeypatch.setattr(_kernels, "mc_step", high_uniforms)
        mc = evaluate.monte_carlo_eval(inst, single_action_policy(inst), "s1", 2, 10, seed=0,
                                       alpha=0.5)
        first = dict(zip(mc.values.tolist(), mc.counts[0].tolist()))
        assert first.get(99.0, 0) == 0 and first[2.0] == 10
        assert mc.values.tolist() == [0.0, 1.0, 2.0]
        assert mc.counts.tolist() == [[0, 0, 10], [10, 0, 0]]

    def test_never_plays_an_action_of_probability_zero(self, monkeypatch):
        # s1's rule misses 1 by 5e-10, within PROB_TOL, so its CDF tops out
        # at 1 - 5e-10; a uniform above that must still pick b, the last
        # action of positive probability, never c and its reward 99
        kernel = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        rewards = np.array([1.0, 2.0, 99.0, 0.0])
        inst = model.MdpInstance("short-rule", ("s1", "s2"), (("a", "b", "c"), ("a",)), kernel,
                                 rewards=rewards)
        assert model.validate(inst).ok
        pol = model.StationaryPolicy.from_mapping(
            inst, {"s1": {"a": 0.5, "b": 0.5 - 5e-10, "c": 0.0}, "s2": {"a": 1.0}})
        step = _kernels.mc_step

        def high_uniforms(states, u_act, u_nxt, *cdfs):
            return step(states, np.full_like(u_act, 1.0 - 1e-10), u_nxt, *cdfs)

        monkeypatch.setattr(_kernels, "mc_step", high_uniforms)
        for policy in (pol, model.TimeDependentPolicy.from_rules([pol.probs] * 3)):
            mc = evaluate.monte_carlo_eval(inst, policy, "s1", 3, 10, seed=0, alpha=0.5)
            assert mc.values.tolist() == [0.0, 1.0, 2.0, 99.0]
            assert mc.counts[:, 3].tolist() == [0, 0, 0]
            assert mc.counts[:, 2].tolist() == [10, 10, 10]

    def test_cvar_valued_in_bounded_blocks(self):
        # 100 states x 4 actions, K = 400: the histogram is valued in row
        # blocks, so the peak stays near the size of `counts` (one pass over
        # the whole histogram took about five times it)
        inst = model.random_instance(1, 100, 4)
        pol = model.DeterministicPolicy((0,) * 100).to_stationary(inst)
        tracemalloc.start()
        try:
            mc = evaluate.monte_carlo_eval(inst, pol, "s1", 1000, 50, seed=0, alpha=0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - mc.counts.nbytes <= 4 * 2**20
        whole = risk.cvar_right_rows(mc.values, mc.counts / mc.replications, 0.8)
        assert np.array_equal(mc.cvar, whole)


ENTRY_POINTS = {
    "cvar_sequence": lambda inst, pol, s0, T: evaluate.cvar_sequence(inst, pol, s0, T, 0.5),
    "t_step_distribution": lambda inst, pol, s0, T: evaluate.t_step_distribution(
        inst, pol, s0, T - 1),
    "monte_carlo_eval": lambda inst, pol, s0, T: evaluate.monte_carlo_eval(
        inst, pol, s0, T, 8, 0, alpha=0.5),
}


class TestStartStateAndHorizon:
    """The three entry points share one start-state and horizon check: an
    index outside [0, n_states) is refused, not read from the end."""

    @pytest.mark.parametrize("entry, s0, T", [
        *[(entry, s0, 5) for entry in ENTRY_POINTS for s0 in (-1, 2)],
        ("monte_carlo_eval", "s1", 0), ("monte_carlo_eval", "s1", -1), ("simulate", "s1", -1)])
    def test_refused(self, capsys, entry, s0, T):
        message = ("T must be at least 1" if T < 1
                   else f"s0 must be a state name or an index in [0, 2), got {s0}")
        if entry == "simulate":
            # example1's schedule is built before the horizon is checked
            code = cli.main(["simulate", "--builtin", "example1", "--policy", "example1",
                             "--s0", s0, "--T", str(T)])
            assert code == cli.EXIT_INPUT
            assert capsys.readouterr().err == f"error: {message}\n"
            return
        inst = model.builtin("example1")
        with pytest.raises(ValueError, match=re.escape(message)):
            ENTRY_POINTS[entry](inst, evaluate.example1_policy(5), s0, T)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_float_index_refused(self, entry):
        # 1.7 used to be truncated to state 1
        inst = model.builtin("example1")
        with pytest.raises(TypeError):
            ENTRY_POINTS[entry](inst, evaluate.example1_policy(10), 1.7, 3)

    def test_numpy_integer_index_accepted(self):
        inst, pol = model.builtin("example1"), evaluate.example1_policy(10)
        np.testing.assert_array_equal(evaluate.t_step_distribution(inst, pol, np.int64(1), 3),
                                      evaluate.t_step_distribution(inst, pol, "s2", 3))


def random_rules(instance, rng, T, time_dependent):
    """A stationary rule, or one rule per step; each rule has some actions
    switched off, and a state left with none plays its first action."""
    def rule():
        weights = rng.random(instance.n_pairs) * (rng.random(instance.n_pairs) < 0.7)
        return model.extract_policy(instance, weights)
    if time_dependent:
        return model.TimeDependentPolicy.from_rules([rule().probs for _ in range(T)])
    return rule()


class TestEvolutionAgainstStepLaws:
    """Sampled steps of the evolution kernels against the single-law path:
    the t-step pair law from `evaluate.t_step_distribution`, turned into a
    reward law by `risk.reward_distribution` and valued by `risk.cvar_right`."""

    T = 12

    @given(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)),
           st.sampled_from([0.0, 0.5, 0.9]), st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.integers(min_value=0, max_value=T - 1), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_per_step_cvar_and_monte_carlo_counts(self, inst, alpha, time_dependent,
                                                  seed, steps):
        rng = np.random.default_rng(seed)
        policy = random_rules(inst, rng, self.T, time_dependent)
        s0 = int(rng.integers(inst.n_states))
        seq = evaluate.cvar_sequence(inst, policy, s0, self.T, alpha)
        mc = evaluate.monte_carlo_eval(inst, policy, s0, self.T, 64, seed, alpha=alpha)
        assert mc.counts.sum(axis=1).tolist() == [64] * self.T
        for t in steps:
            law = risk.reward_distribution(inst, evaluate.t_step_distribution(inst, policy, s0, t))
            assert seq.per_step[t] == pytest.approx(risk.cvar_right(law, alpha), abs=1e-12)
            # a sampled reward must have positive exact probability
            possible = set(law.values[law.probs > 0].tolist())
            assert set(mc.values[mc.counts[t] > 0].tolist()) <= possible


def step_by_step(instance, rules, s0, T, alpha):
    """Plain reference for the chunked evolution: push the state law one
    step at a time, bincount each step's reward law and value it alone.
    Returns the per-step CVaR and the pair laws."""
    values, k, c, index = oracles.paid_reward_grid(instance)
    probs = oracles.dense_reward_atoms(instance)[1][k, c]
    mu = np.zeros(instance.n_states)
    mu[s0] = 1.0
    cvar, pair_laws = np.empty(T), np.empty((T, instance.n_pairs))
    for t in range(T):
        pk = mu[instance.pair_state] * rules[min(t, rules.shape[0] - 1)]
        law = np.bincount(index, weights=pk[k] * probs, minlength=values.size)
        cvar[t] = risk.cvar_right_rows(values, law, alpha)
        pair_laws[t] = pk
        mu = pk @ instance.kernel
    return cvar, pair_laws


class TestChunkedEvolution:
    """`_kernels.pair_law_blocks` (runs of identical rules, settled runs
    copied, buffered sparse atom map) against `step_by_step`: the same
    float operations on the same inputs, so the same bits."""

    @given(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)),
           st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=8),
           st.booleans(), st.integers(min_value=1, max_value=40),
           st.sampled_from([0.0, 0.5, 0.9]), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_step_by_step(self, inst, run_lengths, stationary, rows, alpha, seed):
        # Small buffers put buffer edges inside the runs and inside the
        # copied stretches of settled runs; T is rarely a multiple of rows.
        rng = np.random.default_rng(seed)
        T = sum(run_lengths)
        if stationary:
            rules = model.extract_policy(inst, rng.random(inst.n_pairs)).probs[None]
        else:
            rules = np.repeat([random_rules(inst, rng, 1, False).probs for _ in run_lengths],
                              run_lengths, axis=0)
        s0 = int(rng.integers(inst.n_states))
        values = oracles.paid_reward_grid(inst)[0]
        mu0 = np.zeros(inst.n_states)
        mu0[s0] = 1.0
        ref, ref_pairs = step_by_step(inst, rules, s0, T, alpha)
        policy = (model.StationaryPolicy(rules[0]) if stationary
                  else model.TimeDependentPolicy.from_rules(rules))
        entries = rows * max(values.size, inst.n_pairs)
        with mock.patch.object(_kernels, "LAW_BLOCK_ENTRIES", entries):
            per_step, drift = _kernels.cvar_sequence_kernel(
                inst.kernel, inst.pair_state, rules, mu0, T, alpha,
                evaluate._atom_matrix(inst), values)
            last = evaluate.t_step_distribution(inst, policy, s0, T - 1)
        blocks = [b.copy() for b in _kernels.pair_law_blocks(
            inst.kernel, inst.pair_state, rules, mu0, T, rows)]
        assert all(0 < b.shape[0] <= rows for b in blocks)
        assert np.array_equal(np.concatenate(blocks), ref_pairs)
        assert np.array_equal(last, ref_pairs[-1])
        assert np.array_equal(per_step, ref)
        assert drift.shape == (T,)
        assert drift.max() <= evaluate.MASS_DRIFT_TOL

    def test_settling_starts_afresh_in_each_run(self):
        # Two swaps take the law from s1 to s2 and back; the next rule sends
        # s1 to s2 and keeps s2 there. Its first step reaches the law of two
        # steps before, yet the two laws are no cycle of the new rule.
        inst = model.builtin("example1")
        swap, to_s2 = [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]
        rules = np.array([swap] * 2 + [to_s2] * 6)
        ref, ref_pairs = step_by_step(inst, rules, 0, 8, 0.5)
        seq = evaluate.cvar_sequence(inst, model.TimeDependentPolicy.from_rules(rules), "s1",
                                     8, 0.5)
        assert np.array_equal(seq.per_step, ref)
        assert ref_pairs[3:, 3].tolist() == [1.0] * 5

    def test_long_horizon_keeps_mass(self):
        # A dense kernel whose rows miss 1 by a few units in the last place:
        # evolved exactly, its mass drifts by about 1.3e-12 over 20,000
        # steps; the float push settles and keeps it near 1.
        inst = model.random_instance(1, 10, 4)
        pol = single_action_policy(inst)
        seq = evaluate.cvar_sequence(inst, pol, "s1", 20_000, 0.8)
        ref, _ = step_by_step(inst, model.rule_rows(pol, 1)[0], 0, 20_000, 0.8)
        assert np.array_equal(seq.per_step, ref)

    @pytest.mark.parametrize("name", ["example2", "endowment", "repeated"])
    def test_atom_matrix_sums_like_bincount(self, name):
        inst = repeated_reward_instance() if name == "repeated" else model.builtin(name)
        values, k, c, index = oracles.paid_reward_grid(inst)
        pk = np.random.default_rng(0).dirichlet(np.ones(inst.n_pairs), size=50)
        probs = oracles.dense_reward_atoms(inst)[1][k, c]
        ref = np.stack([np.bincount(index, weights=p[k] * probs, minlength=values.size)
                        for p in pk])
        atoms = evaluate._atom_matrix(inst)
        assert np.array_equal((atoms @ pk.T).T, ref)

    def test_oscillator_bit_identical(self):
        # every block of the schedule is a run that settles after two steps
        inst = model.builtin("example1")
        T = (3**9 - 1) // 2
        pol = evaluate.example1_policy(T)
        ref, _ = step_by_step(inst, model.rule_rows(pol, T)[0], 0, T, 0.5)
        assert np.array_equal(evaluate.cvar_sequence(inst, pol, "s1", T, 0.5).per_step, ref)


def slowly_mixing_instance():
    """Two 3-state Dirichlet blocks joined by a 1e-4 leak: kernel rows miss
    1 by up to 2.2e-16 and the law takes tens of thousands of steps to
    settle, so its mass moves by about that much per step."""
    rng = np.random.default_rng(0)
    kernel = np.zeros((6, 6))
    kernel[:3, :3] = rng.dirichlet(np.ones(3), 3)
    kernel[3:, 3:] = rng.dirichlet(np.ones(3), 3)
    kernel = (1 - 1e-4) * kernel + 1e-4 / 6
    return model.MdpInstance("leak", tuple(f"s{i}" for i in range(6)), (("a",),) * 6,
                             kernel, rewards=np.arange(6.0))


def off_by(eps):
    """`_atom_matrix` with every reward weight scaled by 1 + eps."""
    real = evaluate._atom_matrix

    def patched(*args):
        atoms = real(*args)
        atoms.data *= 1.0 + eps
        return atoms
    return patched


class TestMassDriftGate:
    """The mass-drift gate grows with the steps pushed times the rows' own
    float error, from the MASS_DRIFT_TOL floor."""

    def test_slowly_mixing_chain_passes(self):
        inst = slowly_mixing_instance()
        assert model.validate(inst).ok
        pol = single_action_policy(inst)
        rules = model.rule_rows(pol, 1)[0]
        seq = evaluate.cvar_sequence(inst, pol, "s0", 20_000, 0.8)
        ref, _ = step_by_step(inst, rules, 0, 20_000, 0.8)
        assert np.array_equal(seq.per_step, ref)
        # one action and one-point rewards: only the kernel rows miss 1
        miss = np.abs(inst.kernel.sum(axis=1) - 1.0).max()
        assert 0.0 < miss <= 2.3e-16
        budget = evaluate._mass_budget(inst, rules, 20_000)
        assert budget[0] == evaluate.MASS_DRIFT_TOL
        assert budget[-1] == pytest.approx(evaluate.MASS_DRIFT_TOL + 19_999 * miss, rel=1e-12)

    @pytest.mark.parametrize("name", ["example1", "example2", "endowment"])
    def test_exact_rows_keep_the_floor(self, name):
        # deterministic rules, one for every step or one for all: their
        # weights at each state sum to 1 exactly, as do these kernels' rows
        inst = model.builtin(name)
        rng = np.random.default_rng(1)
        rules = np.array([model.DeterministicPolicy(tuple(rng.integers(np.diff(inst.offsets))))
                          .to_stationary(inst).probs for _ in range(50)])
        for rows in (rules[:1], rules):
            assert np.all(evaluate._mass_budget(inst, rows, 50) == evaluate.MASS_DRIFT_TOL)

    @pytest.mark.parametrize("leak, eps, match", [
        (False, 1e-9, "drifted by"), (False, 2e-12, "drifted by"), (True, 1e-9, "drifted by"),
        (False, np.nan, "drifted by nan at step 0")])
    def test_mass_off_refused(self, monkeypatch, leak, eps, match):
        # exact rows (example2) keep the 1e-12 floor; the leak chain's
        # 20,000-step budget still refuses mass off by 1e-9
        inst = slowly_mixing_instance() if leak else model.builtin("example2")
        monkeypatch.setattr(evaluate, "_atom_matrix", off_by(eps))
        with pytest.raises(chains.ChainStructureError, match=f"probability mass {match}"):
            evaluate.cvar_sequence(inst, single_action_policy(inst), 0,
                                   20_000 if leak else 2_000, 0.8)

    def test_t_step_law_on_the_same_budget(self):
        # the leak chain's law at t = 19,999 drifts past the 1e-12 floor but
        # stays inside the budget cvar_sequence grants the same step
        inst = slowly_mixing_instance()
        pol = single_action_policy(inst)
        pk = evaluate.t_step_distribution(inst, pol, "s0", 19_999)
        drift = abs(pk.sum() - 1.0)
        assert evaluate.MASS_DRIFT_TOL < drift
        assert drift <= evaluate._mass_budget(inst, model.rule_rows(pol, 1)[0], 20_000)[-1]
        assert cvarmdp.t_step_distribution is evaluate.t_step_distribution

    @pytest.mark.parametrize("leak", [False, True])
    def test_t_step_mass_off_refused(self, monkeypatch, leak):
        inst = slowly_mixing_instance() if leak else model.builtin("example2")
        real = _kernels.pair_law_blocks
        monkeypatch.setattr(_kernels, "pair_law_blocks",
                            lambda *args: (b * (1.0 + 1e-9) for b in real(*args)))
        with pytest.raises(chains.ChainStructureError, match="probability mass drifted by"):
            evaluate.t_step_distribution(inst, single_action_policy(inst), 0,
                                         19_999 if leak else 1_999)


class TestLemma2Gap:
    def test_gap_vanishes_for_large_t(self):
        inst = model.random_instance(6, 3, 2)
        pol = single_action_policy(inst)
        gap, bound = oracles.lemma2_gap(inst, pol, "s1", 500, 0.7)
        assert gap < 1e-8
        assert bound < 1e-6

    def test_bound_holds_at_time_zero(self):
        for seed in range(10):
            inst = model.random_instance(seed, 4, 2)
            pol = single_action_policy(inst)
            gap, bound = oracles.lemma2_gap(inst, pol, "s1", 0, 0.7)
            assert gap <= bound + 1e-10

    def test_example2_optimal_policy(self):
        inst = model.builtin("example2")
        sol = solver.solve_cvar(inst, risk.RiskParams(0.7))
        gap, bound = oracles.lemma2_gap(inst, sol.policy, "1", 5, 0.7)
        assert gap <= bound + 1e-10

    def test_sweep_times(self):
        for seed in range(5):
            inst = model.random_instance(seed, 3, 2)
            pol = single_action_policy(inst)
            for t in (1, 5, 25, 125):
                gap, bound = oracles.lemma2_gap(inst, pol, "s1", t, 0.7)
                assert gap <= bound + 1e-10


class TestExport:
    def test_csv_columns(self, tmp_path):
        inst = dirac_reward_instance()
        seq = evaluate.cvar_sequence(inst, single_action_policy(inst), "s1", 3, 0.5)
        path = tmp_path / "seq.csv"
        evaluate.export_sequence(seq, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,cvar_t,cesaro_t"
        assert len(lines) == 4
        assert lines[1].startswith("0,4.0,4.0")

    def test_single_row(self):
        import io

        inst = dirac_reward_instance()
        seq = evaluate.cvar_sequence(inst, single_action_policy(inst), "s1", 1, 0.5)
        buf = io.StringIO()
        evaluate.export_sequence(seq, buf)
        assert len(buf.getvalue().strip().splitlines()) == 2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chains import sparse_kernels

from cvarmdp import _kernels, chains, evaluate, model, risk, solver


def dirac_reward_instance():
    kernel = np.array([[0.3, 0.7], [0.6, 0.4]])
    return model.MdpInstance("flat", ("s1", "s2"), (("a",), ("a",)), kernel,
                             rewards=np.array([4.0, 4.0]))


def single_action_policy(instance):
    return model.DeterministicPolicy((0,) * instance.n_states).to_stationary(instance)


class TestExample1Schedule:
    def test_switch_at_time_zero(self):
        inst = model.builtin("example1")
        pol = evaluate.example1_policy(10)
        row = pol.rule(0)
        assert row[inst.pair_index("s1", "a12")] == 1.0  # move to the second state

    def test_stay_mid_block(self):
        inst = model.builtin("example1")
        pol = evaluate.example1_policy(10)
        for t in (1, 2):
            row = pol.rule(t)
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

    def test_materializer_matches_rule(self):
        pol = evaluate.example1_policy(200)
        rows = pol.rows(200)
        for t in range(200):
            assert np.array_equal(rows[t], pol.rule(t))


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
        pk = chains.t_step_distribution(inst, sol.policy, "1", 39)
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
    """Sampled steps of the evolution kernels against an independent
    reference: the t-step pair law from `chains.t_step_distribution`, turned into a
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
            law = risk.reward_distribution(inst, chains.t_step_distribution(inst, policy, s0, t))
            assert seq.per_step[t] == pytest.approx(risk.cvar_right(law, alpha), abs=1e-12)
            # a sampled reward must have positive exact probability
            possible = set(law.values[law.probs > 0].tolist())
            assert set(mc.values[mc.counts[t] > 0].tolist()) <= possible


class TestLemma2Gap:
    def test_gap_vanishes_for_large_t(self):
        inst = model.random_instance(6, 3, 2)
        pol = single_action_policy(inst)
        res = evaluate.lemma2_gap(inst, pol, "s1", 500, 0.7)
        assert res.gap < 1e-8
        assert res.bound < 1e-6

    def test_bound_holds_at_time_zero(self):
        for seed in range(10):
            inst = model.random_instance(seed, 4, 2)
            pol = single_action_policy(inst)
            res = evaluate.lemma2_gap(inst, pol, "s1", 0, 0.7)
            assert res.gap <= res.bound + 1e-10

    def test_example2_optimal_policy(self):
        inst = model.builtin("example2")
        sol = solver.solve_cvar(inst, risk.RiskParams(0.7))
        res = evaluate.lemma2_gap(inst, sol.policy, "1", 5, 0.7)
        assert res.gap <= res.bound + 1e-10

    def test_sweep_times(self):
        for seed in range(5):
            inst = model.random_instance(seed, 3, 2)
            pol = single_action_policy(inst)
            for t in (1, 5, 25, 125):
                res = evaluate.lemma2_gap(inst, pol, "s1", t, 0.7)
                assert res.gap <= res.bound + 1e-10


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

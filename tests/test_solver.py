import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_chains import sparse_instance, sparse_kernels

from cvarmdp import chains, lp, model, risk, solver


def one_pair_instance(r=5.0):
    return model.MdpInstance("one", ("s",), (("a",),), np.array([[1.0]]),
                             rewards=np.array([r]))


@pytest.fixture(scope="module")
def example2_solution():
    return solver.solve_cvar(model.builtin("example2"), risk.RiskParams(0.7),
                             mode="dual-primal")


@pytest.fixture(scope="module")
def endowment_solution():
    return solver.solve_cvar(model.builtin("endowment"), risk.RiskParams(0.9, 0.5))


class TestExample2:
    def test_value(self, example2_solution):
        assert example2_solution.v_star == pytest.approx(93.24, abs=0.01)

    def test_policy(self, example2_solution):
        pm = example2_solution.policy.to_mapping(model.builtin("example2"))
        assert pm["1"]["3"] == pytest.approx(1.0, abs=1e-9)
        assert pm["2"]["1"] == pytest.approx(1.0, abs=1e-9)
        assert pm["3"]["1"] == pytest.approx(0.0255, abs=1e-3)
        assert pm["3"]["3"] == pytest.approx(0.9745, abs=1e-3)

    def test_one_randomization(self, example2_solution):
        assert example2_solution.n_rand == 1

    def test_tail_level_is_quantile_of_final_law(self, example2_solution):
        inst = model.builtin("example2")
        law = risk.reward_distribution(inst, example2_solution.x_star)
        assert example2_solution.y_star == risk.var(law, 0.7) == 39.0

    def test_certified_at_interior_level(self, example2_solution):
        c = example2_solution.certificates
        assert "interior-tail-level" in example2_solution.flags
        assert 70.0 < c.tail_level < 71.0
        assert c.certified
        assert c.saddle_left_gap <= 2e-6
        assert c.saddle_right_gap <= 2e-6

    def test_minimax_equality(self, example2_solution):
        assert example2_solution.primal_value == pytest.approx(
            example2_solution.v_star, abs=2e-6)

    def test_value_decomposition(self, example2_solution):
        s = example2_solution
        assert s.v_star == pytest.approx(s.cvar_component + 0.0 * s.mean_component,
                                         abs=1e-6)


class TestEndowment:
    def test_quantile_exact(self, endowment_solution):
        assert endowment_solution.y_star == 84.0

    def test_combined_value(self, endowment_solution):
        assert endowment_solution.v_star == pytest.approx(96.84, abs=0.01)

    def test_components(self, endowment_solution):
        assert endowment_solution.cvar_component == pytest.approx(84.0, abs=1e-6)
        assert endowment_solution.mean_component == pytest.approx(25.68, abs=1e-6)

    def test_deterministic_policy(self, endowment_solution):
        inst = model.builtin("endowment")
        expected = {
            "(0,0.2)": "0.2", "(0,0.5)": "0.5", "(0,0.8)": "0.2",
            "(1,0.2)": "0.8", "(1,0.5)": "0.5", "(1,0.8)": "0.8",
        }
        pm = endowment_solution.policy.to_mapping(inst)
        for state, action in expected.items():
            assert pm[state][action] == pytest.approx(1.0, abs=1e-9), state
        assert endowment_solution.n_rand == 0

    def test_multichain_policy_flagged(self, endowment_solution):
        assert "assumption-violation" in endowment_solution.flags

    def test_certificates(self, endowment_solution):
        assert endowment_solution.certificates.certified


class TestForcedInstances:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    def test_single_pair(self, beta):
        inst = one_pair_instance(3.0)
        sol = solver.solve_cvar(inst, risk.RiskParams(0.4, beta))
        assert sol.v_star == pytest.approx((1 + beta) * 3.0, abs=1e-9)
        assert sol.y_star == 3.0
        assert sol.n_rand == 0
        c = sol.certificates
        assert c.saddle_left_gap == pytest.approx(0.0, abs=1e-9)
        assert c.saddle_right_gap == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_optimum_conserved_by_sparsify(self):
        # two actions, one clearly dominant: the optimum is deterministic
        inst = model.MdpInstance("dom", ("s",), (("a", "b"),),
                                 np.array([[1.0], [1.0]]),
                                 rewards=np.array([10.0, 1.0]))
        sol = solver.solve_cvar(inst, risk.RiskParams(0.3))
        assert sol.n_rand == 0
        assert sol.v_star == pytest.approx(10.0, abs=1e-9)


class TestSparsify:
    def test_example2_policy_after_sparsify(self, example2_solution):
        assert "quantile-tie" not in example2_solution.flags
        assert example2_solution.n_rand == 1

    def test_seed_sweep_randomization_bound(self):
        # the raw occupation LP plus one sparsification per seed, skipping
        # the certification stack, keeps a 100-seed sweep quick
        from cvarmdp import lp

        params = risk.RiskParams(0.7)
        ties = 0
        for seed in range(100):
            inst = model.random_instance(seed, 5, 2)
            dual = lp.solve(lp.build_dual_lp(inst, params))
            x = lp.pair_values(inst, dual)
            y = risk.var(risk.reward_distribution(inst, x), 0.7)
            xf, tie = solver.sparsify(inst, x, y, params)
            if tie:
                ties += 1
            else:
                pol = model.extract_policy(inst, xf)
                assert model.n_randomizations(inst, pol) <= 1, f"seed {seed}"
        assert ties <= 20  # ties need the LP to pick an exact-CDF vertex



def assert_certified_with_one_randomization(inst, params):
    sol = solver.solve_cvar(inst, params)
    assert sol.certificates.certified
    assert sol.n_rand <= 1
    assert sol.y_star in risk.breakpoints(inst)


class TestRandomizationBound:
    """The occupation program's basic optimum randomizes at most once, so
    solve_cvar reports it without a sparsification stage."""

    def test_alpha_zero_randomizes_at_most_once(self):
        # the instance on which the sparsification program always tied
        inst = model.random_instance(3, 3, 2)
        sol = solver.solve_cvar(inst, risk.RiskParams(0.0))
        assert sol.n_rand <= 1
        assert "quantile-tie" not in sol.flags
        assert sol.certificates.certified

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)),
           st.sampled_from([0.0, 0.3, 0.7, 0.95]), st.sampled_from([0.0, 0.5]))
    def test_sparse_kernels_certified_with_one_randomization(self, inst, alpha, beta):
        sol = solver.solve_cvar(inst, risk.RiskParams(alpha, beta))
        assert sol.certificates.certified
        assert sol.n_rand <= 1
        assert sol.y_star in risk.breakpoints(inst)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=13, max_value=16), st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 0.5]))
    def test_above_policy_cap_certified(self, n_states, rewards3, seed, alpha, beta):
        # 3**13 deterministic policies already exceed the enumeration cap
        inst = sparse_instance(np.random.default_rng(seed), n_states, [3] * n_states,
                               rewards3)
        assert_certified_with_one_randomization(inst, risk.RiskParams(alpha, beta))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=50, max_value=200), st.integers(min_value=2, max_value=4),
           st.booleans(), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([0.0, 0.5, 0.8]), st.sampled_from([0.0, 0.5]))
    @example(200, 4, False, 2, 0.8, 0.5)
    @example(200, 4, True, 2, 0.8, 0.5)
    def test_large_sparse_certified(self, n_states, n_actions, rewards3, seed, alpha, beta):
        inst = sparse_instance(np.random.default_rng(seed), n_states, [n_actions] * n_states,
                               rewards3)
        assert_certified_with_one_randomization(inst, risk.RiskParams(alpha, beta))

    @pytest.mark.parametrize("n_states, n_actions", [(13, 3), (20, 4)])
    def test_dense_above_policy_cap_certified(self, n_states, n_actions):
        inst = model.random_instance(1, n_states, n_actions)
        assert_certified_with_one_randomization(inst, risk.RiskParams(0.7))

    @pytest.mark.parametrize("name, alpha, beta, mode", [
        ("example2", 0.7, 0.0, "dual-primal"),   # interior certification level
        ("endowment", 0.9, 0.5, "dual"),
        ("example1", 0.0, 0.0, "dual"),
        ("example2", 0.7, 0.0, "dual"),
        ("dense-20x4", 0.7, 0.5, "dual"),
    ])
    def test_no_program_solved_twice(self, monkeypatch, name, alpha, beta, mode):
        inst = (model.random_instance(1, 20, 4) if name == "dense-20x4"
                else model.builtin(name))
        solved = []
        plain = lp.solve

        def recording(prog, *args, **kwargs):
            arrays = (prog.c, prog.A.indptr, prog.A.indices, prog.A.data,
                      prog.row_lo, prog.row_hi, prog.lb, prog.ub)
            solved.append((prog.name, tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)))
            return plain(prog, *args, **kwargs)

        monkeypatch.setattr(lp, "solve", recording)
        sol = solver.solve_cvar(inst, risk.RiskParams(alpha, beta), mode=mode)
        assert sol.certificates.certified
        names = [n for n, _ in solved]
        assert len({t for _, t in solved}) == len(solved), names
        assert not any("-sparsify" in n for n in names)
        assert sum("-dual" in n for n in names) == 1
        if mode == "dual":
            # the certificate is read off the occupation program's prices
            assert names == [f"{inst.name}-dual"]


def solved_names(monkeypatch):
    """Record the name of every program `lp.solve` is handed."""
    names = []
    plain = lp.solve

    def recording(prog, *args, **kwargs):
        names.append(prog.name)
        return plain(prog, *args, **kwargs)

    monkeypatch.setattr(lp, "solve", recording)
    return names


def shift_dual_objective(monkeypatch, shift):
    """Make `lp.solve` report every occupation program's optimum `shift`
    too high, as a solve whose v* is off would."""
    plain = lp.solve

    def shifted(prog, *args, **kwargs):
        sol = plain(prog, *args, **kwargs)
        if prog.name.endswith("-dual"):
            sol = dataclasses.replace(sol, objective=sol.objective + shift)
        return sol

    monkeypatch.setattr(lp, "solve", shifted)


class TestMinimaxLpCount:
    """The minimax side is one full-range level LP wherever it is needed."""

    def test_verify_saddle_solves_one_level_and_one_average(self, monkeypatch,
                                                            example2_solution):
        inst = model.builtin("example2")
        names = solved_names(monkeypatch)
        solver.verify_saddle(inst, example2_solution.x_star,
                             example2_solution.certificates.tail_level,
                             example2_solution.v_star, risk.RiskParams(0.7))
        assert len(names) == 2
        assert names.count(f"{inst.name}-level") == 1
        assert sum(n.startswith(f"{inst.name}-average(") for n in names) == 1

    def test_scan_solves_one_average_per_reward_and_one_level(self, monkeypatch):
        inst = model.builtin("example2")
        names = solved_names(monkeypatch)
        sweeps = []
        plain = lp.solve_sweep

        def recording(prog, costs, *args, **kwargs):
            sweeps.append((prog.name, len(costs)))
            return plain(prog, costs, *args, **kwargs)

        monkeypatch.setattr(lp, "solve_sweep", recording)
        solver.endpoint_scan_oracle(inst, risk.RiskParams(0.7))
        ys = risk.breakpoints(inst)
        assert sweeps == [(f"{inst.name}-average(y={ys[0]:g})", ys.size)]
        assert names == [f"{inst.name}-level"]

    def test_dual_primal_solves_dual_then_level(self, monkeypatch):
        inst = model.builtin("example2")
        names = solved_names(monkeypatch)
        sol = solver.solve_cvar(inst, risk.RiskParams(0.7), mode="dual-primal")
        assert names == [f"{inst.name}-dual", f"{inst.name}-level"]
        assert abs(sol.primal_value - sol.v_star) <= solver.CERT_TOL


def suboptimal_vertex(inst, params, v_star):
    """The polytope vertex of lowest value, or None when none is 1e-3 below
    the optimum."""
    xs, _ = oracles.polytope_vertices(inst)
    cvar, mean = risk.cvar_right_and_mean_rows(inst, xs, params.alpha)
    worst = int(np.argmin(cvar + params.beta * mean))
    value = float(cvar[worst] + params.beta * mean[worst])
    return (xs[worst], value) if value < v_star - 1e-3 else None


class TestDualCertificate:
    """The certificate is read off the occupation program's prices alone, so
    the independent oracles check it here."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)),
           st.sampled_from([0.0, 0.5, 0.7, 0.9]), st.sampled_from([0.0, 0.5]))
    def test_interval_holds_oracles_and_rejects_suboptimal(self, inst, alpha, beta):
        params = risk.RiskParams(alpha, beta)
        ys = risk.breakpoints(inst)
        sol = solver.solve_cvar(inst, params)
        c = sol.certificates
        assert c.certified
        assert c.oracle_gap == max(c.saddle_left_gap, c.saddle_right_gap, 0.0)
        # the right gap is v* less x*'s own value, CVaR + beta * mean, which
        # the Rockafellar-Uryasev form makes x*'s minimum over tail levels
        assert c.saddle_right_gap == sol.v_star - (sol.cvar_component
                                                   + beta * sol.mean_component)
        slack = 1e-9 * max(1.0, abs(sol.v_star))
        own = min(risk.saddle_value(inst, sol.x_star, float(e), params) for e in ys)
        assert abs(c.saddle_right_gap - (sol.v_star - own)) <= slack
        lo, hi = sol.v_star - c.saddle_right_gap, sol.v_star + c.saddle_left_gap
        scan = solver.endpoint_scan_oracle(inst, params).value
        level = lp.solve(lp.build_level_lp(inst, params)).objective
        vertex = lp.solve(lp.build_primal_lp(inst, oracles.polytope_vertices(inst)[0],
                                             params)).objective
        for oracle in (scan, level, vertex):
            assert lo - slack <= oracle <= hi + slack
        assert ("interior-tail-level" in sol.flags) == (c.tail_level not in ys)

        bad = suboptimal_vertex(inst, params, sol.v_star)
        if bad is None:
            return
        x_bad, v_bad = bad
        dual = lp.solve(lp.build_dual_lp(inst, params))
        # the suboptimal point claiming its own value breaks the left
        # condition; claiming the optimum, it breaks the right one
        for claim in (v_bad, sol.v_star):
            report = solver._dual_certificate(inst, dual, v_bad, claim, params, ys)
            assert not report.certified

    def test_zero_tail_prices_raise(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        ys = risk.breakpoints(inst)
        dual = lp.solve(lp.build_dual_lp(inst, params))
        duals = dual.duals.copy()
        duals[:ys.size] = 0.0  # the tail rows come first
        zeroed = dataclasses.replace(dual, duals=duals)
        with pytest.raises(solver.SolverError, match="tail prices"):
            solver._dual_certificate(inst, zeroed, dual.objective, dual.objective, params, ys)

    @pytest.mark.parametrize("shift, certified", [(1.5e-6, True), (5e-6, False), (1e-3, False)])
    def test_overclaimed_value_is_flagged(self, monkeypatch, shift, certified):
        """A v* off by more than CERT_TOL fails the right side and is
        flagged; a smaller error stays certified. Neither raises."""
        shift_dual_objective(monkeypatch, shift)
        sol = solver.solve_cvar(model.builtin("example2"), risk.RiskParams(0.7))
        c = sol.certificates
        assert c.saddle_left_gap == pytest.approx(-shift, abs=1e-9)
        assert c.saddle_right_gap == pytest.approx(shift, abs=1e-9)
        assert c.certified == certified
        assert sol.flags == (("interior-tail-level",) if certified else
                             ("interior-tail-level", "negative-gap", "uncertified"))

    def test_uncertified_solve_is_flagged(self, monkeypatch):
        monkeypatch.setattr(solver, "CERT_TOL", 0.0)
        sol = solver.solve_cvar(model.builtin("example2"), risk.RiskParams(0.7))
        c = sol.certificates
        assert max(c.saddle_left_gap, c.saddle_right_gap) > 0.0  # rounding level
        assert not c.certified
        assert "uncertified" in sol.flags
        assert ("negative-gap" in sol.flags) == (min(c.saddle_left_gap, c.saddle_right_gap) < 0.0)


class TestModes:
    @pytest.mark.parametrize("mode", ["dual+primal", "primal", ""])
    def test_unknown_mode_raises(self, monkeypatch, mode):
        names = solved_names(monkeypatch)
        with pytest.raises(ValueError, match="mode must be"):
            solver.solve_cvar(one_pair_instance(), risk.RiskParams(0.5), mode=mode)
        assert names == []


class TestEnumerateDeterministic:
    def test_example2_best_below_optimum(self, example2_solution):
        inst = model.builtin("example2")
        table = solver.enumerate_deterministic(inst, risk.RiskParams(0.7))
        best = table.combined[table.best_index]
        assert best == table.combined.max()
        assert best == pytest.approx(92.6675, abs=1e-4)
        assert best < example2_solution.v_star - 0.5
        # the achieving policy, recorded once and pinned
        policy = model.DeterministicPolicy(model.policy_actions(inst, table.best_index))
        assert policy.to_mapping(inst) == {"1": "2", "2": "1", "3": "3"}

    def test_single_pair_single_row(self):
        table = solver.enumerate_deterministic(one_pair_instance(), risk.RiskParams(0.5))
        assert table.combined.size == 1 and table.best_index == 0
        assert table.combined[0] == pytest.approx(5.0)

    def test_endowment_deterministic_optimum(self, endowment_solution):
        table = solver.enumerate_deterministic(model.builtin("endowment"),
                                               risk.RiskParams(0.9, 0.5))
        assert table.combined[table.best_index] == pytest.approx(endowment_solution.v_star,
                                                                 abs=1e-6)

    def test_canonical_row_order(self):
        inst = model.random_instance(1, 2, 2)
        table = solver.enumerate_deterministic(inst, risk.RiskParams(0.5))
        assert table.combined.size == 4
        assert model.policy_actions(inst, np.arange(4)).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        for i, dp in enumerate(model.deterministic_policies(inst)):
            assert dp.choices == tuple(model.policy_actions(inst, i))
            occ = chains.stationary_distribution(inst, dp.to_stationary(inst))
            law = risk.reward_distribution(inst, occ)
            assert table.combined[i] == pytest.approx(risk.cvar_right(law, 0.5), abs=1e-12)


class TestEndpointScan:
    def test_example2(self):
        scan = solver.endpoint_scan_oracle(model.builtin("example2"), risk.RiskParams(0.7))
        assert scan.value == pytest.approx(93.24, abs=0.01)
        assert scan.interior
        grid_best = scan.envelope.min()
        assert grid_best >= scan.value

    def test_single_pair(self):
        for beta in (0.0, 1.0):
            scan = solver.endpoint_scan_oracle(one_pair_instance(4.0),
                                               risk.RiskParams(0.5, beta))
            assert scan.value == pytest.approx(4.0 * (1 + beta), abs=1e-9)
            assert scan.y_star == 4.0

    def test_matches_solver_on_random(self):
        for seed in range(8):
            inst = model.random_instance(seed, 3, 2)
            params = risk.RiskParams(0.7)
            sol = solver.solve_cvar(inst, params)
            scan = solver.endpoint_scan_oracle(inst, params)
            assert abs(scan.value - sol.v_star) <= 2e-6, f"seed {seed}"

    def test_rounding_gap_is_not_interior(self):
        # Instance 46 of perfbench's scan-dense inputs at seed 2. The level
        # LP lands on the tabulated argmin y = 82.2508, but ~1.8e-12 below
        # the sweep's envelope value there: a rounding gap, not a kink
        # between reward values (real interior gaps here are >= 1e-4).
        inst, params = model.random_instance(2040342269, 14, 4), risk.RiskParams(0.5)
        scan = solver.endpoint_scan_oracle(inst, params)
        level = lp.solve(lp.build_level_lp(inst, params))
        assert 1e-12 < scan.value - level.objective <= lp.FEASIBILITY_TOL
        assert not scan.interior
        assert scan.y_star == scan.ys[np.argmin(scan.envelope)] == 82.2508
        assert scan.value == scan.envelope.min()


class TestVerifySaddle:
    def test_certified_solution(self, example2_solution):
        inst = model.builtin("example2")
        report = solver.verify_saddle(inst, example2_solution.x_star,
                                      example2_solution.certificates.tail_level,
                                      example2_solution.v_star, risk.RiskParams(0.7))
        assert report.saddle_left_gap <= 2e-6
        assert report.saddle_right_gap <= 2e-6

    def test_perturbed_level_breaks_left_condition(self, example2_solution):
        inst = model.builtin("example2")
        delta = np.diff(risk.breakpoints(inst)).min()  # the grid's smallest gap
        y_bad = example2_solution.certificates.tail_level + 5 * delta
        report = solver.verify_saddle(inst, example2_solution.x_star, y_bad,
                                      example2_solution.v_star, risk.RiskParams(0.7))
        assert report.saddle_left_gap > 2e-6
        assert report.saddle_right_gap >= -1e-9

    def test_single_pair_gaps_zero(self):
        inst = one_pair_instance(2.0)
        params = risk.RiskParams(0.5)
        report = solver.verify_saddle(inst, np.array([1.0]), 2.0, 2.0, params)
        assert report.saddle_left_gap == 0.0
        assert report.saddle_right_gap == 0.0
        assert report.oracle_gap == 0.0


class TestAlphaZero:
    def test_example2_degenerates_to_average(self):
        lp_value, best_mean = oracles.alpha_zero_degeneration(model.builtin("example2"))
        assert abs(lp_value - best_mean) <= 1e-8

    def test_two_action_pick_max(self):
        inst = model.MdpInstance("pick", ("s",), (("a", "b"),),
                                 np.array([[1.0], [1.0]]), rewards=np.array([1.0, 5.0]))
        lp_value, _ = oracles.alpha_zero_degeneration(inst)
        assert lp_value == pytest.approx(5.0, abs=1e-9)

    def test_endowment_degenerates_to_average(self):
        lp_value, best_mean = oracles.alpha_zero_degeneration(model.builtin("endowment"))
        assert abs(lp_value - best_mean) <= 1e-8


class TestReadOnlyArrays:
    def test_results_are_read_only_float_arrays(self, example2_solution):
        inst, params = model.builtin("example2"), risk.RiskParams(0.7)
        sol = example2_solution
        arrays = {
            "x_star": sol.x_star,
            "stationary_distribution": chains.stationary_distribution(inst, sol.policy),
            "breakpoints": risk.breakpoints(inst),
            "sparsify": solver.sparsify(inst, sol.x_star, sol.y_star, params)[0],
        }
        for name, a in arrays.items():
            assert type(a) is np.ndarray and a.dtype == np.float64, name
            assert not a.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestDominance:
    def test_optimum_dominates_deterministic(self):
        for seed in range(8):
            inst = model.random_instance(seed, 4, 2)
            params = risk.RiskParams(0.7)
            sol = solver.solve_cvar(inst, params)
            table = solver.enumerate_deterministic(inst, params)
            assert sol.v_star >= table.combined[table.best_index] - 1e-8

    def test_consistency_recomputed_from_first_principles(self):
        for seed in range(5):
            inst = model.random_instance(seed, 3, 3)
            params = risk.RiskParams(0.8, 0.3)
            sol = solver.solve_cvar(inst, params)
            law = risk.reward_distribution(inst, sol.x_star)
            recomputed = risk.cvar_right(law, 0.8) + 0.3 * law.mean()
            assert sol.v_star == pytest.approx(recomputed, abs=1e-6)

    def test_y_star_is_breakpoint_member(self):
        for seed in range(8):
            inst = model.random_instance(seed, 3, 2)
            sol = solver.solve_cvar(inst, risk.RiskParams(0.7))
            assert sol.y_star in risk.breakpoints(inst)


def program_bytes(prog):
    """Every array HiGHS reads of a program, as bytes."""
    return [a.tobytes() for a in (prog.c, prog.lb, prog.ub, prog.A.indptr, prog.A.indices,
                                  prog.A.data, prog.row_lo, prog.row_hi)]


class TestUnpaidRewards:
    @given(sparse_kernels(rewards3=True), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([(0.8, 0.5), (0.5, 0.0), (0.95, 1.0)]))
    @settings(max_examples=40, deadline=None)
    def test_unpaid_entries_reach_no_program(self, inst, seed, ab):
        """A rewards3 entry whose transition has probability 0 is never
        paid: moved far outside the paid range, it changes no breakpoint,
        bound, program array or solution."""
        rng = np.random.default_rng(seed)
        r3 = np.where(inst.kernel > 0.0, inst.rewards3,
                      rng.choice([-1e3, 1e3], size=inst.kernel.shape))
        moved = model.MdpInstance(inst.name, inst.states, inst.actions, inst.kernel,
                                  rewards3=r3)
        params = risk.RiskParams(*ab)
        assert risk.breakpoints(moved).tobytes() == risk.breakpoints(inst).tobytes()
        assert moved.reward_bounds() == inst.reward_bounds()
        builds = [lambda i: lp.build_dual_lp(i, params), lambda i: lp.build_level_lp(i, params)]
        builds += [lambda i, y=float(y): lp.build_average_lp(i, y, params)
                   for y in risk.breakpoints(inst)]
        for build in builds:
            assert program_bytes(build(moved)) == program_bytes(build(inst))
        got, want = solver.solve_cvar(moved, params), solver.solve_cvar(inst, params)
        assert got.v_star == want.v_star and got.flags == want.flags
        assert np.array_equal(got.policy.probs, want.policy.probs)

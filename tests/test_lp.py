import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chains import sparse_instance

from cvarmdp import chains, lp, model, risk
from cvarmdp.lp import Constraint, LinearProgram, Variable


def one_pair_instance(r=5.0):
    return model.MdpInstance("one", ("s",), (("a",),), np.array([[1.0]]),
                             rewards=np.array([r]))


class TestSolve:
    def test_simple_max(self):
        prog = LinearProgram.from_rows("t", "max", {"z": 1.0},
                                       (Variable("z", -np.inf, np.inf),),
                                       (Constraint("cap", {"z": 1.0}, "<=", 3.0),))
        sol = lp.solve(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0)
        assert sol.vertex

    def test_unbounded(self):
        prog = LinearProgram.from_rows("t", "max", {"z": 1.0},
                                       (Variable("z", -np.inf, np.inf),), ())
        assert lp.solve(prog).status == "unbounded"

    def test_infeasible(self):
        prog = LinearProgram.from_rows("t", "max", {"z": 1.0},
                                       (Variable("z", 0.0, np.inf),),
                                       (Constraint("neg", {"z": 1.0}, "<=", -1.0),))
        assert lp.solve(prog).status == "infeasible"

    def test_deterministic_repeats(self):
        inst = model.builtin("example2")
        prog = lp.build_dual_lp(inst, risk.RiskParams(0.7))
        a = lp.solve(prog)
        b = lp.solve(prog)
        assert a.values == b.values

    def test_shadow_price_convention(self):
        # max a + 2b, a + b <= 4, a >= 1: optimum (1, 3). Raising the cap by
        # one adds one b (+2); raising the floor by one trades b for a (-1).
        prog = LinearProgram.from_rows("t", "max", {"a": 1.0, "b": 2.0},
                                       (Variable("a"), Variable("b")),
                                       (Constraint("cap", {"a": 1.0, "b": 1.0}, "<=", 4.0),
                                        Constraint("floor", {"a": 1.0}, ">=", 1.0)))
        sol = lp.solve(prog)
        assert (sol.values["a"], sol.values["b"]) == pytest.approx((1.0, 3.0))
        assert sol.duals == pytest.approx({"cap": 2.0, "floor": -1.0})
        # min a + b, a - b = t, a + 2b >= s at t = 1, s = 4: optimum (2, 1)
        # with value (2s + t) / 3, so the prices are 1/3 and 2/3.
        prog = LinearProgram.from_rows("t", "min", {"a": 1.0, "b": 1.0},
                                       (Variable("a"), Variable("b")),
                                       (Constraint("link", {"a": 1.0, "b": -1.0}, "=", 1.0),
                                        Constraint("floor", {"a": 1.0, "b": 2.0}, ">=", 4.0)))
        sol = lp.solve(prog)
        assert sol.objective == pytest.approx(3.0)
        assert sol.duals == pytest.approx({"link": 1.0 / 3.0, "floor": 2.0 / 3.0})

    def test_dual_lp_prices_and_diagnostics(self):
        # tail prices sum to one (the free z2 column) and the norm row's
        # price is the optimum itself (strong duality)
        inst = model.builtin("example2")
        sol = lp.solve(lp.build_dual_lp(inst, risk.RiskParams(0.7)))
        tails = [v for k, v in sol.duals.items() if k.startswith("tail_")]
        assert all(v <= 1e-12 for v in tails)
        assert -sum(tails) == pytest.approx(1.0, abs=1e-9)
        assert sol.duals["norm"] == pytest.approx(sol.objective, abs=1e-9)
        assert sol.nit > 0
        assert 0.0 <= sol.residual <= lp.FEASIBILITY_TOL
        assert 0.0 <= sol.mismatch <= lp.FEASIBILITY_TOL * max(1.0, abs(sol.objective))

    def test_validation_catches_undeclared(self):
        with pytest.raises(ValueError, match="undeclared"):
            LinearProgram.from_rows("t", "min", {"w": 1.0}, (Variable("z"),), ())


def patch_backend(monkeypatch, edit):
    """Let HiGHS solve, then pass its result through `edit` before solve
    re-checks it."""
    real = lp.linprog

    def patched(*args, **kwargs):
        res = real(*args, **kwargs)
        edit(res)
        return res

    monkeypatch.setattr(lp, "linprog", patched)


def shifted(column, by):
    def edit(res):
        res.x = res.x.copy()
        res.x[column] += by
    return edit


class TestRecheck:
    """solve re-checks HiGHS's point with A @ x - b and the bounds, and its
    objective, at FEASIBILITY_TOL."""

    @pytest.mark.parametrize("case, column, by", [
        ("dual", 0, 1e-6),     # off the norm row (and the balance rows)
        ("dual", 9, 1e-6),     # z2 above the binding tail rows (">=", stored negated)
        ("floor", 0, -1e-6),   # a hand-written ">=" row
        ("bound", 0, -1e-6),   # below a column's lower bound
    ])
    def test_point_off_a_row_refused(self, monkeypatch, case, column, by):
        rows = {"floor": (Constraint("floor", {"a": 1.0}, ">=", 1.0),), "bound": ()}
        prog = (lp.build_dual_lp(model.builtin("example2"), risk.RiskParams(0.7))
                if case == "dual" else
                LinearProgram.from_rows("t", "max", {"a": -1.0}, (Variable("a"),), rows[case]))
        lp.solve(prog)
        patch_backend(monkeypatch, shifted(column, by))
        with pytest.raises(lp.LpSolveError, match="violates constraints by 1e-06"):
            lp.solve(prog)

    def test_nan_point_refused(self, monkeypatch):
        prog = lp.build_dual_lp(model.builtin("example2"), risk.RiskParams(0.7))
        patch_backend(monkeypatch, shifted(3, np.nan))
        with pytest.raises(lp.LpSolveError, match="violates constraints by nan"):
            lp.solve(prog)

    def test_wrong_objective_refused(self, monkeypatch):
        prog = lp.build_dual_lp(model.builtin("example2"), risk.RiskParams(0.7))

        def edit(res):
            res.fun += 1e-3
        patch_backend(monkeypatch, edit)
        with pytest.raises(lp.LpSolveError, match="objective mismatch"):
            lp.solve(prog)


@st.composite
def self_loop_instances(draw):
    """Sparse instances, both reward kinds, in which pair 0 and a random set
    of other pairs stay in their own state with probability one, so their
    balance coefficient 1 - p is exactly zero."""
    n_states = draw(st.integers(min_value=1, max_value=5))
    counts = draw(st.lists(st.integers(min_value=1, max_value=3),
                           min_size=n_states, max_size=n_states))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    inst = sparse_instance(np.random.default_rng(seed), n_states, counts,
                           rewards3=draw(st.booleans()))
    stay = [True] + draw(st.lists(st.booleans(), min_size=inst.n_pairs - 1,
                                  max_size=inst.n_pairs - 1))
    kernel = inst.kernel.copy()
    for k in np.flatnonzero(stay):
        kernel[k] = 0.0
        kernel[k, inst.pair_state[k]] = 1.0
    return model.MdpInstance(inst.name, inst.states, inst.actions, kernel,
                             rewards=inst.rewards, rewards3=inst.rewards3)


class TestBuilderArrays:
    """Every builder's arrays read straight off the instance."""

    @settings(max_examples=60, deadline=None)
    @given(self_loop_instances(), st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 0.5]))
    def test_rows_match_instance(self, inst, alpha, beta):
        params = risk.RiskParams(alpha, beta)
        bp = risk.breakpoints(inst)
        n, m = inst.n_pairs, inst.n_states
        dual = lp.build_dual_lp(inst, params, grid=bp.values)
        assert dual.row_names == ([f"tail_{e}" for e in range(bp.values.size)]
                                  + [f"balance_{j}" for j in range(m)] + ["norm"])
        eq = dual.A_eq.toarray()
        for j in range(m):
            assert np.array_equal(eq[j], np.append((inst.pair_state == j) - inst.kernel[:, j], 0.0))
        assert np.array_equal(eq[m], np.append(np.ones(n), 0.0))
        tail = dual.ub_sign[:, None] * dual.A_ub.toarray()
        for e, y in enumerate(bp.values):
            assert np.array_equal(tail[e], np.append(risk.saddle_coefficients(inst, y, params), -1.0))
        level = lp.build_level_lp(inst, params)
        values, probs = inst.reward_atoms
        mean = np.array([p_k @ r_k for p_k, r_k in zip(probs, values)])
        assert np.array_equal(level.b_ub[:n], -beta * mean)
        # one excess row w >= r - y per reward a pair pays with positive
        # probability; per-pair rewards keep one per pair
        paid = probs > 0.0
        w0 = m + 2
        excess = level.A_ub[n:].toarray()
        assert len(level.col_names) == w0 + paid.sum() == excess.shape[1]
        assert np.array_equal(level.b_ub[n:], -values[paid])
        assert np.array_equal(excess[:, m + 1], -np.ones(paid.sum()))
        assert np.array_equal(excess[:, w0:], -np.eye(paid.sum()))
        assert np.all(level.A_ub[:n].toarray()[:, w0:].any(axis=0))
        if inst.rewards is not None:
            assert level.row_names[n:] == [f"excess_{k}" for k in range(n)]
        primal = lp.build_primal_lp(inst, chains.polytope_vertices(inst), params)
        assert primal.col_names[2:] == level.col_names[w0:]
        assert np.array_equal(primal.b_ub[-paid.sum():], -values[paid])
        for prog in (dual, level, lp.build_average_lp(inst, float(bp.values[0]), params),
                     lp.build_sparsify_lp(inst, float(bp.values[-1]), params, bp.delta), primal):
            for a in (prog.A_ub, prog.A_eq):
                assert np.all(a.data != 0.0), prog.name
        assert lp.solve(dual).objective == pytest.approx(lp.solve(level).objective, abs=1e-9)


class TestDualLp:
    def test_example2_value(self):
        sol = lp.solve(lp.build_dual_lp(model.builtin("example2"), risk.RiskParams(0.7)))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(93.24, abs=0.01)

    def test_forced_single_pair(self):
        for beta in (0.0, 0.5):
            sol = lp.solve(lp.build_dual_lp(one_pair_instance(7.0), risk.RiskParams(0.3, beta)))
            assert sol.objective == pytest.approx(7.0 + beta * 7.0, abs=1e-9)

    def test_row_counts_deduplicate(self):
        inst = model.builtin("example2")  # 9 pairs, 9 distinct rewards
        params = risk.RiskParams(0.7)
        dedup = lp.build_dual_lp(inst, params)
        assert len(dedup.row_names) == 9 + 3 + 1
        # force duplicate rewards and watch the tail rows shrink
        dup = model.MdpInstance("dup", inst.states, inst.actions, inst.kernel,
                                rewards=np.repeat([1.0, 2.0, 3.0], 3))
        assert len(lp.build_dual_lp(dup, params).row_names) == 3 + 3 + 1

    def test_endowment_mean_cvar_value(self):
        sol = lp.solve(lp.build_dual_lp(model.builtin("endowment"), risk.RiskParams(0.9, 0.5)))
        assert sol.objective == pytest.approx(96.84, abs=0.01)


class TestPrimalLp:
    def test_forced_single_pair(self):
        inst = one_pair_instance(3.0)
        verts = chains.polytope_vertices(inst)
        sol = lp.solve(lp.build_primal_lp(inst, verts, risk.RiskParams(0.4)))
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.values["y"] == pytest.approx(3.0, abs=1e-9)

    def test_example2_matches_dual(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        verts = chains.polytope_vertices(inst)
        primal = lp.solve(lp.build_primal_lp(inst, verts, params))
        dual = lp.solve(lp.build_dual_lp(inst, params))
        assert primal.objective == pytest.approx(dual.objective, abs=2e-6)

    def test_excess_variables_tight_at_optimum(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        verts = chains.polytope_vertices(inst)
        sol = lp.solve(lp.build_primal_lp(inst, verts, params))
        y = sol.values["y"]
        for k in range(inst.n_pairs):
            i = int(inst.pair_state[k])
            expected = max(float(inst.rewards[k]) - y, 0.0)
            assert sol.values[f"w_{i}_{k - inst.offsets[i]}"] == pytest.approx(expected, abs=1e-8)

    def test_endowment_recovers_tail_level(self):
        inst = model.builtin("endowment")
        verts = chains.polytope_vertices(inst)
        sol = lp.solve(lp.build_primal_lp(inst, verts, risk.RiskParams(0.9, 0.5)))
        assert sol.values["y"] == 84.0
        assert sol.objective == pytest.approx(96.84, abs=0.01)

    def test_weak_duality_on_random(self):
        for seed in range(5):
            inst = model.random_instance(seed, 3, 2)
            params = risk.RiskParams(0.6, 0.1)
            verts = chains.polytope_vertices(inst)
            primal = lp.solve(lp.build_primal_lp(inst, verts, params))
            dual = lp.solve(lp.build_dual_lp(inst, params))
            assert primal.objective == pytest.approx(dual.objective, abs=2e-6)


class TestAverageLp:
    def test_alpha_zero_at_lower_bound_is_classical(self):
        inst = model.builtin("example2")
        lo, _ = inst.reward_bounds()
        sol = lp.solve(lp.build_average_lp(inst, lo, risk.RiskParams(0.0)))
        classical = max(
            float(chains.stationary_distribution(inst, dp.to_stationary(inst)).x
                  @ inst.rewards)
            for dp in model.deterministic_policies(inst))
        assert sol.objective == pytest.approx(classical, abs=1e-8)

    def test_top_endpoint_collapses(self):
        inst = model.builtin("example2")
        sol = lp.solve(lp.build_average_lp(inst, 94.0, risk.RiskParams(0.7)))
        assert sol.objective == pytest.approx(94.0, abs=1e-9)

    def test_endpoint_minimum_near_published_value(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        bp = risk.breakpoints(inst)
        vals = [lp.solve(lp.build_average_lp(inst, float(y), params)).objective
                for y in bp.values]
        assert min(vals) == pytest.approx(93.24, abs=0.01)

    def test_envelope_midpoint_convex_along_endpoints(self):
        inst = model.random_instance(11, 3, 2)
        params = risk.RiskParams(0.7)
        bp = risk.breakpoints(inst)
        vals = np.array([lp.solve(lp.build_average_lp(inst, float(y), params)).objective
                         for y in bp.values])
        ys = bp.values
        for i in range(1, len(ys) - 1):
            lam = (ys[i + 1] - ys[i]) / (ys[i + 1] - ys[i - 1])
            chord = lam * vals[i - 1] + (1 - lam) * vals[i + 1]
            assert vals[i] <= chord + 1e-7


class TestLevelLp:
    def test_matches_dual_optimum(self):
        for seed in range(4):
            inst = model.random_instance(seed, 4, 2)
            params = risk.RiskParams(0.8, 0.25)
            level = lp.solve(lp.build_level_lp(inst, params))
            dual = lp.solve(lp.build_dual_lp(inst, params))
            assert level.objective == pytest.approx(dual.objective, abs=2e-6)

    def test_example2_interior_level(self):
        inst = model.builtin("example2")
        sol = lp.solve(lp.build_level_lp(inst, risk.RiskParams(0.7)))
        assert sol.objective == pytest.approx(93.2402, abs=1e-3)
        assert 70.0 < sol.values["y"] < 71.0

    def test_endowment_excess_only_where_paid(self):
        # 36 of endowment's 108 (pair, next state) entries carry probability
        prog = lp.build_level_lp(model.builtin("endowment"), risk.RiskParams(0.9, 0.5))
        assert (len(prog.col_names), len(prog.row_names)) == (44, 54)
        assert lp.solve(prog).objective == pytest.approx(96.84, abs=0.01)


class TestSparsifyLp:
    def test_forced_single_pair(self):
        inst = one_pair_instance(2.0)
        params = risk.RiskParams(0.4)
        prog = lp.build_sparsify_lp(inst, 2.0, params, None)
        sol = lp.solve(prog)
        assert sol.values["x_0_0"] == pytest.approx(1.0)
        assert sol.values["x0"] == pytest.approx(0.4)

    def test_example2_vertex_support(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        dual = lp.solve(lp.build_dual_lp(inst, params))
        x = lp.pair_values(inst, dual)
        y = risk.var(risk.reward_distribution(inst, x), 0.7)
        bp = risk.breakpoints(inst)
        sol = lp.solve(lp.build_sparsify_lp(inst, y, params, bp.delta))
        assert sol.objective == pytest.approx(93.24, abs=0.01)
        xs = lp.pair_values(inst, sol)
        assert (xs > 1e-9).sum() <= inst.n_states + 1

    def test_random_instance_randomization_bound(self):
        inst = model.random_instance(13, 4, 3)
        params = risk.RiskParams(0.7)
        dual = lp.solve(lp.build_dual_lp(inst, params))
        x = lp.pair_values(inst, dual)
        y = risk.var(risk.reward_distribution(inst, x), 0.7)
        sol = lp.solve(lp.build_sparsify_lp(inst, y, params, risk.breakpoints(inst).delta))
        if sol.values["x0"] > 1e-9:
            pol = model.extract_policy(inst, lp.pair_values(inst, sol))
            assert model.n_randomizations(inst, pol) <= 1


class TestLpFileExport:
    @pytest.mark.parametrize("name", ["example2", "endowment"])
    def test_named_view_rebuilds_the_arrays(self, name):
        inst = model.builtin(name)
        params = risk.RiskParams(0.7, 0.5)
        y = float(risk.breakpoints(inst).values[1])
        for prog in (lp.build_dual_lp(inst, params), lp.build_level_lp(inst, params),
                     lp.build_average_lp(inst, y, params),
                     lp.build_sparsify_lp(inst, y, params, risk.breakpoints(inst).delta),
                     lp.build_primal_lp(inst, chains.polytope_vertices(inst), params)):
            back = LinearProgram.from_rows(prog.name, prog.sense, prog.objective,
                                           prog.variables, prog.constraints)
            for field in ("c", "b_ub", "ub_sign", "b_eq", "lb", "ub"):
                assert np.array_equal(getattr(back, field), getattr(prog, field)), field
            for field in ("A_ub", "A_eq"):
                assert (getattr(back, field) != getattr(prog, field)).nnz == 0, field
            assert (back.col_names, back.row_names) == (prog.col_names, prog.row_names)

    def test_tokens_present(self):
        inst = model.builtin("example2")
        prog = lp.build_dual_lp(inst, risk.RiskParams(0.7))
        buf = io.StringIO()
        lp.write_lp_file(prog, buf)
        text = buf.getvalue()
        assert text.startswith("\\ example2-dual\nMaximize\n")
        assert " obj: 1 z2" in text
        assert "Subject To" in text
        assert "balance_0:" in text and "norm:" in text
        assert "z2 free" in text
        assert text.rstrip().endswith("End")

    def test_bounds_section(self):
        inst = model.builtin("example2")
        verts = chains.polytope_vertices(inst)
        prog = lp.build_primal_lp(inst, verts, risk.RiskParams(0.7))
        buf = io.StringIO()
        lp.write_lp_file(prog, buf)
        assert "4 <= y <= 94" in buf.getvalue()

    def test_writes_to_path(self, tmp_path):
        prog = lp.build_average_lp(one_pair_instance(), 5.0, risk.RiskParams(0.2))
        target = tmp_path / "prog.lp"
        lp.write_lp_file(prog, target)
        assert target.read_text().startswith("\\ one-average")

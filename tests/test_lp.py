import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array, vstack

import oracles
from test_chains import sparse_instance, sparse_kernels

from cvarmdp import chains, lp, model, risk, solver
from cvarmdp.lp import Constraint, LinearProgram, Variable


def dense(a):
    """The dense array of a program's CSR matrix."""
    return csr_array((a.data, a.indices, a.indptr), shape=a.shape).toarray()


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

    def test_unbounded(self):
        prog = LinearProgram.from_rows("t", "max", {"z": 1.0},
                                       (Variable("z", -np.inf, np.inf),), ())
        with pytest.raises(lp.LpSolveError, match=r"^t: Unbounded$"):
            lp.solve(prog)

    def test_infeasible(self):
        prog = LinearProgram.from_rows("t", "max", {"z": 1.0},
                                       (Variable("z", 0.0, np.inf),),
                                       (Constraint("neg", {"z": 1.0}, "<=", -1.0),))
        with pytest.raises(lp.LpSolveError, match=r"^t: Infeasible$"):
            lp.solve(prog)

    def test_deterministic_repeats(self):
        inst = model.builtin("example2")
        prog = lp.build_dual_lp(inst, risk.RiskParams(0.7))
        a = lp.solve(prog)
        b = lp.solve(prog)
        assert np.array_equal(a.x, b.x)

    def test_shadow_price_convention(self):
        # max a + 2b, a + b <= 4, a >= 1: optimum (1, 3). Raising the cap by
        # one adds one b (+2); raising the floor by one trades b for a (-1).
        prog = LinearProgram.from_rows("t", "max", {"a": 1.0, "b": 2.0},
                                       (Variable("a"), Variable("b")),
                                       (Constraint("cap", {"a": 1.0, "b": 1.0}, "<=", 4.0),
                                        Constraint("floor", {"a": 1.0}, ">=", 1.0)))
        sol = lp.solve(prog)
        assert sol.x == pytest.approx([1.0, 3.0])  # columns a, b
        assert sol.duals == pytest.approx([2.0, -1.0])  # rows cap, floor
        # min a + b, a - b = t, a + 2b >= s at t = 1, s = 4: optimum (2, 1)
        # with value (2s + t) / 3, so the prices are 1/3 and 2/3.
        prog = LinearProgram.from_rows("t", "min", {"a": 1.0, "b": 1.0},
                                       (Variable("a"), Variable("b")),
                                       (Constraint("link", {"a": 1.0, "b": -1.0}, "=", 1.0),
                                        Constraint("floor", {"a": 1.0, "b": 2.0}, ">=", 4.0)))
        sol = lp.solve(prog)
        assert sol.objective == pytest.approx(3.0)
        assert sol.duals == pytest.approx([1.0 / 3.0, 2.0 / 3.0])  # rows link, floor

    def test_dual_lp_prices_and_diagnostics(self):
        # tail prices sum to one (the free z2 column) and the norm row's
        # price is the optimum itself (strong duality); the K tail rows come
        # first and the norm row last
        inst = model.builtin("example2")
        prog = lp.build_dual_lp(inst, risk.RiskParams(0.7))
        sol = lp.solve(prog)
        n, n_tail = inst.n_pairs, risk.breakpoints(inst).size
        assert sol.duals.shape == (prog.A.shape[0],) == (n_tail + inst.n_states + 1,)
        a = dense(prog.A)
        assert np.array_equal(a[:, n] != 0.0, np.arange(a.shape[0]) < n_tail)  # z2 column
        assert np.array_equal(a[-1], np.append(np.ones(n), 0.0))
        tails = sol.duals[:n_tail]
        assert all(v <= 1e-12 for v in tails)
        assert -sum(tails) == pytest.approx(1.0, abs=1e-9)
        assert sol.duals[-1] == pytest.approx(sol.objective, abs=1e-9)
        assert sol.nit > 0
        assert 0.0 <= sol.residual <= lp.FEASIBILITY_TOL
        assert 0.0 <= sol.mismatch <= lp.FEASIBILITY_TOL * max(1.0, abs(sol.objective))

    def test_validation_catches_undeclared(self):
        with pytest.raises(ValueError, match="undeclared"):
            LinearProgram.from_rows("t", "min", {"w": 1.0}, (Variable("z"),), ())


def patch_backend(monkeypatch, edit):
    """Let HiGHS solve, then pass its raw point through `edit` before solve
    re-checks it."""
    real = lp._run_highs

    def patched(*args, **kwargs):
        res = real(*args, **kwargs)
        edit(res)
        return res

    monkeypatch.setattr(lp, "_run_highs", patched)


def shifted(column, by):
    def edit(res):
        res.x = res.x.copy()
        res.x[column] += by
    return edit


class TestRecheck:
    """solve re-checks HiGHS's point against the row and column bounds, and
    its objective, at FEASIBILITY_TOL."""

    @pytest.mark.parametrize("case, column, by", [
        ("dual", 0, 1e-6),     # off the norm row (and the balance rows)
        ("dual", 9, 1e-6),     # z2 above the binding tail rows (">=")
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


def sweep_instances():
    rng = np.random.default_rng(5)
    return [model.builtin("example2"), model.builtin("endowment"),
            model.random_instance(3, 12, 4), sparse_instance(rng, 6, [3] * 6),
            sparse_instance(rng, 6, [2] * 6, rewards3=True)]


class TestSolveSweep:
    """solve_sweep runs one HiGHS model under a sequence of costs."""

    @pytest.mark.parametrize("inst", sweep_instances(), ids=lambda inst: inst.name)
    def test_first_point_matches_solve_bit_for_bit(self, inst):
        params = risk.RiskParams(0.8, 0.5)
        y = float(risk.breakpoints(inst)[0])
        for prog in (lp.build_average_lp(inst, y, params), lp.build_dual_lp(inst, params),
                     lp.build_level_lp(inst, params)):
            cold = lp.solve(prog)
            (first,) = lp.solve_sweep(prog, [prog.c])
            assert first.status == "optimal"
            assert first.objective == cold.objective
            assert np.array_equal(first.x, cold.x)
            assert np.array_equal(first.duals, cold.duals)
            assert 0.0 <= first.residual <= lp.FEASIBILITY_TOL

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)),
           st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 0.5]))
    def test_every_point_matches_a_cold_solve(self, inst, alpha, beta):
        params = risk.RiskParams(alpha, beta)
        ys = risk.breakpoints(inst)
        sweep = lp.solve_sweep(lp.build_average_lp(inst, float(ys[0]), params),
                               [risk.saddle_coefficients(inst, float(y), params) for y in ys])
        assert len(sweep) == ys.size
        for y, point in zip(ys, sweep):
            cold = lp.solve(lp.build_average_lp(inst, float(y), params))
            assert point.status == cold.status == "optimal"
            assert abs(point.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)),
           st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 0.5]))
    def test_every_point_prices_its_norm_row_at_its_objective(self, inst, alpha, beta):
        # strong duality: the average program's rows are the balance rows,
        # priced by the bias, and the norm row last, priced by the gain
        params = risk.RiskParams(alpha, beta)
        ys = risk.breakpoints(inst)
        prog = lp.build_average_lp(inst, float(ys[0]), params)
        for point in lp.solve_sweep(prog, risk.saddle_coefficient_rows(inst, ys, params)):
            assert point.duals.shape == (prog.A.shape[0],) == (inst.n_states + 1,)
            assert abs(point.duals[-1] - point.objective) <= 1e-9 * max(1.0, abs(point.objective))

    def test_recheck_refuses_at_negative_tolerance(self, monkeypatch):
        inst, params = model.builtin("example2"), risk.RiskParams(0.7)
        ys = risk.breakpoints(inst)
        monkeypatch.setattr(lp, "FEASIBILITY_TOL", -1.0)
        with pytest.raises(lp.LpSolveError, match="violates constraints by"):
            lp.solve_sweep(lp.build_average_lp(inst, float(ys[0]), params),
                           [risk.saddle_coefficients(inst, float(y), params) for y in ys])

    def test_infeasible_and_unbounded(self):
        free = (Variable("z", -np.inf, np.inf),)
        prog = LinearProgram.from_rows("t", "max", {"z": 1.0}, free,
                                       (Constraint("cap", {"z": 1.0}, "<=", 3.0),))
        with pytest.raises(lp.LpSolveError, match=r"^t \[cost 1\]: Unbounded$"):
            lp.solve_sweep(prog, [np.ones(1), -np.ones(1)])
        prog = LinearProgram.from_rows("t", "max", {"z": 1.0}, (Variable("z"),),
                                       (Constraint("neg", {"z": 1.0}, "<=", -1.0),))
        with pytest.raises(lp.LpSolveError, match=r"^t \[cost 0\]: Infeasible$"):
            lp.solve_sweep(prog, [np.ones(1)])


def test_level_lp_pivots_primal(monkeypatch):
    """The level program dualises the occupation polytope; dual simplex
    took 31,427 iterations on this one, primal simplex under 600, to the
    occupation LP's optimum."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import sparse_instance as perfbench_sparse_instance

    inst, params = perfbench_sparse_instance(1, 400, 4), risk.RiskParams(0.8, 0.5)
    level, dual = lp.build_level_lp(inst, params), lp.build_dual_lp(inst, params)
    assert (level.simplex, dual.simplex) == ("primal", "dual")
    sol = lp.solve(level)
    assert sol.status == "optimal"
    assert sol.nit <= 2000
    assert abs(sol.objective - lp.solve(dual).objective) <= solver.CERT_TOL


def test_sweep_pivots_primal_after_the_first_cost(monkeypatch):
    """A later sweep point changes only the costs, so the previous optimal
    basis stays primal feasible and primal simplex goes on from it: 447
    iterations over points 1..23 here, where dual simplex, which first
    repairs dual feasibility, took 1,259."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import sparse_instance as perfbench_sparse_instance

    inst, params = perfbench_sparse_instance(1, 400, 4), risk.RiskParams(0.8, 0.5)
    ys = risk.breakpoints(inst)
    sweep = lp.solve_sweep(lp.build_average_lp(inst, float(ys[0]), params),
                           risk.saddle_coefficient_rows(inst, ys, params))
    assert sum(point.nit for point in sweep[1:]) <= 800


def test_unknown_simplex_direction_refused():
    with pytest.raises(ValueError, match="simplex must be one of"):
        LinearProgram("t", "min", np.zeros(1), np.zeros(1), np.ones(1),
                      csr_array((0, 1)), np.zeros(0), np.zeros(0), simplex="barrier")


def run_fresh(code):
    """Run code in a fresh interpreter with src/ on the path; return its
    stdout parsed as JSON."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestHighsLoader:
    """`lp` loads scipy's HiGHS extension by file, so importing cvarmdp does
    not run scipy.optimize's package init."""

    def test_cli_import_skips_scipy_optimize_and_shares_the_module(self):
        out = run_fresh(
            "import json, sys\n"
            "import cvarmdp.cli\n"
            "from cvarmdp import lp\n"
            "before = 'scipy.optimize' in sys.modules\n"
            "registered = sys.modules.get(lp._HIGHS_NAME) is lp.highs\n"
            "import scipy.optimize\n"
            "from scipy.optimize._highspy import _core\n"
            "res = scipy.optimize.linprog([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6],"
            " method='highs')\n"
            "print(json.dumps({'before': before, 'registered': registered,"
            " 'same': _core is lp.highs,"
            " 'status': res.status, 'x': res.x.tolist()}))\n")
        assert out["before"] is False
        assert out["registered"]
        assert out["same"]
        assert out["status"] == 0
        assert out["x"] == pytest.approx([1.6, 1.2])

    def test_loaded_module_is_returned_again(self):
        assert lp._load_highs() is lp.highs

    def test_falls_back_to_the_normal_import(self, tmp_path):
        out = run_fresh(
            "import json, sys\n"
            "import scipy.optimize\n"
            "from cvarmdp import lp\n"
            "del sys.modules[lp._HIGHS_NAME]\n"
            f"print(json.dumps(lp._load_highs({str(tmp_path)!r}) is lp.highs))\n")
        assert out is True


class TestNoSparseOnSolvePath:
    """`lp` keeps its CSR arrays in numpy and `chains`/`evaluate` import
    scipy.sparse inside the functions that use it, so starting `cvarmdp`
    and solving a program load no scipy.sparse module."""

    def test_commands_load_no_scipy_sparse(self):
        out = run_fresh(
            "import contextlib, io, json, sys\n"
            "def sparse():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy.sparse'))\n"
            "import cvarmdp.cli as cli\n"
            "seen = {'import': sparse()}\n"
            "def run(*argv):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        code = cli.main(list(argv))\n"
            "    assert code == 0, (argv, code)\n"
            "    return buf.getvalue()\n"
            "example2 = ['--builtin', 'example2', '--alpha', '0.7', '--json']\n"
            "for cmd in ('solve', 'scan'):\n"
            "    run(cmd, *example2)\n"
            "    seen[cmd] = sparse()\n"
            "run('solve', '--gen', '6,3,1', '--alpha', '0.8', '--json')\n"
            "seen['solve --gen'] = sparse()\n"
            "run('check', '--gen', '6,3,1')\n"
            "seen['check --gen'] = sparse()\n"
            "endowment = json.loads(run('solve', '--builtin', 'endowment', '--alpha', '0.9',"
            " '--beta', '0.5', '--json'))\n"
            "print(json.dumps({'seen': seen, 'endowment': endowment['value']}))\n")
        assert out["seen"] == {case: [] for case in
                               ("import", "solve", "scan", "solve --gen", "check --gen")}
        assert out["endowment"] == pytest.approx(96.84, abs=0.005)


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
        dual = lp.build_dual_lp(inst, params)
        n_tail = bp.size
        # rows: the tail rows, the balance rows, the norm row; columns x, z2
        assert dual.A.shape == (n_tail + m + 1, n + 1)
        eq = dense(dual.A)[n_tail:]
        for j in range(m):
            assert np.array_equal(eq[j], np.append((inst.pair_state == j) - inst.kernel[:, j], 0.0))
        assert np.array_equal(eq[m], np.append(np.ones(n), 0.0))
        assert np.array_equal(dual.row_lo[n_tail:], dual.row_hi[n_tail:])
        # tail rows as written: c(e) x - z2 >= 0
        tail = dense(dual.A)[:n_tail]
        assert np.all(dual.row_hi[:n_tail] == np.inf)
        for e, y in enumerate(bp):
            assert np.array_equal(tail[e], np.append(risk.saddle_coefficients(inst, y, params), -1.0))
        level = lp.build_level_lp(inst, params)
        # pair k's mean: its paid atoms' probability times value, added in
        # atom order
        pair, at, prob = inst.reward_atoms
        mean = np.zeros(n)
        for k, v, p in zip(pair.tolist(), inst.reward_grid[0][at].tolist(), prob.tolist()):
            mean[k] += p * v
        assert np.array_equal(level.row_lo[:n], beta * mean)
        assert np.all(level.row_hi == np.inf)
        # one excess row w_e + y >= e per distinct reward value e that some
        # pair pays with positive probability, in grid order; pair k's entry
        # in column w_e is -P_k(r = e) / (1 - alpha)
        grid = inst.reward_grid[0]
        laws = risk.reward_law_rows(inst, np.eye(n))  # row k: pair k's law on the grid
        paid = np.flatnonzero(laws.any(axis=0))
        n_w, w0 = paid.size, m + 2
        excess = dense(level.A)[n:]
        assert level.A.shape == (n + n_w, w0 + n_w) == (len(level.row_lo), level.c.size)
        assert np.array_equal(level.row_lo[n:], grid[paid])
        assert np.array_equal(excess[:, m + 1], np.ones(n_w))
        assert np.array_equal(excess[:, w0:], np.eye(n_w))
        assert np.all(dense(level.A)[:n, w0:].any(axis=0))
        assert np.allclose(dense(level.A)[:n, w0:], -laws[:, paid] / (1.0 - alpha),
                           rtol=1e-12, atol=0.0)
        if inst.rewards is not None:  # pair k's only entry is in its reward's column
            assert np.array_equal(level.row_lo[n:], np.unique(inst.rewards))
            assert np.array_equal(dense(level.A)[:n, w0:] != 0.0,
                                  inst.rewards[:, None] == grid[paid][None, :])
        xs = oracles.polytope_vertices(inst)[0]
        primal = lp.build_primal_lp(inst, xs, params)
        # the same w columns, from 2 after y and z1, in the same excess rows,
        # each vertex row weighting them as the level program's price rows do
        assert primal.A.shape == (len(xs) + n_w, 2 + n_w)
        primal_excess = dense(primal.A)[-n_w:]
        assert np.array_equal(primal_excess[:, 2:], excess[:, w0:])
        assert np.allclose(dense(primal.A)[:len(xs), 2:], xs @ -dense(level.A)[:n, w0:],
                           rtol=1e-12, atol=0.0)
        assert np.array_equal(primal_excess[:, :2], np.tile([1.0, 0.0], (n_w, 1)))
        assert np.array_equal(primal.row_lo[-n_w:], grid[paid])
        assert np.all(primal.row_hi[-n_w:] == np.inf)
        for prog in (dual, level, lp.build_average_lp(inst, float(bp[0]), params),
                     lp.build_sparsify_lp(inst, float(bp[-1]), params), primal):
            assert np.all(prog.A.data != 0.0), prog.name
        assert lp.solve(dual).objective == pytest.approx(lp.solve(level).objective, abs=1e-9)


def scipy_csr(shape, rows, cols, vals):
    """scipy's CSR matrix of triplets, duplicates summed and zeros dropped."""
    a = csr_array((np.asarray(vals, dtype=float), (np.asarray(rows, dtype=int),
                                                   np.asarray(cols, dtype=int))), shape=shape)
    a.eliminate_zeros()
    return a


def scipy_polytope(inst, n_cols):
    n, m = inst.n_pairs, inst.n_states
    k, j = np.nonzero(inst.kernel)
    pairs = np.arange(n)
    return scipy_csr((m + 1, n_cols), np.concatenate((inst.pair_state, j, np.full(n, m))),
                     np.concatenate((pairs, k, pairs)),
                     np.concatenate((np.ones(n), -inst.kernel[k, j], np.ones(n))))


def paid_atoms(inst):
    """The paid reward values in grid order, and each paid atom's
    (pair, column among them, probability) in `np.nonzero(probs)` order."""
    values, index = inst.reward_grid
    probs = oracles.dense_reward_atoms(inst)[1]
    k, c = np.nonzero(probs)
    paid = np.unique(index[k, c])
    return values[paid], k, np.searchsorted(paid, index[k, c]), probs[k, c]


def summed_in_order(keys, vals):
    """{key: sum of its vals}, each sum taken in the order given, from 0.0."""
    out = {}
    for key, v in zip(keys, vals):
        out[key] = out.get(key, 0.0) + v
    return out


def scipy_excess(inst, y_col, w_col):
    n_w = paid_atoms(inst)[0].size
    e = np.arange(n_w)
    return scipy_csr((n_w, w_col + n_w), np.concatenate((e, e)),
                     np.concatenate((w_col + e, np.full(n_w, y_col))), np.ones(2 * n_w))


def assert_same_csr(a, ref):
    assert tuple(a.shape) == ref.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, field), getattr(ref, field)), field


class TestCsrArrays:
    """The builders' numpy CSR arrays equal scipy's CSR of the same
    triplets and dense blocks, and the re-check's mat-vec equals scipy's
    product bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(self_loop_instances(), st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 0.5]),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_builders_match_scipy(self, inst, alpha, beta, seed):
        params = risk.RiskParams(alpha, beta)
        bp = risk.breakpoints(inst)
        n, m = inst.n_pairs, inst.n_states
        inv = 1.0 / (1.0 - alpha)
        tail = np.array([risk.saddle_coefficients(inst, float(e), params) for e in bp])
        refs = {"dual": vstack([csr_array(np.column_stack((tail, -np.ones(len(tail))))),
                                scipy_polytope(inst, n + 1)], format="csr")}
        k, j = np.nonzero(inst.kernel)
        pairs = np.arange(n)
        # one w column per paid value; a pair's atoms at one value are summed
        # in atom order here, so scipy sums no more than two entries
        paid, w_pairs, w_cols, w_probs = paid_atoms(inst)
        n_w, w0 = paid.size, m + 2
        w_price = summed_in_order(zip(w_pairs.tolist(), w_cols.tolist()), -inv * w_probs)
        w_rows, w_at = np.array(list(w_price), dtype=int).reshape(-1, 2).T
        price = scipy_csr((n, w0 + n_w), np.concatenate((pairs, k, pairs, pairs, w_rows)),
                          np.concatenate((inst.pair_state, j, np.full(n, m), np.full(n, m + 1),
                                          w0 + w_at)),
                          np.concatenate((np.ones(n), -inst.kernel[k, j], np.ones(n), -np.ones(n),
                                          list(w_price.values()))))
        refs["level"] = vstack([price, scipy_excess(inst, m + 1, w0)], format="csr")
        refs["average"] = scipy_polytope(inst, n)
        y = float(bp[-1])
        delta = float(np.diff(bp).min()) if bp.size >= 2 else None  # the grid's smallest gap
        below = y - delta / 2.0 if delta is not None else y
        atoms = list(zip(inst.reward_atoms[0].tolist(),
                         inst.reward_grid[0][inst.reward_atoms[1]].tolist(),
                         inst.reward_atoms[2].tolist()))

        def mass(hit):  # per pair: its paid atoms' probability where hit, in atom order
            out = np.zeros(n)
            for k, v, p in atoms:
                out[k] += p * float(hit(v))
            return out

        at_w = mass(lambda v: v <= y)
        below_w = mass(lambda v: v < below) if delta is not None else np.zeros(n)
        refs["sparsify"] = vstack([csr_array(np.append(-at_w, 0.0)[None, :]),
                                   csr_array(np.append(below_w, 1.0)[None, :]),
                                   scipy_polytope(inst, n + 1)], format="csr")
        xs, _ = oracles.polytope_vertices(inst)
        w_vertex = np.zeros((len(xs), n_w))
        for pair, col, prob in zip(w_pairs, w_cols, w_probs):
            w_vertex[:, col] += (inv * xs)[:, pair] * prob
        vertex = np.column_stack(([xl.sum() for xl in xs], np.full(len(xs), -1.0), w_vertex))
        refs["primal"] = vstack([csr_array(vertex), scipy_excess(inst, 0, 2)], format="csr")
        progs = {"dual": lp.build_dual_lp(inst, params),
                 "level": lp.build_level_lp(inst, params),
                 "average": lp.build_average_lp(inst, float(bp[0]), params),
                 "sparsify": lp.build_sparsify_lp(inst, y, params),
                 "primal": lp.build_primal_lp(inst, xs, params)}
        # pair 0 stays put with probability one: its balance entry cancels
        # to zero and is not stored
        avg, row = progs["average"].A, inst.pair_state[0]
        assert 0 not in avg.indices[avg.indptr[row]:avg.indptr[row + 1]]
        rng = np.random.default_rng(seed)
        for name, prog in progs.items():
            assert_same_csr(prog.A, refs[name])
            x = rng.normal(size=prog.A.shape[1]) * 10.0 ** rng.integers(-3, 4, prog.A.shape[1])
            assert np.array_equal(lp._matvec(prog.A, x), refs[name] @ x), name

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6),
           st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                              st.integers(min_value=0, max_value=5),
                              st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 3.5])),
                    max_size=40))
    def test_triplets_match_scipy(self, n_rows, n_cols, entries):
        """Duplicates are summed, entries that cancel or are zero are not
        stored, and empty rows and matrices work. The values are dyadic, so
        a sum does not depend on the order scipy adds duplicates in."""
        entries = [(r, c, v) for r, c, v in entries if r < n_rows and c < n_cols]
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        a = lp._matrix((n_rows, n_cols), rows, cols, vals)
        ref = scipy_csr((n_rows, n_cols), rows, cols, vals)
        assert_same_csr(a, ref)
        x = np.linspace(-1.3, 2.7, n_cols)
        assert np.array_equal(lp._matvec(a, x), ref @ x)


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
        assert dedup.A.shape[0] == dedup.row_lo.size == 9 + 3 + 1
        # force duplicate rewards and watch the tail rows shrink
        dup = model.MdpInstance("dup", inst.states, inst.actions, inst.kernel,
                                rewards=np.repeat([1.0, 2.0, 3.0], 3))
        assert lp.build_dual_lp(dup, params).A.shape[0] == 3 + 3 + 1

    def test_endowment_mean_cvar_value(self):
        sol = lp.solve(lp.build_dual_lp(model.builtin("endowment"), risk.RiskParams(0.9, 0.5)))
        assert sol.objective == pytest.approx(96.84, abs=0.01)


class TestPrimalLp:
    def test_forced_single_pair(self):
        inst = one_pair_instance(3.0)
        verts, _ = oracles.polytope_vertices(inst)
        sol = lp.solve(lp.build_primal_lp(inst, verts, risk.RiskParams(0.4)))
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)  # column y

    def test_example2_matches_dual(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        verts, _ = oracles.polytope_vertices(inst)
        primal = lp.solve(lp.build_primal_lp(inst, verts, params))
        dual = lp.solve(lp.build_dual_lp(inst, params))
        assert primal.objective == pytest.approx(dual.objective, abs=2e-6)

    def test_excess_variables_tight_at_optimum(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        verts, _ = oracles.polytope_vertices(inst)
        prog = lp.build_primal_lp(inst, verts, params)
        sol = lp.solve(prog)
        # columns y, z1, then one w per distinct reward, in increasing order;
        # example2's nine pairs pay nine distinct rewards
        values = np.unique(inst.rewards)
        assert prog.c.size == 2 + values.size == 2 + inst.n_pairs
        y = sol.x[0]
        for e, value in enumerate(values):
            w = sol.x[2 + e]
            assert w == pytest.approx(max(float(value) - y, 0.0), abs=1e-8)

    def test_endowment_recovers_tail_level(self):
        inst = model.builtin("endowment")
        verts, _ = oracles.polytope_vertices(inst)
        sol = lp.solve(lp.build_primal_lp(inst, verts, risk.RiskParams(0.9, 0.5)))
        assert sol.x[0] == 84.0  # column y
        assert sol.objective == pytest.approx(96.84, abs=0.01)

    def test_weak_duality_on_random(self):
        for seed in range(5):
            inst = model.random_instance(seed, 3, 2)
            params = risk.RiskParams(0.6, 0.1)
            verts, _ = oracles.polytope_vertices(inst)
            primal = lp.solve(lp.build_primal_lp(inst, verts, params))
            dual = lp.solve(lp.build_dual_lp(inst, params))
            assert primal.objective == pytest.approx(dual.objective, abs=2e-6)


class TestAverageLp:
    def test_alpha_zero_at_lower_bound_is_classical(self):
        inst = model.builtin("example2")
        lo, _ = inst.reward_bounds()
        sol = lp.solve(lp.build_average_lp(inst, lo, risk.RiskParams(0.0)))
        classical = max(
            float(chains.stationary_distribution(inst, dp.to_stationary(inst)) @ inst.rewards)
            for dp in model.deterministic_policies(inst))
        assert sol.objective == pytest.approx(classical, abs=1e-8)

    def test_top_endpoint_collapses(self):
        inst = model.builtin("example2")
        sol = lp.solve(lp.build_average_lp(inst, 94.0, risk.RiskParams(0.7)))
        assert sol.objective == pytest.approx(94.0, abs=1e-9)

    def test_endpoint_minimum_near_published_value(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        vals = [lp.solve(lp.build_average_lp(inst, float(y), params)).objective
                for y in risk.breakpoints(inst)]
        assert min(vals) == pytest.approx(93.24, abs=0.01)

    def test_envelope_midpoint_convex_along_endpoints(self):
        inst = model.random_instance(11, 3, 2)
        params = risk.RiskParams(0.7)
        ys = risk.breakpoints(inst)
        vals = np.array([lp.solve(lp.build_average_lp(inst, float(y), params)).objective
                         for y in ys])
        for i in range(1, len(ys) - 1):
            lam = (ys[i + 1] - ys[i]) / (ys[i + 1] - ys[i - 1])
            chord = lam * vals[i - 1] + (1 - lam) * vals[i + 1]
            assert vals[i] <= chord + 1e-7


@st.composite
def coarse_reward_instances(draw):
    """Sparse instances of both reward kinds, their rewards rounded down to
    a grid of width 2, 5 or 11, so that many atoms share a value."""
    inst = draw(st.one_of(sparse_kernels(), sparse_kernels(rewards3=True)))
    width = draw(st.sampled_from([2.0, 5.0, 11.0]))

    def coarse(r):
        return None if r is None else np.floor(r / width) * width

    return model.MdpInstance(inst.name, inst.states, inst.actions, inst.kernel,
                             rewards=coarse(inst.rewards), rewards3=coarse(inst.rewards3))


class TestLevelLp:
    @settings(max_examples=60, deadline=None)
    @given(coarse_reward_instances(), st.sampled_from([0.0, 0.5, 0.9]),
           st.sampled_from([0.0, 0.5]))
    def test_one_excess_column_per_paid_value(self, inst, alpha, beta):
        params = risk.RiskParams(alpha, beta)
        level = lp.build_level_lp(inst, params)
        paid = oracles.dense_reward_atoms(inst)[1] > 0
        k_paid = np.unique(inst.reward_grid[1][paid]).size
        assert level.A.shape == (inst.n_pairs + k_paid, inst.n_states + 2 + k_paid)
        level_opt = lp.solve(level).objective
        dual_opt = lp.solve(lp.build_dual_lp(inst, params)).objective
        assert abs(level_opt - dual_opt) <= 1e-9 * max(1.0, abs(dual_opt))

    def test_matches_dual_optimum(self):
        for seed in range(4):
            inst = model.random_instance(seed, 4, 2)
            params = risk.RiskParams(0.8, 0.25)
            level = lp.solve(lp.build_level_lp(inst, params))
            dual = lp.solve(lp.build_dual_lp(inst, params))
            assert level.objective == pytest.approx(dual.objective, abs=2e-6)

    def test_example2_interior_level(self):
        inst = model.builtin("example2")
        prog = lp.build_level_lp(inst, risk.RiskParams(0.7))
        sol = lp.solve(prog)
        assert sol.objective == pytest.approx(93.2402, abs=1e-3)
        y = inst.n_states + 1  # columns u, u0, y
        assert (prog.lb[y], prog.ub[y]) == inst.reward_bounds()
        assert np.array_equal(dense(prog.A)[:inst.n_pairs, y], -np.ones(inst.n_pairs))
        assert 70.0 < sol.x[y] < 71.0

    def test_endowment_excess_only_where_paid(self):
        # 36 of endowment's 108 (pair, next state) entries carry probability,
        # and they pay 16 distinct values: 18 price rows plus 16 excess rows;
        # columns u (6), u0, y and one w per paid value
        inst = model.builtin("endowment")
        index = inst.reward_grid[1]
        assert np.unique(index[inst.kernel > 0]).size == 16
        prog = lp.build_level_lp(inst, risk.RiskParams(0.9, 0.5))
        assert prog.A.shape == (34, 24)
        assert lp.solve(prog).objective == pytest.approx(96.84, abs=0.01)


class TestSparsifyLp:
    def test_forced_single_pair(self):
        inst = one_pair_instance(2.0)
        params = risk.RiskParams(0.4)
        prog = lp.build_sparsify_lp(inst, 2.0, params)
        sol = lp.solve(prog)
        # columns x, x0; rows at-or-below, strictly-below, balance, norm; x0 only in row 1
        assert prog.A.shape == (4, 2)
        assert np.array_equal(dense(prog.A)[:, 1], [0.0, 1.0, 0.0, 0.0])
        assert sol.x == pytest.approx([1.0, 0.4])

    def test_example2_vertex_support(self):
        inst = model.builtin("example2")
        params = risk.RiskParams(0.7)
        dual = lp.solve(lp.build_dual_lp(inst, params))
        x = lp.pair_values(inst, dual)
        y = risk.var(risk.reward_distribution(inst, x), 0.7)
        sol = lp.solve(lp.build_sparsify_lp(inst, y, params))
        assert sol.objective == pytest.approx(93.24, abs=0.01)
        xs = lp.pair_values(inst, sol)
        assert (xs > 1e-9).sum() <= inst.n_states + 1

    def test_random_instance_randomization_bound(self):
        inst = model.random_instance(13, 4, 3)
        params = risk.RiskParams(0.7)
        dual = lp.solve(lp.build_dual_lp(inst, params))
        x = lp.pair_values(inst, dual)
        y = risk.var(risk.reward_distribution(inst, x), 0.7)
        sol = lp.solve(lp.build_sparsify_lp(inst, y, params))
        if sol.x[inst.n_pairs] > 1e-9:  # x0
            pol = model.extract_policy(inst, lp.pair_values(inst, sol))
            assert model.n_randomizations(inst, pol) <= 1


class TestNamedView:
    """The named view: `from_rows`, `variables`, `objective` and
    `constraints`, which name column j str(j) and row i str(i)."""

    @pytest.mark.parametrize("name", ["example2", "endowment"])
    def test_named_view_rebuilds_the_arrays(self, name):
        inst = model.builtin(name)
        params = risk.RiskParams(0.7, 0.5)
        y = float(risk.breakpoints(inst)[1])
        for prog in (lp.build_dual_lp(inst, params), lp.build_level_lp(inst, params),
                     lp.build_average_lp(inst, y, params), lp.build_sparsify_lp(inst, y, params),
                     lp.build_primal_lp(inst, oracles.polytope_vertices(inst)[0], params)):
            back = LinearProgram.from_rows(prog.name, prog.sense, prog.objective,
                                           prog.variables, prog.constraints)
            for field in ("c", "row_lo", "row_hi", "lb", "ub"):
                assert np.array_equal(getattr(back, field), getattr(prog, field)), field
            assert_same_csr(back.A, prog.A)
            assert [v.name for v in prog.variables] == list(map(str, range(prog.c.size)))
            assert [c.name for c in prog.constraints] == list(map(str, range(prog.row_lo.size)))

    def test_interleaved_rows_keep_their_order(self):
        # max -a + b + 2c, a >= 1, b - c = 0, a + b + c <= 4: optimum
        # (1, 1.5, 1.5), value 3.5. Raising the floor by one costs 2.5,
        # the link 0.5, and raising the cap by one gains 1.5.
        rows = (Constraint("floor", {"a": 1.0}, ">=", 1.0),
                Constraint("link", {"b": 1.0, "c": -1.0}, "=", 0.0),
                Constraint("cap", {"a": 1.0, "b": 1.0, "c": 1.0}, "<=", 4.0))
        prog = LinearProgram.from_rows("t", "max", {"a": -1.0, "b": 1.0, "c": 2.0},
                                       (Variable("a"), Variable("b"), Variable("c")), rows)
        assert np.array_equal(prog.row_lo, [1.0, 0.0, -np.inf])
        assert np.array_equal(prog.row_hi, [np.inf, 0.0, 4.0])
        # the same rows, columns a, b, c named by position
        assert prog.constraints == (Constraint("0", {"0": 1.0}, ">=", 1.0),
                                    Constraint("1", {"1": 1.0, "2": -1.0}, "=", 0.0),
                                    Constraint("2", {"0": 1.0, "1": 1.0, "2": 1.0}, "<=", 4.0))
        assert prog.objective == {"0": -1.0, "1": 1.0, "2": 2.0}
        back = LinearProgram.from_rows("t", "max", prog.objective, prog.variables,
                                       prog.constraints)
        sols = [lp.solve(back), lp.solve(prog)]
        for sol in sols:
            assert sol.x == pytest.approx([1.0, 1.5, 1.5])  # columns a, b, c
            assert sol.objective == pytest.approx(3.5)
            assert sol.duals == pytest.approx([-2.5, -0.5, 1.5])  # rows floor, link, cap
        assert np.array_equal(sols[0].x, sols[1].x) and np.array_equal(sols[0].duals, sols[1].duals)

    def test_ranged_row_refused(self):
        with pytest.raises(ValueError, match=r"^row 1 is ranged \(0 <= a x <= 1\)"):
            LinearProgram("t", "min", np.zeros(1), np.zeros(1), np.ones(1),
                          csr_array(np.ones((2, 1))), np.array([-np.inf, 0.0]), np.ones(2))

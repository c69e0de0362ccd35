import os
import subprocess
import sys

import numpy as np
import pytest

from cvarmdp import _kernels, evaluate, model

pytestmark = pytest.mark.skipif(
    "numba" not in _kernels.implementations(),
    reason="numba unavailable; only the numpy path exists")


def sequence_inputs(instance, policy, s0, T):
    rules, _ = model.rule_rows(policy, T)
    values, vidx, vidx3, triple = evaluate._value_index_tables(instance)
    mu0 = np.zeros(instance.n_states)
    mu0[instance.state_index(s0)] = 1.0
    return (instance.kernel, instance.pair_state, rules, mu0, T, 0.7,
            vidx, vidx3, triple, values.size, values)


class TestCvarSequenceParity:
    def test_stationary_policy(self):
        inst = model.builtin("example2")
        pol = model.DeterministicPolicy((2, 0, 1)).to_stationary(inst)
        args = sequence_inputs(inst, pol, "1", 400)
        impls = _kernels.implementations()
        out_np, drift_np = impls["numpy"][1](*args)
        out_nb, drift_nb = impls["numba"][1](*args)
        assert np.allclose(out_np, out_nb, atol=1e-12)
        assert drift_np < 1e-12 and drift_nb < 1e-12

    def test_time_dependent_policy(self):
        inst = model.builtin("example1")
        T = 500
        pol = evaluate.example1_policy(T)
        args = sequence_inputs(inst, pol, "s1", T)
        impls = _kernels.implementations()
        out_np, _ = impls["numpy"][1](*args)
        out_nb, _ = impls["numba"][1](*args)
        assert np.array_equal(out_np, out_nb)

    def test_next_state_rewards(self):
        inst = model.builtin("endowment")
        pol = model.DeterministicPolicy((2, 0, 1, 2, 0, 1)).to_stationary(inst)
        args = sequence_inputs(inst, pol, "(0,0.2)", 200)
        impls = _kernels.implementations()
        out_np, _ = impls["numpy"][1](*args)
        out_nb, _ = impls["numba"][1](*args)
        assert np.allclose(out_np, out_nb, atol=1e-12)


class TestEvolveParity:
    def test_state_distribution(self):
        inst = model.random_instance(1, 5, 3)
        pol = model.extract_policy(inst, np.random.default_rng(0).random(15) + 0.1)
        rules = pol.probs.reshape(1, -1)
        mu0 = np.zeros(5)
        mu0[2] = 1.0
        impls = _kernels.implementations()
        a = impls["numpy"][0](inst.kernel, inst.pair_state, rules, mu0, 300)
        b = impls["numba"][0](inst.kernel, inst.pair_state, rules, mu0, 300)
        assert np.allclose(a, b, atol=1e-14)


class TestMcStepParity:
    def test_identical_draws_identical_paths(self):
        inst = model.builtin("example2")
        pol = model.extract_policy(inst, np.random.default_rng(1).random(9) + 0.2)
        rng = np.random.default_rng(2)
        reps = 5000
        states = rng.integers(0, 3, reps)
        u_act = rng.random(reps)
        u_nxt = rng.random(reps)
        kernel_cdf = np.cumsum(inst.kernel, axis=1)
        rule_cdf2d = evaluate._rule_cdf2d(inst, pol.probs, 3)
        counts2d = np.array([3, 3, 3], dtype=np.int64)
        offsets = np.asarray(inst.offsets[:-1], dtype=np.int64)
        impls = _kernels.implementations()
        p_np, n_np = impls["numpy"][2](states, u_act, u_nxt, rule_cdf2d, counts2d,
                                       offsets, kernel_cdf)
        p_nb, n_nb = impls["numba"][2](states, u_act, u_nxt, rule_cdf2d, counts2d,
                                       offsets, kernel_cdf)
        assert np.array_equal(p_np, p_nb)
        assert np.array_equal(n_np, n_nb)


class TestEnvFlag:
    @pytest.mark.parametrize("flag,expected", [("0", "False"), ("1", "True")])
    def test_selection(self, flag, expected):
        env = dict(os.environ, CVARMDP_NUMBA=flag)
        out = subprocess.run(
            [sys.executable, "-c",
             "from cvarmdp import _kernels; print(_kernels.USE_NUMBA)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected

    def test_numpy_path_runs_pipeline(self):
        env = dict(os.environ, CVARMDP_NUMBA="0")
        code = (
            "from cvarmdp import evaluate, model\n"
            "inst = model.builtin('example1')\n"
            "seq = evaluate.cvar_sequence(inst, evaluate.example1_policy(121), 's1', 121, 0.5)\n"
            "print(float(seq.cesaro[-1]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert abs(float(out.stdout.strip()) - 122.0 / 121.0) < 1e-12

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_chains import sparse_kernels

from cvarmdp import chains, evaluate, model, risk, solver


def two_state_instance(p12=0.3, p21=0.6, rewards=(1.0, 4.0, 2.0)):
    kernel = np.array([
        [1 - p12, p12],
        [0.2, 0.8],
        [p21, 1 - p21],
    ])
    return model.MdpInstance(
        "toy", ("s1", "s2"), (("a", "b"), ("a",)), kernel, rewards=np.array(rewards))


class TestInstance:
    def test_pair_layout(self):
        inst = two_state_instance()
        assert inst.n_states == 2
        assert inst.n_pairs == 3
        assert list(inst.offsets) == [0, 2, 3]
        assert list(inst.pair_state) == [0, 0, 1]
        assert inst.pair_index("s1", "b") == 1
        assert inst.pair_name(2) == ("s2", "a")

    def test_reward_bounds(self):
        inst = two_state_instance()
        assert inst.reward_bounds() == (1.0, 4.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            model.MdpInstance("bad", ("s",), (("a",),), np.ones((2, 1)),
                              rewards=np.array([1.0, 2.0]))

    def test_reward_mode_exclusive(self):
        kernel = np.array([[1.0]])
        with pytest.raises(ValueError):
            model.MdpInstance("bad", ("s",), (("a",),), kernel,
                              rewards=np.array([1.0]), rewards3=np.ones((1, 1)))
        with pytest.raises(ValueError):
            model.MdpInstance("bad", ("s",), (("a",),), kernel)

    def test_arrays_readonly(self):
        inst = two_state_instance()
        with pytest.raises(ValueError):
            inst.kernel[0, 0] = 0.5

    @pytest.mark.parametrize("name", ["example2", "endowment"])
    def test_reward_grid(self, name):
        inst = model.builtin(name)
        values, index = inst.reward_grid
        rewards = inst.rewards[:, None] if inst.rewards is not None else inst.rewards3
        assert np.array_equal(values, np.unique(rewards))
        assert index.shape == rewards.shape
        assert np.array_equal(values[index], rewards)
        assert inst.reward_bounds() == (rewards.min(), rewards.max())
        for a in (values, index, *inst.reward_atoms):
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("name", ["example2", "endowment"])
    def test_reward_table(self, name):
        """One atom per pair for per-pair rewards, one per transition of
        positive probability for next-state rewards, in (pair, next state)
        order."""
        inst = model.builtin(name)
        pair, grid, prob = inst.reward_atoms
        values = inst.reward_grid[0]
        if inst.rewards is not None:
            assert np.array_equal(pair, np.arange(inst.n_pairs))
            assert np.all(prob == 1.0)
            assert np.array_equal(values[grid], inst.rewards)
        else:
            k, j = np.nonzero(inst.kernel > 0.0)
            assert pair.size == 36 < inst.rewards3.size
            assert np.array_equal(pair, k)
            assert np.array_equal(prob, inst.kernel[k, j])
            assert np.array_equal(values[grid], inst.rewards3[k, j])

    def test_caller_arrays_stay_writable(self):
        kernel, rewards = np.array([[0.5, 0.5], [1.0, 0.0]]), np.array([1.0, 2.0])
        rewards3, probs, rules = np.zeros((2, 2)), np.array([1.0, 0.0]), np.ones((3, 2))
        inst = model.MdpInstance("x", ("s1", "s2"), (("a",), ("a",)), kernel, rewards=rewards)
        lifted = model.MdpInstance("x", ("s1", "s2"), (("a",), ("a",)), kernel,
                                   rewards3=rewards3)
        kept = [inst.kernel, inst.rewards, lifted.rewards3,
                model.StationaryPolicy(probs).probs,
                model.TimeDependentPolicy(rules).rules,
                model.TimeDependentPolicy.from_rules(rules).rules]
        for a in (kernel, rewards, rewards3, probs, rules):
            assert a.flags.writeable
            a[...] = 7.0  # the instance and policies hold copies
        assert not any(np.any(a == 7.0) for a in kept)


class TestRewardLayout:
    """Per-pair rewards are next-state rewards that ignore the state
    reached: lifting rewards[k] to rewards3[k, :] changes no result."""

    @given(sparse_kernels(), st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 0.5]))
    @example(model.builtin("example2"), 0.7, 0.5)
    @settings(max_examples=30, deadline=None)
    def test_lifted_instance_agrees(self, inst, alpha, beta):
        lifted = model.MdpInstance(inst.name, inst.states, inst.actions, inst.kernel,
                                   rewards3=np.repeat(inst.rewards[:, None], inst.n_states, axis=1))
        assert np.array_equal(inst.reward_atoms[0], np.arange(inst.n_pairs))
        assert np.all(inst.reward_atoms[2] == 1.0)
        assert np.array_equal(lifted.reward_atoms[2], inst.kernel[inst.kernel != 0.0])
        params = risk.RiskParams(alpha, beta)
        sol = solver.solve_cvar(inst, params)
        assert solver.solve_cvar(lifted, params).v_star == pytest.approx(sol.v_star, abs=1e-9)
        x = sol.x_star
        law, lifted_law = risk.reward_distribution(inst, x), risk.reward_distribution(lifted, x)
        assert np.array_equal(law.values, lifted_law.values)
        assert np.allclose(law.probs, lifted_law.probs, rtol=0.0, atol=1e-9)
        for y in risk.breakpoints(inst):
            assert risk.saddle_value(lifted, x, float(y), params) == pytest.approx(
                risk.saddle_value(inst, x, float(y), params), abs=1e-9)
        seq = evaluate.cvar_sequence(inst, sol.policy, 0, 12, alpha)
        lifted_seq = evaluate.cvar_sequence(lifted, sol.policy, 0, 12, alpha)
        assert np.allclose(seq.per_step, lifted_seq.per_step, rtol=0.0, atol=1e-9)


class TestValidate:
    def test_example2_clean(self):
        assert model.validate(model.builtin("example2")).ok

    def test_endowment_clean(self):
        assert model.validate(model.builtin("endowment")).ok

    def test_example1_clean(self):
        assert model.validate(model.builtin("example1")).ok

    def test_deficient_row_named(self):
        kernel = np.array([[0.5, 0.4], [0.5, 0.5], [0.3, 0.7]])
        inst = model.MdpInstance("bad", ("s1", "s2"), (("a", "b"), ("a",)),
                                 kernel, rewards=np.zeros(3))
        report = model.validate(inst)
        assert not report.ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert "'s1'" in v.where and "'a'" in v.where
        assert v.magnitude == pytest.approx(0.1)

    def test_negative_probability(self):
        kernel = np.array([[1.2, -0.2]])
        inst = model.MdpInstance("bad", ("s1", "s2"), (("a",), ()),
                                 kernel, rewards=np.zeros(1))
        rules = {v.rule for v in model.validate(inst).violations}
        assert "negative transition probability" in rules
        assert "empty admissible action set" in rules

    def test_row_violations_in_pair_order(self):
        kernel = np.array([[1.2, -0.2], [0.5, 0.4], [0.7, 0.3], [-0.1, 0.9]])
        inst = model.MdpInstance("bad", ("s1", "s2"), (("a", "b"), ("a", "b")),
                                 kernel, rewards=np.zeros(4))
        got = [(v.where, v.rule, v.magnitude) for v in model.validate(inst).violations]
        assert got == [
            ("('s1', 'a')", "negative transition probability", 0.2),
            ("('s1', 'b')", "transition row does not sum to 1", abs(0.9 - 1.0)),
            ("('s2', 'b')", "transition row does not sum to 1", abs(0.8 - 1.0)),
            ("('s2', 'b')", "negative transition probability", 0.1),
        ]


class TestValidateNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_transition_probability(self, bad):
        # NaN passes both the row-sum and the sign comparison
        kernel = np.array([[bad, 1.0], [0.0, 1.0]])
        inst = model.MdpInstance("bad", ("s1", "s2"), (("a",), ("a",)), kernel,
                                 rewards=np.zeros(2))
        got = model.validate(inst).violations
        assert (got[0].where, got[0].rule, got[0].magnitude) == (
            "('s1', 'a')", "non-finite transition probability", 1.0)


_names = st.text(alphabet="ab.(0,)", min_size=1, max_size=4)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def file_instances(draw):
    """Instances a file can hold: names with dots, unequal action counts,
    a kernel with zeros and any finite numbers, either reward kind."""
    states = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    actions = [draw(st.lists(_names, min_size=1, max_size=3, unique=True)) for _ in states]
    shape = (sum(map(len, actions)), len(states))
    kernel = draw(arrays(np.float64, shape, elements=st.one_of(st.just(0.0), _finite)))
    if draw(st.booleans()):
        rewards = {"rewards3": draw(arrays(np.float64, shape, elements=_finite))}
    else:
        rewards = {"rewards": draw(arrays(np.float64, shape[0], elements=_finite))}
    return model.MdpInstance(draw(st.text(max_size=5)), states, actions, kernel, **rewards)


class TestFileRoundTrip:
    @pytest.mark.parametrize("name", ["example1", "example2", "endowment"])
    def test_round_trip_identity(self, name, tmp_path):
        inst = model.builtin(name)
        path = tmp_path / f"{name}.json"
        model.save(inst, path)
        again = model.load(path)
        assert again == inst
        assert again.states == inst.states
        assert again.actions == inst.actions

    @given(file_instances())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_property(self, tmp_path, inst):
        path = tmp_path / "inst.json"
        model.save(inst, path)
        assert model.load(path) == inst

    @given(file_instances(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_policy_round_trip_is_bit_exact(self, inst, seed):
        rng = np.random.default_rng(seed)
        weights = np.where(rng.random(inst.n_pairs) < 0.6, rng.random(inst.n_pairs), 0.0)
        weights[inst.offsets[:-1]] += 0.5  # no state without an action
        pol = model.StationaryPolicy(
            weights / np.add.reduceat(weights, inst.offsets[:-1])[inst.pair_state])
        mapping = json.loads(json.dumps(pol.to_mapping(inst)))
        assert model.StationaryPolicy.from_mapping(inst, mapping).probs.tobytes() == \
            pol.probs.tobytes()

    def test_readme_instance(self, tmp_path):
        # the documented format is what `load` reads and `save` writes
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Instance files", 1)[1]
        doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(doc))
        inst = model.load(path)
        assert model.validate(inst).ok
        model.save(inst, path)
        assert json.loads(path.read_text()) == doc
        assert model.load(path) == inst

    def test_triple_mode_flagged(self, tmp_path):
        path = tmp_path / "endow.json"
        model.save(model.builtin("endowment"), path)
        assert model.load(path).uses_next_state_rewards

    def test_missing_transitions_block(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "states": ["s"], "actions": {"s": ["a"]}, '
                        '"rewards": {"s": {"a": 1.0}}}')
        with pytest.raises(model.InstanceFormatError, match="transitions"):
            model.load(path)

    def test_unknown_key_rejected(self, tmp_path):
        inst = two_state_instance()
        path = tmp_path / "inst.json"
        model.save(inst, path)
        doc = path.read_text().replace('"name"', '"extra": 1, "name"', 1)
        path.write_text(doc)
        with pytest.raises(model.InstanceFormatError, match="unknown top-level"):
            model.load(path)

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "inst.json"
        model.save(two_state_instance(), path)
        path.write_text(path.read_text().replace("mdp-v1", "mdp-v9"))
        with pytest.raises(model.InstanceFormatError, match="version"):
            model.load(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"name": "x",\n  "states": [}')
        with pytest.raises(model.InstanceFormatError, match="line 2"):
            model.load(path)

    def test_missing_reward_field_named(self, tmp_path):
        path = tmp_path / "inst.json"
        model.save(two_state_instance(), path)
        doc = json.loads(path.read_text())
        del doc["rewards"]["s1"]["b"]
        path.write_text(json.dumps(doc))
        with pytest.raises(model.InstanceFormatError, match="rewards.s1"):
            model.load(path)


    @pytest.mark.parametrize("builtin, edit, message", [
        ("example2", lambda r: r.update({"4": {"1": 1.0}}), "'rewards' names unknown state '4'"),
        ("example2", lambda r: r["1"].update({"9": 1.0}),
         "'rewards.1' names unknown action '9'"),
        ("endowment", lambda r: r.update({"(2,0.2)": {}}),
         "'rewards3' names unknown state '(2,0.2)'"),
        ("endowment", lambda r: r["(0,0.2)"].update({"0.9": {}}),
         "'rewards3.(0,0.2)' names unknown action '0.9'"),
        ("endowment", lambda r: r["(0,0.2)"]["0.5"].update({"(2,0.2)": 1.0}),
         "'rewards3.(0,0.2).0.5' names unknown next state '(2,0.2)'"),
    ])
    def test_unknown_reward_key_refused(self, tmp_path, builtin, edit, message):
        path = tmp_path / "inst.json"
        model.save(model.builtin(builtin), path)
        doc = json.loads(path.read_text())
        edit(doc["rewards" if "rewards" in doc else "rewards3"])
        path.write_text(json.dumps(doc))
        with pytest.raises(model.InstanceFormatError) as err:
            model.load(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update({"actions": [["a", "b"], ["a"]]}), "'actions' must be an object"),
        (lambda d: d["actions"].update({"s3": ["a"]}), "'actions' names unknown state 's3'"),
        (lambda d: d["actions"].pop("s2"), "'actions' missing state 's2'"),
        (lambda d: d["actions"].update({"s1": "ab"}), "'actions.s1' must be an array of strings"),
        (lambda d: d["actions"].update({"s1": ["a", 2]}),
         "'actions.s1' must be an array of strings"),
        (lambda d: d["actions"].update({"s1": ["a", "a"]}), "'actions.s1' contains duplicates"),
        (lambda d: d.update({"transitions": []}), "'transitions' must be an object"),
        (lambda d: d["transitions"].update({"s3": {}}), "'transitions' names unknown state 's3'"),
        (lambda d: d["transitions"].update({"s1": [0.7, 0.3]}),
         "'transitions.s1' must be an object"),
        (lambda d: d["transitions"]["s1"].update({"c": {}}),
         "'transitions.s1' names unknown action 'c'"),
        (lambda d: d["transitions"]["s1"].update({"a": 1.0}),
         "'transitions.s1.a' must be an object"),
        (lambda d: d["transitions"]["s1"]["a"].update({"s3": 0.0}),
         "'transitions.s1.a' names unknown next state 's3'"),
        (lambda d: d["transitions"]["s1"]["a"].update({"s2": "0.3"}),
         "'transitions.s1.a.s2' must be a finite number, got '0.3'"),
        (lambda d: d["transitions"]["s1"]["a"].update({"s2": None}),
         "'transitions.s1.a.s2' must be a finite number, got None"),
        (lambda d: d["transitions"]["s1"]["a"].update({"s2": True}),
         "'transitions.s1.a.s2' must be a finite number, got True"),
        (lambda d: d["transitions"]["s1"]["a"].update({"s2": float("nan")}),
         "'transitions.s1.a.s2' must be a finite number, got nan"),
        (lambda d: d["transitions"]["s1"]["a"].update({"s2": -10**400}),
         "'transitions.s1.a.s2' must be a finite number, got "
         "-10000000000000000...0000000000000000000"),
        (lambda d: d["rewards"]["s2"].update({"a": float("inf")}),
         "'rewards.s2.a' must be a finite number, got inf"),
        (lambda d: d["rewards"]["s1"].update({"b": 10**400}),
         "'rewards.s1.b' must be a finite number, got 100000000000000000...0000000000000000000"),
    ])
    def test_malformed_entry_named(self, tmp_path, edit, message):
        path = tmp_path / "inst.json"
        model.save(two_state_instance(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(model.InstanceFormatError) as err:
            model.load(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("old, new, message", [
        ('"name": ', '"name": "x", "name": ', "top level names key 'name' twice"),
        ('"actions": {', '"actions": {"s1": ["a"], ', "'actions' names state 's1' twice"),
        ('"transitions": {', '"transitions": {"s2": {}, ', "'transitions' names state 's2' twice"),
        ('{"s1": {"a": {', '{"s1": {"b": {}, "a": {', "'transitions.s1' names action 'b' twice"),
        ('"s1": 0.7, ', '"s1": 0.7, "s1": 0.0, ', "'transitions.s1.a' names next state 's1' twice"),
        ('"rewards": {"s1": {', '"rewards": {"s1": {"a": 7.0, ',
         "'rewards.s1' names action 'a' twice"),
    ], ids=["top", "actions", "transitions", "transitions.s1", "transitions.s1.a", "rewards.s1"])
    def test_doubled_key_named(self, tmp_path, old, new, message):
        # JSON itself keeps the last of two equal keys; a file must not rely on that
        path = tmp_path / "inst.json"
        model.save(two_state_instance(), path)
        text = json.dumps(json.loads(path.read_text()))
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(model.InstanceFormatError) as err:
            model.load(path)
        assert str(err.value) == message

    def test_doubled_next_state_reward_named(self, tmp_path):
        path = tmp_path / "inst.json"
        model.save(model.builtin("endowment"), path)
        text = json.dumps(json.loads(path.read_text()))
        old = '"rewards3": {"(0,0.2)": {"0.5": {'
        assert text.count(old) == 1
        path.write_text(text.replace(old, old + '"(0,0.2)": 0.0, '))
        with pytest.raises(model.InstanceFormatError) as err:
            model.load(path)
        assert str(err.value) == "'rewards3.(0,0.2).0.5' names next state '(0,0.2)' twice"


class TestBuiltins:
    def test_example2_reward_entry(self):
        inst = model.builtin("example2")
        assert inst.rewards[inst.pair_index("2", "1")] == 94.0

    def test_example2_kernel_entry(self):
        inst = model.builtin("example2")
        k = inst.pair_index("1", "1")
        assert inst.kernel[k, 0] == pytest.approx(0.4688, abs=1e-12)

    def test_example1_deterministic_moves(self):
        inst = model.builtin("example1")
        assert inst.kernel[inst.pair_index("s1", "a11"), 0] == 1.0
        assert inst.kernel[inst.pair_index("s1", "a12"), 1] == 1.0
        assert inst.rewards[inst.pair_index("s2", "a21")] == -2.0

    def test_endowment_reward_formula(self):
        # 1000 * (0.2 * 0.02 + 0.8 * 0.1 - 0) when the bull regime is reached
        # with the full stock fraction already held.
        inst = model.builtin("endowment")
        k = inst.pair_index("(1,0.8)", "0.8")
        j = inst.states.index("(1,0.8)")
        assert inst.rewards3[k, j] == 84.0
        j0 = inst.states.index("(0,0.8)")
        assert inst.rewards3[k, j0] == -36.0

    def test_endowment_environment_kernel(self):
        inst = model.builtin("endowment")
        k = inst.pair_index("(0,0.2)", "0.5")
        assert inst.kernel[k, inst.states.index("(0,0.5)")] == 0.8
        assert inst.kernel[k, inst.states.index("(1,0.5)")] == 0.2
        assert inst.kernel[k].sum() == pytest.approx(1.0, abs=1e-15)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            model.builtin("nope")


class TestRandomInstance:
    def test_deterministic(self):
        a = model.random_instance(7, 3, 2, (0.0, 100.0))
        b = model.random_instance(7, 3, 2, (0.0, 100.0))
        assert a == b

    def test_validates(self):
        for seed in range(5):
            inst = model.random_instance(seed, 4, 3)
            assert model.validate(inst).ok

    def test_unichain_aperiodic_by_construction(self):
        inst = model.random_instance(3, 3, 2)
        report = chains.check_assumption(inst)
        assert report.ok

    def test_rewards_rounded(self):
        inst = model.random_instance(0, 3, 2)
        assert np.allclose(inst.rewards, np.round(inst.rewards, 4))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            model.random_instance(0, 0, 2)
        with pytest.raises(ValueError):
            model.random_instance(0, 2, 1, (0.0, np.inf))

    def test_reversed_reward_range(self):
        with pytest.raises(ValueError, match=r"lo <= hi, got \(5, 1\)"):
            model.random_instance(0, 2, 1, (5.0, 1.0))
        # an empty range is a constant reward
        assert np.all(model.random_instance(0, 2, 1, (3.0, 3.0)).rewards == 3.0)


class TestExtractPolicy:
    def test_ratio(self):
        inst = two_state_instance()
        x = np.array([0.3, 0.1, 0.6])
        pol = model.extract_policy(inst, x)
        assert pol.probs[0] == pytest.approx(0.75)
        assert pol.probs[1] == pytest.approx(0.25)
        assert pol.probs[2] == 1.0

    def test_zero_marginal_first_action(self):
        inst = two_state_instance()
        x = np.array([0.0, 0.0, 1.0])
        pol = model.extract_policy(inst, x)
        assert pol.probs[0] == 1.0 and pol.probs[1] == 0.0

    def test_scale_invariance(self):
        inst = two_state_instance()
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.random(3)
            c = float(rng.uniform(0.1, 50.0))
            a = model.extract_policy(inst, x).probs
            b = model.extract_policy(inst, c * x).probs
            assert np.allclose(a, b, atol=1e-14)

    def test_rows_normalized(self):
        inst = two_state_instance()
        rng = np.random.default_rng(1)
        for _ in range(25):
            pol = model.extract_policy(inst, rng.random(3))
            assert model.policy_residual(inst, pol) < 1e-9


class TestPolicyChecks:
    @pytest.mark.parametrize("mapping, match", [
        ([["s1", "a"]], "'policy' must be an object"),
        ({"s1": ["a"]}, "'policy.s1' must be an object"),
        ({"s1": {"a": None}}, "finite number, got None"),
        ({"s1": {"a": float("nan")}}, "finite number, got nan"),
        ({"s1": {"a": float("inf")}}, "finite number, got inf"),
        ({"s1": {"a": float("-inf")}}, "finite number, got -inf"),
        ({"s1": {"a": "1"}}, "finite number, got '1'"),
        ({"s1": {"a": True}}, "finite number, got True"),
        ({"s1": {"a": False}}, "finite number, got False"),
        ({"s3": {"a": 1.0}}, "'policy' names unknown state 's3'"),
        ({"s1": {"c": 1.0}}, "'policy.s1' names unknown action 'c'"),
        ({"s1": {"a": 10**400}}, "'policy.s1.a' must be a finite number, got 1000"),
    ])
    def test_malformed_rows_refused(self, mapping, match):
        with pytest.raises(ValueError, match=match):
            model.StationaryPolicy.from_mapping(two_state_instance(), mapping)

    def test_numpy_scalars_accepted(self):
        # library callers may pass numpy scalars; they read as the floats they hold
        mapping = {"s1": {"a": np.float64(0.25), "b": np.float32(0.75)}, "s2": {"a": np.int64(1)}}
        pol = model.StationaryPolicy.from_mapping(two_state_instance(), mapping)
        assert np.array_equal(pol.probs, [0.25, 0.75, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_a_violation(self, bad):
        inst = two_state_instance()
        probs = model.extract_policy(inst, np.ones(inst.n_pairs)).probs.copy()
        probs[0] = bad
        assert model.policy_residual(inst, probs) == np.inf


class TestRandomizationCount:
    def test_deterministic_policies_zero(self):
        inst = two_state_instance()
        for dp in model.deterministic_policies(inst):
            assert model.n_randomizations(inst, dp.to_stationary(inst)) == 0

    def test_two_states_mixing(self):
        kernel = np.array([[0.5, 0.5]] * 4)
        inst = model.MdpInstance("mix", ("s1", "s2"), (("a", "b"), ("a", "b")),
                                 kernel, rewards=np.zeros(4))
        pol = model.StationaryPolicy(np.array([0.5, 0.5, 0.3, 0.7]))
        assert model.n_randomizations(inst, pol) == 2

    def test_tolerance_cuts_noise(self):
        inst = two_state_instance()
        pol = model.StationaryPolicy(np.array([1.0 - 1e-9, 1e-9, 1.0]))
        assert model.n_randomizations(inst, pol) == 0

    def test_state_without_played_action_counts_zero(self):
        # no action above tol in a state randomizes nothing there
        kernel = np.array([[0.5, 0.5]] * 4)
        inst = model.MdpInstance("mix", ("s1", "s2"), (("a", "b"), ("a", "b")),
                                 kernel, rewards=np.zeros(4))
        pol = model.StationaryPolicy(np.array([0.5, 0.5, 0.5, 0.5]))
        assert model.n_randomizations(inst, pol, tol=0.6) == 0
        pol = model.StationaryPolicy(np.array([0.2, 0.8, 0.5, 0.5]))
        assert model.n_randomizations(inst, pol, tol=0.6) == 0
        pol = model.StationaryPolicy(np.array([0.45, 0.55, 0.1, 0.9]))
        assert model.n_randomizations(inst, pol, tol=0.4) == 1

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_refuses_bad_tol(self, tol):
        inst = two_state_instance()
        pol = model.DeterministicPolicy((0, 0)).to_stationary(inst)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            model.n_randomizations(inst, pol, tol=tol)

    def test_zero_iff_deterministic(self):
        inst = two_state_instance()
        rng = np.random.default_rng(2)
        for _ in range(30):
            pol = model.extract_policy(inst, rng.random(3) + 0.01)
            n = model.n_randomizations(inst, pol)
            point_mass = all(
                (pol.probs[inst.offsets[i]:inst.offsets[i + 1]] > 1e-6).sum() == 1
                for i in range(inst.n_states))
            assert (n == 0) == point_mass


class TestDeterministicEnumeration:
    def test_lexicographic_order(self):
        inst = two_state_instance()
        order = [dp.choices for dp in model.deterministic_policies(inst)]
        assert order == [(0, 0), (1, 0)]

    def test_cap(self):
        inst = model.random_instance(0, 10, 4)  # 4**10 policies, above model.POLICY_CAP
        with pytest.raises(model.CapExceededError):
            model.deterministic_policies(inst)

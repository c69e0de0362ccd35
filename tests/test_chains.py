import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import oracles
from cvarmdp import chains, evaluate, model, risk, solver
from cvarmdp.model import DeterministicPolicy, StationaryPolicy


def cycle_instance():
    """Two states, one action each, deterministic 2-cycle."""
    kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
    return model.MdpInstance("cycle", ("s1", "s2"), (("a",), ("a",)),
                             kernel, rewards=np.array([1.0, 3.0]))


def transient_tail_instance():
    """Third state falls into the {s1, s2} cycle under either of its actions."""
    kernel = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
    ])
    return model.MdpInstance("tail", ("s1", "s2", "s3"),
                             (("a",), ("a",), ("a", "b")),
                             kernel, rewards=np.array([1.0, 2.0, 0.0, 0.0]))


class TestTransitionMatrix:
    def test_example1_stay_policy(self):
        inst = model.builtin("example1")
        d = DeterministicPolicy((0, 1)).to_stationary(inst)  # a11, a22
        M = chains.transition_matrix(inst, d)
        assert np.array_equal(M, np.eye(2))

    def test_uniform_mixing_averages_rows(self):
        inst = model.builtin("example2")
        probs = np.zeros(9)
        probs[inst.pair_index("1", "1")] = 0.5
        probs[inst.pair_index("1", "2")] = 0.5
        probs[inst.pair_index("2", "1")] = 1.0
        probs[inst.pair_index("3", "1")] = 1.0
        M = chains.transition_matrix(inst, StationaryPolicy(probs))
        expected = 0.5 * (inst.kernel[inst.pair_index("1", "1")]
                          + inst.kernel[inst.pair_index("1", "2")])
        assert np.allclose(M[0], expected, atol=1e-15)

    def test_example2_pure_action_row(self):
        inst = model.builtin("example2")
        d = DeterministicPolicy((2, 0, 0)).to_stationary(inst)
        M = chains.transition_matrix(inst, d)
        assert np.allclose(M[0], inst.kernel[inst.pair_index("1", "3")], atol=0)

    def test_rows_stochastic(self):
        inst = model.random_instance(0, 4, 3)
        d = model.extract_policy(inst, np.random.default_rng(0).random(12))
        M = chains.transition_matrix(inst, d)
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-9)


class TestClassifyChain:
    def test_example1_multichain(self):
        inst = model.builtin("example1")
        cls = chains.classify_chain(inst, DeterministicPolicy((0, 1)).to_stationary(inst))
        assert cls.recurrent_classes == ((0,), (1,))
        assert not cls.unichain

    def test_positive_kernel_irreducible_aperiodic(self):
        inst = model.random_instance(1, 5, 2)
        d = DeterministicPolicy((0,) * 5).to_stationary(inst)
        cls = chains.classify_chain(inst, d)
        assert cls.recurrent_classes == (tuple(range(5)),)
        assert cls.aperiodic == (True,)

    def test_two_cycle_periodic(self):
        inst = cycle_instance()
        cls = chains.classify_chain(inst, DeterministicPolicy((0, 0)).to_stationary(inst))
        assert cls.unichain
        assert cls.aperiodic == (False,)
        assert cls.unichain_aperiodic is False

    def test_transient_states_identified(self):
        inst = transient_tail_instance()
        cls = chains.classify_chain(inst, DeterministicPolicy((0, 0, 0)).to_stationary(inst))
        assert cls.transient_states == (2,)
        assert cls.recurrent_classes == ((0, 1),)


class TestStationaryDistribution:
    def test_symmetric_cycle(self):
        inst = cycle_instance()
        occ = chains.stationary_distribution(inst, DeterministicPolicy((0, 0)).to_stationary(inst))
        assert np.allclose(occ, [0.5, 0.5], atol=1e-14)

    def test_residual_small_on_random(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            inst = model.random_instance(seed, 4, 2)
            pol = model.extract_policy(inst, rng.random(inst.n_pairs) + 0.05)
            occ = chains.stationary_distribution(inst, pol)
            assert model.polytope_residual(inst, occ) < 1e-10

    def test_transient_states_get_zero(self):
        inst = transient_tail_instance()
        occ = chains.stationary_distribution(inst, DeterministicPolicy((0, 0, 1)).to_stationary(inst))
        assert occ[2] == 0.0 and occ[3] == 0.0
        assert occ[:2].sum() == pytest.approx(1.0)

    def test_multichain_raises(self):
        inst = model.builtin("example1")
        with pytest.raises(chains.ChainStructureError):
            chains.stationary_distribution(
                inst, DeterministicPolicy((0, 1)).to_stationary(inst))

    def test_optimal_law_reproduces_published_cvar(self):
        inst = model.builtin("example2")
        sol = solver.solve_cvar(inst, risk.RiskParams(0.7))
        occ = chains.stationary_distribution(inst, sol.policy)
        law = risk.reward_distribution(inst, occ)
        assert risk.cvar_right(law, 0.7) == pytest.approx(93.24, abs=0.01)


class TestTStepDistribution:
    def test_initial_point_mass(self):
        inst = model.builtin("example2")
        d = DeterministicPolicy((1, 0, 0)).to_stationary(inst)
        pk = evaluate.t_step_distribution(inst, d, "1", 0)
        assert pk[inst.pair_index("1", "2")] == 1.0
        assert pk.sum() == 1.0

    def test_example1_schedule_at_t1(self):
        inst = model.builtin("example1")
        pol = evaluate.example1_policy(10)
        pk = evaluate.t_step_distribution(inst, pol, "s1", 1)
        assert pk[inst.pair_index("s2", "a22")] == 1.0

    def test_converges_to_stationary(self):
        inst = model.random_instance(5, 4, 2)
        pol = model.extract_policy(inst, np.random.default_rng(3).random(8) + 0.1)
        occ = chains.stationary_distribution(inst, pol)
        pk = evaluate.t_step_distribution(inst, pol, "s1", 1000)
        assert np.abs(pk - occ).sum() < 1e-6

    def test_horizon_guard(self):
        inst = model.builtin("example1")
        pol = evaluate.example1_policy(5)
        with pytest.raises(ValueError, match="horizon"):
            evaluate.t_step_distribution(inst, pol, "s1", 10)

    def test_distance_to_stationary_nonincreasing(self):
        inst = model.random_instance(8, 4, 2)
        pol = model.DeterministicPolicy((0, 1, 0, 1)).to_stationary(inst)
        occ = chains.stationary_distribution(inst, pol)
        tv = [np.abs(evaluate.t_step_distribution(inst, pol, "s2", t) - occ).sum()
              for t in range(40)]
        assert all(b <= a + 1e-12 for a, b in zip(tv, tv[1:]))
        assert tv[-1] < 1e-10


class TestCheckAssumption:
    def test_example2_all_pass(self):
        report = chains.check_assumption(model.builtin("example2"))
        assert report.total == 27
        assert report.ok

    def test_example1_violators(self):
        report = chains.check_assumption(model.builtin("example1"))
        assert not report.ok
        structures = list(report.classifications())
        assert len(structures) == report.violators.size
        assert any(not cls.unichain for cls in structures)

    def test_random_instances_clean(self):
        report = chains.check_assumption(model.random_instance(9, 3, 3))
        assert report.ok and report.total == 27

    def test_cap(self):
        with pytest.raises(model.CapExceededError):
            # 4**10 policies, above model.POLICY_CAP
            chains.check_assumption(model.random_instance(0, 10, 4))


class TestPolytopeVertices:
    def test_example2_at_most_27(self):
        xs, _ = oracles.polytope_vertices(model.builtin("example2"))
        assert 1 <= len(xs) <= 27

    def test_single_state_two_actions(self):
        inst = model.MdpInstance("one", ("s",), (("a", "b"),),
                                 np.array([[1.0], [1.0]]), rewards=np.array([1.0, 2.0]))
        xs, _ = oracles.polytope_vertices(inst)
        assert len(xs) == 2
        assert sorted(tuple(v) for v in xs) == [(0.0, 1.0), (1.0, 0.0)]

    def test_transient_choice_deduplicated(self):
        inst = transient_tail_instance()
        xs, _ = oracles.polytope_vertices(inst)
        # both actions at the transient third state induce the same vertex
        assert len(xs) == 1

    def test_vertices_satisfy_polytope(self):
        inst = model.random_instance(4, 3, 2)
        xs, _ = oracles.polytope_vertices(inst)
        for x in xs:
            assert model.polytope_residual(inst, x) < 1e-10

    def test_multichain_policies_contribute_class_vertices(self):
        inst = model.builtin("example1")
        xs, _ = oracles.polytope_vertices(inst)
        # the two absorbing states plus the period-2 cycle
        as_sets = {tuple(np.round(v, 12)) for v in xs}
        assert as_sets == {(1.0, 0.0, 0.0, 0.0),
                           (0.0, 0.0, 0.0, 1.0),
                           (0.0, 0.5, 0.5, 0.0)}


# -- the per-policy reference -------------------------------------------------
#
# One chain at a time, independent of chains.py's batched classifier and
# solve: strong components from csgraph with a Python edge loop for the
# closed ones, each class's period from a Python BFS, and one
# class-restricted stationary system per class.


def ref_period(adj, members):
    """Period of an irreducible class: gcd of level differences over edges."""
    members = list(members)
    pos = {s: i for i, s in enumerate(members)}
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                v = int(v)
                if v in pos and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in np.flatnonzero(adj[u]):
            v = int(v)
            if v in pos:
                g = gcd(g, level[u] + 1 - level[v])
    return abs(g) if g != 0 else 1


def ref_classify(instance, policy):
    """Recurrent classes and per-class aperiodicity of the chain under d."""
    adj = chains.transition_matrix(instance, policy) > chains.EDGE_TOL
    n, labels = connected_components(csr_matrix(adj), connection="strong")
    outgoing = np.zeros(n, dtype=bool)
    rows, cols = np.nonzero(adj)
    for u, v in zip(rows, cols):
        if labels[u] != labels[v]:
            outgoing[labels[u]] = True
    classes = []
    transient = []
    for comp in range(n):
        members = tuple(int(s) for s in np.flatnonzero(labels == comp))
        if outgoing[comp]:
            transient.extend(members)
        else:
            classes.append(members)
    classes.sort(key=lambda c: c[0])
    aperiodic = tuple(ref_period(adj, cls) == 1 for cls in classes)
    return chains.ChainClassification(tuple(classes), tuple(sorted(transient)), aperiodic)


def ref_class_occupation(instance, policy, members):
    """Occupation measure of one recurrent class under a stationary policy.

    Solves the stationarity system restricted to the class, with the last
    balance row replaced by normalization, then spreads each state's mass
    over its action probabilities.
    """
    probs = model.as_pair_array(policy)
    members = list(members)
    M = chains.transition_matrix(instance, policy)[np.ix_(members, members)]
    n = len(members)
    A = (np.eye(n) - M).T
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi[np.abs(pi) < 1e-15] = 0.0
    x = np.zeros(instance.n_pairs)
    for local, s in enumerate(members):
        lo, hi = instance.offsets[s], instance.offsets[s + 1]
        x[lo:hi] = pi[local] * probs[lo:hi]
    assert model.polytope_residual(instance, x) <= chains.STATIONARY_RESIDUAL_TOL
    return x


# -- the deterministic sweep against the per-policy loops ---------------------
#
# The loops below run the reference on every deterministic policy: one
# ref_classify and one ref_class_occupation per recurrent class.


def loop_classes(instance):
    """(policy, classification, class occupation rows) per policy."""
    out = []
    for dp in model.deterministic_policies(instance):
        pol = dp.to_stationary(instance)
        cls = ref_classify(instance, pol)
        xs = [ref_class_occupation(instance, pol, m) for m in cls.recurrent_classes]
        out.append((dp, cls, xs))
    return out


def loop_check_assumption(instance):
    entries = loop_classes(instance)
    return len(entries), [(dp, cls) for dp, cls, _ in entries if not cls.unichain_aperiodic]


def loop_enumerate(instance, params):
    rows, best_idx, best_val = [], -1, -np.inf
    for idx, (dp, _, xs) in enumerate(loop_classes(instance)):
        mean = cvar = combined = -np.inf
        for x in xs:
            law = risk.reward_distribution(instance, x)
            c, m = risk.cvar_right(law, params.alpha), law.mean()
            if c + params.beta * m > combined:
                mean, cvar, combined = m, c, c + params.beta * m
        rows.append((dp, mean, cvar, combined))
        if combined > best_val:
            best_val, best_idx = combined, idx
    return rows, best_idx


def assert_table_matches_loop(instance, params):
    """`enumerate_deterministic`'s arrays against `loop_enumerate`: entry i
    is the i-th policy of `deterministic_policies`, whose actions
    `model.policy_actions` gives back from i."""
    table = solver.enumerate_deterministic(instance, params)
    rows, best_idx = loop_enumerate(instance, params)
    assert table.best_index == best_idx
    decoded = [DeterministicPolicy(model.policy_actions(instance, i)) for i in range(len(rows))]
    assert decoded == [dp for dp, *_ in rows]
    got = np.stack([table.mean, table.cvar, table.combined], axis=1)
    np.testing.assert_allclose(got, np.array([v for _, *v in rows]), rtol=0, atol=1e-12)


def loop_vertices(instance):
    rows, gens = [], []
    for dp, _, xs in loop_classes(instance):
        for x in xs:
            if not any(np.max(np.abs(seen - x)) < oracles.VERTEX_DEDUP_TOL for seen in rows):
                rows.append(x)
                gens.append(dp)
    return np.stack(rows), tuple(gens)


def sweep_classes(instance):
    """The sweep's (policy, classification, class occupation rows) per
    policy, decoded from each block's arrays."""
    out = []
    for block in chains._deterministic_sweep(instance):
        owner, xs = block.occupations
        for i in range(len(block)):
            lo, hi = block.bounds[i], block.bounds[i + 1]
            cls = chains._classification(block.members[lo:hi], block.aperiodic[lo:hi])
            out.append((DeterministicPolicy(block.choices[i].tolist()), cls,
                        list(xs[owner == i])))
    return out


def decoded_check(instance, report):
    """`check_assumption`'s report as `loop_check_assumption` gives it: the
    total and a (policy, classification) pair per violator, the policy
    decoded from its number by `model.policy_actions`."""
    policies = [DeterministicPolicy(model.policy_actions(instance, i))
                for i in report.violators.tolist()]
    return report.total, list(zip(policies, report.classifications()))


def assert_sweep_matches_loop(instance):
    """Compare classes, occupations and violators; return the structures seen."""
    loop, sweep = loop_classes(instance), sweep_classes(instance)
    assert [dp for dp, _, _ in sweep] == [dp for dp, _, _ in loop]
    seen = set()
    for (_, cls_s, xs_s), (_, cls_l, xs_l) in zip(sweep, loop):
        assert cls_s == cls_l
        assert len(xs_s) == len(xs_l)
        for a, b in zip(xs_s, xs_l):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        seen |= {"multichain"} if not cls_l.unichain else set()
        seen |= {"periodic"} if not all(cls_l.aperiodic) else set()
        seen |= {"transient"} if cls_l.transient_states else set()
    report = chains.check_assumption(instance)
    assert decoded_check(instance, report) == loop_check_assumption(instance)
    return seen


def sparse_instance(rng, n_states, counts, rewards3=False):
    """Random instance whose kernel rows have 1..n_states successors, most
    often one, so multichain, periodic and transient structure is common."""
    n_pairs = int(sum(counts))
    kernel = np.zeros((n_pairs, n_states))
    for k in range(n_pairs):
        size = min(n_states, int(rng.geometric(0.6)))
        support = rng.choice(n_states, size=size, replace=False)
        weights = rng.integers(1, 6, size=size).astype(float)
        kernel[k, support] = weights / weights.sum()
    states = tuple(f"s{i + 1}" for i in range(n_states))
    actions = tuple(tuple(f"a{j + 1}" for j in range(c)) for c in counts)
    if rewards3:
        r3 = rng.integers(-5, 6, size=(n_pairs, n_states)).astype(float)
        return model.MdpInstance("sparse3", states, actions, kernel, rewards3=r3)
    r = rng.integers(-5, 6, size=n_pairs).astype(float)
    return model.MdpInstance("sparse", states, actions, kernel, rewards=r)


@st.composite
def sparse_kernels(draw, rewards3=False):
    n_states = draw(st.integers(min_value=1, max_value=4))
    counts = draw(st.lists(st.integers(min_value=1, max_value=3),
                           min_size=n_states, max_size=n_states))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return sparse_instance(np.random.default_rng(seed), n_states, counts, rewards3)


def seeded_instances():
    """Builtins plus 120 seeded dense and sparse instances, both reward kinds."""
    out = [model.builtin(n) for n in ("example1", "example2", "endowment")]
    out += [transient_tail_instance(), cycle_instance()]
    for seed in range(60):
        out.append(model.random_instance(seed, 2 + seed % 4, 1 + seed % 3))
        rng = np.random.default_rng(seed)
        n_states = 2 + seed % 4
        counts = rng.integers(1, 4, size=n_states)
        out.append(sparse_instance(rng, n_states, counts, rewards3=seed % 3 == 0))
    return out


@st.composite
def randomized_policies(draw):
    """A sparse instance of either reward kind and a stationary policy on
    random supports: each state mixes a random nonempty subset of its
    actions, the others carry zero mass."""
    instance = draw(sparse_kernels(rewards3=draw(st.booleans())))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    probs = np.zeros(instance.n_pairs)
    for s in range(instance.n_states):
        lo, hi = instance.offsets[s], instance.offsets[s + 1]
        support = rng.random(hi - lo) < 0.5
        support[rng.integers(hi - lo)] = True
        weights = np.where(support, rng.integers(1, 6, size=hi - lo), 0).astype(float)
        probs[lo:hi] = weights / weights.sum()
    return instance, StationaryPolicy(probs)


class TestRandomizedPolicies:
    @given(randomized_policies())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, drawn):
        instance, pol = drawn
        ref = ref_classify(instance, pol)
        assert chains.classify_chain(instance, pol) == ref
        if len(ref.recurrent_classes) > 1:
            with pytest.raises(chains.ChainStructureError):
                chains.stationary_distribution(instance, pol)
        else:
            np.testing.assert_allclose(
                chains.stationary_distribution(instance, pol),
                ref_class_occupation(instance, pol, ref.recurrent_classes[0]),
                rtol=0, atol=1e-12)


class TestDeterministicSweep:
    @given(sparse_kernels())
    @settings(max_examples=120, deadline=None)
    def test_matches_classify_chain_and_class_occupation(self, instance):
        assert_sweep_matches_loop(instance)

    def test_stays_batched(self, monkeypatch):
        def per_policy(*args):
            raise AssertionError("the sweep classified or solved one policy at a time")

        inst = sparse_instance(np.random.default_rng(0), 4, [3, 1, 2, 1])
        expected = loop_check_assumption(inst)
        assert any(not cls.unichain for _, cls in expected[1])
        monkeypatch.setattr(chains, "classify_chain", per_policy)
        monkeypatch.setattr(chains, "_class_occupation", per_policy)
        with monkeypatch.context() as m:
            # the report holds arrays: no per-policy object is built
            m.setattr(model, "DeterministicPolicy", per_policy)
            m.setattr(chains, "ChainClassification", per_policy)
            report = chains.check_assumption(inst)
        assert decoded_check(inst, report) == expected
        oracles.polytope_vertices(inst)
        solver.enumerate_deterministic(inst, risk.RiskParams(0.5))

    def test_covers_every_structure(self):
        seen = set()
        for inst in (model.builtin("example1"), model.builtin("endowment"),
                     cycle_instance(), transient_tail_instance()):
            seen |= assert_sweep_matches_loop(inst)
        rng = np.random.default_rng(0)
        inst = sparse_instance(rng, 4, [3, 1, 2, 1])
        seen |= assert_sweep_matches_loop(inst)
        assert seen == {"multichain", "periodic", "transient"}

    def test_outputs_match_loops_on_seeded_instances(self):
        params = risk.RiskParams(0.7, 0.5)
        for inst in seeded_instances():
            assert_table_matches_loop(inst, params)

            report = chains.check_assumption(inst)
            assert decoded_check(inst, report) == loop_check_assumption(inst)

            got, policies = oracles.polytope_vertices(inst)
            xs, gens = loop_vertices(inst)
            assert policies == gens
            np.testing.assert_allclose(got, xs, rtol=0, atol=1e-12)

    def test_cap_raises_before_allocating(self):
        inst = model.random_instance(0, 10, 4)  # 4**10 policies, above model.POLICY_CAP
        tracemalloc.start()
        try:
            with pytest.raises(model.CapExceededError):
                chains._deterministic_sweep(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block of this instance would hold 1310 policies, 102 KiB of
        # choices alone
        assert peak < 32 * 1024

    def test_several_blocks_match_loop(self):
        inst = model.random_instance(3, 12, 2)
        blocks = list(chains._deterministic_sweep(inst))
        assert len(blocks) > 1 and sum(len(b) for b in blocks) == 2**12
        assert_table_matches_loop(inst, risk.RiskParams(0.8))

    def test_block_boundaries_inside_multichain_runs(self, monkeypatch):
        inst = sparse_instance(np.random.default_rng(5), 4, [3, 2, 2, 1])
        expected = sweep_classes(inst)
        params = risk.RiskParams(0.6, 0.3)
        table = solver.enumerate_deterministic(inst, params)
        # five policies per block: 12 policies give blocks of 5, 5 and 2
        monkeypatch.setattr(chains, "SWEEP_ENTRIES", 5 * inst.n_states * inst.n_pairs)
        assert [len(b) for b in chains._deterministic_sweep(inst)] == [5, 5, 2]
        small = sweep_classes(inst)
        assert [(dp, cls) for dp, cls, _ in small] == [(dp, cls) for dp, cls, _ in expected]
        for (_, _, a), (_, _, b) in zip(small, expected):
            np.testing.assert_allclose(np.array(a), np.array(b), rtol=0, atol=0)
        small_table = solver.enumerate_deterministic(inst, params)
        assert small_table.best_index == table.best_index
        assert small_table.combined.size == table.combined.size == 12
        np.testing.assert_allclose(small_table.combined, table.combined, rtol=0, atol=1e-12)
        assert_sweep_matches_loop(inst)


class TestVertexGenerators:
    def test_example1_first_generators(self):
        inst = model.builtin("example1")
        got, policies = oracles.polytope_vertices(inst)
        xs, gens = loop_vertices(inst)
        assert policies == gens == (DeterministicPolicy((0, 0)),
                                          DeterministicPolicy((0, 1)),
                                          DeterministicPolicy((1, 0)))
        np.testing.assert_allclose(got, xs, rtol=0, atol=1e-12)

    def test_transient_tail_first_generator(self):
        inst = transient_tail_instance()
        got, policies = oracles.polytope_vertices(inst)
        xs, gens = loop_vertices(inst)
        assert policies == gens == (DeterministicPolicy((0, 0, 0)),)
        np.testing.assert_allclose(got, xs, rtol=0, atol=1e-12)

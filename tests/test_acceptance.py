"""Acceptance criteria, one test per criterion, each printing a pass/fail
line. Criteria 5-9 and 11 share one 100-instance sweep (at most 5 states
and 3 actions per state) computed once per session.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from cvarmdp import cli, evaluate, model, risk, solver

ALPHA_SWEEP = 0.7


def report(num, name, ok, detail):
    print(f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def run_cli_json(capsys, *argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0, f"CLI exited {code}"
    return json.loads(out)


@dataclass
class SweepEntry:
    seed: int
    solution: object
    oracle: float
    alpha_zero: object
    lemma2: list


@pytest.fixture(scope="module")
def sweep():
    entries = []
    for seed in range(100):
        n_states = 2 + seed % 4
        n_actions = 1 + seed % 3
        inst = model.random_instance(seed, n_states, n_actions)
        sol = solver.solve_cvar(inst, risk.RiskParams(ALPHA_SWEEP), mode="dual-primal")
        oracle = solver.endpoint_scan_oracle(inst, risk.RiskParams(ALPHA_SWEEP)).value
        rec = oracles.alpha_zero_degeneration(inst)
        gaps = [oracles.lemma2_gap(inst, sol.policy, inst.states[0], t, ALPHA_SWEEP)
                for t in (1, 5, 25, 125)]
        entries.append(SweepEntry(seed=seed, solution=sol, oracle=oracle, alpha_zero=rec,
                                  lemma2=gaps))
    return entries


def test_c01_example2_optimum(capsys):
    doc = run_cli_json(capsys, "solve", "--builtin", "example2", "--alpha", "0.7")
    with capsys.disabled():
        ok = (abs(doc["value"] - 93.24) <= 0.01
              and abs(doc["policy"]["1"]["3"] - 1.0) <= 1e-6
              and abs(doc["policy"]["2"]["1"] - 1.0) <= 1e-6
              and abs(doc["policy"]["3"]["1"] - 0.0255) <= 0.001
              and abs(doc["policy"]["3"]["3"] - 0.9745) <= 0.001
              and doc["n_randomizations"] == 1)
        report(1, "example2 optimum", ok,
               f"v*={doc['value']:.4f}, d(1|3)={doc['policy']['3']['1']:.4f}, "
               f"d(3|3)={doc['policy']['3']['3']:.4f}, n_rand={doc['n_randomizations']}")
    assert abs(doc["value"] - 93.24) <= 0.01
    assert doc["policy"]["1"]["3"] == pytest.approx(1.0, abs=1e-6)
    assert doc["policy"]["2"]["1"] == pytest.approx(1.0, abs=1e-6)
    assert doc["policy"]["3"]["1"] == pytest.approx(0.0255, abs=0.001)
    assert doc["policy"]["3"]["3"] == pytest.approx(0.9745, abs=0.001)
    assert doc["n_randomizations"] == 1


def test_c02_deterministic_gap(capsys):
    inst = model.builtin("example2")
    table = solver.enumerate_deterministic(inst, risk.RiskParams(0.7))
    sol = solver.solve_cvar(inst, risk.RiskParams(0.7))
    best = float(table.combined[table.best_index])
    with capsys.disabled():
        ok = abs(best - 92.6675) <= 1e-4 and best < sol.v_star
        report(2, "deterministic gap", ok,
               f"best deterministic {best:.6f} vs optimum {sol.v_star:.6f}")
    assert best == pytest.approx(92.6675, abs=1e-4)
    assert best < sol.v_star


def test_c03_endowment_mean_cvar(capsys):
    doc = run_cli_json(capsys, "solve", "--builtin", "endowment",
                       "--alpha", "0.9", "--beta", "0.5")
    table2 = {
        "(0,0.2)": "0.2", "(0,0.5)": "0.5", "(0,0.8)": "0.2",
        "(1,0.2)": "0.8", "(1,0.5)": "0.5", "(1,0.8)": "0.8",
    }
    rows_match = all(
        abs(doc["policy"][s][a] - (1.0 if a == table2[s] else 0.0)) <= 1e-9
        for s in table2 for a in ("0.2", "0.5", "0.8"))
    # The reported 96.84 is the combined optimum (its pure-tail part is 84,
    # which equals y*, plus half the mean 25.68); a tail expectation can
    # never exceed the largest reward, 84.
    with capsys.disabled():
        ok = (doc["y_star"] == 84.0 and abs(doc["value"] - 96.84) <= 0.01
              and rows_match and doc["n_randomizations"] == 0)
        report(3, "endowment mean-cvar", ok,
               f"y*={doc['y_star']}, value={doc['value']:.4f} "
               f"(= cvar {doc['cvar']:.2f} + 0.5 * mean {doc['mean']:.2f}), "
               f"policy rows match={rows_match}")
    assert doc["y_star"] == 84.0
    assert doc["value"] == pytest.approx(96.84, abs=0.01)
    assert doc["cvar"] == pytest.approx(84.0, abs=0.01)
    assert doc["mean"] == pytest.approx(25.68, abs=0.01)
    assert rows_match
    assert doc["n_randomizations"] == 0


def test_c04_example1_oscillation(capsys):
    # Every step's reward law is a point mass at +-2, so CVaR equals the
    # reward. Block j lasts 3^j steps with sign (-1)^j and ends at
    # t_j = (3^(j+1) - 1)/2 - 1, where the running average is exactly -1
    # for odd j and 1 + 2/(3^(j+1) - 1) for even j: limsup +1, liminf -1.
    T = (3**12 - 1) // 2
    inst = model.builtin("example1")
    seq = evaluate.cvar_sequence(inst, evaluate.example1_policy(T), "s1", T, 0.5)
    block_ends = evaluate.example1_block_boundaries(T) - 1
    closed_form = np.array([(1 - (-3) ** (j + 1)) / (3 ** (j + 1) - 1)
                            for j in range(len(block_ends))])
    # The trailing half lies inside the last (falling) block, so the window
    # reaches back to the last rising block end to span a full swing.
    last_rise = block_ends[-2]
    window = T - last_rise
    hi, lo = evaluate.limsup_liminf_estimate(seq, window)
    hi_expected = (3**11 + 1) / (3**11 - 1)
    step_window = seq.per_step[-window:]
    end_err = float(np.abs(seq.cesaro[block_ends] - closed_form).max())
    with capsys.disabled():
        ok = (len(block_ends) == 12 and abs(hi - hi_expected) <= 1e-12
              and abs(lo + 1.0) <= 1e-12 and end_err <= 1e-12
              and step_window.max() == 2.0 and step_window.min() == -2.0)
        report(4, "example1 oscillation", ok,
               f"cesaro over the last {window} steps (from t={T - window}) in "
               f"[{lo:.12f}, {hi:.12f}], expected [-1, {hi_expected:.12f}]; "
               f"max error at the {len(block_ends)} block ends {end_err:.1e}; "
               f"per-step values in [{step_window.min():.0f}, {step_window.max():.0f}]")
    assert len(block_ends) == 12
    assert last_rise == 88572
    assert hi == pytest.approx(hi_expected, abs=1e-12)
    assert lo == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(seq.cesaro[block_ends], closed_form, rtol=0, atol=1e-12)
    assert step_window.max() == 2.0
    assert step_window.min() == -2.0


def test_c05_minimax_equality(capsys, sweep):
    ex2 = solver.solve_cvar(model.builtin("example2"), risk.RiskParams(0.7),
                            mode="dual-primal")
    gaps = [abs(e.solution.primal_value - e.solution.v_star) for e in sweep]
    gaps.append(abs(ex2.primal_value - ex2.v_star))
    worst = max(gaps)
    with capsys.disabled():
        report(5, "minimax equality", worst <= 2e-6,
               f"max |z1* - z2*| = {worst:.3g} over {len(gaps)} instances")
    assert worst <= 2e-6


def test_c06_oracle_equivalence(capsys, sweep):
    worst = max(abs(e.solution.v_star - e.oracle) for e in sweep)
    with capsys.disabled():
        report(6, "oracle equivalence", worst <= 2e-6,
               f"max |v* - scan| = {worst:.3g} over {len(sweep)} instances")
    assert worst <= 2e-6


def test_c07_saddle_certificates(capsys, sweep):
    worst_left = max(e.solution.certificates.saddle_left_gap for e in sweep)
    worst_right = max(e.solution.certificates.saddle_right_gap for e in sweep)
    with capsys.disabled():
        report(7, "saddle certificates", max(worst_left, worst_right) <= 2e-6,
               f"max left gap {worst_left:.3g}, max right gap {worst_right:.3g}")
    assert worst_left <= 2e-6
    assert worst_right <= 2e-6


def test_c08_randomization_bound(capsys, sweep):
    worst = max(e.solution.n_rand for e in sweep)
    with capsys.disabled():
        report(8, "randomization bound", worst <= 1,
               f"max n_rand {worst} over all {len(sweep)} runs")
    assert len(sweep) == 100
    assert worst <= 1
    assert all(e.solution.n_rand >= 0 for e in sweep)


def test_c09_alpha_zero_degeneration(capsys, sweep):
    worst = max(abs(lp - best) for lp, best in (e.alpha_zero for e in sweep))
    with capsys.disabled():
        report(9, "alpha-zero degeneration", worst <= 1e-8,
               f"max |lp - best deterministic mean| = {worst:.3g}")
    assert worst <= 1e-8


def test_c10_risk_identities(capsys):
    rng = np.random.default_rng(2024)
    alphas = np.round(np.arange(0.0, 0.95, 0.1), 10)
    worst_identity = 0.0
    worst_monotone = 0.0
    worst_ru = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        values = np.round(rng.uniform(-100, 100, n), 2)
        probs = rng.dirichlet(np.ones(n))
        dist = risk.DiscreteDistribution.from_atoms(values, probs)
        mean = dist.mean()
        curve = [risk.cvar_right(dist, float(a)) for a in alphas]
        for a, c in zip(alphas, curve):
            if a > 0.0:
                left = oracles.cvar_left(dist, float(a))
                worst_identity = max(worst_identity,
                                     abs((1 - a) * c + a * left - mean))
        worst_monotone = max(worst_monotone,
                             max((x - y) for x, y in zip(curve, curve[1:])) if len(curve) > 1 else 0.0)
        a = float(rng.uniform(0.0, 0.9))
        ru_val, _ = oracles.cvar_via_ru(dist, a)
        worst_ru = max(worst_ru, abs(ru_val - risk.cvar_right(dist, a)))
    ok = worst_identity <= 1e-12 and worst_monotone <= 1e-12 and worst_ru <= 1e-10
    with capsys.disabled():
        report(10, "risk identities", ok,
               f"identity {worst_identity:.2g}, monotonicity {worst_monotone:.2g}, "
               f"ru-equivalence {worst_ru:.2g} over 1000 laws")
    assert worst_identity <= 1e-12
    assert worst_monotone <= 1e-12
    assert worst_ru <= 1e-10


def test_c11_tail_gap_bound(capsys, sweep):
    violations = 0
    worst_slack = -np.inf
    for e in sweep:
        for gap, bound in e.lemma2:
            if gap > bound + 1e-10:
                violations += 1
            worst_slack = max(worst_slack, gap - bound)
    with capsys.disabled():
        report(11, "tail gap bound", violations == 0,
               f"{violations} violations at t in (1, 5, 25, 125); "
               f"max gap-bound excess {worst_slack:.3g}")
    assert violations == 0

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_chains import sparse_instance
from test_solver import shift_dual_objective

from cvarmdp import chains, cli, lp, model, risk, solver


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestSolveCommand:
    def test_example2(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "--builtin", "example2", "--alpha", "0.7")
        assert code == 0
        assert doc["value"] == pytest.approx(93.24, abs=0.01)
        assert doc["policy"]["3"]["1"] == pytest.approx(0.0255, abs=1e-3)
        assert doc["n_randomizations"] == 1
        assert doc["certificates"]["left_gap"] <= 2e-6
        assert doc["certificates"]["oracle_gap"] <= 2e-6
        assert set(doc["certificates"]) == {"left_gap", "right_gap", "oracle_gap", "tail_level"}
        assert 70.0 < doc["certificates"]["tail_level"] < 71.0

    def test_tol_sets_randomization_threshold(self, capsys):
        # the optimum puts mass 0.0255 on a second action in state 3
        argv = ("solve", "--builtin", "example2", "--alpha", "0.7")
        assert run_json(capsys, *argv)[1]["n_randomizations"] == 1
        assert run_json(capsys, *argv, "--tol", "0.01")[1]["n_randomizations"] == 1
        assert run_json(capsys, *argv, "--tol", "0.1")[1]["n_randomizations"] == 0
        code, out, _ = run(capsys, *argv, "--tol", "0.1")
        assert code == 0
        assert "n_rand          0" in out.splitlines()

    def test_tol_above_every_weight_counts_zero(self, capsys):
        # no action carries more than mass 1, so no state plays one
        doc = run_json(capsys, "solve", "--builtin", "example2", "--alpha", "0.7",
                       "--tol", "2")[1]
        assert doc["n_randomizations"] == 0

    def test_endowment_mean_cvar(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "--builtin", "endowment",
                                "--alpha", "0.9", "--beta", "0.5")
        assert code == 0
        assert doc["y_star"] == 84.0
        assert doc["value"] == pytest.approx(96.84, abs=0.01)
        assert doc["policy"]["(1,0.2)"]["0.8"] == 1.0
        assert doc["n_randomizations"] == 0

    def test_table_and_json_agree(self, capsys):
        code, table_out, _ = run(capsys, "solve", "--builtin", "example2", "--alpha", "0.7")
        assert code == 0
        code, doc, _ = run_json(capsys, "solve", "--builtin", "example2", "--alpha", "0.7")
        assert code == 0
        value_line = next(ln for ln in table_out.splitlines() if ln.startswith("value"))
        assert float(value_line.split()[1]) == pytest.approx(doc["value"], abs=5e-5)
        y_line = next(ln for ln in table_out.splitlines() if ln.startswith("y_star"))
        assert float(y_line.split()[1]) == pytest.approx(doc["y_star"], abs=5e-5)

    def test_single_state_fixture(self, capsys, tmp_path):
        inst = model.MdpInstance("unit", ("s",), (("a",),), np.array([[1.0]]),
                                 rewards=np.array([2.5]))
        path = tmp_path / "unit.json"
        model.save(inst, path)
        code, doc, _ = run_json(capsys, "solve", "--instance", str(path), "--alpha", "0.5")
        assert code == 0
        assert doc["value"] == pytest.approx(2.5, abs=1e-9)

    def test_dual_primal_mode(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "--builtin", "example2",
                                "--alpha", "0.7", "--mode", "dual-primal")
        assert code == 0
        assert doc["primal_value"] == pytest.approx(doc["value"], abs=2e-6)

    def test_dual_primal_above_policy_cap(self, capsys):
        # 3**13 deterministic policies: the minimax side is one level LP,
        # not a vertex enumeration, so the policy cap does not apply
        code, doc, _ = run_json(capsys, "solve", "--gen", "13,3,1", "--alpha", "0.8",
                                "--mode", "dual-primal")
        assert code == 0
        assert abs(doc["primal_value"] - doc["value"]) <= solver.CERT_TOL

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
    def test_wide_reward_range_certifies(self, capsys, tmp_path):
        # every tolerance on the solve path is absolute, so rewards in
        # [0, 1e8] leave a left gap near 6.7e-6 and the run uncertified
        path = tmp_path / "wide.json"
        assert run(capsys, "gen", "--seed", "1", "--states", "60", "--actions", "4",
                   "--reward-range", "0", "100000000", "--out", str(path))[0] == 0
        code, doc, err = run_json(capsys, "solve", "--instance", str(path),
                                  "--alpha", "0.8", "--beta", "0.5")
        assert (code, err) == (0, "")
        assert "uncertified" not in doc["flags"]

    def test_generated_source(self, capsys):
        code, doc, _ = run_json(capsys, "solve", "--gen", "3,2,5", "--alpha", "0.6")
        assert code == 0
        assert doc["certificates"]["left_gap"] <= 2e-6


class TestNoExhaustiveWork:
    """solve runs linear programs only: no sweep over deterministic policies."""

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("deterministic sweep on the solve path")

        monkeypatch.setattr(chains, "_deterministic_sweep", refuse)

    @pytest.mark.parametrize("name, mode", [
        pytest.param(name, mode, id=name if mode == "dual" else f"{name}-{mode}")
        for mode in ("dual", "dual-primal") for name in ("example1", "example2", "endowment")])
    def test_solve_cvar_builtins(self, name, mode):
        sol = solver.solve_cvar(model.builtin(name), risk.RiskParams(0.7), mode=mode)
        assert sol.certificates.certified

    def test_solve_above_policy_cap(self, capsys):
        # 3**13 deterministic policies, more than the enumeration cap
        code, doc, _ = run_json(capsys, "solve", "--gen", "13,3,1", "--alpha", "0.7")
        assert code == 0
        for gap in ("left_gap", "right_gap", "oracle_gap"):
            assert doc["certificates"][gap] <= solver.CERT_TOL
        assert "deterministic_best" not in doc["certificates"]

    def test_waive_assumption_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--builtin", "example2", "--waive-assumption"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --waive-assumption" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_alpha_is_input_error(self, capsys):
        code, _, err = run(capsys, "solve", "--builtin", "example2", "--alpha", "1.5")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_beta_must_be_finite(self, capsys, beta):
        code, out, err = run(capsys, "solve", "--builtin", "example2", "--alpha", "0.7",
                             "--beta", beta)
        assert (code, out) == (2, "")
        assert f"--beta must be finite and nonnegative, got {beta}" in err
        with pytest.raises(cli.InputError, match="--beta"):
            cli._check_args(cli.build_parser().parse_args(
                ["solve", "--builtin", "example2", "--alpha", "0.7", "--beta", beta]))

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, capsys, tol):
        code, out, err = run(capsys, "solve", "--builtin", "example2", "--alpha", "0.7",
                             "--tol", tol, "--json")
        assert (code, out) == (2, "")
        assert "--tol must be finite and nonnegative" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "solve", "--builtin", "nope", "--alpha", "0.5")
        assert code == 2
        assert err == ("error: unknown builtin instance 'nope'; "
                       "have ['endowment', 'example1', 'example2']\n")

    def test_two_sources_rejected(self, capsys):
        code, _, err = run(capsys, "solve", "--builtin", "example2",
                           "--gen", "2,2", "--alpha", "0.5")
        assert code == 2
        assert "exactly one" in err

    def test_invalid_instance_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "mdp-v1", "name": "bad", "states": ["s"],
            "actions": {"s": ["a"]},
            "transitions": {"s": {"a": {"s": 0.9}}},
            "rewards": {"s": {"a": 1.0}},
        }))
        code, _, err = run(capsys, "solve", "--instance", str(path), "--alpha", "0.5")
        assert code == 2
        assert "invalid" in err

    @pytest.mark.parametrize("command, extra", [
        ("solve", ()), ("enumerate", ()), ("check", ()), ("scan", ()),
        ("simulate", ("--policy", "example1", "--T", "5"))])
    def test_nan_transition_probability(self, capsys, tmp_path, command, extra):
        path = tmp_path / "nan.json"
        model.save(model.builtin("example1"), path)
        path.write_text(path.read_text().replace('"s2": 1.0', '"s2": NaN', 1))
        code, _, err = run(capsys, command, "--instance", str(path), "--alpha", "0.5", *extra)
        assert code == 2
        assert err == "error: 'transitions.s1.a12.s2' must be a finite number, got nan\n"

    @pytest.mark.parametrize("builtin, edit, field", [
        ("example2", lambda r: r.update({"1": ["1"]}), "'rewards.1' must be an object"),
        ("example2", lambda r: r.update({"1": "1"}), "'rewards.1' must be an object"),
        ("endowment", lambda r: r.update({"(0,0.2)": [1.0]}),
         "'rewards3.(0,0.2)' must be an object"),
        ("endowment", lambda r: r["(0,0.2)"].update({"0.5": [1.0]}),
         "'rewards3.(0,0.2).0.5' must be an object"),
    ])
    def test_reward_rows_of_the_wrong_type(self, capsys, tmp_path, builtin, edit, field):
        path = tmp_path / "inst.json"
        model.save(model.builtin(builtin), path)
        doc = json.loads(path.read_text())
        edit(doc["rewards" if "rewards" in doc else "rewards3"])
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--instance", str(path), "--alpha", "0.5")
        assert code == 2
        assert err == f"error: {field}\n"

    @pytest.mark.parametrize("policy, message", [
        ([["1", "1"]], "'policy' must be an object"),
        ({"1": [1.0]}, "'policy.1' must be an object"),
        ({"1": {"1": None}}, "'policy.1.1' must be a finite number, got None"),
        ({"1": {"1": float("nan")}}, "'policy.1.1' must be a finite number, got nan"),
        ({"1": {"1": float("inf")}}, "'policy.1.1' must be a finite number, got inf"),
        ({"1": {"1": float("-inf")}}, "'policy.1.1' must be a finite number, got -inf"),
        ({"1": {"1": "1"}}, "'policy.1.1' must be a finite number, got '1'"),
        ({"1": {"1": True}}, "'policy.1.1' must be a finite number, got True"),
        ({"1": {"1": False}}, "'policy.1.1' must be a finite number, got False"),
        ({"4": {"1": 1.0}}, "'policy' names unknown state '4'"),
        ({"1": {"9": 1.0}}, "'policy.1' names unknown action '9'"),
    ])
    def test_malformed_policy_file(self, capsys, tmp_path, policy, message):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(policy))  # writes NaN, Infinity and -Infinity as tokens
        code, _, err = run(capsys, "simulate", "--builtin", "example2",
                           "--policy", str(path), "--alpha", "0.7", "--T", "5")
        assert code == 2
        assert err == f"error: bad policy file: {message}\n"

    @pytest.mark.parametrize("command, text, message", [
        ("solve", '{"name": "dup", "states": ["s1"], "actions": {"s1": ["a"]}, '
                  '"transitions": {"s1": {"a": {"s1": 0.5, "s1": 1.0}}}, '
                  '"rewards": {"s1": {"a": 1.0, "a": 7.0}}}',
         "'transitions.s1.a' names next state 's1' twice"),
        ("simulate", '{"1": {"1": 0.0, "1": 1.0}, "2": {"1": 1.0}, "3": {"1": 1.0}}',
         "bad policy file: 'policy.1' names action '1' twice"),
    ], ids=["instance", "policy"])
    def test_doubled_key_refused(self, capsys, tmp_path, command, text, message):
        # plain JSON keeps the last value: the instance solved to 7.0 and the
        # policy played action 1 in state 1
        path = tmp_path / "doubled.json"
        path.write_text(text)
        source = (("--instance", str(path)) if command == "solve" else
                  ("--builtin", "example2", "--policy", str(path), "--T", "5"))
        code, out, err = run(capsys, command, *source, "--alpha", "0.7")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_integer_beyond_float_range(self, capsys, tmp_path, command):
        # json parses a 401-digit integer exactly; float() of it overflows
        path = tmp_path / "inst.json"
        assert run(capsys, "gen", "--seed", "1", "--states", "2", "--actions", "2",
                   "--out", str(path))[0] == 0
        huge = 10**400
        if command == "solve":
            doc = json.loads(path.read_text())
            doc["rewards"]["s1"]["a1"] = huge
            path.write_text(json.dumps(doc))
            extra, where = (), "'rewards.s1.a1'"
        else:
            policy = tmp_path / "p.json"
            policy.write_text(json.dumps({"s1": {"a1": huge}, "s2": {"a1": 1.0}}))
            extra, where = ("--policy", str(policy), "--T", "3"), "bad policy file: 'policy.s1.a1'"
        code, out, err = run(capsys, command, "--instance", str(path), "--alpha", "0.5", *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {where} must be a finite number, got 1000")
        assert len(err) < 200

    def test_solver_failure_is_exit_3(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise lp.LpSolveError("backend exploded")

        monkeypatch.setattr(lp, "solve", boom)
        code, _, err = run(capsys, "solve", "--builtin", "example2", "--alpha", "0.5")
        assert code == 3
        assert "exploded" in err

    def test_uncertified_solve_is_exit_0(self, capsys, monkeypatch):
        """A v* off by more than CERT_TOL fails the right side of the
        certificate: the run is reported with flags, not refused."""
        shift_dual_objective(monkeypatch, 5e-6)
        code, doc, err = run_json(capsys, "solve", "--builtin", "example2", "--alpha", "0.7")
        assert (code, err) == (0, "")
        assert doc["flags"] == ["interior-tail-level", "negative-gap", "uncertified"]

    def test_optimum_off_law_tolerance_is_exit_3(self, capsys, monkeypatch):
        """A point the re-check passes (residual at most FEASIBILITY_TOL,
        1e-8) whose reward law's mass misses 1 by more than LAW_SUM_TOL
        (1e-9) is a solver fault, not bad input."""
        real = lp._run_highs

        def patched(h, name):
            point = real(h, name)
            if name == "example2-dual":
                point.x = point.x.copy()
                point.x[np.argmax(point.x[:-1])] += 5e-9  # the largest pair column
            return point

        monkeypatch.setattr(lp, "_run_highs", patched)
        code, out, err = run(capsys, "solve", "--builtin", "example2", "--alpha", "0.7")
        assert (code, out) == (3, "")
        assert err.startswith("error: example2-dual: ")
        assert "1.000000005" in err

    @pytest.mark.parametrize("command", ["solve", "enumerate"])
    def test_highs_infeasible_is_exit_3(self, capsys, monkeypatch, command):
        """A program HiGHS itself reports infeasible: every pair column at
        least 1 breaks the occupation polytope's total mass of one."""
        build = lp.build_dual_lp

        def infeasible(instance, params):
            prog = build(instance, params)
            lb = prog.lb.copy()
            lb[:instance.n_pairs] = 1.0
            return dataclasses.replace(prog, lb=lb)

        monkeypatch.setattr(lp, "build_dual_lp", infeasible)
        code, out, err = run(capsys, command, "--builtin", "example2", "--alpha", "0.7")
        assert code == 3
        assert out == ""
        assert err == "error: example2-dual: Infeasible\n"

    def test_missing_policy_for_simulate(self, capsys):
        code, _, err = run(capsys, "simulate", "--builtin", "example1",
                           "--alpha", "0.5", "--T", "5")
        assert code == 2
        assert "--policy" in err


class TestEnumerateCommand:
    def test_example2_gap(self, capsys):
        code, doc, _ = run_json(capsys, "enumerate", "--builtin", "example2",
                                "--alpha", "0.7")
        assert code == 0
        assert doc["best"]["combined"] == pytest.approx(92.6675, abs=1e-4)
        assert doc["gap"] == pytest.approx(0.5725, abs=1e-3)
        assert len(doc["rows"]) == 27

    def test_endowment_zero_gap(self, capsys):
        code, doc, _ = run_json(capsys, "enumerate", "--builtin", "endowment",
                                "--alpha", "0.9", "--beta", "0.5")
        assert code == 0
        assert doc["gap"] == pytest.approx(0.0, abs=1e-6)

    def test_endowment_sweeps_once(self, capsys, monkeypatch):
        calls = []
        sweep = chains._deterministic_sweep

        def counting(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(chains, "_deterministic_sweep", counting)
        code, doc, _ = run_json(capsys, "enumerate", "--builtin", "endowment",
                                "--alpha", "0.9", "--beta", "0.5")
        assert code == 0
        assert len(calls) == 1
        assert doc["optimum"] == pytest.approx(96.84, abs=1e-12)
        assert doc["gap"] == pytest.approx(0.0, abs=1e-12)
        assert doc["gap"] == doc["optimum"] - doc["best"]["combined"]

    def test_json_rows_ranked_by_combined_then_policy_order(self, capsys):
        inst = model.builtin("endowment")
        code, doc, _ = run_json(capsys, "enumerate", "--builtin", "endowment",
                                "--alpha", "0.9", "--beta", "0.5")
        assert code == 0
        assert len(doc["rows"]) == 729
        # each row's policy number in deterministic_policies order
        index = [int(np.ravel_multi_index(
                     [inst.actions[i].index(row["policy"][s]) for i, s in enumerate(inst.states)],
                     np.diff(inst.offsets)))
                 for row in doc["rows"]]
        assert sorted(index) == list(range(729))
        keys = [(-row["combined"], i) for row, i in zip(doc["rows"], index)]
        assert keys == sorted(keys)
        assert len({row["combined"] for row in doc["rows"]}) < 729  # ties occur
        assert doc["best"] == doc["rows"][0]
        assert doc["gap"] == doc["optimum"] - doc["best"]["combined"]

    def test_single_state_single_row(self, capsys, tmp_path):
        inst = model.MdpInstance("unit", ("s",), (("a",),), np.array([[1.0]]),
                                 rewards=np.array([1.0]))
        path = tmp_path / "unit.json"
        model.save(inst, path)
        code, doc, _ = run_json(capsys, "enumerate", "--instance", str(path),
                                "--alpha", "0.5")
        assert code == 0
        assert len(doc["rows"]) == 1
        assert doc["gap"] == pytest.approx(0.0, abs=1e-9)


class TestSimulateCommand:
    def test_example1_schedule(self, capsys):
        code, doc, _ = run_json(capsys, "simulate", "--builtin", "example1",
                                "--policy", "example1", "--alpha", "0.5",
                                "--T", "121", "--window", "121")
        assert code == 0
        assert doc["rows"][0]["cvar"] == 2.0
        assert doc["rows"][1]["cvar"] == -2.0
        assert doc["limsup_estimate"] == 2.0  # the first running average
        assert doc["liminf_estimate"] == pytest.approx(-1.0, abs=1e-12)

    def test_stationary_policy_file(self, capsys, tmp_path):
        pol_path = tmp_path / "policy.json"
        pol_path.write_text(json.dumps({
            "1": {"1": 0.0, "2": 0.0, "3": 1.0},
            "2": {"1": 1.0, "2": 0.0, "3": 0.0},
            "3": {"1": 0.5, "2": 0.0, "3": 0.5},
        }))
        code, doc, _ = run_json(capsys, "simulate", "--builtin", "example2",
                                "--policy", str(pol_path), "--alpha", "0.7",
                                "--T", "300")
        assert code == 0
        tail = [row["cesaro"] for row in doc["rows"][-50:]]
        assert max(tail) - min(tail) < 0.5  # converging running average

    def test_unknown_initial_state(self, capsys, tmp_path):
        pol_path = tmp_path / "policy.json"
        pol_path.write_text(json.dumps({s: {"1": 1.0} for s in ("1", "2", "3")}))
        code, _, err = run(capsys, "simulate", "--builtin", "example2",
                           "--policy", str(pol_path), "--s0", "nope")
        assert code == 2
        assert err == "error: unknown state 'nope'\n"

    def test_example1_default_window_spans_a_swing(self, capsys):
        code, out, _ = run(capsys, "simulate", "--builtin", "example1", "--policy", "example1",
                        "--alpha", "0.5", "--T", "29524")
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert last.startswith("# trailing-window (19684) cesaro extremes:")
        hi = float(last.split("max ")[1].split(",")[0])
        lo = float(last.split("min ")[1])
        assert hi >= 1.0
        assert lo == -1.0

    def test_horizon_one(self, capsys):
        code, doc, _ = run_json(capsys, "simulate", "--builtin", "example1",
                                "--policy", "example1", "--alpha", "0.5", "--T", "1")
        assert code == 0
        assert len(doc["rows"]) == 1

    def test_csv_export(self, capsys, tmp_path):
        out = tmp_path / "seq.csv"
        code, _, _ = run_json(capsys, "simulate", "--builtin", "example1",
                              "--policy", "example1", "--alpha", "0.5",
                              "--T", "4", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,cvar_t,cesaro_t"
        assert len(lines) == 5

    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "seq.csv"
        code, stdout, err = run(capsys, "simulate", "--builtin", "example1",
                                "--policy", "example1", "--alpha", "0.5",
                                "--T", "10", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err


class TestCheckCommand:
    def test_example1_multichain_listed(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--builtin", "example1")
        assert code == 0
        assert not doc["ok"]
        assert any("recurrent" in v["structure"] for v in doc["violations"])

    def test_example2_clean(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--builtin", "example2")
        assert code == 0
        assert doc["ok"] and doc["policies"] == 27
        assert "certificates" not in doc

    def test_certificates_with_alpha(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--builtin", "example2",
                                "--alpha", "0.7")
        assert code == 0
        assert doc["certificates"]["certified"]
        assert doc["certificates"]["left_gap"] <= 2e-6
        assert set(doc["certificates"]) == {"left_gap", "right_gap", "oracle_gap",
                                            "tail_level", "certified"}

    def test_text_prints_the_first_20_json_rows(self, capsys, tmp_path):
        path = tmp_path / "multichain.json"
        inst = sparse_instance(np.random.default_rng(3), 5, [3] * 5)
        model.save(inst, path)
        report = chains.check_assumption(inst)
        assert report.violators.size == 39
        code, doc, _ = run_json(capsys, "check", "--instance", str(path))
        assert code == 0
        assert len(doc["violations"]) == 39
        code, out, _ = run(capsys, "check", "--instance", str(path))
        assert code == 0
        lines = out.splitlines()
        rows = [",".join(f"{s}:{a}" for s, a in v["policy"].items()) + ": " + v["structure"]
                for v in doc["violations"][:20]]
        assert lines[3:23] == ["  " + r for r in rows]
        assert lines[23] == "  ... (19 more)"


class TestGenCommand:
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        code, stdout, err = run(capsys, "gen", "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ") and str(out) in err

    def test_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code1, _, _ = run(capsys, "gen", "--seed", "7", "--states", "3",
                          "--actions", "2", "--out", str(a))
        code2, _, _ = run(capsys, "gen", "--seed", "7", "--states", "3",
                          "--actions", "2", "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_text() == b.read_text()
        assert model.load(a) == model.random_instance(7, 3, 2)

    def test_reversed_reward_range_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "gen", "--reward-range", "5", "1", "--states", "2")
        assert code == 2
        assert out == ""
        assert err == "error: reward range must have lo <= hi, got (5, 1)\n"

    def test_stdout_without_out(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--seed", "7", "--states", "3",
                           "--actions", "2")
        assert code == 0
        path = tmp_path / "from_stdout.json"
        path.write_text(out)
        assert model.load(path) == model.random_instance(7, 3, 2)


class TestScanCommand:
    def test_example2_argmin_value(self, capsys):
        code, doc, _ = run_json(capsys, "scan", "--builtin", "example2",
                                "--alpha", "0.7")
        assert code == 0
        grid_best = min(row["value"] for row in doc["rows"])
        assert grid_best == pytest.approx(93.24, abs=0.01)
        assert doc["value"] == pytest.approx(93.2402, abs=1e-3)
        assert doc["interior"]
        ys = [row["y"] for row in doc["rows"]]
        assert ys == sorted(ys)

    def test_rows_marked_in_table(self, capsys):
        code, out, _ = run(capsys, "scan", "--builtin", "example2", "--alpha", "0.7")
        assert code == 0
        assert sum(ln.endswith("*") for ln in out.splitlines()) == 1


class TestUnusedFlagsRejected:
    @pytest.mark.parametrize("argv", [
        ("scan", "--builtin", "example2", "--alpha", "0.7", "--tol", "1e-3"),
        ("enumerate", "--builtin", "example2", "--tol", "1e-3"),
        ("check", "--builtin", "example2", "--tol", "1e-3"),
        ("simulate", "--builtin", "example1", "--policy", "example1", "--tol", "1e-3"),
        ("simulate", "--builtin", "example1", "--policy", "example1", "--beta", "0.5"),
        ("gen", "--seed", "7", "--json"),
        ("solve", "--builtin", "example2", "--alpha", "0.7", "--seed", "99"),
        ("enumerate", "--builtin", "example2", "--seed", "1"),
        ("simulate", "--builtin", "example1", "--policy", "example1", "--seed", "1"),
        ("check", "--gen", "2,2", "--seed", "1"),
        ("scan", "--instance", "inst.json", "--alpha", "0.7", "--seed", "1"),
    ])
    def test_argparse_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestParserReuse:
    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        argv = ("solve", "--builtin", "example2", "--alpha", "0.7")
        first = run(capsys, *argv)

        def rebuilt():
            raise AssertionError("main rebuilt its parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert run(capsys, *argv) == first


class TestModuleEntryPoint:
    def test_python_dash_m_solves_example2(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cvarmdp", "solve", "--builtin", "example2",
             "--alpha", "0.7", "--json"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert round(json.loads(proc.stdout)["value"], 4) == 93.2402

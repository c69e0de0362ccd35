import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("name", ["example1", "example2", "endowment"])
    def test_solve_cvar_builtins(self, name):
        sol = solver.solve_cvar(model.builtin(name), risk.RiskParams(0.7), mode="dual")
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

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "solve", "--builtin", "nope", "--alpha", "0.5")
        assert code == 2
        assert "unknown builtin" in err

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

    def test_solver_failure_is_exit_3(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise lp.LpSolveError("backend exploded")

        monkeypatch.setattr(lp, "solve", boom)
        code, _, err = run(capsys, "solve", "--builtin", "example2", "--alpha", "0.5")
        assert code == 3
        assert "exploded" in err

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


class TestGenCommand:
    def test_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code1, _, _ = run(capsys, "gen", "--seed", "7", "--states", "3",
                          "--actions", "2", "--out", str(a))
        code2, _, _ = run(capsys, "gen", "--seed", "7", "--states", "3",
                          "--actions", "2", "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_text() == b.read_text()
        assert model.load(a) == model.random_instance(7, 3, 2)

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
    ])
    def test_argparse_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


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

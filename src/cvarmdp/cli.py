"""Command-line front end.

Subcommands: solve, enumerate, simulate, check, gen, scan. Tables print
numbers to 4 decimals; --json emits the same values at full precision.
Exit codes: 0 success, 2 input or validation problems, 3 solver or
numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import chains, evaluate, lp, model, risk, solver

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class InputError(ValueError):
    """Bad flags, unreadable files, or failed instance validation."""


@dataclass(frozen=True)
class RunConfig:
    """One command invocation: instance source, risk parameters, flags."""

    command: str
    builtin: str | None
    instance_path: str | None
    gen: str | None
    alpha: float
    beta: float
    mode: str
    as_json: bool
    seed: int
    horizon: int
    policy: str | None
    tol: float | None
    states: int
    actions: int
    reward_range: tuple
    out: str | None
    s0: str | None
    window: int | None

    def __post_init__(self):
        if self.alpha is not None and not 0.0 <= self.alpha < 1.0:
            raise InputError(f"--alpha must lie in [0, 1), got {self.alpha}")
        if self.beta < 0.0:
            raise InputError(f"--beta must be nonnegative, got {self.beta}")
        sources = [s for s in (self.builtin, self.instance_path, self.gen) if s is not None]
        if self.command not in ("gen",) and len(sources) != 1:
            raise InputError("give exactly one instance source: --builtin, --instance, or --gen")


def _make_config(args):
    return RunConfig(
        command=args.command,
        builtin=getattr(args, "builtin", None),
        instance_path=getattr(args, "instance", None),
        gen=getattr(args, "gen", None),
        alpha=getattr(args, "alpha", 0.0),
        beta=getattr(args, "beta", 0.0),
        mode=getattr(args, "mode", "dual"),
        as_json=getattr(args, "json", False),
        seed=getattr(args, "seed", 0),
        horizon=getattr(args, "T", 100),
        policy=getattr(args, "policy", None),
        tol=getattr(args, "tol", None),
        states=getattr(args, "states", 3),
        actions=getattr(args, "actions", 2),
        reward_range=tuple(getattr(args, "reward_range", (0.0, 100.0))),
        out=getattr(args, "out", None),
        s0=getattr(args, "s0", None),
        window=getattr(args, "window", None),
    )


def _resolve_instance(config):
    if config.builtin is not None:
        try:
            return model.builtin(config.builtin)
        except KeyError as e:
            raise InputError(str(e)) from None
    if config.instance_path is not None:
        try:
            return model.load(config.instance_path)
        except (OSError, model.InstanceFormatError) as e:
            raise InputError(str(e)) from None
    spec = config.gen.split(",")
    if len(spec) not in (2, 3):
        raise InputError("--gen takes STATES,ACTIONS[,SEED]")
    try:
        n_states, n_actions = int(spec[0]), int(spec[1])
        seed = int(spec[2]) if len(spec) == 3 else config.seed
    except ValueError:
        raise InputError(f"--gen spec {config.gen!r} is not numeric") from None
    return model.random_instance(seed, n_states, n_actions, config.reward_range)


def _validated_instance(config):
    instance = _resolve_instance(config)
    report = model.validate(instance)
    if not report.ok:
        raise InputError(f"instance {instance.name!r} is invalid:\n{report}")
    return instance


def _emit(config, payload, table_lines):
    if config.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(table_lines))


def _policy_table(instance, mapping):
    actions = sorted({a for row in mapping.values() for a in row})
    head = "state".ljust(12) + "".join(a.rjust(12) for a in actions)
    lines = [head]
    for s in instance.states:
        row = s.ljust(12) + "".join(f"{mapping[s].get(a, 0.0):12.4f}" for a in actions)
        lines.append(row)
    return lines


def _solution_payload(sol):
    c = sol.certificates
    return {
        "value": sol.v_star,
        "y_star": sol.y_star,
        "cvar": sol.cvar_component,
        "mean": sol.mean_component,
        "policy": None,  # filled by caller with the name-keyed mapping
        "n_randomizations": sol.n_rand,
        "certificates": {
            "left_gap": c.saddle_left_gap,
            "right_gap": c.saddle_right_gap,
            "oracle_gap": c.oracle_gap,
            "tail_level": c.tail_level,
        },
        "flags": list(sol.flags),
    }


def cmd_solve(config):
    instance = _validated_instance(config)
    params = risk.RiskParams(config.alpha, config.beta)
    sol = solver.solve_cvar(instance, params, mode=config.mode)
    mapping = sol.policy.to_mapping(instance)
    payload = _solution_payload(sol)
    payload["policy"] = mapping
    if config.tol is not None:
        # mass below --tol does not count as a randomization
        payload["n_randomizations"] = model.n_randomizations(
            instance, sol.policy, tol=config.tol)
    c = sol.certificates
    lines = [
        f"instance        {instance.name}",
        f"value           {sol.v_star:.4f}",
        f"y_star          {sol.y_star:.4f}",
        f"cvar            {sol.cvar_component:.4f}",
        f"mean            {sol.mean_component:.4f}",
        f"n_rand          {payload['n_randomizations']}",
        "policy:",
    ]
    lines += ["  " + ln for ln in _policy_table(instance, mapping)]
    lines += [
        f"certificates    left={c.saddle_left_gap:.3g} right={c.saddle_right_gap:.3g} "
        f"oracle={c.oracle_gap:.3g} (at y={c.tail_level:.4f})",
        f"flags           {', '.join(sol.flags) if sol.flags else '-'}",
    ]
    if sol.primal_value is not None:
        payload["primal_value"] = sol.primal_value
        lines.append(f"primal value    {sol.primal_value:.4f}")
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_enumerate(config):
    instance = _validated_instance(config)
    params = risk.RiskParams(config.alpha, config.beta)
    table = solver.enumerate_deterministic(instance, params)
    dual = lp.solve(lp.build_dual_lp(instance, params))
    if dual.status != "optimal":
        raise solver.SolverError(f"occupation LP returned {dual.status}")
    optimum = dual.objective
    order = sorted(range(len(table.rows)), key=lambda i: -table.rows[i].combined)
    gap = optimum - table.best.combined
    rows_payload = []
    lines = [f"{'policy':<40}{'mean':>12}{'cvar':>12}{'combined':>12}"]
    for rank, i in enumerate(order):
        row = table.rows[i]
        label = ",".join(f"{s}:{a}" for s, a in row.policy.to_mapping(instance).items())
        mark = " *" if i == table.best_index else ""
        lines.append(f"{label:<40}{row.mean:>12.4f}{row.cvar:>12.4f}{row.combined:>12.4f}{mark}")
        rows_payload.append({"policy": row.policy.to_mapping(instance), "mean": row.mean,
                             "cvar": row.cvar, "combined": row.combined})
        if rank >= 50 and not config.as_json:
            lines.append(f"... ({len(order) - rank - 1} more rows)")
            break
    lines.append(f"best deterministic {table.best.combined:.4f}; optimum {optimum:.4f}; "
                 f"gap {gap:.4f}")
    payload = {"rows": rows_payload, "best": rows_payload[0] if rows_payload else None,
               "optimum": optimum, "gap": gap}
    _emit(config, payload, lines)
    return EXIT_OK


def _resolve_policy(config, instance):
    if config.policy is None:
        raise InputError("simulate needs --policy NAME|PATH")
    if config.policy == "example1":
        if instance.name != "example1":
            raise InputError("--policy example1 only applies to the example1 instance")
        return evaluate.example1_policy(config.horizon)
    try:
        with open(config.policy) as fh:
            mapping = json.load(fh)
        return model.StationaryPolicy.from_mapping(instance, mapping)
    except OSError as e:
        raise InputError(f"cannot read policy: {e}") from None
    except (ValueError, KeyError) as e:
        raise InputError(f"bad policy file: {e}") from None


def cmd_simulate(config):
    instance = _validated_instance(config)
    policy = _resolve_policy(config, instance)
    s0 = config.s0 if config.s0 is not None else instance.states[0]
    seq = evaluate.cvar_sequence(instance, policy, s0, config.horizon, config.alpha)
    window = config.window
    if window is None:
        window = (evaluate.example1_swing_window(len(seq)) if config.policy == "example1"
                  else max(1, len(seq) // 2))
    hi, lo = evaluate.limsup_liminf_estimate(seq, window)
    if config.out is not None:
        evaluate.export_sequence(seq, config.out)
    payload = {
        "alpha": seq.alpha,
        "initial_state": seq.initial_state,
        "policy": seq.policy_label,
        "T": len(seq),
        "window": window,
        "limsup_estimate": hi,
        "liminf_estimate": lo,
        "rows": [{"t": t, "cvar": float(seq.per_step[t]), "cesaro": float(seq.cesaro[t])}
                 for t in range(len(seq))],
    }
    lines = ["t,cvar_t,cesaro_t"]
    lines += [f"{t},{seq.per_step[t]:.4f},{seq.cesaro[t]:.4f}" for t in range(len(seq))]
    lines.append(f"# trailing-window ({window}) cesaro extremes: "
                 f"max {hi:.4f}, min {lo:.4f}")
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_check(config):
    instance = _validated_instance(config)
    report = chains.check_assumption(instance)
    payload = {
        "instance": instance.name,
        "policies": report.total,
        "violations": [
            {"policy": dp.to_mapping(instance), "structure": cls.describe(instance)}
            for dp, cls in report.violators
        ],
        "ok": report.ok,
    }
    lines = [f"instance   {instance.name}",
             f"policies   {report.total}",
             f"violations {len(report.violators)}"]
    for dp, cls in report.violators[:20]:
        label = ",".join(f"{s}:{a}" for s, a in dp.to_mapping(instance).items())
        lines.append(f"  {label}: {cls.describe(instance)}")
    if len(report.violators) > 20:
        lines.append(f"  ... ({len(report.violators) - 20} more)")
    lines.append("every deterministic policy is unichain and aperiodic" if report.ok
                 else "violations found; solve treats results as polytope optima")
    if config.alpha is not None:
        sol = solver.solve_cvar(instance, risk.RiskParams(config.alpha, config.beta))
        c = sol.certificates
        payload["certificates"] = {
            "left_gap": c.saddle_left_gap,
            "right_gap": c.saddle_right_gap,
            "oracle_gap": c.oracle_gap,
            "tail_level": c.tail_level,
            "certified": c.certified,
        }
        lines.append(
            f"certificates at alpha={config.alpha:g}: left={c.saddle_left_gap:.3g} "
            f"right={c.saddle_right_gap:.3g} oracle={c.oracle_gap:.3g} "
            f"({'certified' if c.certified else 'NOT certified'})")
    _emit(config, payload, lines)
    return EXIT_OK


def cmd_gen(config):
    instance = model.random_instance(config.seed, config.states, config.actions,
                                     config.reward_range)
    if config.out is None:
        model.save(instance, sys.stdout)
    else:
        model.save(instance, config.out)
        print(f"wrote {instance.name} to {config.out}")
    return EXIT_OK


def cmd_scan(config):
    instance = _validated_instance(config)
    params = risk.RiskParams(config.alpha, config.beta)
    scan = solver.endpoint_scan_oracle(instance, params)
    grid_best = int(np.argmin(scan.envelope))
    payload = {
        "rows": [{"y": float(y), "value": float(g)} for y, g in zip(scan.ys, scan.envelope)],
        "argmin": float(scan.ys[grid_best]),
        "value": scan.value,
        "y_star": scan.y_star,
        "interior": scan.interior,
    }
    lines = [f"{'y':>12}{'max_x v(x,y)':>16}"]
    for i, (y, g) in enumerate(zip(scan.ys, scan.envelope)):
        lines.append(f"{y:>12.4f}{g:>16.4f}{'  *' if i == grid_best else ''}")
    if scan.interior:
        lines.append(f"exact minimum {scan.value:.4f} at y={scan.y_star:.4f} "
                     "(between endpoints)")
    else:
        lines.append(f"exact minimum {scan.value:.4f} at y={scan.y_star:.4f}")
    _emit(config, payload, lines)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "enumerate": cmd_enumerate,
    "simulate": cmd_simulate,
    "check": cmd_check,
    "gen": cmd_gen,
    "scan": cmd_scan,
}


def _add_instance_flags(p):
    p.add_argument("--builtin", help="bundled instance: example1, example2, endowment")
    p.add_argument("--instance", help="path to an instance file")
    p.add_argument("--gen", help="random instance spec STATES,ACTIONS[,SEED]")


def _add_common_flags(p, mean_weight=True):
    p.add_argument("--alpha", type=float, default=0.0, help="probability level in [0,1)")
    if mean_weight:
        p.add_argument("--beta", type=float, default=0.0, help="mean weight (default 0)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvarmdp",
        description="Maximize the long-run CVaR (or mean-CVaR) of rewards in a finite MDP.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and certify the result")
    _add_instance_flags(p)
    _add_common_flags(p)
    p.add_argument("--mode", choices=["dual", "dual-primal"], default="dual")
    p.add_argument("--tol", type=float, default=None,
                   help="count an action as a randomization only when its mass "
                        f"exceeds TOL (default {model.RANDOMIZATION_TOL:g})")

    p = sub.add_parser("enumerate", help="evaluate every deterministic policy")
    _add_instance_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("simulate", help="exact per-step CVaR sequence of a policy")
    _add_instance_flags(p)
    _add_common_flags(p, mean_weight=False)
    p.add_argument("--policy", help="'example1' or a policy file (state -> action -> prob)")
    p.add_argument("--T", type=int, default=100, help="horizon")
    p.add_argument("--s0", help="initial state (default: first state)")
    p.add_argument("--window", type=int, default=None,
                   help="trailing window for limsup/liminf estimates (default T/2; "
                        "for --policy example1, back to the last rising block end)")
    p.add_argument("--out", help="write the sequence as CSV to this path")

    p = sub.add_parser("check", help="classify the chain of every deterministic policy")
    _add_instance_flags(p)
    _add_common_flags(p)
    # for check alone, alpha is optional: given, it adds a certified solve
    p.set_defaults(alpha=None)

    p = sub.add_parser("gen", help="write a random instance file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--reward-range", type=float, nargs=2, default=(0.0, 100.0),
                   metavar=("LO", "HI"))
    p.add_argument("--out", help="output path")

    p = sub.add_parser("scan", help="tabulate y against max_x v(x,y) over the endpoints")
    _add_instance_flags(p)
    _add_common_flags(p)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _make_config(args)
        return _COMMANDS[args.command](config)
    except (InputError, model.InstanceFormatError, model.CapExceededError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (solver.SolverError, lp.LpSolveError, chains.ChainStructureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as e:
        # bad numeric arguments surface from the library as ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

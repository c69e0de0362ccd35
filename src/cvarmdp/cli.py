"""Command-line front end.

Subcommands: solve, enumerate, simulate, check, gen, scan. Tables print
numbers to 4 decimals; --json emits the same values at full precision.
Exit codes: 0 success, 2 input or validation problems (an --out path that
cannot be written among them), 3 solver or numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import chains, evaluate, lp, model, risk, solver

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class InputError(ValueError):
    """Bad flags, unreadable files, or failed instance validation."""


def _check_args(args):
    """Refuse out-of-range risk parameters and a missing or doubled
    instance source."""
    alpha, beta = getattr(args, "alpha", None), getattr(args, "beta", 0.0)
    tol = getattr(args, "tol", None)
    if alpha is not None and not 0.0 <= alpha < 1.0:
        raise InputError(f"--alpha must lie in [0, 1), got {alpha}")
    if not 0.0 <= beta < np.inf:
        raise InputError(f"--beta must be finite and nonnegative, got {beta}")
    if tol is not None and not 0.0 <= tol < np.inf:
        raise InputError(f"--tol must be finite and nonnegative, got {tol}")
    sources = sum(getattr(args, k, None) is not None for k in ("builtin", "instance", "gen"))
    if args.command != "gen" and sources != 1:
        raise InputError("give exactly one instance source: --builtin, --instance, or --gen")


def _resolve_instance(args):
    if args.builtin is not None:
        try:
            return model.builtin(args.builtin)
        except KeyError as e:
            raise InputError(e.args[0]) from None
    if args.instance is not None:
        try:
            return model.load(args.instance)
        except (OSError, model.InstanceFormatError) as e:
            raise InputError(str(e)) from None
    spec = args.gen.split(",")
    if len(spec) not in (2, 3):
        raise InputError("--gen takes STATES,ACTIONS[,SEED]")
    try:
        n_states, n_actions = int(spec[0]), int(spec[1])
        seed = int(spec[2]) if len(spec) == 3 else 0
    except ValueError:
        raise InputError(f"--gen spec {args.gen!r} is not numeric") from None
    return model.random_instance(seed, n_states, n_actions)


def _validated_instance(args):
    instance = _resolve_instance(args)
    report = model.validate(instance)
    if not report.ok:
        raise InputError(f"instance {instance.name!r} is invalid:\n{report}")
    return instance


def _emit(args, payload, table_lines):
    if args.json:
        print(json.dumps(payload))
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


def _policy_mappings(instance, numbers):
    """Yield the state -> action mapping of each deterministic policy
    number in `numbers`, decoded in one `model.policy_actions` call."""
    for choices in model.policy_actions(instance, numbers):
        yield model.DeterministicPolicy(choices).to_mapping(instance)


def _certificate_payload(c):
    return {
        "left_gap": c.saddle_left_gap,
        "right_gap": c.saddle_right_gap,
        "oracle_gap": c.oracle_gap,
        "tail_level": c.tail_level,
    }


def _solution_payload(sol, mapping):
    return {
        "value": sol.v_star,
        "y_star": sol.y_star,
        "cvar": sol.cvar_component,
        "mean": sol.mean_component,
        "policy": mapping,
        "n_randomizations": sol.n_rand,
        "certificates": _certificate_payload(sol.certificates),
        "flags": list(sol.flags),
    }


def cmd_solve(args):
    instance = _validated_instance(args)
    params = risk.RiskParams(args.alpha, args.beta)
    sol = solver.solve_cvar(instance, params, mode=args.mode)
    mapping = sol.policy.to_mapping(instance)
    payload = _solution_payload(sol, mapping)
    if args.tol is not None:
        # mass below --tol does not count as a randomization
        payload["n_randomizations"] = model.n_randomizations(
            instance, sol.policy, tol=args.tol)
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
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_enumerate(args):
    instance = _validated_instance(args)
    params = risk.RiskParams(args.alpha, args.beta)
    table = solver.enumerate_deterministic(instance, params)
    optimum = lp.solve(lp.build_dual_lp(instance, params)).objective
    order = np.argsort(-table.combined, kind="stable")
    best = float(table.combined[table.best_index])
    gap = optimum - best
    rows_payload = []
    lines = [f"{'policy':<40}{'mean':>12}{'cvar':>12}{'combined':>12}"]
    shown = order if args.json else order[:51]
    for rank, (i, policy) in enumerate(zip(shown.tolist(), _policy_mappings(instance, shown))):
        mean, cvar, combined = (float(a[i]) for a in (table.mean, table.cvar, table.combined))
        label = ",".join(f"{s}:{a}" for s, a in policy.items())
        mark = " *" if i == table.best_index else ""
        lines.append(f"{label:<40}{mean:>12.4f}{cvar:>12.4f}{combined:>12.4f}{mark}")
        rows_payload.append({"policy": policy, "mean": mean, "cvar": cvar, "combined": combined})
        if rank >= 50 and not args.json:
            lines.append(f"... ({len(order) - rank - 1} more rows)")
            break
    lines.append(f"best deterministic {best:.4f}; optimum {optimum:.4f}; gap {gap:.4f}")
    payload = {"rows": rows_payload, "best": rows_payload[0] if rows_payload else None,
               "optimum": optimum, "gap": gap}
    _emit(args, payload, lines)
    return EXIT_OK


def _resolve_policy(args, instance):
    if args.policy is None:
        raise InputError("simulate needs --policy NAME|PATH")
    if args.policy == "example1":
        if instance.name != "example1":
            raise InputError("--policy example1 only applies to the example1 instance")
        return evaluate.example1_policy(args.T)
    try:
        with open(args.policy) as fh:
            mapping = json.load(fh)
        return model.StationaryPolicy.from_mapping(instance, mapping)
    except OSError as e:
        raise InputError(f"cannot read policy: {e}") from None
    except ValueError as e:
        raise InputError(f"bad policy file: {e}") from None


def cmd_simulate(args):
    instance = _validated_instance(args)
    policy = _resolve_policy(args, instance)
    s0 = args.s0 if args.s0 is not None else instance.states[0]
    if s0 not in instance.states:
        raise InputError(f"unknown state {s0!r}")
    seq = evaluate.cvar_sequence(instance, policy, s0, args.T, args.alpha)
    window = args.window
    if window is None:
        window = (evaluate.example1_swing_window(len(seq)) if args.policy == "example1"
                  else max(1, len(seq) // 2))
    hi, lo = evaluate.limsup_liminf_estimate(seq, window)
    if args.out is not None:
        evaluate.export_sequence(seq, args.out)
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
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_check(args):
    instance = _validated_instance(args)
    report = chains.check_assumption(instance)
    n_bad = report.violators.size
    # decode only the violators printed: all of them under --json, else 20
    shown = report.violators if args.json else report.violators[:20]
    violations = [{"policy": policy, "structure": cls.describe(instance)}
                  for policy, cls in zip(_policy_mappings(instance, shown),
                                         report.classifications())]
    payload = {
        "instance": instance.name,
        "policies": report.total,
        "violations": violations,
        "ok": report.ok,
    }
    lines = [f"instance   {instance.name}",
             f"policies   {report.total}",
             f"violations {n_bad}"]
    for v in violations[:20]:
        label = ",".join(f"{s}:{a}" for s, a in v["policy"].items())
        lines.append(f"  {label}: {v['structure']}")
    if n_bad > 20:
        lines.append(f"  ... ({n_bad - 20} more)")
    lines.append("every deterministic policy is unichain and aperiodic" if report.ok
                 else "violations found; solve treats results as polytope optima")
    if args.alpha is not None:
        sol = solver.solve_cvar(instance, risk.RiskParams(args.alpha, args.beta))
        c = sol.certificates
        payload["certificates"] = {**_certificate_payload(c), "certified": c.certified}
        lines.append(
            f"certificates at alpha={args.alpha:g}: left={c.saddle_left_gap:.3g} "
            f"right={c.saddle_right_gap:.3g} oracle={c.oracle_gap:.3g} "
            f"({'certified' if c.certified else 'NOT certified'})")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_gen(args):
    instance = model.random_instance(args.seed, args.states, args.actions,
                                     args.reward_range)
    if args.out is None:
        model.save(instance, sys.stdout)
    else:
        model.save(instance, args.out)
        print(f"wrote {instance.name} to {args.out}")
    return EXIT_OK


def cmd_scan(args):
    instance = _validated_instance(args)
    params = risk.RiskParams(args.alpha, args.beta)
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
    _emit(args, payload, lines)
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
    p.add_argument("--gen", help="random instance spec STATES,ACTIONS[,SEED] (SEED default 0)")


def _add_common_flags(p, mean_weight=True):
    p.add_argument("--alpha", type=float, default=0.0, help="probability level in [0,1)")
    if mean_weight:
        p.add_argument("--beta", type=float, default=0.0, help="mean weight (default 0)")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvarmdp",
        description="Maximize the long-run CVaR (or mean-CVaR) of rewards in a finite MDP.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and certify the result")
    _add_instance_flags(p)
    _add_common_flags(p)
    p.add_argument("--mode", choices=["dual", "dual-primal"], default="dual",
                   help="dual-primal: also solve the minimax level LP and check both "
                        "optima agree")
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


# the one parser `main` reuses across calls
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, model.CapExceededError) as e:
        # InputError, InstanceFormatError and the library's checks on bad
        # numeric arguments are all ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (solver.SolverError, lp.LpSolveError, chains.ChainStructureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

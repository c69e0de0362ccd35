"""The benchmark's workloads: seeded inputs, references and checked ops.

Each workload is built in two steps. `build` makes the inputs from the
seed (instances, instance files, policies); it is what `setup_s` times.
`make_ops` then computes every op's reference before any timing starts.
An op is one call into cvarmdp; its check returns "" when the output
matches the reference, one of the KNOWN_* outcomes for a known defect, and
a message otherwise.

`solve-small`, `scan-dense` and `scan-sparse` call `cli.main` in process
with stdout captured, which is what `cvarmdp solve|scan` does after the
interpreter has started. `evolve` calls `evaluate` directly: `simulate
--json` would time JSON serialization of every step, and Monte Carlo has
no command. Its oscillator and Monte Carlo cases are the two cases of
benchmarks/bench_kernels.py (example1 under its switching schedule;
example2 under the stationary policy (2, 0, 2)), run through the public
functions instead of the raw kernels.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cvarmdp import chains, cli, evaluate, lp, model, risk, solver

WORKLOADS = ("solve-small", "scan-dense", "scan-sparse", "evolve")

# Known defects: outcomes that count in fail_ratio but not as failed ops.
KNOWN_CAP = "known: CapExceededError on an instance above the policy cap"
KNOWN_LP = "known: LP recheck refused a HiGHS solution within HiGHS's own tolerance"
POLICY_CAP = 10**6         # the cap `cvarmdp solve` enumerates under
HIGHS_FEASIBILITY_TOL = 1e-7
_RESIDUAL = re.compile(r"solution violates constraints by ([0-9.eE+-]+)")
MC_ERROR_MULTIPLE = 5.0    # Monte Carlo CVaR error bound, in units of spread/sqrt((1-alpha) reps)
EXACT_TOL = 1e-9


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], str]
    ref: Any = None
    steps: int = 0          # evolution steps (replication-steps for Monte Carlo)
    rate: str | None = None  # which steps/s figure the op feeds: seq, switch or mc


# -- instance generators --------------------------------------------------------


def sparse_instance(seed, n_states, n_actions, successors=3, grid=24):
    """Seeded instance with `successors` random next states per pair plus a
    0.05 edge to the next state in a ring, and rewards on a `grid`-value
    grid over [0, 100] that every value of the grid appears on (so K = grid)."""
    n_pairs = n_states * n_actions
    if successors > n_states or grid > n_pairs:
        raise ValueError("need successors <= states and grid <= pairs")
    rng = np.random.default_rng(seed)
    kernel = np.zeros((n_pairs, n_states))
    succ = rng.random((n_pairs, n_states)).argsort(axis=1)[:, :successors]
    np.put_along_axis(kernel, succ, 0.95 * rng.dirichlet(np.ones(successors), size=n_pairs), axis=1)
    ring = (np.arange(n_pairs) // n_actions + 1) % n_states
    kernel[np.arange(n_pairs), ring] += 0.05
    values = np.round(np.linspace(0.0, 100.0, grid), 4)
    idx = np.concatenate([rng.permutation(grid), rng.integers(0, grid, n_pairs - grid)])
    rng.shuffle(idx)
    states = tuple(f"s{i + 1}" for i in range(n_states))
    actions = (tuple(f"a{j + 1}" for j in range(n_actions)),) * n_states
    inst = model.MdpInstance(f"sparse-{seed}-{n_states}x{n_actions}", states, actions,
                             kernel, rewards=values[idx])
    report = model.validate(inst)
    if not report.ok:
        raise ValueError(f"generated instance is invalid:\n{report}")
    return inst


# -- sizes ----------------------------------------------------------------------

# Per pass: the two builtins, dense instances from 3x2 to 8x2 / 7x3 and one
# 13x3 instance above the policy cap (today a CapExceededError, exit 2).
# 13 ops complete per pass, so the median falls inside the 7th-slowest
# kind and the 90th percentile inside the 12th, not on a boundary.
SOLVE_SIZES = {"full": [(3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
                        (3, 3), (4, 3), (5, 3), (6, 3), (7, 3), (13, 3)],
               "smoke": [(3, 2), (4, 2), (13, 3)]}
SOLVE_PASSES = {"full": 6, "smoke": 1}
SCAN_DENSE = {"full": ([12, 14, 16, 18, 20], 4, 48), "smoke": ([4, 5], 2, 2)}
SCAN_SPARSE = {"full": (100, 4, 24, 32), "smoke": (12, 2, 6, 2)}
# Sized so that about 30 ops fit in a 20-second run: with fewer, longer ops
# the run-to-run spread of evolve's op times was twice as wide.
EVOLVE = {"full": dict(block_T=(3**10 - 1) // 2, stationary_T=5 * 10**4, switch_T=25_000,
                       mc_T=100, mc_reps=5 * 10**4),
          "smoke": dict(block_T=(3**6 - 1) // 2, stationary_T=2000, switch_T=1000,
                        mc_T=20, mc_reps=2000)}
# Levels and mean weights cycle rather than being drawn, so every seed runs
# the same mix of them and seeds differ only in the instances.
ALPHAS = (0.5, 0.7, 0.9)
BETAS = (0.0, 0.5)


@dataclass
class CliCase:
    kind: str
    instance: Any
    path: str
    alpha: float
    beta: float = 0.0
    expect: dict | None = None   # published numbers a builtin must reproduce


def _save(instance, workdir, tag):
    path = f"{workdir}/{tag}.json"
    model.save(instance, path)
    return path


def _build_solve(rng, workdir, size):
    builtins = []
    for name, alpha, beta, expect in (("example2", 0.7, 0.0, {"value": 93.2402}),
                                      ("endowment", 0.9, 0.5, {"value": 96.84, "y_star": 84.0})):
        if size == "smoke" and name == "endowment":
            continue
        inst = model.builtin(name)
        builtins.append(CliCase(name, inst, _save(inst, workdir, name), alpha, beta, expect))
    cases = []
    for p in range(SOLVE_PASSES[size]):
        cases += builtins
        for j, (n_states, n_actions) in enumerate(SOLVE_SIZES[size]):
            inst = model.random_instance(int(rng.integers(2**31)), n_states, n_actions)
            cases.append(CliCase(f"{n_states}x{n_actions}", inst,
                                 _save(inst, workdir, f"p{p}-{n_states}x{n_actions}"),
                                 ALPHAS[(p + j) % 3], BETAS[(p + j) % 2]))
    return cases


def _build_scan_dense(rng, workdir, size):
    sizes, n_actions, count = SCAN_DENSE[size]
    cases = []
    for i in range(count):
        n_states = sizes[i % len(sizes)]
        inst = model.random_instance(int(rng.integers(2**31)), n_states, n_actions)
        cases.append(CliCase(f"{n_states}x{n_actions}", inst, _save(inst, workdir, f"d{i}"),
                             ALPHAS[i // len(sizes) % 3]))
    return cases


def _build_scan_sparse(rng, workdir, size):
    n_states, n_actions, grid, count = SCAN_SPARSE[size]
    cases = []
    for i in range(count):
        inst = sparse_instance(int(rng.integers(2**31)), n_states, n_actions, grid=grid)
        cases.append(CliCase(f"{n_states}x{n_actions}", inst, _save(inst, workdir, f"s{i}"),
                             ALPHAS[i % 3]))
    return cases


@dataclass
class EvolveInputs:
    block: tuple
    stationary: tuple
    switch: tuple
    mc: tuple
    mc_seeds: tuple


def _build_evolve(rng, workdir, size):
    sz = EVOLVE[size]
    e1, e2, endow = model.builtin("example1"), model.builtin("example2"), model.builtin("endowment")
    block = (e1, evaluate.example1_policy(sz["block_T"]), "s1", sz["block_T"], 0.5)
    while True:
        choices = tuple(int(c) for c in rng.integers(0, 3, size=endow.n_states))
        policy = model.DeterministicPolicy(choices).to_stationary(endow)
        if chains.classify_chain(endow, policy).unichain_aperiodic:
            break
    stationary = (endow, policy, endow.states[0], sz["stationary_T"], 0.9)
    T = sz["switch_T"]
    rules = rng.dirichlet(np.ones(3), size=(T, e2.n_states)).reshape(T, e2.n_pairs)
    switch = (e2, model.TimeDependentPolicy.from_rules(rules, label="switching"), "1", T, 0.7)
    mc_policy = model.DeterministicPolicy((2, 0, 2)).to_stationary(e2)
    mc = (e2, mc_policy, "1", sz["mc_T"], sz["mc_reps"], 0.7)
    return EvolveInputs(block, stationary, switch, mc,
                        tuple(int(s) for s in rng.integers(2**31, size=8)))


_INPUT_MAKERS = {"solve-small": _build_solve, "scan-dense": _build_scan_dense,
             "scan-sparse": _build_scan_sparse, "evolve": _build_evolve}


def build(workload, seed, workdir, size="full"):
    """Make the workload's inputs from the seed; instance files go to workdir."""
    return _INPUT_MAKERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]),
                               workdir, size)


# -- CLI ops --------------------------------------------------------------------


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def _minimax(case):
    params = risk.RiskParams(case.alpha, case.beta)
    sol = lp.solve(lp.build_level_lp(case.instance, params))
    if sol.status != "optimal":
        raise RuntimeError(f"reference level LP for {case.instance.name} is {sol.status}")
    return sol.objective


def _parse(result):
    rc, out, err = result
    if rc != cli.EXIT_OK:
        return None, f"exit {rc}: {err.strip()[:200]}"
    return json.loads(out), ""


def is_known(outcome):
    return outcome in (KNOWN_CAP, KNOWN_LP)


def _known_defect(result, ref):
    """Exit 2 from the policy cap on an instance above it (ROADMAP aim 3), or
    exit 3 from `lp.solve` rejecting a HiGHS point whose residual is above
    lp.FEASIBILITY_TOL (1e-8) but within HiGHS's primal tolerance (1e-7),
    which some sparse 100x4 programs hit."""
    rc, _, err = result
    if ref["above_cap"] and rc == cli.EXIT_INPUT and "exceed cap" in err:
        return KNOWN_CAP
    m = _RESIDUAL.search(err)
    if rc == cli.EXIT_SOLVER and m and float(m.group(1)) <= HIGHS_FEASIBILITY_TOL:
        return KNOWN_LP
    return None


def check_solve(result, ref):
    known = _known_defect(result, ref)
    if known:
        return known
    doc, msg = _parse(result)
    if doc is None:
        return msg
    if abs(doc["value"] - ref["value"]) > solver.CERT_TOL:
        return f"value {doc['value']!r} vs minimax reference {ref['value']!r}"
    certs = doc["certificates"]
    for gap in ("left_gap", "right_gap", "oracle_gap"):
        if not certs[gap] <= solver.CERT_TOL:
            return f"{gap} {certs[gap]!r} exceeds {solver.CERT_TOL}"
    if doc["n_randomizations"] > 1:
        return f"{doc['n_randomizations']} randomizations"
    for key, want in ref["expect"].items():
        if round(doc[key], 4) != want:
            return f"{key} {doc[key]!r}, published {want}"
    return ""


def check_scan(result, ref):
    known = _known_defect(result, ref)
    if known:
        return known
    doc, msg = _parse(result)
    if doc is None:
        return msg
    if abs(doc["value"] - ref["value"]) > solver.CERT_TOL:
        return f"scan value {doc['value']!r} vs minimax reference {ref['value']!r}"
    return ""


def _cli_ops(cases, command):
    ops = []
    for case in cases:
        argv = [command, "--instance", case.path, "--alpha", repr(case.alpha)]
        if command == "solve":
            argv += ["--beta", repr(case.beta)]
        argv.append("--json")
        above_cap = math.prod(len(a) for a in case.instance.actions) > POLICY_CAP
        ref = {"value": _minimax(case), "above_cap": above_cap, "expect": case.expect or {}}
        ops.append(Op(case.kind, lambda argv=argv: call_cli(argv),
                      check_solve if command == "solve" else check_scan, ref))
    return ops


# -- evolve ops -----------------------------------------------------------------


def _law_cvar(instance, pair_law, alpha):
    return risk.cvar_right(risk.reward_distribution(instance, pair_law), alpha)


def _oscillator_pattern(T):
    """+2 inside even blocks, -2 inside odd ones; block k starts at (3^k - 1)/2."""
    starts, k = [], 1
    while (3**k - 1) // 2 <= T:
        starts.append((3**k - 1) // 2)
        k += 1
    block = np.searchsorted(np.array(starts), np.arange(T), side="right")
    return np.where(block % 2 == 0, 2.0, -2.0)


def _law_products(instance, rules, s0, at):
    """Pair laws at the steps `at` from state s0, multiplying the state law
    through each step's state transition matrix (equal action counts)."""
    n_s, n_a = instance.n_states, len(instance.actions[0])
    T = max(at) + 1
    rules = rules if rules.shape[0] > 1 else np.repeat(rules, T, axis=0)
    P = np.einsum("tsa,saj->tsj", rules[:T].reshape(T, n_s, n_a),
                  instance.kernel.reshape(n_s, n_a, n_s))
    mu = np.zeros(n_s)
    mu[instance.state_index(s0)] = 1.0
    want, out = set(at), {}
    for t in range(T):
        if t in want:
            out[t] = mu[instance.pair_state] * rules[t]
        mu = mu @ P[t]
    return [out[t] for t in at]


def check_block(seq, ref):
    err = float(np.max(np.abs(seq.per_step - ref["value"])))
    return "" if err <= 1e-12 else f"oscillator deviates from the +-2 block pattern by {err:.3g}"


def check_stationary(seq, ref):
    err = abs(float(seq.per_step[-1]) - ref["value"])
    return "" if err <= EXACT_TOL else f"last step is {err:.3g} from the stationary CVaR"


def check_switch(seq, ref):
    err = float(np.max(np.abs(seq.per_step[ref["at"]] - ref["value"])))
    return "" if err <= EXACT_TOL else f"switching run is {err:.3g} from the law product"


def check_mc(res, ref):
    err = float(np.max(np.abs(res.cvar - ref["value"])))
    return "" if err <= ref["bound"] else f"Monte Carlo error {err:.3g} > {ref['bound']:.3g}"


def _evolve_ops(inp):
    e1, pol, s0, T, alpha = inp.block
    block = Op("block", lambda: evaluate.cvar_sequence(e1, pol, s0, T, alpha), check_block,
               {"value": _oscillator_pattern(T)}, T, "seq")

    endow, spol, s0s, Ts, alpha_s = inp.stationary
    occ = chains.stationary_distribution(endow, spol)
    stationary = Op("stationary", lambda: evaluate.cvar_sequence(endow, spol, s0s, Ts, alpha_s),
                    check_stationary, {"value": _law_cvar(endow, occ, alpha_s)}, Ts, "seq")

    e2, tpol, s0w, Tw, alpha_w = inp.switch
    rules = tpol.rows(Tw)
    at = np.unique(np.concatenate([[0, 1, 2, Tw - 1],
                                   np.linspace(0, Tw - 1, 13).astype(np.int64)]))
    laws = _law_products(e2, rules, s0w, list(at))
    switch = Op("switch", lambda: evaluate.cvar_sequence(e2, tpol, s0w, Tw, alpha_w),
                check_switch,
                {"value": np.array([_law_cvar(e2, q, alpha_w) for q in laws]), "at": at},
                Tw, "switch")

    e2m, mpol, s0m, Tm, reps, alpha_m = inp.mc
    exact = np.array([_law_cvar(e2m, q, alpha_m) for q in
                      _law_products(e2m, np.asarray(mpol.probs).reshape(1, -1), s0m, list(range(Tm)))])
    lo, hi = e2m.reward_bounds()
    bound = MC_ERROR_MULTIPLE * (hi - lo) / math.sqrt((1.0 - alpha_m) * reps)

    def mc_op(seed):
        return Op("mc", lambda: evaluate.monte_carlo_eval(e2m, mpol, s0m, Tm, reps, seed,
                                                          alpha=alpha_m),
                  check_mc, {"value": exact, "bound": bound}, Tm * reps, "mc")

    # Two Monte Carlo ops per pass make five ops, so the median op sits
    # inside one kind's block rather than between two kinds.
    ops = []
    for i in range(0, len(inp.mc_seeds), 2):
        ops += [block, mc_op(inp.mc_seeds[i]), stationary, mc_op(inp.mc_seeds[i + 1]), switch]
    return ops


def make_ops(workload, inputs):
    """The workload's op sequence, with every reference computed."""
    if workload == "solve-small":
        return _cli_ops(inputs, "solve")
    if workload in ("scan-dense", "scan-sparse"):
        return _cli_ops(inputs, "scan")
    return _evolve_ops(inputs)


def perturb(op):
    """Shift an op's reference so that a correct output fails its check."""
    op.ref = dict(op.ref, value=op.ref["value"] + 1.0)

"""Saddle-point pipeline: solve, extract, certify.

The default route solves only the polynomial-size occupation program
(`lp.build_dual_lp`): max z2 subject to v(x, e) >= z2 at every reward
value e and x in the occupation polytope. It keeps that program's basic
optimum x* and certifies it from the same program's dual prices, so a
solve is one linear program and never visits the exponentially many
deterministic policies; only `enumerate_deterministic` and
`chains.check_assumption` do, and they run only when called. The reported
tail level y_star is the quantile of x*'s reward law.

The certificate is weak duality on the occupation polytope (Puterman
1994, section 8.8) applied to the Rockafellar-Uryasev form
v(x, y) = sum_k x_k c_k(y), c_k(y) = y + E_k[r - y]^+ / (1-alpha) + beta E_k r.
Let lambda be the tail rows' prices negated, clipped at 0 and normalised
to sum 1, ybar = sum_e lambda_e e, and u the balance rows' prices. Then

    UB = max_k [c_k(ybar) - u_i(k) + (P u)_k]

bounds the optimum from above for *any* u and any ybar: every polytope
point has sum_k x_k (u_i(k) - (P u)_k) = 0 (flow balance) and sum_k x_k = 1
with x >= 0, so v(x, ybar) = sum_k x_k [c_k(ybar) - u_i(k) + (P u)_k] <= UB,
and min_y max_x v(x, y) <= max_x v(x, ybar) <= UB. A sign slip or noise in
the prices can therefore only loosen the bound, never certify a wrong
value. With the exact prices UB = v*: dual feasibility of the program
gives sum_e lambda_e c_k(e) - u_i(k) + (P u)_k <= v* for every pair, and
y -> c_k(y) is convex, so c_k(ybar) <= sum_e lambda_e c_k(e). The lower
bound is x*'s own value min_y v(x*, y), which by the Rockafellar-Uryasev
form (Rockafellar and Uryasev 2000) is CVaR_alpha + beta * mean of x*'s
reward law: the reported cvar and mean. So the optimum lies in
[v* - right gap, v* + left gap] with

    left gap  = UB - v*,    right gap = v* - (cvar + beta * mean),

and ybar is the level at which the left condition holds (flagged
"interior-tail-level" when it is not a reward value). The independent
oracle is the paper's second program, the full-range level LP
(`lp.build_level_lp`: min_y max_x v(x, y) with the inner maximum
dualised, |pairs| + K rows, K the reward values some pair pays). Mode
"dual-primal", the endpoint scan (`endpoint_scan_oracle`, behind
`cvarmdp scan`) and `verify_saddle` solve it; the default solve does not.
The scan adds one warm-started sweep of the average LP over the reward
values (`lp.solve_sweep`).

The basic optimum randomizes at most once. For fixed x, e -> v(x, e) is
convex and piecewise linear with kinks only at the reward atoms of x's
support, so the binding rows v(x, e) >= z2 all lie in one segment between
consecutive atoms (or beyond the outer ones), where they are affine in e
and span at most 2 dimensions on the support columns and z2. The polytope
rows span at most |R| there, R the states carrying mass, and a vertex
needs |support| + 1 independent rows, so |support| <= |R| + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chains, lp, model, risk

CERT_TOL = 2e-6           # certification gaps: twice the LP tolerance stack
QUANTILE_TIE_TOL = 1e-9


class SolverError(RuntimeError):
    """An internal inconsistency that theory rules out for valid inputs."""


@dataclass(frozen=True)
class VerificationReport:
    """Certificates of a solved saddle point.

    saddle_left_gap  = an upper bound on max_x v(x, tail_level), minus v*
                       (`solve_cvar`: the price bound UB of the module
                       docstring; `verify_saddle`: one average LP at
                       tail_level, i.e. the maximum itself)
    saddle_right_gap = v* - x*'s own value min_y v(x*, y), which is
                       CVaR_alpha + beta * mean of x*'s reward law
    oracle_gap       = a bound on |v* - optimum|: from `solve_cvar`
                       max(left, right, 0), which weak duality guarantees;
                       from `verify_saddle` |v* - level optimum|
    tail_level       = the y at which the left condition was checked
    """

    saddle_left_gap: float
    saddle_right_gap: float
    oracle_gap: float
    tail_level: float

    @property
    def certified(self):
        return (self.saddle_left_gap <= CERT_TOL and self.saddle_right_gap <= CERT_TOL
                and self.oracle_gap <= CERT_TOL)


@dataclass(frozen=True)
class SaddleSolution:
    v_star: float
    x_star: np.ndarray
    y_star: float
    policy: model.StationaryPolicy
    n_rand: int
    cvar_component: float
    mean_component: float
    certificates: VerificationReport
    flags: tuple
    primal_value: float | None = None


@dataclass(frozen=True)
class ScanResult:
    """Endpoint scan of y -> max_x v(x, y) and its exact minimum.

    ys / envelope tabulate the reward values; y_star / value give the exact
    minimum: the level LP's when it lies below every tabulated value (the
    envelope's kink falls between reward values, `interior`), else the
    leftmost tabulated argmin.
    """

    ys: np.ndarray
    envelope: np.ndarray
    y_star: float
    value: float
    interior: bool


def _minimax(instance, params):
    """The full-range level LP, min_y max_x v(x, y), solved."""
    return lp.solve(lp.build_level_lp(instance, params))


def endpoint_scan_oracle(instance, params):
    """Exact independent recomputation of the optimum from the minimax side.

    The envelope y -> max_x v(x, y) at the K reward values is K average
    LPs over one occupation polytope that differ only in their costs, so
    they run as one warm-started `lp.solve_sweep` in increasing y; each
    point after the first pivots primal from the previous one's optimal
    basis.

    For fixed x the objective kinks only at reward values, but the upper
    envelope over the polytope also kinks where two vertex lines cross, so
    the tabulated minimum can exceed the true one. The level LP gives the
    true minimum over the whole range; it replaces the tabulated one only
    when it is lower by more than rounding (`lp.FEASIBILITY_TOL`, relative
    to the value above 1): the sweep and the level LP reach the same
    optimum along different pivots, and their last bits differ.
    """
    ys = risk.breakpoints(instance)
    prog = lp.build_average_lp(instance, float(ys[0]), params)
    sols = lp.solve_sweep(prog, risk.saddle_coefficient_rows(instance, ys, params))
    envelope = np.array([sol.objective for sol in sols])
    best = int(np.argmin(envelope))  # leftmost on exact ties
    y_star, value, interior = float(ys[best]), float(envelope[best]), False
    level = _minimax(instance, params)
    if level.objective < value - lp.FEASIBILITY_TOL * max(1.0, abs(value)):
        # the level LP's columns are u_0..u_{S-1}, u0, y, then w
        y_star, value, interior = float(level.x[instance.n_states + 1]), level.objective, True
    return ScanResult(ys=ys.copy(), envelope=envelope,
                      y_star=y_star, value=value, interior=interior)


def verify_saddle(instance, x_star, y_star, v_star, params):
    """Certify a candidate saddle point with independent computations.

    y_star is the tail level at which the left condition is checked; pass
    the exact minimax level for a meaningful certificate (the quantile of
    the optimal law fails it whenever the CDF ties alpha there). The left
    gap solves max_x v(x, y_star) with one occupation LP, the oracle gap
    compares v_star with the level LP's optimum, and the right gap
    subtracts x_star's own value (`_own_value` of its reward law).
    """
    sol = lp.solve(lp.build_average_lp(instance, y_star, params))
    oracle = _minimax(instance, params).objective
    own, _, _ = _own_value(risk.reward_distribution(instance, x_star), params)
    return VerificationReport(float(sol.objective - v_star), float(v_star - own),
                              float(abs(v_star - oracle)), float(y_star))


def _own_value(law, params):
    """A point's own value min_y v(x, y) from its reward law, with its two
    parts: (CVaR_alpha + beta * mean, CVaR_alpha, mean), the
    Rockafellar-Uryasev form."""
    cvar, mean = risk.cvar_right(law, params.alpha), law.mean()
    return cvar + params.beta * mean, cvar, mean


def sparsify(instance, x_star, y_star, params):
    """Reduce an optimal occupation measure to one with few nonzeros.

    Solves the tail-pinned occupation program at y_star for a basic optimal
    solution; the quantile rows keep y_star inside every feasible point's
    quantile interval, so the pinned optimum equals the true optimum even
    when the CDF ties alpha at y_star. When the slack x0 vanishes the
    basic-solution argument loses a row and the bound of one randomization
    is no longer guaranteed; the original measure is returned with the tie
    flagged.

    Returns (read-only occupation measure, quantile_tie flag).
    """
    sol = lp.solve(lp.build_sparsify_lp(instance, y_star, params))
    if sol.x[instance.n_pairs] <= QUANTILE_TIE_TOL:  # x0, the column after the pairs
        return model._readonly(model.as_pair_array(x_star)), True
    return model._readonly(lp.pair_values(instance, sol)), False


@dataclass(frozen=True)
class EnumerationTable:
    """Entry i of mean, cvar and combined scores policy number i in
    `deterministic_policies` order (its actions: `model.policy_actions`);
    best_index is the first policy of largest combined score."""

    mean: np.ndarray
    cvar: np.ndarray
    combined: np.ndarray
    best_index: int


def enumerate_deterministic(instance, params):
    """Exact evaluation of every deterministic policy, in canonical order.

    A policy with several recurrent classes is scored by its best class
    (the value it achieves from initial states absorbed there); under the
    unichain assumption there is only one class.
    """
    total = model.deterministic_policy_count(instance)
    scores = np.empty((3, total))
    start = 0
    for block in chains._deterministic_sweep(instance):
        owner, xs = block.occupations
        cvar, mean = risk.cvar_right_and_mean_rows(instance, xs, params.alpha)
        combined = cvar + params.beta * mean
        if owner.size > len(block):
            # several classes per policy: keep the first best one
            order = np.lexsort((np.arange(owner.size), -combined, owner))
            first = np.flatnonzero(np.diff(owner[order], prepend=-1))
            best = order[first]
            cvar, mean, combined = cvar[best], mean[best], combined[best]
        scores[:, start:start + len(block)] = mean, cvar, combined
        start += len(block)
    return EnumerationTable(*scores, best_index=int(np.argmax(scores[2])) if total else -1)


def _dual_certificate(instance, dual_sol, own_value, v_star, params, ys):
    """Weak-duality certificate read off the occupation program's prices.

    See the module docstring: the tail rows' prices give the level ybar,
    the balance rows' prices the bias u, and UB = max_k [c_k(ybar) - u_i(k)
    + (P u)_k] bounds max_x v(x, ybar), hence the optimum, from above. The
    program's rows are the K = ys.size tail rows, then one balance row per
    state. own_value is the claimed point's own value (`_own_value`), the
    lower end of the interval.
    """
    duals, K = dual_sol.duals, ys.size
    lam = np.clip(-duals[:K], 0.0, None)
    total = float(lam.sum())
    if not (np.isfinite(total) and total > 0.0):
        raise SolverError(f"occupation LP's tail prices sum to {total!r}")
    y_bar = float((lam / total) @ ys)
    u = duals[K:K + instance.n_states]
    reduced = (risk.saddle_coefficients(instance, y_bar, params)
               - u[instance.pair_state] + instance.kernel @ u)
    left_gap = float(reduced.max()) - v_star
    right_gap = v_star - own_value
    return VerificationReport(left_gap, right_gap, max(left_gap, right_gap, 0.0), y_bar)


def solve_cvar(instance, params, mode="dual"):
    """Full pipeline: occupation LP, quantile recovery, policy extraction,
    certification.

    mode "dual" solves only the occupation program; "dual-primal" also
    solves the minimax level LP, reports its optimum as primal_value, and
    checks that both optima agree. Both programs are polynomial-size.

    x_star is the occupation program's basic optimum and y_star the
    quantile of its reward law. The certificates come from the same
    program's prices; their tail level is the price-weighted mean of the
    reward values, and a run whose level is not a reward value is flagged
    "interior-tail-level". A gap below -CERT_TOL is flagged "negative-gap",
    and a certificate that does not hold "uncertified".
    """
    if mode not in ("dual", "dual-primal"):
        raise ValueError(f"mode must be 'dual' or 'dual-primal', got {mode!r}")
    ys = risk.breakpoints(instance)
    dual_lp = lp.build_dual_lp(instance, params)
    dual_sol = lp.solve(dual_lp)
    v_star = dual_sol.objective
    x_star = model._readonly(lp.pair_values(instance, dual_sol))
    try:
        law = risk.reward_distribution(instance, x_star)
    except ValueError as e:  # a point the re-check passed, whose law is off 1 by more
        raise SolverError(f"{dual_lp.name}: reward law of the optimum refused: {e}") from None
    y_star = risk.var(law, params.alpha)
    flags = []

    primal_value = None
    if mode == "dual-primal":
        primal_value = _minimax(instance, params).objective
        if abs(primal_value - v_star) > CERT_TOL:
            raise SolverError(
                f"minimax equality violated: level optimum {primal_value!r} "
                f"vs occupation optimum {v_star!r}")

    own, cvar_component, mean_component = _own_value(law, params)
    report = _dual_certificate(instance, dual_sol, own, v_star, params, ys)
    if report.tail_level not in ys:
        flags.append("interior-tail-level")
    if min(report.saddle_left_gap, report.saddle_right_gap) < -CERT_TOL:
        flags.append("negative-gap")
    if not report.certified:
        flags.append("uncertified")

    policy = model.extract_policy(instance, x_star)
    n_rand = model.n_randomizations(instance, policy)

    final_cls = chains.classify_chain(instance, policy)
    if not final_cls.unichain_aperiodic:
        flags.append("assumption-violation")

    return SaddleSolution(
        v_star=float(v_star),
        x_star=x_star,
        y_star=float(y_star),
        policy=policy,
        n_rand=n_rand,
        cvar_component=float(cvar_component),
        mean_component=float(mean_component),
        certificates=report,
        flags=tuple(flags),
        primal_value=primal_value,
    )

"""Saddle-point pipeline: solve, sparsify, extract, certify.

The default route solves only the polynomial-size occupation program. The
reported tail level is the quantile of the optimal reward law, which is
what pins the sparsification program; saddle certificates are computed at
the exact minimax level, which can sit strictly between reward values when
the optimal law's CDF ties the probability level exactly (the generic
situation whenever the optimum genuinely randomizes). Every solution is
checked against independent recomputations: a fresh occupation LP at the
certified level, an endpoint scan with interval refinement, and exhaustive
deterministic enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chains, lp, model, risk

CERT_TOL = 2e-6           # certification gaps: twice the LP tolerance stack
CONSISTENCY_TOL = 1e-6    # value decomposition and sparsify-objective match
QUANTILE_TIE_TOL = 1e-9


class SolverError(RuntimeError):
    """An internal inconsistency that theory rules out for valid inputs."""


@dataclass(frozen=True)
class VerificationReport:
    """Independent checks of a solved saddle point.

    saddle_left_gap  = max_x v(x, tail_level) - v*  (fresh occupation LP)
    saddle_right_gap = v* - min_y v(x*, y)          (reward-endpoint scan)
    oracle_gap       = |v* - scan-with-refinement optimum|
    deterministic_best = best combined value over deterministic policies
    tail_level       = the y at which the saddle conditions were checked
    """

    saddle_left_gap: float
    saddle_right_gap: float
    oracle_gap: float
    deterministic_best: float
    tail_level: float
    flags: tuple

    @property
    def certified(self):
        return (self.saddle_left_gap <= CERT_TOL and self.saddle_right_gap <= CERT_TOL
                and self.oracle_gap <= CERT_TOL)


@dataclass(frozen=True)
class SaddleSolution:
    v_star: float
    x_star: model.OccupationMeasure
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
    """Endpoint scan of y -> max_x v(x, y), refined between endpoints.

    ys / envelope tabulate the reward values; y_star / value give the exact
    minimum, which lies inside an interval flanking the tabulated argmin
    whenever the envelope's kink falls between reward values.
    """

    ys: np.ndarray
    envelope: np.ndarray
    y_star: float
    value: float
    interior: bool


def endpoint_scan_oracle(instance, params):
    """Exact independent recomputation of the optimum from the minimax side.

    For fixed x the objective kinks only at reward values, but the upper
    envelope over the polytope also kinks where two vertex lines cross, so
    after scanning the reward endpoints the two flanking intervals of the
    best endpoint are minimized exactly with the joint level program. The
    envelope is convex, which confines the true minimum to those intervals.
    """
    bp = risk.breakpoints(instance)
    envelope = np.empty(bp.values.size)
    for i, y in enumerate(bp.values):
        sol = lp.solve(lp.build_average_lp(instance, float(y), params))
        if sol.status != "optimal":
            raise SolverError(f"inner occupation LP at y={y} returned {sol.status}")
        envelope[i] = sol.objective
    best = int(np.argmin(envelope))  # leftmost on exact ties
    y_star, value, interior = float(bp.values[best]), float(envelope[best]), False
    for side in (-1, +1):
        j = best + side
        if not 0 <= j < bp.values.size:
            continue
        lo, hi = sorted((bp.values[best], bp.values[j]))
        sol = lp.solve(lp.build_level_lp(instance, params, y_lo=float(lo), y_hi=float(hi)))
        if sol.status != "optimal":
            raise SolverError(f"level LP on [{lo}, {hi}] returned {sol.status}")
        if sol.objective < value - 1e-12:
            y_star, value, interior = float(sol.values["y"]), float(sol.objective), True
    return ScanResult(ys=bp.values.copy(), envelope=envelope,
                      y_star=y_star, value=value, interior=interior)


def verify_saddle(instance, x_star, y_star, v_star, params):
    """Certify a candidate saddle point with independent computations.

    y_star is the tail level at which the left condition is checked; pass
    the exact minimax level for a meaningful certificate (the quantile of
    the optimal law fails it whenever the CDF ties alpha there).
    """
    x = model.as_pair_array(x_star)
    left_sol = lp.solve(lp.build_average_lp(instance, y_star, params))
    if left_sol.status != "optimal":
        raise SolverError(f"certification LP returned {left_sol.status}")
    left_gap = left_sol.objective - v_star
    bp = risk.breakpoints(instance)
    right_min = min(risk.saddle_value(instance, x, float(y), params) for y in bp.values)
    right_gap = v_star - right_min
    scan = endpoint_scan_oracle(instance, params)
    enum = enumerate_deterministic(instance, params)
    flags = []
    if left_gap < -CERT_TOL or right_gap < -CERT_TOL:
        flags.append("negative-gap")
    return VerificationReport(
        saddle_left_gap=float(left_gap),
        saddle_right_gap=float(right_gap),
        oracle_gap=float(abs(v_star - scan.value)),
        deterministic_best=enum.best.combined,
        tail_level=float(y_star),
        flags=tuple(flags),
    )


def sparsify(instance, x_star, y_star, params, delta=None):
    """Reduce an optimal occupation measure to one with few nonzeros.

    Solves the tail-pinned occupation program at y_star for a basic optimal
    solution; the quantile rows keep y_star inside every feasible point's
    quantile interval, so the pinned optimum equals the true optimum even
    when the CDF ties alpha at y_star. When the slack x0 vanishes the
    basic-solution argument loses a row and the bound of one randomization
    is no longer guaranteed; the original measure is returned with the tie
    flagged.

    Returns (occupation measure, quantile_tie flag).
    """
    if delta is None:
        delta = risk.breakpoints(instance).delta
    prog = lp.build_sparsify_lp(instance, y_star, params, delta)
    sol = lp.solve(prog, require_vertex=True)
    if sol.status != "optimal":
        raise SolverError(
            f"sparsification LP is {sol.status}; the tail-pinned polytope "
            "must contain the optimum, so this indicates a bug")
    if sol.values["x0"] <= QUANTILE_TIE_TOL:
        return model.OccupationMeasure(model.as_pair_array(x_star)), True
    x = lp.pair_values(instance, sol)
    return model.OccupationMeasure(x), False


@dataclass(frozen=True)
class PolicyRow:
    policy: model.DeterministicPolicy
    mean: float
    cvar: float
    combined: float


@dataclass(frozen=True)
class EnumerationTable:
    rows: tuple
    best_index: int

    @property
    def best(self):
        return self.rows[self.best_index]


def enumerate_deterministic(instance, params, cap=10**6):
    """Exact evaluation of every deterministic policy, in canonical order.

    A policy with several recurrent classes is scored by its best class
    (the value it achieves from initial states absorbed there); under the
    unichain assumption there is only one class.
    """
    rows = []
    scores = []
    for block in chains._deterministic_sweep(instance, cap):
        owner, xs = block.occupations
        cvar, mean = risk.cvar_right_and_mean_rows(instance, xs, params.alpha)
        combined = cvar + params.beta * mean
        if owner.size > len(block):
            # several classes per policy: keep the first best one
            order = np.lexsort((np.arange(owner.size), -combined, owner))
            first = np.flatnonzero(np.diff(owner[order], prepend=-1))
            best = order[first]
            cvar, mean, combined = cvar[best], mean[best], combined[best]
        rows += map(PolicyRow, block.policies(), mean.tolist(), cvar.tolist(), combined.tolist())
        scores.append(combined)
    best_idx = int(np.argmax(np.concatenate(scores))) if rows else -1
    return EnumerationTable(rows=tuple(rows), best_index=best_idx)


def solve_cvar(instance, params, mode="dual", cap=10**6):
    """Full pipeline: occupation LP, quantile recovery, sparsification,
    policy extraction, certification.

    mode "dual" solves only the polynomial-size program; "dual-primal"
    additionally enumerates the polytope vertices, solves the vertex
    program, and checks that both optima agree.

    The reported y_star is the quantile of the final reward law (a reward
    value, and the level the sparsification is pinned to). Certificates are
    computed there when possible; when the optimal law ties alpha exactly
    at its quantile the minimax-optimal level moves strictly above it and
    the certificates are computed at the exact level from the joint
    program instead, with the run flagged "interior-tail-level".
    """
    bp = risk.breakpoints(instance)
    dual_sol = lp.solve(lp.build_dual_lp(instance, params), require_vertex=True)
    if dual_sol.status != "optimal":
        raise SolverError(f"occupation LP returned {dual_sol.status}; "
                          "check the instance with validate()")
    v_star = dual_sol.objective
    x_raw = lp.pair_values(instance, dual_sol)
    y_star = risk.var(risk.reward_distribution(instance, x_raw), params.alpha)
    flags = []

    primal_value = None
    if mode in ("dual-primal", "dual+primal"):
        vertices = chains.polytope_vertices(instance, cap=cap)
        primal_sol = lp.solve(lp.build_primal_lp(instance, vertices, params), require_vertex=True)
        if primal_sol.status != "optimal":
            raise SolverError(f"vertex LP returned {primal_sol.status}")
        primal_value = primal_sol.objective
        if abs(primal_value - v_star) > CERT_TOL:
            raise SolverError(
                f"minimax equality violated: vertex optimum {primal_value!r} "
                f"vs occupation optimum {v_star!r}")
    elif mode != "dual":
        raise ValueError(f"mode must be 'dual' or 'dual-primal', got {mode!r}")

    x_final, tie = sparsify(instance, x_raw, y_star, params, bp.delta)
    if tie:
        flags.append("quantile-tie")
    check = risk.saddle_value(instance, x_final.x, y_star, params)
    if abs(check - v_star) > CONSISTENCY_TOL:
        raise SolverError(f"sparsified objective {check!r} drifted from optimum {v_star!r}")
    # The quantile of the final law equals the pinned level by construction
    # (outside the tie case the sparsify rows force it; inside it we kept
    # the original measure whose quantile defined the level).
    y_star = risk.var(risk.reward_distribution(instance, x_final), params.alpha)

    cert_probe = lp.solve(lp.build_average_lp(instance, y_star, params))
    if cert_probe.status != "optimal":
        raise SolverError(f"certification LP returned {cert_probe.status}")
    cert_y = y_star
    if cert_probe.objective - v_star > CERT_TOL:
        level = lp.solve(lp.build_level_lp(instance, params))
        if level.status != "optimal":
            raise SolverError(f"level LP returned {level.status}")
        if abs(level.objective - v_star) > CERT_TOL:
            raise SolverError(
                f"minimax level program disagrees with occupation optimum: "
                f"{level.objective!r} vs {v_star!r}")
        cert_y = float(level.values["y"])
        flags.append("interior-tail-level")

    report = verify_saddle(instance, x_final, cert_y, v_star, params)

    policy = model.extract_policy(instance, x_final)
    n_rand = model.n_randomizations(instance, policy)
    final_law = risk.reward_distribution(instance, x_final)
    cvar_component = risk.cvar_right(final_law, params.alpha)
    mean_component = final_law.mean()
    if abs(v_star - (cvar_component + params.beta * mean_component)) > CONSISTENCY_TOL:
        raise SolverError(
            f"value decomposition off: {v_star!r} vs cvar {cvar_component!r} "
            f"+ beta * mean {mean_component!r}")

    final_cls = chains.classify_chain(instance, policy)
    if not final_cls.unichain_aperiodic:
        flags.append("assumption-violation")

    return SaddleSolution(
        v_star=float(v_star),
        x_star=x_final,
        y_star=float(y_star),
        policy=policy,
        n_rand=n_rand,
        cvar_component=float(cvar_component),
        mean_component=float(mean_component),
        certificates=report,
        flags=tuple(flags),
        primal_value=primal_value,
    )


@dataclass(frozen=True)
class DegenerationRecord:
    """Comparison of the alpha = 0 solve with the classical average optimum."""

    lp_value: float
    best_deterministic_mean: float

    @property
    def gap(self):
        return abs(self.lp_value - self.best_deterministic_mean)


def alpha_zero_degeneration(instance, cap=10**6):
    """At alpha = 0 the tail objective is the mean, so the solve must agree
    with the best deterministic long-run average reward."""
    params = risk.RiskParams(alpha=0.0, beta=0.0)
    sol = solve_cvar(instance, params, cap=cap)
    enum = enumerate_deterministic(instance, params, cap=cap)
    return DegenerationRecord(lp_value=sol.v_star,
                              best_deterministic_mean=enum.best.mean)

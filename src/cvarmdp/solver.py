"""Saddle-point pipeline: solve, extract, certify.

The default route solves only the polynomial-size occupation program and
keeps its basic optimum. The reported tail level is the quantile of the
optimal law; certificates are computed at the exact minimax level, which
can sit strictly between reward values. Independent recomputations check
every solution: an endpoint scan with interval refinement (its envelope is
the left certificate at a reward value), a fresh occupation LP at an
interior level, and deterministic enumeration.

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
CONSISTENCY_TOL = 1e-6    # value decomposition
QUANTILE_TIE_TOL = 1e-9


class SolverError(RuntimeError):
    """An internal inconsistency that theory rules out for valid inputs."""


@dataclass(frozen=True)
class VerificationReport:
    """Independent checks of a solved saddle point.

    saddle_left_gap  = max_x v(x, tail_level) - v*  (scan envelope or fresh LP)
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
    return _certify(instance, x_star, y_star, v_star, params, endpoint_scan_oracle(instance, params))


def _inner_max(instance, scan, y, params):
    """max_x v(x, y): the scan's envelope at a reward value, else a fresh LP."""
    if y in scan.ys:
        return float(scan.envelope[np.searchsorted(scan.ys, y)])
    sol = lp.solve(lp.build_average_lp(instance, y, params))
    if sol.status != "optimal":
        raise SolverError(f"certification LP returned {sol.status}")
    return sol.objective


def _certify(instance, x, y_star, v_star, params, scan):
    left_gap = _inner_max(instance, scan, y_star, params) - v_star
    right_gap = v_star - min(risk.saddle_value(instance, x, float(y), params) for y in scan.ys)
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


def sparsify(instance, x_star, y_star, params):
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
    prog = lp.build_sparsify_lp(instance, y_star, params, risk.breakpoints(instance).delta)
    sol = lp.solve(prog)
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
    """Full pipeline: occupation LP, quantile recovery, policy extraction,
    certification.

    mode "dual" solves only the polynomial-size program; "dual-primal"
    additionally enumerates the polytope vertices, solves the vertex
    program, and checks that both optima agree.

    x_star is the occupation program's basic optimum and y_star the
    quantile of its reward law. Certificates are computed there unless the
    law ties alpha at its quantile; then they are computed at the exact
    minimax level from the joint program and the run is flagged
    "interior-tail-level".
    """
    dual_sol = lp.solve(lp.build_dual_lp(instance, params))
    if dual_sol.status != "optimal":
        raise SolverError(f"occupation LP returned {dual_sol.status}; "
                          "check the instance with validate()")
    v_star = dual_sol.objective
    x_star = model.OccupationMeasure(lp.pair_values(instance, dual_sol))
    law = risk.reward_distribution(instance, x_star)
    y_star = risk.var(law, params.alpha)
    flags = []

    primal_value = None
    if mode == "dual-primal":
        vertices = chains.polytope_vertices(instance, cap=cap)
        primal_sol = lp.solve(lp.build_primal_lp(instance, vertices, params))
        if primal_sol.status != "optimal":
            raise SolverError(f"vertex LP returned {primal_sol.status}")
        primal_value = primal_sol.objective
        if abs(primal_value - v_star) > CERT_TOL:
            raise SolverError(
                f"minimax equality violated: vertex optimum {primal_value!r} "
                f"vs occupation optimum {v_star!r}")
    elif mode != "dual":
        raise ValueError(f"mode must be 'dual' or 'dual-primal', got {mode!r}")

    scan = endpoint_scan_oracle(instance, params)
    cert_y = y_star
    if _inner_max(instance, scan, y_star, params) - v_star > CERT_TOL:
        level = lp.solve(lp.build_level_lp(instance, params))
        if level.status != "optimal":
            raise SolverError(f"level LP returned {level.status}")
        if abs(level.objective - v_star) > CERT_TOL:
            raise SolverError(
                f"minimax level program disagrees with occupation optimum: "
                f"{level.objective!r} vs {v_star!r}")
        cert_y = float(level.values["y"])
        flags.append("interior-tail-level")

    report = _certify(instance, x_star, cert_y, v_star, params, scan)

    policy = model.extract_policy(instance, x_star)
    n_rand = model.n_randomizations(instance, policy)
    cvar_component = risk.cvar_right(law, params.alpha)
    mean_component = law.mean()
    if abs(v_star - (cvar_component + params.beta * mean_component)) > CONSISTENCY_TOL:
        raise SolverError(
            f"value decomposition off: {v_star!r} vs cvar {cvar_component!r} "
            f"+ beta * mean {mean_component!r}")

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
